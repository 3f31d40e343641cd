"""Spans around the calls into each gcff layer, recorded from the benchmark.

A wrapper is installed on *every* module binding of a traced function (for
example ``gcff.core.find_violation`` is also bound as
``gcff.solver.find_violation`` and ``gcff.cli.find_violation``), so a call is
traced whichever name it goes through.  ``installed`` removes every wrapper
on exit.  Spans stay in memory as tuples and are written out by the caller.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Fields of a span tuple.
ID, PARENT, OP, NAME, LAYER, START, END, NOTE = range(8)


def _scan_checks(m, g, passed: bool):
    """Count of column-versus-edge checks of a passing cover scan (computed, not counted)."""
    return ("pass", (len(g.edges) + len(g.loops)) * m.n) if passed else ("reject", 0)


def _note_find_violation(args, kwargs, result):
    prop = args[2] if len(args) > 2 else kwargs.get("prop", "cff")
    m, g = args[0], args[1]
    if prop == "sperner":
        return ("pass", len(g.edges)) if result is None else ("reject", 0)
    return _scan_checks(m, g, result is None)


def _note_is_g_cff(args, kwargs, result):
    return _scan_checks(args[0], args[1], bool(result))


def _note_outcome(args, kwargs, result):
    return (result.status, result.nodes)


def _note_longest(args, kwargs, result):
    return ("longest", result.nodes_explored)


def _note_code(args, kwargs, result):
    return len(result)


def _note_matrix(args, kwargs, result):
    return result.n


# layer -> [(module, attribute, note)]; a dotted attribute is a method.
TARGETS = {
    "solver": [
        ("gcff.solver", "exact_t", None),
        ("gcff.solver", "exists_cff", _note_outcome),
        ("gcff.solver", "longest_path_cff", _note_longest),
    ],
    "bounds": [("gcff.bounds", "bounds_for", None)],
    "core": [
        ("gcff.core", "find_violation", _note_find_violation),
        ("gcff.core", "is_g_cff", _note_is_g_cff),
        ("gcff.core", "is_d_disjunct", None),
        ("gcff.core", "IncidenceMatrix.to_text", None),
        ("gcff.core", "IncidenceMatrix.from_text", None),
    ],
    "graycode": [
        ("gcff.graycode", "reflected", _note_code),
        ("gcff.graycode", "modular", _note_code),
        ("gcff.graycode", "shorten", _note_code),
        ("gcff.graycode", "cycle_code", _note_code),
        ("gcff.graycode", "path_cycle_cff", _note_matrix),
        ("gcff.graycode", "to_set_system", None),
        ("gcff.graycode", "is_permutation", None),
        ("gcff.graycode", "is_gray", None),
        ("gcff.graycode", "is_cyclic", None),
    ],
    "constructions": [
        ("gcff.constructions", name, None)
        for name in ("from_coloring", "star_cff", "add_universal", "double_cycle",
                     "double_path", "windmill_cff", "with_isolated_vertices", "catalog")
    ],
    "graphs": [
        ("gcff.graphs", name, None)
        for name in ("make_family", "chromatic_number", "path", "cycle", "matching")
    ],
    "sperner": [("gcff.sperner", "optimal_1cff", None), ("gcff.sperner", "t1", None)],
    "cli": [("gcff.cli", "main", None)],
}

GRAY_GROUPS = {
    "reflected": "build", "modular": "build", "shorten": "build", "cycle_code": "build",
    "path_cycle_cff": "build", "to_set_system": "build",
    "is_permutation": "permutation", "is_gray": "gray", "is_cyclic": "cyclic",
}
IO_NAMES = {"IncidenceMatrix.to_text", "IncidenceMatrix.from_text"}


class Tracer:
    """In-memory span recorder; span 0 is the implicit root."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1
        self._op = 0
        self.origin = perf_counter()

    def begin_op(self) -> None:
        self._op = self._push()

    def end_op(self, label: str, start: float) -> None:
        sid = self._stack.pop()
        self.spans.append((sid, self._stack[-1], sid, label, "op", start, perf_counter(), None))
        self._op = 0

    def _push(self) -> int:
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid

    def wrap(self, layer: str, name: str, fn, note):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._push()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((sid, stack[-1], self._op, name, layer, start, end, None))
                raise
            end = perf_counter()
            stack.pop()
            extra = note(args, kwargs, result) if note is not None else None
            spans.append((sid, stack[-1], self._op, name, layer, start, end, extra))
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "layer", "start", "end", "note")
        with open(path, "w") as f:
            for s in self.spans:
                rec = dict(zip(keys, s))
                rec["start"] = round(s[START] - self.origin, 7)
                rec["end"] = round(s[END] - self.origin, 7)
                f.write(json.dumps(rec) + "\n")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, meth, owner.__dict__[meth]
    return owner, attr, getattr(owner, attr)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of every target in gcff's modules; restore all on exit."""
    saved = []
    modules = [m for name, m in sys.modules.items() if name == "gcff" or name.startswith("gcff.")]
    try:
        for layer, targets in TARGETS.items():
            for module, attr, note in targets:
                owner, name, original = _resolve(module, attr)
                if isinstance(original, classmethod):
                    wrapped = classmethod(tracer.wrap(layer, attr, original.__func__, note))
                    saved.append((owner, name, original))
                    setattr(owner, name, wrapped)
                    continue
                wrapped = tracer.wrap(layer, attr, original, note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapped)
                if "." in attr:
                    saved.append((owner, name, original))
                    setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _counts(s: tuple, by_id: dict) -> dict[str, int]:
    """Exact work counted at span s: solver nodes and levels, computed pair
    checks of passing scans, Gray-code words built at the outermost call."""
    name, layer, note = s[NAME], s[LAYER], s[NOTE]
    if note is None:
        return {}
    if name == "exists_cff":
        return {"solver.nodes": note[1], "solver.levels": 1}
    if name == "longest_path_cff":
        return {"solver.nodes": note[1]}
    if layer == "core" and note[0] == "pass":
        return {"core.pair_checks": note[1]}
    if layer == "graycode" and GRAY_GROUPS[name] == "build":
        parent = by_id.get(s[PARENT])
        if parent is None or parent[LAYER] != "graycode":
            return {"graycode.words": note}
    return {}


def layer_metrics(spans: list[tuple], passes: int, speeds: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the recorded spans.  Durations
    are scaled by the speed factor of the op they ran in, like op latencies."""
    by_id = {s[ID]: s for s in spans}

    def duration(s):
        return (s[END] - s[START]) * speeds.get(s[OP], 1.0)

    child: dict[int, float] = {}
    for s in spans:
        child[s[PARENT]] = child.get(s[PARENT], 0.0) + duration(s)

    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for s in spans:
        layer, name, note, dur = s[LAYER], s[NAME], s[NOTE], duration(s)
        if layer == "op":
            continue
        parent = by_id.get(s[PARENT])
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", dur - child.get(s[ID], 0.0))
        for key, value in _counts(s, by_id).items():
            add(key, value)
        if name == "exists_cff" and note is not None:
            add("solver.levels_exhausted", note[0] == "exhausted")
            add("solver.levels_found", note[0] == "found")
        elif layer == "core":
            if name in IO_NAMES:
                add("core.io_s", dur)
            elif note is not None:
                add("core.full_scan_s" if note[0] == "pass" else "core.reject_s", dur)
        elif layer == "graycode":
            in_gray = parent is not None and parent[LAYER] == "graycode"
            group = GRAY_GROUPS[name]
            if not in_gray or GRAY_GROUPS[parent[NAME]] != group:
                add(f"graycode.{group}_s", dur)
            if not in_gray:
                add("graycode.outer_s", dur)

    def per_pass(key):
        return acc.get(key, 0.0) / passes

    out = {f"{layer}.self_s": per_pass(f"{layer}.self_s") for layer in TARGETS}
    for key in ("solver.calls", "solver.nodes", "solver.levels", "solver.levels_exhausted",
                "bounds.calls", "core.calls", "core.pair_checks", "core.reject_s", "core.io_s",
                "graycode.calls", "graycode.words", "graycode.build_s",
                "graycode.permutation_s", "graycode.gray_s", "graycode.cyclic_s"):
        out[key] = per_pass(key)
    out["solver.nodes_per_s"] = _ratio(acc.get("solver.nodes"), acc.get("solver.self_s"))
    out["solver.found_frac"] = _ratio(acc.get("solver.levels_found"), acc.get("solver.levels"))
    out["core.pair_checks_per_s"] = _ratio(acc.get("core.pair_checks"),
                                           acc.get("core.full_scan_s"))
    out["graycode.words_per_s"] = _ratio(acc.get("graycode.words"), acc.get("graycode.outer_s"))
    return out


def _ratio(num, den) -> float:
    return num / den if num and den else 0.0


def op_counts(spans: list[tuple]) -> dict[int, dict[str, int]]:
    """Exact work counts per op id."""
    by_id = {s[ID]: s for s in spans}
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        if s[LAYER] == "op":
            continue
        for key, value in _counts(s, by_id).items():
            counts = out.setdefault(s[OP], {})
            counts[key] = counts.get(key, 0) + value
    return out
