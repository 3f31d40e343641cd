"""The four workloads: seeded op lists over gcff's public API, each op checked
against expected values written here or computed by ``oracle``.

An op is a callable that runs its library calls, times only those calls, and
then checks the answers outside the timed region.  It returns
``(elapsed_s, info)`` and raises ``WrongAnswer`` on any mismatch.  ``info``
carries per-op counts the traced run reports, such as ``floor_gap``.

gcff modules are looked up at call time (``solver.exact_t``, not a bound
name), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from math import prod
from pathlib import Path
from time import perf_counter
from typing import Callable

import gcff.bounds as bounds
import gcff.cli as cli
import gcff.graphs as graphs
import gcff.graycode as graycode
import gcff.solver as solver

import oracle


class WrongAnswer(Exception):
    """An op's answer differs from the expected value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


@dataclass
class Op:
    label: str
    run: Callable[[], tuple[float, dict]]
    fixed: bool = True  # same instance for every seed, so its counts have a reference


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op


def _check_witness(w, g, t: int, prop: str) -> None:
    expect(w is not None and w.t == t and w.n == g.n, f"witness shape for t={t}")
    bad = oracle.Matrix(w.t, list(w.cols)).first_violation(g.edges, g.loops, prop)
    expect(bad is None, f"witness fails {prop}: {bad}")


# ---------------------------------------------------------------------------
# table4-proofs: the small-n table at the pure-Python scope, plus longest path
# ---------------------------------------------------------------------------

# Minimum ground sizes from the paper's small-n table; t(C_10) = 7 is the
# README's search-settled cell.
TABLE4 = {
    "path": {3: 3, 4: 4, 5: 5, 6: 5, 7: 6, 8: 6, 9: 6, 10: 6},
    "cycle": {3: 3, 4: 4, 5: 5, 6: 5, 7: 6, 8: 6, 9: 6, 10: 7},
    "wheel": {3: 3, 4: 4, 5: 5, 6: 6, 7: 6, 8: 7, 9: 7, 10: 7},
    "complete": {n: n for n in range(3, 9)},
}
# Largest path with a CFF on t rows (the paper's lemmas; README).
LONGEST_PATH = {4: 4, 5: 6, 6: 10}


def _table4_cell(spec: str, g, want: int) -> Op:
    def run():
        start = perf_counter()
        rep = bounds.bounds_for(g)
        res = solver.exact_t(g, "cff", start=1, use_bounds=False)
        elapsed = perf_counter() - start
        expect((res.status, res.t_min) == ("found", want),
               f"{spec}: got {res.status} t={res.t_min}, want {want}")
        expect(res.searched_exhaustively == tuple(range(1, want)),
               f"{spec}: exhausted levels {res.searched_exhaustively}")
        _check_witness(res.witness, g, want, "cff")
        lo, up = rep.lower("t"), rep.upper("t")
        expect(lo is not None and lo <= want and (up is None or want <= up),
               f"{spec}: bounds [{lo}, {up}] exclude {want}")
        return elapsed, {"floor_gap": want - lo}

    return Op(f"table4:{spec}", run)


def _longest_path(t: int, want: int) -> Op:
    g = graphs.make_family(f"path:{want}")

    def run():
        start = perf_counter()
        res = solver.longest_path_cff(t)
        elapsed = perf_counter() - start
        expect((res.status, res.n_max) == ("complete", want),
               f"longest path t={t}: got {res.status} {res.n_max}, want {want}")
        _check_witness(res.witness, g, t, "cff")
        return elapsed, {}

    return Op(f"longest-path:{t}", run)


def table4_proofs(seed: int) -> Workload:
    ops = [_table4_cell(f"{fam}:{n}", graphs.make_family(f"{fam}:{n}"), want)
           for fam, cells in TABLE4.items() for n, want in cells.items()]
    ops += [_longest_path(t, want) for t, want in LONGEST_PATH.items()]
    random.Random(seed).shuffle(ops)
    warm = _table4_cell("cycle:7", graphs.make_family("cycle:7"), 6)
    return Workload("table4-proofs", ops, warm)


# ---------------------------------------------------------------------------
# solve-witness: `gcff solve` calls that mostly end at a witness
# ---------------------------------------------------------------------------

# (spec, property, minimum rows, source of the value)
SOLVE_MIX = [
    ("complete:9", "cff", 9, "paper table"),
    ("wheel:10", "cff", 7, "paper table"),
    ("matching:8", "cff", 5, "catalogued optimal 5x8 matching family"),
    ("matching:8", "ecff", 4, "test suite value"),
    ("star:8", "cff", oracle.t1(7) + 1, "star theorem t1(n-1)+1"),
    ("star:12", "cff", oracle.t1(11) + 1, "star theorem t1(n-1)+1"),
    ("hamming:2x2", "cff", 4, "paper table (C_4)"),
    ("hamming:2x2x2", "cff", 6, "test suite value"),
    ("bipartite:3,3", "cff", 6, "coloring construction; level 5 exhausted"),
    ("windmill:3,3", "cff", 6, "windmill construction t1(3)+3; level 5 exhausted"),
    ("windmill:3,4", "cff", 6, "windmill lower bound; certified witness"),
    ("loops:6", "cff", oracle.t1(6), "loop graphs need t1(n)"),
    ("path:10", "cff", 6, "paper table"),
    ("cycle:9", "cff", 6, "paper table"),
    ("path:10", "ecff", 6, "level 5 exhausted"),
    ("complete:9", "sperner", oracle.t1(9), "t_s = t1(chromatic number)"),
    ("sperner:4", "sperner", oracle.t1(math.comb(4, 2)), "t_s = t1(largest antichain)"),
    ("wheel:12", "sperner", oracle.t1(4), "t_s = t1(chi(W_12) = 4)"),
]


def _solve(spec: str, prop: str, g, want: int) -> Op:
    def run():
        start = perf_counter()
        res = solver.exact_t(g, prop)
        elapsed = perf_counter() - start
        expect((res.status, res.t_min) == ("found", want),
               f"{spec} {prop}: got {res.status} t={res.t_min}, want {want}")
        expect(res.floor <= want and res.searched_exhaustively == tuple(range(res.floor, want)),
               f"{spec} {prop}: floor {res.floor}, exhausted {res.searched_exhaustively}")
        _check_witness(res.witness, g, want, prop)
        return elapsed, {"floor_gap": want - res.floor}

    return Op(f"solve:{spec}:{prop}", run)


def solve_witness(seed: int) -> Workload:
    ops = [_solve(spec, prop, graphs.make_family(spec), want)
           for spec, prop, want, _ in SOLVE_MIX]
    random.Random(seed).shuffle(ops)
    warm = _solve("cycle:8", "cff", graphs.make_family("cycle:8"), 6)
    return Workload("solve-witness", ops, warm)


# ---------------------------------------------------------------------------
# construct-verify: `gcff construct` then `gcff verify`, in-process
# ---------------------------------------------------------------------------

# The seeded pass ops sit on a log-spaced grid over [N_LO, N_HI]: point i
# gets family i % 4 and n = exp(lo + (i + 1/2 + d) / GRID * (hi - lo)), with
# a seeded jitter d in [-JITTER, JITTER].  Independent log-uniform draws made
# the per-run median and 90th percentile swing by 20-50% between seeds,
# because a handful of large-n ops (verification is O(|E| n)) set both.
# Reject ops: two grid points (cycle:~290 and cycle:~850, large enough for
# the early exit to matter), complete:9, and SMALL_REJECTS extra specs on a
# jittered log grid over [N_LO, SMALL_HI].  The extra ones are small on purpose:
# they keep the median op below the size where the O(|E| n) scan overtakes
# the CLI's fixed cost, so the median does not jump between the two regimes.
SEEDED_FAMILIES = ("wheel", "path", "cycle", "star")
FIXED_SPECS = ["windmill:3,100", "windmill:4,50", "hamming:3x3x3", "bipartite:5,6",
               "matching:12", "loops:300", "complete:9"]
N_LO, N_HI, GRID, JITTER = 5, 3000, 48, 0.05
REJECT_POINTS = (30, 38)
SMALL_REJECTS, SMALL_HI = 12, 60


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _construct_verify(spec: str, g, workdir: Path, reject_col: int | None,
                      fixed: bool) -> Op:
    family, _, arg = spec.partition(":")
    args = tuple(int(x) for x in arg.replace("x", ",").split(","))
    want_rows = oracle.construct_rows(family, args)
    matrix_file, copy_file = str(workdir / "F.mat"), str(workdir / "F-bad.mat")

    def run():
        start = perf_counter()
        code = _cli(["construct", spec, "--output", matrix_file])[0]
        elapsed = perf_counter() - start
        expect(code == 0, f"construct {spec}: exit {code}")
        m = oracle.Matrix.parse(Path(matrix_file).read_text())
        expect((m.t, m.n) == (want_rows, g.n),
               f"construct {spec}: {m.t}x{m.n}, want {want_rows}x{g.n}")
        expect(m.first_violation(g.edges, g.loops) is None, f"construct {spec}: not a CFF")
        if reject_col is None:
            argv, want = ["verify", spec, matrix_file], None
        else:
            j = reject_col
            cols = list(m.cols)
            cols[j] = cols[j - 1] | cols[j + 1]
            bad = oracle.Matrix(m.t, cols)
            Path(copy_file).write_text(bad.text())
            argv = ["verify", spec, copy_file, "--format", "json-lines"]
            # Column j now contains columns j - 1 and j + 1, so any edge at j
            # covers one of them: the first violation is a cover violation.
            want = bad.first_violation(g.edges, g.loops)
            expect(want is not None and want[0] == "cover",
                   f"{spec}: column {j} mutation gave {want}")
        start = perf_counter()
        code, out = _cli(argv)
        elapsed += perf_counter() - start
        if want is None:
            expect(code == 0, f"verify {spec}: exit {code}")
            return elapsed, {}
        expect(code == 1, f"verify {spec} col {reject_col}: exit {code}, want 1")
        rec = json.loads(out.splitlines()[-1])
        got = rec.get("violation") or {}
        kind, (a, b), col = want
        expect(rec.get("holds") is False
               and got == {"kind": kind, "edge": [a, b], "column": col},
               f"verify {spec} col {reject_col}: reported {got}, want {want}")
        # Recheck the reported violation directly on the copy.
        ea, eb = got["edge"]
        expect((min(ea, eb), max(ea, eb)) in g.edges and got["column"] not in (ea, eb)
               and not bad.cols[got["column"]] & ~(bad.cols[ea] | bad.cols[eb]),
               f"verify {spec}: reported column is not inside the edge's union")
        return elapsed, {}

    tag = "reject" if reject_col is not None else "pass"
    return Op(f"construct-verify:{spec}:{tag}", run, fixed)


def construct_verify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    lo, hi = math.log(N_LO), math.log(N_HI)
    ops = []
    for i in range(GRID):
        x = (i + 0.5 + JITTER * (2 * rng.random() - 1)) / GRID
        spec = f"{SEEDED_FAMILIES[i % 4]}:{round(math.exp(lo + x * (hi - lo)))}"
        g = graphs.make_family(spec)
        reject = rng.randint(2, g.n - 2) if i in REJECT_POINTS else None
        ops.append(_construct_verify(spec, g, workdir, reject, False))
    small = math.log(SMALL_HI) - lo
    for k in range(SMALL_REJECTS):
        x = (k + 0.5 + JITTER * (2 * rng.random() - 1)) / SMALL_REJECTS
        spec = f"{SEEDED_FAMILIES[k % 4]}:{round(math.exp(lo + x * small))}"
        g = graphs.make_family(spec)
        ops.append(_construct_verify(spec, g, workdir, rng.randint(2, g.n - 2), False))
    for spec in FIXED_SPECS:
        g = graphs.make_family(spec)
        reject = rng.randint(1, g.n - 2) if spec == "complete:9" else None
        ops.append(_construct_verify(spec, g, workdir, reject, True))
    rng.shuffle(ops)
    warm = _construct_verify("cycle:100", graphs.make_family("cycle:100"), workdir, None, True)
    return Workload("construct-verify", ops, warm)


# ---------------------------------------------------------------------------
# gray-sweep: build a code, then is_permutation / is_gray / is_cyclic
# ---------------------------------------------------------------------------

# Reflected codes sampled per pass from the 22,502 criterion-1 radix vectors
# (systematically, from a seeded start, over the vectors sorted by size), and
# shortened cycle codes per pass, n stratified over [5, 4000].
GRAY_SAMPLE, CYCLE_SAMPLE, CYCLE_HI = 1200, 120, 4000


def _gray(label: str, build, words: int, cyclic: bool, radices=None, fixed=True) -> Op:
    def run():
        start = perf_counter()
        code = build()
        perm = graycode.is_permutation(code)
        gray = graycode.is_gray(code)
        cyc = graycode.is_cyclic(code)
        elapsed = perf_counter() - start
        expect(len(code) == words, f"{label}: {len(code)} words, want {words}")
        expect(radices is None or tuple(code.radices) == radices,
               f"{label}: radices {code.radices}, want {radices}")
        full = radices is None or words == prod(radices)
        expect((perm, gray, cyc) == (full, True, cyclic),
               f"{label}: permutation/gray/cyclic = {perm}/{gray}/{cyc}")
        return elapsed, {}

    return Op(label, run, fixed)


def _reflected(radices) -> Op:
    return _gray(f"reflected:{','.join(map(str, radices))}",
                 lambda: graycode.reflected(radices), prod(radices),
                 oracle.reflected_cyclic(radices), fixed=False)


def _cycle(n: int, fixed: bool = False) -> Op:
    return _gray(f"cycle-code:{n}", lambda: graycode.cycle_code(n), n, True,
                 oracle.cycle_radices(n), fixed)


def gray_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    vectors = sorted(oracle.radix_vectors(), key=lambda v: (prod(v), v))
    step = len(vectors) / GRAY_SAMPLE
    first = rng.random() * step
    ops = [_reflected(vectors[int(first + i * step)]) for i in range(GRAY_SAMPLE)]
    for q in (2, 3, 4, 5):
        for k in range(1, int(math.log(4096, q) + 1e-9) + 1):
            ops.append(_gray(f"modular:{q}^{k}", lambda q=q, k=k: graycode.modular(q, k),
                             q ** k, True))
    span = (CYCLE_HI - 5) / CYCLE_SAMPLE
    ops += [_cycle(5 + int((i + rng.random()) * span)) for i in range(CYCLE_SAMPLE)]
    rng.shuffle(ops)
    return Workload("gray-sweep", ops, _cycle(100, fixed=True))


WORKLOADS = {
    "table4-proofs": lambda seed, workdir: table4_proofs(seed),
    "solve-witness": lambda seed, workdir: solve_witness(seed),
    "construct-verify": construct_verify,
    "gray-sweep": lambda seed, workdir: gray_sweep(seed),
}
