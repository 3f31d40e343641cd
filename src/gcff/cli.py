"""Command-line front end: construct, verify, bound, and solve cover-free
families on graphs, plus batch regeneration of the reference small-case
table and the figure matrices.  It only parses arguments, calls the library
and prints; `gcff.constructions.construct` chooses and checks constructions.

Exit codes: 0 success/verified, 1 property failure, 2 input error (a bad
argument, or a file that cannot be read or written as text), 3 budget
exceeded, 141 (128 + SIGPIPE) when the reader closes stdout first, as
`| head -0` does, with no error line.  `solve` stops at a default budget of
10^6 search nodes (`--budget`), so a search too large for it, such as
`solve complete:40`, exits 3 after about 7 s (best of three runs on a
2-core host) instead of searching for most of an hour.

Output files (`--output`, and the files `reproduce` writes) are rewritten in
place and cut to length, not truncated first; they are not written
atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import graycode
from .bounds import bounds_for, smaller_inner_block
from .constructions import METHODS, construct
from .core import PROPERTIES, IncidenceMatrix, find_violation
from .errors import InvalidInputError, ResourceLimitError
from .graphs import make_family
from .solver import DEFAULT_BUDGET, exact_t

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

#: `gcff solve` node budget: about 7 s on K_40 (best of three, 2-core
#: host), whose t = 11 tree is far larger.  Nodes, not seconds, so that
#: verdicts are deterministic.
SOLVE_BUDGET = 10 ** 6

#: `gcff gray` formats this many words at a time, not all the code's ints at once.
GRAY_BLOCK = 1 << 16


def _write(path, text: str) -> None:
    """Write text to path as UTF-8: the one way the CLI writes a file.

    The file is opened without O_TRUNC, written from its first byte and then
    cut to the written length.  Truncating to zero first, as `open(path, "w")`
    does, makes ext4 (by its default `auto_da_alloc` rule) start writeback
    when the file is closed, so each rewrite of an existing output would pay
    for a flush.  Only a regular file is cut, so `/dev/null`, pipes and
    `/dev/stdout` take the bytes as written.  There is no fsync, and the
    write is not atomic: one that fails part way can leave new bytes over
    old ones."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    g = make_family(args.graph)
    m, used = construct(g, args.method)
    k = g.family[1][0] if used == "windmill" else 0
    if smaller_inner_block(k):
        print(f"note: identity inner block may be suboptimal for k={k}", file=sys.stderr)
    _emit(m.to_text(), args.output)
    print(f"{used}: {m.t}x{m.n} matrix for {g.tag or args.graph}, verified", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = make_family(args.graph)
    m = IncidenceMatrix.from_text(Path(args.matrix).read_text())
    bad = find_violation(m, g, args.property)
    if args.format == "json-lines":
        rec = {"graph": args.graph, "property": args.property, "holds": bad is None}
        if bad is not None:
            rec["violation"] = {"kind": bad.kind, "edge": list(bad.edge), "column": bad.column}
        print(json.dumps(rec))
    elif bad is None:
        print(f"{args.property} holds for {args.graph} ({m.t}x{m.n})")
    else:
        print(f"{args.property} fails for {args.graph}: {bad}")
    return EXIT_OK if bad is None else EXIT_PROPERTY


def cmd_bounds(args) -> int:
    g = make_family(args.graph)
    rep = bounds_for(g)
    if args.format == "json-lines":
        for b in rep.bounds:
            print(json.dumps({
                "quantity": b.quantity, "kind": b.kind, "value": b.value,
                "source": b.source, "exact": b.exact,
            }))
        return EXIT_OK
    print(f"bounds for {rep.graph_id}:")
    for b in rep.bounds:
        star = " (exact)" if b.exact else ""
        print(f"  {b.quantity:3s} {b.kind:5s} {b.value:3d}  {b.source}{star}")
    for q in ("t", "t_e", "t_s"):
        lo, up, exact = rep.lower(q), rep.upper(q), rep.exact_value(q)
        if exact is not None:
            print(f"  => {q} = {exact}")
        elif lo is not None or up is not None:
            print(f"  => {q} in [{lo}, {up}]")
    return EXIT_OK


def cmd_solve(args) -> int:
    g = make_family(args.graph)
    res = exact_t(g, args.property, t_max=args.tmax, budget=args.budget)
    if args.format == "json-lines":
        print(json.dumps({
            "graph": args.graph, "property": args.property, "status": res.status,
            "t_min": res.t_min, "nodes": res.nodes_explored,
            "wall_time": round(res.wall_time, 6),
            "searched_exhaustively": list(res.searched_exhaustively),
            "floor": res.floor, "floor_source": res.floor_source,
            "levels": [[lv.t, lv.status, lv.nodes, round(lv.wall_s, 6)] for lv in res.levels],
        }))
    else:
        if res.status == "found":
            print(f"t = {res.t_min} for {args.graph} ({args.property}); "
                  f"nodes={res.nodes_explored}, floor {res.floor} from {res.floor_source}, "
                  f"search-exhausted {list(res.searched_exhaustively)}")
        elif res.status == "exhausted":
            print(f"no matrix up to t_max for {args.graph} ({args.property}); "
                  f"exhausted {list(res.searched_exhaustively)}")
        else:
            print(f"budget exceeded at t = {res.levels[-1].t} after {res.nodes_explored} nodes "
                  f"(exhausted {list(res.searched_exhaustively)}); "
                  f"rerun with a larger --budget")
    if res.witness is not None and (args.output or args.format == "text"):
        _emit(res.witness.to_text(), args.output)
    return EXIT_OK if res.status in ("found", "exhausted") else EXIT_BUDGET


def cmd_gray(args) -> int:
    try:
        radices = [int(x) for x in args.radices.split(",")]
    except ValueError:
        raise InvalidInputError(f"bad radix list {args.radices!r}") from None
    if args.kind == "modular":
        if len(set(radices)) != 1:
            raise InvalidInputError("modular codes need equal radices q,q,...,q")
        code = graycode.modular(radices[0], len(radices))
    else:
        code = graycode.reflected(radices)
    fields = ["%d"] * len(code.radices)
    line = ",".join(fields) + ("\t" + " ".join(fields) if args.map else "") + "\n"
    blocks = (code.array[i:i + GRAY_BLOCK] for i in range(0, len(code), GRAY_BLOCK))
    if args.map:  # elements firsts[i] + d_i rise with i; Python ints widen them past uint8
        blocks = (np.hstack((b, b + graycode.firsts(code.radices))) for b in blocks)
    _emit("".join(line * len(b) % tuple(b.ravel().tolist()) for b in blocks), args.output)
    cyc = "cyclic" if graycode.is_cyclic(code) else "not cyclic"
    print(f"{len(code)} words, {cyc}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

_FIGURES = [
    ("fig1_c12.mat", "cycle", 12),
    ("fig6_c8.mat", "cycle", 8),
    ("fig7a_c36.mat", "cycle", 36),
    ("fig7b_c27.mat", "cycle", 27),
    ("fig7c_c54.mat", "cycle", 54),
    ("fig8_c19.mat", "cycle", 19),
]


def _reproduce_figures(outdir: Path) -> list[str]:
    lines = []
    for fname, fam, n in _FIGURES:
        m, _ = construct(make_family(f"{fam}:{n}"), "gray")
        _write(outdir / fname, m.to_text())
        lines.append(f"{fname}: {m.t}x{m.n} cycle-CFF, verified")
    return lines


_TABLE4 = {
    "path": {3: (3, True), 4: (4, True), 5: (5, True), 6: (5, True), 7: (6, True),
             8: (6, True), 9: (6, True), 10: (6, True), 11: (7, False), 12: (7, False)},
    "cycle": {3: (3, True), 4: (4, True), 5: (5, True), 6: (5, True), 7: (6, True),
              8: (6, True), 9: (6, True), 10: (7, False), 11: (7, False), 12: (7, False)},
    "wheel": {3: (3, True), 4: (4, True), 5: (5, True), 6: (6, True), 7: (6, True),
              8: (7, True), 9: (7, True), 10: (7, True), 11: (8, False), 12: (8, False)},
    "complete": {n: (v, True) for n, v in
                 zip(range(3, 13), [3, 4, 5, 6, 7, 8, 9, 9, 9, 9])},
}

#: Families and sizes the batch report re-solves by exhaustive search.
#: Complete graphs stop at 9: the witness search for ten columns on nine
#: rows alone counts 9.8 million nodes, about 6.4 s on a 2-core host, where
#: the rest of the report takes under 1 s.
_SOLVE_SCOPE = {"path": 12, "cycle": 12, "wheel": 12, "complete": 9}


def _reproduce_table4(outdir: Path, budget: int) -> list[str]:
    lines = ["family n printed exact-printed bounds solver t(solver)"]
    records = []
    for fam, cells in _TABLE4.items():
        for n in sorted(cells):
            printed, bold = cells[n]
            g = make_family(f"{fam}:{n}")
            rep = bounds_for(g)
            lo, up = rep.lower("t"), rep.upper("t")
            brange = f"[{lo},{up}]"
            status, tmin = "skipped", None
            if n <= _SOLVE_SCOPE[fam]:
                res = exact_t(g, "cff", budget=budget, start=1, use_bounds=False)
                status, tmin = res.status, res.t_min
            lines.append(f"{fam} {n} {printed} {bold} {brange} {status} {tmin}")
            records.append({
                "family": fam, "n": n, "printed": printed, "printed_exact": bold,
                "bounds_lower": lo, "bounds_upper": up,
                "solver_status": status, "solver_t": tmin,
            })
    _write(outdir / "table4.json", json.dumps(records, indent=1))
    return lines


def cmd_reproduce(args) -> int:
    if args.what == "figures" and args.budget is not None:
        raise InvalidInputError("--budget applies to reproduce table4 only; figures runs no search")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    begin = time.perf_counter()
    if args.what == "figures":
        lines = _reproduce_figures(outdir)
    else:
        lines = _reproduce_table4(outdir, args.budget or DEFAULT_BUDGET)
    report = "\n".join(lines) + f"\nelapsed {time.perf_counter() - begin:.1f}s\n"
    _write(outdir / f"{args.what}.txt", report)
    sys.stdout.write(report)
    if args.what == "table4" and "budget-exceeded" in report:
        return EXIT_BUDGET
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: `parse_args` returns a fresh
    namespace on every call, and no argument has a mutable default."""
    p = argparse.ArgumentParser(
        prog="gcff",
        description="Construct, verify, bound, and exactly solve cover-free families on graphs.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a verified CFF matrix for a graph")
    c.add_argument("graph", help="graph spec, e.g. cycle:12, star:9, windmill:3,4")
    c.add_argument("--method", default="auto",
                   choices=("auto",) + METHODS)
    c.add_argument("--output", help="write the matrix here instead of stdout")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="check a matrix file against a graph")
    v.add_argument("graph")
    v.add_argument("matrix")
    v.add_argument("--property", default="cff", choices=list(PROPERTIES))
    v.add_argument("--format", default="text", choices=["text", "json-lines"])
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bounds", help="theorem bounds for a graph")
    b.add_argument("graph")
    b.add_argument("--format", default="text", choices=["text", "json-lines"])
    b.set_defaults(fn=cmd_bounds)

    s = sub.add_parser("solve", help="exact minimum ground size by exhaustive search")
    s.add_argument("graph")
    s.add_argument("--property", default="cff", choices=list(PROPERTIES))
    s.add_argument("--tmax", type=int, default=None)
    s.add_argument("--budget", type=_positive_int, default=SOLVE_BUDGET,
                   help=f"search nodes before giving up with exit 3 (default {SOLVE_BUDGET:,})")
    s.add_argument("--output", help="write the witness matrix here")
    s.add_argument("--format", default="text", choices=["text", "json-lines"])
    s.set_defaults(fn=cmd_solve)

    gr = sub.add_parser("gray", help="emit a mixed-radix Gray code")
    gr.add_argument("radices", help="comma-separated, e.g. 2,2,3")
    gr.add_argument("--kind", default="reflected", choices=["reflected", "modular"])
    gr.add_argument("--map", action="store_true", help="also emit the transversal subsets")
    gr.add_argument("--output")
    gr.set_defaults(fn=cmd_gray)

    r = sub.add_parser("reproduce", help="regenerate the reference table and figure matrices")
    r.add_argument("what", choices=["table4", "figures"])
    r.add_argument("--outdir", default="reproduction")
    r.add_argument("--budget", type=_positive_int, default=None,
                   help=f"search nodes per table4 solve (default {DEFAULT_BUDGET:,})")
    r.set_defaults(fn=cmd_reproduce)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone; the interpreter's last flush goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    # OSError covers a missing file, a directory given as a file and an
    # unwritable output; UnicodeDecodeError a binary file read as text
    except (InvalidInputError, ResourceLimitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
