#!/usr/bin/env python3
"""gcff benchmark: one workload per run, closed loop, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports gcff from ./src.  A run sets up
the workload (import of gcff, input generation from the seed, one warm-up
op) five times and reports the medians, then repeats the workload's fixed op list
(one *pass*) until S seconds have passed and at least twelve op latencies
lie above the 90th percentile.  Every answer is checked; a wrong answer or an
exception fails the op and makes the exit code 1.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the traced ones, compares the
exact work counts with reference_counts.json, and writes the spans.  The
last line of stdout is the JSON result; a record with the environment and
every detail goes to --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_counts.json"
SETUP_REPEATS = 5
MAX_MEASURE_S = 140  # keeps a run below three minutes
# Latencies that must lie above p90 before a run may stop.  Ten is the
# minimum for a p90; twelve gives table4-proofs a fourth pass, which puts its
# p90 inside the samples of one op (path:10) instead of at the edge of them.
MIN_BEYOND_P90 = 12
# Nominal times of the reference loops.  The host's speed drifts by up to
# ~35% over seconds and minutes, for gcff and for the loops alike; times are
# reported at the nominal loop time (raw ones are printed next to them).
# Constants, so runs on one host, Python and numpy compare; compare.py refuses
# records whose Python or numpy versions differ.
PYTHON_LOOP_S = 2.5e-4
NUMPY_LOOP_S = 3.0e-4


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import gcff.solver

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        # Read, not imported: the backend switch is slated for removal.
        "backend": getattr(gcff.solver, "BACKEND", None),
    }


def python_loop() -> float:
    """Time one run of a fixed pure-Python loop of integer and bit operations,
    the kind of work gcff's solver, verifier and CLI do."""
    start = perf_counter()
    acc = 0
    for c in range(3000):
        if c & ~12345 == 0:
            acc += 1
        acc ^= c
    return perf_counter() - start


def numpy_loop():
    """A timed np.unique over a fixed array, the kind of work the Gray-code
    predicates do.  The host's slow spells slow array code more than the
    Python loop, so a numpy-bound workload is scaled by this one.  Once
    gcff.graycode.is_permutation stops calling np.unique, this loop no longer
    tracks gray-sweep's own work: re-check it against the integer loop then."""
    import numpy

    values = numpy.random.default_rng(0).integers(0, 1 << 20, 2048)

    def loop() -> float:
        start = perf_counter()
        numpy.unique(values)
        return perf_counter() - start

    return loop


class Runner:
    """Runs ops, keeps latencies, failures and (traced) per-op info."""

    def __init__(self, wrong_answer: type[Exception], loop, nominal: float):
        self.wrong_answer = wrong_answer
        self.loop = loop
        self.nominal = nominal
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, tracer=None) -> tuple[float, dict]:
        self.attempted += 1
        start = perf_counter()
        if tracer is not None:
            tracer.begin_op()
        try:
            elapsed, info = op.run()
        except Exception as exc:  # any raise is a failed op, recorded and reported
            elapsed, info = perf_counter() - start, {}
            detail = str(exc) if isinstance(exc, self.wrong_answer) else \
                traceback.format_exc(limit=3)
            self.failures.append(f"{op.label}: {detail}")
        finally:
            if tracer is not None:
                tracer.end_op(op.label, start)
        return elapsed, info

    def run_pass(self, ops, tracer=None) -> "Pass":
        """One pass over the op list, timing the reference loop between ops."""
        lat, infos, loops = [], [], [self.loop()]
        for op in ops:
            elapsed, info = self.run_op(op, tracer)
            lat.append(elapsed)
            infos.append(info)
            loops.append(self.loop())
        return Pass(lat, infos, [self.nominal / t for t in loops])


class Pass:
    """Latencies of one pass, each scaled to the nominal machine speed.

    Op i ran between reference-loop speeds loops[i] and loops[i + 1] (nominal
    over measured loop time); its factor is the median of the two speeds on
    each side of it, so a long op is scaled by the speed around it.
    """

    def __init__(self, lat: list[float], infos: list[dict], loops: list[float]):
        self.raw = lat
        self.infos = infos
        self.speeds = [statistics.median(loops[max(0, i - 1):i + 3]) for i in range(len(lat))]
        self.lat = [x * f for x, f in zip(lat, self.speeds)]
        self.wall = sum(self.lat)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def beyond(values: list[float], cut: float) -> int:
    return sum(1 for v in values if v > cut)


def measure(ops, seconds: float, runner: Runner) -> dict:
    """Untraced passes until `seconds` are spent and enough latencies exceed p90."""
    begin = perf_counter()
    passes: list[Pass] = []
    lat: list[float] = []
    while True:
        passes.append(runner.run_pass(ops))
        lat += passes[-1].lat
        spent = perf_counter() - begin
        enough = len(lat) >= 2 and beyond(lat, p90(lat)) >= MIN_BEYOND_P90
        if (spent >= seconds and enough) or spent + spent / len(passes) > MAX_MEASURE_S:
            break
    cut = p90(lat) if len(lat) >= 2 else lat[-1]
    raw = [x for p in passes for x in p.raw]
    return {
        "passes": len(passes),
        "samples": len(lat),
        "beyond_p90": beyond(lat, cut),
        "speed": statistics.median(f for p in passes for f in p.speeds),
        "raw": {
            "wall_s": statistics.median(sum(p.raw) for p in passes),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p90_ms": (p90(raw) if len(raw) >= 2 else raw[-1]) * 1e3,
        },
        "metrics": {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (cut * 1e3, "ms"),
        },
    }


def measure_traced(wl, seconds: float, runner: Runner, out_dir: Path, label: str) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    begin = perf_counter()
    plain, traced, floor_gap = [], [], 0
    op_ids: list[tuple] = []
    speeds: dict[int, float] = {}
    while True:
        plain.append(runner.run_pass(wl.ops).wall)
        first = len(tracer.spans)
        with tracing.installed(tracer):
            done = runner.run_pass(wl.ops, tracer)
        traced.append(done.wall)
        floor_gap += sum(i.get("floor_gap", 0) for i in done.infos)
        op_spans = [s for s in tracer.spans[first:] if s[tracing.LAYER] == "op"]
        speeds.update((s[tracing.ID], f) for s, f in zip(op_spans, done.speeds))
        if len(traced) == 1:
            op_ids = op_spans
        spent = perf_counter() - begin
        if spent >= seconds or spent + spent / len(traced) > MAX_MEASURE_S:
            break
    passes = len(traced)
    metrics = tracing.layer_metrics(tracer.spans, passes, speeds)
    metrics["bounds.floor_gap"] = floor_gap / passes
    # A ratio, not a difference: two medians of noisy passes can differ by
    # less than zero, and a ratio stays positive.
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["trace.spans"] = len(tracer.spans) / passes

    # Exact counts of the first traced pass, per op, against the reference.
    fixed = {op.label for op in wl.ops if op.fixed}
    per_op = tracing.op_counts(tracer.spans)
    counts = {s[tracing.NAME]: per_op.get(s[tracing.ID], {}) for s in op_ids
              if s[tracing.NAME] in fixed}
    reference = json.loads(REFERENCE.read_text()).get(wl.name, {}) if REFERENCE.exists() else {}
    mismatches = []
    for op_label, got in sorted(counts.items()):
        want = reference.get(op_label)
        if want is None:
            continue
        for key in sorted(set(want) | set(got)):
            if want.get(key, 0) != got.get(key, 0):
                mismatches.append(f"{op_label} {key}: reference {want.get(key, 0)}, "
                                  f"got {got.get(key, 0)}")
    metrics["counts.checked"] = sum(1 for k in counts if k in reference)
    spans_file = out_dir / f"spans-{label}.jsonl"
    tracer.write(spans_file)
    return {"passes": passes, "untraced_passes": len(plain), "metrics": metrics,
            "overhead_s": statistics.median(traced) - statistics.median(plain),
            "counts": counts, "count_mismatches": mismatches, "spans_file": str(spans_file)}


UNITS = {
    "self_s": "s", "reject_s": "s", "io_s": "s", "build_s": "s", "permutation_s": "s",
    "gray_s": "s", "cyclic_s": "s", "overhead_ratio": "ratio", "nodes_per_s": "1/s",
    "words_per_s": "1/s", "pair_checks_per_s": "1/s", "found_frac": "ratio",
    "floor_gap": "rows", "pair_checks": "pairs-computed",
}


def unit_of(name: str) -> str:
    return UNITS.get(name.split(".", 1)[1], "count")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the result record, spans and scratch files")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    imports = []
    try:
        # gcff's one dependency; its import time belongs to the environment,
        # and it swung setup_s by 60% between sets of runs on this host.
        import numpy  # noqa: F401
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules if m == "gcff" or m.startswith("gcff.")]:
                del sys.modules[name]
            start = perf_counter()
            import gcff.cli  # imports every layer
            imports.append(perf_counter() - start)
    except ImportError as exc:
        print(f"error: cannot import gcff from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(gcff.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported gcff from {gcff.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    import_s = statistics.median(imports)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-s{args.seed}-t{args.trace}"

    if args.workload == "gray-sweep":
        loop, nominal = numpy_loop(), NUMPY_LOOP_S
    else:
        loop, nominal = python_loop, PYTHON_LOOP_S
    runner = Runner(workloads.WrongAnswer, loop, nominal)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        runner.run_op(wl.warmup)
        setups.append(perf_counter() - start)
    # The harness's own inputs (graphs up to n = 3000) would otherwise be
    # rescanned by every full collection during the ops.
    gc.collect()
    gc.freeze()
    setup_raw = import_s + statistics.median(setups)
    setup_speed = nominal / statistics.median(loop() for _ in range(21))
    setup_s = setup_raw * setup_speed

    if args.trace:
        res = measure_traced(wl, args.seconds, runner, out_dir, label)
    else:
        res = measure(wl.ops, args.seconds, runner)
        res["metrics"]["setup_s"] = (setup_s, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res["metrics"]["peak_rss_mb"] = (peak_kb / 1024, "MB")
    metrics = {k: (v if isinstance(v, tuple) else (v, unit_of(k)))
               for k, v in res.pop("metrics").items()}

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "setup_s": setup_s, "setup_raw_s": setup_raw, "setup_speed": setup_speed,
        "attempted": runner.attempted, "failed": failed,
        "fail_frac": failed / runner.attempted, "failures": runner.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **res,
    }
    (out_dir / f"result-{label}.json").write_text(json.dumps(record, indent=1))

    # The human-readable report goes to stdout ahead of the JSON line.  Times
    # are at the nominal loop speed; the "raw" column is the unscaled time.
    env = record["env"]
    raw = dict(res.get("raw", {}), setup_s=setup_raw) if not args.trace else {}
    print(f"{args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} sha={env['git_sha']} "
          f"backend={env['backend']}")
    for name, (value, unit) in sorted(metrics.items()):
        extra = f"  raw {raw[name]:.6g} {unit}" if name in raw else ""
        print(f"  {name:28s} {value:14.6g} {unit}{extra}")
    print(f"  {'fail_frac':28s} {record['fail_frac']:14.6g} ratio "
          f"({failed} of {runner.attempted} ops)")
    if args.trace:
        print(f"  traced minus untraced pass: {res['overhead_s']:.6g} s; "
              f"{len(res['count_mismatches'])} exact counts differ from the reference")
    else:
        print(f"  samples {res['samples']} in {res['passes']} passes, "
              f"{res['beyond_p90']} above p90; speed factor {res['speed']:.3f}")
    for line in res.get("count_mismatches", []):
        print(f"  count differs: {line}")
    for line in runner.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
