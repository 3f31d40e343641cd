#!/usr/bin/env python3
"""Compare two sets of untraced benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result-*-t0.json records that run.py writes to its
--out directory.  For every workload and end-to-end metric it prints both
medians and the change, and flags a change worse than the metric's bound in
BENCHMARK.json.  Runs on different solver backends are refused (exit 2): a
compiled kernel changes times by 50-85x, so such a comparison says nothing
about the code.  Runs on different Python or numpy versions are refused too:
reported times are scaled by reference loops whose nominal times are
constants, and a new interpreter or numpy changes those loops' speed.  Exit 1
if any metric got worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("result-*-t0.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    records = [r for recs in (*base.values(), *new.values()) for r in recs]
    for key in ("backend", "python", "numpy"):
        values = {r["env"][key] for r in records}
        if len(values) > 1:
            print(f"refusing to compare runs with different {key}: {sorted(map(str, values))}",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in sorted(set(base) & set(new)):
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            change = (n - b) / b
            flag = "WORSE" if sign * change > bound else ""
            worse += bool(flag)
            print(f"{workload:18s} {name:12s} {b:12.5g} -> {n:12.5g} {change:+8.2%} "
                  f"(bound {bound:.0%}, {len(base[workload])}/{len(new[workload])} runs) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
