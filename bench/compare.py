"""Compare two source trees with this benchmark (parent commit vs. change).

    python3 bench/compare.py --parent ../ordlite-parent --change .

Both sides run this checkout's bench/run.py, with the working directory set to
each tree so that each imports its own src/ordlite: the benchmark code and
settings are identical on both sides. Pair i runs both sides on seed
SEED_BASE + i, and the side that runs first alternates from pair to pair.

For every end-to-end metric and workload the report gives each side's median
and quartiles and a verdict:

- win: the change is better in at least 9 of 10 pairs (ties count for
  neither), the medians differ by more than the parent's quartile distance,
  and the change failed no more operations than the parent;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, unless every change run is better than every parent
  run;
- within bound: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED_BASE = 1000
PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed}: no output\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list, change: list, failed: dict) -> str:
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if wins >= WIN_SHARE * len(parent) and abs(cm - pm) > p3 - p1 and better(cm, pm):
        if failed["change"] > failed["parent"]:
            return "no win: the change failed more operations"
        return f"win ({wins}/{len(parent)} pairs)"
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if (p3 - p1) / pm > metric["bound"] and not all_better:
        return f"unresolved (parent spread {(p3 - p1) / pm:.3f} > bound {metric['bound']})"
    if worse > metric["bound"]:
        return f"regression ({worse:+.3f} worse, bound {metric['bound']})"
    return f"within bound ({worse:+.3f} worse, bound {metric['bound']})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    args = p.parse_args(argv)

    regressions = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                result = run_once(tree, workload, seed, SPEC["run_seconds"])
                failed[side] += result["failed"]
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        print(f"\n{workload}: failed ops parent={failed['parent']} change={failed['change']}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent, change = values["parent"][name], values["change"][name]
            pq, cq = quartiles(parent), quartiles(change)
            text = verdict(metric, parent, change, failed)
            regressions += text.startswith("regression")
            print(f"  {name:22s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}: {text}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
