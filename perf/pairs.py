"""Alternating pairs of benchmark runs on two checkouts of this repository.

    python3 perf/pairs.py BASE CHANGE --workload cli-mix --pairs 10 --seed 701

BASE and CHANGE are two checkouts, for example a `git archive` of the parent
commit and the working tree.  Pair k runs `python3 bench/run.py --workload W
--seed SEED+k --seconds 25 --trace 0` once in each checkout, as a subprocess
with the checkout as its working directory, BASE first when k is even and
CHANGE first when k is odd.  Each run's metrics are the JSON object that it
prints last.  The benchmark itself is read from each checkout and not
changed.

Per metric the script prints each side's median and quartiles (the
inclusive method of `statistics.quantiles`), the change of the median
relative to BASE, BASE's interquartile range, and the pairs that CHANGE
won, by the direction that BASE's BENCHMARK.json gives the metric; a tie
counts for neither.  Each pair's line gives both throughputs.  The exit
code is 1 when a run fails or reports `correct: false`, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 25  # the timed length of every run


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The last JSON line that one benchmark run in `checkout` prints."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, better: str, base, change) -> str:
    """One line for one metric over the pairs (base[k], change[k])."""
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    rel = (c2 - b2) / b2 * 100 if b2 else float("nan")
    return (
        f"{name}: base {b2:.5g} [{b1:.5g}, {b3:.5g}] -> change {c2:.5g} [{c1:.5g}, {c3:.5g}] "
        f"({rel:+.1f}%, base IQR {b3 - b1:.3g}); change won {won}/{len(base)} ({better} is better)"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="the seed of pair 0; pair k takes seed + k")
    args = p.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    bad = 0
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed + k)
            bad += result["failed"] > 0 or not result["correct"]
            runs[side].append(result)
        line = ", ".join(
            f"{runs[s][-1]['metrics']['throughput_ops_s']['value']:.0f}" for s in ("base", "change")
        )
        print(f"pair {k} seed {args.seed + k} ({order[0]} first): throughput base, change = {line}",
              flush=True)
    for name in better:
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        print(summary(name, better[name], values["base"], values["change"]))
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    print(f"failed operations: base {failed['base']}, change {failed['change']}; "
          f"runs with a failure or correct false: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
