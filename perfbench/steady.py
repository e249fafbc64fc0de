"""Steadiness mode: repeat workloads over seeds and report each metric's
spread, the figure the bounds in BENCHMARK.json are set from.

    python3 perfbench/steady.py --workload fleet_mixed --runs 10 --seconds 15

Each run is ``run.py`` in its own process with seed 1, 2, ... ``--runs``,
one after the other.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound, and the share of failed
operations of every run.  It exits 1 when a spread exceeds its bound,
when the runs' shares of failed operations differ, or when a run gives
a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for workload in args.workload:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = perf_counter()
            results.append(run_once(workload, seed, seconds, 0))
            walls.append(perf_counter() - t0)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs of {seconds:g} s "
              f"(wall {min(walls):.0f}-{max(walls):.0f} s each), "
              f"failed shares {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        bad |= len(shares) > 1 or not all(r["correct"] for r in results)
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            flag = "" if s <= bound / 3 else (" <- over 1/3 of bound"
                                              if s <= bound else " <- OVER")
            bad |= s > bound
            print(f"  {name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s:7.3f} {bound:6.2f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in values))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
