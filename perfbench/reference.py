"""One-off reference figures for configurations that are not workloads.

    python3 perfbench/reference.py [--seed 1] [--seconds 15] [--rknn-n 2000,4000,8000]

* ``paper_na`` with ``kernel="numpy"`` (the columnar kernel instead of
  the default scalar one);
* ``fleet_mixed`` with ``backend="process"`` (shard pools of worker
  processes instead of threads);
* reverse-kNN (k=2) server latency against the number of uniform
  points N, on one R*-tree.

The first two run ``run.py`` with ``--kernel``/``--backend`` and print
its end-to-end metrics; the third times rknn queries in this process.
Run it from the checkout root; the figures go to stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, import_program, quantile  # noqa: E402

CONFIGS = [
    ("paper_na", ["--kernel", "numpy"]),
    ("fleet_mixed", ["--backend", "process"]),
]


def run_config(workload: str, flags, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} {flags} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def rknn_latency(n: int, seed: int, queries: int = 15) -> float:
    """Median server latency (ms) of rknn k=2 over ``n`` uniform points."""
    import_program()
    from repro import RKNNRequest, build_service, uniform_points
    from repro.datasets.synthetic import UNIT_UNIVERSE
    service = build_service(uniform_points(n, seed=seed),
                            universe=UNIT_UNIVERSE)
    rng = random.Random(seed)
    times = []
    try:
        for _ in range(queries):
            request = RKNNRequest((rng.random(), rng.random()), k=2)
            t0 = perf_counter()
            service.answer(request)
            times.append(perf_counter() - t0)
    finally:
        service.close()
    return quantile(times, 0.5) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--rknn-n", default="2000,4000,8000",
                        help="comma-separated dataset sizes for rknn")
    args = parser.parse_args(argv)
    for workload, flags in CONFIGS:
        result = run_config(workload, flags, args.seed, args.seconds)
        metrics = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                            for name, m in result["metrics"].items())
        print(f"{workload} {' '.join(flags)}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed; {metrics}")
    for n in (int(v) for v in args.rknn_n.split(",")):
        print(f"rknn k=2 at N={n}: median "
              f"{rknn_latency(n, args.seed):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
