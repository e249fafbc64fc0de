"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper_na --seed 1 --seconds 15 --trace 0

``--seconds`` is the measured time: rounds of the workload run until the
time spent inside the program's calls reaches it (checks and input
generation are not counted), and the last round is always finished.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics, from a run whose
odd rounds are traced (see ``layers.py``) and whose even rounds are
not, which gives the tracing overhead.  Run it from the checkout root;
it imports the program from ``src/``.  ``--backend`` and ``--kernel``
change the execution configuration for one-off reference runs (see
``reference.py``); the benchmark's workloads run without them.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OpLog, ProgramMissing, peak_rss_mb, quantile  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("server_requests_per_1k_ops", "count"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
]

#: A run stops starting rounds after this much wall time, whatever its
#: measured time, so that it ends well inside the 180 s a run may take.
WALL_LIMIT_S = 120.0


def timed_build(workload, setup_times) -> None:
    """Build the workload's service under the clock and adopt it as
    ``workload.service``.  The previous service is closed first, outside
    the clock; ``workload.service`` is its only reference, so it is
    garbage before the next build starts and no two services are ever
    alive at once."""
    workload.close()
    gc.collect()
    t0 = perf_counter()
    workload.service = workload.build()
    setup_times.append(perf_counter() - t0)


def run(name: str, seed: int, seconds: float, trace: bool,
        backend: Optional[str] = None, kernel: Optional[str] = None) -> dict:
    from workloads import WORKERS, WORKLOADS
    from layers import PER_LAYER, LayerTrace
    from repro import ExecutionConfig, PhaseProfiler

    execution = None
    if backend or kernel:
        execution = ExecutionConfig(backend=backend or "thread",
                                    kernel=kernel or "scalar",
                                    workers=WORKERS)
    workload = WORKLOADS[name](seed, execution)
    setup_times = []
    while (len(setup_times) < workload.setup_reps
           or sum(setup_times) < workload.setup_min_seconds):
        timed_build(workload, setup_times)
    warm = OpLog()
    log = OpLog()
    tracer = (LayerTrace(PhaseProfiler(), workload.universe, seed)
              if trace else None)
    wall0 = perf_counter()
    r = 0
    try:
        workload.start()
        workload.warm(warm)
        while True:
            if workload.rebuild_each_round:
                timed_build(workload, setup_times)
                workload.start()
            traced = trace and r % 2 == 1
            spent, done = log.timed_s, log.measured
            if traced:
                tracer.install(workload.service)
            try:
                workload.round(r, log, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if trace:
                tracer.round_done(traced, log.timed_s - spent,
                                  log.measured - done)
            r += 1
            if trace and r % 2:
                continue  # traced and untraced rounds come in pairs
            if (log.timed_s >= seconds
                    or perf_counter() - wall0 > WALL_LIMIT_S):
                break
    finally:
        workload.close()
    setup_s = quantile(setup_times, 0.5)
    failures = Counter(warm.failures) + Counter(log.failures)

    print(f"{name}: seed {seed}, {r} rounds, {log.measured} ops in "
          f"{log.timed_s:.2f} s measured, "
          f"{warm.attempted + log.attempted - log.measured} unmeasured ops, "
          f"{len(setup_times)} builds, "
          f"{workload.checker.answers_checked} answers and "
          f"{workload.checker.probes_checked} region probes checked, "
          f"failures {dict(failures) or 'none'}",
          file=sys.stderr)
    if trace:
        values = tracer.metrics()
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit, _better in PER_LAYER}
    else:
        lat = log.latencies_s
        values = {
            "setup_s": setup_s,
            "ops_per_s": log.measured / log.timed_s,
            "op_p50_ms": quantile(lat, 0.5) * 1e3,
            "op_p99_ms": quantile(lat, 0.99) * 1e3,
            "server_requests_per_1k_ops": (1000.0 * log.server_requests
                                           / log.measured),
            "wire_bytes_per_op": log.wire_bytes / log.measured,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in END_TO_END}
    return {
        "correct": warm.wrong + log.wrong == 0,
        "attempted": warm.attempted + log.attempted,
        "failed": warm.failed + log.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_na", "fleet_mixed", "live_updates"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--backend", choices=["thread", "process"],
                        help="shard pool backend (reference runs only)")
    parser.add_argument("--kernel", choices=["scalar", "soa", "numpy"],
                        help="geometry kernel (reference runs only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.backend, args.kernel)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
