"""Shared plumbing of the benchmark: the import of the program under
test, the operation log, and the quantile and memory helpers."""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence

#: The checkout root: the benchmark's own directory sits directly in it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's source tree."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    The benchmark builds the program from source: an installed copy
    elsewhere on the path would measure the wrong code, so a missing
    source tree is an error rather than a fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"repro imported from {repro.__file__}, "
                             f"not from {SRC}")
    return repro


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation) of ``values``; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLog:
    """What the operations of one run did and cost.

    Only the call into the program sits between the two clock reads of
    :meth:`timed`; generating inputs and checking outputs happen outside
    them, so ``timed_s`` is the time the program spent on the workload.

    Every operation counts in ``attempted`` and is checked.  Only those
    issued while ``measuring`` is true (not the warm-up moves that open
    each client's cache) count in the latencies, ``timed_s``,
    ``measured``, ``server_requests`` and ``wire_bytes``.  ``failed``
    counts operations that raised, returned a wrong answer or shipped a
    region that failed a soundness probe; ``wrong`` counts the wrong
    answers alone (they make the run incorrect).
    """

    def __init__(self):
        self.measuring = True
        self.latencies_s: List[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.measured = 0
        self.failed = 0
        self.wrong = 0
        self.server_requests = 0
        self.wire_bytes = 0
        #: Failure reasons and their counts, for the line on stderr.
        self.failures: Dict[str, int] = {}

    def timed(self, fn: Callable, *args):
        """Run one operation under the clock; returns ``(ok, result)``."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
            ok = True
        except Exception as exc:  # an operation that fails is counted
            out, ok = exc, False
        dt = perf_counter() - t0
        if self.measuring:
            self.measured += 1
            self.latencies_s.append(dt)
            self.timed_s += dt
        if not ok:
            self.fail(f"raised {type(out).__name__}: {out}")
            return False, None
        return True, out

    def traffic(self, requests: int, nbytes: int) -> None:
        """Server requests and bytes received by the last operation."""
        if self.measuring:
            self.server_requests += requests
            self.wire_bytes += nbytes

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
