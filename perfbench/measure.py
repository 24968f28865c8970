"""Running one operation, and turning raw timings into reported figures."""

from __future__ import annotations

import contextlib
import io
import math
import resource
import time
from array import array
from typing import Callable

import refkernel
from workloads import Op

# Take a kernel sample after about this much operation time.
KERNEL_CADENCE_S = 0.02
# Each timing is scaled by the median of the kernel samples within this
# many samples of the one taken just before it (about 0.25 s of run).
KERNEL_RADIUS = 5
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def run_op(main: Callable[[list[str]], int], op: Op) -> tuple[float, str | None]:
    """Run one CLI invocation in-process; return (seconds, failure or None).

    An operation fails if it raises, exits non-zero, or its report fails the
    workload's check.
    """
    out = io.StringIO()
    status: object = 0
    failure = None
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            status = main(list(op.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # any error in the program is a failed operation
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if failure is None and status != 0:
        failure = f"exit status {status}"
    if failure is None:
        try:
            failure = op.check(out.getvalue())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            failure = f"malformed report: {type(exc).__name__}: {exc}"
    return elapsed, failure


class Meter:
    """Operation timings interleaved with reference-kernel samples."""

    def __init__(self, sampler: Callable[[], float] = refkernel.sample_ms):
        self._sampler = sampler
        self.kernel_ms: list[float] = []
        self.raw_s = array("d")
        self._at = array("i")  # index of the last kernel sample before each op
        self._since = math.inf

    def before_op(self) -> None:
        if self._since >= KERNEL_CADENCE_S:
            self.kernel_ms.append(self._sampler())
            self._since = 0.0

    def record(self, raw_s: float) -> None:
        self.raw_s.append(raw_s)
        self._at.append(len(self.kernel_ms) - 1)
        self._since += raw_s

    def factors(self) -> list[float]:
        """Per operation, the factor that brings its time to nominal speed."""
        local = refkernel.local_medians(self.kernel_ms, KERNEL_RADIUS)
        return [refkernel.scale(1.0, local[k]) for k in self._at]

    def scaled_s(self) -> list[float]:
        return [raw * f for raw, f in zip(self.raw_s, self.factors())]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples
    lie beyond it, since such a tail is a handful of outliers."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it, need {MIN_BEYOND}")
    return ordered[rank - 1]


def min_samples(pct: float) -> int:
    """Fewest samples for which `percentile(values, pct)` is defined."""
    n = 1
    while n - max(1, math.ceil(pct / 100 * n)) < MIN_BEYOND:
        n += 1
    return n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
