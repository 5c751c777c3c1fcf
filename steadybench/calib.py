"""Host-speed calibration and the statistics every metric is built from.

The benchmark host's speed swings by up to 1.5x from one second to the
next (both vCPUs, independently, with no steal time).  A fixed kernel is
therefore timed on the pinned CPU between requests, while the system
under test is idle, and every timing is reported at the reference kernel
time :data:`REF_KERNEL_S`: times scale by ``ref / calib`` and rates by
``calib / ref``, so units stay ``s``, ``ms`` and ``1/s``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Kernel time, in seconds, at which normalised figures are reported.
REF_KERNEL_S = 1.0e-3

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Kernel runs that warm the interpreter and NumPy before the first sample.
WARM_RUNS = 40

#: Kernel runs per calibration sample (its median), unless a call asks
#: for more.
SAMPLE_REPS = 3

_PLANE = np.linspace(0.0, 1.0, 4096)


def kernel() -> float:
    """One fixed unit of host work, about 1 ms: an interpreter-bound dict
    loop plus a small NumPy ufunc chain, the two kinds of work the
    toolchain does.  Returns a checksum so no part can be skipped."""
    table: Dict[int, int] = {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    plane = _PLANE
    for _ in range(30):
        plane = np.sqrt(plane * 1.0001 + 0.5) - 0.25
    return float(plane[-1]) + table[255]


class Calibrator:
    """Times :func:`kernel`; each sample is the median of ``reps`` runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def warm(self) -> None:
        for _ in range(WARM_RUNS):
            kernel()

    def sample(self, reps: int = SAMPLE_REPS) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        value = statistics.median(times)
        self.samples.append(value)
        return value


def time_at_ref(raw_s: float, calib_s: float) -> float:
    """A duration measured while the kernel took ``calib_s``, at the
    reference kernel time."""
    return raw_s * REF_KERNEL_S / calib_s


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, IQR / median)`` with :func:`statistics.quantiles`'
    default method; the relative IQR is 0 for fewer than two values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile that leaves at least :data:`TAIL_BEYOND`
    samples above it: ``(value, percentile, n_samples)``.  With too few
    samples it degrades to the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return (ordered[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n, n)


@dataclass
class Meter:
    """Closed-loop request log.

    Each :meth:`add` is one request, a busy period of the system under
    test (one runner call, or one daemon burst) bracketed by calibration
    samples: its raw busy time, which is also its latency, the work it
    completed, and the mean of the kernel times just before and just
    after it.
    """

    calibrator: Calibrator
    busy_s: List[float] = field(default_factory=list)
    calib_s: List[float] = field(default_factory=list)
    #: (raw latency, kernel time) per request
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    jobs: int = 0
    cycles: int = 0
    #: running sum of busy time at the reference kernel time
    busy_ref_s: float = 0.0

    def __post_init__(self) -> None:
        self._last = self.calibrator.sample()

    def add(self, busy_s: float, jobs: int, cycles: int) -> float:
        """Record one busy period, calibrating right after it (the system
        is idle again); returns the bracketing kernel time."""
        after = self.calibrator.sample()
        calib = 0.5 * (self._last + after)
        self._last = after
        self.busy_s.append(busy_s)
        self.calib_s.append(calib)
        self.busy_ref_s += time_at_ref(busy_s, calib)
        self.latencies.append((busy_s, calib))
        self.jobs += jobs
        self.cycles += cycles
        return calib

    def summary(self) -> Dict[str, float]:
        """End-to-end figures: normalised metrics plus raw diagnostics."""
        norm_busy = self.busy_ref_s
        raw_busy = sum(self.busy_s)
        lat = [1e3 * time_at_ref(raw, calib) for raw, calib in self.latencies]
        raw_lat = [1e3 * raw for raw, _calib in self.latencies]
        tail_ms, tail_pct, n = tail(lat)
        raw_tail, _pct, _n = tail(raw_lat)
        calib_med, calib_iqr = median_iqr(self.calibrator.samples)
        return {
            "jobs_per_s": self.jobs / norm_busy,
            "sim_cycles_per_s": self.cycles / norm_busy,
            "p50_ms": statistics.median(lat),
            "tail_ms": tail_ms,
            "tail_percentile": tail_pct,
            "latency_samples": n,
            "raw_jobs_per_s": self.jobs / raw_busy,
            "raw_sim_cycles_per_s": self.cycles / raw_busy,
            "raw_p50_ms": statistics.median(raw_lat),
            "raw_tail_ms": raw_tail,
            "calib_median_ms": 1e3 * calib_med,
            "calib_iqr_share": calib_iqr,
            "calib_samples": len(self.calibrator.samples),
        }

