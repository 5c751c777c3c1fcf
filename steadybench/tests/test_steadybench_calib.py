"""Normalisation arithmetic and the tail statistic."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from steadybench.calib import (  # noqa: E402
    REF_KERNEL_S, Meter, median_iqr, tail, time_at_ref,
)


class ScriptedCalibrator:
    """Stands in for :class:`Calibrator` with fixed kernel times."""

    def __init__(self, values):
        self._values = list(values)
        self.samples = []

    def sample(self, reps=3):
        value = self._values.pop(0)
        self.samples.append(value)
        return value


def test_times_scale_by_ref_over_calib():
    # a host twice as slow as the reference: times halve
    assert time_at_ref(2.0, 2 * REF_KERNEL_S) == pytest.approx(1.0)
    assert time_at_ref(3.0, REF_KERNEL_S) == pytest.approx(3.0)


def test_meter_brackets_each_busy_period():
    ref = REF_KERNEL_S
    cal = ScriptedCalibrator([1 * ref, 3 * ref, 1 * ref])
    meter = Meter(cal)
    # first period bracketed by 1 and 3 -> mean 2; second by 3 and 1 -> 2
    assert meter.add(0.4, jobs=4, cycles=400) == pytest.approx(2 * ref)
    meter.add(0.2, jobs=2, cycles=200)
    assert meter.busy_ref_s == pytest.approx(0.3)
    summary = meter.summary()
    # rates scale by calib / ref: twice the raw rate on a host half as fast
    assert summary["jobs_per_s"] == pytest.approx(6 / 0.3)
    assert summary["sim_cycles_per_s"] == pytest.approx(600 / 0.3)
    assert summary["raw_jobs_per_s"] == pytest.approx(6 / 0.6)
    # one latency per request, its busy time: 0.4 s and 0.2 s raw
    assert summary["p50_ms"] == pytest.approx(150.0)
    assert summary["raw_p50_ms"] == pytest.approx(300.0)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, n = tail(values)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    # too few samples: the maximum, at percentile 100
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_median_iqr_matches_statistics_quantiles():
    med, spread = median_iqr([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    # quantiles(n=4, method="exclusive") of 1..5: 1.5 and 4.5
    assert spread == pytest.approx(3.0 / 3.0)
    assert median_iqr([7.0]) == (7.0, 0.0)
