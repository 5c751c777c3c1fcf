"""Span self times partition each root span's wall time, per thread,
and the layer wrappers come off cleanly."""

import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from steadybench.spans import (  # noqa: E402
    DAEMON_ROOT, LAYERS, SpanRecorder, install, layer_totals, partition_error,
)


def _job(recorder, depth):
    frame = recorder.open("other")
    try:
        time.sleep(0.001)
        for _ in range(2):
            if depth:
                recorder.call("execute", _nested, recorder, depth - 1)
    finally:
        recorder.close(frame)


def _nested(recorder, depth):
    time.sleep(0.0005)
    if depth:
        recorder.call("plan", _nested, recorder, depth - 1)


def test_self_times_partition_root_wall_per_thread():
    recorder = SpanRecorder()
    threads = [threading.Thread(target=_job, args=(recorder, 2))
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    roots, stray, worst = partition_error(recorder.spans)
    assert (roots, stray) == (4, 0)
    assert worst < 1e-9
    tops = [s for s in recorder.spans if s.top]
    total_self = sum(s.self_s for s in recorder.spans)
    assert total_self == pytest.approx(sum(s.end - s.start for s in tops))
    totals = layer_totals(recorder.spans)
    assert totals["other"]["calls"] == 4
    assert totals["execute"]["calls"] == 8
    assert totals["plan"]["calls"] == 8
    assert all(s.self_s >= 0 for s in recorder.spans)


def test_layer_call_outside_a_job_is_a_stray_root():
    recorder = SpanRecorder()
    _job(recorder, 1)
    recorder.call("service.results", time.sleep, 0.0005)
    roots, stray, _worst = partition_error(recorder.spans)
    assert (roots, stray) == (2, 1)


def test_install_wraps_and_restores_every_target():
    import repro.sim.batchplan as batchplan
    import repro.sim.progplan as progplan
    from repro.server.service import SimService
    from repro.service.runner import BatchRunner

    plan_fn = progplan.compiled_plan
    run_fn = BatchRunner.__dict__["run"]
    execute_fn = SimService.__dict__["_execute"]
    recorder = SpanRecorder()
    uninstall, missing = install(recorder, LAYERS + DAEMON_ROOT)
    try:
        assert missing == []
        # module functions are rebound wherever they were imported by name
        assert progplan.compiled_plan is not plan_fn
        assert batchplan.compiled_plan is progplan.compiled_plan
        assert BatchRunner.__dict__["run"] is not run_fn
        assert SimService.__dict__["_execute"] is not execute_fn
    finally:
        uninstall()
    assert progplan.compiled_plan is plan_fn
    assert batchplan.compiled_plan is plan_fn
    assert BatchRunner.__dict__["run"] is run_fn
    assert SimService.__dict__["_execute"] is execute_fn
    assert {layer for layer, _m, _a in LAYERS} >= {
        "compose", "checker", "analysis", "codegen", "plan", "execute",
        "service.cache", "service.runner", "service.results"}
