"""Closed loops: one client thread, one request at a time.

``compile_cold`` and ``converge_slab`` call :class:`BatchRunner` in this
process; ``serve_mix`` drives a real ``nsc-vpe serve`` subprocess through
:class:`ServiceClient`.  Each loop returns a :class:`Phase`: the
:class:`~steadybench.calib.Meter`, the (core spec, record) pairs in job
order, and the failures it saw.
"""

from __future__ import annotations

import gc
import itertools
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from steadybench import workloads as wl
from steadybench.calib import Calibrator, Meter, time_at_ref
from steadybench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Client ids the serve_mix submissions rotate over, so no client comes
#: near the daemon's default per-client rate limit (burst 60, 10/s).
SERVE_CLIENTS = 32
#: Seconds to wait for the daemon's banner, and for one submission.
BOOT_TIMEOUT_S = 60.0
SUBMISSION_TIMEOUT_S = 60.0

BANNER = re.compile(r"serving on (http://[0-9.:]+)")

#: A phase stops once ``seconds`` of busy time *at the reference kernel
#: time* have run, so every run does about the same work whatever the
#: host's speed (caches, stores and heaps then grow alike); wall time is
#: capped at this multiple of ``seconds``.
WALL_CAP = 3.0


def _running(phase: "Phase", seconds: float, min_jobs: int) -> bool:
    if len(phase.pairs) < min_jobs:
        return True
    if time.perf_counter() - phase.start > WALL_CAP * seconds:
        return False
    return phase.meter.busy_ref_s < seconds


@dataclass
class Phase:
    meter: Meter
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = field(
        default_factory=list)
    failed: int = 0
    refused: int = 0
    attempted: int = 0
    #: serve_mix only: per executed submission (queue, service, wire) s,
    #: each already at the reference kernel time
    server_times: List[Tuple[float, float, float]] = field(
        default_factory=list)
    dedup_hits: int = 0
    #: serve_mix only: per-submission client latency, ms at the reference
    submission_ms: List[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
class CompileCold:
    """A stream of distinct programs, one serial job each on a fresh
    runner: a fresh program cache, and an emptied plan layer.  (The plan
    layer is process-wide; left to fill with plans no later job reuses,
    it slowed this loop by a fifth over ten seconds.)"""

    name = "compile_cold"

    def __init__(self, seed: int) -> None:
        self._stream = wl.cold_stream(seed)

    def setup(self) -> None:
        from repro.service.runner import BatchRunner

        self._runner_cls = BatchRunner
        BatchRunner().run([wl.make_job(wl.COLD_WARMUP)])

    def at_boundary(self) -> bool:
        return True

    def next(self) -> Tuple[List[Dict[str, Any]], Callable[[], List[Any]]]:
        core = next(self._stream)
        job = wl.make_job(core)
        runner = self._runner_cls()
        plans = getattr(runner.cache, "plans", None)
        if plans is not None:
            # clear() also resets the hit/miss counters; keep them, so the
            # plan layer's counts over a phase survive the per-job clears
            stats = plans.stats
            plans.clear()
            plans.stats = stats
        return [core], lambda: runner.run([job])[0]


class ConvergeSlab:
    """One long-lived runner, warmed in set-up: 16-job same-program
    batches to convergence plus fixed-sweep hypercube jobs."""

    name = "converge_slab"

    def __init__(self, seed: int) -> None:
        self._requests = wl.slab_requests(seed)
        self._sent = 0

    def at_boundary(self) -> bool:
        """Phases end on whole cycles: per-request job counts differ by
        16x, so a partial cycle would skew jobs_per_s."""
        return self._sent % wl.slab_cycle_len() == 0

    def setup(self) -> None:
        from repro.service.runner import BatchRunner

        self._runner = BatchRunner(**wl.runner_kwargs(batch_fusion="auto"))
        for cores in wl.slab_warmup():
            self._runner.run([wl.make_job(c) for c in cores])

    def next(self) -> Tuple[List[Dict[str, Any]], Callable[[], List[Any]]]:
        cores = next(self._requests)
        self._sent += 1
        jobs = [wl.make_job(c) for c in cores]
        return cores, lambda: self._runner.run(jobs)[0]


IN_PROCESS = {CompileCold.name: CompileCold, ConvergeSlab.name: ConvergeSlab}


def run_in_process(workload: Any, seconds: float, calibrator: Calibrator,
                   recorder: Optional[SpanRecorder] = None,
                   min_jobs: int = 0) -> Phase:
    """Closed loop for ``seconds`` (see :data:`WALL_CAP`), then on to the
    workload's next cycle boundary and at least ``min_jobs`` jobs.  One
    runner call is one request (one latency sample); with a recorder it
    is a root span."""
    phase = Phase(Meter(calibrator))
    phase.start = time.perf_counter()
    while (_running(phase, seconds, min_jobs)
           or not workload.at_boundary()):
        cores, call = workload.next()
        frame = recorder.open("other") if recorder is not None else None
        start = time.perf_counter()
        records = call()
        busy = time.perf_counter() - start
        if frame is not None:
            recorder.close(frame)
        phase.meter.add(busy, len(records),
                        sum(r.get("cycles") or 0 for r in records))
        phase.attempted += len(cores)
        phase.failed += sum(1 for r in records if not r.get("ok"))
        phase.pairs.extend(zip(cores, records))
    phase.end = time.perf_counter()
    return phase


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [str(ROOT), str(SRC)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Daemon:
    """A ``nsc-vpe serve`` subprocess on default options plus a result
    store; with ``spans_path`` it runs under the tracing launcher."""

    def __init__(self, work: Path, spans_path: Optional[Path] = None) -> None:
        self.work = work
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> str:
        self.work.mkdir(parents=True, exist_ok=True)
        store = self.work / "store.jsonl"
        if store.exists():
            store.unlink()
        serve = ["serve", "--port", "0", "--results", str(store)]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(ROOT / "steadybench" / "traced_serve.py"),
                   str(self.spans_path), *serve]
        log_path = self.work / "serve.log"
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT, cwd=str(ROOT),
                                     env=child_env())
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = BANNER.search(log_path.read_text())
            if match:
                self.url = match.group(1)
                return self.url
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start:\n"
                                   f"{log_path.read_text()[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("daemon printed no banner")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._log.close()
        self.proc = None

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


def clients(url: str) -> List[Any]:
    from repro.server.client import ServiceClient

    # no transparent 429 retry: a refusal must count against attempts
    return [ServiceClient(url, client_id=f"steadybench-{i}",
                          timeout=SUBMISSION_TIMEOUT_S,
                          max_rate_limit_retries=0)
            for i in range(SERVE_CLIENTS)]


def serve_warmup(pool: List[Any]) -> None:
    """Compile every warm program in the daemon (the cache warm-up that
    ends serve_mix's set-up)."""
    for i in range(len(wl.WARM_PROGRAMS)):
        job = wl.make_job(wl.warm_core(i, None))
        pool[i].run(jobs=[job.to_dict()], timeout=SUBMISSION_TIMEOUT_S)


def boot_and_warm(work: Path, spans_path: Optional[Path] = None
                  ) -> Tuple[Daemon, List[Any]]:
    daemon = Daemon(work, spans_path)
    try:
        pool = clients(daemon.start())
        serve_warmup(pool)
    except BaseException:
        daemon.stop()
        raise
    return daemon, pool


def run_bursts(pool: List[Any], bursts: Iterator[List[Dict[str, Any]]],
               seconds: float, calibrator: Calibrator,
               min_jobs: int = 0) -> Phase:
    """Closed loop of bursts: send a burst, long-poll each submission,
    fetch its result, then calibrate while the daemon is idle.

    The burst is the request (one latency sample): its submissions share
    the daemon's queue, so one stall (the daemon's growing heap brings
    ever longer garbage collections) delays all of them together, and
    per-submission samples would put one event's copies into the tail.
    This client's own collector is paused meanwhile; its pauses would
    land in the measured latencies."""
    phase = Phase(Meter(calibrator))
    phase.start = time.perf_counter()
    rotation = itertools.cycle(pool)
    gc.disable()
    try:
        while _running(phase, seconds, min_jobs):
            _burst(phase, rotation, next(bursts))
    finally:
        gc.enable()
    phase.end = time.perf_counter()
    return phase


def _burst(phase: Phase, rotation: Iterator[Any],
           burst: List[Dict[str, Any]]) -> None:
    from repro.server.client import ServerError

    start = time.perf_counter()
    sent = []
    for core in burst:
        client = next(rotation)
        phase.attempted += 1
        t_send = time.perf_counter()
        try:
            sub = client.submit(jobs=[wl.make_job(core).to_dict()])
        except ServerError as exc:
            phase.refused += exc.status == 429
            phase.failed += 1
            continue
        sent.append((core, client, t_send, sub))
    done = []
    for core, client, t_send, sub in sent:
        try:
            status = client.wait(sub["id"], timeout=SUBMISSION_TIMEOUT_S)
            result = client.result(sub["id"])
        except (ServerError, OSError):
            phase.failed += 1
            continue
        latency = time.perf_counter() - t_send
        record = (result.get("records") or [{}])[0]
        done.append((core, record, status, latency, sub.get("created")))
    busy = time.perf_counter() - start
    calib = phase.meter.add(
        busy, len(done), sum(d[1].get("cycles") or 0 for d in done if d[4]))
    for core, record, status, latency, created in done:
        phase.pairs.append((core, record))
        phase.submission_ms.append(1e3 * time_at_ref(latency, calib))
        if not record.get("ok"):
            phase.failed += 1
        if not created:
            phase.dedup_hits += 1
            continue
        queue = status["started_s"] - status["created_s"]
        service = status["finished_s"] - status["started_s"]
        wire = latency - (status["finished_s"] - status["created_s"])
        phase.server_times.append(tuple(
            time_at_ref(t, calib) for t in (queue, service, wire)))
