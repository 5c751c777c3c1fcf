"""Run one steadybench workload and print its metrics.

Usage, from the root of a checkout::

    python3 steadybench/run.py --workload compile_cold --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``compile_cold``, ``converge_slab``, ``serve_mix`` (see
``METRICS.md``).  The process, and every process it starts, is pinned to
one CPU; every timing is reported at a fixed reference kernel time (see
:mod:`steadybench.calib`).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("compile_cold", "converge_slab", "serve_mix")

#: Fresh-process set-up probes per run; ``setup_s`` is their median.
#: One probe's time swings by about 12% even after normalisation (the
#: host's speed changes within the second a probe takes).
SETUP_PROBES = 7
#: Kernel runs per calibration sample around a probe.
PROBE_CALIB_REPS = 9
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_cpu() -> int:
    """Pin this process (and so its children) to its highest CPU.  Runs
    before NumPy loads; BLAS pools are held to one thread, because a
    second thread on the same CPU only contends."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return cpu


def measure_setup(name: str, calibrator: Any, work: Path
                  ) -> Tuple[List[float], List[float]]:
    """``(normalised, raw)`` set-up seconds of fresh-process probes, each
    bracketed by calibration samples taken while nothing else runs."""
    from steadybench.calib import time_at_ref
    from steadybench.loops import boot_and_warm, child_env

    norm, raw = [], []
    for i in range(SETUP_PROBES):
        before = calibrator.sample(PROBE_CALIB_REPS)
        start = time.perf_counter()
        if name == "serve_mix":
            daemon, _pool = boot_and_warm(work / f"probe{i}")
            elapsed = time.perf_counter() - start
            daemon.stop()
        else:
            proc = subprocess.Popen(
                [sys.executable, str(ROOT / "steadybench" / "probe.py"), name],
                stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                env=child_env())
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            if proc.wait(60) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe for {name} failed")
        after = calibrator.sample(PROBE_CALIB_REPS)
        raw.append(elapsed)
        norm.append(time_at_ref(elapsed, 0.5 * (before + after)))
    return norm, raw


def plan_stats() -> Tuple[int, int]:
    try:
        from repro.sim.fastpath import PLAN_CACHE
    except ImportError:
        return 0, 0
    return PLAN_CACHE.stats.hits, PLAN_CACHE.stats.misses


def run_workload(args: argparse.Namespace, calibrator: Any, work: Path
                 ) -> Dict[str, Any]:
    """Set up, run the timed phase(s), and collect what the report and
    the checks need."""
    from steadybench import loops, workloads
    from steadybench.spans import Span, SpanRecorder, install

    out: Dict[str, Any] = {"missing_targets": []}
    half = args.seconds / 2
    prefix = workloads.PREFIX_JOBS[args.workload]
    if args.workload == "serve_mix":
        bursts = workloads.serve_bursts(args.seed)
        start = time.perf_counter()
        daemon, pool = loops.boot_and_warm(work / "main")
        out["main_setup_raw_s"] = time.perf_counter() - start
        with daemon:
            phase = loops.run_bursts(
                pool, bursts, half if args.trace else args.seconds,
                calibrator, min_jobs=prefix)
            out["peak_rss_mb"] = daemon.peak_rss_mb()
        out["phases"] = [phase]
        if args.trace:
            spans_path = work / "spans.json"
            daemon, pool = loops.boot_and_warm(work / "traced", spans_path)
            with daemon:
                before = pool[0].stats()["plan_cache"]
                traced = loops.run_bursts(pool, bursts, half, calibrator)
                after = pool[0].stats()["plan_cache"]
            traced_out = json.loads(spans_path.read_text())
            spans = [Span(*row) for row in traced_out["spans"]]
            out["missing_targets"] = traced_out["missing"]
            out["spans"] = [s for s in spans
                            if traced.start <= s.start and s.end <= traced.end]
            out["plan"] = (after["hits"] - before["hits"],
                           after["misses"] - before["misses"])
            out["phases"].append(traced)
        return out

    workload = loops.IN_PROCESS[args.workload](args.seed)
    start = time.perf_counter()
    workload.setup()
    out["main_setup_raw_s"] = time.perf_counter() - start
    phase = loops.run_in_process(
        workload, half if args.trace else args.seconds, calibrator,
        min_jobs=prefix)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["phases"] = [phase]
    if args.trace:
        recorder = SpanRecorder()
        uninstall, out["missing_targets"] = install(recorder)
        hits0, misses0 = plan_stats()
        try:
            traced = loops.run_in_process(workload, half, calibrator,
                                            recorder=recorder)
        finally:
            uninstall()
        hits1, misses1 = plan_stats()
        out["spans"] = list(recorder.spans)
        out["plan"] = (hits1 - hits0, misses1 - misses0)
        out["phases"].append(traced)
    return out


def check_outputs(args: argparse.Namespace, out: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], int]:
    """Digest, reference sample and (serve_mix) offline oracle; returns
    the findings and the number of mismatched jobs."""
    from steadybench import checks, workloads
    from steadybench.spans import partition_error

    pairs = [p for phase in out["phases"] for p in phase.pairs]
    prefix = workloads.PREFIX_JOBS[args.workload]
    found: Dict[str, Any] = {}
    found["digest"] = checks.digest(pairs[:prefix])
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    found["golden"] = golden.get(args.workload)
    ok_pairs = [p for p in pairs if p[1].get("ok")]
    found["reference_mismatches"] = checks.reference_sample(ok_pairs, args.seed)
    bad = len(found["reference_mismatches"])
    if args.workload == "serve_mix":
        distinct: Dict[str, Any] = {}
        for core, record in ok_pairs:
            distinct.setdefault(json.dumps(checks.core_view(core),
                                           sort_keys=True), (core, record))
        unique = list(distinct.values())
        oracle = checks.run_offline([core for core, _rec in unique])
        found["oracle_jobs"] = len(unique)
        found["oracle_mismatches"] = checks.mismatches(unique, oracle)
        bad += len(found["oracle_mismatches"])
    if "spans" in out:
        roots, stray, worst = partition_error(out["spans"])
        found["partition"] = {"roots": roots, "stray_roots": stray,
                              "worst_error_s": worst}
    return found, bad


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"steadybench: no program source under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    sys.path[:0] = [str(ROOT), str(SRC)]
    from steadybench import report
    from steadybench.calib import Calibrator, median_iqr

    calibrator = Calibrator()
    calibrator.warm()
    work = ROOT / ".steadybench-work" / str(os.getpid())
    try:
        setup_norm, setup_raw = measure_setup(args.workload, calibrator, work)
        out = run_workload(args, calibrator, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    found, mismatched = check_outputs(args, out)

    phases = out["phases"]
    records = [rec for phase in phases for _core, rec in phase.pairs]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases) + mismatched
    summary = phases[0].meter.summary()
    setup_s, setup_spread = median_iqr(setup_norm)
    values: Dict[str, Any] = {
        "jobs_per_s": summary["jobs_per_s"],
        "sim_cycles_per_s": summary["sim_cycles_per_s"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": setup_s,
    }
    tiers, reasons = report.tier_metrics(records)
    diagnostics: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "cpu": cpu,
        "seconds": args.seconds, "trace": args.trace,
        "summary": summary,
        "setup_s_probes": setup_norm, "setup_raw_s_probes": setup_raw,
        "setup_raw_s": median_iqr(setup_raw)[0],
        "setup_probe_iqr_share": setup_spread,
        "main_setup_raw_s": out["main_setup_raw_s"],
        "submission_p50_ms": (median_iqr(phases[0].submission_ms)[0]
                              if phases[0].submission_ms else None),
        "fallback_reasons": reasons,
        "checks": found,
    }
    correct = (failed == 0 and found["digest"] == found["golden"])
    if args.trace:
        values = report.per_layer_values(phases, out["spans"], out["plan"],
                                         tiers)
        diagnostics["missing_targets"] = out["missing_targets"]
        partition = found["partition"]
        correct = (correct and partition["stray_roots"] == 0
                   and partition["worst_error_s"] < 1e-6)
        units = report.PER_LAYER
    else:
        units = report.END_TO_END

    print(f"steadybench {args.workload}: seed={args.seed} cpu={cpu} "
          f"kernel median {summary['calib_median_ms']:.3f} ms "
          f"(IQR {100 * summary['calib_iqr_share']:.1f}%)")
    for name, unit in units:
        print(f"  {name:34s} {values[name]:14.4f} {unit}")
    print(f"  raw: jobs_per_s {summary['raw_jobs_per_s']:.2f}, "
          f"p50_ms {summary['raw_p50_ms']:.2f}, "
          f"setup_s {diagnostics['setup_raw_s']:.3f}; tail at "
          f"p{summary['tail_percentile']:.1f} of "
          f"{summary['latency_samples']} samples")
    print(f"  digest {found['digest'][:16]} "
          f"({'matches' if found['digest'] == found['golden'] else 'DIFFERS FROM'}"
          f" golden); reference mismatches "
          f"{len(found['reference_mismatches'])}; failed {failed}/{attempted}")
    print(json.dumps({"diagnostics": diagnostics}, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": report.as_metrics(values, units),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
