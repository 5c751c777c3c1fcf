"""Metric names, units and the per-layer roll-up.

``METRICS.md`` defines each metric; ``BENCHMARK.json`` lists the same
names with their bounds.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from steadybench.calib import median_iqr, time_at_ref
from steadybench.spans import LAYER_NAMES, Span, layer_totals

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("jobs_per_s", "1/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

TIERS = ("batch_fused", "fused", "per_issue", "reference")


def _layer_units() -> List[Tuple[str, str]]:
    units = []
    for layer in LAYER_NAMES + ("other",):
        if layer != "other":
            units.append((f"{layer}.calls_per_job", "count"))
        units.append((f"{layer}.self_ms_per_job", "ms"))
    return units


PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(_layer_units()) + (
    ("plan.cache_hits_per_job", "count"),
    ("plan.cache_misses_per_job", "count"),
    ("execute.sim_cycles_per_self_s", "cycles/s"),
    ("service.cache.hit_ratio", "ratio"),
    *((f"tier.{t}_share", "ratio") for t in TIERS),
    ("tier.fallbacks_per_job", "count"),
    ("server.queue_wait_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.dedup_share", "ratio"),
    ("server.refusals", "count"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.traced_jobs_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def tier_metrics(records: Sequence[Dict[str, Any]]
                 ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Tier shares and fallbacks per job, read from records (no tracing
    needed), plus the count of each fallback reason."""
    n = max(len(records), 1)
    out = {f"tier.{t}_share": sum(r.get("tier") == t for r in records) / n
           for t in TIERS}
    reasons: Dict[str, int] = {}
    for record in records:
        reason = record.get("fallback_reason")
        if reason:
            reasons[reason] = reasons.get(reason, 0) + 1
    out["tier.fallbacks_per_job"] = sum(reasons.values()) / n
    return out, reasons


def layer_metrics(spans: List[Span], jobs: int, cycles: int, calib_s: float,
                  plan_hits: int, plan_misses: int) -> Dict[str, float]:
    """Per-layer call counts and self time per job (self times at the
    reference kernel time, using the traced phase's median kernel time)."""
    totals = layer_totals(spans)
    jobs = max(jobs, 1)
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES + ("other",):
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != "other":
            out[f"{layer}.calls_per_job"] = entry["calls"] / jobs
        out[f"{layer}.self_ms_per_job"] = (
            1e3 * time_at_ref(entry["self_s"], calib_s) / jobs)
    execute_s = time_at_ref(totals.get("execute", {}).get("self_s", 0.0),
                            calib_s)
    out["execute.sim_cycles_per_self_s"] = (
        cycles / execute_s if execute_s > 0 else 0.0)
    out["plan.cache_hits_per_job"] = plan_hits / jobs
    out["plan.cache_misses_per_job"] = plan_misses / jobs
    return out


def cache_hit_ratio(records: Sequence[Dict[str, Any]]) -> float:
    flagged = [r["cache_hit"] for r in records if "cache_hit" in r]
    return sum(flagged) / len(flagged) if flagged else 0.0


def server_metrics(times: Sequence[Tuple[float, float, float]],
                   submissions: int, dedup_hits: int, refusals: int
                   ) -> Dict[str, float]:
    def med(i: int) -> float:
        return 1e3 * statistics.median(t[i] for t in times) if times else 0.0

    return {
        "server.queue_wait_ms": med(0),
        "server.service_ms": med(1),
        "server.wire_ms": med(2),
        "server.dedup_share": dedup_hits / max(submissions, 1),
        "server.refusals": float(refusals),
    }


def as_metrics(values: Dict[str, float],
               units: Sequence[Tuple[str, str]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units}


def per_layer_values(phases: Sequence[Any], spans: List[Span],
                     plan: Tuple[int, int],
                     tiers: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced run, whose phases are
    ``(untraced, traced)``."""
    untraced, traced = phases
    calib_s = median_iqr(traced.meter.calib_s)[0]
    values = layer_metrics(spans, traced.meter.jobs, traced.meter.cycles,
                           calib_s, *plan)
    values.update(tiers)
    values["service.cache.hit_ratio"] = cache_hit_ratio(
        [rec for _core, rec in traced.pairs])
    values.update(server_metrics(
        [t for p in phases for t in p.server_times],
        sum(p.attempted for p in phases), sum(p.dedup_hits for p in phases),
        sum(p.refused for p in phases)))
    plain = untraced.meter.summary()["jobs_per_s"]
    wrapped = traced.meter.summary()["jobs_per_s"]
    values["trace.untraced_jobs_per_s"] = plain
    values["trace.traced_jobs_per_s"] = wrapped
    values["trace.overhead_pct"] = 100.0 * (plain / wrapped - 1.0)
    return values
