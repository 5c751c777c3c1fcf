"""Output checks: the simulated-statistics digest, a reference-backend
re-run of a seeded sample, and the offline oracle for daemon results.

Only simulated fields enter a comparison (:data:`SIM_KEYS`): tiers,
cache flags and timings legitimately differ between execution paths.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Sequence, Tuple

from steadybench.workloads import CORE_KEYS, make_job

#: Record fields a simulator-only change must leave bit-identical.
SIM_KEYS = ("ok", "error", "converged", "sweeps", "cycles", "metrics",
            "error_vs_analytic", "fields_sha256")

#: Reference-backend re-runs per run.
REFERENCE_SAMPLE = 3

Pair = Tuple[Dict[str, Any], Dict[str, Any]]  # (core spec, record)


def sim_view(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: record[k] for k in SIM_KEYS if k in record}


def core_view(core: Dict[str, Any]) -> Dict[str, Any]:
    return {k: core.get(k) for k in CORE_KEYS}


def digest(pairs: Sequence[Pair]) -> str:
    """SHA-256 over (core spec, simulated fields) in job order."""
    payload = [[core_view(core), sim_view(rec)] for core, rec in pairs]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_offline(cores: Sequence[Dict[str, Any]], backend: str = "fast"
                ) -> List[Dict[str, Any]]:
    """Each spec as its own serial batch on one fresh runner (shared
    cache): the plain per-job path the other paths must agree with."""
    from repro.service.runner import BatchRunner

    runner = BatchRunner()
    out = []
    for core in cores:
        records, _summary = runner.run([make_job(core, backend=backend)])
        out.append(records[0])
    return out


def mismatches(pairs: Sequence[Pair], oracle: Sequence[Dict[str, Any]]
               ) -> List[str]:
    """Labels of the pairs whose simulated fields differ from the oracle."""
    return [
        f"{core_view(core)}: {sim_view(rec)} != {sim_view(ref)}"
        for (core, rec), ref in zip(pairs, oracle)
        if sim_view(rec) != sim_view(ref)
    ]


def reference_sample(pairs: Sequence[Pair], seed: int) -> List[str]:
    """Re-run :data:`REFERENCE_SAMPLE` of the run's jobs, chosen by
    ``seed``, on the reference backend; returns the mismatches."""
    if not pairs:
        return []
    picks = random.Random(seed).sample(range(len(pairs)),
                                       min(REFERENCE_SAMPLE, len(pairs)))
    chosen = [pairs[i] for i in sorted(picks)]
    oracle = run_offline([core for core, _rec in chosen], backend="reference")
    return mismatches(chosen, oracle)
