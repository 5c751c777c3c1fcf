"""Seeded job streams for the three workloads, and the knob tolerance.

Jobs are described by *core specs*: plain dicts of the job fields that
decide what a simulation computes (method, shape, eps, max_sweeps,
omega, subset, hypercube_dim, u0_seed) plus an optional ``checker``
mode.  Digests hash core specs, so they do not change when a knob is
removed from :class:`~repro.service.jobs.SimJob`.

Every stream starts with a fixed prefix drawn from :data:`DIGEST_SEED`;
the output digest covers that prefix, so it depends on the code alone
and is the same for every ``--seed`` and every run length.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Seed of the fixed stream prefix every run starts with.
DIGEST_SEED = 20260
#: compile_cold jobs in the digest prefix.
COLD_PREFIX_JOBS = 12

COLD_METHODS = ("jacobi", "rb-gs", "rb-sor")
COLD_EPS = (1e-2, 3e-3, 1e-3, 3e-4)
COLD_OMEGAS = (1.2, 1.3, 1.4, 1.5, 1.6, 1.7)
#: Share of cold programs compiled for the subset machine.
COLD_SUBSET_SHARE = 0.3
#: Share of cold programs trusted through the static analyzer instead of
#: the design-rule checker (only while ``run_checker`` exists).
COLD_STATIC_SHARE = 1 / 3

#: converge_slab: (method, n) per 16-job same-program batch, run to
#: convergence, then fixed-sweep hypercube Jacobi jobs on 8-64 nodes, two
#: dimensions per request.  Pairing them keeps the request classes apart
#: (about 30, 70, 130, 200 and 490 ms), so the median request is always
#: an n=12 batch and the tail an n=16 batch; single hypercube requests
#: put the median on the 32-node job, whose time tracks the calibration
#: kernel worst.
SLAB_PROGRAMS = (("rb-sor", 8), ("rb-gs", 12), ("jacobi", 16))
SLAB_JOBS = 16
SLAB_EPS = 1e-4
SLAB_MAX_SWEEPS = 2000
HYPERCUBE_REQUESTS = ((3, 4), (5, 6))
HYPERCUBE_DIMS = tuple(d for pair in HYPERCUBE_REQUESTS for d in pair)
HYPERCUBE_SHAPE = (8, 8, 64)
HYPERCUBE_SWEEPS = 12

#: serve_mix: warm programs (compiled during set-up), repeated with new
#: initial-guess seeds.
WARM_PROGRAMS = (
    {"method": "jacobi", "shape": (7, 7, 7)},
    {"method": "rb-gs", "shape": (6, 7, 8)},
    {"method": "rb-sor", "shape": (8, 6, 7), "omega": 1.5},
)
WARM_EPS = 1e-3
WARM_MAX_SWEEPS = 300
#: One burst: W = warm repeat with a new seed, C = cold new program,
#: D = exact duplicate of the submission just before it.
BURST_PATTERN = "WDWCWCDW"
#: Bursts in the digest prefix.
SERVE_PREFIX_BURSTS = 2

#: Jobs in each workload's digest prefix.
PREFIX_JOBS = {
    "compile_cold": COLD_PREFIX_JOBS,
    "converge_slab": SLAB_JOBS * len(SLAB_PROGRAMS) + len(HYPERCUBE_DIMS),
    "serve_mix": SERVE_PREFIX_BURSTS * len(BURST_PATTERN),
}

CORE_KEYS = ("method", "shape", "eps", "max_sweeps", "omega", "subset",
             "hypercube_dim", "u0_seed")


# ----------------------------------------------------------------------
# knob tolerance: pass a knob only while the public constructor has it
# ----------------------------------------------------------------------
def runner_kwargs(**wanted: Any) -> Dict[str, Any]:
    """The subset of ``wanted`` that :class:`BatchRunner` accepts."""
    from repro.service.runner import BatchRunner

    accepted = inspect.signature(BatchRunner.__init__).parameters
    return {k: v for k, v in wanted.items() if k in accepted}


def make_job(core: Dict[str, Any], backend: str = "fast") -> Any:
    """The :class:`SimJob` for a core spec; ``checker`` rides along only
    while ``SimJob`` still takes ``run_checker`` with that value."""
    from repro.service import jobs as jobs_module

    kwargs = {k: core[k] for k in CORE_KEYS if core.get(k) is not None}
    mode = core.get("checker")
    names = {f.name for f in dataclasses.fields(jobs_module.SimJob)}
    if (mode and "run_checker" in names
            and mode in getattr(jobs_module, "CHECKER_MODES", ())):
        kwargs["run_checker"] = mode
    if "backend" in names:
        kwargs["backend"] = backend
    return jobs_module.SimJob(**kwargs)


# ----------------------------------------------------------------------
# compile_cold: distinct programs
# ----------------------------------------------------------------------
def program_key(core: Dict[str, Any]) -> Tuple[Any, ...]:
    """What makes two cold programs the same compile."""
    omega = core.get("omega") if core["method"] == "rb-sor" else None
    return (core["method"], tuple(core["shape"]), core["eps"],
            core["max_sweeps"], omega, core.get("subset", False))


def _cold_programs(rng: random.Random, seen: Set[Tuple[Any, ...]]
                   ) -> Iterator[Dict[str, Any]]:
    while True:
        method = rng.choice(COLD_METHODS)
        shape = tuple(rng.randint(5, 9) for _ in range(3))
        core: Dict[str, Any] = {
            "method": method,
            "shape": shape,
            "eps": rng.choice(COLD_EPS),
            "max_sweeps": rng.randint(8, 24),
            "omega": rng.choice(COLD_OMEGAS) if method == "rb-sor" else None,
            "subset": rng.random() < COLD_SUBSET_SHARE,
        }
        static = rng.random() < COLD_STATIC_SHARE
        key = program_key(core)
        if len(set(shape)) == 1 or key in seen:
            continue  # cubic shapes are reserved for warm-up programs
        seen.add(key)
        if static:
            core["checker"] = "static"
        yield core


def cold_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Distinct non-cubic programs: the fixed prefix, then ``seed``'s."""
    seen: Set[Tuple[Any, ...]] = set()
    prefix = _cold_programs(random.Random(DIGEST_SEED), seen)
    for _ in range(COLD_PREFIX_JOBS):
        yield next(prefix)
    yield from _cold_programs(random.Random(seed), seen)


#: A cubic program outside every cold stream, compiled during set-up so
#: one-time process costs stay out of the timed jobs.
COLD_WARMUP = {"method": "jacobi", "shape": (5, 5, 5), "eps": 1e-2,
               "max_sweeps": 8}


# ----------------------------------------------------------------------
# converge_slab: one warm runner, batches and hypercube jobs
# ----------------------------------------------------------------------
def slab_core(method: str, n: int, u0_seed: Optional[int]) -> Dict[str, Any]:
    return {"method": method, "shape": (n, n, n), "eps": SLAB_EPS,
            "max_sweeps": SLAB_MAX_SWEEPS, "u0_seed": u0_seed}


def hypercube_core(dim: int) -> Dict[str, Any]:
    return {"method": "jacobi", "shape": HYPERCUBE_SHAPE, "eps": 1e-12,
            "max_sweeps": HYPERCUBE_SWEEPS, "hypercube_dim": dim}


def slab_requests(seed: int) -> Iterator[List[Dict[str, Any]]]:
    """Endless cycle of requests (each a list of core specs); the first
    cycle draws its seeds from :data:`DIGEST_SEED`."""
    rng = random.Random(DIGEST_SEED)
    first = True
    while True:
        for method, n in SLAB_PROGRAMS:
            yield [slab_core(method, n, rng.randrange(2**31))
                   for _ in range(SLAB_JOBS)]
        for dims in HYPERCUBE_REQUESTS:
            yield [hypercube_core(dim) for dim in dims]
        if first:
            rng = random.Random(seed)
            first = False


def slab_cycle_len() -> int:
    return len(SLAB_PROGRAMS) + len(HYPERCUBE_REQUESTS)


def slab_warmup() -> List[List[Dict[str, Any]]]:
    """Requests that compile every converge_slab program (two-job slabs
    so the batch plans build too)."""
    reqs = [[slab_core(m, n, s) for s in (0, 1)] for m, n in SLAB_PROGRAMS]
    reqs += [[hypercube_core(d)] for d in HYPERCUBE_DIMS]
    return reqs


# ----------------------------------------------------------------------
# serve_mix: bursts of warm repeats, cold programs and duplicates
# ----------------------------------------------------------------------
def warm_core(i: int, u0_seed: Optional[int]) -> Dict[str, Any]:
    core = dict(WARM_PROGRAMS[i % len(WARM_PROGRAMS)])
    core.update(eps=WARM_EPS, max_sweeps=WARM_MAX_SWEEPS, u0_seed=u0_seed)
    return core


def serve_bursts(seed: int) -> Iterator[List[Dict[str, Any]]]:
    """Endless bursts of core specs following :data:`BURST_PATTERN`; a
    ``D`` entry repeats the previous spec exactly.  The first
    :data:`SERVE_PREFIX_BURSTS` bursts draw from :data:`DIGEST_SEED`."""
    seen: Set[Tuple[Any, ...]] = set()
    used_seeds: Set[int] = set()
    rng = random.Random(DIGEST_SEED)
    cold = _cold_programs(random.Random(DIGEST_SEED + 1), seen)
    warm_i = 0
    burst_no = 0
    while True:
        if burst_no == SERVE_PREFIX_BURSTS:
            rng = random.Random(seed)
            cold = _cold_programs(random.Random(seed + 1), seen)
        burst: List[Dict[str, Any]] = []
        for kind in BURST_PATTERN:
            if kind == "D":
                burst.append(dict(burst[-1]))
            elif kind == "C":
                core = next(cold)
                core.pop("checker", None)  # the daemon runs default options
                burst.append(core)
            else:
                u0 = rng.randrange(2**31)
                while u0 in used_seeds:
                    u0 = rng.randrange(2**31)
                used_seeds.add(u0)
                burst.append(warm_core(warm_i, u0))
                warm_i += 1
        burst_no += 1
        yield burst
