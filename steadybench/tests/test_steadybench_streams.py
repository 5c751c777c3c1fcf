"""The seeded job streams: compile_cold programs are distinct, and every
stream starts with the same seed-independent prefix."""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from steadybench import workloads as wl  # noqa: E402


def test_cold_stream_is_distinct_and_non_cubic():
    cores = list(itertools.islice(wl.cold_stream(7), 2000))
    keys = [wl.program_key(c) for c in cores]
    assert len(set(keys)) == len(keys)
    assert all(len(set(c["shape"])) > 1 for c in cores)
    assert all(5 <= s <= 9 for c in cores for s in c["shape"])
    subset = sum(c["subset"] for c in cores) / len(cores)
    assert 0.25 < subset < 0.35
    assert {c["method"] for c in cores} == set(wl.COLD_METHODS)
    # the warm-up program never appears in a timed stream
    assert wl.program_key(dict(wl.COLD_WARMUP, subset=False)) not in keys


def test_cold_prefix_is_seed_independent():
    n = wl.COLD_PREFIX_JOBS
    a = list(itertools.islice(wl.cold_stream(1), n + 20))
    b = list(itertools.islice(wl.cold_stream(2), n + 20))
    assert a[:n] == b[:n]
    assert a[n:] != b[n:]


def test_slab_requests_cycle_and_prefix():
    cycle = wl.slab_cycle_len()
    a = list(itertools.islice(wl.slab_requests(1), 2 * cycle))
    b = list(itertools.islice(wl.slab_requests(2), 2 * cycle))
    assert a[:cycle] == b[:cycle]
    assert a[cycle:] != b[cycle:]
    for request in a[:len(wl.SLAB_PROGRAMS)]:
        assert len(request) == wl.SLAB_JOBS
        # same program, distinct seeds: one slab
        assert len({wl.program_key(c) for c in request}) == 1
        assert len({c["u0_seed"] for c in request}) == wl.SLAB_JOBS


def test_serve_bursts_mix():
    bursts = list(itertools.islice(wl.serve_bursts(3), 40))
    seeds, cold = [], []
    for burst in bursts:
        assert len(burst) == len(wl.BURST_PATTERN)
        for kind, core, prev in zip(wl.BURST_PATTERN, burst, [None] + burst):
            if kind == "D":
                assert core == prev
            elif kind == "C":
                cold.append(wl.program_key(core))
            else:
                seeds.append(core["u0_seed"])
    assert len(set(seeds)) == len(seeds)
    assert len(set(cold)) == len(cold)
    again = list(itertools.islice(wl.serve_bursts(4), wl.SERVE_PREFIX_BURSTS))
    assert again == bursts[:wl.SERVE_PREFIX_BURSTS]
