"""One machine description per parameter set, shared and never mutated.

These tests count constructions rather than time them: compiling many
programs for one :class:`NSCParameters` must build one
:class:`NodeConfig` and one :class:`MicrowordLayout`, every node of a
hypercube must hold the same description, the per-parameters memos must
stay at their bound however many distinct parameter sets users send,
and running jobs must leave a shared description exactly as it was.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.arch.node as node_module
import repro.codegen.microword as microword_module
from repro.arch.node import SHARED_MACHINES, NodeConfig, shared_node
from repro.codegen.microword import MicrowordLayout, shared_layout
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
from repro.sim.multinode import MultiNodeStencil


@pytest.fixture
def constructions(monkeypatch):
    """Count ``NodeConfig`` and ``MicrowordLayout`` constructions."""
    counts = {"node": 0, "layout": 0}
    node_init = NodeConfig.__init__
    layout_init = MicrowordLayout.__init__

    def counting_node(self, *args, **kwargs):
        counts["node"] += 1
        node_init(self, *args, **kwargs)

    def counting_layout(self, *args, **kwargs):
        counts["layout"] += 1
        layout_init(self, *args, **kwargs)

    monkeypatch.setattr(NodeConfig, "__init__", counting_node)
    monkeypatch.setattr(MicrowordLayout, "__init__", counting_layout)
    return counts


def _overrides(tag: int):
    # a parameter no emitted program depends on, so every value is a
    # distinct machine description compiling the same microcode
    return (("router_hop_cycles", 1000 + tag),)


def _snapshot(node: NodeConfig):
    return (
        node.params,
        node.inventory(),
        node.als_instances,
        tuple(node.fu(i) for i in range(node.n_fus)),
        node.switch.sources,
        node.switch.sinks,
        node.placement,
    )


def test_distinct_programs_on_one_machine_build_one_description(constructions):
    overrides = _overrides(1)
    jobs = [
        SimJob(method=method, shape=shape, eps=1e-2, max_sweeps=4,
               param_overrides=overrides, backend="fast")
        for method in ("jacobi", "rb-sor")
        for shape in ((5, 6, 7), (6, 5, 5), (7, 5, 6))
    ]
    records, _summary = BatchRunner().run(jobs)
    assert all(r["ok"] for r in records)
    assert len({r["program_fingerprint"] for r in records}) == len(jobs)
    assert constructions == {"node": 1, "layout": 1}


def test_hypercube_nodes_share_one_description(constructions):
    params = NodeConfig().params.subset(router_hop_cycles=2000)
    constructions["node"] = 0
    stencil = MultiNodeStencil(
        params=params, hypercube_dim=6, shape=(4, 4, 64), eps=1e-12
    )
    assert stencil.n_nodes == 64
    assert {id(m.node) for m in stencil.machines} == {id(stencil.node)}
    assert stencil.node is shared_node(stencil.params)
    assert constructions["node"] == 1


def test_memos_stay_at_their_bound_under_many_parameter_sets():
    jobs = [
        SimJob(method="jacobi", shape=(5, 5, 6), eps=1e-2, max_sweeps=2,
               param_overrides=_overrides(100 + i))
        for i in range(SHARED_MACHINES + 5)
    ]
    records, _summary = BatchRunner().run(jobs)
    assert all(r["ok"] for r in records)
    assert len(node_module._SHARED_NODES) == SHARED_MACHINES
    assert len(microword_module._SHARED_LAYOUTS) == SHARED_MACHINES
    # the most recent parameter sets are the ones kept
    last = jobs[-1].params()
    assert shared_node(last).params == last


def test_running_jobs_leaves_a_shared_node_unchanged():
    overrides = _overrides(3)
    params = SimJob(method="jacobi", shape=(5, 5, 5),
                    param_overrides=overrides).params()
    node = shared_node(params)
    layout = shared_layout(node)
    before = _snapshot(node)
    layout_before = (layout.total_bits, tuple(layout.fields))
    jobs = [
        SimJob(method=method, shape=(6, 5, 7), eps=1e-3, max_sweeps=30,
               u0_seed=seed, param_overrides=overrides, backend=backend)
        for method in ("jacobi", "rb-gs")
        for seed in (1, 2)
        for backend in ("fast", "reference")
    ]
    records, _summary = BatchRunner(batch_fusion="auto").run(jobs)
    assert all(r["ok"] for r in records)
    assert shared_node(params) is node
    assert _snapshot(node) == before
    assert shared_layout(node) is layout
    assert (layout.total_bits, tuple(layout.fields)) == layout_before


def test_concurrent_first_use_builds_once(constructions):
    """Threads racing on fresh parameter sets each get the one instance."""
    base = NodeConfig().params
    params = [base.subset(router_hop_cycles=3000 + i) for i in range(4)]
    constructions["node"] = 0
    seen = [[] for _ in params]
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        for i, p in enumerate(params):
            seen[i].append(shared_node(p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert constructions["node"] == len(params)
    for nodes in seen:
        assert len(nodes) == 8 and len({id(n) for n in nodes}) == 1


def test_node_inventory_is_immutable():
    node = shared_node()
    assert isinstance(node.als_instances, tuple)
    with pytest.raises(TypeError):
        node.als_instances[0] = node.als_instances[1]  # type: ignore[index]
    with pytest.raises(TypeError):
        node.placement.capable[0] = ()  # type: ignore[index]
    with pytest.raises(IndexError):
        node.fu(node.n_fus)
    with pytest.raises(IndexError):
        node.fu(-1)
    with pytest.raises(IndexError):
        node.als(node.n_als)
