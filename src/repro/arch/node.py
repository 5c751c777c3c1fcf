"""Whole-node assembly: the static resource inventory of one NSC node.

:class:`NodeConfig` instantiates every ALS from the parameter set, assigns
global functional-unit indices, and builds the switch network over the
resulting endpoint inventory.  It is the single source of truth the
checker's knowledge base, the code generator, and the simulator all consult
— the paper's robustness argument (§4) that design changes should be
absorbed "merely by updating the knowledge base".

A node description is a pure function of its parameters and immutable
once built, so :func:`shared_node` hands every caller in the process the
same instance per :class:`~repro.arch.params.NSCParameters`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Generic, List, Optional, Tuple, TypeVar

from repro.arch.als import ALS_CLASSES, ALSInstance, ALSKind
from repro.arch.funcunit import FUCapability
from repro.arch.params import NSCParameters
from repro.arch.switch import SwitchNetwork

#: Distinct parameter sets whose machine descriptions a process keeps.
#: Parameters come from users (``param_overrides``) and the daemon lives
#: long, so every per-parameters memo is an LRU of this many entries.
SHARED_MACHINES = 16

V = TypeVar("V")


class ParamsMemo(Generic[V]):
    """A thread-safe LRU of :data:`SHARED_MACHINES` values, each built
    once per parameter set.

    ``get`` builds under the lock, so concurrent first uses of one
    parameter set still build exactly one value.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[NSCParameters, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, params: NSCParameters, build: Callable[[], V]) -> V:
        with self._lock:
            value = self._entries.get(params)
            if value is None:
                value = build()
                self._entries[params] = value
                while len(self._entries) > SHARED_MACHINES:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(params)
            return value

    def __len__(self) -> int:
        return len(self._entries)


def _capability_richness(cap: FUCapability) -> int:
    """How many capability circuits a unit carries (placement prefers
    the least capable unit that suffices)."""
    return sum(
        1
        for flag in (FUCapability.FP, FUCapability.INT_LOGICAL, FUCapability.MINMAX)
        if flag in cap
    )


@dataclass(frozen=True)
class FUDescriptor:
    """Resolved description of one functional unit within the node."""

    fu_index: int
    als_id: int
    slot: int
    capability: FUCapability


@dataclass(frozen=True)
class PlacementIndex:
    """Per-FU facts a placer consults, derived once per node.

    ``als_of``, ``richness`` and ``colocation`` are indexed by global FU
    number; ``colocation[src][dst]`` counts the hardwired ALS edges from
    unit *src* into unit *dst* (zero across ALSs), and
    ``internal_routes`` holds each edge as ``(src_fu, dst_fu, dst_port)``.
    The capability table is indexed the way placement asks it:
    ``capable[cap.value]`` lists the units providing capability
    combination *cap*, in FU order.
    """

    als_of: Tuple[ALSInstance, ...]
    richness: Tuple[int, ...]
    colocation: Tuple[Tuple[int, ...], ...]
    internal_routes: FrozenSet[Tuple[int, int, str]]
    capable: Tuple[Tuple[int, ...], ...]

    @classmethod
    def build(cls, als_instances: Tuple[ALSInstance, ...],
              fus: Tuple[FUDescriptor, ...]) -> "PlacementIndex":
        n = len(fus)
        colocation = [[0] * n for _ in range(n)]
        routes = set()
        for als in als_instances:
            for edge in ALS_CLASSES[als.kind].internal_edges:
                src = als.first_fu + edge.src_slot
                dst = als.first_fu + edge.dst_slot
                colocation[src][dst] += 1
                routes.add((src, dst, edge.dst_port))
        capable = tuple(
            tuple(d.fu_index for d in fus if FUCapability(bits) in d.capability)
            for bits in range(1 << len(FUCapability))
        )
        return cls(
            als_of=tuple(als_instances[d.als_id] for d in fus),
            richness=tuple(_capability_richness(d.capability) for d in fus),
            colocation=tuple(tuple(row) for row in colocation),
            internal_routes=frozenset(routes),
            capable=capable,
        )


class NodeConfig:
    """Static description of one NSC node built from an
    :class:`~repro.arch.params.NSCParameters`."""

    def __init__(self, params: Optional[NSCParameters] = None) -> None:
        self.params = params if params is not None else NSCParameters()
        self.als_instances, self._fus = self._build()
        self.switch = SwitchNetwork(self.params, self.n_fus)
        self.placement = PlacementIndex.build(self.als_instances, self._fus)

    def _build(self) -> Tuple[Tuple[ALSInstance, ...], Tuple[FUDescriptor, ...]]:
        instances: List[ALSInstance] = []
        fus: List[FUDescriptor] = []
        next_fu = 0
        als_id = 0
        plan: List[Tuple[ALSKind, int]] = [
            (ALSKind.SINGLET, self.params.n_singlets),
            (ALSKind.DOUBLET, self.params.n_doublets),
            (ALSKind.TRIPLET, self.params.n_triplets),
        ]
        for kind, count in plan:
            for _ in range(count):
                instances.append(
                    ALSInstance(als_id=als_id, kind=kind, first_fu=next_fu)
                )
                for slot in range(kind.n_units):
                    fus.append(
                        FUDescriptor(
                            fu_index=next_fu + slot,
                            als_id=als_id,
                            slot=slot,
                            capability=ALS_CLASSES[kind].slots[slot].capability,
                        )
                    )
                next_fu += kind.n_units
                als_id += 1
        return tuple(instances), tuple(fus)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_fus(self) -> int:
        return len(self._fus)

    @property
    def n_als(self) -> int:
        return len(self.als_instances)

    def als(self, als_id: int) -> ALSInstance:
        if not (0 <= als_id < len(self.als_instances)):
            raise IndexError(f"no ALS {als_id} (node has {self.n_als})")
        return self.als_instances[als_id]

    def als_by_name(self, name: str) -> ALSInstance:
        for inst in self.als_instances:
            if inst.name == name:
                return inst
        raise KeyError(f"no ALS named {name!r}")

    def als_of_kind(self, kind: ALSKind) -> List[ALSInstance]:
        return [a for a in self.als_instances if a.kind is kind]

    def fu(self, fu_index: int) -> FUDescriptor:
        if not (0 <= fu_index < self.n_fus):
            raise IndexError(f"no functional unit {fu_index} (node has {self.n_fus})")
        return self._fus[fu_index]

    def fu_capability(self, fu_index: int) -> FUCapability:
        return self.fu(fu_index).capability

    def als_of_fu(self, fu_index: int) -> ALSInstance:
        return self.als(self.fu(fu_index).als_id)

    def fus_with_capability(self, capability: FUCapability) -> List[int]:
        return list(self.placement.capable[capability.value])

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def inventory(self) -> Dict[str, object]:
        """The Fig. 1 datapath inventory as structured data."""
        p = self.params
        return {
            "functional_units": self.n_fus,
            "als": {
                "singlets": p.n_singlets,
                "doublets": p.n_doublets,
                "triplets": p.n_triplets,
            },
            "memory_planes": p.n_memory_planes,
            "memory_plane_mbytes": p.memory_plane_bytes // (1 << 20),
            "node_memory_gbytes": p.node_memory_bytes / (1 << 30),
            "caches": p.n_caches,
            "cache_buffer_words": p.cache_buffer_words,
            "shift_delay_units": p.n_shift_delay_units,
            "peak_mflops": p.peak_mflops_per_node,
        }

    def peak_mflops(self) -> float:
        return self.params.peak_mflops_per_node

    def __repr__(self) -> str:
        p = self.params
        return (
            f"NodeConfig({self.n_fus} FUs in {p.n_singlets}S/{p.n_doublets}D/"
            f"{p.n_triplets}T, {p.n_memory_planes} planes, {p.n_caches} caches)"
        )


_SHARED_NODES: ParamsMemo[NodeConfig] = ParamsMemo()


def shared_node(params: Optional[NSCParameters] = None) -> NodeConfig:
    """The process's one :class:`NodeConfig` for *params* (default: the
    full machine), built on first use and shared by every caller."""
    params = params if params is not None else NSCParameters()
    return _SHARED_NODES.get(params, lambda: NodeConfig(params))


__all__ = [
    "NodeConfig",
    "FUDescriptor",
    "PlacementIndex",
    "ParamsMemo",
    "SHARED_MACHINES",
    "shared_node",
]
