"""NodeConfig: global FU indexing, ALS lookup, inventory."""

import pytest

from repro.arch.als import ALS_CLASSES, ALSKind
from repro.arch.funcunit import FUCapability
from repro.arch.node import NodeConfig
from repro.arch.params import SUBSET_PARAMS


class TestAssembly:
    def test_default_fu_count(self, node):
        assert node.n_fus == 32

    def test_default_als_count(self, node):
        assert node.n_als == 16

    def test_fu_indices_are_contiguous(self, node):
        covered = []
        for inst in node.als_instances:
            covered.extend(range(inst.first_fu, inst.first_fu + inst.n_units))
        assert covered == list(range(32))

    def test_singlets_first(self, node):
        kinds = [a.kind for a in node.als_instances]
        assert kinds[:4] == [ALSKind.SINGLET] * 4
        assert kinds[4:12] == [ALSKind.DOUBLET] * 8
        assert kinds[12:] == [ALSKind.TRIPLET] * 4

    def test_als_of_fu_inverse(self, node):
        for fu in range(node.n_fus):
            inst = node.als_of_fu(fu)
            assert inst.first_fu <= fu < inst.first_fu + inst.n_units

    def test_fu_capability_matches_slot(self, node):
        # triplet middle slots are the only plain-FP units
        plain = [
            fu
            for fu in range(node.n_fus)
            if node.fu_capability(fu) == FUCapability.FP
        ]
        assert len(plain) == 4  # one per triplet
        for fu in plain:
            assert node.als_of_fu(fu).kind is ALSKind.TRIPLET

    def test_fus_with_capability(self, node):
        ints = node.fus_with_capability(FUCapability.INT_LOGICAL)
        assert len(ints) == 16  # one per ALS
        mms = node.fus_with_capability(FUCapability.MINMAX)
        assert len(mms) == 12  # doublets + triplets


class TestPlacementIndex:
    """The index must agree with the per-query derivation from the ALS
    classes that placement used before it existed."""

    @pytest.fixture(params=["full", "subset"])
    def any_node(self, request):
        return NodeConfig(SUBSET_PARAMS if request.param == "subset" else None)

    def test_colocation_and_routes_match_als_edges(self, any_node):
        index = any_node.placement
        for dst in range(any_node.n_fus):
            als = any_node.als_of_fu(dst)
            assert index.als_of[dst] == als
            for src in range(any_node.n_fus):
                same = any_node.als_of_fu(src).als_id == als.als_id
                edges = [
                    e for e in ALS_CLASSES[als.kind].internal_edges
                    if same and e.src_slot == src - als.first_fu
                    and e.dst_slot == dst - als.first_fu
                ]
                assert index.colocation[src][dst] == len(edges)
                for port in ("a", "b"):
                    assert ((src, dst, port) in index.internal_routes) == any(
                        e.dst_port == port for e in edges
                    )

    def test_capability_tables(self, any_node):
        index = any_node.placement
        for bits in range(1 << len(FUCapability)):
            cap = FUCapability(bits)
            assert list(index.capable[cap.value]) == [
                fu for fu in range(any_node.n_fus)
                if cap in any_node.fu_capability(fu)
            ]
        for fu in range(any_node.n_fus):
            cap = any_node.fu_capability(fu)
            assert index.richness[fu] == sum(
                flag in cap for flag in FUCapability
            )


class TestLookups:
    def test_als_by_name(self, node):
        inst = node.als_by_name("T12")
        assert inst.kind is ALSKind.TRIPLET
        with pytest.raises(KeyError):
            node.als_by_name("Z9")

    def test_als_of_kind(self, node):
        assert len(node.als_of_kind(ALSKind.DOUBLET)) == 8

    def test_bad_indices_rejected(self, node):
        with pytest.raises(IndexError):
            node.als(99)
        with pytest.raises(IndexError):
            node.fu(32)


class TestInventory:
    def test_fig1_inventory(self, node):
        inv = node.inventory()
        assert inv["functional_units"] == 32
        assert inv["memory_planes"] == 16
        assert inv["memory_plane_mbytes"] == 128
        assert inv["node_memory_gbytes"] == pytest.approx(2.0)
        assert inv["caches"] == 16
        assert inv["shift_delay_units"] == 2
        assert inv["peak_mflops"] == pytest.approx(640.0)

    def test_subset_inventory(self, subset_node):
        inv = subset_node.inventory()
        assert inv["functional_units"] == 16
        assert inv["als"]["singlets"] == 0
        assert inv["als"]["triplets"] == 0

    def test_switch_built_over_node(self, node):
        # every FU output appears as a switch source
        from repro.arch.switch import fu_out

        for fu in range(node.n_fus):
            assert node.switch.is_source(fu_out(fu))

    def test_repr_mentions_shape(self, node):
        assert "4S/8D/4T" in repr(node)
