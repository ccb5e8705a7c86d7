"""Survival-graph analytics: distances, diameter, connectivity."""

from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_faultlab import (
    FaultFamily,
    FaultMode,
    ResourceLimitError,
    Subcube,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    component_of,
    diameter,
    enumerate_families,
    hamming,
    is_connected,
    sample_families,
)
from cube_faultlab import metrics
from cube_faultlab.faults import _max_family_size


def fault_free(n: int) -> SurvivalGraph:
    return SurvivalGraph(n, frozenset())


def all_modes(n: int):
    yield FaultMode.substructure()
    yield from (FaultMode.structure(m) for m in range(n + 1))
    yield from (FaultMode.subcube(m) for m in range(1, n + 1))


def ref_survivors(fam: FaultFamily) -> int:
    """The survivors of `fam` as a bitset, built label by label."""
    faulty = {w for s in fam.elements for w in s.vertex_bits()}
    return sum(1 << w for w in range(1 << fam.ambient) if w not in faulty)


class TestBfsDistance:
    def test_fault_free_distance_is_hamming(self):
        g = fault_free(4)
        assert bfs_distance(g, Vertex.from_pattern("0000"), Vertex.from_pattern("1111")) == 4

    def test_identity(self):
        g = fault_free(4)
        v = Vertex.from_pattern("0101")
        assert bfs_distance(g, v, v) == 0

    def test_detour_around_the_pinned_edge_family(self):
        g = SurvivalGraph.from_family(adversarial_q1_family(4))
        d = bfs_distance(g, Vertex.from_pattern("0000"), Vertex.from_pattern("1110"))
        assert d == 5

    def test_unreachable_is_none(self):
        fam = FaultFamily.from_patterns(["0*1", "*10", "10*"], FaultMode.structure(1), 3)
        g = SurvivalGraph.from_family(fam)
        assert not g.removed_mask & 1
        assert bfs_distance(g, Vertex.from_pattern("000"), Vertex.from_pattern("111")) is None

    def test_removed_endpoint_rejected(self):
        g = SurvivalGraph.from_family(
            FaultFamily.from_patterns(["000"], FaultMode.structure(0), 3)
        )
        with pytest.raises(ValueError):
            bfs_distance(g, Vertex.from_pattern("000"), Vertex.from_pattern("111"))

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_hamming_without_faults(self, n, data):
        g = fault_free(n)
        u = Vertex(data.draw(st.integers(0, (1 << n) - 1)), n)
        v = Vertex(data.draw(st.integers(0, (1 << n) - 1)), n)
        assert bfs_distance(g, u, v) == hamming(u, v)


class TestDiameter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fault_free_diameter_is_n(self, n):
        assert diameter(fault_free(n)) == n

    def test_single_edge_fault_in_q3(self):
        fam = FaultFamily.from_patterns(["00*"], FaultMode.substructure(), 3)
        assert diameter(SurvivalGraph.from_family(fam)) == 3

    def test_pinned_edge_family_q4(self):
        assert diameter(SurvivalGraph.from_family(adversarial_q1_family(4))) == 5

    @pytest.mark.parametrize("n", range(8, 16))
    def test_tight_families_at_scale(self, n):
        for fam in (adversarial_q1_family(n), adversarial_subcube_family(n, 2)):
            assert diameter(SurvivalGraph.from_family(fam)) == n + 1, fam

    def test_disconnected_is_none(self):
        fam = FaultFamily.from_patterns(["00*", "11*"], FaultMode.structure(1), 3)
        assert diameter(SurvivalGraph.from_family(fam)) is None

    def test_everything_removed_rejected(self):
        g = SurvivalGraph(1, frozenset({0, 1}))
        with pytest.raises(ValueError):
            diameter(g)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            diameter(fault_free(17))


class TestConnectivity:
    def test_fault_free_connected(self):
        assert is_connected(fault_free(5))

    def test_witness_disconnects(self):
        fam = FaultFamily.from_patterns(["00*", "11*"], FaultMode.structure(1), 3)
        assert not is_connected(SurvivalGraph.from_family(fam))

    def test_component_of_isolated_corner(self):
        fam = FaultFamily.from_patterns(["001", "010", "100"], FaultMode.structure(0), 3)
        g = SurvivalGraph.from_family(fam)
        assert component_of(g, Vertex.from_pattern("000")) == 1

    def test_component_covers_all_when_connected(self):
        g = fault_free(4)
        assert component_of(g, Vertex.from_pattern("0000")) == (1 << 16) - 1

    def test_component_of_the_full_q18(self):
        assert component_of(fault_free(18), Vertex(5, 18)) == (1 << (1 << 18)) - 1

    def test_component_of_the_full_q20(self):
        # refused when component_of built one Vertex per survivor (150 B each)
        assert component_of(fault_free(20), Vertex(0, 20)) == (1 << (1 << 20)) - 1


class TestSurvivalGraph:
    def test_survivor_bookkeeping(self):
        fam = adversarial_q1_family(4)
        g = SurvivalGraph.from_family(fam)
        assert g.survivor_count == 16 - 4
        assert not g.removed_mask & 1
        assert g.removed_mask >> 0b0100 & 1

    def test_plain_vertex_removals(self):
        g = SurvivalGraph(3, frozenset({0, 7}))
        assert g.survivor_count == 6
        assert is_connected(g)
        assert diameter(g) == 3

    @pytest.mark.parametrize("n", [27, 30])
    def test_past_the_cap_is_refused(self, n):
        with pytest.raises(ResourceLimitError, match=f"^a survival graph of Q_{n} is above the cap "
                           "of n = 26; use route_with_report \\(cube-faultlab route\\)$"):
            SurvivalGraph(n, frozenset({0, 1}))

    def test_from_family_refuses_before_listing_faulty_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a vertex bitset was built")

        monkeypatch.setattr(metrics, "_union_mask", refuse)
        with pytest.raises(ResourceLimitError, match="cap of n = 26"):
            SurvivalGraph.from_family(adversarial_subcube_family(30, 27))

    @pytest.mark.parametrize("n", [20, 21])
    def test_from_family_ors_the_element_bitsets(self, monkeypatch, n):
        # two Q_(n-2) faults: listing their labels took 0.13 / 0.26 s and
        # 64 / 128 MiB at n = 20 / 21; the OR takes 0.0002 / 0.0006 s
        # (2 vCPUs, Python 3.11.7)
        def refuse(self):
            raise AssertionError("faulty labels were listed")

        monkeypatch.setattr(Subcube, "vertex_bits", refuse)
        half = "*" * (n - 2)
        fam = FaultFamily.from_patterns(["00" + half, "11" + half], FaultMode.structure(n - 2), n)
        t0 = time.perf_counter()
        g = SurvivalGraph.from_family(fam)
        assert time.perf_counter() - t0 < 0.1
        assert g.survivor_count == 1 << (n - 1)
        assert g.survivor_mask == ((1 << (1 << (n - 1))) - 1) << (1 << (n - 2))

    def test_repr_leaves_out_the_mask(self):
        # Python refuses to print an int past 4,300 digits: any Q_14 mask
        assert repr(SurvivalGraph(20, [0, 5])) == "SurvivalGraph(ambient=20)"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_survivor_mask_on_every_family(self, n):
        # every size at n <= 3; sizes 0..2 at n = 4, past which subcube:3
        # and subcube:4 pack millions of families
        for mode in all_modes(n):
            top = _max_family_size(n, mode)
            for size in range((top if n <= 3 else min(top, 2)) + 1):
                for fam in enumerate_families(n, mode, size):
                    assert SurvivalGraph.from_family(fam).survivor_mask == ref_survivors(fam)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_survivor_mask_on_seeded_families(self, n):
        for mode in all_modes(n):
            sizes = {1, min(2, _max_family_size(n, mode))}
            if mode.max_element_dim <= n - 2:
                sizes.add(mode.kappa(n) - 1)  # the full fault budget
            for size in sizes:
                for fam in sample_families(n, mode, size, 4, seed=31 * n + size):
                    assert SurvivalGraph.from_family(fam).survivor_mask == ref_survivors(fam)


@pytest.mark.parametrize("call, message", [
    (lambda: metrics._diameter_mask(3, 0), "empty vertex set has no diameter"),
    (lambda: SurvivalGraph(3, [8]), "removed label 8 out of range for Q_3"),
    (lambda: bfs_distance(fault_free(3), Vertex(0, 4), Vertex(0, 3)), "u lives in Q_4, graph in Q_3"),
    (lambda: is_connected(SurvivalGraph(1, [0, 1])), "empty survivor set has no connectivity"),
], ids=["empty-mask", "removed-label", "endpoint-cube", "empty-graph"])
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_distance_cross_check_against_random_faults():
    # the bitset BFS agrees with a plain dict BFS on random instances
    rng = random.Random(5)
    for _ in range(20):
        fam = sample_families(5, FaultMode.subcube(2), 2, 1, seed=rng.randrange(1 << 30))[0]
        g = SurvivalGraph.from_family(fam)
        survivors = [b for b in range(32) if g.survivor_mask >> b & 1]
        src = rng.choice(survivors)
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for b in frontier:
                for i in range(5):
                    w = b ^ (1 << i)
                    if w in survivors and w not in dist:
                        dist[w] = dist[b] + 1
                        nxt.append(w)
            frontier = nxt
        for t in survivors:
            assert bfs_distance(g, Vertex(src, 5), Vertex(t, 5)) == dist.get(t)
