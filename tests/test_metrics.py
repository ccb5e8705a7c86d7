"""Survival-graph analytics: distances, diameter, connectivity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_faultlab import (
    FaultFamily,
    FaultMode,
    ResourceLimitError,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    component_of,
    diameter,
    hamming,
    is_connected,
    sample_families,
)
from cube_faultlab import metrics


def fault_free(n: int) -> SurvivalGraph:
    return SurvivalGraph(n, frozenset())


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
        assert 0b000 not in g.removed
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
        comp = component_of(g, Vertex.from_pattern("000"))
        assert {v.pattern for v in comp} == {"000"}

    def test_component_covers_all_when_connected(self):
        g = fault_free(4)
        comp = component_of(g, Vertex.from_pattern("0000"))
        assert len(comp) == 16

    def test_component_of_the_full_q18(self):
        # the bits are read in one linear pass; one XOR per bit took 5 s here
        comp = component_of(fault_free(18), Vertex(5, 18))
        assert len(comp) == 1 << 18
        assert {v.bits for v in comp} == set(range(1 << 18))
        assert {v.dim for v in comp} == {18}


class TestSurvivalGraph:
    def test_survivor_bookkeeping(self):
        fam = adversarial_q1_family(4)
        g = SurvivalGraph.from_family(fam)
        assert g.survivor_count == 16 - 4
        assert 0b0000 not in g.removed
        assert 0b0100 in g.removed

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
        def refuse(family):
            raise AssertionError("faulty labels were listed")

        monkeypatch.setattr(metrics, "fault_bits", refuse)
        with pytest.raises(ResourceLimitError, match="cap of n = 26"):
            SurvivalGraph.from_family(adversarial_subcube_family(30, 27))

    def test_component_of_is_priced_per_survivor(self, monkeypatch):
        monkeypatch.setattr(metrics, "_bfs_cover", None)  # a started search fails differently
        with pytest.raises(ResourceLimitError, match="^component_of over the 67,108,863 "
                           "survivors of Q_26 .*; use is_connected or bfs_distance"):
            component_of(SurvivalGraph(26, frozenset({1})), Vertex(0, 26))

    @pytest.mark.parametrize("n, mib", [(22, "600"), (24, "2,400")])
    def test_component_of_is_refused_past_the_memory_budget(self, monkeypatch, n, mib):
        # 150 B a survivor: 600 MiB and 2.3 GiB, refused before the BFS starts
        monkeypatch.setattr(metrics, "_bfs_cover", None)
        with pytest.raises(ResourceLimitError, match=f"^component_of over the {1 << n:,} survivors "
                           f"of Q_{n} would hold about {mib} MiB, above 128 MiB; use is_connected "
                           "or bfs_distance"):
            component_of(fault_free(n), Vertex(0, n))


def test_distance_cross_check_against_random_faults():
    # the bitset BFS agrees with a plain dict BFS on random instances
    rng = random.Random(5)
    for _ in range(20):
        fam = sample_families(5, FaultMode.subcube(2), 2, 1, seed=rng.randrange(1 << 30))[0]
        g = SurvivalGraph.from_family(fam)
        survivors = [b for b in range(32) if b not in g.removed]
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
