"""Bit-level cube model: vertices, subcubes, paths."""

from __future__ import annotations

import random
import re
from itertools import islice, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cube_faultlab import (
    Path,
    Subcube,
    Vertex,
    common_neighbors,
    enumerate_subcubes,
    hamming,
    neighbor,
)
from cube_faultlab.core import _common_neighbor_bits, _ElementSpace, _vertex_mask, coord_bit
from cube_faultlab.faults import FaultMode, _admitted

dims = st.integers(min_value=1, max_value=10)


@st.composite
def vertices(draw, n=None):
    n = draw(dims) if n is None else n
    return Vertex(draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)


@st.composite
def vertex_pairs(draw):
    n = draw(dims)
    return draw(vertices(n=n)), draw(vertices(n=n))


@st.composite
def subcubes(draw):
    n = draw(dims)
    free = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    base = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & ~free
    return Subcube(free, base, n)


class TestVertex:
    def test_pattern_reads_as_binary(self):
        v = Vertex.from_pattern("110")
        assert v.bits == 6 and v.dim == 3
        assert v.pattern == "110"
        assert str(v) == "110"

    def test_coordinate_indexing_is_one_based_msb_first(self):
        v = Vertex.from_pattern("0110")
        assert [v.coordinate(i) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
        with pytest.raises(ValueError):
            v.coordinate(0)
        with pytest.raises(ValueError):
            v.coordinate(5)

    def test_width_overflow_rejected(self):
        with pytest.raises(ValueError):
            Vertex(8, 3)

    def test_a_bool_is_not_an_ambient_dimension(self):
        with pytest.raises(ValueError, match="ambient dimension must be an int"):
            Vertex(0, True)

    @given(vertices())
    def test_pattern_round_trip(self, v):
        assert Vertex.from_pattern(v.pattern) == v


class TestAdjacency:
    def test_neighbor_flips_named_coordinate(self):
        v = Vertex.from_pattern("000")
        assert neighbor(v, 1).pattern == "100"
        assert neighbor(v, 3).pattern == "001"

    @given(vertices(), st.data())
    def test_neighbor_is_an_involution(self, v, data):
        i = data.draw(st.integers(min_value=1, max_value=v.dim))
        assert neighbor(neighbor(v, i), i) == v

    @given(vertex_pairs())
    def test_hamming_symmetry(self, pair):
        u, v = pair
        assert hamming(u, v) == hamming(v, u)
        assert (hamming(u, v) == 0) == (u == v)

    def test_symmetric_pair_is_complement(self):
        # a symmetric pair differs in every coordinate
        u = Vertex.from_pattern("0101")
        assert hamming(u, Vertex.from_pattern("1010")) == u.dim
        assert hamming(u, Vertex.from_pattern("1011")) < u.dim

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_pair_count(self, n):
        pairs = sum(
            1
            for a in range(1 << n)
            for b in range(a + 1, 1 << n)
            if hamming(Vertex(a, n), Vertex(b, n)) == n
        )
        assert pairs == 1 << (n - 1)


class TestCommonNeighbors:
    def test_distance_two_pair_has_exactly_two(self):
        u = Vertex.from_pattern("000")
        v = Vertex.from_pattern("011")
        got = {w.pattern for w in common_neighbors(u, v)}
        assert got == {"001", "010"}

    def test_other_distances_have_none(self):
        u = Vertex.from_pattern("000")
        assert common_neighbors(u, Vertex.from_pattern("001")) == set()
        assert common_neighbors(u, Vertex.from_pattern("111")) == set()

    def test_identical_vertices_rejected(self):
        u = Vertex.from_pattern("000")
        with pytest.raises(ValueError):
            common_neighbors(u, u)

    def test_vertices_of_different_cubes_rejected(self):
        with pytest.raises(ValueError, match="different cubes"):
            common_neighbors(Vertex(0, 3), Vertex(3, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        """Every ordered distinct pair: the labels adjacent to both ends."""
        for ub, vb in permutations(range(1 << n), 2):
            want = {w for w in range(1 << n)
                    if (w ^ ub).bit_count() == (w ^ vb).bit_count() == 1}
            got = _common_neighbor_bits(ub, vb)
            assert len(got) == len(want) and set(got) == want
            assert common_neighbors(Vertex(ub, n), Vertex(vb, n)) == {Vertex(w, n) for w in want}


@pytest.mark.parametrize("call, message", [
    (lambda: coord_bit(3, 0), "coordinate index must be in [1, 3], got 0"),
    (lambda: Subcube.from_pattern("0x1"), "pattern may contain only 0, 1, *; got '0x1'"),
    (lambda: Vertex.from_pattern("0*1"), "vertex pattern may not contain '*': '0*1'"),
    (lambda: Subcube(0b1000, 0, 3), "free_mask 0x8 out of range for Q_3"),
    (lambda: Subcube(0, 0b1000, 3), "base 0x8 out of range for Q_3"),
    (lambda: Subcube(1.0, 0, 3), "free_mask must be an int, got 1.0"),
    (lambda: Subcube("1", 0, 3), "free_mask must be an int, got '1'"),
    (lambda: Subcube(True, 0, 3), "free_mask must be an int, got True"),
    (lambda: Subcube(0, 1.0, 3), "base must be an int, got 1.0"),
    (lambda: Vertex(True, 3), "vertex label True out of range for Q_3"),
    (lambda: Path([0, True], 2), "vertex label True out of range for Q_2"),
    (lambda: Path([0, 1, 1, 3], 2), "consecutive path vertices must be adjacent: 01 -> 01"),
    (lambda: Subcube.from_pattern("0*1").disjoint_from(Subcube.from_pattern("0*10")),
     "subcubes live in different cubes"),
    (lambda: next(enumerate_subcubes(3, 4)), "subcube dimension must be in [0, 3], got 4"),
], ids=["coordinate", "pattern", "vertex-pattern", "free-mask", "base", "float-free-mask",
        "str-free-mask", "bool-free-mask", "float-base", "bool-vertex", "bool-path-label",
        "path-first-non-adjacent-pair", "disjoint", "subcube-dim"])
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestSubcube:
    def test_pattern_round_trip(self):
        s = Subcube.from_pattern("0*1")
        assert s.dim == 1 and s.dim_ambient == 3
        assert s.pattern == "0*1"
        assert str(s) == "0*1"
        assert set(s.vertex_bits()) == {0b001, 0b011}

    def test_base_must_avoid_free_positions(self):
        with pytest.raises(ValueError):
            Subcube(0b100, 0b100, 3)

    def test_membership(self):
        s = Subcube.from_pattern("0**1")
        assert s.contains(Vertex.from_pattern("0101"))
        assert not s.contains(Vertex.from_pattern("1101"))

    def test_membership_needs_a_vertex_of_the_same_cube(self):
        s = Subcube.from_pattern("0*1")
        with pytest.raises(ValueError, match="different cubes"):
            s.contains(Vertex(0b00011, 5))
        assert s.contains(0b011)  # a bare label is read in the subcube's cube

    def test_point_subcube(self):
        # a pattern without '*' is a 0-dimensional subcube: one vertex
        s = Subcube.from_pattern("101")
        assert s.dim == 0 and s.pattern == "101"
        assert list(s.vertex_bits()) == [0b101]

    def test_disjointness(self):
        a = Subcube.from_pattern("0*1")
        assert a.disjoint_from(Subcube.from_pattern("1*0"))
        assert not a.disjoint_from(Subcube.from_pattern("**1"))

    @given(subcubes())
    def test_vertex_count_matches_enumeration(self, s):
        vs = set(s.vertex_bits())
        assert len(vs) == 1 << s.dim

    @given(subcubes(), subcubes())
    def test_disjoint_from_agrees_with_vertex_sets(self, a, b):
        if a.dim_ambient != b.dim_ambient:
            return
        overlap = set(a.vertex_bits()) & set(b.vertex_bits())
        assert a.disjoint_from(b) == (not overlap)

    @pytest.mark.parametrize(
        "n,k,count", [(3, 0, 8), (3, 1, 12), (3, 2, 6), (3, 3, 1), (4, 2, 24)]
    )
    def test_enumeration_counts(self, n, k, count):
        subs = list(enumerate_subcubes(n, k))
        assert len(subs) == count
        assert subs == sorted(subs, key=lambda s: (s.free_mask, s.base))

    def test_induced_graph_is_a_regular_connected_cube(self):
        s = Subcube.from_pattern("*1*0")
        inside = sorted(s.vertex_bits())
        deg = {
            b: sum(1 for i in range(4) if b ^ (1 << i) in set(inside))
            for b in inside
        }
        assert set(deg.values()) == {s.dim}
        seen = {inside[0]}
        frontier = [inside[0]]
        while frontier:
            b = frontier.pop()
            for i in range(4):
                w = b ^ (1 << i)
                if w in set(inside) and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(inside)


class TestPath:
    def test_adjacency_enforced(self):
        with pytest.raises(ValueError):
            Path.from_bits([0, 3], 2)

    def test_length_counts_edges(self):
        p = Path.from_bits([0, 1, 3, 7], 3)
        assert p.length == 3
        assert p.patterns() == ["000", "001", "011", "111"]

    def test_single_vertex_path(self):
        assert Path.from_bits([5], 3).length == 0

    @pytest.mark.parametrize(
        "labels,n",
        [
            ([0, 1.0], 2),  # not an int
            (["0"], 2),
            ([0, None], 2),
            ([3, 4], 2),  # out of range
            ([-1, 0], 2),
            ([], 2),  # empty
            ([0, 1], 0),  # bad ambient dimension
            ([0, 1], 31),
            ([0, 1], "2"),
        ],
    )
    def test_bad_labels_and_dimensions_rejected(self, labels, n):
        with pytest.raises(ValueError):
            Path.from_bits(labels, n)

    def test_out_of_range_label_named_before_adjacency(self):
        with pytest.raises(ValueError, match="vertex label 8 out of range"):
            Path.from_bits([0, 3, 8], 3)

    def test_vertices_are_the_labels_as_vertices(self):
        p = Path.from_bits([6, 7, 5, 1], 3)
        assert p.labels == (6, 7, 5, 1)
        assert p.vertices == tuple(Vertex(b, 3) for b in p.labels)
        assert p.vertices is p.vertices  # built once

    def test_equal_labels_give_equal_paths(self):
        a, b = Path.from_bits([0, 1, 3], 4), Path((0, 1, 3), 4)
        a.vertices  # a built vertex tuple takes no part in equality
        assert a == b and hash(a) == hash(b)
        assert a != Path.from_bits([0, 1, 3], 5)
        assert a != Path.from_bits([0, 2, 3], 4)

    def test_a_list_is_kept_as_a_tuple(self):
        labels = [0, 1, 3]
        p = Path(labels, 2)
        labels.append(2)  # the path keeps its own labels
        assert type(p.labels) is tuple and p.labels == (0, 1, 3)
        assert p == Path((0, 1, 3), 2) and hash(p) == hash(Path((0, 1, 3), 2))
        assert Path(range(2), 1).labels == (0, 1)

    def test_from_bits_accepts_a_list_and_a_tuple(self):
        assert Path.from_bits([2, 3], 2) == Path.from_bits((2, 3), 2)
        assert Path.from_bits([2, 3], 2).labels == (2, 3)

    @given(vertices())
    def test_patterns_read_like_vertex_patterns(self, v):
        assert Path.from_bits([v.bits], v.dim).patterns() == [v.pattern]


def test_bfs_distance_equals_hamming_in_the_intact_cube():
    # spot check against the closed form; the metrics module has the BFS
    rng = random.Random(99)
    n = 6
    for _ in range(50):
        u = Vertex(rng.randrange(1 << n), n)
        v = Vertex(rng.randrange(1 << n), n)
        assert hamming(u, v) == bin(u.bits ^ v.bits).count("1")


def test_the_ordered_walk_equals_unranking():
    """pairs, masks and base0_indices walk the blocks and submasks in
    order; they equal the per-index unranking for the admitted dimensions
    of every mode at n = 1..8, the empty space included.  pairs is read
    one past the size, so a walk that repeats fails instead of hanging."""
    for n in range(1, 9):
        modes = [FaultMode.substructure()]
        modes += [FaultMode.structure(m) for m in range(n + 2)]
        modes += [FaultMode.subcube(m) for m in range(1, n + 2)]
        for dims in sorted({_admitted(n, mode) for mode in modes}):
            space = _ElementSpace(n, dims)
            ranked = [space._free_and_base(i) for i in range(space.size)]
            assert list(islice(space.pairs(), space.size + 1)) == ranked, (n, dims)
            assert space.masks == tuple(_vertex_mask(*pair) for pair in ranked), (n, dims)
            base0 = [i for i, (_, base) in enumerate(ranked) if base == 0]
            assert list(space.base0_indices()) == base0, (n, dims)
