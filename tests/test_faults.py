"""Fault families: modes, validation, splits, construction, sampling, files."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_faultlab import (
    FamilyViolation,
    FaultFamily,
    FaultMode,
    ResourceLimitError,
    RouteBound,
    SearchSpec,
    Subcube,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    element_space_size,
    enumerate_families,
    enumerate_subcubes,
    fault_diameter_bruteforce,
    family_from_text,
    family_to_text,
    read_family,
    restrict_along,
    route_bound,
    route_with_report,
    sample_families,
    validate_family,
    write_family,
)
from cube_faultlab import core, faults, oracle
from cube_faultlab.faults import SAMPLING_ATTEMPTS, _admitted, _space


def reference_subcubes(n: int, admits) -> list[Subcube]:
    """The canonical element order, walked plainly: free masks
    ascending, and under each admitted one every base that avoids it,
    ascending."""
    return [
        Subcube(free, base, n)
        for free in range(1 << n)
        if admits(free.bit_count())
        for base in range(1 << n)
        if not base & free
    ]


def reference_space(n: int, mode: FaultMode) -> list[Subcube]:
    return reference_subcubes(n, mode.admits)


def reference_masks(elements: list[Subcube]) -> tuple[int, ...]:
    return tuple(sum(1 << b for b in s.vertex_bits()) for s in elements)


class TestFaultMode:
    def test_labels_round_trip(self):
        for label in ("structure:0", "structure:2", "substructure", "subcube:3"):
            assert FaultMode.from_label(label).label == label

    def test_bad_labels(self):
        for label in ("structure", "subcube", "subcube:0", "edge", "structure:x"):
            with pytest.raises(ValueError):
                FaultMode.from_label(label)

    def test_every_label_round_trips(self):
        modes = [FaultMode.substructure()]
        modes += [FaultMode.structure(m) for m in range(31)]
        modes += [FaultMode.subcube(m) for m in range(1, 31)]
        for mode in modes:
            assert FaultMode.from_label(mode.label) == mode
            assert str(mode) == mode.label

    @pytest.mark.parametrize("label", [
        "structure:1_0", "structure:+1", "structure: 1", "structure:01",
        "structure:1 ", "structure:\u0663", "subcube:02", "structure:-0", "structure:",
    ])
    def test_a_dimension_has_one_spelling(self, label):
        with pytest.raises(ValueError, match="bad element dimension in mode label"):
            FaultMode.from_label(label)

    def test_a_bool_is_not_a_dimension(self):
        # True == 1 and hashes alike, but would label itself structure:True
        for make in (FaultMode.structure, FaultMode.subcube):
            with pytest.raises(ValueError, match="element dimension must be an int"):
                make(True)

    def test_admissible_dimensions(self):
        assert FaultMode.structure(2).admits(2)
        assert not FaultMode.structure(2).admits(1)
        assert FaultMode.substructure().admits(0)
        assert FaultMode.substructure().admits(1)
        assert not FaultMode.substructure().admits(2)
        assert FaultMode.subcube(2).admits(0)
        assert FaultMode.subcube(2).admits(2)
        assert not FaultMode.subcube(2).admits(3)

    @pytest.mark.parametrize(
        "label,n,kappa",
        [
            ("structure:0", 4, 4),
            ("structure:1", 4, 3),
            ("structure:2", 5, 3),
            ("substructure", 4, 3),
            ("subcube:1", 5, 4),
            ("subcube:3", 5, 2),
        ],
    )
    def test_kappa_closed_form(self, label, n, kappa):
        assert FaultMode.from_label(label).kappa(n) == kappa

    def test_kappa_range_checks(self):
        with pytest.raises(ValueError):
            FaultMode.structure(3).kappa(4)
        with pytest.raises(ValueError):
            FaultMode.substructure().kappa(2)
        for n in (0, 31):
            with pytest.raises(ValueError):
                FaultMode.subcube(1).kappa(n)

    def test_substructure_computes_as_subcube_1(self):
        sub, one = FaultMode.substructure(), FaultMode.subcube(1)
        for n in range(3, 31):
            assert sub.kappa(n) == one.kappa(n)
            assert route_bound(n, sub) == route_bound(n, one)
        for n in range(3, 11):
            assert _admitted(n, sub) == _admitted(n, one)
        for n in (1, 2):
            for mode in (sub, one):
                with pytest.raises(ValueError):
                    mode.kappa(n)
                with pytest.raises(ValueError):
                    route_bound(n, mode)


VALIDATION_MODES = (
    "structure:0", "structure:1", "structure:2", "structure:3",
    "substructure", "subcube:1", "subcube:2", "subcube:3",
)


def reference_violation(family: FaultFamily) -> FamilyViolation | None:
    """The per-pair check: first inadmissible element, else the first
    pair (i, j), i < j, that Subcube.disjoint_from rejects."""
    for s in family.elements:
        if not family.mode.admits(s.dim):
            return FamilyViolation(
                f"element of dimension {s.dim} not admitted by mode {family.mode.label}", (s,)
            )
    elems = family.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not elems[i].disjoint_from(elems[j]):
                return FamilyViolation("elements intersect", (elems[i], elems[j]))
    return None


class TestValidation:
    def test_disjoint_edges_are_ok(self):
        fam = FaultFamily.from_patterns(["0*1", "1*0"], FaultMode.structure(1), 3)
        assert validate_family(fam) is None

    def test_containment_is_a_violation(self):
        fam = FaultFamily.from_patterns(["0**", "001"], FaultMode.subcube(2), 3)
        issue = validate_family(fam)
        assert issue is not None
        assert "001" in str(issue) and "0**" in str(issue)

    def test_mode_conformity_is_checked(self):
        fam = FaultFamily.from_patterns(["00*", "*11"], FaultMode.structure(2), 3)
        issue = validate_family(fam)
        assert issue is not None

    def test_elements_kept_in_canonical_order(self):
        fam = FaultFamily.from_patterns(["11*", "00*"], FaultMode.structure(1), 3)
        assert fam.patterns() == ["00*", "11*"]

    def test_fault_vertices(self):
        fam = FaultFamily.from_patterns(["0*1", "110"], FaultMode.substructure(), 3)
        assert SurvivalGraph.from_family(fam).removed_mask == 1 << 0b001 | 1 << 0b011 | 1 << 0b110
        assert fam.size == 2

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    def test_int_verdict_matches_the_per_pair_reference(self, size):
        """Every multiset of `size` subcubes of Q_3 (any dimension, so
        intersecting, repeated and inadmissible elements included) under
        every mode: the same reason and members as the reference.  Four
        elements, under the mode that admits them all, are the smallest
        case where the pair order matters: (0, 3) comes before (1, 2)."""
        labels = VALIDATION_MODES if size <= 3 else ("subcube:3",)
        modes = [FaultMode.from_label(m) for m in labels]
        cubes = reference_subcubes(3, lambda k: True)
        invalid = 0
        for elems in itertools.combinations_with_replacement(cubes, size):
            for mode in modes:
                fam = FaultFamily(elems, mode, 3)
                want = reference_violation(fam)
                assert validate_family(fam) == want, (mode.label, fam.patterns())
                # the verdict reads the canonical order, not the input order
                assert validate_family(FaultFamily(elems[::-1], mode, 3)) == want
                invalid += want is not None
        assert invalid > 0 or size == 0

    def test_the_verdict_is_computed_once_per_family(self):
        fam = FaultFamily.from_patterns(["0**", "001"], FaultMode.subcube(2), 3)
        first = validate_family(fam)
        assert first == FamilyViolation(
            "elements intersect", (Subcube.from_pattern("001"), Subcube.from_pattern("0**"))
        )
        assert validate_family(fam) is first
        valid = FaultFamily.from_patterns(["0*1", "1*0"], FaultMode.structure(1), 3)
        assert validate_family(valid) is None and validate_family(valid) is None
        for f in (fam, valid):  # built at construction; only the route plan waits for use
            assert {"_pairs", "_max_dim", "_groups", "_verdict"} <= vars(f).keys()
            assert "_route_plan" not in vars(f)

    def test_an_invalid_family_raises_on_every_call(self):
        fam = FaultFamily.from_patterns(["000*", "00*0"], FaultMode.structure(1), 4)
        u, v = Vertex.from_pattern("1111"), Vertex.from_pattern("0111")
        for _ in range(3):
            with pytest.raises(ValueError, match="elements intersect: 000\\*, 00\\*0"):
                route_with_report(u, v, fam)
            with pytest.raises(ValueError, match="elements intersect"):
                SurvivalGraph.from_family(fam)

    def test_replace_gives_a_fresh_verdict(self):
        fam = FaultFamily.from_patterns(["0*1", "1*0"], FaultMode.structure(1), 3)
        assert validate_family(fam) is None
        narrowed = dataclasses.replace(fam, mode=FaultMode.structure(0))
        assert validate_family(narrowed) == FamilyViolation(
            "element of dimension 1 not admitted by mode structure:0", (Subcube.from_pattern("0*1"),)
        )
        overlapping = dataclasses.replace(fam, elements=fam.elements + (Subcube.from_pattern("01*"),))
        assert validate_family(overlapping) == FamilyViolation(
            "elements intersect", (Subcube.from_pattern("01*"), Subcube.from_pattern("0*1"))
        )
        assert validate_family(fam) is None
        # one more element: the router steps around it, though the
        # original instance keeps a route plan and a table without it
        edge = FaultFamily.from_patterns(["0*01"], FaultMode.structure(1), 4)
        u, v = Vertex.from_pattern("0000"), Vertex.from_pattern("0111")
        assert route_with_report(u, v, edge).path.labels == (0b0000, 0b0100, 0b0110, 0b0111)
        grown = dataclasses.replace(edge, elements=edge.elements + (Subcube.from_pattern("01*0"),))
        assert route_with_report(u, v, grown).path.labels == (0b0000, 0b0010, 0b0011, 0b0111)
        # a mode change: the new mode's bound, not the one the original plan keeps
        assert route_with_report(u, v, edge).bound == RouteBound(4, FaultMode.structure(1), 5)
        wider = dataclasses.replace(edge, mode=FaultMode.subcube(2))
        assert route_with_report(u, v, wider).bound == RouteBound(4, FaultMode.subcube(2), 4)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_max_dim_is_the_largest_element_dimension(self, n):
        for mode in (FaultMode.structure(n - 3), FaultMode.subcube(n - 3), FaultMode.substructure()):
            for fam in sample_families(n, mode, mode.kappa(n) - 1, 20, seed=n):
                assert fam._max_dim == max(s.dim for s in fam.elements)
        assert FaultFamily((), FaultMode.structure(1), n)._max_dim == 0


class TestSplitClassification:
    def test_partition_relative_to_last_coordinate(self):
        fam = FaultFamily.from_patterns(
            ["0*1", "11*", "010"], FaultMode.subcube(1), 3
        )
        # 11* straddles x_3, so both halves keep its face 11
        assert restrict_along(fam, 3, 0).patterns() == ["01", "11"]
        assert restrict_along(fam, 3, 1).patterns() == ["11", "0*"]
        assert restrict_along(fam, 1, 0).patterns() == ["10", "*1"]
        assert restrict_along(fam, 1, 1).patterns() == ["1*"]

    def test_restriction_drops_the_split_coordinate(self):
        fam = adversarial_subcube_family(5, 2)
        half = restrict_along(fam, 5, 0)
        assert half.ambient == 4
        assert half.patterns() == ["**01", "**10"]
        assert half.mode.label == "subcube:2"

    def test_straddler_projection_loses_one_dimension(self):
        fam = FaultFamily.from_patterns(["1*0*"], FaultMode.subcube(2), 4)
        half = restrict_along(fam, 4, 1)
        assert half.patterns() == ["1*0"]

    def test_a_projected_structure_element_widens_the_mode(self):
        # the edge *000 is free in x_1, so both halves keep the vertex 000,
        # which structure:1 does not admit
        fam = FaultFamily.from_patterns(["*000", "0*11"], FaultMode.structure(1), 4)
        for h in (0, 1):
            half = restrict_along(fam, 1, h)
            assert half.mode == FaultMode.subcube(1)
            assert validate_family(half) is None
        assert restrict_along(fam, 1, 0).patterns() == ["000", "*11"]
        assert restrict_along(fam, 4, 1).mode == FaultMode.structure(1)


class TestAdversarialFamilies:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_pinned_edge_family_shape(self, n):
        fam = adversarial_q1_family(n)
        assert fam.size == n - 2
        assert validate_family(fam) is None
        assert all(s.dim == 1 for s in fam.elements)

    def test_pinned_edge_family_q4(self):
        assert adversarial_q1_family(4).patterns() == ["*010", "*100"]

    def test_pinned_edge_family_is_the_m1_blocking_family(self):
        for n in range(4, 31):
            fam = adversarial_q1_family(n)
            assert fam.elements == adversarial_subcube_family(n, 1).elements
            assert fam.mode == FaultMode.structure(1)

    def test_pinned_edge_needs_room(self):
        with pytest.raises(ValueError):
            adversarial_q1_family(3)

    @pytest.mark.parametrize("n,m", [(4, 1), (5, 1), (5, 2), (6, 3), (8, 2)])
    def test_blocking_family_shape(self, n, m):
        fam = adversarial_subcube_family(n, m)
        assert fam.size == n - m - 1
        assert validate_family(fam) is None
        assert all(s.dim == m for s in fam.elements)

    def test_blocking_family_q5(self):
        assert adversarial_subcube_family(5, 2).patterns() == ["**010", "**100"]

    def test_blocking_family_needs_room(self):
        with pytest.raises(ValueError):
            adversarial_subcube_family(5, 3)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,label,size,count",
        [
            (3, "structure:1", 1, 12),
            (3, "substructure", 1, 20),
            (4, "structure:1", 2, 400),
        ],
    )
    def test_counts(self, n, label, size, count):
        mode = FaultMode.from_label(label)
        assert sum(1 for _ in enumerate_families(n, mode, size)) == count

    def test_element_space_size_matches(self):
        for n, label in ((3, "substructure"), (4, "structure:1"), (5, "subcube:2")):
            mode = FaultMode.from_label(label)
            assert element_space_size(n, mode) == len(reference_space(n, mode))

    def test_element_space_is_the_admitted_subcubes(self):
        for n, label in ((4, "structure:2"), (5, "subcube:2"), (5, "substructure")):
            mode = FaultMode.from_label(label)
            want = sorted(
                (s for k in range(n + 1) if mode.admits(k) for s in enumerate_subcubes(n, k)),
                key=lambda s: (s.free_mask, s.base),
            )
            assert list(_space(n, mode)) == want

    def test_pairs_match_a_double_loop(self):
        mode = FaultMode.structure(1)
        space = reference_space(4, mode)
        brute = {
            (a.pattern, b.pattern)
            for a, b in itertools.combinations(space, 2)
            if a.disjoint_from(b)
        }
        got = {tuple(f.patterns()) for f in enumerate_families(4, mode, 2)}
        assert got == brute

    def test_all_enumerated_families_are_valid(self):
        for fam in enumerate_families(4, FaultMode.subcube(2), 2):
            assert validate_family(fam) is None

    def test_size_zero_is_the_empty_family(self):
        fams = list(enumerate_families(3, FaultMode.structure(1), 0))
        assert len(fams) == 1 and fams[0].size == 0

    @pytest.mark.parametrize(
        "n, size, families",
        [(5, 30, 496), (5, 32, 1), (5, 33, 0), (3, 10**9, 0), (10, 1024, 1), (10, 1023, 1024)],
    )
    def test_sizes_next_to_the_space_finish(self, n, size, families):
        """Q_n has 2^n vertices: the walk stops prefixes that cannot be
        completed, so it does not visit every vertex subset; it allocates
        nothing for a size above the space and does not recurse per
        element, so a family of all 1024 vertices of Q_10 is one walk."""
        assert sum(1 for _ in enumerate_families(n, FaultMode.structure(0), size)) == families

    def test_the_bitset_table_is_refused_before_it_is_built(self, monkeypatch):
        # 16 * 2^15 edges of 2^16 bits each would take 4 GiB
        refuse_element_space(monkeypatch)
        with pytest.raises(ResourceLimitError, match="smaller n, or sample_families"):
            next(enumerate_families(16, FaultMode.structure(1), 1))
        # the largest tables still accepted: every mode at n = 7, and
        # structure:1 at n = 13 (about 54 MB)
        for mode in canonical_modes(7):
            assert _space(7, mode).size << 7 <= core._MASK_TABLE_BITS
        assert _space(13, FaultMode.structure(1)).size << 13 <= core._MASK_TABLE_BITS


class TestSampling:
    def test_deterministic_for_a_seed(self):
        a = sample_families(5, FaultMode.subcube(2), 3, 20, seed=11)
        b = sample_families(5, FaultMode.subcube(2), 3, 20, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_families(5, FaultMode.subcube(2), 3, 20, seed=11)
        b = sample_families(5, FaultMode.subcube(2), 3, 20, seed=12)
        assert a != b

    def test_samples_are_valid(self):
        for fam in sample_families(6, FaultMode.subcube(2), 3, 1000, seed=1):
            assert validate_family(fam) is None

    def test_substructure_samples_from_the_subcube_1_space(self):
        # both labels admit the same elements, so they draw from equal
        # spaces; the families keep the caller's mode
        sub, one = FaultMode.substructure(), FaultMode.subcube(1)
        assert _admitted(6, sub) == _admitted(6, one)
        sub = sample_families(6, sub, 3, 4, seed=11)
        one = sample_families(6, one, 3, 4, seed=11)
        assert [f.patterns() for f in sub] == [
            ["11110*", "0000*1", "*10011"],
            ["110000", "11111*", "*00100"],
            ["101110", "01000*", "110*11"],
            ["010101", "0*1010", "*00111"],
        ]
        assert [f.patterns() for f in one] == [f.patterns() for f in sub]
        assert {f.mode.label for f in sub} == {"substructure"}
        assert {f.mode.label for f in one} == {"subcube:1"}

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_sampled_sizes_and_modes(self, size, seed):
        fam = sample_families(5, FaultMode.substructure(), size, 1, seed=seed)[0]
        assert fam.size == size
        assert validate_family(fam) is None


def reference_sample(n: int, mode: FaultMode, size: int, count: int, seed: int):
    """The sampler over the materialized element space: each attempt
    indexes `size` uniform picks into the reference space and keeps them
    when their vertex bitsets do not overlap."""
    elems = reference_space(n, mode)
    masks = reference_masks(elems)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for _attempt in range(SAMPLING_ATTEMPTS):
            picks = [rng.randrange(len(elems)) for _ in range(size)]
            acc = 0
            for i in picks:
                if masks[i] & acc:
                    break
                acc |= masks[i]
            else:
                out.append(FaultFamily(tuple(elems[i] for i in picks), mode, n))
                break
        else:
            raise AssertionError("reference sampler hit the attempt limit")
    return out


def canonical_modes(n: int):
    yield from (FaultMode.structure(m) for m in range(n + 1))
    yield from (FaultMode.subcube(m) for m in range(1, n + 1))


def refuse_element_space(monkeypatch):
    """Fail on any walk of a whole element space or its bitset table."""

    def refuse(*args):
        raise AssertionError("the element space or its bitset table was built")

    table = core._ElementSpace.masks.func

    def refuse_table(space):
        # the table's size refusal runs, then its first bitset fails; the
        # sampled search's own per-draw bitsets stay allowed
        with monkeypatch.context() as m:
            m.setattr(core, "_vertex_mask", refuse)
            return table(space)

    monkeypatch.setattr(core._ElementSpace, "__iter__", refuse)
    monkeypatch.setattr(core._ElementSpace, "pairs", refuse)
    monkeypatch.setattr(core._ElementSpace, "masks", property(refuse_table))


class TestUnrankedSampling:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_index_unranks_to_the_element_space_entry(self, n):
        # subcube:m interleaves dimensions across the ascending free masks
        for mode in canonical_modes(n):
            space = _space(n, mode)
            elems = reference_space(n, mode)
            assert space.size == len(elems) == element_space_size(n, mode)
            assert [space[i] for i in range(space.size)] == list(space) == elems
            assert space.masks == reference_masks(elems)
        for k in range(n + 1):
            assert list(enumerate_subcubes(n, k)) == reference_subcubes(n, k.__eq__)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_draws_equal_the_reference_sampler(self, n):
        modes = [m for m in canonical_modes(n) if m.max_element_dim <= n - 2]
        modes.append(FaultMode.substructure())
        for mode in modes:
            for size in range(mode.kappa(n)):
                for seed in range(30):
                    got = sample_families(n, mode, size, 2, seed)
                    assert got == reference_sample(n, mode, size, 2, seed), (mode, size, seed)

    def test_n12_never_builds_the_element_space(self, monkeypatch):
        refuse_element_space(monkeypatch)
        mode = FaultMode.structure(3)
        fams = sample_families(12, mode, 8, 600, seed=4)
        assert all(f.size == 8 and validate_family(f) is None for f in fams)
        res = fault_diameter_bruteforce(12, mode, 8, search=SearchSpec.sampled(4, 1))
        assert res.value >= 12 and validate_family(res.witness) is None

    def test_n20_memory_does_not_grow_with_the_space(self, monkeypatch):
        # 2^17 * C(20, 3) elements; building them would take gigabytes
        refuse_element_space(monkeypatch)
        mode = FaultMode.structure(3)
        tracemalloc.start()
        try:
            fams = sample_families(20, mode, mode.kappa(20) - 1, 100, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert all(f.size == 16 and validate_family(f) is None for f in fams)

    def test_the_attempt_limit_ends_a_hopeless_draw(self):
        # a perfect matching of Q_5 fits, but uniform draws of 16 of its
        # 80 edges are almost never disjoint
        with pytest.raises(ResourceLimitError, match=f"within {SAMPLING_ATTEMPTS} attempts"):
            sample_families(5, FaultMode.structure(1), 16, 1, 0)

    def test_a_mode_without_elements_is_named(self):
        with pytest.raises(ValueError, match="structure:5.*Q_3"):
            sample_families(3, FaultMode.structure(5), 1, 1, 0)
        assert sample_families(3, FaultMode.structure(5), 0, 2, 0) == [
            FaultFamily((), FaultMode.structure(5), 3)
        ] * 2

    def test_rejection_limit(self):
        # Q_3 holds at most 4 disjoint edges
        with pytest.raises(ResourceLimitError, match="lower the size"):
            sample_families(3, FaultMode.structure(1), 5, 1, 0)

    def test_the_size_limit_is_computed_once_per_call(self, monkeypatch):
        calls = []
        real = faults._max_family_size

        def counting(n, mode):
            calls.append((n, mode.label))
            return real(n, mode)

        monkeypatch.setattr(faults, "_max_family_size", counting)
        monkeypatch.setattr(oracle, "_max_family_size", counting)
        assert len(sample_families(5, FaultMode.structure(1), 3, 40, 0)) == 40
        assert calls == [(5, "structure:1")]
        spec = SearchSpec.sampled(7, 50)
        assert fault_diameter_bruteforce(4, FaultMode.structure(1), 2, search=spec).families_scanned == 50
        assert calls == [(5, "structure:1"), (4, "structure:1")]
        # the refusal comes at the first draw, so no draw means no refusal
        assert sample_families(3, FaultMode.structure(1), 5, 0, 0) == []
        with pytest.raises(ResourceLimitError, match="^no family of 5 structure:1 elements "
                           "fits in Q_3; lower the size$"):
            sample_families(3, FaultMode.structure(1), 5, 1, 0)


class TestFamilyFiles:
    def test_text_round_trip(self):
        fam = adversarial_subcube_family(6, 2)
        assert family_from_text(family_to_text(fam)) == fam

    def test_file_round_trip(self, tmp_path):
        fam = FaultFamily.from_patterns(
            ["00*0", "1*11"], FaultMode.substructure(), 4
        )
        path = tmp_path / "fam.txt"
        write_family(fam, path)
        assert read_family(path) == fam

    def test_comments_and_blanks_ignored(self):
        text = "# worst case\nn=4 mode=structure:1\n\n*010\n# middle\n*100\n"
        fam = family_from_text(text)
        assert fam == adversarial_q1_family(4)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            family_from_text("*010\n*100\n")

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="^element \\*01 lives in Q_3, family in Q_4$"):
            family_from_text("n=4 mode=structure:1\n*01\n")

    def test_an_element_that_is_not_a_subcube_is_named(self):
        with pytest.raises(ValueError, match="^family element '0\\*1' is not a Subcube$"):
            FaultFamily(("0*1",), FaultMode.structure(1), 3)

    @pytest.mark.parametrize("header", [
        "n=3 n=4 mode=structure:0", "n=4 mode=structure:0 mode=structure:0", "n=4",
    ])
    def test_a_header_names_each_key_once(self, header):
        with pytest.raises(ValueError, match="bad family header"):
            family_from_text(f"{header}\n0000\n")

    @pytest.mark.parametrize("n", ["04", "+4", "4_0", "\u0664", "4.0", "-0"])
    def test_the_ambient_dimension_has_one_spelling(self, n):
        with pytest.raises(ValueError, match="bad ambient dimension"):
            family_from_text(f"n={n} mode=structure:0\n0000\n")


@pytest.mark.parametrize("call, message", [
    (lambda: FaultMode("edgy"), "unknown fault mode kind 'edgy'"),
    (lambda: FaultMode("substructure", 1), "substructure mode takes no element dimension"),
    (lambda: restrict_along(adversarial_q1_family(4), 1, 2), "half must be 0 or 1, got 2"),
    (lambda: restrict_along(FaultFamily((), FaultMode.structure(0), 1), 1, 0),
     "cannot restrict a 1-dimensional cube"),
    (lambda: next(enumerate_families(3, FaultMode.structure(0), -1)),
     "family size must be >= 0, got -1"),
    (lambda: sample_families(3, FaultMode.structure(0), -1, 1, 0), "size and count must be >= 0"),
    (lambda: family_from_text("# a comment only\n\n"),
     "empty family text, expected an 'n=... mode=...' header"),
], ids=["mode-kind", "substructure-m", "half", "one-cube", "enum-size", "sample-size", "empty-text"])
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@given(st.integers(min_value=3, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_classification_is_a_partition(n, data):
    mode = FaultMode.subcube(max(1, n - 3))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    size = data.draw(st.integers(min_value=0, max_value=n - 1))
    fam = sample_families(n, mode, size, 1, seed=seed)[0]
    d = data.draw(st.integers(min_value=1, max_value=n))
    # an element free in x_d shows up in both halves, any other element
    # in exactly the half its x_d matches; each half drops x_d
    for h in (0, 1):
        want = [s.pattern for s in fam.elements if s.pattern[d - 1] in ("*", str(h))]
        got = restrict_along(fam, d, h).patterns()
        assert sorted(got) == sorted(p[: d - 1] + p[d:] for p in want)
