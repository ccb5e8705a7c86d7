"""Brute-force oracle: connectivity and fault diameters, frozen ground truth.

The numeric expectations here were computed once by this oracle and
checked against the closed forms; they are frozen so a regression in
the scan (ordering, pruning, reduction) shows up as a value or witness
change, not just as silence.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from cube_faultlab import (
    FaultMode,
    InvariantViolation,
    ResourceLimitError,
    SearchSpec,
    SurvivalGraph,
    connectivity_bruteforce,
    diameter,
    enumerate_families,
    fault_diameter_bruteforce,
    is_connected,
)
from cube_faultlab import faults, oracle
from cube_faultlab.faults import _admitted


@lru_cache(maxsize=None)
def reference_connectivity(n: int, label: str):
    """(kappa, witness, families walked) of a plain scan: every family of
    each size, one at a time, in canonical order, until one disconnects."""
    mode = FaultMode.from_label(label)
    scanned = 0
    for size in range(1, (1 << n) + 1):
        for family in enumerate_families(n, mode, size):
            scanned += 1
            g = SurvivalGraph.from_family(family)
            if g.survivor_count and not is_connected(g):
                return size, family, scanned
    raise AssertionError(f"nothing disconnects Q_{n} under {label}")


@lru_cache(maxsize=None)
def reference_fault_diameter(n: int, label: str, budget: int):
    """(value, witness, families walked, families skipped) of a plain scan
    over every family of at most `budget` elements; a family that leaves
    the survivors empty or disconnected is skipped."""
    mode = FaultMode.from_label(label)
    best, witness, scanned, skipped = -1, None, 0, 0
    for size in range(budget + 1):
        for family in enumerate_families(n, mode, size):
            scanned += 1
            g = SurvivalGraph.from_family(family)
            d = diameter(g) if g.survivor_count else None
            if d is None:
                skipped += 1
            elif d > best:
                best, witness = d, family
    return best, witness, scanned, skipped


class TestConnectivity:
    def test_q3_edge_structure(self):
        res = connectivity_bruteforce(3, FaultMode.structure(1))
        assert res.kappa == 2
        assert res.witness.patterns() == ["00*", "11*"]
        assert res.families_scanned == 6

    def test_q3_substructure_same_cut(self):
        res = connectivity_bruteforce(3, FaultMode.substructure())
        assert res.kappa == 2
        assert res.witness.patterns() == ["00*", "11*"]

    def test_q3_vertex_faults(self):
        assert connectivity_bruteforce(3, FaultMode.structure(0)).kappa == 3

    def test_q4_edge_structure(self):
        res = connectivity_bruteforce(4, FaultMode.structure(1))
        assert res.kappa == 3
        assert res.witness.patterns() == ["000*", "011*", "101*"]
        assert res.families_scanned == 109

    def test_q4_subcube(self):
        res = connectivity_bruteforce(4, FaultMode.subcube(2))
        assert res.kappa == 2
        assert res.witness.patterns() == ["00**", "11**"]

    def test_q4_square_structure(self):
        assert connectivity_bruteforce(4, FaultMode.structure(2)).kappa == 2

    def test_witness_actually_disconnects(self):
        res = connectivity_bruteforce(4, FaultMode.structure(1))
        assert not is_connected(SurvivalGraph.from_family(res.witness))

    def test_jobs_do_not_change_the_answer(self):
        a = connectivity_bruteforce(4, FaultMode.structure(1), jobs=1)
        b = connectivity_bruteforce(4, FaultMode.structure(1), jobs=2)
        assert (a.kappa, a.witness) == (b.kappa, b.witness)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            connectivity_bruteforce(9, FaultMode.structure(1))


class TestFaultDiameterExhaustive:
    def test_q3_edge_structure(self):
        res = fault_diameter_bruteforce(3, FaultMode.structure(1), 1)
        assert res.value == 3
        assert res.witness.patterns() == []
        assert res.families_scanned == 3

    def test_q3_substructure(self):
        assert fault_diameter_bruteforce(3, FaultMode.substructure(), 1).value == 3

    def test_q4_edge_structure(self):
        res = fault_diameter_bruteforce(4, FaultMode.structure(1), 2)
        assert res.value == 5
        assert res.witness.patterns() == ["000*", "011*"]

    def test_q4_substructure(self):
        assert fault_diameter_bruteforce(4, FaultMode.substructure(), 2).value == 5

    def test_q4_subcube(self):
        res = fault_diameter_bruteforce(4, FaultMode.subcube(2), 1)
        assert res.value == 4
        assert res.witness.patterns() == []

    def test_q4_vertex_faults(self):
        res = fault_diameter_bruteforce(4, FaultMode.structure(0), 3)
        assert res.value == 5
        assert res.witness.patterns() == ["0000", "0011", "0101"]
        assert res.families_scanned == 220

    def test_witness_attains_the_value(self):
        res = fault_diameter_bruteforce(4, FaultMode.structure(1), 2)
        assert diameter(SurvivalGraph.from_family(res.witness)) == res.value

    def test_budget_zero_is_the_plain_diameter(self):
        res = fault_diameter_bruteforce(4, FaultMode.structure(1), 0)
        assert res.value == 4 and res.families_scanned == 1

    def test_over_budget_families_are_skipped_not_fatal(self):
        # at budget 2 some edge pairs disconnect Q_3; they are excluded
        # from the max, counted, and the value matches the safe budget
        res = fault_diameter_bruteforce(3, FaultMode.structure(1), 2)
        assert res.value == 3
        assert res.disconnected_skipped == 1
        assert res.families_scanned == 8

    def test_size_guard(self):
        # predicted at 46x and 111x the limit
        with pytest.raises(ResourceLimitError):
            fault_diameter_bruteforce(6, FaultMode.structure(1), 5)
        with pytest.raises(ResourceLimitError):
            fault_diameter_bruteforce(7, FaultMode.structure(1), 4)


class TestFaultDiameterSampled:
    def test_seeded_run_is_reproducible(self):
        spec = SearchSpec.sampled(7, 500)
        a = fault_diameter_bruteforce(4, FaultMode.structure(1), 2, search=spec)
        b = fault_diameter_bruteforce(4, FaultMode.structure(1), 2, search=spec)
        assert a == b
        assert a.value == 5
        assert a.witness.patterns() == ["1*01", "1*10"]
        assert a.families_scanned == 500

    def test_sampled_never_exceeds_exhaustive(self):
        exact = fault_diameter_bruteforce(4, FaultMode.substructure(), 2)
        for seed in (0, 1, 2):
            spec = SearchSpec.sampled(seed, 200)
            sampled = fault_diameter_bruteforce(
                4, FaultMode.substructure(), 2, search=spec
            )
            assert sampled.value <= exact.value

    def test_sampling_covers_a_refused_exhaustive_scan(self):
        with pytest.raises(ResourceLimitError, match="use --budget 2"):
            fault_diameter_bruteforce(7, FaultMode.structure(1), 3)
        spec = SearchSpec.sampled(3, 50)
        res = fault_diameter_bruteforce(7, FaultMode.structure(1), 3, search=spec)
        assert res.value >= 7

    def test_sampling_refuses_exact_diameters_past_the_limit(self, monkeypatch):
        # structure:15 has only 544 elements at n = 17, but every draw
        # would need a diameter scan of a 2^17-vertex graph
        def built(*args):
            raise AssertionError("sampler set up before the size check")

        monkeypatch.setattr(oracle, "_space", built)
        spec = SearchSpec.sampled(3, 50)
        with pytest.raises(ResourceLimitError):
            fault_diameter_bruteforce(17, FaultMode.structure(15), 1, search=spec)

    def test_substructure_samples_from_the_subcube_1_space(self):
        spec = SearchSpec.sampled(5, 40)
        assert _admitted(6, FaultMode.substructure()) == _admitted(6, FaultMode.subcube(1))
        sub = fault_diameter_bruteforce(6, FaultMode.substructure(), 4, search=spec)
        one = fault_diameter_bruteforce(6, FaultMode.subcube(1), 4, search=spec)
        assert sub.value == one.value == 6
        assert sub.witness.patterns() == ["011010", "111001", "10000*", "1111*1"]
        assert one.witness.patterns() == sub.witness.patterns()
        assert (sub.witness.mode.label, one.witness.mode.label) == ("substructure", "subcube:1")


def all_modes(n: int):
    yield FaultMode.structure(0)
    yield FaultMode.substructure()
    for m in range(1, n - 1):
        yield FaultMode.structure(m)
        yield FaultMode.subcube(m)


def starts_at_vertex_0(witness) -> bool:
    return not witness.elements or witness.elements[0].base == 0


class TestReference:
    """The plain reference scans, pinned; the oracle's own counts,
    pinned in the classes above, are those of the scan up to
    translation."""

    def test_connectivity(self):
        kappa, witness, scanned = reference_connectivity(3, "structure:1")
        assert (kappa, witness.patterns(), scanned) == (2, ["00*", "11*"], 15)
        kappa, witness, scanned = reference_connectivity(4, "structure:1")
        assert (kappa, witness.patterns(), scanned) == (3, ["000*", "011*", "101*"], 473)

    @pytest.mark.parametrize(
        "n,label,budget,value,patterns,scanned,skipped",
        [
            (3, "structure:1", 1, 3, [], 13, 0),
            (4, "structure:0", 3, 5, ["0000", "0011", "0101"], 697, 0),
            (4, "structure:1", 0, 4, [], 1, 0),
            (3, "structure:1", 2, 3, [], 55, 6),
        ],
    )
    def test_fault_diameter(self, n, label, budget, value, patterns, scanned, skipped):
        got = reference_fault_diameter(n, label, budget)
        assert (got[0], got[1].patterns(), got[2], got[3]) == (value, patterns, scanned, skipped)


class TestTranslationReduction:
    """The oracle scans only families whose first element contains
    vertex 0, and reports the plain reference scan's values and
    witnesses."""

    @staticmethod
    def check_connectivity(n, mode, jobs):
        kappa, witness, scanned = reference_connectivity(n, mode.label)
        res = connectivity_bruteforce(n, mode, jobs=jobs)
        assert (res.kappa, res.witness) == (kappa, witness)
        assert starts_at_vertex_0(res.witness)
        assert res.families_scanned <= scanned
        return kappa

    @staticmethod
    def check_diameter(n, mode, budget):
        value, witness, scanned, skipped = reference_fault_diameter(n, mode.label, budget)
        res = fault_diameter_bruteforce(n, mode, budget)
        assert (res.value, res.witness) == (value, witness)
        assert starts_at_vertex_0(res.witness)
        assert res.families_scanned <= scanned
        assert res.disconnected_skipped <= skipped
        return res

    # connectivity_bruteforce's jobs= is accepted and ignored; this
    # parametrization leaves with it
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("n,label", [(n, m.label) for n in (3, 4) for m in all_modes(n)])
    def test_every_mode_and_budget_at_small_n(self, n, label, jobs):
        mode = FaultMode.from_label(label)
        kappa = self.check_connectivity(n, mode, jobs)
        for budget in range(kappa + 1):
            res = self.check_diameter(n, mode, budget)
            # at budget kappa the disconnecting families are skipped
            assert (res.disconnected_skipped > 0) == (budget == kappa)

    # the reference walks 531,229 families (about 15 s) to find the
    # subcube:2 cut at n = 5, so the other modes check the diameter only;
    # subcube:1 computes as substructure, whose reference takes 5 s
    N5 = [mode.label for mode in all_modes(5) if mode.label != "subcube:1"]

    @pytest.mark.parametrize("label,cut", [(label, label == "structure:1") for label in N5], ids=N5)
    def test_n5(self, label, cut):
        mode = FaultMode.from_label(label)
        kappa = self.check_connectivity(5, mode, 1) if cut else mode.kappa(5)
        res = self.check_diameter(5, mode, kappa - 1)
        if label == "substructure":
            one = fault_diameter_bruteforce(5, FaultMode.subcube(1), kappa - 1)
            assert one.witness.patterns() == res.witness.patterns()
            assert (one.value, one.families_scanned) == (res.value, res.families_scanned)


@lru_cache(maxsize=None)
def lo_masks(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((1 << p, sum(1 << w for w in range(1 << n) if not w >> p & 1)) for p in range(n))


def anchored_statistics(n: int, faults: int) -> tuple[tuple[int, ...], bool, int]:
    """(sizes of the BFS levels from vertex 0, connected, faulty vertices)
    of Q_n minus the vertex set `faults`, which spares vertex 0."""
    left, frontier, sizes = ((1 << (1 << n)) - 2) & ~faults, 1, [1]
    while frontier:
        nxt = 0
        for s, lo in lo_masks(n):
            nxt |= (frontier & lo) << s | (frontier >> s) & lo
        frontier = nxt & left
        left ^= frontier
        sizes.append(frontier.bit_count())
    return tuple(sizes[:-1]), not left, faults.bit_count()


class TestValueWalk:
    """The value walk reduces the families that spare vertex 0 by S_n, the
    coordinate permutations, which keep every statistic of vertex 0.  So
    it attains exactly the statistics of the unreduced walk over those
    families; the value alone (n to n + 2 here) would let a wrong
    reduction pass."""

    @pytest.mark.parametrize(
        "n,label,budget",
        [(n, mode.label, mode.kappa(n)) for n in (3, 4) for mode in all_modes(n)]
        + [(5, "structure:1", 3), (5, "subcube:2", 2)],
    )
    def test_the_reduced_walk_attains_every_statistic(self, n, label, budget):
        mode = FaultMode.from_label(label)
        unreduced = {
            anchored_statistics(n, g.removed_mask)
            for size in range(budget + 1) for family in enumerate_families(n, mode, size)
            if not (g := SurvivalGraph.from_family(family)).removed_mask & 1
        }
        _, masks, prefixes = faults._anchored_walk(faults._space(n, mode), mode, range(1, budget + 1))
        reduced = {anchored_statistics(n, 0)} | {
            anchored_statistics(n, acc) for _, acc in faults._extend(masks, prefixes)
        }
        assert reduced == unreduced


class TestArgumentChecks:
    def test_negative_budget(self):
        with pytest.raises(ValueError):
            fault_diameter_bruteforce(4, FaultMode.structure(1), -1)

    def test_mode_must_fit_the_cube(self):
        with pytest.raises(ValueError):
            connectivity_bruteforce(4, FaultMode.structure(3))


class TestInvariantErrors:
    """With every survivor set reported disconnected, by the row kernel
    (every survivor left unvisited) and by the batch kernel (every set
    bad), a disconnection within the connectivity budget raises in both
    searches and names the caller's mode.  Above it only a sampled search
    can find no diameter: the exhaustive scan keeps the empty family,
    which needs no BFS."""

    @pytest.fixture(autouse=True)
    def disconnect_everything(self, monkeypatch):
        monkeypatch.setattr(oracle, "_row_cover", lambda n, allowed, rows: (0, allowed))
        monkeypatch.setattr(oracle, "_batch_diameter", lambda n, sets: (-1, -1, list(range(len(sets)))))

    def test_disconnection_within_the_connectivity_budget(self):
        messages = []
        for search in (None, SearchSpec.sampled(0, 10)):  # the exhaustive scan, then the sampled one
            with pytest.raises(InvariantViolation) as exc:
                fault_diameter_bruteforce(4, FaultMode.substructure(), 2, search=search)
            messages.append(str(exc.value))
        exhaustive, sampled = messages
        assert exhaustive.endswith("(mode substructure): 0001")  # the value walk's first family
        assert "(mode substructure)" in sampled

    def test_every_family_disconnected(self):
        res = fault_diameter_bruteforce(4, FaultMode.substructure(), 3)
        assert (res.value, res.witness.patterns()) == (4, [])
        assert res.disconnected_skipped == res.families_scanned - 1 > 0
        with pytest.raises(InvariantViolation, match=r"^every family within budget 3 disconnected "
                           r"Q_4 \(mode substructure\); no diameter is defined$"):
            fault_diameter_bruteforce(4, FaultMode.substructure(), 3, SearchSpec.sampled(0, 10))


def test_no_disconnecting_family_up_to_kappa(monkeypatch):
    # a scan that never finds a hit contradicts the proved kappa = n - m
    monkeypatch.setattr(oracle, "_row_scan", lambda *args: (0, 0, 0, None))
    with pytest.raises(InvariantViolation, match=r"^no family of at most kappa = 2 elements "
                       r"disconnects Q_3 under mode structure:1$"):
        connectivity_bruteforce(3, FaultMode.structure(1))
