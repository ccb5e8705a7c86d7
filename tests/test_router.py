"""Guided routing: bounds, crossing dimensions, path validity."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from cube_faultlab import (
    FaultFamily,
    FaultMode,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    guided_route,
    pick_crossing_dimension,
    route_bound,
    route_with_report,
    sample_families,
)


class TestRouteBound:
    @pytest.mark.parametrize(
        "n,label,bound",
        [
            (3, "substructure", 3),
            (4, "substructure", 5),
            (5, "substructure", 6),
            (3, "structure:0", 4),
            (4, "structure:0", 5),
            (3, "structure:1", 3),
            (4, "structure:1", 5),
            (4, "structure:2", 4),
            (5, "structure:3", 5),
            (5, "structure:2", 6),
            (4, "subcube:2", 4),
            (5, "subcube:2", 6),
            (5, "subcube:1", 6),
        ],
    )
    def test_closed_forms(self, n, label, bound):
        assert route_bound(n, FaultMode.from_label(label)) == bound


class TestPickCrossingDimension:
    def test_fault_free_picks_the_first_coordinate(self):
        u = Vertex.from_pattern("0000")
        v = Vertex.from_pattern("1111")
        fam = FaultFamily((), FaultMode.structure(0), 4)
        assert pick_crossing_dimension(u, v, fam) == 1

    def test_blocked_low_coordinates_push_the_choice_up(self):
        # vertex faults at (u)^i and (v)^i for i = 1..5 force j = 6
        n = 6
        u = Vertex(0, n)
        v = Vertex((1 << n) - 1, n)
        elems = []
        for i in range(1, n):
            elems.append(f"{'0' * (i - 1)}1{'0' * (n - i)}")
            elems.append(f"{'1' * (i - 1)}0{'1' * (n - i)}")
        fam = FaultFamily.from_patterns(elems[: n - 1], FaultMode.structure(0), n)
        j = pick_crossing_dimension(u, v, fam)
        assert j >= 2
        removed = SurvivalGraph.from_family(fam).removed
        for w in (u.bits ^ (1 << (n - j)), v.bits ^ (1 << (n - j))):
            assert w not in removed

    def test_requires_a_symmetric_pair(self):
        fam = FaultFamily((), FaultMode.structure(0), 4)
        with pytest.raises(ValueError):
            pick_crossing_dimension(
                Vertex.from_pattern("0000"), Vertex.from_pattern("0111"), fam
            )

    def test_requires_room_in_the_family(self):
        fam = adversarial_subcube_family(5, 2)
        # dim 2 = n-3 and size 2 <= n-1, fine
        j = pick_crossing_dimension(
            Vertex.from_pattern("00000"), Vertex.from_pattern("11111"), fam
        )
        assert 1 <= j <= 5
        big = FaultFamily.from_patterns(["0***0"], FaultMode.subcube(3), 5)
        with pytest.raises(ValueError):
            pick_crossing_dimension(
                Vertex.from_pattern("00001"), Vertex.from_pattern("11110"), big
            )


def assert_route_ok(u, v, fam, bound):
    path = guided_route(u, v, fam)
    assert path.vertices[0] == u and path.vertices[-1] == v
    g = SurvivalGraph.from_family(fam)
    assert not any(w.bits in g.removed for w in path.vertices)
    assert path.length <= bound
    assert path.length >= bfs_distance(g, u, v)
    return path


class TestGuidedRoute:
    def test_fault_free_routes_are_shortest(self):
        fam = FaultFamily((), FaultMode.structure(0), 5)
        u = Vertex.from_pattern("01001")
        v = Vertex.from_pattern("11100")
        path = guided_route(u, v, fam)
        assert path.length == 3

    def test_q4_pinned_edge_worst_case(self):
        fam = adversarial_q1_family(4)
        u = Vertex.from_pattern("0000")
        v = Vertex.from_pattern("1110")
        path = assert_route_ok(u, v, fam, route_bound(4, fam.mode))
        assert path.length == 5

    def test_q5_blocking_family_worst_case(self):
        fam = adversarial_subcube_family(5, 2)
        u = Vertex.from_pattern("00000")
        v = Vertex.from_pattern("11110")
        path = assert_route_ok(u, v, fam, route_bound(5, fam.mode))
        assert path.length == 6

    def test_single_fault_stays_within_n(self):
        # one Q_2 fault in Q_4: every survivor pair routes in <= 4 steps
        fam = FaultFamily.from_patterns(["1**0"], FaultMode.structure(2), 4)
        g = SurvivalGraph.from_family(fam)
        survivors = [Vertex(b, 4) for b in range(16) if b not in g.removed]
        for u, v in itertools.combinations(survivors, 2):
            path = assert_route_ok(u, v, fam, 4)

    def test_report_carries_the_certificate(self):
        fam = adversarial_q1_family(4)
        rep = route_with_report(
            Vertex.from_pattern("0000"), Vertex.from_pattern("1110"), fam
        )
        assert rep.bound.bound == 5
        assert rep.bound.mode == fam.mode
        assert rep.length == 5
        assert rep.fallbacks == 0

    def test_over_budget_family_rejected(self):
        fam = FaultFamily.from_patterns(["00*", "11*"], FaultMode.structure(1), 3)
        with pytest.raises(ValueError):
            guided_route(Vertex.from_pattern("010"), Vertex.from_pattern("101"), fam)

    def test_removed_endpoint_rejected(self):
        fam = adversarial_q1_family(4)
        with pytest.raises(ValueError):
            guided_route(Vertex.from_pattern("0100"), Vertex.from_pattern("1111"), fam)

    def test_endpoints_must_share_the_ambient_cube(self):
        fam = adversarial_q1_family(4)
        with pytest.raises(ValueError):
            guided_route(Vertex.from_pattern("000"), Vertex.from_pattern("1111"), fam)


def mode_sweep(n):
    yield FaultMode.substructure()
    for m in range(0, n - 1):
        yield FaultMode.structure(m)
    for m in range(1, n - 1):
        yield FaultMode.subcube(m)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_randomized_sweep_meets_bounds(n):
    rng = random.Random(1000 + n)
    for mode in mode_sweep(n):
        budget = mode.kappa(n) - 1
        bound = route_bound(n, mode)
        for fam in sample_families(n, mode, budget, 40, seed=rng.randrange(1 << 30)):
            g = SurvivalGraph.from_family(fam)
            survivors = [Vertex(b, n) for b in range(1 << n) if b not in g.removed]
            u, v = rng.sample(survivors, 2)
            assert_route_ok(u, v, fam, bound)


ROUTES = Path(__file__).resolve().parent / "data" / "routes.json"
PINNED_DIMS = (6, 10, 16, 30)
PINNED_FAMILIES = 2  # sampled families per (n, mode)
PINNED_PAIRS = 2  # uniform and antipodal pairs per family, each


def pinned_families():
    """(n, source, family, extremal) for the pinned route records: sampled
    families at full budget for five modes per n, then both extremal
    families."""
    for n in PINNED_DIMS:
        for label in ("structure:0", "structure:1", "substructure", "subcube:2", f"structure:{n - 3}"):
            mode = FaultMode.from_label(label)
            for fam in sample_families(n, mode, mode.kappa(n) - 1, PINNED_FAMILIES, seed=700 + n):
                yield n, label, fam, False
        yield n, "adversarial:q1", adversarial_q1_family(n), True
        yield n, "adversarial:subcube:2", adversarial_subcube_family(n, 2), True


def pinned_pairs(fam, extremal, rng):
    """Seeded survivor pairs of one family: uniform, then antipodal, then
    (extremal families only) the far corners 0...0 and 1...10 both ways."""
    n = fam.ambient
    full = (1 << n) - 1

    def survivor():
        while True:
            x = rng.getrandbits(n)
            if not any(s.contains(x) for s in fam.elements):
                return x

    pairs = []
    while len(pairs) < PINNED_PAIRS:
        u, v = survivor(), survivor()
        if u != v:
            pairs.append(("uniform", u, v))
    while len(pairs) < 2 * PINNED_PAIRS:
        u = survivor()
        if not any(s.contains(u ^ full) for s in fam.elements):
            pairs.append(("antipodal", u, u ^ full))
    if extremal:
        pairs += [("far", 0, full ^ 1), ("far", full ^ 1, 0)]
    return pairs


def route_records():
    """One record per pinned route: family, pair, routed labels, fallbacks."""
    rng = random.Random(2024)
    records = []
    for n, source, fam, extremal in pinned_families():
        for kind, u, v in pinned_pairs(fam, extremal, rng):
            rep = route_with_report(Vertex(u, n), Vertex(v, n), fam)
            records.append({
                "n": n,
                "source": source,
                "family": fam.patterns(),
                "kind": kind,
                "u": u,
                "v": v,
                "labels": [x.bits for x in rep.path.vertices],
                "fallbacks": rep.fallbacks,
            })
    return records


def routes_text(records):
    """The records as JSON, one record per line."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def test_routes_match_the_pinned_records():
    """The sampled families, their seeded survivor pairs, every routed label
    and the fallback count, as recorded in tests/data/routes.json.  After a
    deliberate router change, regenerate it with
    `PYTHONPATH=src python tests/test_router.py`."""
    records = route_records()
    assert len(records) == 4 * (5 * PINNED_FAMILIES + 2) * 2 * PINNED_PAIRS + 4 * 2 * 2
    assert routes_text(records) == ROUTES.read_text()


if __name__ == "__main__":
    ROUTES.write_text(routes_text(route_records()))
