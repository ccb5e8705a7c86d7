"""Guided routing: bounds, crossings, path validity."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from cube_faultlab import (
    FaultFamily,
    FaultMode,
    InvariantViolation,
    Subcube,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    enumerate_families,
    route_bound,
    route_with_report,
    sample_families,
)
from cube_faultlab import core, router


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

    def test_every_valid_pair_up_to_n30(self):
        """The proved fault diameter, n when the element dimension is
        n - 2 and n + 1 otherwise, for every mode valid in Q_n."""
        checked = 0
        for n in range(2, 31):
            modes = [FaultMode.structure(m) for m in range(n - 1)]
            modes += [FaultMode.subcube(m) for m in range(1, n - 1)]
            modes += [FaultMode.substructure()] if n >= 3 else []
            for mode in modes:
                m = mode.max_element_dim
                assert route_bound(n, mode) == (n if n == m + 2 else n + 1), (n, mode.label)
                checked += 1
        assert checked == 435 + 406 + 28  # structure, subcube, substructure


def assert_route_ok(u, v, fam, bound):
    path = route_with_report(u, v, fam).path
    assert path.vertices[0] == u and path.vertices[-1] == v
    g = SurvivalGraph.from_family(fam)
    assert not any(g.removed_mask >> w.bits & 1 for w in path.vertices)
    assert path.length <= bound
    assert path.length >= bfs_distance(g, u, v)
    return path


class TestGuidedRoute:
    def test_fault_free_routes_are_shortest(self):
        fam = FaultFamily((), FaultMode.structure(0), 5)
        u = Vertex.from_pattern("01001")
        v = Vertex.from_pattern("11100")
        path = route_with_report(u, v, fam).path
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
        survivors = [Vertex(b, 4) for b in range(16) if g.survivor_mask >> b & 1]
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

    @pytest.mark.parametrize(
        "fam", [adversarial_q1_family(5), adversarial_subcube_family(5, 2)], ids=["q1", "subcube"]
    )
    def test_a_vertex_routes_to_itself(self, fam):
        u = Vertex.from_pattern("11111")
        rep = route_with_report(u, u, fam)
        assert rep.path.labels == (u.bits,)
        assert rep.length == 0 and rep.fallbacks == 0

    def test_over_budget_family_rejected(self):
        fam = FaultFamily.from_patterns(["00*", "11*"], FaultMode.structure(1), 3)
        with pytest.raises(ValueError):
            route_with_report(Vertex.from_pattern("010"), Vertex.from_pattern("101"), fam)

    def test_removed_endpoint_rejected(self):
        fam = adversarial_q1_family(4)
        with pytest.raises(ValueError):
            route_with_report(Vertex.from_pattern("0100"), Vertex.from_pattern("1111"), fam)

    def test_endpoints_must_share_the_ambient_cube(self):
        fam = adversarial_q1_family(4)
        with pytest.raises(ValueError):
            route_with_report(Vertex.from_pattern("000"), Vertex.from_pattern("1111"), fam)


class TestSafetyNets:
    """The paths the bound proofs rule out, reached by patching the router."""

    @pytest.mark.parametrize("to", ["11110", "11111"], ids=["symmetric", "unsymmetric"])
    def test_the_bfs_fallback_is_shortest_and_counted(self, monkeypatch, to):
        # no child context affords its target, so both cases fall back
        monkeypatch.setattr(router, "_affords", lambda *args: False)
        fam = adversarial_subcube_family(5, 2)
        u, v = Vertex.from_pattern("00001"), Vertex.from_pattern(to)
        rep = route_with_report(u, v, fam)
        assert rep.fallbacks >= 1
        assert rep.length <= rep.bound.bound
        assert rep.length == bfs_distance(SurvivalGraph.from_family(fam), u, v)

    def test_a_disconnected_context_raises(self, monkeypatch):
        monkeypatch.setattr(router, "_bfs_route", lambda *args: None)
        fam = adversarial_q1_family(4)
        with pytest.raises(InvariantViolation, match="disconnected a routing context"):
            route_with_report(Vertex.from_pattern("0000"), Vertex.from_pattern("1110"), fam)

    def test_the_bfs_finds_no_route_to_a_walled_off_target(self):
        # 111's three neighbours are faulty vertices of Q_3
        walls = [(0, 0b011), (0, 0b101), (0, 0b110)]
        assert router._bfs_route(0b111, 0b000, 0b111, walls) is None


class TestUnreachedInvariants:
    """The router's other InvariantViolations, reached by patching or by a
    direct call: no in-budget family reaches them."""

    def test_an_element_filling_its_context(self):
        ctx_free = 0b00111  # the element 11***'s free mask is the whole context
        with pytest.raises(InvariantViolation, match="^fault element fills its routing context$"):
            router._Router()._route_single(ctx_free, 0b11000, 0b11111, [(ctx_free, 0b11000)], 3)

    def test_no_safe_crossing_for_a_symmetric_pair(self, monkeypatch):
        monkeypatch.setattr(router, "_safe_crossing", lambda *args: None)
        fam = adversarial_subcube_family(5, 2)
        with pytest.raises(InvariantViolation, match="^no safe crossing coordinate exists for "
                           "a symmetric pair within budget; this contradicts the crossing lemma$"):
            route_with_report(Vertex.from_pattern("00001"), Vertex.from_pattern("11110"), fam)

    def test_no_safe_crossing_when_every_flip_is_blocked(self):
        # in Q_2, 01 and 10 are faulty: every flip of 00 or 11 meets one
        assert router._safe_crossing(0b11, 0b00, 0b11, [(0, 0b01), (0, 0b10)]) is None


class TestPostRouteChecks:
    """route_with_report certifies what the recursion returns: each test
    makes _Router.route return labels that break exactly one check."""

    # one faulty vertex 00011 in Q_5; route 00000 -> 00111, bound 6
    FAMILY = FaultFamily.from_patterns(["00011"], FaultMode.structure(0), 5)
    U, V = Vertex.from_pattern("00000"), Vertex.from_pattern("00111")

    def route(self, monkeypatch, labels):
        monkeypatch.setattr(router._Router, "route", lambda self, *args: list(labels))
        return route_with_report(self.U, self.V, self.FAMILY)

    def test_the_family_allows_a_clean_route(self, monkeypatch):
        rep = self.route(monkeypatch, [0b00000, 0b00001, 0b00101, 0b00111])
        assert rep.path.labels == (0, 1, 5, 7) and rep.bound.bound == 6

    def test_wrong_endpoint(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="does not connect"):
            self.route(monkeypatch, [0b00000, 0b00001])

    def test_faulty_label(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="touches the faulty vertex 00011$"):
            self.route(monkeypatch, [0b00000, 0b00001, 0b00011, 0b00111])

    def test_longer_than_the_bound(self, monkeypatch):
        walk = [0b00000, 0b10000] * 3 + [0b00000, 0b00001, 0b00101, 0b00111]
        with pytest.raises(InvariantViolation, match="length 9, above the bound 6"):
            self.route(monkeypatch, walk)

    def test_non_adjacent_pair(self, monkeypatch):
        with pytest.raises(ValueError, match="must be adjacent: 00000 -> 00111"):
            self.route(monkeypatch, [0b00000, 0b00111])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_faulty_label_table_matches_the_elements(n):
    """FaultFamily._groups, as the router reads it, marks exactly the
    labels inside some element, on both sides of the vertex-expansion
    threshold (elements of at most n vertices)."""
    rng = random.Random(n)
    labels = range(1 << n)
    for mode in mode_sweep(n):
        for size in {1, mode.kappa(n) - 1}:
            for fam in sample_families(n, mode, size, 5, seed=rng.randrange(1 << 30)):
                faulty = [x for x in labels if any(s.contains(x) for s in fam.elements)]
                clean = sorted(set(labels) - set(faulty))
                got = [x for x in labels if router._first_faulty((x,), fam._groups) is not None]
                assert got == faulty
                assert router._first_faulty(clean, fam._groups) is None
                if faulty:
                    walk = clean[:3] + faulty[::-1]
                    assert router._first_faulty(walk, fam._groups) == faulty[-1]


def test_routing_builds_no_vertex(monkeypatch):
    """route_with_report certifies on int labels; Path.vertices is built
    only on access."""
    n = 30
    fams = [adversarial_q1_family(n), adversarial_subcube_family(n, 2)]
    fams += sample_families(n, FaultMode.structure(1), n - 2, 2, seed=5)
    far = Vertex(((1 << n) - 1) ^ 1, n)
    pairs = [(Vertex(0, n), far), (far, Vertex(0, n)), (Vertex(1 << 20, n), Vertex(7, n))]
    built = []
    post_init = core.Vertex.__post_init__

    def counting(self):
        built.append(self.bits)
        post_init(self)

    monkeypatch.setattr(core.Vertex, "__post_init__", counting)
    reports = []
    for fam in fams:
        for u, v in pairs:
            if not any(s.contains(u) or s.contains(v) for s in fam.elements):
                reports.append(route_with_report(u, v, fam))
    assert len(reports) >= 6 and built == []
    path = reports[0].path
    assert [v.bits for v in path.vertices] == list(path.labels) == built  # the patch counts


def test_a_route_evaluates_kappa_once(monkeypatch):
    """The size budget and the certified bound of one route both come
    from a single FaultMode.kappa call."""
    n = 6
    fam = adversarial_q1_family(n)
    calls = []
    kappa = FaultMode.kappa

    def counting(self, k):
        calls.append(k)
        return kappa(self, k)

    monkeypatch.setattr(FaultMode, "kappa", counting)
    rep = route_with_report(Vertex(0, n), Vertex(((1 << n) - 1) ^ 1, n), fam)
    assert calls == [n]
    assert rep.bound == router.RouteBound(n, fam.mode, route_bound(n, fam.mode)) and rep.length <= n + 1


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
            survivors = [Vertex(b, n) for b in range(1 << n) if g.survivor_mask >> b & 1]
            u, v = rng.sample(survivors, 2)
            assert_route_ok(u, v, fam, bound)


def sorted_split(faults, p, side):
    """Reference split: the pairs meeting the half, projected, sorted."""
    bit = 1 << p
    half = bit if side else 0
    keep = []
    for fr, ba in faults:
        if fr & bit:
            keep.append((fr ^ bit, ba | half))
        elif ba & bit == half:
            keep.append((fr, ba))
    keep.sort()
    return keep


def pass_target(k, faults):
    """Reference target: one pass over the faults, None over budget."""
    if not faults:
        return k
    t = len(faults)
    md = max(fr.bit_count() for fr, _ in faults)
    if md > k - 2 or t > k - md - 1:
        return None
    return k if t <= 1 or t <= k - md - 2 else k + 1


def split_families():
    """Every family of every mode at n <= 4, sizes 0..kappa (one past the
    budget), then seeded families of every mode at n = 5..10."""
    for n in (3, 4):
        for mode in mode_sweep(n):
            for size in range(mode.kappa(n) + 1):
                yield from enumerate_families(n, mode, size)
    for n in range(5, 11):
        for mode in mode_sweep(n):
            for size in sorted({1, mode.kappa(n) - 1}):
                yield from sample_families(n, mode, size, 3, seed=700 + n)


def test_the_split_and_the_target_match_their_references():
    """_half_faults keeps the reference split's pairs, in any order, and
    returns their largest dimension; _target on those counts is the
    reference target, with 0 for None."""
    families = 0
    for fam in split_families():
        n, faults = fam.ambient, fam._pairs
        md = max((fr.bit_count() for fr, _ in faults), default=0)
        assert router._target(n, len(faults), md) == (pass_target(n, faults) or 0)
        for p in range(n):
            for side in (0, 1):
                kids, kid_md = router._half_faults(faults, p, side)
                want = sorted_split(faults, p, side)
                assert sorted(kids) == want
                assert kid_md == max((fr.bit_count() for fr, _ in want), default=0)
                assert router._target(n - 1, len(kids), kid_md) == (pass_target(n - 1, want) or 0)
        families += 1
    assert families > 30_000


def translated(fam, b):
    """The family moved by XOR with b, an automorphism of Q_n."""
    n = fam.ambient
    elems = tuple(Subcube(s.free_mask, s.base ^ (b & ~s.free_mask), n) for s in fam.elements)
    return FaultFamily(elems, fam.mode, n)


def equivariance_families():
    """Every in-budget family at n = 5 under structure:2 and structure:3,
    then seeded full-budget families of every mode at n = 6 and 8."""
    for label in ("structure:2", "structure:3"):
        mode = FaultMode.from_label(label)
        for size in range(mode.kappa(5)):
            yield from enumerate_families(5, mode, size)
    for n in (6, 8):
        for mode in mode_sweep(n):
            yield from sample_families(n, mode, mode.kappa(n) - 1, 10, seed=900 + n)


def test_routing_is_translation_equivariant():
    """route(u^b, v^b, F^b) is route(u, v, F) with every label XOR b, with
    the same fallbacks: the router breaks ties by coordinate, never by
    label value."""
    rng = random.Random(77)
    checked = 0
    for fam in equivariance_families():
        n = fam.ambient
        alive = SurvivalGraph.from_family(fam).survivor_mask
        u, v = rng.sample([x for x in range(1 << n) if alive >> x & 1], 2)
        b = rng.getrandbits(n)
        rep = route_with_report(Vertex(u, n), Vertex(v, n), fam)
        moved = route_with_report(Vertex(u ^ b, n), Vertex(v ^ b, n), translated(fam, b))
        assert moved.path.labels == tuple(x ^ b for x in rep.path.labels), (fam.patterns(), u, v, b)
        assert moved.fallbacks == rep.fallbacks
        checked += 1
    assert checked == 2562


@pytest.mark.parametrize("label,families,routes", [
    ("structure:2", 1721, 39871),
    ("structure:3", 31, 721),
])
def test_every_route_from_vertex_0_at_n5_meets_the_bound(label, families, routes):
    """Route (0, v) for every in-budget family that spares vertex 0 and
    every other survivor v.  Routing is translation-equivariant (see
    test_routing_is_translation_equivariant), so this covers every pair
    of every in-budget family of Q_5; the worst length is the bound."""
    n, mode = 5, FaultMode.from_label(label)
    seen = routed = worst = fallbacks = 0
    for size in range(mode.kappa(n)):
        for fam in enumerate_families(n, mode, size):
            alive = SurvivalGraph.from_family(fam).survivor_mask
            if not alive & 1:
                continue
            seen += 1
            for v in range(1, 1 << n):
                if alive >> v & 1:
                    rep = route_with_report(Vertex(0, n), Vertex(v, n), fam)
                    routed += 1
                    worst = max(worst, rep.length)
                    fallbacks += rep.fallbacks
    assert (seen, routed, worst, fallbacks) == (families, routes, route_bound(n, mode), 0)


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
                "labels": list(rep.path.labels),
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
