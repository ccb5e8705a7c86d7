"""Acceptance gate: every headline result at its stated tolerance.

Each test runs one acceptance criterion end to end, records a PASS or
FAIL line for the terminal summary, and asserts exact equality (or the
stated bound).  Oracle scans are shared with the claim catalog's cache,
so the whole gate stays within a desk-scale runtime budget.
"""

from __future__ import annotations

import random
import time
import zlib

from cube_faultlab import (
    FaultMode,
    SurvivalGraph,
    Vertex,
    bfs_distance,
    route_bound,
    route_with_report,
    sample_families,
    verify_claims,
)

ROUTER_CASES = 10_000


def run_claims(ids):
    results = verify_claims(ids)
    failed = [r for r in results if not r.passed]
    detail = "; ".join(
        f"{r.claim_id}: expected {r.expected}, computed {r.computed}"
        for r in failed
    )
    return results, failed, detail


def test_criterion_1_connectivity_values(criterion):
    """kappa = kappa^sc = n-m on six (n, m) pairs and kappa^s = n-1 for
    n = 3..5, all by exhaustive scan, within a five minute budget."""
    ids = [
        "lem2.3(n=3)", "lem2.3(n=4)", "lem2.3(n=5)",
        "lem2.4(n=3,m=1)", "lem2.4(n=4,m=1)", "lem2.4(n=4,m=2)",
        "lem2.4(n=5,m=1)", "lem2.4(n=5,m=2)", "lem2.4(n=5,m=3)",
    ]
    t0 = time.perf_counter()
    results, failed, detail = run_claims(ids)
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 300
    criterion(
        "1. connectivity values",
        ok,
        detail or f"{len(results)} configs exact in {elapsed:.1f}s",
    )
    assert not failed, detail
    assert elapsed < 300, f"connectivity suite took {elapsed:.0f}s"


def test_criterion_2_q1_fault_diameters(criterion):
    """Exhaustive fault diameters under Q_1 faults: 3 for Q_3
    substructure, 5 for Q_4 both ways, 6 for Q_5 structure."""
    ids = ["thm3.3", "thm3.7(n=4)", "thm3.26(n=5,m=1)"]
    t0 = time.perf_counter()
    results, failed, detail = run_claims(ids)
    elapsed = time.perf_counter() - t0
    criterion(
        "2. Q_1 fault diameters",
        not failed,
        detail or f"3, 5, 5, 6 exact in {elapsed:.1f}s",
    )
    assert not failed, detail


def test_criterion_3_qm_fault_diameters(criterion):
    """Exhaustive fault diameters under Q_m faults for m >= 2, both the
    structure and the subcube variants."""
    ids = [
        "thm3.26(n=4,m=2)", "thm3.26(n=5,m=3)", "thm3.26(n=5,m=2)",
        "thm3.20(m=2)", "thm3.25(n=5,m=2)",
    ]
    results, failed, detail = run_claims(ids)
    criterion(
        "3. Q_m fault diameters",
        not failed,
        detail or "4, 5, 6, 4, 6 exact",
    )
    assert not failed, detail


def test_criterion_4_adversarial_tightness(criterion):
    """The constructed families attain the bounds: diameter n+1 for the
    pinned-edge family (n = 4..8) and a forced n+1 step route for the
    blocking subcube family on five (n, m) pairs."""
    ids = [f"lem3.4(n={n})" for n in range(4, 9)] + [
        "lem3.24(n=4,m=1)", "lem3.24(n=5,m=1)", "lem3.24(n=5,m=2)",
        "lem3.24(n=6,m=2)", "lem3.24(n=6,m=3)",
    ]
    results, failed, detail = run_claims(ids)
    criterion(
        "4. adversarial tightness",
        not failed,
        detail or f"{len(results)} families attain their bounds",
    )
    assert not failed, detail


def test_criterion_5_classical_baselines(criterion):
    """Vertex-fault baselines, exhaustively: worst diameter n+1 at
    budget n-1, exactly n for any <= n-2 removals, and no connected
    sub-half removal shrinks the diameter below n."""
    ids = [
        "lem2.2(n=3)", "lem2.2(n=4)",
        "lem3.2(n=3)", "lem3.2(n=4)",
        "lem2.7(n=3)",
    ]
    results, failed, detail = run_claims(ids)
    criterion(
        "5. classical baselines",
        not failed,
        detail or "vertex-fault facts exact for n = 3, 4",
    )
    assert not failed, detail


def router_configurations():
    for n in (4, 5, 6):
        yield n, FaultMode.substructure()
        for m in range(0, n - 1):
            yield n, FaultMode.structure(m)
        for m in range(1, n - 1):
            yield n, FaultMode.subcube(m)


def test_criterion_6_router_property_suite(criterion):
    """Across every (n, mode) configuration at n = 4, 5, 6 and full
    budget kappa-1: seeded random families and survivor pairs, the
    guided route is always fault-free, within the guaranteed bound, and
    never shorter than the true distance.  The BFS fallback rate is
    reported but not thresholded."""
    configs = list(router_configurations())
    assert len(configs) == 24
    violations = []
    fallbacks = 0
    routes = 0
    t0 = time.perf_counter()
    for n, mode in configs:
        rng = random.Random(7_000 + 13 * n + zlib.crc32(mode.label.encode()) % 1_000)
        budget = mode.kappa(n) - 1
        bound = route_bound(n, mode)
        families = sample_families(
            n, mode, budget, ROUTER_CASES, seed=rng.randrange(1 << 30)
        )
        for fam in families:
            g = SurvivalGraph.from_family(fam)
            removed = g.removed_mask
            full = 1 << n
            while True:
                ub = rng.randrange(full)
                if not (removed >> ub) & 1:
                    break
            while True:
                vb = rng.randrange(full)
                if vb != ub and not (removed >> vb) & 1:
                    break
            u, v = Vertex(ub, n), Vertex(vb, n)
            report = route_with_report(u, v, fam)
            routes += 1
            fallbacks += report.fallbacks
            path = report.path
            problems = []
            if path.vertices[0] != u or path.vertices[-1] != v:
                problems.append("endpoints")
            if any((removed >> w.bits) & 1 for w in path.vertices):
                problems.append("fault hit")
            if report.length > bound:
                problems.append(f"length {report.length} > bound {bound}")
            true_d = bfs_distance(g, u, v)
            if true_d is None or report.length < true_d:
                problems.append("shorter than the true distance")
            if problems:
                violations.append((n, mode.label, fam.patterns(), u.pattern, v.pattern, problems))
    elapsed = time.perf_counter() - t0
    rate = fallbacks / routes
    ok = not violations
    criterion(
        "6. router property suite",
        ok,
        f"{routes} routes over {len(configs)} configs, "
        f"{len(violations)} violations, fallback rate {rate:.4f}, {elapsed:.1f}s",
    )
    assert ok, violations[:5]


def test_criterion_7_structural_lemma_suite(criterion):
    """Common-neighbor counts, subcube closure, and the safe crossing
    coordinate: exhaustive at every n, zero violations allowed."""
    ids = [
        "lem2.5(n=3)", "lem2.5(n=4)", "lem2.5(n=5)", "lem2.5(n=6)",
        "cor2.6(n=3)", "cor2.6(n=4)", "cor2.6(n=5)", "cor2.6(n=6)",
        "lem3.1(n=5)", "lem3.1(n=6)",
    ]
    results, failed, detail = run_claims(ids)
    criterion(
        "7. structural lemma suite",
        not failed,
        detail or "0 violations across exhaustive sweeps",
    )
    assert not failed, detail
