"""Catalog of verifiable claims about fault-tolerant hypercube structure.

Each claim pairs a published-value statement (a connectivity, a fault
diameter, an extremal family's behavior, or a structural property used
by the router) with a desk-scale check that recomputes it from scratch
through the brute-force oracle, the metrics engine, or direct
enumeration.  Claim ids follow the package's claim catalog numbering
(lem/thm prefix plus instance parameters), e.g. "lem2.4(n=5,m=3)" or
"thm3.3"; the verify CLI subcommand accepts these ids.

Each verify_claims call hands one dict of oracle results, keyed by
(n, admitted element dimensions, budget or None), to every claim's run,
so claims that share a scan (several theorems constrain the same sweep,
and substructure admits subcube:1's elements) pay for it once per call.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .core import Subcube, Vertex, _common_neighbor_bits, _ElementSpace, _submasks
from .faults import (
    FaultFamily,
    FaultMode,
    _admitted,
    adversarial_q1_family,
    adversarial_subcube_family,
    restrict_along,
    validate_family,
)
from .metrics import SurvivalGraph, bfs_distance, component_of, diameter, is_connected
from .oracle import connectivity_bruteforce, fault_diameter_bruteforce


def _scan(memo: dict, n: int, label: str, budget: int | None = None):
    """The connectivity of Q_n under the mode, or with a budget its fault
    diameter, once per memo and element space (faults._admitted).  The
    oracles are looked up here at call time, so a wrapper sees every scan."""
    mode = FaultMode.from_label(label)
    key = (n, _admitted(n, mode), budget)
    if key not in memo:
        memo[key] = (connectivity_bruteforce(n, mode) if budget is None
                     else fault_diameter_bruteforce(n, mode, budget))
    return memo[key]


@dataclass
class Claim:
    """A catalog entry.  run(memo) recomputes it and returns (expected,
    computed, ok, witness): each check states the value it expects.
    `memo` holds the oracle results of the current verify_claims call."""

    claim_id: str
    params: dict
    statement: str
    run: Callable[[dict], tuple[str, str, bool, list[str]]]


@dataclass(frozen=True)
class ClaimResult:
    """One claim's verdict.  `seconds` is the wall time of this claim's
    own run; a claim whose scans earlier claims of the same call all ran
    reports about 0 s, so it does not measure the claim's cost."""

    claim_id: str
    params: dict
    statement: str
    expected: str
    computed: str
    status: str
    witness: tuple[str, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_record(self) -> dict:
        return {
            "claim": self.claim_id,
            "params": dict(self.params),
            "statement": self.statement,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "witness": list(self.witness),
            "seconds": round(self.seconds, 3),
        }


# ---------------------------------------------------------------------------
# individual checks


def _check_two_scans(
    memo: dict, n: int, expected: int, labels: tuple[str, str], names: tuple[str, str],
    budget: int | None = None,
):
    """The connectivity scans of Q_n under two modes, or with a budget
    their fault-diameter scans, agree and equal `expected`.  The witness
    is the first mode's."""
    ra, rb = (_scan(memo, n, label, budget) for label in labels)
    a, b = (ra.kappa, rb.kappa) if budget is None else (ra.value, rb.value)
    computed = str(a) if a == b else f"{names[0]}={a}, {names[1]}={b}"
    return str(expected), computed, a == b == expected, ra.witness.patterns()


def _check_fd(memo: dict, n: int, label: str, budget: int, expected: int, at_most: bool = False):
    r = _scan(memo, n, label, budget)
    if at_most:
        return f"<= {expected}", str(r.value), r.value <= expected, r.witness.patterns()
    return str(expected), str(r.value), r.value == expected, r.witness.patterns()


def _violations(bad: int, witness: list[str]):
    """The verdict of a counting check, which expects no violations."""
    return "0 violations", f"{bad} violations", bad == 0, witness


def _check_common_neighbors(n: int):
    """Distinct vertices have 2 common neighbors at Hamming distance 2
    and none otherwise: two distinct labels, each adjacent to both ends.
    Walks label pairs through core._common_neighbor_bits; one violation
    per failing pair of labels."""
    bad = 0
    witness: list[str] = []
    for ub, vb in combinations(range(1 << n), 2):
        got = _common_neighbor_bits(ub, vb)
        want = 2 if (ub ^ vb).bit_count() == 2 else 0
        if not (len(got) == len(set(got)) == want
                and all((w ^ ub).bit_count() == (w ^ vb).bit_count() == 1 for w in got)):
            bad += 1
            witness = witness or [Vertex(ub, n).pattern, Vertex(vb, n).pattern]
    return _violations(bad, witness)


def _check_subcube_closure(n: int):
    """Common neighbors of two vertices of a subcube lie in the subcube.
    Every subcube of dimension >= 1 as (free, base) ints and every pair
    of its vertex labels, walked through core._common_neighbor_bits, w
    inside when w & ~free == base; one violation per failing subcube,
    witnessed by its first failing pair."""
    bad = 0
    witness: list[str] = []
    for k in range(1, n + 1):
        for free, base in _ElementSpace(n, (k,)).pairs():
            for ub, vb in combinations(map(base.__or__, _submasks(free)), 2):
                for w in _common_neighbor_bits(ub, vb):
                    if w & ~free != base:
                        break
                else:
                    continue
                bad += 1
                witness = witness or [Subcube(free, base, n).pattern, f"{ub:0{n}b}", f"{vb:0{n}b}"]
                break
    return _violations(bad, witness)


def _removal_diameters(n: int, top: int):
    """Removals of at most `top` labels of Q_n, sizes ascending, each size in
    combinations order: their patterns and survivor diameter (None: cut)."""
    for size in range(top + 1):
        for removed in combinations(range(1 << n), size):
            d = diameter(SurvivalGraph(n, removed))
            yield [Vertex(w, n).pattern for w in removed], d


def _check_connected_removal_diameter(n: int):
    """Removals of fewer than half the vertices keep the diameter >= n."""
    worst = None
    witness: list[str] = []
    for removed, d in _removal_diameters(n, (1 << (n - 1)) - 1):
        if d is not None and (worst is None or d < worst):
            worst, witness = d, removed
    assert worst is not None
    return f">= {n}", str(worst), worst >= n, witness


def _check_small_removal_diameter(n: int):
    """Any <= n-2 vertex faults leave the diameter exactly n."""
    lo, hi = None, None
    witness: list[str] = []
    for removed, d in _removal_diameters(n, n - 2):
        if d is None:
            return str(n), "disconnected", False, removed
        if hi is None or d > hi:
            hi, witness = d, removed
        lo = d if lo is None else min(lo, d)
    computed = str(lo) if lo == hi else f"min={lo}, max={hi}"
    return str(n), computed, lo == hi == n, witness


def _check_crossing_dimension(n: int, max_dim: int):
    """Symmetric pairs keep a safe crossing coordinate under n-1 faults of
    dimension <= max_dim.  Translating u to 0 makes the pair (0, 1^n),
    whose coordinate j is blocked when e_j or 1^n ^ e_j lies in a fault
    (free, base), that is w & ~free == base.  If every element missing
    both ends blocks at most one, n-1 of them leave one free (pigeonhole);
    one violation per element blocking two or more, witnessed by the first."""
    full = (1 << n) - 1
    bad = 0
    witness: list[str] = []
    for k in range(max_dim + 1):
        for free, base in _ElementSpace(n, (k,)).pairs():
            fixed = full ^ free
            if not base or base == fixed:  # holds vertex 0 or 1^n
                continue
            blocked = sum(
                (1 << p) & fixed == base or (full ^ 1 << p) & fixed == base for p in range(n)
            )
            if blocked > 1:
                bad += 1
                witness = witness or [Subcube(free, base, n).pattern]
    return _violations(bad, witness)


def _extremal_graphs(fam: FaultFamily, size: int):
    """Checks both extremal families share: the family is valid with
    `size` elements, cuts the x_n = 0 half and leaves the whole cube
    connected.  Returns (failure or None, half graph, whole graph)."""
    if validate_family(fam) is not None or fam.size != size:
        return "invalid family", None, None
    half = SurvivalGraph.from_family(restrict_along(fam, fam.ambient, 0))
    if is_connected(half):
        return "half stays connected", None, None
    g = SurvivalGraph.from_family(fam)
    if not is_connected(g):
        return "whole cube disconnected", None, None
    return None, half, g


def _check_pinned_edge_family(n: int):
    """The n-2 parallel edges disconnect one half but only stretch the cube."""
    fam = adversarial_q1_family(n)
    failure, half, g = _extremal_graphs(fam, n - 2)
    if failure is None:
        if component_of(half, Vertex(0, n - 1)) != 1 | 1 << (1 << (n - 2)):  # {0, 2^(n-2)}
            failure = "pinned component is not the expected edge"
    if failure is not None:
        return str(n + 1), failure, False, fam.patterns()
    d = diameter(g)
    return str(n + 1), str(d), d == n + 1, fam.patterns()


def _check_blocking_subcube_family(n: int, m: int):
    """The n-m-1 disjoint m-cubes force an n+1 step route between far corners."""
    fam = adversarial_subcube_family(n, m)
    failure, _, g = _extremal_graphs(fam, n - m - 1)
    if failure is not None:
        return f">= {n + 1}", failure, False, fam.patterns()
    d = bfs_distance(g, Vertex(0, n), Vertex(((1 << n) - 1) ^ 1, n))
    return f">= {n + 1}", str(d), d is not None and d >= n + 1, fam.patterns()


# ---------------------------------------------------------------------------
# the registry


def _add(reg: dict[str, Claim], claim_id: str, params: dict, statement: str, run) -> None:
    if claim_id in reg:
        raise ValueError(f"duplicate claim id {claim_id}")
    reg[claim_id] = Claim(claim_id, params, statement, run)


@lru_cache(maxsize=1)
def _registry() -> dict[str, Claim]:
    reg: dict[str, Claim] = {}

    for n in (3, 4):
        _add(
            reg, f"lem2.2(n={n})", {"n": n},
            f"vertex fault diameter of Q_{n} (budget {n - 1}) equals {n + 1}",
            lambda memo, n=n: _check_fd(memo, n, "structure:0", n - 1, n + 1),
        )

    for n in (3, 4, 5):
        _add(
            reg, f"lem2.3(n={n})", {"n": n},
            f"edge-structure and substructure connectivity of Q_{n} equal {n - 1}",
            lambda memo, n=n: _check_two_scans(
                memo, n, n - 1, ("structure:1", "substructure"), ("kappa", "kappa^s")
            ),
        )

    for n, m in ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)):
        _add(
            reg, f"lem2.4(n={n},m={m})", {"n": n, "m": m},
            f"Q_{m}-structure and subcube connectivity of Q_{n} equal {n - m}",
            lambda memo, n=n, m=m: _check_two_scans(
                memo, n, n - m, (f"structure:{m}", f"subcube:{m}"), ("kappa", "kappa^sc")
            ),
        )

    for n in (3, 4, 5, 6):
        _add(
            reg, f"lem2.5(n={n})", {"n": n},
            f"distinct vertices of Q_{n} have 2 common neighbors at Hamming "
            "distance 2 and none otherwise (exhaustive)",
            lambda _, n=n: _check_common_neighbors(n),
        )

    for n in (3, 4, 5, 6):
        _add(
            reg, f"cor2.6(n={n})", {"n": n},
            f"subcubes of Q_{n} are closed under common neighbors (exhaustive)",
            lambda _, n=n: _check_subcube_closure(n),
        )

    _add(
        reg, "lem2.7(n=3)", {"n": 3},
        "removing fewer than 4 vertices of Q_3 without disconnecting it keeps "
        "the diameter at least 3 (exhaustive)",
        lambda _: _check_connected_removal_diameter(3),
    )

    for n in (5, 6):
        _add(
            reg, f"lem3.1(n={n})", {"n": n},
            f"symmetric pairs of Q_{n} keep a safe crossing coordinate under "
            f"up to {n - 1} faults of dimension <= {n - 3} (exhaustive)",
            lambda _, n=n: _check_crossing_dimension(n, n - 3),
        )

    for n in (3, 4):
        _add(
            reg, f"lem3.2(n={n})", {"n": n},
            f"any <= {n - 2} vertex faults leave Q_{n} with diameter exactly {n}",
            lambda _, n=n: _check_small_removal_diameter(n),
        )

    _add(
        reg, "thm3.3", {"n": 3},
        "substructure fault diameter of Q_3 (budget 1) equals 3",
        lambda memo: _check_fd(memo, 3, "substructure", 1, 3),
    )

    for n in range(4, 9):
        _add(
            reg, f"lem3.4(n={n})", {"n": n},
            f"the pinned-edge family of Q_{n} disconnects one half and raises "
            f"the diameter to {n + 1}",
            lambda _, n=n: _check_pinned_edge_family(n),
        )

    _add(
        reg, "lem3.5(n=4)", {"n": 4},
        "substructure fault diameter of Q_4 (budget 2) is at most 5",
        lambda memo: _check_fd(memo, 4, "substructure", 2, 5, at_most=True),
    )

    for n, expected in ((4, 5), (5, 6)):
        _add(
            reg, f"lem3.6(n={n})", {"n": n},
            f"substructure fault diameter of Q_{n} (budget {n - 2}) equals {expected}",
            lambda memo, n=n, expected=expected: _check_fd(
                memo, n, "substructure", n - 2, expected
            ),
        )

    for n in (4, 5):
        _add(
            reg, f"thm3.7(n={n})", {"n": n},
            f"edge-structure and substructure fault diameters of Q_{n} equal {n + 1}",
            lambda memo, n=n: _check_two_scans(
                memo, n, n + 1, ("structure:1", "substructure"), ("structure", "substructure"),
                n - 2,
            ),
        )

    for m in (1, 2, 3):
        n = m + 2
        _add(
            reg, f"thm3.20(m={m})", {"n": n, "m": m},
            f"subcube fault diameter of Q_{n} under one Q_<= {m} fault equals {n}",
            lambda memo, n=n, m=m: _check_fd(memo, n, f"subcube:{m}", 1, n),
        )

    for m in (1, 2):
        n = m + 3
        _add(
            reg, f"lem3.21(m={m})", {"n": n, "m": m},
            f"subcube fault diameter of Q_{n} under <= 2 Q_<= {m} faults is at most {n + 1}",
            lambda memo, n=n, m=m: _check_fd(memo, n, f"subcube:{m}", 2, n + 1, at_most=True),
        )

    for n, m in ((4, 1), (5, 1), (5, 2)):
        _add(
            reg, f"lem3.22(n={n},m={m})", {"n": n, "m": m},
            f"at most {n - m - 2} Q_<= {m} faults keep the diameter of Q_{n} at most {n}",
            lambda memo, n=n, m=m: _check_fd(
                memo, n, f"subcube:{m}", n - m - 2, n, at_most=True
            ),
        )

    for n, m in ((4, 1), (5, 2)):
        _add(
            reg, f"lem3.23(n={n},m={m})", {"n": n, "m": m},
            f"subcube fault diameter of Q_{n} under <= {n - m - 1} Q_<= {m} "
            f"faults is at most {n + 1}",
            lambda memo, n=n, m=m: _check_fd(
                memo, n, f"subcube:{m}", n - m - 1, n + 1, at_most=True
            ),
        )

    for n, m in ((4, 1), (5, 1), (5, 2), (6, 2), (6, 3)):
        _add(
            reg, f"lem3.24(n={n},m={m})", {"n": n, "m": m},
            f"the blocking family of {n - m - 1} Q_{m}'s in Q_{n} disconnects "
            f"one half and forces a route of length >= {n + 1}",
            lambda _, n=n, m=m: _check_blocking_subcube_family(n, m),
        )

    for n, m in ((4, 1), (5, 2)):
        _add(
            reg, f"thm3.25(n={n},m={m})", {"n": n, "m": m},
            f"subcube fault diameter of Q_{n} over Q_<= {m} faults equals {n + 1}",
            lambda memo, n=n, m=m: _check_fd(memo, n, f"subcube:{m}", n - m - 1, n + 1),
        )

    for n, m, expected in (
        (3, 1, 3),
        (4, 1, 5),
        (4, 2, 4),
        (5, 1, 6),
        (5, 2, 6),
        (5, 3, 5),
    ):
        _add(
            reg, f"thm3.26(n={n},m={m})", {"n": n, "m": m},
            f"Q_{m}-structure fault diameter of Q_{n} equals {expected}",
            lambda memo, n=n, m=m, expected=expected: _check_fd(
                memo, n, f"structure:{m}", n - m - 1, expected
            ),
        )

    return reg


def claim_ids() -> list[str]:
    """All known claim ids, in catalog order."""
    return list(_registry())


def verify_claims(
    claims: Sequence[str] | None = None,
    max_n: int | None = None,
    jobs: int = 1,
) -> list[ClaimResult]:
    """Run the claim catalog and report pass/fail per claim.

    `claims` selects ids (None means all); `max_n` keeps only claims
    whose ambient dimension params["n"] is at most max_n; `jobs` is
    accepted and ignored.  Unknown or repeated ids, and a max_n that
    leaves no selected claim, raise ValueError.
    """
    reg = _registry()
    if claims is None:
        selected: Iterable[Claim] = reg.values()
    else:
        missing = [c for c in claims if c not in reg]
        if missing:
            raise ValueError(f"unknown claim ids: {', '.join(missing)}")
        repeated = [c for c, k in Counter(claims).items() if k > 1]
        if repeated:
            raise ValueError(f"repeated claim ids: {', '.join(repeated)}")
        selected = [reg[c] for c in claims]
    if max_n is not None:
        if selected and max_n < (low := min(c.params["n"] for c in selected)):
            raise ValueError(f"max_n {max_n} leaves no claim; the selected claims start at n = {low}")
        selected = [c for c in selected if c.params["n"] <= max_n]
    out, memo = [], {}
    for claim in selected:
        t0 = time.perf_counter()
        expected, computed, ok, witness = claim.run(memo)
        out.append(
            ClaimResult(
                claim.claim_id,
                claim.params,
                claim.statement,
                expected,
                computed,
                "pass" if ok else "fail",
                tuple(witness),
                time.perf_counter() - t0,
            )
        )
    return out
