"""Seeded inputs for the route-mix workload.

Families are drawn by rejection-sampling admissible Subcubes one at a
time, so the generator never builds the element space that
cube_faultlab.sample_families enumerates (75 MB at n = 12, out of reach
at n = 30).  Each element picks its dimension with weight equal to the
number of admissible subcubes of that dimension, C(n, k) * 2^(n - k),
so single elements are uniform over the element space.  Every family
has exactly kappa - 1 elements: the full routing budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from common import case_seed

ROUTE_DIMS = (6, 10, 16, 30)
FAMILIES_PER_MODE = 4
UNIFORM_PAIRS = 4
ANTIPODAL_PAIRS = 4
ELEMENT_ATTEMPTS = 1000
ADVERSARIAL_SUBCUBE_M = 2


def route_modes(n: int) -> list[str]:
    """The mode mix at dimension n, all routed at full budget."""
    return ["structure:0", "structure:1", "substructure", "subcube:2", f"structure:{n - 3}"]


@dataclass(frozen=True)
class RouteRequest:
    n: int
    mode: str
    kind: str  # uniform, antipodal or adversarial
    family: object  # cube_faultlab.FaultFamily
    u: object  # cube_faultlab.Vertex
    v: object


def is_faulty(family, bits: int) -> bool:
    return any(s.contains(bits) for s in family.elements)


def random_family(lib, rng: random.Random, n: int, mode, size: int):
    """size pairwise-disjoint admissible subcubes of Q_n, as a FaultFamily."""
    dims = [k for k in range(n + 1) if mode.admits(k)]
    weights = [comb(n, k) << (n - k) for k in dims]
    chosen = []
    for _ in range(size):
        for _attempt in range(ELEMENT_ATTEMPTS):
            k = rng.choices(dims, weights)[0]
            free = 0
            for p in rng.sample(range(n), k):
                free |= 1 << p
            s = lib.Subcube(free, rng.getrandbits(n) & ~free, n)
            if all(s.disjoint_from(t) for t in chosen):
                chosen.append(s)
                break
        else:
            raise RuntimeError(
                f"no disjoint {mode.label} element found in Q_{n} "
                f"after {ELEMENT_ATTEMPTS} attempts"
            )
    return lib.FaultFamily(tuple(chosen), mode, n)


def _survivor(rng: random.Random, family, n: int) -> int:
    while True:
        x = rng.getrandbits(n)
        if not is_faulty(family, x):
            return x


def _pairs(rng: random.Random, family, n: int) -> list[tuple[str, int, int]]:
    full = (1 << n) - 1
    out = []
    while len(out) < UNIFORM_PAIRS:
        u, v = _survivor(rng, family, n), _survivor(rng, family, n)
        if u != v:
            out.append(("uniform", u, v))
    while len(out) < UNIFORM_PAIRS + ANTIPODAL_PAIRS:
        u = _survivor(rng, family, n)
        if not is_faulty(family, u ^ full):
            out.append(("antipodal", u, u ^ full))
    return out


def route_requests(lib, seed: int) -> list[RouteRequest]:
    """The fixed, ordered request list of one route-mix pass."""
    out = []
    for n in ROUTE_DIMS:
        for label in route_modes(n):
            mode = lib.FaultMode.from_label(label)
            size = mode.kappa(n) - 1
            for i in range(FAMILIES_PER_MODE):
                rng = random.Random(case_seed("route-mix", n, label, i, seed))
                family = random_family(lib, rng, n, mode, size)
                for kind, u, v in _pairs(rng, family, n):
                    out.append(
                        RouteRequest(n, label, kind, family, lib.Vertex(u, n), lib.Vertex(v, n))
                    )
        # x = 0 and y = 1...10 are at distance n + 1 around both extremal
        # families: the tight case of the router's bound.
        x, y = lib.Vertex(0, n), lib.Vertex(((1 << n) - 1) ^ 1, n)
        for family in (
            lib.adversarial_q1_family(n),
            lib.adversarial_subcube_family(n, ADVERSARIAL_SUBCUBE_M),
        ):
            for u, v in ((x, y), (y, x)):
                out.append(RouteRequest(n, family.mode.label, "adversarial", family, u, v))
    return out
