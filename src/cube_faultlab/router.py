"""Fault-avoiding routing with guaranteed length bounds.

guided_route builds a path between two survivors of Q_n minus a fault
family within the connectivity budget, never longer than the worst-case
fault diameter for the family's mode.  It follows the structure of the
bound proofs instead of searching: split the cube along one coordinate,
sort the fault elements into the two halves (straddling elements
project to a face of one lower dimension), and recurse into a half
whose remaining budget still affords the target length.

The recursion tracks an internal length target per context: a context
of dimension k with t faults of maximum element dimension md is within
budget when md <= k - 2 and t <= k - md - 1, and the reachable target
is k when the family is small (t <= 1 or t <= k - md - 2) and k + 1 at
full budget.  One helper, _affords, answers both questions for a child
context from a single pass over its faults: is it within budget, and
does its target plus the edges spent crossing into it stay within the
parent's target.  Case analysis per level:

* no faults: fix differing coordinates in ascending order (length =
  Hamming distance, the optimum);
* one fault: pick a coordinate the element fixes; the other half is
  completely clean, so cross at most once and walk greedily;
* endpoints differing everywhere: cross next to an endpoint along a
  coordinate whose two crossing vertices are fault-free (one always
  exists at this budget), and recurse into whichever half affords
  target + 1;
* otherwise: split along the smallest coordinate where the endpoints
  agree; stay in the shared half when its fault load allows, else step
  both endpoints across and recurse in the other half (+2 edges).

Contexts of dimension <= 4 are routed by plain BFS, which is optimal
there.  If no case applies (which the bound proofs rule out, but the
implementation does not assume), the router falls back to BFS in the
full context and counts the event; route_with_report exposes the
counter, and a produced path longer than the mode bound raises
InvariantViolation rather than returning quietly.

The router reads the family's (free_mask, base) pairs and its validity
verdict from the FaultFamily instance, where both are computed once
(see faults), so routing many pairs around one family validates it
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Path, Vertex
from .errors import InvariantViolation
from .faults import FaultFamily, FaultMode, _half_faults, require_valid
from .metrics import _bfs_parents

_BFS_BASE_DIM = 4


def route_bound(n: int, mode: FaultMode) -> int:
    """Guaranteed maximum route length for in-budget families of a mode.

    Equals the fault diameter: n in the tight regimes (vertex faults in
    tiny cubes, substructure faults in Q_3, element dimension n - 2) and
    n + 1 everywhere else.
    """
    mode.kappa(n)  # validates the pairing
    m = mode.max_element_dim
    if m == 0:
        return n + 1 if n >= 3 else n
    return n if n == m + 2 else n + 1


@dataclass(frozen=True)
class RouteBound:
    """The bound certificate attached to a routing request."""

    n: int
    mode: FaultMode
    bound: int


@dataclass(frozen=True)
class RouteReport:
    """A routed path plus its certificate and diagnostics."""

    path: Path
    bound: RouteBound
    fallbacks: int

    @property
    def length(self) -> int:
        return self.path.length


_Faults = Sequence[tuple[int, int]]  # (free_mask, base) pairs, ascending


def _hit(x: int, faults: _Faults) -> bool:
    for fr, ba in faults:
        if x & ~fr == ba:
            return True
    return False


def _target(k: int, faults: _Faults) -> int | None:
    """Reachable route length in a dim-k context, None when the faults are
    over its budget.  Every context the router enters is within budget."""
    if not faults:
        return k
    t = len(faults)
    md = max(fr.bit_count() for fr, _ in faults)
    if md > k - 2 or t > k - md - 1:
        return None
    return k if t <= 1 or t <= k - md - 2 else k + 1


def _affords(k: int, faults: _Faults, extra: int, tgt: int) -> bool:
    """A dim-k child context is within budget and its target plus `extra`
    crossing edges stays within the parent's target tgt."""
    target = _target(k, faults)
    return target is not None and target + extra <= tgt


def _positions(ctx_free: int, n: int) -> list[int]:
    """Free bit positions in ascending coordinate order (most significant first)."""
    return [p for p in range(n - 1, -1, -1) if ctx_free >> p & 1]


def _greedy(u: int, v: int, n: int) -> list[int]:
    """Fix differing coordinates in ascending coordinate order."""
    path = [u]
    cur = u
    diff = u ^ v
    for p in range(n - 1, -1, -1):
        if diff >> p & 1:
            cur ^= 1 << p
            path.append(cur)
    return path


def _bfs_route(
    n: int, ctx_free: int, u: int, v: int, faults: _Faults
) -> list[int] | None:
    """Shortest fault-free path inside the context, deterministic ties."""
    flips = [1 << p for p in _positions(ctx_free, n)]
    parent = _bfs_parents(u, flips, lambda x: _hit(x, faults), v)
    if v not in parent:
        return None
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def _safe_crossing(
    ctx_free: int, n: int, u: int, v: int, faults: _Faults
) -> int | None:
    """First free bit position (ascending coordinate) whose flip keeps both
    endpoints off the faults, None when there is none."""
    for p in _positions(ctx_free, n):
        if not _hit(u ^ (1 << p), faults) and not _hit(v ^ (1 << p), faults):
            return p
    return None


class _Router:
    """One routing run: full-width labels, shrinking free-coordinate context."""

    def __init__(self, n: int):
        self.n = n
        self.fallbacks = 0

    def route(self, ctx_free: int, u: int, v: int, faults: _Faults) -> list[int]:
        n = self.n
        if u == v:
            return [u]
        if not faults:
            return _greedy(u, v, n)
        k = ctx_free.bit_count()
        if k <= _BFS_BASE_DIM:
            return self._bfs_or_die(ctx_free, u, v, faults)
        if len(faults) == 1:
            return self._route_single(ctx_free, u, v, faults)
        if ((u ^ v) & ctx_free) == ctx_free:
            return self._route_symmetric(ctx_free, u, v, faults)
        return self._route_unsymmetric(ctx_free, u, v, faults)

    def _bfs_or_die(
        self, ctx_free: int, u: int, v: int, faults: _Faults
    ) -> list[int]:
        got = _bfs_route(self.n, ctx_free, u, v, faults)
        if got is None:
            raise InvariantViolation(
                "an in-budget fault family disconnected a routing context; "
                "this contradicts the connectivity bound"
            )
        return got

    def _fallback(
        self, ctx_free: int, u: int, v: int, faults: _Faults
    ) -> list[int]:
        self.fallbacks += 1
        return self._bfs_or_die(ctx_free, u, v, faults)

    def _route_single(
        self, ctx_free: int, u: int, v: int, faults: _Faults
    ) -> list[int]:
        """One fault element: at most one crossing into the clean half."""
        fr, ba = faults[0]
        fixed = ctx_free & ~fr
        if not fixed:
            raise InvariantViolation("fault element fills its routing context")
        p = fixed.bit_length() - 1  # smallest fixed coordinate index
        bit = 1 << p
        dirty = 1 if ba & bit else 0
        u_side = 1 if u & bit else 0
        v_side = 1 if v & bit else 0
        if u_side != dirty and v_side != dirty:
            return _greedy(u, v, self.n)
        if u_side == dirty and v_side == dirty:
            return self.route(ctx_free ^ bit, u, v, faults)
        if u_side == dirty:
            return [u] + _greedy(u ^ bit, v, self.n)
        return _greedy(u, v ^ bit, self.n) + [v]

    def _route_symmetric(
        self, ctx_free: int, u: int, v: int, faults: _Faults
    ) -> list[int]:
        """Endpoints differ in every free coordinate: cross next to one of them."""
        p = _safe_crossing(ctx_free, self.n, u, v, faults)
        if p is None:
            raise InvariantViolation(
                "no safe crossing coordinate exists for a symmetric pair within "
                "budget; this contradicts the crossing lemma"
            )
        bit = 1 << p
        tgt = _target(ctx_free.bit_count(), faults)
        child_free = ctx_free ^ bit
        k1 = child_free.bit_count()
        u_side = 1 if u & bit else 0
        f_u = _half_faults(faults, p, u_side)
        if _affords(k1, f_u, 1, tgt):
            return self.route(child_free, u, v ^ bit, f_u) + [v]
        f_v = _half_faults(faults, p, 1 - u_side)
        if _affords(k1, f_v, 1, tgt):
            return [u] + self.route(child_free, u ^ bit, v, f_v)
        return self._fallback(ctx_free, u, v, faults)

    def _route_unsymmetric(
        self, ctx_free: int, u: int, v: int, faults: _Faults
    ) -> list[int]:
        """Split along the smallest coordinate where the endpoints agree."""
        agree = ~(u ^ v) & ctx_free
        p = agree.bit_length() - 1
        bit = 1 << p
        side = 1 if u & bit else 0
        tgt = _target(ctx_free.bit_count(), faults)
        child_free = ctx_free ^ bit
        k1 = child_free.bit_count()
        f_same = _half_faults(faults, p, side)
        if _affords(k1, f_same, 0, tgt):
            return self.route(child_free, u, v, f_same)
        f_other = _half_faults(faults, p, 1 - side)
        u2, v2 = u ^ bit, v ^ bit
        if not _hit(u2, faults) and not _hit(v2, faults) and _affords(k1, f_other, 2, tgt):
            return [u] + self.route(child_free, u2, v2, f_other) + [v]
        return self._fallback(ctx_free, u, v, faults)


def _check_routing_args(u: Vertex, v: Vertex, family: FaultFamily) -> _Faults:
    """The family's memoised (free_mask, base) pairs, after the family,
    endpoint-cube and faulty-endpoint checks."""
    require_valid(family)
    n = family.ambient
    if u.dim != n or v.dim != n:
        raise ValueError(
            f"endpoints live in Q_{u.dim}/Q_{v.dim}, family in Q_{n}"
        )
    faults = family._pairs
    if _hit(u.bits, faults):
        raise ValueError(f"endpoint {u.pattern} is a faulty vertex")
    if _hit(v.bits, faults):
        raise ValueError(f"endpoint {v.pattern} is a faulty vertex")
    return faults


def pick_crossing_dimension(u: Vertex, v: Vertex, family: FaultFamily) -> int:
    """Smallest coordinate j such that both endpoints survive a flip of x_j.

    Defined for symmetric pairs under at most n - 1 fault elements of
    dimension at most n - 3; under those preconditions such a j always
    exists (each fault element can block flips in at most one
    coordinate, and there are fewer elements than coordinates).
    """
    faults = _check_routing_args(u, v, family)
    n = family.ambient
    if (u.bits ^ v.bits).bit_count() != n:
        raise ValueError("crossing dimensions are defined for symmetric pairs only")
    if family.size > n - 1:
        raise ValueError(f"at most n-1 = {n - 1} fault elements are allowed")
    for s in family.elements:
        if s.dim > n - 3:
            raise ValueError("fault elements must have dimension at most n-3")
    p = _safe_crossing((1 << n) - 1, n, u.bits, v.bits, faults)
    if p is None:
        raise InvariantViolation(
            "no safe crossing coordinate exists despite valid preconditions"
        )
    return n - p


def route_with_report(u: Vertex, v: Vertex, family: FaultFamily) -> RouteReport:
    """Route u -> v around the family and certify the length bound.

    The family must respect its mode's budget (size <= kappa - 1).  The
    returned path starts at u, ends at v, avoids every faulty vertex,
    and has length at most route_bound(n, mode); a longer path raises
    InvariantViolation instead of being returned.
    """
    faults = _check_routing_args(u, v, family)
    n = family.ambient
    bound = RouteBound(n, family.mode, route_bound(n, family.mode))
    if family.size > family.mode.kappa(n) - 1:
        raise ValueError(
            f"family size {family.size} exceeds the routing budget "
            f"{family.mode.kappa(n) - 1} for mode {family.mode.label} in Q_{n}"
        )
    runner = _Router(n)
    labels = runner.route((1 << n) - 1, u.bits, v.bits, faults)
    if labels[0] != u.bits or labels[-1] != v.bits:
        raise InvariantViolation("routed path does not connect the requested endpoints")
    path = Path.from_bits(labels, n)
    for x in labels:
        if _hit(x, faults):
            raise InvariantViolation(
                f"routed path touches the faulty vertex {Vertex(x, n).pattern}"
            )
    if path.length > bound.bound:
        raise InvariantViolation(
            f"routed path has length {path.length}, above the bound {bound.bound} "
            f"for mode {family.mode.label} in Q_{n}"
        )
    return RouteReport(path, bound, runner.fallbacks)


def guided_route(u: Vertex, v: Vertex, family: FaultFamily) -> Path:
    """The fault-avoiding path alone; see route_with_report for diagnostics."""
    return route_with_report(u, v, family).path
