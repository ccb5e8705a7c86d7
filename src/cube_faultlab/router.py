"""Fault-avoiding routing with guaranteed length bounds.

route_with_report joins two survivors of Q_n minus a fault family
within the connectivity budget by a path no longer than the worst-case
fault diameter for the family's mode.  It follows the structure of the
bound proofs instead of searching: split the cube along one coordinate,
sort the fault elements into the two halves (straddling elements
project to a face of one lower dimension), and recurse into a half
whose remaining budget still affords the target length.

The recursion tracks an internal length target per context: a context
of dimension k with t faults of maximum element dimension md is within
budget when md <= k - 2 and t <= k - md - 1, and the reachable target
is k when the family is small (t <= 1 or t <= k - md - 2) and k + 1 at
full budget.  The split (faults._half_faults) makes the one pass over a
child's faults and returns its maximum element dimension with them;
_affords is then arithmetic: is the child within budget, and does its
target plus the edges spent crossing into it stay within the parent's
target.  The accepted child's target is passed down, so no context
recomputes its own.  Case analysis per level:

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
there; that BFS (_bfs_route) is the package's one dict BFS and needs no
survival graph, so routing serves every n up to 30.  If no case applies
(which the bound proofs rule out, but the implementation does not
assume), the router falls back to BFS in the full context and counts
the event; the report carries the counter, and a produced path
longer than the mode bound raises InvariantViolation rather than
returning quietly.

The router reads the family's (free_mask, base) pairs, faulty-label
table (groups) and validity verdict, which a FaultFamily builds at
construction, and its route plan (bound certificate and root target,
after the budget check), the family's one memo, kept on the first route
(see faults).  A label test scans the shorter of the family's table and
the context's pairs (_table): a context's faults are the family's cut
to it (_half_faults), and each label tested lies in it, so both answer
alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .core import Path, Vertex
from .errors import InvariantViolation
from .faults import FaultFamily, RouteBound, _half_faults, _target, require_valid

_BFS_BASE_DIM = 4


@dataclass(frozen=True)
class RouteReport:
    """A routed path plus its certificate and diagnostics."""

    path: Path
    bound: RouteBound
    fallbacks: int

    @property
    def length(self) -> int:
        return self.path.length


_Faults = Sequence[tuple[int, int]]  # (free_mask, base) pairs, in any order


def _faulty(x: int, table) -> bool:
    """Label x lies inside a fault element, given (free, bases) groups."""
    for fr, bases in table:
        if x & ~fr in bases:
            return True
    return False


def _table(faults: _Faults, groups):
    """The shorter of the family's label table and the context's pairs as groups."""
    return groups if len(groups) <= len(faults) else [(fr, (ba,)) for fr, ba in faults]


def _first_faulty(labels: Sequence[int], groups) -> int | None:
    """The first label inside a fault element, given FaultFamily._groups."""
    for fr, bases in groups:
        if not bases.isdisjoint(map((~fr).__and__, labels)):
            return next(x for x in labels if _faulty(x, groups))
    return None


def _affords(k: int, faults: _Faults, md: int, extra: int, tgt: int) -> int:
    """The target of a dim-k child context when it is within budget and
    that target plus `extra` crossing edges stays within the parent's
    target tgt, else 0."""
    target = _target(k, len(faults), md)
    return target if target and target + extra <= tgt else 0


def _greedy(u: int, v: int) -> list[int]:
    """Fix differing coordinates in ascending coordinate order."""
    path, cur, diff = [u], u, u ^ v
    while diff:
        bit = 1 << (diff.bit_length() - 1)
        cur ^= bit
        diff ^= bit
        path.append(cur)
    return path


def _bfs_route(ctx_free: int, u: int, v: int, table) -> list[int] | None:
    """Shortest fault-free path inside the context, None when v is not
    reachable.  Ties are deterministic: flips go high bit first (ascending
    coordinate), and a vertex's parent is fixed when it is discovered."""
    flips = [1 << p for p in range(ctx_free.bit_length() - 1, -1, -1) if ctx_free >> p & 1]
    parent = {u: u}
    queue = deque((u,))
    while queue and v not in parent:
        w = queue.popleft()
        for f in flips:
            x = w ^ f
            if x not in parent and not _faulty(x, table):
                parent[x] = w
                queue.append(x)
    if v not in parent:
        return None
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def _safe_crossing(ctx_free: int, u: int, v: int, table) -> int | None:
    """First free bit position (ascending coordinate) whose flip keeps both
    endpoints off the faults, None when there is none."""
    while ctx_free:
        bit = 1 << (ctx_free.bit_length() - 1)
        if not _faulty(u ^ bit, table) and not _faulty(v ^ bit, table):
            return bit.bit_length() - 1
        ctx_free ^= bit
    return None


class _Router:
    """One routing run: full-width labels, shrinking free-coordinate context.
    Each context carries its target tgt, computed once by its parent."""

    def __init__(self, groups):
        self.groups = groups
        self.fallbacks = 0

    def route(self, ctx_free: int, u: int, v: int, faults: _Faults, tgt: int) -> list[int]:
        if u == v:
            return [u]
        if not faults:
            return _greedy(u, v)
        if ctx_free.bit_count() <= _BFS_BASE_DIM:
            return self._bfs_or_die(ctx_free, u, v, _table(faults, self.groups))
        if len(faults) == 1:
            return self._route_single(ctx_free, u, v, faults, tgt)
        if ((u ^ v) & ctx_free) == ctx_free:
            return self._route_symmetric(ctx_free, u, v, faults, tgt)
        return self._route_unsymmetric(ctx_free, u, v, faults, tgt)

    def _bfs_or_die(self, ctx_free: int, u: int, v: int, table) -> list[int]:
        got = _bfs_route(ctx_free, u, v, table)
        if got is None:
            raise InvariantViolation(
                "an in-budget fault family disconnected a routing context; "
                "this contradicts the connectivity bound"
            )
        return got

    def _fallback(self, ctx_free: int, u: int, v: int, table) -> list[int]:
        self.fallbacks += 1
        return self._bfs_or_die(ctx_free, u, v, table)

    def _route_single(self, ctx_free: int, u: int, v: int, faults: _Faults,
                      tgt: int) -> list[int]:
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
            return _greedy(u, v)
        if u_side == dirty and v_side == dirty:
            # under one fault a context's target is its dimension
            return self.route(ctx_free ^ bit, u, v, faults, tgt - 1)
        if u_side == dirty:
            return [u] + _greedy(u ^ bit, v)
        return _greedy(u, v ^ bit) + [v]

    def _route_symmetric(self, ctx_free: int, u: int, v: int, faults: _Faults,
                         tgt: int) -> list[int]:
        """Endpoints differ in every free coordinate: cross next to one of them."""
        table = _table(faults, self.groups)
        p = _safe_crossing(ctx_free, u, v, table)
        if p is None:
            raise InvariantViolation(
                "no safe crossing coordinate exists for a symmetric pair within "
                "budget; this contradicts the crossing lemma"
            )
        bit = 1 << p
        child_free = ctx_free ^ bit
        k1 = child_free.bit_count()
        u_side = 1 if u & bit else 0
        f_u, md = _half_faults(faults, p, u_side)
        t1 = _affords(k1, f_u, md, 1, tgt)
        if t1:
            return self.route(child_free, u, v ^ bit, f_u, t1) + [v]
        f_v, md = _half_faults(faults, p, 1 - u_side)
        t1 = _affords(k1, f_v, md, 1, tgt)
        if t1:
            return [u] + self.route(child_free, u ^ bit, v, f_v, t1)
        return self._fallback(ctx_free, u, v, table)

    def _route_unsymmetric(self, ctx_free: int, u: int, v: int, faults: _Faults,
                           tgt: int) -> list[int]:
        """Split along the smallest coordinate where the endpoints agree."""
        agree = ~(u ^ v) & ctx_free
        p = agree.bit_length() - 1
        bit = 1 << p
        side = 1 if u & bit else 0
        child_free = ctx_free ^ bit
        k1 = child_free.bit_count()
        f_same, md = _half_faults(faults, p, side)
        t1 = _affords(k1, f_same, md, 0, tgt)
        if t1:
            return self.route(child_free, u, v, f_same, t1)
        f_other, md = _half_faults(faults, p, 1 - side)
        u2, v2 = u ^ bit, v ^ bit
        t1, table = _affords(k1, f_other, md, 2, tgt), _table(faults, self.groups)
        if t1 and not _faulty(u2, table) and not _faulty(v2, table):
            return [u] + self.route(child_free, u2, v2, f_other, t1) + [v]
        return self._fallback(ctx_free, u, v, table)


def route_with_report(u: Vertex, v: Vertex, family: FaultFamily) -> RouteReport:
    """Route u -> v around the family and certify the length bound.

    The family must respect its mode's budget (size <= kappa - 1).  The
    returned path starts at u, ends at v, avoids every faulty vertex,
    and has length at most route_bound(n, mode); a longer path raises
    InvariantViolation instead of being returned.
    """
    require_valid(family)
    n, mode = family.ambient, family.mode
    if u.dim != n or v.dim != n:
        raise ValueError(f"endpoints live in Q_{u.dim}/Q_{v.dim}, family in Q_{n}")
    groups = family._groups
    for w in (u, v):
        if _faulty(w.bits, groups):
            raise ValueError(f"endpoint {w.pattern} is a faulty vertex")
    bound, tgt = family._route_plan  # the budget check, memoised on the family
    runner = _Router(groups)
    labels = runner.route((1 << n) - 1, u.bits, v.bits, family._pairs, tgt)
    if labels[0] != u.bits or labels[-1] != v.bits:
        raise InvariantViolation("routed path does not connect the requested endpoints")
    path = Path(tuple(labels), n)
    bad = _first_faulty(labels, groups)
    if bad is not None:
        raise InvariantViolation(f"routed path touches the faulty vertex {Vertex(bad, n).pattern}")
    if path.length > bound.bound:
        raise InvariantViolation(
            f"routed path has length {path.length}, above the bound {bound.bound} "
            f"for mode {mode.label} in Q_{n}"
        )
    return RouteReport(path, bound, runner.fallbacks)
