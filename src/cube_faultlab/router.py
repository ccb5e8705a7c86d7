"""Fault-avoiding routing with guaranteed length bounds.

route_with_report joins two survivors of Q_n minus a fault family
within the connectivity budget by a path no longer than the worst-case
fault diameter for the family's mode.  It follows the structure of the
bound proofs instead of searching: split the cube along one coordinate,
sort the fault elements into the two halves (straddling elements
project to a face of one lower dimension), and go on in a half whose
remaining budget still affords the target length.

The router is one loop (_route) over shrinking contexts.  A split
appends the outer end of each edge it crosses to a head list (next to
u) or a tail list (next to v) and goes on in the child context; a leaf
ends the loop with the route's middle, and the labels are built once,
as head + middle + reversed tail.  Each context has a length target: a
context of dimension k with t faults of maximum element dimension md
is within budget when md <= k - 2 and t <= k - md - 1, and its target
is k when the family is small (t <= 1 or t <= k - md - 2) and k + 1 at
full budget.  The split (faults._half_faults) makes the one pass over
a child's faults and returns its maximum element dimension with them;
_affords is then arithmetic: is the child within budget, and does its
target plus the edges spent crossing into it stay within the parent's
target.  The accepted child's target is carried on, so no context
recomputes its own.  Case analysis per context:

* no faults: fix differing coordinates in ascending order (length =
  Hamming distance, the optimum), a leaf;
* one fault: pick a coordinate the element fixes; the other half is
  completely clean, so cross at most once and walk greedily (a leaf),
  or go on in the element's half when both endpoints lie there;
* endpoints differing everywhere: cross next to an endpoint along a
  coordinate whose two crossing vertices are fault-free (one always
  exists at this budget), and go on in whichever half affords
  target + 1;
* otherwise: split along the smallest coordinate where the endpoints
  agree; stay in the shared half when its fault load allows, else step
  both endpoints across and go on in the other half (+2 edges).

Contexts of dimension <= 4 are routed by plain BFS, which is optimal
there; that BFS (_bfs_route) is the package's one dict BFS and needs no
survival graph, so routing serves every n up to 30.  If no case applies
(which the bound proofs rule out, but the implementation does not
assume), the router falls back to BFS in the current context, a leaf,
so the report's fallback count is 0 or 1; a produced path longer than
the mode bound raises InvariantViolation rather than returning quietly.

The router reads the family's (free_mask, base) pairs, faulty-label
table (groups) and validity verdict, which a FaultFamily builds at
construction, and its route plan (bound certificate and root target,
after the budget check), the family's one memo, kept on the first route
(see faults).  A table holds (fixed mask, bases) groups, the fixed mask
taken in the whole cube, so a label test is x & fixed in bases on
positive ints.  It scans the shorter of the family's table and the
context's pairs (_table): a context's faults are the family's cut to it
(_half_faults), and each label tested lies in it, so both answer alike.
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
    """A routed path plus its certificate and diagnostics: fallbacks is 1
    when the route ended in the BFS fallback, else 0."""

    path: Path
    bound: RouteBound
    fallbacks: int

    @property
    def length(self) -> int:
        return self.path.length


_Faults = Sequence[tuple[int, int]]  # (free_mask, base) pairs, in any order


def _faulty(x: int, table) -> bool:
    """Label x lies inside a fault element, given (fixed mask, bases) groups."""
    for fixed, bases in table:
        if x & fixed in bases:
            return True
    return False


def _table(faults: _Faults, groups, full: int):
    """The shorter of the family's label table and the context's pairs as
    groups, each pair's fixed mask taken in the whole cube `full`."""
    return groups if len(groups) <= len(faults) else [(full ^ fr, (ba,)) for fr, ba in faults]


def _first_faulty(labels: Sequence[int], groups, full: int) -> int | None:
    """The first label inside a fault element, given FaultFamily._groups of
    the cube `full`.  In the group fixed by `full` (elements listed as
    their vertices) a label is looked up as it is, with no AND."""
    for fixed, bases in groups:
        if not bases.isdisjoint(labels if fixed == full else map(fixed.__and__, labels)):
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


def _route(ctx_free: int, u: int, v: int, faults: _Faults, tgt: int,
           groups) -> tuple[tuple[int, ...], int]:
    """The labels of a route u -> v within target tgt in the whole cube
    ctx_free = (1 << n) - 1, and the fallbacks taken (0 or 1)."""
    full, head, tail, fallbacks = ctx_free, [], [], 0
    while True:
        if u == v or not faults:
            mid = _greedy(u, v)
            break
        k = ctx_free.bit_count()
        if k <= _BFS_BASE_DIM:
            mid = _bfs_route(ctx_free, u, v, _table(faults, groups, full))
            break
        if len(faults) == 1:  # at most one crossing into the clean half
            fr, ba = faults[0]
            fixed = ctx_free & ~fr
            if not fixed:
                raise InvariantViolation("fault element fills its routing context")
            bit = 1 << (fixed.bit_length() - 1)  # smallest fixed coordinate
            dirty = ba & bit
            if u & bit == dirty and v & bit == dirty:
                # under one fault a context's target is its dimension
                ctx_free, tgt = ctx_free ^ bit, tgt - 1
                continue
            if u & bit == dirty:
                head.append(u)
                u ^= bit
            elif v & bit == dirty:
                tail.append(v)
                v ^= bit
            mid = _greedy(u, v)
            break
        diff = (u ^ v) & ctx_free
        if diff == ctx_free:  # cross next to an endpoint
            table = _table(faults, groups, full)
            p = _safe_crossing(ctx_free, u, v, table)
            if p is None:
                raise InvariantViolation(
                    "no safe crossing coordinate exists for a symmetric pair within "
                    "budget; this contradicts the crossing lemma"
                )
            bit, side = 1 << p, u >> p & 1
            kids, md = _half_faults(faults, p, side)
            t1 = _affords(k - 1, kids, md, 1, tgt)
            if t1:
                tail.append(v)
                v ^= bit
            else:
                kids, md = _half_faults(faults, p, 1 - side)
                t1 = _affords(k - 1, kids, md, 1, tgt)
                if t1:
                    head.append(u)
                    u ^= bit
        else:  # split along the smallest coordinate where the endpoints agree
            p = (ctx_free ^ diff).bit_length() - 1
            bit, side = 1 << p, u >> p & 1
            kids, md = _half_faults(faults, p, side)
            t1 = _affords(k - 1, kids, md, 0, tgt)
            if not t1:
                kids, md = _half_faults(faults, p, 1 - side)
                t1, table = _affords(k - 1, kids, md, 2, tgt), _table(faults, groups, full)
                if t1 and not _faulty(u ^ bit, table) and not _faulty(v ^ bit, table):
                    head.append(u)
                    tail.append(v)
                    u, v = u ^ bit, v ^ bit
                else:
                    t1 = 0
        if not t1:
            fallbacks, mid = 1, _bfs_route(ctx_free, u, v, table)
            break
        ctx_free, faults, tgt = ctx_free ^ bit, kids, t1
    if mid is None:
        raise InvariantViolation(
            "an in-budget fault family disconnected a routing context; "
            "this contradicts the connectivity bound"
        )
    return (*head, *mid, *reversed(tail)), fallbacks


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
    full = (1 << n) - 1
    labels, fallbacks = _route(full, u.bits, v.bits, family._pairs, tgt, groups)
    if labels[0] != u.bits or labels[-1] != v.bits:
        raise InvariantViolation("routed path does not connect the requested endpoints")
    path = Path(labels, n)
    bad = _first_faulty(labels, groups, full)
    if bad is not None:
        raise InvariantViolation(f"routed path touches the faulty vertex {Vertex(bad, n).pattern}")
    if path.length > bound.bound:
        raise InvariantViolation(
            f"routed path has length {path.length}, above the bound {bound.bound} "
            f"for mode {mode.label} in Q_{n}"
        )
    return RouteReport(path, bound, fallbacks)
