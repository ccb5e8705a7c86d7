"""Distances and connectivity in a hypercube with faulty vertices removed.

The survival graph of Q_n under a fault family is the subgraph induced
by the non-faulty vertices.  Everything here is exact; nothing samples.

The one engine is a bitset BFS: a vertex set of Q_n is one Python
integer with bit w set iff vertex w is present, and one BFS level for
all n dimensions at once is n masked shifts.  The masks select, per
dimension, the vertices whose coordinate is 0; shifting them up by the
dimension's stride lands each vertex on its neighbor.  The masks build
in time linear in their size (_lo_masks); tables of at most 2^16 bits
are memoised, larger ones are built per BFS.

One integer can also hold k rows of 2^n bits, row r at bits r*2^n and
up, each an independent BFS (multi-source BFS: Then et al., "The More
the Merrier", VLDB 2014).  The masks are copied into every row, so no
shift crosses a row boundary, and one loop (_bfs_cover) advances all k
searches with the same big-int operations.  Rows go max(1, 2^16 >> n) to
an integer, so no BFS integer exceeds 2^16 bits.  A diameter seeds one
row per source vertex.  One oracle loop, oracle._row_scan, runs the κ
scan and the value walk on _row_cover: one row per family, seeded at its
lowest survivor (vertex 0 in every nonempty value-walk row).  Every
other diameter, of one set (_diameter_mask) or of a scan's batch, is
one _batch_diameter call, which returns the largest diameter, the first
set attaining it and the empty or cut sets.  At n <= 7 it packs 2^n
source rows per set, _diameter_batch(n) sets per BFS, and a visited
count short of Σ|S|² sends it to one more BFS without the cut sets; at
n >= 8 it takes one set, whose sources are only the survivors that two
anchor BFSs leave open (_fringe_diameter, which states the rule and its
proof); each anchor BFS is one _bfs_cover that keeps its levels.

A survival graph is refused past n = _BITSET_LIMIT (26) when it is
built; the router needs none and serves n <= 30 with its own BFS.

The one cost model lives here too: _check_time prices every diameter
and scan as the families it walks or draws times its kernel's µs each,
and refuses it above _LIMIT_S before the work starts, naming a request
that fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, Iterable

from .core import Vertex, _check_ambient, _union_mask
from .errors import ResourceLimitError
from .faults import FaultFamily, require_valid

_BITSET_LIMIT = 26  # the largest ambient dimension of a survival graph
_ROW_BITS = 1 << 16

_LIMIT_S = 60  # the one predicted-time limit of every request
_CONNECTIVITY_US = 1.0  # per κ-scan family at n <= 6: 0.24-0.60 µs measured at >= 10^4 families


def _diameter_us(n: int) -> float:
    """µs of one exact survivor diameter of Q_n, 0.002·n·4^n: fitted to the
    all-sources BFS (11 µs at n = 5, 89 ms at n = 11, 0.44 / 1.82 / 6.67 s
    at n = 12 / 13 / 14).  An upper bound on the two-anchor BFS, which
    takes 0.06-0.08 / 0.08-0.09 / 0.13 / 0.21-0.22 / 0.30-0.32 / 0.51-0.59
    / 0.81-0.91 / 1.35-1.56 ms at n = 8..15 when no source batch runs (the
    fault-free cube, n - 1 random faults, both tight families; 2 vCPUs,
    Python 3.11.7), plus one row-packed BFS per _rows_per_int(n) sources
    when the smaller source set is not empty."""
    return 0.002 * n * 4.0**n


def _check_time(request: str, us: Callable[[int], float], count: Callable[[int, int], int],
                value: int, flag: str | None = None, lo: int = 0,
                other: str = "bfs_distance on chosen vertex pairs") -> None:
    """Refuse `request` when its count(value, cap) families of us(value)
    µs each are over cap, the families that fit in _LIMIT_S.  The message
    names the largest `flag` value in [lo, value) that fits (by
    bisection), else `other`."""

    def over(v: int) -> int:  # the predicted families when over the cap, else 0
        cap = int(_LIMIT_S * 1e6 / us(v))
        return families if (families := count(v, cap)) > cap else 0

    if not (families := over(value)):
        return
    fit, bad = lo - 1, value
    while flag and bad - fit > 1:
        mid = (fit + bad) // 2
        fit, bad = (fit, mid) if over(mid) else (mid, bad)
    use = f"{flag} {fit}" if flag and fit >= lo else other
    raise ResourceLimitError(
        f"{request} is predicted at {families * us(value) / 1e6:,.0f} s ({families:,} x "
        f"{us(value):,.1f} us per family), above the limit of {_LIMIT_S} s; use {use}"
    )


def _full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def _rows_per_int(n: int) -> int:
    """How many 2^n-bit rows one BFS integer holds: at most _ROW_BITS bits."""
    return max(1, _ROW_BITS >> n)


@lru_cache(maxsize=16)
def _spaced_ones(count: int, step: int) -> int:
    """`count` one bits, `step` positions apart, starting at bit 0."""
    return ((1 << (count * step)) - 1) // ((1 << step) - 1)


@lru_cache(maxsize=16)
def _lo_masks(n: int, rows: int = 1) -> tuple[tuple[int, int], ...]:
    # (stride, mask) per dimension; the mask selects vertices whose bit p
    # is 0: blocks of 2^p ones every 2^(p+1) positions, repeated in every
    # row, so no shift crosses from one row into the next.  One block is
    # doubled until it spans every row: linear in rows * 2^n bits
    total = rows << n
    out = []
    for p in range(n):
        mask, width = (1 << (1 << p)) - 1, 2 << p
        while width < total:
            mask, width = mask | mask << width, width << 1
        out.append((1 << p, mask & ((1 << total) - 1)))  # cut the overshoot of rows != 2^k
    return tuple(out)


def _bfs_cover(n: int, allowed: int, start: int, rows: int = 1, stop: int = 0,
               levels: list[int] | None = None) -> tuple[int, int, int]:
    """BFS from the vertex set `start` inside `allowed`, `rows` BFSs at once.

    Bits r*2^n .. (r+1)*2^n - 1 of both integers are row r, an
    independent BFS in Q_n; all rows share every big-int operation.
    `start` must lie inside `allowed`; `rows` bounds the row count
    (unused rows are all zero).  The search ends early once a level
    (the start set being level 0) meets `stop`.  Each level past the
    start is appended to `levels` when it is given.  Returns (visited
    set, number of levels expanded, last level); without an early end
    the second is the largest eccentricity of a row's start set within
    its component, and the last level holds the vertices at that
    distance.
    """
    # memoise only tables of at most _ROW_BITS bits: a larger one would
    # outlive the call (Q_26's is 208 MiB)
    masks = (_lo_masks if rows << n <= _ROW_BITS else _lo_masks.__wrapped__)(n, rows)
    frontier = start
    left = allowed ^ start
    count = 0
    while not frontier & stop:
        nxt = 0
        for s, lo in masks:
            nxt |= (frontier & lo) << s | (frontier >> s) & lo
        nxt &= left
        if not nxt:
            break
        left ^= nxt
        frontier = nxt
        count += 1
        if levels is not None:
            levels.append(nxt)
    return allowed ^ left, count, frontier


def _row_cover(n: int, allowed: int, rows: int) -> tuple[int, int]:
    """One _bfs_cover of the `rows` 2^n-bit rows of `allowed` (at most
    _rows_per_int(n)), each seeded at its lowest vertex, an empty row at
    none: (the largest seed eccentricity in its component, vertices left unvisited)."""
    per_int = _rows_per_int(n)
    # allowed & (x ^ (x - 1)) is the lowest bit of allowed, in every row at
    # once; x holds every row's top bit, so no borrow crosses into the next
    # row, and every operand stays positive (an AND with a negative int
    # takes twice as long)
    ones = _spaced_ones(per_int, 1 << n) >> ((per_int - rows) << n)
    x = allowed | ones << ((1 << n) - 1)
    visited, levels, _ = _bfs_cover(n, allowed, allowed & (x ^ (x - ones)), per_int)
    return levels, allowed ^ visited


def _nonzero_rows(n: int, x: int, ones: int) -> int:
    """The bits of `ones` (bit 0 of 2^n-bit rows) whose row of x is nonzero."""
    for k in range(n):
        x |= x >> (1 << k)
    return x & ones


def _diameter_batch(n: int) -> int:
    """How many vertex sets one _batch_diameter takes: 2^n rows each, so one at n >= 8."""
    return max(1, _rows_per_int(n) >> n)


def _batch_diameter(n: int, sets: list[int]) -> tuple[int, int, list[int]]:
    """(largest diameter over the connected sets, index of the first set
    attaining it, indices of the empty or cut sets) over the vertex sets
    `sets`, at most _diameter_batch(n); (-1, -1, bad) when every set is bad.

    At n >= 8 the one set goes through _fringe_diameter.  Below, set i
    fills rows i*2^n and up, row r seeded at vertex r when r is in it,
    all in one _bfs_cover: the sets are connected iff it visits Σ|S|²
    bits, and the lowest bit of its last level lies in the first set at
    the largest eccentricity.  An unseeded row is a copy of its set that
    is never visited, so only unvisited bits in a seeded row mark a cut
    set; on a mismatch those sets are emptied and the BFS runs once more.
    """
    if _diameter_batch(n) == 1:
        d = _fringe_diameter(n, sets[0]) if sets[0] else None
        return (-1, -1, [0]) if d is None else (d, 0, [])
    size, rows = 1 << n, _rows_per_int(n)
    wide = [s * _spaced_ones(size, size) for s in sets]
    allowed = _pack_rows(2 * n, wide)
    seeds = _pack_rows(2 * n, [w & _spaced_ones(size, size + 1) for w in wide])
    visited, levels, last = _bfs_cover(n, allowed, seeds, rows)
    cut = 0
    if visited.bit_count() != sum(s.bit_count() ** 2 for s in sets):
        ones = _spaced_ones(len(sets), size * size)
        seeded = _nonzero_rows(n, seeds, _spaced_ones(rows, size)) * ((1 << size) - 1)
        cut = _nonzero_rows(2 * n, (allowed ^ visited) & seeded, ones)
        keep = (ones ^ cut) * ((1 << size * size) - 1)
        _, levels, last = _bfs_cover(n, allowed & keep, seeds & keep, rows)
    bad = ([i for i, s in enumerate(sets) if not s or cut >> (i << 2 * n) & 1]
           if cut or 0 in sets else [])  # no loop over the sets when none is bad
    return levels if last else -1, ((last & -last).bit_length() - 1) >> 2 * n, bad


def _pack_rows(n: int, sets: list[int]) -> int:
    """One integer holding sets[i] in row i (bits i*2^n and up); 0 for no sets."""
    width = 1 << n
    while len(sets) > 1:
        pairs = iter(sets)
        packed = [a | b << width for a, b in zip(pairs, pairs)]
        if len(sets) % 2:
            packed.append(sets[-1])
        sets = packed
        width <<= 1
    return sets[0] if sets else 0


def _diameter_mask(n: int, allowed: int) -> int | None:
    """Exact diameter of the induced subgraph, None when disconnected."""
    if not allowed:
        raise ValueError("empty vertex set has no diameter")
    value, _, bad = _batch_diameter(n, [allowed])
    return None if bad else value


def _fringe_diameter(n: int, allowed: int) -> int | None:
    """Exact diameter of a nonempty `allowed` at any n, None when
    disconnected: _batch_diameter's path at n >= 8.

    One BFS from the lowest survivor u tests connectivity and gives
    e = ecc(u); a second from v, the lowest survivor at distance e from u
    (the 2-sweep: Magnien, Latapy, Habib, ACM JEA 13, 2009), gives ecc(v),
    and best = max(e, ecc(v)).  Both keep their levels L_u, L_v.  The
    sources are the smaller of two sets, each exact in any connected
    graph.  The fringe, the union of L_u[e // 2 + 1:] (the eccentricity
    bound of iFUB: Crescenzi et al., TCS 514, 2013):
    - two survivors within e // 2 of u are at most 2 * (e // 2) <= e apart;
    - so every pair farther apart than e holds a fringe survivor;
    - so the diameter is the largest of e and the fringe's eccentricities.
    The survivors with ℓ_u + ℓ_v > best, ℓ_a the distance from a, which
    are L_u[i] outside Ball_v(best - i), the union of L_v[:best - i + 1]:
    - a pair x, y farther apart than best has ℓ_a(x) + ℓ_a(y) > best for a = u, v;
    - adding both, ℓ_u + ℓ_v > best at x or at y;
    - so the diameter is the largest of best and those survivors' eccentricities.
    """
    lu = [allowed & -allowed]
    if _bfs_cover(n, allowed, lu[0], levels=lu)[0] != allowed:
        return None
    lv = [lu[-1] & -lu[-1]]
    _bfs_cover(n, allowed, lv[0], levels=lv)
    eu, ev = len(lu) - 1, len(lv) - 1
    best = max(eu, ev)
    balls = list(accumulate(lv))
    far = 0
    for i in range(best - ev + 1, eu + 1):  # at i <= best - ev, Ball_v(best - i) is `allowed`
        far |= lu[i] & (allowed ^ balls[best - i])
    pick = min(far, sum(lu[eu // 2 + 1:]), key=int.bit_count)
    if not pick:  # before the 2^16-bit row table
        return best
    rows = _rows_per_int(n)
    wide = allowed * _spaced_ones(rows, 1 << n)
    sources = (1 << v for v, bit in enumerate(reversed(f"{pick:b}")) if bit == "1")
    while batch := list(islice(sources, rows)):  # a short last batch keeps `rows`: one mask table
        best = max(best, _bfs_cover(n, wide, _pack_rows(n, batch), rows)[1])
    return best


def _check_cap(n: int) -> None:
    """Refuse a survival graph of Q_n past the bitset engine's range."""
    if n > _BITSET_LIMIT:
        raise ResourceLimitError(f"a survival graph of Q_{n} is above the cap of n = "
                                 f"{_BITSET_LIMIT}; use route_with_report (cube-faultlab route)")


@dataclass(frozen=True, init=False)
class SurvivalGraph:
    """Q_ambient with a set of vertices removed, for ambient <= 26.

    The removed vertices are one bitset, removed_mask (bit w is set iff
    vertex w is removed), and survivor_mask is its complement.  from_family
    validates a fault family and ORs its elements' bitsets; the
    constructor takes removed labels, for ad-hoc experiments (vertex-set
    removals are exactly structure:0 families).
    """

    ambient: int
    removed_mask: int = field(repr=False)  # past 4,300 digits Python refuses to print an int

    def __init__(self, ambient: int, removed: Iterable[int]) -> None:
        _check_ambient(ambient)
        _check_cap(ambient)
        size = 1 << ambient
        buf = bytearray((size + 7) >> 3)
        for w in removed:
            if not isinstance(w, int) or not 0 <= w < size:
                raise ValueError(f"removed label {w!r} out of range for Q_{ambient}")
            buf[w >> 3] |= 1 << (w & 7)
        self._fill(ambient, int.from_bytes(buf, "little"))

    @classmethod
    def from_family(cls, family: FaultFamily) -> "SurvivalGraph":
        require_valid(family)
        _check_cap(family.ambient)  # before any vertex bitset is built
        return cls.__new__(cls)._fill(family.ambient, _union_mask(family._pairs))

    def _fill(self, ambient: int, removed_mask: int) -> "SurvivalGraph":
        self.__dict__.update(ambient=ambient, removed_mask=removed_mask,
                             survivor_mask=_full_mask(ambient) ^ removed_mask)
        return self

    @property
    def survivor_count(self) -> int:
        return (1 << self.ambient) - self.removed_mask.bit_count()

    def _check_endpoint(self, v: Vertex, name: str) -> int:
        if v.dim != self.ambient:
            raise ValueError(f"{name} lives in Q_{v.dim}, graph in Q_{self.ambient}")
        if self.removed_mask >> v.bits & 1:
            raise ValueError(f"{name} {v.pattern} is a removed vertex")
        return v.bits


def bfs_distance(g: SurvivalGraph, u: Vertex, v: Vertex) -> int | None:
    """Exact distance between two survivors, None when unreachable.

    Unreachability is reported as None, never as a large count.
    """
    ub = g._check_endpoint(u, "u")
    vb = g._check_endpoint(v, "v")
    visited, levels, _ = _bfs_cover(g.ambient, g.survivor_mask, 1 << ub, stop=1 << vb)
    return levels if visited >> vb & 1 else None


def is_connected(g: SurvivalGraph) -> bool:
    """True when the survivors form one connected component."""
    if g.survivor_count == 0:
        raise ValueError("empty survivor set has no connectivity")
    allowed = g.survivor_mask
    return _bfs_cover(g.ambient, allowed, allowed & -allowed)[0] == allowed


def _check_diameter(n: int) -> None:
    """Refuse an exact diameter of Q_n past the cap or above _LIMIT_S; the
    cli asks before it builds the survival graph."""
    _check_cap(n)
    _check_time(f"an exact diameter of Q_{n}", lambda _: _diameter_us(n), lambda v, cap: v, 1)


def diameter(g: SurvivalGraph) -> int | None:
    """Largest survivor distance, None when the graph is disconnected."""
    if g.survivor_count == 0:
        raise ValueError("empty survivor set has no diameter")
    _check_diameter(g.ambient)
    return _diameter_mask(g.ambient, g.survivor_mask)


def component_of(g: SurvivalGraph, v: Vertex) -> int:
    """The survivors reachable from v, v included, as a bitset: bit w is
    set iff vertex w lies in v's component."""
    vb = g._check_endpoint(v, "v")
    return _bfs_cover(g.ambient, g.survivor_mask, 1 << vb)[0]
