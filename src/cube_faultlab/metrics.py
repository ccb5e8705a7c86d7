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
searches with the same big-int operations.  Rows go max(1, 2^16 >> n)
to an integer, so no BFS integer exceeds 2^16 bits.  A diameter seeds
one row per source vertex; the connectivity oracle seeds one row per
candidate family.

A survival graph is refused past n = _BITSET_LIMIT (26) when it is
built; the router needs none and serves n <= 30 with its own BFS.

The one cost model lives here too: _check_time prices every diameter
and scan as the families it walks or draws times its kernel's µs each,
and refuses it above _LIMIT_S before the work starts, naming a request
that fits.  component_of is priced in memory instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from .core import _MASK_TABLE_BITS, Vertex, _check_ambient
from .errors import ResourceLimitError
from .faults import FaultFamily, fault_bits, require_valid

_BITSET_LIMIT = 26  # the largest ambient dimension of a survival graph
_ROW_BITS = 1 << 16

_LIMIT_S = 60  # the one predicted-time limit of every request
_CONNECTIVITY_US = 1.0  # per connectivity-scan family: 0.88-1.16 µs measured at n = 5, 6
_COMPONENT_BYTES = 150  # per component_of survivor: Vertex and set slot, 148-151 B traced at n = 16-20


def _diameter_us(n: int) -> float:
    """µs of one exact survivor diameter of Q_n, 0.002·n·4^n: fitted to
    _diameter_mask on Q_n (11 µs at n = 5, 89 ms at n = 11) and to
    sampled draws (0.44 / 1.82 / 6.67 s at n = 12 / 13 / 14)."""
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


def _bfs_cover(n: int, allowed: int, start: int, rows: int = 1, stop: int = 0) -> tuple[int, int]:
    """BFS from the vertex set `start` inside `allowed`, `rows` BFSs at once.

    Bits r*2^n .. (r+1)*2^n - 1 of both integers are row r, an
    independent BFS in Q_n; all rows share every big-int operation.
    `start` must lie inside `allowed`; `rows` bounds the row count
    (unused rows are all zero).  The search ends early once a level
    (the start set being level 0) meets `stop`.
    Returns (visited set, number of levels expanded); without an early
    end the second is the largest eccentricity of a row's start set
    within its component.
    """
    # memoise only tables of at most _ROW_BITS bits: a larger one would
    # outlive the call (Q_26's is 208 MiB)
    masks = (_lo_masks if rows << n <= _ROW_BITS else _lo_masks.__wrapped__)(n, rows)
    frontier = start
    left = allowed ^ start
    levels = 0
    while not frontier & stop:
        nxt = 0
        for s, lo in masks:
            nxt |= (frontier & lo) << s | (frontier >> s) & lo
        nxt &= left
        if not nxt:
            break
        left ^= nxt
        frontier = nxt
        levels += 1
    return allowed ^ left, levels


def _first_disconnected(n: int, sets: list[int]) -> int | None:
    """Index of the first vertex set in `sets` whose induced subgraph is
    disconnected, None when all are connected.

    Each set must be nonempty; at most _rows_per_int(n) sets.  Set i is
    row i of one integer, seeded at its lowest vertex, and one
    _bfs_cover checks them all: the lowest vertex it leaves unvisited
    lies in the first disconnected row.
    """
    rows = _rows_per_int(n)
    allowed = _pack_rows(n, sets)
    # x & ~(x - 1) is the lowest bit of x, done in every row at once;
    # no row is 0, so no borrow crosses into the next row
    ones = _spaced_ones(rows, 1 << n) >> ((rows - len(sets)) << n)
    visited, _ = _bfs_cover(n, allowed, allowed & ~(allowed - ones), rows)
    left = allowed ^ visited
    if not left:
        return None
    return ((left & -left).bit_length() - 1) >> n


def _pack_rows(n: int, sets: list[int]) -> int:
    """One integer holding sets[i] in row i (bits i*2^n and up)."""
    width = 1 << n
    while len(sets) > 1:
        pairs = iter(sets)
        packed = [a | b << width for a, b in zip(pairs, pairs)]
        if len(sets) % 2:
            packed.append(sets[-1])
        sets = packed
        width <<= 1
    return sets[0]


def _diameter_mask(n: int, allowed: int) -> int | None:
    """Exact diameter of the induced subgraph, None when disconnected.

    Every survivor is a BFS source.  Sources go min(2^n,
    _rows_per_int(n)) at a time into one integer: in the block starting
    at vertex `base`, row i is seeded with vertex base + i (a diagonal
    ANDed with `allowed` copied into every row), and one _bfs_cover
    yields the block's largest eccentricity.  The first nonempty block
    holds the lowest survivor; the graph is connected iff its row
    covers `allowed`.
    """
    if not allowed:
        raise ValueError("empty vertex set has no diameter")
    size = 1 << n
    rows = min(size, _rows_per_int(n))
    wide = allowed * _spaced_ones(rows, size)
    diagonal = _spaced_ones(rows, size + 1)
    low = (allowed & -allowed).bit_length() - 1
    first = low - low % rows
    best = 0
    for base in range(first, size, rows):
        seeds = wide & diagonal << base
        if not seeds:
            continue
        visited, levels = _bfs_cover(n, wide, seeds, rows)
        if base == first and visited >> ((low - first) << n) & allowed != allowed:
            return None
        if levels > best:
            best = levels
    return best


def _check_cap(n: int) -> None:
    """Refuse a survival graph of Q_n past the bitset engine's range."""
    if n > _BITSET_LIMIT:
        raise ResourceLimitError(f"a survival graph of Q_{n} is above the cap of n = "
                                 f"{_BITSET_LIMIT}; use route_with_report (cube-faultlab route)")


@dataclass(frozen=True)
class SurvivalGraph:
    """Q_ambient with a set of vertex labels removed, for ambient <= 26.

    Build one from a fault family with from_family, which validates the
    family first, or directly from removed labels for ad-hoc
    experiments (vertex-set removals are exactly structure:0 families).
    """

    ambient: int
    removed: frozenset[int]

    def __post_init__(self) -> None:
        _check_ambient(self.ambient)
        _check_cap(self.ambient)
        size = 1 << self.ambient
        for w in self.removed:
            if not isinstance(w, int) or not 0 <= w < size:
                raise ValueError(f"removed label {w!r} out of range for Q_{self.ambient}")

    @classmethod
    def from_family(cls, family: FaultFamily) -> "SurvivalGraph":
        require_valid(family)
        _check_cap(family.ambient)  # before the faulty labels are listed
        return cls(family.ambient, frozenset(fault_bits(family)))

    @cached_property
    def removed_mask(self) -> int:
        buf = bytearray(((1 << self.ambient) + 7) >> 3)
        for w in self.removed:
            buf[w >> 3] |= 1 << (w & 7)
        return int.from_bytes(buf, "little")

    @cached_property
    def survivor_mask(self) -> int:
        return _full_mask(self.ambient) & ~self.removed_mask

    @property
    def survivor_count(self) -> int:
        return (1 << self.ambient) - len(self.removed)

    def _check_endpoint(self, v: Vertex, name: str) -> int:
        if v.dim != self.ambient:
            raise ValueError(f"{name} lives in Q_{v.dim}, graph in Q_{self.ambient}")
        if v.bits in self.removed:
            raise ValueError(f"{name} {v.pattern} is a removed vertex")
        return v.bits


def bfs_distance(g: SurvivalGraph, u: Vertex, v: Vertex) -> int | None:
    """Exact distance between two survivors, None when unreachable.

    Unreachability is reported as None, never as a large count.
    """
    ub = g._check_endpoint(u, "u")
    vb = g._check_endpoint(v, "v")
    visited, levels = _bfs_cover(g.ambient, g.survivor_mask, 1 << ub, stop=1 << vb)
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


def component_of(g: SurvivalGraph, v: Vertex) -> set[Vertex]:
    """All survivors reachable from v, including v itself; refused when
    its survivors, one Vertex each, would pass 128 MiB."""
    vb = g._check_endpoint(v, "v")
    n, count = g.ambient, g.survivor_count
    request = f"component_of over the {count:,} survivors of Q_{n}"
    other = "is_connected or bfs_distance, which build no Vertex per survivor"
    if count * _COMPONENT_BYTES << 3 > _MASK_TABLE_BITS:  # the element bitset table's budget
        raise ResourceLimitError(f"{request} would hold about {count * _COMPONENT_BYTES >> 20:,} "
                                 f"MiB, above {_MASK_TABLE_BITS >> 23} MiB; use {other}")
    visited, _ = _bfs_cover(n, g.survivor_mask, 1 << vb)
    # one linear pass over the binary digits, lowest vertex first
    bits = f"{visited:b}"[::-1]
    return {Vertex(w, n) for w, bit in enumerate(bits) if bit == "1"}
