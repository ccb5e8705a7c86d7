"""Bit-level model of the n-dimensional hypercube Q_n.

A vertex of Q_n is a binary string x_1 x_2 ... x_n.  Labels are stored
as machine integers with x_1 at the most significant position of the
active width, so the integer reads exactly like the string: in Q_3 the
string 110 is the integer 0b110 = 6.  Coordinate i (1-based) therefore
lives at bit position n - i, and pattern text converts with plain
binary formatting.  Two vertices are adjacent when their labels differ
in exactly one bit.

A subcube is the set of vertices that agree with a base label outside a
set of free coordinates.  It is stored as (free_mask, base) with
base & free_mask == 0; its dimension is the popcount of free_mask.  The
pattern form uses one character per coordinate: '0' or '1' for fixed
coordinates, '*' for free ones, so "0*1" in Q_3 is the edge {001, 011}.
A 0-dimensional subcube is a single vertex, which lets vertex faults
and subcube faults share one representation.

An element space is the list of subcubes of Q_n whose dimensions are
admitted, in canonical order: ascending free_mask, then ascending
base.  _ElementSpace indexes it by counting arithmetic alone and keeps
no per-index state; every enumeration, sampler and exhaustive scan of
the package walks it.  Each call builds its own space, so a vertex
bitset table lives only as long as the scan that needs it.

Ambient dimension is capped at 30 so every vertex set fits comfortably
in native integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import comb
from typing import Iterable, Iterator

from .errors import ResourceLimitError

MAX_DIM = 30


def _check_ambient(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be an int in [1, {MAX_DIM}], got {n!r}")


def coord_bit(n: int, i: int) -> int:
    """Mask of coordinate x_i inside an n-bit label (x_1 is most significant)."""
    _check_ambient(n)
    if not 1 <= i <= n:
        raise ValueError(f"coordinate index must be in [1, {n}], got {i}")
    return 1 << (n - i)


def _parse_pattern(text: str) -> tuple[int, int, int]:
    """Parse a {0,1,*} pattern into (free_mask, base, n)."""
    n = len(text)
    _check_ambient(n)
    free = base = 0
    for ch in text:
        free <<= 1
        base <<= 1
        if ch == "*":
            free |= 1
        elif ch == "1":
            base |= 1
        elif ch != "0":
            raise ValueError(f"pattern may contain only 0, 1, *; got {text!r}")
    return free, base, n


def _format_pattern(free_mask: int, base: int, n: int) -> str:
    # base is 0 on free coordinates, so a free one indexes "*"
    return "".join("01*"[(base >> p & 1) + 2 * (free_mask >> p & 1)] for p in range(n - 1, -1, -1))


@dataclass(frozen=True)
class Vertex:
    """A vertex of Q_dim, labeled by an integer in [0, 2^dim)."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        _check_ambient(self.dim)
        if not isinstance(self.bits, int) or not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"vertex label {self.bits!r} out of range for Q_{self.dim}")

    @classmethod
    def from_pattern(cls, text: str) -> "Vertex":
        free, base, n = _parse_pattern(text)
        if free:
            raise ValueError(f"vertex pattern may not contain '*': {text!r}")
        return cls(base, n)

    @property
    def pattern(self) -> str:
        return _format_pattern(0, self.bits, self.dim)

    def coordinate(self, i: int) -> int:
        """Value of x_i, either 0 or 1."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"coordinate index must be in [1, {self.dim}], got {i}")
        return self.bits >> (self.dim - i) & 1

    def __str__(self) -> str:
        return self.pattern


def _check_same_cube(u: Vertex, v: Vertex) -> None:
    if u.dim != v.dim:
        raise ValueError(f"vertices live in different cubes: Q_{u.dim} vs Q_{v.dim}")


def neighbor(v: Vertex, i: int) -> Vertex:
    """The vertex obtained from v by flipping coordinate x_i."""
    return Vertex(v.bits ^ coord_bit(v.dim, i), v.dim)


def hamming(u: Vertex, v: Vertex) -> int:
    """Number of coordinates in which u and v differ."""
    _check_same_cube(u, v)
    return (u.bits ^ v.bits).bit_count()


def _common_neighbor_bits(ub: int, vb: int) -> tuple[int, ...]:
    """Labels adjacent to both labels ub and vb: at Hamming distance 2,
    ub with either differing bit flipped (low bit first); otherwise none."""
    diff = ub ^ vb
    if diff.bit_count() != 2:
        return ()
    low = diff & -diff
    return ub ^ low, ub ^ diff ^ low


def common_neighbors(u: Vertex, v: Vertex) -> set[Vertex]:
    """Vertices adjacent to both u and v.

    The set has exactly two elements when hamming(u, v) == 2 (flip either
    differing coordinate of u) and is empty for every other distinct pair.
    """
    _check_same_cube(u, v)
    if u == v:
        raise ValueError("common_neighbors requires two distinct vertices")
    return {Vertex(w, u.dim) for w in _common_neighbor_bits(u.bits, v.bits)}


@dataclass(frozen=True)
class Subcube:
    """A subcube of Q_dim_ambient given by free coordinates and a base label.

    Membership: w is in the subcube iff w agrees with base outside
    free_mask.  dim() == 0 describes a single vertex.
    """

    free_mask: int
    base: int
    dim_ambient: int

    def __post_init__(self) -> None:
        _check_ambient(self.dim_ambient)
        full = (1 << self.dim_ambient) - 1
        if not 0 <= self.free_mask <= full:
            raise ValueError(f"free_mask {self.free_mask:#x} out of range for Q_{self.dim_ambient}")
        if not 0 <= self.base <= full:
            raise ValueError(f"base {self.base:#x} out of range for Q_{self.dim_ambient}")
        if self.base & self.free_mask:
            raise ValueError("base must be zero on free coordinates")

    @classmethod
    def from_pattern(cls, text: str) -> "Subcube":
        free, base, n = _parse_pattern(text)
        return cls(free, base, n)

    @property
    def dim(self) -> int:
        return self.free_mask.bit_count()

    @property
    def pattern(self) -> str:
        return _format_pattern(self.free_mask, self.base, self.dim_ambient)

    def contains(self, v: Vertex | int) -> bool:
        if isinstance(v, Vertex):
            if v.dim != self.dim_ambient:
                raise ValueError("vertex and subcube live in different cubes")
            v = v.bits
        return v & ~self.free_mask == self.base

    def vertex_bits(self) -> Iterator[int]:
        """Labels of the subcube's vertices, ascending."""
        free = self.free_mask
        sub = 0
        while True:
            yield self.base | sub
            if sub == free:
                return
            sub = (sub - free) & free

    def disjoint_from(self, other: "Subcube") -> bool:
        """True when the two subcubes share no vertex.

        They intersect iff their bases agree on every coordinate fixed in
        both, so a disagreement outside the union of free masks separates
        them.
        """
        if self.dim_ambient != other.dim_ambient:
            raise ValueError("subcubes live in different cubes")
        both_fixed = ~(self.free_mask | other.free_mask)
        return bool((self.base ^ other.base) & both_fixed)

    def __str__(self) -> str:
        return self.pattern


def enumerate_subcubes(n: int, k: int) -> Iterator[Subcube]:
    """All k-dimensional subcubes of Q_n in canonical order.

    Canonical order is ascending free_mask, then ascending base, which
    makes enumeration and tie-breaking reproducible everywhere.  There
    are C(n, k) * 2^(n-k) of them.
    """
    _check_ambient(n)
    if not 0 <= k <= n:
        raise ValueError(f"subcube dimension must be in [0, {n}], got {k}")
    yield from _ElementSpace(n, (k,))


def _vertex_mask(free: int, base: int) -> int:
    """Bitset of the subcube (free, base): bit w set iff vertex w is inside.
    Each free bit doubles the set by a shifted copy; base adds as an OR."""
    mask = 1
    while free:
        low = free & -free
        mask |= mask << low
        free ^= low
    return mask << base


def _union_mask(pairs: Iterable[tuple[int, int]]) -> int:
    """Bitset of the union of the pairwise disjoint subcubes (free, base)
    in `pairs`: disjoint bitsets add as they OR."""
    return sum(_vertex_mask(free, base) for free, base in pairs)


_MASK_TABLE_BITS = 1 << 30


class _ElementSpace:
    """The subcubes of Q_n whose dimension is in `dims`, in canonical order.

    This is the one definition of canonical order (ascending free mask,
    then ascending base): subcube and family enumeration, the samplers
    and the exhaustive scans all index it.  The size, the element at an
    index and the base-0 indices come from counting arithmetic alone,
    so the space is never built.  Free masks come in
    ascending order, so the walk over bit positions p = n-1..0 sets bit
    p exactly when i is past the elements whose mask agrees with the
    bits chosen so far and has bit p clear.  _counts[p][c] is that count
    when c bits are set above p: sum over j of C(p, j) * 2^(n-c-j), for
    admitted dimensions c + j.  The rest of i is the base's rank among
    the 2^(n-k) bases of the mask, so its bits are deposited into the
    fixed coordinates in ascending order.  The vertex-bitset table
    `masks`, which the exhaustive scans need, is built on first use,
    after a size check on the arithmetic alone.
    """

    def __init__(self, n: int, dims: tuple[int, ...]) -> None:
        self.n = n
        self._counts = tuple(
            tuple(
                sum(comb(p, j) << (n - c - j) for j in range(p + 1) if c + j in dims)
                for c in range(n - p + 1)
            )
            for p in range(n + 1)
        )
        self.size = self._counts[n][0]

    def __getitem__(self, i: int) -> Subcube:
        if not 0 <= i < self.size:
            raise IndexError(i)  # also ends `for s in space` (no __iter__)
        return Subcube(*self._free_and_base(i), self.n)

    def _free_and_base(self, i: int) -> tuple[int, int]:
        counts = self._counts
        free = c = 0
        for p in range(self.n - 1, -1, -1):
            below = counts[p][c]
            if i >= below:
                i -= below
                free |= 1 << p
                c += 1
        base = 0
        rest = ((1 << self.n) - 1) ^ free
        while i:
            low = rest & -rest
            if i & 1:
                base |= low
            i >>= 1
            rest ^= low
        return free, base

    def base0_indices(self) -> Iterator[int]:
        """The indices of the elements containing vertex 0, ascending and
        lazily, so a caller that stops early lists few of them.  A free
        mask of dimension k owns 2^(n-k) consecutive indices, its base-0
        element first.  The walk sets mask bits clear before set: a
        prefix with c bits set above p holds _counts[p][c] elements, so
        setting the next bit skips _counts[p - 1][c] of them."""
        counts, stack = self._counts, [(self.n, 0, 0)]
        while stack:
            p, c, at = stack.pop()  # a mask prefix above p, its set bits, its first index
            if counts[p][c]:
                if p:
                    stack += (p - 1, c + 1, at + counts[p - 1][c]), (p - 1, c, at)
                else:
                    yield at

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The vertex bitset of every element, by index: size * 2^n bits,
        refused above _MASK_TABLE_BITS before anything is allocated."""
        if self.size << self.n > _MASK_TABLE_BITS:
            raise ResourceLimitError(
                f"the vertex bitsets of {self.size} elements of Q_{self.n} exceed "
                f"{_MASK_TABLE_BITS} bits; use a smaller n, or sample_families"
            )
        return tuple(_vertex_mask(*self._free_and_base(i)) for i in range(self.size))


@dataclass(frozen=True)
class Path:
    """A walk in Q_n whose consecutive labels differ in exactly one bit.

    The int labels are validated; `vertices` is built on first access.
    length is the number of edges; a single vertex has length 0.
    """

    labels: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        labels, n = self.labels, self.n
        _check_ambient(n)
        if not labels:
            raise ValueError("a path needs at least one vertex")
        if not all(map(isinstance, labels, repeat(int))) or min(labels) < 0 or max(labels) >> n:
            bad = next(b for b in labels if not isinstance(b, int) or not 0 <= b < 1 << n)
            raise ValueError(f"vertex label {bad!r} out of range for Q_{n}")
        for a, b in zip(labels, labels[1:]):
            if (a ^ b).bit_count() != 1:
                raise ValueError(f"consecutive path vertices must be adjacent: "
                                 f"{a:0{n}b} -> {b:0{n}b}")

    @classmethod
    def from_bits(cls, labels: list[int] | tuple[int, ...], n: int) -> "Path":
        return cls(tuple(labels), n)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(Vertex(b, self.n) for b in self.labels)

    @property
    def length(self) -> int:
        return len(self.labels) - 1

    def patterns(self) -> list[str]:
        return [f"{b:0{self.n}b}" for b in self.labels]
