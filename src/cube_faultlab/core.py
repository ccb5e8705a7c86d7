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

Ambient dimension is capped at 30 so every vertex set fits comfortably
in native integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

MAX_DIM = 30


def _check_ambient(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_DIM:
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
    chars = []
    for p in range(n - 1, -1, -1):
        if free_mask >> p & 1:
            chars.append("*")
        else:
            chars.append("1" if base >> p & 1 else "0")
    return "".join(chars)


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


def is_symmetric_pair(u: Vertex, v: Vertex) -> bool:
    """True when u and v differ in every coordinate (antipodal pair)."""
    return hamming(u, v) == u.dim


def common_neighbors(u: Vertex, v: Vertex) -> set[Vertex]:
    """Vertices adjacent to both u and v.

    The set has exactly two elements when hamming(u, v) == 2 (flip either
    differing coordinate of u) and is empty for every other distinct pair.
    """
    _check_same_cube(u, v)
    if u == v:
        raise ValueError("common_neighbors requires two distinct vertices")
    diff = u.bits ^ v.bits
    if diff.bit_count() != 2:
        return set()
    out = set()
    while diff:
        low = diff & -diff
        out.add(Vertex(u.bits ^ low, u.dim))
        diff ^= low
    return out


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

    @classmethod
    def point(cls, v: Vertex) -> "Subcube":
        return cls(0, v.bits, v.dim)

    @property
    def dim(self) -> int:
        return self.free_mask.bit_count()

    @property
    def vertex_count(self) -> int:
        return 1 << self.dim

    @property
    def pattern(self) -> str:
        return _format_pattern(self.free_mask, self.base, self.dim_ambient)

    def contains(self, v: Vertex | int) -> bool:
        bits = v.bits if isinstance(v, Vertex) else v
        return bits & ~self.free_mask == self.base

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


def subcube_vertices(s: Subcube) -> set[Vertex]:
    """The subcube's vertex set, as full-width vertices of the ambient cube."""
    return {Vertex(b, s.dim_ambient) for b in s.vertex_bits()}


def enumerate_subcubes(n: int, k: int) -> Iterator[Subcube]:
    """All k-dimensional subcubes of Q_n in canonical order.

    Canonical order is ascending free_mask, then ascending base, which
    makes enumeration and tie-breaking reproducible everywhere.  There
    are C(n, k) * 2^(n-k) of them.
    """
    _check_ambient(n)
    if not 0 <= k <= n:
        raise ValueError(f"subcube dimension must be in [0, {n}], got {k}")
    yield from _subcubes(n, k.__eq__)


def _subcubes(n: int, admits: Callable[[int], bool]) -> Iterator[Subcube]:
    """Subcubes of Q_n whose dimension passes `admits`, in canonical order.

    The dimension is tested per free mask, before any Subcube is built.
    """
    full = (1 << n) - 1
    for free in range(1 << n):
        if not admits(free.bit_count()):
            continue
        rest = full ^ free
        base = 0
        while True:
            yield Subcube(free, base, n)
            if base == rest:
                break
            base = (base - rest) & rest


@dataclass(frozen=True)
class HalfSplit:
    """The two halves of Q_n obtained by fixing one coordinate.

    half_zero and half_one are the (n-1)-dimensional subcubes with the
    split coordinate fixed to 0 and 1; the crossing edges pair each
    vertex of one half with its flip in the other, 2^(n-1) edges total.
    """

    split_dim: int
    half_zero: Subcube
    half_one: Subcube

    @property
    def ambient(self) -> int:
        return self.half_zero.dim_ambient

    def crossing_edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        n = self.ambient
        d = coord_bit(n, self.split_dim)
        for b in self.half_zero.vertex_bits():
            yield Vertex(b, n), Vertex(b | d, n)

    def side_of(self, v: Vertex | int) -> int:
        bits = v.bits if isinstance(v, Vertex) else v
        return 1 if bits & coord_bit(self.ambient, self.split_dim) else 0


def split(n: int, d: int) -> HalfSplit:
    """Split Q_n along coordinate x_d into its two (n-1)-dimensional halves."""
    bit = coord_bit(n, d)
    free = ((1 << n) - 1) ^ bit
    return HalfSplit(d, Subcube(free, 0, n), Subcube(free, bit, n))


@dataclass(frozen=True)
class Path:
    """A walk in Q_n whose consecutive labels differ in exactly one bit.

    length is the number of edges.  A single vertex is a valid path of
    length 0.
    """

    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        n = self.vertices[0].dim
        prev = None
        for v in self.vertices:
            if v.dim != n:
                raise ValueError("path vertices live in different cubes")
            if prev is not None and (prev.bits ^ v.bits).bit_count() != 1:
                raise ValueError(
                    f"consecutive path vertices must be adjacent: {prev} -> {v}"
                )
            prev = v

    @classmethod
    def from_bits(cls, labels: list[int] | tuple[int, ...], n: int) -> "Path":
        return cls(tuple(Vertex(b, n) for b in labels))

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def patterns(self) -> list[str]:
        return [v.pattern for v in self.vertices]
