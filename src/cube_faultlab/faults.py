"""Vertex-disjoint subcube fault families and their admissible shapes.

A fault family is a set of pairwise vertex-disjoint subcubes of one
ambient cube, removed wholesale from Q_n.  Three admissibility modes
cover the regimes of interest:

* structure:m   every element is exactly a Q_m (m = 0 is the classical
                single-vertex fault model),
* substructure  every element is a Q_0 or a Q_1, i.e. any piece of a
                Q_1 structure,
* subcube:m     every element is a Q_k with k <= m (any piece of a Q_m
                structure).

Substructure admits exactly the elements of subcube:1, so it computes
as subcube:1: element spaces (core._ElementSpace) are cached per
admitted dimension set, so the oracles and samplers of both labels
index one space, and the claim catalog caches FaultMode.canonical,
which maps substructure to subcube:1.  The label is kept for parsing,
files and reports, which read better with the intended regime spelled
out.

The module also builds the two extremal families that make the known
fault-diameter bounds tight: a family of n-2 parallel edges that pins
two adjacent vertices into a corner of one half, and a family of
n-m-1 disjoint Q_m's that forces every route between two chosen
vertices to take n+1 steps.

A family's validity verdict (validate_family, require_valid) is
computed once per FaultFamily instance, on the (free_mask, base) ints
of its elements, and kept there: the router and
SurvivalGraph.from_family ask again on every call.  The memo is sound
because FaultFamily and Subcube are frozen and __post_init__ orders the
elements before anything reads them; dataclasses.replace gives a new
instance and a fresh verdict.  _first_meeting is the one disjointness
loop of the verdict and the sampler.

Text format: a family file starts with ``n=<n> mode=<label>`` and lists
one subcube pattern per line.  Blank lines and lines starting with '#'
are ignored.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .core import MAX_DIM, Subcube, _check_ambient, _element_space, _ElementSpace, coord_bit
from .errors import ResourceLimitError

_MODE_KINDS = ("structure", "substructure", "subcube")

SAMPLING_ATTEMPTS = 10_000


@dataclass(frozen=True)
class FaultMode:
    """Admissible element shapes for a fault family.

    kind is one of structure/substructure/subcube; m is the element
    dimension (exact for structure, an upper bound for subcube, absent
    for substructure).
    """

    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _MODE_KINDS:
            raise ValueError(f"unknown fault mode kind {self.kind!r}")
        if self.kind == "substructure":
            if self.m is not None:
                raise ValueError("substructure mode takes no element dimension")
        else:
            if not isinstance(self.m, int) or not 0 <= self.m <= MAX_DIM:
                raise ValueError(f"element dimension must be an int in [0, {MAX_DIM}], got {self.m!r}")
            if self.kind == "subcube" and self.m < 1:
                raise ValueError("subcube mode needs m >= 1; use structure:0 for vertex faults")

    @classmethod
    def structure(cls, m: int) -> "FaultMode":
        return cls("structure", m)

    @classmethod
    def substructure(cls) -> "FaultMode":
        return cls("substructure")

    @classmethod
    def subcube(cls, m: int) -> "FaultMode":
        return cls("subcube", m)

    @classmethod
    def from_label(cls, label: str) -> "FaultMode":
        """Parse 'structure:m', 'substructure', or 'subcube:m'."""
        kind, sep, rest = label.partition(":")
        if kind == "substructure" and not sep:
            return cls.substructure()
        if kind in ("structure", "subcube") and sep:
            try:
                m = int(rest)
            except ValueError:
                raise ValueError(f"bad element dimension in mode label {label!r}") from None
            return cls(kind, m)
        raise ValueError(f"bad mode label {label!r}")

    @property
    def label(self) -> str:
        return self.kind if self.m is None else f"{self.kind}:{self.m}"

    @property
    def canonical(self) -> "FaultMode":
        """subcube:1 for substructure (the same elements), else the mode itself."""
        return FaultMode.subcube(1) if self.kind == "substructure" else self

    @property
    def max_element_dim(self) -> int:
        return 1 if self.kind == "substructure" else self.m  # type: ignore[return-value]

    def admits(self, element_dim: int) -> bool:
        if self.kind == "structure":
            return element_dim == self.m
        return element_dim <= self.max_element_dim

    def kappa(self, n: int) -> int:
        """Connectivity of Q_n under this fault shape.

        The smallest number of disjoint admissible elements whose removal
        disconnects Q_n: n - m for structure:m and subcube:m (m <= n-2),
        n - 1 for substructure.  These are the values the brute-force
        oracle reproduces at desk scale.
        """
        _check_ambient(n)
        m = self.max_element_dim
        if m > n - 2:
            raise ValueError(f"mode {self.label} needs element dimension <= n-2 = {n - 2}")
        if self.kind == "structure" and m == 0:
            return n
        return n - m

    def __str__(self) -> str:
        return self.label


_element_key = attrgetter("free_mask", "base")  # canonical order; the int form


@dataclass(frozen=True)
class FaultFamily:
    """A tuple of subcube faults in Q_ambient, stored in canonical order.

    Canonical order is ascending (free_mask, base).  Construction does
    not enforce disjointness or mode admissibility; validate_family
    reports violations so that invalid input can be described rather
    than rejected blind.  The integer form and the verdict are computed
    on first use and kept on the instance.
    """

    elements: tuple[Subcube, ...]
    mode: FaultMode
    ambient: int

    def __post_init__(self) -> None:
        _check_ambient(self.ambient)
        for s in self.elements:
            if s.dim_ambient != self.ambient:
                raise ValueError(
                    f"element {s.pattern} lives in Q_{s.dim_ambient}, family in Q_{self.ambient}"
                )
        ordered = tuple(sorted(self.elements, key=_element_key))
        object.__setattr__(self, "elements", ordered)

    @classmethod
    def from_patterns(cls, patterns: Iterable[str], mode: FaultMode, n: int) -> "FaultFamily":
        elems = []
        for p in patterns:
            s = Subcube.from_pattern(p)
            if s.dim_ambient != n:
                raise ValueError(f"pattern {p!r} has width {s.dim_ambient}, expected {n}")
            elems.append(s)
        return cls(tuple(elems), mode, n)

    @property
    def size(self) -> int:
        return len(self.elements)

    def patterns(self) -> list[str]:
        return [s.pattern for s in self.elements]

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """(free_mask, base) of every element, in canonical order."""
        return tuple(map(_element_key, self.elements))

    @cached_property
    def _verdict(self) -> FamilyViolation | None:
        """validate_family's answer, computed once on the integer pairs."""
        pairs, elems = self._pairs, self.elements
        dims = _admitted(self.ambient, self.mode)
        for i, (fr, _) in enumerate(pairs):
            if fr.bit_count() not in dims:
                return FamilyViolation(
                    f"element of dimension {elems[i].dim} not admitted by mode {self.mode.label}",
                    (elems[i],),
                )
        for i, (fr, ba) in enumerate(pairs):
            hit = _first_meeting(pairs[i + 1:], fr, ba)
            if hit is not None:
                j = pairs.index(hit, i + 1)  # an equal pair before hit would have met first
                return FamilyViolation("elements intersect", (elems[i], elems[j]))
        return None


@dataclass(frozen=True)
class FamilyViolation:
    """First problem found in a family: what went wrong and which elements."""

    reason: str
    members: tuple[Subcube, ...]

    def __str__(self) -> str:
        pats = ", ".join(s.pattern for s in self.members)
        return f"{self.reason}: {pats}"


def _first_meeting(pairs: Iterable[tuple[int, int]], free: int, base: int) -> tuple[int, int] | None:
    """The first pair whose subcube meets the subcube (free, base), else None.

    Subcube.disjoint_from's test on (free_mask, base) ints: two subcubes
    meet iff their bases agree wherever both are fixed, that is iff
    (b1 ^ b2) & ~(f1 | f2) == 0.
    """
    for pair in pairs:
        f, b = pair
        if not (base ^ b) & ~(free | f):
            return pair
    return None


def validate_family(family: FaultFamily) -> FamilyViolation | None:
    """Check mode admissibility and pairwise disjointness.

    Returns None when the family is valid, otherwise a report naming the
    first offending element (in canonical order), or else the first
    intersecting pair (i, j) with i < j.  The verdict is computed once
    per family instance; later calls return the same object.
    """
    return family._verdict


def require_valid(family: FaultFamily) -> None:
    issue = family._verdict
    if issue is not None:
        raise ValueError(f"invalid fault family, {issue}")


def fault_bits(family: FaultFamily) -> set[int]:
    """Labels of all faulty vertices."""
    out: set[int] = set()
    for s in family.elements:
        out.update(s.vertex_bits())
    return out


def _half_faults(
    faults: Sequence[tuple[int, int]], p: int, side: int
) -> list[tuple[int, int]]:
    """Elements meeting the half with bit p == side, straddlers projected.

    Elements are (free_mask, base) pairs; one with bit p free straddles
    the split and becomes its face in the half, one with bit p fixed is
    kept when it lies in the half.  The result is in ascending order.
    """
    bit = 1 << p
    half = bit if side else 0
    keep = []
    for fr, ba in faults:
        if fr & bit:
            keep.append((fr ^ bit, ba | half))
        elif ba & bit == half:
            keep.append((fr, ba))
    keep.sort()
    return keep


def _drop_coordinate(mask: int, p: int) -> int:
    """Remove bit position p from a mask, closing the gap."""
    low = mask & ((1 << p) - 1)
    high = mask >> (p + 1)
    return high << p | low


def restrict_along(family: FaultFamily, d: int, h: int) -> FaultFamily:
    """The family's trace on one half of a split, as a Q_{n-1} family.

    Elements fixed to the other side vanish; straddling elements project
    to their face in the chosen half.  Coordinate x_d is dropped from
    the labels, so callers get an honest (n-1)-cube family.  The mode is
    kept when every surviving element still fits it and widened to
    subcube admissibility otherwise (a structure element loses a
    dimension when projected).
    """
    if h not in (0, 1):
        raise ValueError(f"half must be 0 or 1, got {h!r}")
    n = family.ambient
    if n < 2:
        raise ValueError("cannot restrict a 1-dimensional cube")
    p = coord_bit(n, d).bit_length() - 1  # validates d
    elems = [
        Subcube(_drop_coordinate(fr, p), _drop_coordinate(ba, p), n - 1)
        for fr, ba in _half_faults(family._pairs, p, h)
    ]
    mode = family.mode
    if mode.kind == "structure" and any(s.dim != mode.m for s in elems):
        mode = FaultMode.subcube(mode.m)
    return FaultFamily(tuple(elems), mode, n - 1)


def adversarial_q1_family(n: int) -> FaultFamily:
    """n-2 disjoint edges that leave one pinned edge in a far corner.

    Take x = 00...0 and z its flip in coordinate 1.  For each coordinate
    i in 2..n-1 the element is the edge {x^(i), z^(i)}, i.e. the subcube
    free in coordinate 1 with coordinate i set.  Removing the family
    disconnects the half with x_n = 0 (the component of x is exactly
    {x, z}), while Q_n itself stays connected with diameter n + 1: the
    family is one element below the substructure connectivity n - 1, and
    any route leaving {x, z} must first cross to the other half.
    """
    _check_ambient(n)
    if n < 4:
        raise ValueError("the pinned-edge family needs n >= 4")
    free = coord_bit(n, 1)
    elems = tuple(Subcube(free, coord_bit(n, i), n) for i in range(2, n))
    return FaultFamily(elems, FaultMode.structure(1), n)


def adversarial_subcube_family(n: int, m: int) -> FaultFamily:
    """n-m-1 disjoint Q_m's forcing a route of length n + 1.

    Position the cubes inside the half x_n = 0: element i (for i in
    1..n-m-1) is free in coordinates 1..m and has coordinate m+i set to
    1, every other coordinate 0.  Their removal disconnects that half,
    and in the whole cube every path from x = 00...0 to y = 11...10 has
    length at least n + 1, matching the fault-diameter upper bound for
    families of up to n - m - 1 subcubes of dimension at most m.
    """
    _check_ambient(n)
    if not 1 <= m <= n - 3:
        raise ValueError(f"need 1 <= m <= n-3, got m={m} for n={n}")
    free = 0
    for i in range(1, m + 1):
        free |= coord_bit(n, i)
    elems = tuple(
        Subcube(free, coord_bit(n, m + i), n) for i in range(1, n - m)
    )
    return FaultFamily(elems, FaultMode.subcube(m), n)


# ---------------------------------------------------------------------------
# element spaces, enumeration, sampling


@lru_cache(maxsize=None)
def _admitted(n: int, mode: FaultMode) -> tuple[int, ...]:
    """The element dimensions the mode admits in Q_n: its element-space key."""
    _check_ambient(n)
    return tuple(k for k in range(n + 1) if mode.admits(k))


def _space(n: int, mode: FaultMode) -> _ElementSpace:
    """The mode's element space in Q_n; substructure and subcube:1 share it."""
    return _element_space(n, _admitted(n, mode))


def element_space_size(n: int, mode: FaultMode) -> int:
    """Number of admissible elements, sum of C(n,k) * 2^(n-k) over admitted k."""
    return _space(n, mode).size


def enumerate_families(n: int, mode: FaultMode, size: int) -> Iterator[FaultFamily]:
    """All valid families of exactly `size` elements, in canonical order.

    Families are ascending index tuples into the canonical element
    space, emitted lexicographically; every emitted family is pairwise
    disjoint and mode-admissible by construction.
    """
    if size < 0:
        raise ValueError(f"family size must be >= 0, got {size}")
    space = _space(n, mode)
    for idx, _ in _iter_packings(space.masks, size, range(space.size)):
        yield FaultFamily(tuple(space[i] for i in idx), mode, n)


def _iter_packings(masks: tuple[int, ...], size: int, firsts: Iterable[int]):
    """Ascending index tuples of pairwise-disjoint elements.

    The first index runs over `firsts` (ascending), later ones over the
    rest of the space; yields (indices, union bitset).  Lexicographic
    order of the tuples is exactly the canonical family order.  Size 0
    yields the empty family once, whatever `firsts` is.  A prefix stops
    where too few indices remain to complete it, so the walk visits at
    most `size` prefixes per C(len(masks), size) candidate, and a size
    above len(masks) yields nothing at once.

    The walk keeps one index iterator per depth instead of recursing, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    if size == 0:
        yield (), 0
        return
    top = len(masks) - size  # index at depth d runs up to top + d
    if top < 0:
        return
    last = size - 1
    idx = [0] * size
    accs = [0] * size  # accs[d]: union of the elements idx[0..d]
    its = [iter(())] * size
    for first in firsts:
        if first > top:
            continue
        if last == 0:
            yield (first,), masks[first]
            continue
        idx[0], accs[0] = first, masks[first]
        depth, its[1] = 1, iter(range(first + 1, top + 2))
        while depth:
            acc = accs[depth - 1]
            for i in its[depth]:
                if not masks[i] & acc:
                    break
            else:
                depth -= 1
                continue
            idx[depth] = i
            if depth == last:
                yield tuple(idx), acc | masks[i]
            else:
                accs[depth] = acc | masks[i]
                depth += 1
                its[depth] = iter(range(i + 1, top + depth + 1))


def _sample_one(
    rng: random.Random, n: int, mode: FaultMode, space: _ElementSpace, size: int
) -> FaultFamily:
    """One rejection-sampled family.

    Every attempt draws `size` uniform indices of the canonical element
    space first, then keeps the draw when the elements are pairwise
    disjoint.
    """
    for _attempt in range(SAMPLING_ATTEMPTS):
        picks = [rng.randrange(space.size) for _ in range(size)]
        elems = _disjoint_elements(space, picks)
        if elems is not None:
            return FaultFamily(tuple(elems), mode, n)
    raise ResourceLimitError(
        f"could not draw a disjoint family of {size} {mode.label} elements "
        f"in Q_{n} within {SAMPLING_ATTEMPTS} attempts; lower the size"
    )


def _disjoint_elements(space: _ElementSpace, picks: list[int]) -> list[Subcube] | None:
    """The picked elements when they are pairwise disjoint, else None.

    Each pick is tested against the ones before it with the family
    verdict's own loop, _first_meeting, so a draw is dropped at its
    first clash.
    """
    elems: list[Subcube] = []
    pairs: list[tuple[int, int]] = []
    for i in picks:
        s = space[i]
        if _first_meeting(pairs, s.free_mask, s.base) is not None:
            return None
        elems.append(s)
        pairs.append((s.free_mask, s.base))
    return elems


def sample_families(
    n: int, mode: FaultMode, size: int, count: int, seed: int
) -> list[FaultFamily]:
    """Draw `count` valid families of `size` elements, reproducibly.

    Rejection sampling from a seeded generator: each attempt draws
    `size` indices uniformly from the canonical element space and keeps
    the draw when the elements are pairwise disjoint.  Indices are
    unranked arithmetically (core._ElementSpace), so neither the element
    space nor any vertex bitset is built and memory does not grow with
    n.  More than SAMPLING_ATTEMPTS rejections for a single family means
    the size is too close to the packing limit, and the caller gets a
    resource error rather than a silent stall.  A mode that admits no
    element of Q_n cannot give a nonempty family: ValueError.
    """
    if size < 0 or count < 0:
        raise ValueError("size and count must be >= 0")
    space = _space(n, mode)
    if size and not space.size:
        raise ValueError(f"mode {mode.label} admits no element of Q_{n}")
    rng = random.Random(seed)
    return [_sample_one(rng, n, mode, space, size) for _ in range(count)]


# ---------------------------------------------------------------------------
# text format


def family_to_text(family: FaultFamily) -> str:
    """Serialize as the family file format: header line, one pattern per line."""
    lines = [f"n={family.ambient} mode={family.mode.label}"]
    lines.extend(family.patterns())
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> FaultFamily:
    """Parse the family file format; inverse of family_to_text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty family text, expected an 'n=... mode=...' header")
    header = lines[0].split()
    fields = dict(part.partition("=")[::2] for part in header)
    if set(fields) != {"n", "mode"}:
        raise ValueError(f"bad family header {lines[0]!r}, expected 'n=<n> mode=<label>'")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"bad ambient dimension {fields['n']!r}") from None
    mode = FaultMode.from_label(fields["mode"])
    return FaultFamily.from_patterns(lines[1:], mode, n)


def write_family(family: FaultFamily, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(family_to_text(family))


def read_family(path: str | os.PathLike) -> FaultFamily:
    with open(path) as fh:
        return family_from_text(fh.read())
