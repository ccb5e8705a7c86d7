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
as subcube:1: an element space is defined by the admitted dimension
set (_admitted), so the oracles and samplers of both labels index
equal spaces, and a verify_claims run keys its scans by that set too.
The label is kept for parsing, files and reports, which read better
with the intended regime spelled out.

The module also builds the extremal families that make the known
fault-diameter bounds tight: a family of n-m-1 disjoint Q_m's that
forces every route between two chosen vertices to take n+1 steps.  At
m = 1 it is the Q_1 family of n-2 parallel edges that pins two
adjacent vertices into a corner of one half, tagged structure:1.

A FaultFamily builds its integer form at construction, in the pass
that sorts its elements: the (free_mask, base) ints, the largest
element dimension, the router's faulty-label table (bases grouped by
positive fixed mask) and the verdict of validate_family and
require_valid.  The router and SurvivalGraph.from_family read them on
every call (from_family ORs the same ints, core._union_mask).
FaultFamily and Subcube are frozen, and dataclasses.replace runs
__post_init__ again.  The route plan is the one memo, kept on first use:
it alone can refuse, and a refused family keeps nothing.  _first_meeting
is the one disjointness loop of the verdict and sampler.

Text format: a family file starts with ``n=<n> mode=<label>`` and lists
one subcube pattern per line.  Blank lines and lines starting with '#'
are ignored.
"""

from __future__ import annotations

import os
import random
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from math import comb
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .core import MAX_DIM, Subcube, _check_ambient, _ElementSpace, _submasks, coord_bit
from .errors import ResourceLimitError

_MODE_KINDS = ("structure", "substructure", "subcube")

SAMPLING_ATTEMPTS = 10_000
_PROBES, _PROBE_WORK = 200, 1 << 27  # Knuth probes; the most probes x size x E x 2^n run
_pair = attrgetter("free_mask", "base")  # a subcube's (free_mask, base), its canonical key


def _decimal(text: str, error: str) -> int:
    """int(text) when str() spells it back as `text`, else ValueError(error):
    '01', '+1', '1_0', ' 1' and non-ASCII digits are second spellings."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()) or str(int(text)) != text:
        raise ValueError(error)
    return int(text)


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
            if type(self.m) is not int or not 0 <= self.m <= MAX_DIM:
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
            return cls(kind, _decimal(rest, f"bad element dimension in mode label {label!r}"))
        raise ValueError(f"bad mode label {label!r}")

    @property
    def label(self) -> str:
        return self.kind if self.m is None else f"{self.kind}:{self.m}"

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
        return n - m

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class FaultFamily:
    """A tuple of subcube faults in Q_ambient, stored in canonical order.

    Canonical order is ascending (free_mask, base).  Construction does
    not enforce disjointness or mode admissibility; validate_family
    reports violations so that invalid input can be described rather
    than rejected blind.  The integer form and the verdict are built at
    construction; the route plan is the one memo, kept on first use.
    """

    elements: tuple[Subcube, ...]
    mode: FaultMode
    ambient: int

    def __post_init__(self) -> None:
        n, mode = self.ambient, self.mode
        _check_ambient(n)
        for s in self.elements:
            if not isinstance(s, Subcube):
                raise ValueError(f"family element {s!r} is not a Subcube")
            if s.dim_ambient != n:
                raise ValueError(f"element {s.pattern} lives in Q_{s.dim_ambient}, family in Q_{n}")
        elems = tuple(sorted(self.elements, key=_pair))
        pairs = tuple(map(_pair, elems))
        dims = [fr.bit_count() for fr, _ in pairs]
        verdict, groups, full = None, {}, (1 << n) - 1
        for s, (fr, ba), k in zip(elems, pairs, dims):
            if verdict is None and not mode.admits(k):
                verdict = FamilyViolation(
                    f"element of dimension {k} not admitted by mode {mode.label}", (s,))
            if 1 << k <= n:  # at most n vertices: listed under the fixed mask full
                groups.setdefault(full, set()).update(map(ba.__or__, _submasks(fr)))
            else:
                groups.setdefault(full ^ fr, set()).add(ba)
        end = 0  # the end of the run of pairs with the free mask fr
        for i, (fr, ba) in enumerate(pairs if verdict is None else ()):
            if i == end:
                end = bisect(pairs, (fr, 1 << n), i)
            if end > i + 1 and pairs[i + 1][1] == ba:  # in fr's run only an equal pair meets
                j = i + 1
            elif (hit := _first_meeting(pairs[end:], fr, ba)) is not None:
                j = pairs.index(hit, end)  # an equal pair before hit would have met first
            else:
                continue
            verdict = FamilyViolation("elements intersect", (elems[i], elems[j]))
            break
        self.__dict__.update(
            elements=elems, _pairs=pairs, _max_dim=max(dims, default=0), _verdict=verdict,
            _groups=tuple((fx, frozenset(bases)) for fx, bases in groups.items()))

    @classmethod
    def from_patterns(cls, patterns: Iterable[str], mode: FaultMode, n: int) -> "FaultFamily":
        return cls(tuple(map(Subcube.from_pattern, patterns)), mode, n)

    @property
    def size(self) -> int:
        return len(self.elements)

    def patterns(self) -> list[str]:
        return [s.pattern for s in self.elements]

    @cached_property
    def _route_plan(self) -> tuple[RouteBound, int]:
        """The router's bound certificate and root target; a refusal keeps nothing."""
        n, mode = self.ambient, self.mode
        budget, bound = _budget_and_bound(n, mode)
        if self.size > budget:
            raise ValueError(f"family size {self.size} exceeds the routing budget {budget} "
                             f"for mode {mode.label} in Q_{n}")
        return RouteBound(n, mode, bound), _target(n, self.size, self._max_dim)


@dataclass(frozen=True)
class RouteBound:
    """The bound certificate attached to a routing request."""

    n: int
    mode: FaultMode
    bound: int


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
    intersecting pair (i, j) with i < j.  The verdict is built with the
    family instance, so every call returns the same object.
    """
    return family._verdict


def require_valid(family: FaultFamily) -> None:
    issue = family._verdict
    if issue is not None:
        raise ValueError(f"invalid fault family, {issue}")


def _half_faults(
    faults: Sequence[tuple[int, int]], p: int, side: int
) -> tuple[list[tuple[int, int]], int]:
    """Elements meeting the half with bit p == side, straddlers projected,
    and their largest element dimension (0 when none meets it).

    Elements are (free_mask, base) pairs; one with bit p free straddles
    the split and becomes its face in the half, one with bit p fixed is
    kept when it lies in the half.  The result keeps the input order.
    """
    bit = 1 << p
    half = bit if side else 0
    keep, md = [], 0
    for pair in faults:
        fr, ba = pair
        if fr & bit:
            fr ^= bit
            pair = fr, ba | half
        elif ba & bit != half:
            continue
        keep.append(pair)
        if fr and fr.bit_count() > md:
            md = fr.bit_count()
    return keep, md


def _target(k: int, t: int, md: int) -> int:
    """Reachable route length in a dim-k context holding t faults of maximum
    element dimension md, 0 when they are over its budget.  Every context
    the router enters is within budget."""
    if t and (md > k - 2 or t > k - md - 1):
        return 0
    return k if t <= 1 or t <= k - md - 2 else k + 1


def route_bound(n: int, mode: FaultMode) -> int:
    """Guaranteed maximum route length for in-budget families of a mode:
    the root context's target at the full budget kappa - 1.  It equals the
    fault diameter: n in the tight regimes (vertex faults in tiny cubes,
    substructure faults in Q_3, element dimension n - 2), else n + 1."""
    return _budget_and_bound(n, mode)[1]


def _budget_and_bound(n: int, mode: FaultMode) -> tuple[int, int]:
    """The routing budget kappa - 1 (kappa validates the pairing) and route_bound."""
    budget = mode.kappa(n) - 1
    return budget, _target(n, budget, mode.max_element_dim)


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
        for fr, ba in _half_faults(family._pairs, p, h)[0]
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
    any route leaving {x, z} must first cross to the other half.  These
    are the elements of adversarial_subcube_family(n, 1).
    """
    _check_ambient(n)
    if n < 4:
        raise ValueError("the pinned-edge family needs n >= 4")
    return FaultFamily(adversarial_subcube_family(n, 1).elements, FaultMode.structure(1), n)


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


def _admitted(n: int, mode: FaultMode) -> tuple[int, ...]:
    """The element dimensions the mode admits in Q_n: its element-space key."""
    _check_ambient(n)
    return tuple(k for k in range(n + 1) if mode.admits(k))


def _space(n: int, mode: FaultMode) -> _ElementSpace:
    """A new element space of the mode in Q_n; substructure's equals subcube:1's."""
    return _ElementSpace(n, _admitted(n, mode))


def element_space_size(n: int, mode: FaultMode) -> int:
    """Number of admissible elements, sum of C(n,k) * 2^(n-k) over admitted k."""
    return _space(n, mode).size


def enumerate_families(n: int, mode: FaultMode, size: int) -> Iterator[FaultFamily]:
    """All valid families of exactly `size` elements, in canonical order.

    Families are ascending index tuples into the canonical element
    space, emitted lexicographically; every emitted family is pairwise
    disjoint and mode-admissible by construction.  The elements are
    listed in one ordered walk of the space (_ElementSpace.__iter__).
    """
    if size < 0:
        raise ValueError(f"family size must be >= 0, got {size}")
    space = _space(n, mode)
    masks = space.masks  # refused before anything is built when too large
    elems = tuple(space)
    walk = _extend(masks, _iter_prefixes(masks, size, range(space.size))) if size else [((), 0)]
    for idx, _ in walk:
        yield FaultFamily(tuple(map(elems.__getitem__, idx)), mode, n)


def _extend(masks: tuple[int, ...], prefixes):
    """The families of _iter_prefixes triples: each prefix with each candidate that misses it."""
    for prefix, acc, cands in prefixes:
        for i in cands:
            if not masks[i] & acc:
                yield prefix + (i,), acc | masks[i]


def _iter_prefixes(masks: tuple[int, ...], size: int, firsts: Iterable[int]):
    """The one family walk, which _extend expands: (prefix, union bitset,
    candidates) for every ascending tuple of `size` - 1 >= 0 disjoint
    elements that a family can extend, the first index in `firsts`
    (ascending).  Size 0 has no last index and raises: a caller adds the
    empty family itself.  The last index runs over `candidates`: the
    range of the rest of the space, or at size 1 the tuple of `firsts`.
    Prefix by prefix, then candidate by candidate, is the canonical
    family order.  A prefix stops where too few indices remain to
    complete it, so a size above len(masks) yields nothing at once.  One
    index iterator per depth, not recursion, so the interpreter's
    recursion limit does not bound the depth."""
    if size < 1:
        raise ValueError(f"a prefix walk needs family size >= 1, got {size}")
    top = len(masks) - size  # index at depth d runs up to top + d
    if top < 0:
        return
    if size == 1:
        yield (), 0, tuple(f for f in firsts if f <= top)
        return
    last = size - 2  # the depth of a prefix's last index
    idx, accs = [0] * (last + 1), [0] * (last + 2)  # accs[d]: the union of idx[:d]
    its, depth = [(f for f in firsts if f <= top)] + [iter(())] * last, 0
    while depth >= 0:
        acc = accs[depth]
        for i in its[depth]:
            if not masks[i] & acc:
                break
        else:
            depth -= 1
            continue
        idx[depth], accs[depth + 1] = i, acc | masks[i]
        if depth == last:
            yield tuple(idx), accs[depth + 1], range(i + 1, len(masks))
        else:
            depth += 1
            its[depth] = iter(range(i + 1, top + depth + 1))


def _max_family_size(n: int, mode: FaultMode) -> int:
    """2^n over the vertices of the smallest admitted element: no family is larger."""
    dims = _admitted(n, mode)
    return (1 << n) >> dims[0] if dims else 0


def _clip_sizes(n: int, mode: FaultMode, sizes: range) -> range:
    """`sizes` without those above _max_family_size(n, mode)."""
    return range(sizes.start, min(sizes.stop, _max_family_size(n, mode) + 1))


def _base0_walk(space: _ElementSpace, mode: FaultMode, sizes: range):
    """The walk of the exhaustive scans: the _iter_prefixes triples of
    every family of `space` of a size in _clip_sizes(sizes) whose first
    element contains vertex 0, sizes ascending, each in canonical order
    (sizes >= 1; the diameter scan adds the empty family).  The oracle
    module docstring proves that this translation reduction keeps every
    kappa, value and witness."""
    firsts, sizes = list(space.base0_indices()), _clip_sizes(space.n, mode, sizes)
    return chain.from_iterable(_iter_prefixes(space.masks, s, firsts) for s in sizes)


def _anchored_walk(space: _ElementSpace, mode: FaultMode, sizes: range):
    """The diameter scan's value walk: (space indices, bitsets,
    _iter_prefixes triples over _clip_sizes(sizes), all >= 1) of the
    elements sparing vertex 0, sorted by key (k, w), the popcounts of free
    mask and base, then index.  Each key's run starts with E_{k,w} (free
    bits 0..k-1, base bits k..k+w-1), the first indices, so a family is
    E_{k,w} and elements of keys >= (k, w) (oracle module docstring)."""
    # (k, w) as one int, by index: a block's j-th base is j deposited into its fixed bits
    keys = [f.bit_count() << 8 | j.bit_count() for f, _ in space._blocks()
            for j in range(1 << (space.n - f.bit_count()))]
    idx = sorted((i for i, key in enumerate(keys) if key & 255), key=keys.__getitem__)
    firsts = [at for at, i in enumerate(idx) if not at or keys[i] != keys[idx[at - 1]]]
    masks = tuple(map(space.masks.__getitem__, idx))
    sizes = _clip_sizes(space.n, mode, sizes)
    return idx, masks, chain.from_iterable(_iter_prefixes(masks, s, firsts) for s in sizes)


def _count_packings(n: int, mode: FaultMode, sizes: range, cap: int) -> int:
    """The families _base0_walk yields over `sizes`, or some count above `cap`.

    A bound sums C(E - 1 - first, s - 1) over the base-0 firsts, listed
    lazily, and stops above `cap`; above it _estimate_packings decides,
    unless the sizes are {0} (one empty family) or its probes would cost
    over _PROBE_WORK."""
    space, total = _space(n, mode), 0
    sizes = _clip_sizes(n, mode, sizes)
    for s in reversed(sizes):  # the largest layer first, so a cut comes soonest
        for f in space.base0_indices() if s else ():
            a, k = space.size - 1 - f, s - 1
            j = min(k, a - k)  # terms stop at 2^64 > cap: C(a, k) >= 2^64 once j >= 64
            total += 0 if j < 0 else 1 << 64 if j >= 64 else min(comb(a, j), 1 << 64)
            if total > cap:
                break
        if total > cap:
            break
    else:
        total += 0 in sizes  # the one empty family, last in the layer order
    if total <= cap or not sizes[-1] or _PROBES * sizes[-1] * space.size << n > _PROBE_WORK:
        return total
    return _estimate_packings(space, sizes)


def _estimate_packings(space: _ElementSpace, sizes: range) -> int:
    """Knuth's estimate of the families _base0_walk yields over `sizes`
    ("Estimating the efficiency of backtrack programs", Math. Comp. 29,
    1975).  A probe draws each child with p proportional to (later
    indices + 1)^(depth left); the product of the 1/p to depth s counts
    size s without bias.  The seed is fixed, so the verdict repeats.  A
    child is a later index whose (free, base) pair misses every draw."""
    rng, top, total, e = random.Random(0), sizes[-1], 0.0, space.size
    pairs = list(space.pairs())
    firsts = list(space.base0_indices())
    for _ in range(_PROBES):
        weight, children = 1.0, firsts
        for depth in range(1, top + 1):
            if not children:
                break
            cum = list(accumulate((e - j) ** (top - depth) for j in children))
            k = bisect(cum, rng.random() * cum[-1])
            weight *= cum[-1] / (cum[k] - (cum[k - 1] if k else 0))
            if depth in sizes:
                total += weight
            c = children[k]
            fr, ba = pairs[c]  # later children already miss the earlier draws
            later = range(c + 1, e) if depth == 1 else children[k + 1:]
            children = [j for j in later if (ba ^ pairs[j][1]) & ~(fr | pairs[j][0])]
    return round(min(total / _PROBES, 2.0**64)) + (0 in sizes)


def _sample_one(
    rng: random.Random, mode: FaultMode, space: _ElementSpace, size: int, limit: int
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """One rejection-sampled family of `space`: its ascending indices and
    its elements' (free, base) pairs, in draw order.

    Every attempt draws `size` uniform indices of the canonical element
    space first, then keeps the draw when the elements are pairwise
    disjoint.  A size above `limit`, the caller's _max_family_size(n,
    mode), is refused before any draw.
    """
    n = space.n
    if size > limit:
        raise ResourceLimitError(
            f"no family of {size} {mode.label} elements fits in Q_{n}; lower the size"
        )
    for _attempt in range(SAMPLING_ATTEMPTS):
        picks = [rng.randrange(space.size) for _ in range(size)]
        pairs = _disjoint_elements(space, picks)
        if pairs is not None:
            return tuple(sorted(picks)), pairs
    raise ResourceLimitError(
        f"could not draw a disjoint family of {size} {mode.label} elements "
        f"in Q_{n} within {SAMPLING_ATTEMPTS} attempts; lower the size"
    )


def _disjoint_elements(space: _ElementSpace, picks: list[int]) -> list[tuple[int, int]] | None:
    """The picked elements' (free, base) pairs when they are pairwise
    disjoint, else None.  Each pair meets the earlier ones in
    _first_meeting, the verdict's own loop."""
    pairs: list[tuple[int, int]] = []
    for i in picks:
        fr, ba = space._free_and_base(i)
        if _first_meeting(pairs, fr, ba) is not None:
            return None
        pairs.append((fr, ba))
    return pairs


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
    rng, limit = random.Random(seed), _max_family_size(n, mode)
    draws = (_sample_one(rng, mode, space, size, limit)[1] for _ in range(count))
    return [FaultFamily(tuple(Subcube(fr, ba, n) for fr, ba in pairs), mode, n) for pairs in draws]


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
    parts = [part.partition("=")[::2] for part in lines[0].split()]
    fields = dict(parts)
    if len(parts) != 2 or set(fields) != {"n", "mode"}:
        raise ValueError(f"bad family header {lines[0]!r}, expected 'n=<n> mode=<label>'")
    n = _decimal(fields["n"], f"bad ambient dimension {fields['n']!r}")
    mode = FaultMode.from_label(fields["mode"])
    return FaultFamily.from_patterns(lines[1:], mode, n)


def write_family(family: FaultFamily, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(family_to_text(family))


def read_family(path: str | os.PathLike) -> FaultFamily:
    with open(path) as fh:
        return family_from_text(fh.read())
