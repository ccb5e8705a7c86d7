"""Brute-force ground truth for connectivity and fault diameters.

Two questions are answered by exhaustion:

* connectivity: the smallest number of disjoint admissible faults whose
  removal disconnects Q_n (leaving a nonempty, non-connected survivor
  set), found by sweeping family sizes upward and scanning every
  placement, up to translation, in canonical order;
* fault diameter: the largest survivor diameter over every family of at
  most `budget` elements, including the empty family.

The exhaustive scans walk faults._iter_prefixes triples over an element
space built once per public scan and dropped, bitset table included,
when it returns (substructure's is subcube:1's).  The connectivity scan
and the diameter scan's witness pass read faults._base0_walk, in a fixed
order, so a witness is the first qualifying family walked; results and
witnesses carry the caller's mode.

Rows.  Both exhaustive row scans are one loop, _row_scan: each family
gets one 2^n-bit row, its survivor set, of an integer that one
row-packed BFS tests (metrics._row_cover, every row seeded at its lowest
survivor): the lowest survivor it leaves unvisited lies in the first
disconnected row.  An empty row, a family leaving no survivors, has no
seed and is never disconnected.  The scan stops at the first cut row;
with `skip` it flags the cut rows instead, counts them and keeps them out
of the level count by a second BFS without them.  At n <= 6 _row_blocks
flags a prefix's candidates that overlap it in one big-int pass: the
element table (element i in row i, built at the first non-empty prefix;
at size 1 the first indices' rows) shifted to the first candidate, ANDed
with the prefix union in every row, folded by n shift-ORs
(metrics._nonzero_rows).  Flagged rows are left empty and are not
counted.  At n >= 7 a padded row's BFS costs more than the Python it
saves, so each family's row is built alone.  _packed fills the BFS
integers with these blocks; one that runs on into the next integer goes
on under a shifted key.

Fault diameter: a value walk, then a witness pass.  The value walk is
_row_scan over faults._anchored_walk's families, which all spare vertex
0, so every nonempty row is seeded at vertex 0 and an integer's level
count is its largest ecc(0).  It skips disconnected families from
kappa on; below, it stops at the first, which raises.  The empty family
adds ecc(0) = n.  The witness pass is the translation-reduced loop
(_max_diameter over faults._base0_walk after the empty family), stopped
at the first family whose diameter is the value: at once when the value
is n.  families_scanned adds both parts' families, the empty one counted
once, in the witness pass; disconnected_skipped is the value walk's.

_max_diameter is the one loop over (key, fault bitset) pairs, keyed by
ascending element indices: the witness pass's packings and the sampled
search's accepted draws, walked to the end.  It hands each batch of
metrics._diameter_batch(n) families to metrics._batch_diameter, which
gives the batch's largest diameter, its first family at that value (so
ties keep the earliest) and its empty or disconnected families; the loop
raises on the first of those within the connectivity budget and counts
and skips them above it.  The sampled search (a SearchSpec passed as
`search`) is a library call only: the cli runs the exhaustive scan.

Translation reduction.  XOR by a vertex b is an automorphism of Q_n; it
maps an element (free, base) to (free, base ^ (b & ~free)), so it keeps
element dimensions, disjointness, survivor connectivity and diameters.
Let F be the first family of its size in canonical order that
disconnects, or that attains the maximum diameter, and let (f1, b1) be
its first element.  If b1 != 0, translating F by b1 gives a family
holding (f1, 0); every element of F has a free mask >= f1 and
translation keeps free masks, so that family's first element is
(f1, 0) < (f1, b1).  It comes earlier in canonical order and qualifies
too, contradicting the choice of F.  So the first qualifying family
starts with a base-0 element, i.e. one containing vertex 0, and the
connectivity scan and the witness pass let the first index run only
over those (_ElementSpace.base0_indices, one per admissible free mask).

Anchoring at vertex 0, reduced by S_n.  A connected survivor graph's
diameter is its largest eccentricity, and translation by a survivor u
maps its family to one that spares vertex 0, ecc(u) becoming ecc(0).  So
the value is the largest ecc(0) over the connected in-budget families
that spare vertex 0.  The coordinate permutations S_n fix vertex 0 and
keep dimensions, disjointness, connectivity and ecc(0).  An element
sparing vertex 0 has base != 0, and its S_n orbit is fixed by its key
(k, w), the popcounts of free mask and base: a permutation taking the
free bits to 0..k-1 and the base bits to k..k+w-1 maps it to E_{k,w}.
Applied to a family at one of its elements of least key (k, w), it gives
E_{k,w} with elements that spare vertex 0, miss E_{k,w} and have keys >=
(k, w): the families faults._anchored_walk walks.  Disconnection is kept
by both maps, so the raise-or-skip rule reads the same.  This is the
first level of orderly generation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998); only the first element is reduced.

Scans run in the calling process; the `jobs` keyword of
connectivity_bruteforce is accepted and ignored.  Each search is priced
first (metrics._check_time), from the element space's arithmetic
alone: the families of sizes 1..kappa, of sizes 0..budget, or the
draws, each at one survivor BFS or diameter.  Above one time limit it
is refused before any vertex bitset is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .core import _ElementSpace, _union_mask
from .errors import InvariantViolation
from .faults import (
    FaultFamily, FaultMode, _anchored_walk, _base0_walk, _count_packings, _extend, _max_family_size,
    _sample_one, _space,
)
from .metrics import (
    _CONNECTIVITY_US, _batch_diameter, _check_time, _diameter_batch, _diameter_us, _full_mask,
    _nonzero_rows, _pack_rows, _row_cover, _rows_per_int, _spaced_ones,
)


@dataclass(frozen=True)
class SearchSpec:
    """A sampled fault-diameter search: `draws` seeded random families."""

    seed: int
    draws: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not isinstance(self.draws, int):
            raise ValueError("sampled search needs an int seed and draw count")
        if self.draws < 1:
            raise ValueError("sampled search needs draws >= 1")

    @classmethod
    def sampled(cls, seed: int, draws: int) -> "SearchSpec":
        return cls(seed, draws)


@dataclass(frozen=True)
class ConnectivityResult:
    """Smallest disconnecting family size and the first family attaining it."""

    n: int
    mode: FaultMode
    kappa: int
    witness: FaultFamily
    families_scanned: int


@dataclass(frozen=True)
class FaultDiameterResult:
    """Worst survivor diameter over families within the budget.  An
    exhaustive scan counts the value walk's families and the witness
    pass's, to the witness, and the value walk's skipped ones."""

    n: int
    mode: FaultMode
    budget: int
    value: int
    witness: FaultFamily
    families_scanned: int
    disconnected_skipped: int


def _row_scan(
    n: int, masks: tuple[int, ...], prefixes, skip: bool = False
) -> tuple[int, int, int, tuple[int, ...] | None]:
    """(largest seed eccentricity, families walked, families skipped, key
    of the first disconnected family or None) over the
    faults._iter_prefixes triples `prefixes` of `masks`.  Without `skip`
    the scan stops at the first cut row r, counting the earlier integers'
    families, the rows before r without an overlap flag, and r itself;
    with it, cut rows are counted as skipped and a second BFS without
    them gives the levels."""
    full, best, walked, skipped = _full_mask(n), 0, 0, 0
    for packed, overs, used, blocks in _packed(n, _row_blocks(n, masks, prefixes)):
        levels, left = _row_cover(n, packed, used)
        if left and not skip:
            row = (left & -left).bit_length() - 1 >> n
            below = (overs & ((1 << (row << n)) - 1)).bit_count()
            start, key = next(b for b in reversed(blocks) if b[0] <= row)
            return best, walked + row - below + 1, skipped, key(row - start)
        if left:
            cut = _nonzero_rows(n, left, _spaced_ones(used, 1 << n))
            skipped += cut.bit_count()
            levels = _row_cover(n, packed & ~(cut * full), used)[0]
        best, walked = max(best, levels), walked + used - overs.bit_count()
    return best, walked, skipped, None


def _packed(n: int, pieces):
    """(rows, overlap flags, row count, blocks) per BFS integer of the
    _row_blocks pieces `pieces`, a block being (first row, key).  Blocks
    fill integers of _rows_per_int(n) rows; one that overfills an integer
    goes on in the next, its key shifted past the rows taken."""
    per_int, carry = _rows_per_int(n), None
    while True:
        packed, overs, used, blocks = 0, 0, 0, []
        while used < per_int and (carry or (carry := next(pieces, None))):
            key, count, rows, over = carry
            take, carry = min(count, per_int - used), None
            if take < count:  # the rest goes on in the next integer
                carry = (lambda i, k=key, t=take: k(i + t), count - take,
                         rows >> (take << n), over >> (take << n))
                rows, over = rows & (cut := (1 << (take << n)) - 1), over & cut
            packed, overs = packed | rows << (used << n), overs | over << (used << n)
            blocks.append((used, key))
            used += take
        if not used:
            return
        yield packed, overs, used, blocks


def _row_blocks(n: int, masks: tuple[int, ...], prefixes):
    """(key of a row position, row count, rows, overlap flags) per block:
    a prefix's candidates at n <= 6, one BFS integer's families above.  A
    candidate that overlaps its prefix is flagged, its row empty."""
    full, size = _full_mask(n), len(masks)
    if n > 6:  # a padded row's BFS costs more than the Python it saves (module docstring)
        families = _extend(masks, prefixes)
        while batch := list(islice(families, _rows_per_int(n))):
            rows = _pack_rows(n, [full & ~acc for _, acc in batch])
            yield lambda i, b=batch: b[i][0], len(batch), rows, 0
        return
    table, every = 0, _spaced_ones(size, 1 << n)
    for prefix, acc, cands in prefixes:  # a size-1 block gathers its rows, so needs no table
        ones = every >> ((size - len(cands)) << n)
        if prefix:
            table = table or _pack_rows(n, list(masks))
        tail = table >> (cands.start << n) if prefix else _pack_rows(n, [masks[i] for i in cands])
        accs = acc * ones
        over = _nonzero_rows(n, tail & accs, ones)
        rows = ~(accs | tail) & (ones ^ over) * full
        yield lambda i, p=prefix, c=cands: p + (c[i],), len(cands), rows, over


def connectivity_bruteforce(n: int, mode: FaultMode, jobs: int = 1) -> ConnectivityResult:
    """Exact connectivity of Q_n under `mode`, by exhausting family sizes.

    Walks the valid families of 1..kappa elements, sizes ascending; the
    first disconnecting one fixes kappa as its size.  Disconnection
    requires survivors: a removal that leaves a single component, or
    nothing at all, does not count.

    Only families whose first element contains vertex 0 are walked; by
    translation symmetry that gives the kappa and witness of a scan
    over every family (see the module docstring).  `jobs` is accepted
    and ignored.
    """
    kappa = mode.kappa(n)  # also validates the (n, mode) pairing
    _check_time(  # a family costs at least one BFS, 2^-n of a diameter
        f"connectivity of Q_{n} under {mode.label}",
        lambda m: max(_CONNECTIVITY_US, _diameter_us(m) / (1 << m)),
        lambda m, cap: _count_packings(m, mode, range(1, mode.kappa(m) + 1), cap),
        n, "--n", mode.max_element_dim + 2,
        f"FaultMode.kappa, the proved closed form kappa = n - m = {kappa}",
    )
    space = _space(n, mode)
    _, scanned, _, key = _row_scan(n, space.masks, _base0_walk(space, mode, range(1, kappa + 1)))
    if key is None:
        raise InvariantViolation(
            f"no family of at most kappa = {kappa} elements disconnects Q_{n} under mode {mode.label}"
        )
    witness = FaultFamily(tuple(map(space.__getitem__, key)), mode, n)
    return ConnectivityResult(n, mode, len(key), witness, scanned)


def fault_diameter_bruteforce(
    n: int,
    mode: FaultMode,
    budget: int,
    search: SearchSpec | None = None,
) -> FaultDiameterResult:
    """Worst diameter of Q_n minus any family of at most `budget` elements.

    The empty family is included, so the result is at least the fault-free
    diameter n.  Under budget <= kappa - 1 every searched family must leave
    the survivors connected; a disconnection there raises, since it
    contradicts the connectivity value.  With a larger budget,
    disconnecting families are skipped and counted instead, because the
    maximum is over connected survivor graphs only.

    An exhaustive scan takes the value from the largest ecc(0) over the
    families that spare vertex 0, reduced by S_n, and the witness from
    the translation-reduced walk, stopped at the first family attaining
    the value; both are those of a scan over every family (see the
    module docstring).  `search=None` runs that scan; a SearchSpec walks
    its seeded draws instead, which gives a lower bound.
    """
    mode.kappa(n)  # validates the (n, mode) pairing
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if search is not None:
        _check_time(
            f"a sampled fault-diameter search of Q_{n} ({search.draws} draws)",
            lambda _: _diameter_us(n), lambda d, cap: d, search.draws, "draws", 1,
        )
    else:
        _check_time(
            f"an exhaustive fault-diameter search of Q_{n} under {mode.label} "
            f"at budget {budget}", lambda _: _diameter_us(n),
            lambda b, cap: _count_packings(n, mode, range(b + 1), cap), budget, "--budget",
        )
    space = _space(n, mode)  # after the request is priced
    if search is not None:
        families = _sampled_families(space, mode, budget, search)
        value, key, scanned, skipped = _max_diameter(space, mode, budget, families)
    else:
        idx, masks, prefixes = _anchored_walk(space, mode, range(1, budget + 1))
        value, scanned, skipped, key = _row_scan(n, masks, prefixes, skip=budget >= mode.kappa(n))
        if key is not None:
            raise _disconnected(space, mode, [idx[i] for i in key])
        value = max(n, value)  # the empty family's ecc(0) is n
        key = ()  # the witness pass's first family, the empty one, has diameter n
        if value > n:
            families = _extend(space.masks, _base0_walk(space, mode, range(1, budget + 1)))
            _, key, witnessed, _ = _max_diameter(space, mode, budget, families, value)
            scanned += witnessed
        scanned += 1
    witness = FaultFamily(tuple(map(space.__getitem__, key)), mode, n)
    return FaultDiameterResult(n, mode, budget, value, witness, scanned, skipped)


def _disconnected(space: _ElementSpace, mode: FaultMode, key: tuple[int, ...]) -> InvariantViolation:
    pats = ", ".join(space[i].pattern for i in key)
    return InvariantViolation(
        f"family within the connectivity budget disconnected Q_{space.n} (mode {mode.label}): {pats}"
    )


def _sampled_families(
    space: _ElementSpace, mode: FaultMode, budget: int, search: SearchSpec
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Seeded random walk over the family space; a lower bound on the max.

    Each draw picks a size uniformly in [0, budget], then
    rejection-samples a family of that size (faults._sample_one, which
    unranks its draws without building the element space's bitset
    table) and yields its ascending indices with its fault bitset, as
    _base0_walk does.  Deterministic for a fixed seed and draw count.
    """
    rng = random.Random(search.seed)
    limit = _max_family_size(space.n, mode)
    for _ in range(search.draws):
        idx, pairs = _sample_one(rng, mode, space, rng.randint(0, budget), limit)
        yield idx, _union_mask(pairs)


def _max_diameter(
    space: _ElementSpace, mode: FaultMode, budget: int,
    families: Iterator[tuple[tuple[int, ...], int]], stop: int | None = None,
) -> tuple[int, tuple[int, ...], int, int]:
    """The one diameter-scan loop, over (ascending indices, fault bitset)
    pairs of `space`.

    Returns (value, first key attaining it, families walked, families
    skipped).  A family whose survivor set is disconnected or empty is
    skipped; within the connectivity budget that contradicts kappa and
    raises, naming the family's elements.  Errors name the caller's mode.
    With `stop`, the loop ends at the first family of diameter `stop`,
    which the counts end with.
    """
    n = space.n
    budget_safe = budget < mode.kappa(n)
    full, per_batch = _full_mask(n), _diameter_batch(n)
    best, best_key, walked, skipped = -1, None, 0, 0
    while batch := list(islice(families, per_batch)):
        value, at, bad = _batch_diameter(n, [full & ~faults for _, faults in batch])
        if value == stop and value > best:  # the counts end at the stopping family
            batch, bad = batch[:at + 1], [i for i in bad if i < at]
        if bad and budget_safe:
            raise _disconnected(space, mode, batch[bad[0]][0])
        skipped += len(bad)
        walked += len(batch)
        if value > best:
            best, best_key = value, batch[at][0]
            if best == stop:
                return best, best_key, walked, skipped
    if best_key is None:
        raise InvariantViolation(
            f"every family within budget {budget} disconnected Q_{n} "
            f"(mode {mode.label}); no diameter is defined"
        )
    return best, best_key, walked, skipped
