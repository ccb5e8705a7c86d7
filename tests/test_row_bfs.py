"""The row-packed bitset BFS against plain one-BFS-at-a-time references.

Every diameter outside the row kernel is one metrics._batch_diameter
call: (largest diameter over the connected sets, first set attaining it,
the empty or cut sets).  At n <= 7 it runs every survivor of a batch of
sets as a source in one BFS, and once more without the cut sets when
there are any; at n >= 8 its one set runs only the smaller of two source
sets that two anchor BFSs leave open (metrics._fringe_diameter, checked
directly at small n too).  Anchor u is the lowest survivor, v the lowest
at distance e = ecc(u) from u, best = max(e, ecc(v)) and ℓ_a the
distance from a; the sets are the survivors farther than e // 2 from u
(iFUB's fringe) and those with ℓ_u + ℓ_v > best:
- a pair x, y farther apart than best has ℓ_a(x) + ℓ_a(y) > best for a = u, v;
- adding both, ℓ_u + ℓ_v > best at x or at y;
- so the diameter is the largest of best and those survivors' eccentricities.
The sources batched are counted too: none on the fault-free cube and the
tight families, the smaller set's size on seeded sets where either set
is the smaller.

The κ scan and the fault-diameter value walk are one loop,
oracle._row_scan, over one kernel, metrics._row_cover: one row per
family, each seeded at its lowest vertex (vertex 0 in every nonempty
value-walk row), an empty row at none.  The loop checks a batch of
candidate families per BFS over any stream of faults._iter_prefixes
triples, at n <= 6 building each prefix's candidate rows in one big-int
pass; as the κ scan it stops at the first cut row, and with `skip`, as
the value walk past kappa, it counts and skips every cut row, here also
with blocks that run on into the next BFS integer.  The κ scan is read
through a two-value helper, row_kappa_scan.  oracle._max_diameter
measures a batch of families per BFS (metrics._batch_diameter) over any
stream of (key, fault bitset) pairs, here the scans' one walk,
faults._base0_walk, expanded after the empty family, and as the witness
pass stops at a given diameter.  They must give exactly what a
per-source diameter scan and a per-family connectivity or diameter scan
give: the same diameters and None cases, the same witness indices and
the same families-scanned and skipped counts.  The references here build
their own neighbour masks vertex by vertex and run one BFS per source,
per row or per family; the diameter scan's reference is the
one-family-at-a-time loop over _diameter_mask.  The engine's tables are
checked too: the per-dimension masks against a long-division formula,
and a survival graph built from a family against one built from its
faulty labels.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import accumulate, islice

import pytest

from cube_faultlab import (
    FaultMode, InvariantViolation, SearchSpec, SurvivalGraph, adversarial_q1_family,
    adversarial_subcube_family, fault_diameter_bruteforce, sample_families,
)
from cube_faultlab import connectivity_bruteforce, metrics, oracle
from cube_faultlab.faults import (
    _anchored_walk, _base0_walk, _iter_prefixes, _max_family_size, _space, enumerate_families,
)
from cube_faultlab.oracle import _row_scan


@lru_cache(maxsize=None)
def ref_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(stride, vertices whose bit p is 0) per dimension, vertex by vertex."""
    return tuple(
        (1 << p, sum(1 << w for w in range(1 << n) if not w >> p & 1)) for p in range(n)
    )


def ref_bfs(n: int, allowed: int, source: int) -> tuple[int, int]:
    """(vertices reached, eccentricity) of one source inside `allowed`."""
    seen = frontier = 1 << source
    ecc = 0
    while True:
        nxt = 0
        for s, lo in ref_masks(n):
            nxt |= (frontier & lo) << s | (frontier >> s) & lo
        nxt &= allowed & ~seen
        if not nxt:
            return seen, ecc
        seen |= nxt
        frontier = nxt
        ecc += 1


def ref_distances(n: int, allowed: int, source: int) -> dict[int, int]:
    """Distance from `source` to every vertex it reaches inside `allowed`."""
    dist, seen, frontier, d = {}, 1 << source, 1 << source, 0
    while frontier:
        dist.update((w, d) for w in range(1 << n) if frontier >> w & 1)
        nxt = 0
        for s, lo in ref_masks(n):
            nxt |= (frontier & lo) << s | (frontier >> s) & lo
        frontier = nxt & allowed & ~seen
        seen |= frontier
        d += 1
    return dist


def ref_diameter(n: int, allowed: int) -> int | None:
    best = 0
    for w in range(1 << n):
        if allowed >> w & 1:
            seen, ecc = ref_bfs(n, allowed, w)
            if seen != allowed:
                return None
            best = max(best, ecc)
    return best


def ref_connected(n: int, allowed: int) -> bool:
    low = (allowed & -allowed).bit_length() - 1
    return ref_bfs(n, allowed, low)[0] == allowed


def ref_family_scan(n: int, families):
    """(first disconnecting key or None, families scanned) over (key,
    fault bitset) pairs, one family at a time."""
    full = (1 << (1 << n)) - 1
    scanned = 0
    for idx, acc in families:
        scanned += 1
        surv = full & ~acc
        if surv and not ref_connected(n, surv):
            return idx, scanned
    return None, scanned


def extend(masks, prefixes):
    """The (key, fault bitset) families of _iter_prefixes triples, candidate by candidate."""
    for prefix, acc, cands in prefixes:
        for i in cands:
            if not masks[i] & acc:
                yield prefix + (i,), acc | masks[i]


def ref_kappa_scan(n: int, label: str, size: int, firsts):
    """(witness indices, families scanned), one family at a time."""
    masks = _space(n, FaultMode.from_label(label)).masks
    return ref_family_scan(n, extend(masks, _iter_prefixes(masks, size, firsts)))


def row_kappa_scan(n: int, masks, prefixes):
    """oracle._row_scan as the κ scan: (first disconnecting key or None,
    families walked) over the _iter_prefixes triples `prefixes`."""
    _, walked, _, key = _row_scan(n, masks, prefixes)
    return key, walked


def kappa_scan(n: int, masks, size: int, firsts):
    """The κ scan over one size of the prefix walk."""
    return row_kappa_scan(n, masks, _iter_prefixes(masks, size, firsts))


def packings(n: int, label: str, size: int, firsts) -> list[int]:
    """Union bitset of every family whose first index is in `firsts`."""
    masks = _space(n, FaultMode.from_label(label)).masks
    return [acc for _, acc in extend(masks, _iter_prefixes(masks, size, firsts))]


def modes(n: int):
    yield FaultMode.structure(0)
    if n >= 3:
        yield FaultMode.substructure()
        for m in range(1, n - 1):
            yield FaultMode.structure(m)
            yield FaultMode.subcube(m)


def vertex_set(n: int, vertices) -> int:
    return sum(1 << w for w in vertices)


# ---------------------------------------------------------------------------
# tables


def division_masks(n: int, rows: int) -> tuple[tuple[int, int], ...]:
    """The per-dimension masks by long division, quadratic in 2^n."""
    full = (1 << (1 << n)) - 1
    rep = ((1 << (rows << n)) - 1) // full
    return tuple(
        (1 << p, full // ((1 << (2 << p)) - 1) * ((1 << (1 << p)) - 1) * rep) for p in range(n)
    )


@pytest.mark.parametrize("n", range(1, 17))
def test_lo_masks_match_the_division_formula(n):
    rows = metrics._rows_per_int(n)
    for r in {1, rows, min(1 << n, rows)}:
        assert metrics._lo_masks(n, r) == division_masks(n, r), r


def test_lo_masks_build_in_linear_time():
    # the division formula took 23.5 s here (2 vCPUs, Python 3.11.7)
    t0 = time.perf_counter()
    metrics._lo_masks.__wrapped__(22)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("n", [4, 6, 8, 22])
def test_removed_mask_is_the_union_of_the_elements(n):
    families = []
    if n == 22:
        families.append(adversarial_subcube_family(22, 19))
    else:
        for label in ("structure:0", "structure:1", "subcube:2", "substructure"):
            mode = FaultMode.from_label(label)
            families += sample_families(n, mode, mode.kappa(n) - 1, 4, seed=n)
    for fam in families:
        labels = (w for s in fam.elements for w in s.vertex_bits())
        assert SurvivalGraph.from_family(fam) == SurvivalGraph(n, labels)


# ---------------------------------------------------------------------------
# diameter


@lru_cache(maxsize=None)
def every_subset_diameter(n: int) -> tuple[int | None, ...]:
    """ref_diameter of every nonempty vertex set of Q_n, set s at s - 1."""
    return tuple(ref_diameter(n, allowed) for allowed in range(1, 1 << (1 << n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diameter_on_every_vertex_subset(n):
    for allowed, want in enumerate(every_subset_diameter(n), 1):
        assert metrics._diameter_mask(n, allowed) == want, bin(allowed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fringe_diameter_on_every_vertex_subset(n):
    for allowed, want in enumerate(every_subset_diameter(n), 1):
        assert metrics._fringe_diameter(n, allowed) == want, bin(allowed)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_diameter_on_seeded_subsets(n):
    """_diameter_mask and, below n = 8 where it is not the default,
    _fringe_diameter."""
    rng = random.Random(1_000 + n)
    full = (1 << (1 << n)) - 1
    cases = 12 if n <= 8 else 3
    seen_none = seen_value = False
    for _ in range(cases):
        quarter = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
        sparse_faults = full
        for _ in range(5):
            sparse_faults &= rng.getrandbits(1 << n)
        # a quarter of the vertices is usually cut apart; removing one
        # vertex in 32 usually is not
        for allowed in (quarter, full & ~sparse_faults):
            if not allowed:
                continue
            want = ref_diameter(n, allowed)
            seen_none |= want is None
            seen_value |= want is not None
            assert metrics._diameter_mask(n, allowed) == want
            assert metrics._fringe_diameter(n, allowed) == want
    assert seen_none and seen_value


@pytest.mark.parametrize("n", [5, 9])
def test_diameter_on_sampled_fault_families(n):
    for label in ("structure:1", "subcube:2", "structure:0"):
        mode = FaultMode.from_label(label)
        for fam in sample_families(n, mode, mode.kappa(n) - 1, 4, seed=n):
            faulty = (w for s in fam.elements for w in s.vertex_bits())
            allowed = (1 << (1 << n)) - 1 & ~vertex_set(n, faulty)
            assert metrics._diameter_mask(n, allowed) == ref_diameter(n, allowed)


@pytest.mark.parametrize("n", [9, 10])
def test_diameter_when_the_anchor_is_far_from_vertex_zero(n):
    """The anchor, the lowest survivor, lies past the first row batch's
    vertices 0 .. rows - 1; a vertex other than the anchor, or the
    anchor itself, is cut off."""
    rows = metrics._rows_per_int(n)
    assert rows < 1 << n  # several batches of sources
    full = (1 << (1 << n)) - 1
    head = (1 << rows) - 1  # vertices 0 .. rows - 1
    connected = full & ~head
    # vertex 3*rows + 1 cut off from the rest
    lone = 3 * rows + 1
    cut = connected & ~vertex_set(n, (lone ^ 1 << p for p in range(n)))
    # the lowest survivor, vertex `rows`, cut off
    cut_low = connected & ~vertex_set(n, (rows ^ 1 << p for p in range(n)))
    for allowed in (connected, full & ~(head << rows | head), cut, cut_low):
        assert (allowed & -allowed).bit_length() - 1 >= rows
        assert metrics._diameter_mask(n, allowed) == ref_diameter(n, allowed)
    assert metrics._diameter_mask(n, cut) is None
    assert metrics._diameter_mask(n, cut_low) is None


def test_diameter_around_a_removed_subcube():
    # 128 rows per BFS at n = 9; removing the Q_7 01******* empties
    # labels 128-255 and leaves the cube connected
    n = 9
    rows = metrics._rows_per_int(n)
    assert rows == 128
    allowed = (1 << (1 << n)) - 1 & ~(((1 << rows) - 1) << rows)
    want = ref_diameter(n, allowed)
    assert want is not None
    assert metrics._diameter_mask(n, allowed) == want


@pytest.mark.parametrize("n", [5, 6])
def test_fringe_diameter_with_every_batch_size(monkeypatch, n):
    """1 .. 2^n fringe sources to a BFS: the fringe splits into one
    batch, into full batches only and into full batches and a short
    final one."""
    rng = random.Random(3_000 + n)
    full = (1 << (1 << n)) - 1
    # the fault-free cube, a tight family (diameter n + 1), sets with an
    # eighth of the vertices removed and quarter sets
    sets = [full, SurvivalGraph.from_family(adversarial_q1_family(n)).survivor_mask]
    for _ in range(2):
        sets.append(full & ~(rng.getrandbits(1 << n) & rng.getrandbits(1 << n) & rng.getrandbits(1 << n)))
        sets.append(rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
    wants = [ref_diameter(n, allowed) for allowed in sets]
    assert None in wants and n + 1 in wants
    for rows in range(1, (1 << n) + 1):
        monkeypatch.setattr(metrics, "_ROW_BITS", rows << n)
        assert [metrics._fringe_diameter(n, allowed) for allowed in sets] == wants, rows


def count_source_rows(monkeypatch) -> list[int]:
    """Patch metrics._bfs_cover to record the size of the start set of
    every call with rows > 1: the sources of one diameter's batch."""
    seen, bfs = [], metrics._bfs_cover

    def counting(n, allowed, start, rows=1, *args, **kwargs):
        if rows > 1:
            seen.append(start.bit_count())
        return bfs(n, allowed, start, rows, *args, **kwargs)

    monkeypatch.setattr(metrics, "_bfs_cover", counting)
    return seen


@pytest.mark.parametrize("n", range(8, 16))
def test_the_cube_and_the_tight_families_need_no_source_batch(monkeypatch, n):
    """The two anchors settle these diameters alone: no survivor has
    ℓ_u + ℓ_v > best, so no source batch runs, where the e // 2 fringe
    holds more than a third of the survivors."""
    sets = [metrics._full_mask(n)] + [
        SurvivalGraph.from_family(fam).survivor_mask
        for fam in (adversarial_q1_family(n), adversarial_subcube_family(n, 2))
    ]
    batches = count_source_rows(monkeypatch)
    assert [metrics._diameter_mask(n, allowed) for allowed in sets] == [n, n + 1, n + 1]
    assert batches == []


# (mode, seed) of four sampled families at full budget, each with 3 more
# vertices removed: at every n some have survivors with ℓ_u + ℓ_v > best,
# and at n = 9 one has more of them than the e // 2 fringe holds
BOTH_SOURCE_SETS = {8: ("structure:3", 26), 9: ("structure:2", 18), 10: ("structure:2", 10)}


@pytest.mark.parametrize("n", sorted(BOTH_SOURCE_SETS))
def test_fringe_diameter_on_both_source_sets(monkeypatch, n):
    """The diameter against the reference, and the sources batched are
    the smaller of the two sets, both taken from reference distances."""
    label, seed = BOTH_SOURCE_SETS[n]
    mode = FaultMode.from_label(label)
    rng = random.Random(seed)
    batches = count_source_rows(monkeypatch)
    seen = set()
    for fam in sample_families(n, mode, mode.kappa(n) - 1, 4, seed=seed):
        allowed = SurvivalGraph.from_family(fam).survivor_mask
        for w in rng.sample([w for w in range(1 << n) if allowed >> w & 1], 3):
            allowed &= ~(1 << w)
        du = ref_distances(n, allowed, (allowed & -allowed).bit_length() - 1)
        assert len(du) == allowed.bit_count()
        eu = max(du.values())
        dv = ref_distances(n, allowed, min(w for w, d in du.items() if d == eu))
        best = max(eu, max(dv.values()))
        far = sum(du[w] + dv[w] > best for w in du)
        fringe = sum(d > eu // 2 for d in du.values())
        seen.add("none" if not far else "fewer" if far <= fringe else "more")
        batches.clear()
        assert metrics._fringe_diameter(n, allowed) == ref_diameter(n, allowed)
        assert sum(batches) == min(far, fringe)
    assert "fewer" in seen and (n != 9 or "more" in seen), seen


# ---------------------------------------------------------------------------
# connectivity batches


def scan_cases(n: int, label: str):
    """(size, firsts) for every size up to one past the largest family,
    at most 14 (sizes 15-17 of the mixed-dimension modes at n = 4 take
    seconds to walk), over the full index range and the base-0 first
    indices that connectivity_bruteforce passes."""
    mode = FaultMode.from_label(label)
    count = _space(n, mode).size
    firstses = [range(count), list(_space(n, mode).base0_indices())]
    for size in range(1, min(_max_family_size(n, mode) + 2, 15)):
        for firsts in firstses:
            yield size, firsts


@pytest.mark.parametrize(
    "n,label", [(n, mode.label) for n in (2, 3, 4) for mode in modes(n)]
)
def test_kappa_scan_matches_the_per_family_scan(n, label):
    mode = FaultMode.from_label(label)
    masks = _space(n, mode).masks
    for size, firsts in scan_cases(n, label):
        want = ref_kappa_scan(n, label, size, firsts)
        assert kappa_scan(n, masks, size, firsts) == want, (size, firsts)


@pytest.mark.parametrize("label", ["structure:1", "subcube:2"])
def test_kappa_scan_matches_the_per_family_scan_at_n5(label):
    mode = FaultMode.from_label(label)
    masks = _space(5, mode).masks
    count = len(masks)
    for size in range(1, 5):
        hit, scanned = ref_kappa_scan(5, label, size, range(count))
        assert kappa_scan(5, masks, size, range(count)) == (hit, scanned)
        if hit is not None:
            break
    assert hit is not None


@pytest.mark.parametrize("n,label,size", [(3, "structure:1", 2), (4, "structure:1", 3)])
def test_hit_position_inside_a_batch(monkeypatch, n, label, size):
    """Shrink the batches so the hit lands in every row position, in the
    last row of a full batch and in a short final batch."""
    mode = FaultMode.from_label(label)
    masks = _space(n, mode).masks
    count = len(masks)
    lo = ref_kappa_scan(n, label, size, range(count))[0][0]
    # the families whose first element is the witness's
    firsts = range(lo, lo + 1)
    hit, scanned = ref_kappa_scan(n, label, size, firsts)
    total = len(packings(n, label, size, firsts))
    assert hit is not None
    last_row = short_final = False
    for rows in range(1, total + 2):
        monkeypatch.setattr(metrics, "_ROW_BITS", rows << n)
        assert kappa_scan(n, masks, size, firsts) == (hit, scanned), rows
        batch_end = -(-scanned // rows) * rows
        last_row |= batch_end == scanned
        short_final |= batch_end > total
    assert last_row and short_final


@pytest.mark.parametrize("n,label", [(2, "structure:0"), (3, "subcube:1")])
def test_kappa_scan_on_every_size(n, label):
    """Past kappa too, where some families remove every vertex: those
    never count as disconnecting, also when they share a batch with a hit."""
    mode = FaultMode.from_label(label)
    masks = _space(n, mode).masks
    everything = range(len(masks))
    full = (1 << (1 << n)) - 1
    emptied = 0
    for size in range(1, (1 << n) + 1):
        want = ref_kappa_scan(n, label, size, everything)
        assert kappa_scan(n, masks, size, everything) == want, size
        emptied += packings(n, label, size, everything).count(full)
    assert emptied


@pytest.mark.parametrize("n", [5, 6])
def test_block_pass_on_seeded_firsts(n):
    """Three seeded first indices per mode and size up to kappa, the
    first 40 prefixes of each walk: hits and scans that find none."""
    rng = random.Random(4_000 + n)
    seen = set()
    for mode in modes(n):
        masks = _space(n, mode).masks
        for size in range(1, mode.kappa(n) + 1):
            firsts = sorted(rng.sample(range(len(masks)), 3))
            prefixes = list(islice(_iter_prefixes(masks, size, firsts), 40))
            want = ref_family_scan(n, extend(masks, iter(prefixes)))
            assert row_kappa_scan(n, masks, iter(prefixes)) == want, (mode.label, size, firsts)
            seen.add(want[0] is None)
    assert seen == {True, False}


def test_a_block_straddles_two_bfs_integers(monkeypatch):
    """With a few rows per BFS integer, a prefix's candidates run on into
    the next integer: the hit lies in such a continuation for some row
    counts, and a block straddles before the hit for others."""
    n, label, size = 4, "structure:1", 3
    masks = _space(n, FaultMode.from_label(label)).masks
    prefixes = list(_iter_prefixes(masks, size, range(len(masks))))
    want = ref_family_scan(n, extend(masks, iter(prefixes)))
    key = want[0]
    # the hit's row in the walk: the candidate rows of the earlier prefixes, then its offset
    at = next(k for k, (p, _, _) in enumerate(prefixes) if p == key[:-1])
    before = sum(len(c) for _, _, c in prefixes[:at])
    hit_row = before + key[-1] - prefixes[at][2].start
    continued = straddled = False
    for rows in range(2, 40):
        monkeypatch.setattr(metrics, "_ROW_BITS", rows << n)
        assert row_kappa_scan(n, masks, iter(prefixes)) == want, rows
        continued |= before // rows < hit_row // rows
        starts = accumulate([0] + [len(c) for _, _, c in prefixes[:at]])
        straddled |= any(a // rows < (a + len(c) - 1) // rows
                         for a, (_, _, c) in zip(starts, prefixes))
    assert continued and straddled


def test_a_prefix_whose_whole_tail_overlaps():
    """Prefixes none of whose candidates miss them add rows but no family."""
    n = 3
    masks = _space(n, FaultMode.structure(1)).masks
    prefixes = list(_iter_prefixes(masks, 3, range(len(masks))))
    dead = [p for p in prefixes if all(masks[i] & p[1] for i in p[2])]
    assert dead and len(dead[0][2]) == 8  # (00*, 11*) against every later edge
    assert row_kappa_scan(n, masks, iter(dead)) == (None, 0)
    for stream in (dead + prefixes, prefixes):
        want = ref_family_scan(n, extend(masks, iter(stream)))
        assert row_kappa_scan(n, masks, iter(stream)) == want


def test_a_family_that_leaves_no_survivors():
    """All eight vertices of Q_3, then the seven that leave vertex 0
    alone, ahead of the size-6 families: the emptying family is walked
    and counted, in the hit's BFS integer, but never the hit, and the
    lowest-bit seed of the next row borrows nothing from its row."""
    n = 3
    masks = _space(n, FaultMode.structure(0)).masks
    stream = [*_iter_prefixes(masks, 8, range(8)), *_iter_prefixes(masks, 7, [1]),
              *_iter_prefixes(masks, 6, range(8))]
    assert stream[0][0] == tuple(range(7)) and stream[1][0] == tuple(range(1, 7))
    want = ref_family_scan(n, extend(masks, iter(stream)))
    assert want[0] is not None and want[0] != tuple(range(8))
    assert row_kappa_scan(n, masks, iter(stream)) == want


def test_a_size_1_block_maps_its_hit_back_through_the_firsts(monkeypatch):
    """Size 1 is one prefix, the empty one, whose candidates are the
    first indices themselves, in one block gathered from the table.  No
    one subcube disconnects Q_n, so the elements here are vertex sets of
    Q_2: {0, 3} and {1, 2} each leave two non-adjacent vertices."""
    n, masks = 2, (0b0001, 0b1000, 0b1001, 0b0110)
    for firsts, want in (([0, 1, 2, 3], ((2,), 3)), ([1, 3], ((3,), 2)), ([0, 1], (None, 2)),
                         ([], (None, 0))):
        assert list(_iter_prefixes(masks, 1, firsts)) == [((), 0, tuple(firsts))]
        for rows in (1, 2, 3, 4):  # one row per integer: the block straddles every integer
            monkeypatch.setattr(metrics, "_ROW_BITS", rows << n)
            assert row_kappa_scan(n, masks, _iter_prefixes(masks, 1, firsts)) == want, (firsts, rows)


def test_the_prefix_walk_has_no_size_0():
    """The empty family has no last index, so the prefix walk refuses
    size 0 by name; enumerate_families still yields it once."""
    masks = _space(3, FaultMode.structure(1)).masks
    with pytest.raises(ValueError, match="got 0"):
        next(_iter_prefixes(masks, 0, range(len(masks))))
    for mode in modes(3):
        assert [f.patterns() for f in enumerate_families(3, mode, 0)] == [[]], mode.label


@pytest.mark.parametrize("n,label,kappa,scanned,witness", [
    (6, "structure:4", 2, 18, ["00****", "11****"]),
    (7, "structure:4", 3, 3021, ["000****", "011****", "101****"]),
])
def test_both_sides_of_the_block_pass_switch(n, label, kappa, scanned, witness):
    """n = 6 runs the block pass, n = 7 the per-family rows; both give the
    reference scan's witness and count over the same walk."""
    mode = FaultMode.from_label(label)
    res = connectivity_bruteforce(n, mode)
    assert (res.kappa, res.families_scanned, res.witness.patterns()) == (kappa, scanned, witness)
    space = _space(n, mode)
    walk = _base0_walk(space, mode, range(1, kappa + 1))
    key, count = ref_family_scan(n, extend(space.masks, walk))
    assert ([space[i].pattern for i in key], count) == (witness, scanned)


# ---------------------------------------------------------------------------
# diameter batches


def ref_max_diameter(space, mode, budget, families, stop=None):
    """The diameter scan one family at a time: (value, first key attaining
    it, families walked, families skipped), raising as the oracle does;
    with `stop`, up to the first family of diameter `stop`."""
    n = space.n
    budget_safe = budget < mode.kappa(n)
    full = (1 << (1 << n)) - 1
    best, best_key, walked, skipped = -1, None, 0, 0
    for key, faults in families:
        walked += 1
        surv = full & ~faults
        d = metrics._diameter_mask(n, surv) if surv else None
        if d is None:
            if budget_safe:
                pats = ", ".join(space[i].pattern for i in key)
                raise InvariantViolation(
                    f"family within the connectivity budget disconnected Q_{n} "
                    f"(mode {mode.label}): {pats}"
                )
            skipped += 1
        elif d > best:
            best, best_key = d, key
            if best == stop:
                break
    if best_key is None:
        raise InvariantViolation(
            f"every family within budget {budget} disconnected Q_{n} "
            f"(mode {mode.label}); no diameter is defined"
        )
    return best, best_key, walked, skipped


def exhaustive_walk(n: int, mode, budget: int) -> list[tuple[tuple[int, ...], int]]:
    """The (key, fault bitset) pairs fault_diameter_bruteforce walks."""
    space = _space(n, mode)
    return [((), 0), *extend(space.masks, _base0_walk(space, mode, range(1, budget + 1)))]


def batch_reference(n: int, sets: list[int]) -> tuple[int, int, list[int]]:
    """(largest diameter over the connected sets, index of the first set
    attaining it, indices of the empty or cut sets), one set at a time;
    (-1, -1, bad) when every set is bad."""
    diameters = [ref_diameter(n, s) if s else None for s in sets]
    bad = [i for i, d in enumerate(diameters) if d is None]
    best = max((d for d in diameters if d is not None), default=-1)
    return best, diameters.index(best) if best >= 0 else -1, bad


def diameter_cases():
    """(n, label, budget): every mode at budgets 0..kappa for n <= 4
    (kappa covers the skip path) and 0..kappa - 1 for n = 5."""
    for n in (2, 3, 4, 5):
        for mode in modes(n):
            kappa = mode.kappa(n)
            for budget in range(kappa + 1 if n <= 4 else kappa):
                yield n, mode.label, budget


@pytest.mark.parametrize("n,label,budget", list(diameter_cases()))
def test_batched_diameter_scan_matches_the_per_family_scan(monkeypatch, n, label, budget):
    mode = FaultMode.from_label(label)
    got = fault_diameter_bruteforce(n, mode, budget)
    monkeypatch.setattr(oracle, "_max_diameter", ref_max_diameter)
    assert fault_diameter_bruteforce(n, mode, budget) == got


@pytest.mark.parametrize(
    "n,label,budget,draws",
    [(3, "structure:1", 4, 300), (4, "structure:1", 3, 300), (5, "structure:1", 3, 200),
     (5, "subcube:2", 2, 200), (6, "structure:2", 3, 100), (7, "structure:3", 3, 30)],
)
def test_batched_sampled_search_matches_the_per_family_search(monkeypatch, n, label, budget, draws):
    """Past kappa, draws that disconnect Q_n (n = 3, 4) or remove all of
    it (four edges of Q_3) are skipped inside batches."""
    mode = FaultMode.from_label(label)
    spec = SearchSpec.sampled(n, draws)
    got = fault_diameter_bruteforce(n, mode, budget, spec)
    monkeypatch.setattr(oracle, "_max_diameter", ref_max_diameter)
    assert fault_diameter_bruteforce(n, mode, budget, spec) == got


@pytest.mark.parametrize("n,label,budget", [(3, "structure:0", 2), (4, "structure:1", 2)])
def test_diameter_hit_position_inside_a_batch(monkeypatch, n, label, budget):
    """Shrink the batches and cut the walk's head and tail so the first
    family at the maximum lands in every row of a batch, in a full
    batch and in a short final one; the witness pass's stop at the value
    counts the families up to it."""
    mode = FaultMode.from_label(label)
    space = _space(n, mode)
    walk = exhaustive_walk(n, mode, budget)
    value, key = ref_max_diameter(space, mode, budget, walk)[:2]
    hit = [k for k, _ in walk].index(key)
    assert hit >= 4 and value > n  # the empty family, first, is not the hit
    for per_int in (2, 3, 4):
        monkeypatch.setattr(metrics, "_ROW_BITS", per_int << 2 * n)
        rows, short_final = set(), False
        for start in range(hit + 1):
            for end in (hit + 1, len(walk)):
                families = walk[start:end]
                for stop in (None, value):
                    want = ref_max_diameter(space, mode, budget, families, stop)
                    assert oracle._max_diameter(space, mode, budget, iter(families), stop) == want
                rows.add((hit - start) % per_int)
                short_final |= end - start < -(-(hit - start + 1) // per_int) * per_int
        assert rows == set(range(per_int)) and short_final, per_int


@pytest.mark.parametrize("per_int", [2, 3, 4])
def test_emptied_families_are_skipped_inside_small_batches(monkeypatch, per_int):
    """Every family of up to four edges of Q_3, four at a time at most:
    some batches mix the perfect matchings, which remove every vertex,
    only with connected survivor sets."""
    mode = FaultMode.structure(1)
    space = _space(3, mode)
    walk = exhaustive_walk(3, mode, 4)
    monkeypatch.setattr(metrics, "_ROW_BITS", per_int << 6)
    want = ref_max_diameter(space, mode, 4, walk)
    assert oracle._max_diameter(space, mode, 4, iter(walk)) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_batch_diameter_on_seeded_sets(n):
    """Full and short batches of sparse-fault sets (usually connected),
    quarter sets (usually not), one cut set among connected ones, empty
    sets and batches of bad sets only.  Where a batch holds two sets
    (n <= 7) and a path of length 2 fits beside a lone vertex (n >= 3),
    such a cut set comes first, ahead of sets of diameter 0 and 1: its
    levels reach past theirs, so only the BFS run again without it gives
    the value and the index.  At n = 8 a batch is one set."""
    rng = random.Random(2_000 + n)
    full = (1 << (1 << n)) - 1
    per_int = metrics._diameter_batch(n)

    def sparse():
        faults = 0
        for _ in range(n - 1):
            faults |= 1 << rng.randrange(1 << n)
        return full & ~faults

    def quarter():
        return rng.getrandbits(1 << n) & rng.getrandbits(1 << n)

    # vertex 0 alone: its neighbours removed, a second survivor left
    cut = full & ~sum(1 << (1 << p) for p in range(n))
    seen = dict.fromkeys(["value", "cut", "empty", "all bad"], 0)
    cases = []
    for case in range(24):
        count = per_int if case % 2 else rng.randint(1, per_int)
        sets = [sparse() if case % 3 else quarter() for _ in range(count)]
        if case % 4 == 1:
            sets[rng.randrange(count)] = cut
        if case % 8 == 3:
            sets[rng.randrange(count)] = 0
        if case % 6 == 5:
            sets = [rng.choice([cut, 0]) for _ in range(count)]
        cases.append(sets)
    if n in range(3, 8):  # a batch holds four sets
        deep = vertex_set(n, [0, 1, 3, 6])  # the path 0-1-3, 2 levels deep, and vertex 6 alone
        cases.append([deep, 1, 0b11, 0])
    for case, sets in enumerate(cases):
        want = batch_reference(n, sets)
        assert metrics._batch_diameter(n, sets) == want, case
        seen["value" if not want[2] else "all bad" if want[0] < 0
             else "empty" if 0 in sets else "cut"] += 1
    if n in range(3, 8):
        assert want == (1, 2, [0, 3])
    assert all(seen.values()) if per_int > 1 else seen["value"] and seen["all bad"], seen


@pytest.mark.parametrize("n,label", [(n, mode.label) for n in (4, 5) for mode in modes(n)])
def test_a_scan_within_kappa_never_falls_back(monkeypatch, n, label):
    """At budget kappa - 1 no survivor set is empty or disconnected, so
    each witness-pass batch is settled by exactly one _bfs_cover; the
    pass runs when the value is above n."""
    bfs, batch_diameter = metrics._bfs_cover, oracle._batch_diameter
    counts = []

    def counting(n, sets):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(metrics, "_bfs_cover", lambda *args, **kw: calls.append(1) or bfs(*args, **kw))
            got = batch_diameter(n, sets)
        counts.append(len(calls))
        return got

    mode = FaultMode.from_label(label)
    monkeypatch.setattr(oracle, "_batch_diameter", counting)
    res = fault_diameter_bruteforce(n, mode, mode.kappa(n) - 1)
    assert res.families_scanned > 1
    assert set(counts) == ({1} if res.value > n else set()), counts


# ---------------------------------------------------------------------------
# value walk


def row_cover_reference(n: int, sets: list[int]) -> tuple[int, int]:
    """(largest eccentricity of a set's lowest vertex within its component,
    the vertices a BFS from it leaves unvisited, set r in row r), one set
    at a time; an empty set gets no BFS."""
    levels = unvisited = 0
    for r, s in enumerate(sets):
        if s:
            seen, ecc = ref_bfs(n, s, (s & -s).bit_length() - 1)
            levels = max(levels, ecc)
            unvisited |= (s ^ seen) << (r << n)
    return levels, unvisited


def check_row_cover(n: int, cases: list[list[int]]) -> dict[str, int]:
    """metrics._row_cover, the κ scan's and the value walk's one kernel,
    against row_cover_reference on every case's packed sets: levels and
    the unvisited set.  Returns how many sets of each kind it saw."""
    seen = dict.fromkeys(["empty", "with vertex 0", "without vertex 0", "cut"], 0)
    for case, sets in enumerate(cases):
        want = row_cover_reference(n, sets)
        assert metrics._row_cover(n, metrics._pack_rows(n, sets), len(sets)) == want, (case, sets)
        for s in sets:
            seen["empty" if not s else "cut" if not ref_connected(n, s)
                 else "with vertex 0" if s & 1 else "without vertex 0"] += 1
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_an_empty_row_is_never_the_hit(n):
    """_row_cover over 1..8 rows with an empty row first, in the middle,
    last and just before a row holding only vertex 0: the empty row gets
    no seed and takes no borrow from the next row's seed.  The other rows
    are the whole cube, so a wrong cut shows, or seeded random sets, so a
    right one does."""
    rng = random.Random(5_000 + n)
    full = (1 << (1 << n)) - 1
    cases = []
    for rows in range(1, 9):
        layouts = [(at, False) for at in {0, rows // 2, rows - 1}]
        layouts += [(at, True) for at in range(rows - 1)]
        for at, lone_next in layouts:
            for filler in ("whole", "random", "random"):
                sets = [full if filler == "whole" else rng.getrandbits(1 << n)
                        for _ in range(rows)]
                sets[at] = 0
                if lone_next:
                    sets[at + 1] = 1
                cases.append(sets)
    seen = check_row_cover(n, cases)
    assert seen["empty"] and seen["cut"] and seen["with vertex 0"], seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_anchored_cover_on_seeded_sets(n):
    """_row_cover over short and full integers of sets holding vertex 0
    (sparse faults, usually connected, quarter sets, usually not, and
    vertex 0 cut off), sets without vertex 0, seeded at their lowest
    vertex, and empty sets, which are never cut."""
    rng = random.Random(3_000 + n)
    full = (1 << (1 << n)) - 1

    def sparse():
        return full & ~sum(1 << rng.randrange(1, 1 << n) for _ in range(n - 1))

    def quarter():
        return rng.getrandbits(1 << n) & rng.getrandbits(1 << n)

    cut_off = full & ~sum(1 << (1 << p) for p in range(n))  # vertex 0's neighbours removed
    kinds = [sparse, lambda: quarter() | 1, lambda: quarter() & ~1 or 2, lambda: cut_off, lambda: 0]
    cases = []
    for case in range(16):
        count = metrics._rows_per_int(n) if case < 2 else rng.randint(1, 40)
        cases.append([rng.choice(kinds)() if case % 2 else sparse() for _ in range(count)])
    seen = check_row_cover(n, cases)
    assert all(seen.values()), seen


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_value_walk_rows_are_seeded_at_vertex_0(n):
    """No element of the value walk holds vertex 0, so every family it
    walks spares vertex 0, the lowest vertex of its row: _row_cover's
    lowest-vertex seed is the value walk's vertex-0 seed."""
    for mode in modes(n):
        _, masks, _ = _anchored_walk(_space(n, mode), mode, range(1, 2))
        assert masks and not any(mask & 1 for mask in masks), mode.label


def test_a_cut_row_never_reaches_the_value(monkeypatch):
    """One BFS integer holds two families of Q_4: one whose survivors fall
    apart, vertex 0's component 6 levels deep, and the vertex of weight
    4, whose ecc(0) is 3.  From budget kappa on the first is skipped and
    the value is n, not 6; within kappa it raises."""
    n, mode = 4, FaultMode.structure(0)
    full = (1 << (1 << n)) - 1
    apart = full & ~vertex_set(n, [0, 3, 4, 6, 9, 10, 13, 14, 15])
    assert ref_bfs(n, full & ~apart, 0) == (vertex_set(n, [0, 4, 6, 9, 10, 13, 14, 15]), 6)
    masks = (apart, 1 << 15)
    assert _row_scan(n, masks, _iter_prefixes(masks, 1, [0, 1]), skip=True) == (3, 2, 1, None)
    monkeypatch.setattr(oracle, "_anchored_walk",
                        lambda *args: ([1, 15], masks, _iter_prefixes(masks, 1, [0, 1])))
    res = fault_diameter_bruteforce(n, mode, mode.kappa(n))
    assert (res.value, res.witness.patterns(), res.families_scanned, res.disconnected_skipped) == (
        n, [], 3, 1)
    with pytest.raises(InvariantViolation, match=r"disconnected Q_4 \(mode structure:0\): 0001$"):
        fault_diameter_bruteforce(n, mode, mode.kappa(n) - 1)


@pytest.mark.parametrize("label", ["structure:0", "structure:1"])
def test_cut_rows_are_skipped_across_bfs_integers(monkeypatch, label):
    """The value walk of Q_4 at budget kappa, whose families include
    disconnecting ones (and, under structure:1, candidates that overlap
    their prefix), in one BFS integer and with 2..40 rows per integer:
    blocks run on into the next integer, and for some row counts a
    disconnecting family's row lies in such a continuation.  The largest
    ecc(0) and the families walked and skipped are the per-family
    reference's for every row count."""
    n, mode = 4, FaultMode.from_label(label)
    full = (1 << (1 << n)) - 1
    _, masks, prefixes = _anchored_walk(_space(n, mode), mode, range(1, mode.kappa(n) + 1))
    prefixes = list(prefixes)
    best = walked = 0
    cuts = []  # (first row of the block, row) of each disconnecting family
    starts = list(accumulate([0] + [len(c) for _, _, c in prefixes]))
    for start, (_, acc, cands) in zip(starts, prefixes):
        for row, i in enumerate(cands, start):
            if masks[i] & acc:
                continue
            walked += 1
            surv = full & ~(acc | masks[i])
            if ref_connected(n, surv):
                best = max(best, ref_bfs(n, surv, 0)[1])
            else:
                cuts.append((start, row))
    want = (best, walked, len(cuts), None)
    assert len(cuts) > 1 and starts[-1] <= metrics._rows_per_int(n)
    assert (walked < starts[-1]) == (label == "structure:1")  # overlapping candidates
    assert _row_scan(n, masks, iter(prefixes), skip=True) == want
    carried = False
    for rows in range(2, 41):
        monkeypatch.setattr(metrics, "_ROW_BITS", rows << n)
        assert _row_scan(n, masks, iter(prefixes), skip=True) == want, rows
        carried |= any(start // rows < row // rows for start, row in cuts)
    assert carried
