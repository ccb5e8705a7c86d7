"""The row-packed bitset BFS against plain one-BFS-at-a-time references.

metrics._diameter_mask runs many BFS sources per big integer, and
oracle._kappa_scan checks a batch of candidate families per BFS.  Both
must give exactly what a per-source diameter scan and a per-family
connectivity scan give: the same diameters and None cases, the same
witness indices and the same families-scanned counts.  The references
here build their own neighbour masks vertex by vertex and run one BFS
per source or per family.  The engine's tables are checked too: the
per-dimension masks against a long-division formula, and a survival
graph built from a family against one built from its faulty labels.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

from cube_faultlab import FaultMode, SurvivalGraph, adversarial_subcube_family, sample_families
from cube_faultlab import metrics
from cube_faultlab.faults import _space
from cube_faultlab.oracle import _iter_packings, _kappa_scan


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


def ref_kappa_scan(n: int, label: str, size: int, firsts):
    """(witness indices, families scanned), one family at a time."""
    masks = _space(n, FaultMode.from_label(label)).masks
    full = (1 << (1 << n)) - 1
    scanned = 0
    for idx, acc in _iter_packings(masks, size, firsts):
        scanned += 1
        surv = full & ~acc
        if surv and not ref_connected(n, surv):
            return idx, scanned
    return None, scanned


def packings(n: int, label: str, size: int, firsts) -> list[int]:
    """Union bitset of every family whose first index is in `firsts`."""
    masks = _space(n, FaultMode.from_label(label)).masks
    return [acc for _, acc in _iter_packings(masks, size, firsts)]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diameter_on_every_vertex_subset(n):
    for allowed in range(1, 1 << (1 << n)):
        assert metrics._diameter_mask(n, allowed) == ref_diameter(n, allowed), bin(allowed)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_diameter_on_seeded_subsets(n):
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
def test_diameter_when_the_lowest_survivor_is_past_block_zero(n):
    rows = metrics._rows_per_int(n)
    assert rows < 1 << n  # several source blocks
    full = (1 << (1 << n)) - 1
    head = (1 << rows) - 1  # every vertex of block 0
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


def test_diameter_skips_a_source_block_without_survivors():
    # 128 sources per block at n = 9; removing the Q_7 01******* empties
    # block 1 (labels 128-255) and leaves the cube connected
    n = 9
    rows = metrics._rows_per_int(n)
    assert rows == 128
    allowed = (1 << (1 << n)) - 1 & ~(((1 << rows) - 1) << rows)
    want = ref_diameter(n, allowed)
    assert want is not None
    assert metrics._diameter_mask(n, allowed) == want


# ---------------------------------------------------------------------------
# connectivity batches


def scan_cases(n: int, label: str):
    """(size, firsts) for every size up to the first disconnecting one,
    over the full index range and the base-0 first indices that
    connectivity_bruteforce passes."""
    mode = FaultMode.from_label(label)
    count = _space(n, mode).size
    firstses = [range(count), list(_space(n, mode).base0_indices())]
    for size in range(1, (1 << n) + 1):
        for firsts in firstses:
            yield size, firsts
        if ref_kappa_scan(n, label, size, range(count))[0] is not None:
            return


@pytest.mark.parametrize(
    "n,label", [(n, mode.label) for n in (2, 3, 4) for mode in modes(n)]
)
def test_kappa_chunk_matches_the_per_family_scan(n, label):
    mode = FaultMode.from_label(label)
    masks = _space(n, mode).masks
    for size, firsts in scan_cases(n, label):
        want = ref_kappa_scan(n, label, size, firsts)
        assert _kappa_scan(n, masks, size, firsts) == want, (size, firsts)


@pytest.mark.parametrize("label", ["structure:1", "subcube:2"])
def test_kappa_chunk_matches_the_per_family_scan_at_n5(label):
    mode = FaultMode.from_label(label)
    masks = _space(5, mode).masks
    count = len(masks)
    for size in range(1, 5):
        hit, scanned = ref_kappa_scan(5, label, size, range(count))
        assert _kappa_scan(5, masks, size, range(count)) == (hit, scanned)
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
        assert _kappa_scan(n, masks, size, firsts) == (hit, scanned), rows
        batch_end = -(-scanned // rows) * rows
        last_row |= batch_end == scanned
        short_final |= batch_end > total
    assert last_row and short_final


@pytest.mark.parametrize("n,label", [(2, "structure:0"), (3, "subcube:1")])
def test_kappa_chunk_on_every_size(n, label):
    """Past kappa too, where some families remove every vertex: those
    never count as disconnecting, also when they share a batch with a hit."""
    mode = FaultMode.from_label(label)
    masks = _space(n, mode).masks
    everything = range(len(masks))
    full = (1 << (1 << n)) - 1
    emptied = 0
    for size in range(1, (1 << n) + 1):
        want = ref_kappa_scan(n, label, size, everything)
        assert _kappa_scan(n, masks, size, everything) == want, size
        emptied += packings(n, label, size, everything).count(full)
    assert emptied
