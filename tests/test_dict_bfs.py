"""The bitset engine against a plain dict BFS, and the router's BFS.

The reference below walks neighbours one flip at a time with a dict of
distances and shares no code with metrics.  It is compared with
bfs_distance, is_connected and component_of on the same survival graphs:
every vertex subset at n <= 3, seeded subsets (connected and
disconnected) at n = 4..8.  router._bfs_route, the package's one dict
BFS, is checked for shortest paths against bfs_distance.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from cube_faultlab import (
    FaultMode,
    SurvivalGraph,
    Vertex,
    bfs_distance,
    component_of,
    is_connected,
    sample_families,
)
from cube_faultlab import router


def ref_distances(n: int, removed: frozenset[int], start: int) -> dict[int, int]:
    """Distance from `start` to every survivor it reaches."""
    dist = {start: 0}
    queue = deque((start,))
    while queue:
        w = queue.popleft()
        for p in range(n):
            x = w ^ (1 << p)
            if x not in dist and x not in removed:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


def answers(g: SurvivalGraph, survivors: list[int], pairs) -> tuple:
    n = g.ambient
    comps = [component_of(g, Vertex(w, n)) for w in survivors]
    dists = [bfs_distance(g, Vertex(u, n), Vertex(v, n)) for u, v in pairs]
    return is_connected(g), comps, dists


def reference(n: int, removed: frozenset[int], survivors: list[int], pairs) -> tuple:
    comps = [sum(1 << x for x in ref_distances(n, removed, w)) for w in survivors]
    dists = [ref_distances(n, removed, u).get(v) for u, v in pairs]
    return comps[0].bit_count() == len(survivors), comps, dists


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_vertex_subset(n):
    size = 1 << n
    for keep in range(1, 1 << size):
        removed = frozenset(w for w in range(size) if not keep >> w & 1)
        survivors = [w for w in range(size) if keep >> w & 1]
        pairs = [(u, v) for u in survivors for v in survivors]
        g = SurvivalGraph(n, removed)
        assert answers(g, survivors, pairs) == reference(n, removed, survivors, pairs)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_seeded_subsets(n):
    rng = random.Random(n)
    size = 1 << n
    seen = set()
    for _ in range(12):
        density = rng.uniform(0.05, 0.6)
        removed = frozenset(w for w in range(size) if rng.random() < density)
        if len(removed) == size:
            continue
        g = SurvivalGraph(n, removed)
        survivors = [w for w in range(size) if w not in removed]
        pairs = [(rng.choice(survivors), rng.choice(survivors)) for _ in range(40)]
        want = reference(n, removed, survivors, pairs)
        assert answers(g, survivors, pairs) == want
        seen.add(want[0])
    assert seen == {True, False}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_router_bfs_is_shortest(n):
    rng = random.Random(100 + n)
    labels = ["substructure", "structure:0"]
    labels += [f"structure:{m}" for m in range(1, n - 1)]
    labels += [f"subcube:{m}" for m in range(1, n - 1)]
    for label in labels:
        mode = FaultMode.from_label(label)
        for size in range(mode.kappa(n)):
            for fam in sample_families(n, mode, size, 3, rng.randrange(1 << 30)):
                g = SurvivalGraph.from_family(fam)
                survivors = [w for w in range(1 << n) if g.survivor_mask >> w & 1]
                for _ in range(10):
                    u, v = rng.choice(survivors), rng.choice(survivors)
                    path = router._bfs_route((1 << n) - 1, u, v, fam._groups)
                    assert path[0] == u and path[-1] == v
                    assert all((a ^ b).bit_count() == 1 for a, b in zip(path, path[1:]))
                    assert not any(g.removed_mask >> w & 1 for w in path)
                    assert len(path) - 1 == bfs_distance(g, Vertex(u, n), Vertex(v, n))
