"""Divide-and-conquer routing around fault families.

The router halves the cube along a carefully chosen coordinate,
projects straddling faults into the halves, and goes on in one; the resulting
path provably stays within the fault-diameter bound without any global
search.  A BFS cross-check on random instances shows how close to
optimal the guided paths run.

Run: python3 demos/04_guided_routing.py
"""

from __future__ import annotations

import random
import time

from cube_faultlab import (
    FaultMode,
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    route_with_report,
    sample_families,
)


def show_route(u, v, fam, title):
    rep = route_with_report(u, v, fam)
    print(f"{title}")
    print(f"  faults: {fam.patterns()}")
    print(f"  route:  {' -> '.join(rep.path.patterns())}")
    print(f"  length {rep.length}, bound {rep.bound.bound}, "
          f"true distance {bfs_distance(SurvivalGraph.from_family(fam), u, v)}")


def main() -> None:
    fam = adversarial_q1_family(4)
    show_route(Vertex.from_pattern("0000"), Vertex.from_pattern("1110"), fam,
               "worst case pair under the pinned-edge family in Q_4:")

    fam2 = adversarial_subcube_family(5, 2)
    show_route(Vertex.from_pattern("00000"), Vertex.from_pattern("11110"), fam2,
               "\nworst case pair under the blocking family in Q_5:")

    print("\nrandom sweep: guided length vs true distance")
    rng = random.Random(2024)
    n, mode = 6, FaultMode.subcube(2)
    budget = mode.kappa(n) - 1
    gap = {0: 0, 1: 0, 2: 0}
    worst = 0
    t0 = time.time()
    count = 2000
    def pick_survivor(removed: int) -> int:
        while True:
            b = rng.randrange(1 << n)
            if not (removed >> b) & 1:
                return b

    for fam in sample_families(n, mode, budget, count, seed=99):
        g = SurvivalGraph.from_family(fam)
        removed = g.removed_mask
        ub = pick_survivor(removed)
        vb = pick_survivor(removed)
        while vb == ub:
            vb = pick_survivor(removed)
        u, v = Vertex(ub, n), Vertex(vb, n)
        rep = route_with_report(u, v, fam)
        d = bfs_distance(g, u, v)
        excess = rep.length - d
        gap[excess] = gap.get(excess, 0) + 1
        worst = max(worst, excess)
    print(f"  {count} routes in Q_{n} under {mode.label} at budget {budget} "
          f"({time.time() - t0:.1f}s)")
    for excess in sorted(gap):
        if gap[excess]:
            print(f"  length = distance + {excess}: {gap[excess]} routes")
    print(f"  worst excess over the true distance: {worst}")


if __name__ == "__main__":
    main()
