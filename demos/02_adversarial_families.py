"""The two extremal fault families and why they are worst cases.

The pinned-edge family removes n-2 parallel edges so that one corner of
a half-cube keeps a single escape route; the blocking family removes
n-m-1 disjoint Q_m's so that two chosen vertices are forced onto a
detour of length n+1.

Run: python3 demos/02_adversarial_families.py
"""

from __future__ import annotations

from cube_faultlab import (
    SurvivalGraph,
    Vertex,
    adversarial_q1_family,
    adversarial_subcube_family,
    bfs_distance,
    diameter,
    family_to_text,
    is_connected,
    restrict_along,
)


def main() -> None:
    n = 5
    fam = adversarial_q1_family(n)
    print("pinned-edge family in the family file format:")
    print(family_to_text(fam))

    for h in (0, 1):
        half = restrict_along(fam, n, h)
        print(f"split along coordinate {n}, half {h} (a Q_{n - 1}): {half.patterns()}")
        print("  that half alone is connected?",
              is_connected(SurvivalGraph.from_family(half)))

    g = SurvivalGraph.from_family(fam)
    print(f"whole cube minus the family: connected, diameter {diameter(g)}"
          f" (fault free it would be {n})")
    x = Vertex(0, n)
    y = Vertex((1 << n) - 2, n)
    print(f"the stretched pair: d({x}, {y}) = {bfs_distance(g, x, y)}\n")

    m = 2
    fam2 = adversarial_subcube_family(n, m)
    print(f"blocking family of Q_{m}'s:")
    print(family_to_text(fam2))
    g2 = SurvivalGraph.from_family(fam2)
    print(f"diameter of Q_{n} minus it: {diameter(g2)}")
    print(f"d({x}, {y}) = {bfs_distance(g2, x, y)} (forced to {n + 1} steps)")


if __name__ == "__main__":
    main()
