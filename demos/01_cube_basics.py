"""Tour of the bit-level cube model: vertices, subcubes, splits.

Run: python3 demos/01_cube_basics.py
"""

from __future__ import annotations

from cube_faultlab import Subcube, Vertex, common_neighbors, hamming, neighbor


def main() -> None:
    n = 4
    u = Vertex.from_pattern("0110")
    print(f"Q_{n} vertex u = {u}, coordinates are read left to right:")
    print("  ", [u.coordinate(i) for i in range(1, n + 1)])

    print("\nneighbors of u (flip one coordinate each):")
    for i in range(1, n + 1):
        print(f"  (u)^{i} = {neighbor(u, i)}")

    v = Vertex.from_pattern("1010")
    w = Vertex.from_pattern("1001")
    print(f"\nhamming({u}, {v}) = {hamming(u, v)}")
    print(f"common neighbors of {v} and {w}:", sorted(x.pattern for x in common_neighbors(v, w)))
    print("(exactly two at distance 2, none for any other distinct pair)")

    s = Subcube.from_pattern("0**1")
    print(f"\nsubcube {s.pattern}: dimension {s.dim}, {1 << s.dim} vertices:")
    print("  ", [Vertex(b, n).pattern for b in s.vertex_bits()])
    t = Subcube.from_pattern("1**1")
    print(f"disjoint from {t.pattern}?", s.disjoint_from(t))

    # the halves fix coordinate 1; each crossing edge flips it
    half_zero, half_one = Subcube.from_pattern("0***"), Subcube.from_pattern("1***")
    print(f"\nsplitting Q_{n} along coordinate 1:")
    print(f"  half 0 = {half_zero.pattern}, half 1 = {half_one.pattern}")
    edges = [(Vertex(b, n), neighbor(Vertex(b, n), 1)) for b in half_zero.vertex_bits()]
    print(f"  {len(edges)} crossing edges form a perfect matching, e.g.",
          f"{edges[0][0]} -- {edges[0][1]}")


if __name__ == "__main__":
    main()
