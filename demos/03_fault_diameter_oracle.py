"""Brute-force ground truth at desk scale.

Exhaustive scans over every valid fault family, up to translation,
establish the connectivity and fault-diameter values exactly.  Where
the cost model refuses a scan (more than a minute predicted), the
paper's extremal family still gives the exact value: one survivor
diameter attains the proved bound n + 1.

Run: python3 demos/03_fault_diameter_oracle.py
"""

from __future__ import annotations

import time

from cube_faultlab import (
    FaultMode,
    SurvivalGraph,
    adversarial_q1_family,
    connectivity_bruteforce,
    diameter,
    fault_diameter_bruteforce,
)


def main() -> None:
    print("connectivity by exhaustive scan")
    print("n  mode          kappa  witness            families scanned")
    for n, label in [(3, "structure:1"), (3, "substructure"), (4, "structure:1"),
                     (4, "subcube:2"), (4, "structure:0")]:
        res = connectivity_bruteforce(n, FaultMode.from_label(label))
        print(f"{n}  {label:12}  {res.kappa}      {','.join(res.witness.patterns()):17}"
              f"  {res.families_scanned}")

    print("\nfault diameter at full budget (kappa - 1)")
    print("n  mode          budget  value  worst family")
    for n, label in [(3, "structure:1"), (3, "substructure"), (4, "structure:1"),
                     (4, "substructure"), (4, "subcube:2"), (4, "structure:0")]:
        mode = FaultMode.from_label(label)
        budget = mode.kappa(n) - 1
        res = fault_diameter_bruteforce(n, mode, budget)
        worst = ",".join(res.witness.patterns()) or "(fault free)"
        print(f"{n}  {label:12}  {budget}       {res.value}      {worst}")

    print("\nthe n = 5 edge-structure scan is the big one:")
    t0 = time.time()
    res = fault_diameter_bruteforce(5, FaultMode.structure(1), 3)
    print(f"  D_f(Q_5; Q_1) = {res.value} after {res.families_scanned} families "
          f"in {time.time() - t0:.1f}s")

    print("\nwhere the exhaustive scan is refused, the extremal family attains the bound:")
    fam = adversarial_q1_family(7)
    print(f"  D_f(Q_7; Q_1) = {diameter(SurvivalGraph.from_family(fam))} = n + 1, "
          f"attained by {','.join(fam.patterns())}")


if __name__ == "__main__":
    main()
