"""Fault tolerance of hypercubes under vertex-disjoint subcube faults.

The package models the n-dimensional hypercube Q_n with whole subcubes
removed: structure faults (every faulty block is exactly a Q_m),
substructure faults (any piece of a Q_1), and subcube faults (any piece
of a Q_m).  It computes the associated connectivities and fault
diameters by brute force at desk scale, builds the extremal families
that make the known bounds tight, verifies a catalog of claims about
them, and routes between survivor vertices with a divide-and-conquer
algorithm whose path lengths meet the proved diameter bounds.
"""

from __future__ import annotations

from .claims import ClaimResult, claim_ids, verify_claims
from .core import (
    MAX_DIM,
    Path,
    Subcube,
    Vertex,
    common_neighbors,
    enumerate_subcubes,
    hamming,
    neighbor,
)
from .errors import FaultLabError, InvariantViolation, ResourceLimitError
from .faults import (
    FamilyViolation,
    FaultFamily,
    FaultMode,
    adversarial_q1_family,
    adversarial_subcube_family,
    element_space_size,
    enumerate_families,
    family_from_text,
    family_to_text,
    read_family,
    restrict_along,
    route_bound,
    sample_families,
    validate_family,
    write_family,
)
from .metrics import (
    SurvivalGraph,
    bfs_distance,
    component_of,
    diameter,
    is_connected,
)
from .oracle import (
    ConnectivityResult,
    FaultDiameterResult,
    SearchSpec,
    connectivity_bruteforce,
    fault_diameter_bruteforce,
)
from .router import (
    RouteBound,
    RouteReport,
    route_with_report,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "ClaimResult",
    "ConnectivityResult",
    "FamilyViolation",
    "FaultDiameterResult",
    "FaultFamily",
    "FaultLabError",
    "FaultMode",
    "InvariantViolation",
    "Path",
    "ResourceLimitError",
    "RouteBound",
    "RouteReport",
    "SearchSpec",
    "Subcube",
    "SurvivalGraph",
    "Vertex",
    "adversarial_q1_family",
    "adversarial_subcube_family",
    "bfs_distance",
    "claim_ids",
    "common_neighbors",
    "component_of",
    "connectivity_bruteforce",
    "diameter",
    "element_space_size",
    "enumerate_families",
    "enumerate_subcubes",
    "family_from_text",
    "family_to_text",
    "fault_diameter_bruteforce",
    "hamming",
    "is_connected",
    "neighbor",
    "read_family",
    "restrict_along",
    "route_bound",
    "route_with_report",
    "sample_families",
    "validate_family",
    "verify_claims",
    "write_family",
    "__version__",
]
