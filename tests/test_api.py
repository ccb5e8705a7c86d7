"""The package's public names."""

from __future__ import annotations

import cube_faultlab


def test_public_names_are_pinned_and_resolve():
    """Adding or dropping a public name is a deliberate edit of this list."""
    assert sorted(cube_faultlab.__all__) == [
        "ClaimResult",
        "ConnectivityResult",
        "FamilyViolation",
        "FaultDiameterResult",
        "FaultFamily",
        "FaultLabError",
        "FaultMode",
        "InvariantViolation",
        "MAX_DIM",
        "Path",
        "ResourceLimitError",
        "RouteBound",
        "RouteReport",
        "SearchSpec",
        "Subcube",
        "SurvivalGraph",
        "Vertex",
        "__version__",
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
        "guided_route",
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
    ]
    for name in cube_faultlab.__all__:
        assert getattr(cube_faultlab, name) is not None
