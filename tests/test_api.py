"""The package's public names."""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest

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


def test_the_readme_quick_start_runs():
    """The README's "Library quick start" block, run as written: a name
    it imports must still be public, and each call must still succeed."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})


class TestLibraryInventory:
    """The fault-diameter search's parameters and record fields, pinned:
    `search=None` is the one spelling of the exhaustive scan, and a
    result does not echo its request back."""

    def test_fault_diameter_bruteforce_parameters(self):
        params = inspect.signature(cube_faultlab.fault_diameter_bruteforce).parameters
        assert list(params) == ["n", "mode", "budget", "search"]
        assert params["search"].default is None

    def test_fault_diameter_result_fields(self):
        assert [f.name for f in dataclasses.fields(cube_faultlab.FaultDiameterResult)] == [
            "n", "mode", "budget", "value", "witness", "families_scanned", "disconnected_skipped",
        ]

    def test_search_spec_fields(self):
        assert [f.name for f in dataclasses.fields(cube_faultlab.SearchSpec)] == ["seed", "draws"]
        assert cube_faultlab.SearchSpec.sampled(7, 50) == cube_faultlab.SearchSpec(7, 50)
        for seed, draws in [(7, 0), (None, 50), (7, 2.5)]:
            with pytest.raises(ValueError, match="^sampled search needs"):
                cube_faultlab.SearchSpec.sampled(seed, draws)
