"""Mutants of the scan kernels: each breaks one line, and a named check must fail.

Each entry names a module of the package, a snippet that occurs in it
exactly once, the snippet's replacement and one existing test that
must fail on the changed code.  The package and its tests are copied
to a temporary directory, the copy is changed and the check runs there
in a new interpreter.  A mutant that survives means that no test pins
its line any more.  The unchanged copy passes every check, so a check
that fails for another reason shows up there first.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROW_BFS = "tests/test_row_bfs.py::"
SUBSETS = ROW_BFS + "test_fringe_diameter_on_every_vertex_subset[3]"
SEEDED_SETS = ROW_BFS + "test_batch_diameter_on_seeded_sets[3]"

# id: (module, snippet, replacement, the check that must fail)
MUTANTS = {
    "fringe-radius": ("metrics", "depth=ecc // 2)", "depth=ecc // 2 + 1)", SUBSETS),
    "short-last-batch-dropped": (
        "metrics", "while batch := list(islice(sources, rows)):",
        "while len(batch := list(islice(sources, rows))) == rows:", SUBSETS,
    ),
    "fringe-in-one-row": ("metrics", "_pack_rows(n, batch), rows)", "sum(batch), rows)", SUBSETS),
    "diagonal-seed": (
        "metrics", "_spaced_ones(size, size + 1)", "_spaced_ones(size, size - 1)",
        ROW_BFS + "test_a_scan_within_kappa_never_falls_back[4-structure:1]",
    ),
    "highest-bit-of-the-last-level": (
        "metrics", "((last & -last).bit_length() - 1) >> 2 * n", "(last.bit_length() - 1) >> 2 * n",
        SEEDED_SETS,
    ),
    "ties-keep-the-latest": (
        "oracle", "if hit[0] > best:", "if hit[0] >= best:",
        ROW_BFS + "test_diameter_hit_position_inside_a_batch[3-structure:0-2]",
    ),
    "empty-set-test-dropped": ("metrics", "if 0 in sets or visited", "if visited", SEEDED_SETS),
    "hit-count-one-short": (
        "oracle", "scanned + row - below + 1", "scanned + row - below",
        ROW_BFS + "test_kappa_scan_matches_the_per_family_scan[3-structure:1]",
    ),
    "row-fold-one-step-short": (
        "metrics", "for k in range(n):", "for k in range(1, n):",
        ROW_BFS + "test_kappa_scan_matches_the_per_family_scan[3-structure:1]",
    ),
    "overlapping-row-keeps-its-survivors": (
        "oracle", "& (ones ^ over) * full", "& ones * full",
        ROW_BFS + "test_kappa_scan_matches_the_per_family_scan[3-structure:1]",
    ),
    "emptied-row-left-empty": (
        "metrics", "x = allowed | ones << ((1 << n) - 1)", "x = allowed",
        ROW_BFS + "test_a_family_that_leaves_no_survivors",
    ),
    "continued-block-restarts-its-rows": (
        "oracle", "count - take, rows >> (take << n)", "count - take, rows",
        ROW_BFS + "test_a_block_straddles_two_bfs_integers",
    ),
    "integer-count-one-short": (
        "oracle", "scanned += used - overs.bit_count()", "scanned += used - overs.bit_count() - 1",
        ROW_BFS + "test_hit_position_inside_a_batch[3-structure:1-2]",
    ),
    "size-1-key-is-its-row": (
        "oracle", "p + (c[i],)", "p + (i,)",
        ROW_BFS + "test_a_size_1_block_maps_its_hit_back_through_the_firsts",
    ),
    "diameter-scan-without-the-empty-family": (
        "oracle", "[((), 0)], _extend(", "_extend(",
        "tests/test_oracle.py::TestFaultDiameterExhaustive::test_q4_subcube",
    ),
    "connectivity-walk-from-size-0": (
        "oracle", "range(1, kappa + 1)", "range(kappa + 1)",
        "tests/test_oracle.py::TestConnectivity::test_q3_edge_structure",
    ),
    "submask-step-counts-up": (
        "core", "sub = (sub - mask) & mask", "sub = (sub + 1) & mask",
        "tests/test_core.py::test_the_ordered_walk_equals_unranking",
    ),
    "closure-membership-inverted": (
        "claims", "if w & ~free != base:", "if w & ~free == base:",
        "tests/test_claims.py::test_common_neighbor_checks_report_each_failure",
    ),
}


def source(module: str) -> Path:
    return Path("src", "cube_faultlab", f"{module}.py")


def run_checks(tmp_path: Path, checks: list[str], mutant: tuple[str, str, str] | None = None):
    """Run `checks` in a copy of the package and its tests, with one
    snippet of one module replaced when `mutant` is given."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", tmp_path / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    if mutant:
        module, old, new = mutant
        path = tmp_path / source(module)
        path.write_text(path.read_text().replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")  # no installed plugin is imported
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *checks],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_every_check_passes_on_the_unchanged_code(tmp_path):
    checks = sorted({check for *_, check in MUTANTS.values()})
    proc = run_checks(tmp_path, checks)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"{len(checks)} passed" in proc.stdout


@pytest.mark.parametrize("name", MUTANTS)
def test_the_check_kills_the_mutant(tmp_path, name):
    module, old, new, check = MUTANTS[name]
    assert (ROOT / source(module)).read_text().count(old) == 1, old
    proc = run_checks(tmp_path, [check], (module, old, new))
    assert proc.returncode == 1 and "1 failed" in proc.stdout, proc.stdout[-2000:]
