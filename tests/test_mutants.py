"""Mutants of the scan kernels and the router: each breaks one line, and a named check must fail.

Each entry names a module of the package, a snippet that occurs in it
exactly once, the snippet's replacement and one existing test that
must fail on the changed code.  The package and its tests are copied
to a temporary directory, the copy is changed and the check runs there
in a new interpreter, two mutants at a time.  A mutant that survives
means that no test pins its line any more.  The unchanged copy passes
every check, so a check that fails for another reason shows up there
first.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROW_BFS = "tests/test_row_bfs.py::"
ROUTER = "tests/test_router.py::"
SUBSETS = ROW_BFS + "test_fringe_diameter_on_every_vertex_subset[3]"
SEEDED_SETS = ROW_BFS + "test_batch_diameter_on_seeded_sets[3]"

# id: (module, snippet, replacement, the check that must fail)
MUTANTS = {
    "fringe-radius": ("metrics", "sum(lu[eu // 2 + 1:])", "sum(lu[eu // 2 + 2:])", SUBSETS),
    "v-ball-one-too-wide": (
        "metrics", "balls[best - i])", "balls[best - i + 1])",
        ROW_BFS + "test_fringe_diameter_on_every_vertex_subset[4]",
    ),
    "sources-from-the-larger-set": (
        "metrics", "pick = min(far,", "pick = max(far,",
        ROW_BFS + "test_the_cube_and_the_tight_families_need_no_source_batch[8]",
    ),
    "short-last-batch-dropped": (
        "metrics", "while batch := list(islice(sources, rows)):",
        "while len(batch := list(islice(sources, rows))) == rows:", SUBSETS,
    ),
    "fringe-in-one-row": ("metrics", "_pack_rows(n, batch), rows)", "sum(batch), rows)", SUBSETS),
    "diagonal-seed": ("metrics", "_spaced_ones(size, size + 1)", "_spaced_ones(size, size - 1)", SEEDED_SETS),
    "highest-bit-of-the-last-level": (
        "metrics", "((last & -last).bit_length() - 1) >> 2 * n", "(last.bit_length() - 1) >> 2 * n",
        SEEDED_SETS,
    ),
    "ties-keep-the-latest": (
        "oracle", "if value > best:", "if value >= best:",
        ROW_BFS + "test_diameter_hit_position_inside_a_batch[3-structure:0-2]",
    ),
    "empty-set-test-dropped": ("metrics", "if not s or cut", "if cut", SEEDED_SETS),
    "cut-set-levels-kept": (
        "metrics", "(n, allowed & keep, seeds & keep, rows)", "(n, allowed, seeds, rows)", SEEDED_SETS,
    ),
    "cut-sets-not-counted": ("metrics", "if not s or cut >> (i << 2 * n) & 1", "if not s", SEEDED_SETS),
    "hit-count-one-short": (
        "oracle", "walked + row - below + 1", "walked + row - below",
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
        "oracle", "rows >> (take << n), over", "rows, over",
        ROW_BFS + "test_a_block_straddles_two_bfs_integers",
    ),
    "continued-block-key-unshifted": (
        "oracle", "k(i + t)", "k(i)", ROW_BFS + "test_a_block_straddles_two_bfs_integers",
    ),
    "integer-count-one-short": (
        "oracle", "walked + used - overs.bit_count()", "walked + used - overs.bit_count() - 1",
        ROW_BFS + "test_hit_position_inside_a_batch[3-structure:1-2]",
    ),
    "size-1-key-is-its-row": (
        "oracle", "p + (c[i],)", "p + (i,)",
        ROW_BFS + "test_a_size_1_block_maps_its_hit_back_through_the_firsts",
    ),
    "diameter-scan-without-the-empty-family": (
        "oracle", "value = max(n, value)", "value = max(0, value)",
        "tests/test_oracle.py::TestFaultDiameterExhaustive::test_budget_zero_is_the_plain_diameter",
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
    "value-walk-drops-keys-that-tie": (  # each key's first index at the end of its run
        "faults", "if not at or keys[i] != keys[idx[at - 1]]",
        "if at + 1 == len(idx) or keys[i] != keys[idx[at + 1]]",
        "tests/test_oracle.py::TestValueWalk::test_the_reduced_walk_attains_every_statistic"
        "[3-structure:0-3]",
    ),
    "anchor-at-vertex-0": (
        "metrics", "allowed & (x ^ (x - ones)), per_int)", "allowed & ones, per_int)",
        ROW_BFS + "test_kappa_scan_matches_the_per_family_scan[3-structure:1]",
    ),
    "cut-row-levels-kept": (
        "oracle", "packed & ~(cut * full)", "packed",
        ROW_BFS + "test_a_cut_row_never_reaches_the_value",
    ),
    "cut-row-ends-the-scan-past-kappa": (
        "oracle", "if left and not skip:", "if left:",
        ROW_BFS + "test_a_cut_row_never_reaches_the_value",
    ),
    "skip-from-kappa-plus-one": (
        "oracle", "skip=budget >= mode.kappa(n)", "skip=budget > mode.kappa(n)",
        ROW_BFS + "test_a_cut_row_never_reaches_the_value",
    ),
    "label-table-without-the-free-mask-clear": (
        "router", "if x & ~fr in bases:", "if x in bases:",
        ROUTER + "test_the_label_table_agrees_with_every_context",
    ),
    "context-table-without-its-free-masks": (
        "router", "[(fr, (ba,)) for fr, ba in faults]", "[(0, (ba,)) for fr, ba in faults]",
        ROUTER + "test_the_label_table_agrees_with_every_context",
    ),
    "label-table-the-longer-one": (
        "router", "groups if len(groups) <= len(faults)", "groups if len(groups) >= len(faults)",
        ROUTER + "test_the_label_table_agrees_with_every_context",
    ),
    "route-plan-without-the-budget-refusal": (
        "faults", "if self.size > budget:", "if False:",
        ROUTER + "TestGuidedRoute::test_an_over_budget_family_is_refused_on_every_call",
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


@pytest.fixture(scope="module")
def mutant_runs(tmp_path_factory):
    """Every mutant's check, started on first use two at a time: name -> future."""
    pool = ThreadPoolExecutor(2)
    yield {
        name: pool.submit(run_checks, tmp_path_factory.mktemp(name), [check], (module, old, new))
        for name, (module, old, new, check) in MUTANTS.items()
    }
    pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("name", MUTANTS)
def test_the_check_kills_the_mutant(mutant_runs, name):
    module, old, new, check = MUTANTS[name]
    assert (ROOT / source(module)).read_text().count(old) == 1, old
    proc = mutant_runs[name].result()
    assert proc.returncode == 1 and "1 failed" in proc.stdout, proc.stdout[-2000:]
