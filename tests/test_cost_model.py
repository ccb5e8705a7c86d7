"""The one cost model: families x µs per family, refused above one limit.

Every request here runs with the scan kernels patched to raise Started,
so an accepted request shows itself by starting its scan and a refused
one by raising ResourceLimitError first; no scan runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from cube_faultlab import (
    FaultMode,
    ResourceLimitError,
    SearchSpec,
    SurvivalGraph,
    connectivity_bruteforce,
    diameter,
    fault_diameter_bruteforce,
    verify_claims,
)
from cube_faultlab import cli, core, faults, metrics, oracle


class Started(Exception):
    """A scan kernel was reached: the request was accepted."""


@pytest.fixture
def no_scans(monkeypatch):
    def start(*args, **kwargs):
        raise Started

    monkeypatch.setattr(oracle, "_iter_packings", start)
    monkeypatch.setattr(oracle, "_diameter_mask", start)
    monkeypatch.setattr(metrics, "_diameter_mask", start)


def connectivity(n, label):
    return ["connectivity", "--n", str(n), "--mode", label]


def exhaustive(n, label, budget):
    return ["fault-diameter", "--n", str(n), "--mode", label, "--budget", str(budget)]


REFUSED = [
    connectivity(7, "structure:0"),
    connectivity(6, "subcube:1"),
    connectivity(9, "structure:1"),
    exhaustive(5, "structure:0", 10),
    exhaustive(7, "structure:1", 3),
    exhaustive(12, "structure:3", 8),  # the sampled refusal's search, run exhaustively
    ["diameter", "--n", "17"],
]

# connectivity scans with no smaller valid --n: each element space is
# far too large for its vertex-bitset table, and subcube:28 holds about
# 2^30 elements containing vertex 0
NO_SMALLER_N = [
    connectivity(20, "structure:18"),
    connectivity(11, "subcube:9"),
    connectivity(30, "subcube:28"),
]

ACCEPTED = [
    connectivity(6, "structure:1"),
    connectivity(6, "structure:0"),
    exhaustive(6, "structure:2", 3),
    exhaustive(6, "subcube:2", 3),
    exhaustive(7, "structure:1", 2),
]


def verdict(argv):
    """'refused' (exit 3), 'accepted' (a scan started) or the exit code."""
    try:
        code = cli.main(argv)
    except Started:
        return "accepted"
    return "refused" if code == 3 else code


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_before_any_scan(no_scans, capsys, argv):
    t0 = time.perf_counter()
    assert verdict(argv) == "refused"
    seconds = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "above the limit of 60 s; use " in err
    print(f"{' '.join(argv)}: refused in {seconds:.3f} s")


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_accepted(no_scans, argv):
    assert verdict(argv) == "accepted"


# sampled searches, a library call only: (n, label, draws, budget), at
# seed 0 and budget kappa - 1 when None
SAMPLED_REFUSED = [(12, "structure:3", 1000, None)]
SAMPLED_ACCEPTED = [
    (8, "structure:1", 80, None),  # the sampled-large benchmark cases
    (10, "structure:3", 12, None),
    (12, "structure:3", 1, None),
    (7, "structure:1", 2000, 5),
]


def sampled_verdict(n, label, draws, budget):
    """'refused' (ResourceLimitError) or 'accepted' (a diameter started)."""
    mode = FaultMode.from_label(label)
    budget = mode.kappa(n) - 1 if budget is None else budget
    try:
        fault_diameter_bruteforce(n, mode, budget, SearchSpec.sampled(0, draws))
    except Started:
        return "accepted"
    except ResourceLimitError as exc:
        assert "above the limit of 60 s; use " in str(exc)
        return "refused"


def sampled_id(case):
    n, label, draws, budget = case
    return f"n={n} {label} draws={draws}" + ("" if budget is None else f" budget={budget}")


@pytest.mark.parametrize("case", SAMPLED_REFUSED, ids=sampled_id)
def test_a_sampled_search_is_refused_before_any_draw(no_scans, monkeypatch, case):
    def refuse(*args):
        raise AssertionError("a vertex bitset was built")

    monkeypatch.setattr(core, "_vertex_mask", refuse)
    monkeypatch.setattr(oracle, "_vertex_mask", refuse)
    assert sampled_verdict(*case) == "refused"


@pytest.mark.parametrize("case", SAMPLED_ACCEPTED, ids=sampled_id)
def test_a_sampled_search_is_accepted(no_scans, case):
    assert sampled_verdict(*case) == "accepted"


@pytest.mark.parametrize("argv", NO_SMALLER_N, ids=" ".join)
def test_a_connectivity_refusal_names_the_closed_form(no_scans, capsys, argv):
    assert verdict(argv) == "refused"
    err = capsys.readouterr().err
    assert err.rstrip().endswith("; use FaultMode.kappa, the proved closed form kappa = n - m = 2")


@pytest.mark.parametrize(
    "argv",
    [a for a in REFUSED if a[0] in ("connectivity", "fault-diameter")]
    + NO_SMALLER_N + [exhaustive(20, "subcube:18", 1), exhaustive(30, "subcube:28", 1)],
    ids=" ".join,
)
def test_no_bitset_is_built_before_the_verdict(no_scans, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a vertex bitset was built")

    monkeypatch.setattr(core, "_vertex_mask", refuse)
    assert verdict(argv) == "refused"


@pytest.mark.parametrize("argv", [
    ["diameter", "--n", "27"],
    ["diameter", "--n", "30", "--faults", "adversary:q1"],
], ids=" ".join)
def test_a_survival_graph_past_the_cap_is_refused(capsys, argv):
    t0 = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "above the cap of n = 26; use route_with_report (cube-faultlab route)" in err


# VmHWM is the peak RSS of this process alone; ru_maxrss would also count
# the forking test process
PEAK = """
import sys, time
t0 = time.perf_counter()
from cube_faultlab import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status") as fh:
    kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, time.perf_counter() - t0, kib)
"""


def fresh_run(argv):
    """(exit code, seconds, peak RSS in KiB) of cli.main in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", PEAK, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    return int(out[-3]), float(out[-2]), int(out[-1])


# a refused diameter builds no survival graph, which at n = 24 would
# list the 2 x 2^21 faulty labels of the family
LARGE_DIAMETERS = [
    ["diameter", "--n", "22", "--faults", "adversary:subcube:19"],
    ["diameter", "--n", "24", "--faults", "adversary:subcube:21"],
]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv", NO_SMALLER_N + LARGE_DIAMETERS, ids=" ".join)
def test_a_refusal_costs_about_what_help_costs(argv):
    _, _, help_kib = fresh_run(["--help"])
    code, seconds, kib = fresh_run(argv)
    assert code == 3 and seconds < 1
    assert kib - help_kib < 5 * 1024


def test_the_library_calls_refuse_too(no_scans):
    with pytest.raises(ResourceLimitError, match="use --n 6"):
        connectivity_bruteforce(7, FaultMode.structure(0))
    with pytest.raises(ResourceLimitError, match="use --budget 8"):
        fault_diameter_bruteforce(5, FaultMode.structure(0), 10)
    with pytest.raises(ResourceLimitError, match="use draws 149"):
        fault_diameter_bruteforce(12, FaultMode.structure(3), 8, SearchSpec.sampled(0, 1000))
    with pytest.raises(ResourceLimitError, match="use bfs_distance"):
        diameter(SurvivalGraph(17, frozenset()))
    with pytest.raises(Started):
        diameter(SurvivalGraph(15, frozenset()))


def test_the_catalog_never_probes(monkeypatch):
    def probe(*args):
        raise AssertionError("the catalog ran Knuth probes")

    monkeypatch.setattr(faults, "_estimate_packings", probe)
    results = verify_claims()
    assert all(r.passed for r in results)


def exact_count(n, mode, sizes):
    """The families the scans walk: every first index an element containing vertex 0."""
    space = faults._space(n, mode)
    firsts = list(space.base0_indices())
    return sum(sum(1 for _ in faults._iter_packings(space.masks, s, firsts)) for s in sizes)


@pytest.mark.parametrize(
    "n, label, sizes",
    [
        (5, "structure:0", range(8)),
        (5, "structure:1", range(5)),
        (5, "subcube:1", range(1, 5)),
    ],
)
def test_estimate_is_within_five_percent_of_the_walk(n, label, sizes):
    mode = FaultMode.from_label(label)
    exact = exact_count(n, mode, sizes)
    assert abs(faults._estimate_packings(faults._space(n, mode), sizes) - exact) <= 0.05 * exact


def test_the_bound_is_exact_on_disjoint_elements_and_cut_above_the_cap():
    mode = FaultMode.structure(0)
    assert faults._count_packings(5, mode, range(6), 10**9) == exact_count(5, mode, range(6))
    # a huge size is cut at once, without probes
    huge = faults._count_packings(30, FaultMode.subcube(28), range(10**9, 10**9 + 1), 0)
    assert huge == 1 << 64
