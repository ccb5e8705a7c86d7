"""The library calls the benchmark's units make, run in tier-1.

perfbench/unit.py builds its n = 5 survival graphs with the label
constructor SurvivalGraph(n, labels) and with from_family, then times
diameter and is_connected on them.  Running that builder here makes a
break in either surface fail the test suite, not only a benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def unit(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("unit")


def test_the_n5_graphs_of_the_metrics_spans(unit):
    lib = importlib.import_module("common").import_library()
    patterns = ["0000*", "0011*"]
    graphs = unit._n5_graphs(lib, [patterns], 1)
    fam = lib.FaultFamily.from_patterns(patterns, lib.FaultMode.structure(1), 5)
    assert graphs[0] == lib.SurvivalGraph.from_family(fam)
    assert len(graphs) > 1
    for g in graphs:
        # every family is within its mode's fault budget: the survivors
        # stay connected, and the fault diameter is at most n + 1
        assert g.ambient == 5
        assert lib.is_connected(g)
        assert lib.diameter(g) in (5, 6)
