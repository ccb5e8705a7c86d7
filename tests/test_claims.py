"""Claim catalog: registry shape, selection, result records."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from cube_faultlab import (
    FaultMode,
    Vertex,
    claim_ids,
    claims,
    common_neighbors,
    connectivity_bruteforce,
    core,
    verify_claims,
)
from cube_faultlab.cli import main

CATALOG_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "catalog_reference.json"
VERIFY_ALL = Path(__file__).resolve().parent / "data" / "verify_all.json"


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


def test_a_duplicate_claim_id_is_refused():
    reg = {}
    claims._add(reg, "x", {}, "", None)
    with pytest.raises(ValueError, match="^duplicate claim id x$"):
        claims._add(reg, "x", {}, "", None)


def test_catalog_is_nonempty_and_ordered():
    ids = claim_ids()
    assert len(ids) == 58
    assert ids[0] == "lem2.2(n=3)"
    assert ids[-1] == "thm3.26(n=5,m=3)"
    assert len(set(ids)) == len(ids)


def test_unknown_ids_rejected():
    with pytest.raises(ValueError, match="unknown claim ids"):
        verify_claims(["nope", "lem2.2(n=3)"])


def test_repeated_ids_rejected():
    with pytest.raises(ValueError, match=r"^repeated claim ids: thm3\.3, lem2\.2\(n=3\)$"):
        verify_claims(["thm3.3", "lem2.2(n=3)", "thm3.3", "lem2.2(n=3)", "lem2.3(n=3)"])


def test_selection_preserves_request_order():
    results = verify_claims(["thm3.3", "lem2.2(n=3)"])
    assert [r.claim_id for r in results] == ["thm3.3", "lem2.2(n=3)"]


def test_max_n_filters():
    results = verify_claims(max_n=3)
    ids = {r.claim_id for r in results}
    assert "lem2.2(n=3)" in ids
    assert all(r.params["n"] <= 3 for r in results)


@pytest.mark.parametrize("claims, max_n, low", [(None, 2, 3), (None, -1, 3), (["lem3.4(n=5)"], 4, 5)])
def test_a_max_n_that_leaves_no_claim_is_rejected(claims, max_n, low):
    with pytest.raises(ValueError, match=f"^max_n {max_n} leaves no claim; the selected claims "
                       f"start at n = {low}$"):
        verify_claims(claims, max_n=max_n)


def test_records_are_serializable():
    (res,) = verify_claims(["lem2.4(n=3,m=1)"])
    rec = res.to_record()
    assert rec["claim"] == "lem2.4(n=3,m=1)"
    assert rec["params"] == {"n": 3, "m": 1}
    assert rec["expected"] == "2"
    assert rec["computed"] == "2"
    assert rec["status"] == "pass"
    assert rec["witness"] == ["00*", "11*"]
    assert isinstance(rec["seconds"], float)


def test_small_claims_all_pass():
    results = verify_claims(max_n=4)
    assert results, "expected desk-scale claims at n <= 4"
    failed = [r.claim_id for r in results if not r.passed]
    assert failed == []


def test_substructure_shares_the_subcube_1_scan(monkeypatch):
    calls = []
    scan = claims.connectivity_bruteforce

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(claims, "connectivity_bruteforce", counted)
    results = verify_claims(["lem2.3(n=4)", "lem2.4(n=4,m=1)"])
    assert [r.status for r in results] == ["pass", "pass"]
    assert len(calls) == 2


def test_jobs_reach_the_scans(monkeypatch):
    """verify_claims(jobs=3) reaches both scans of lem2.3, which run
    in-process: the claims call them without a jobs argument."""
    seen = []
    scan = claims.connectivity_bruteforce

    def recorded(*args, **kwargs):
        seen.append(kwargs.get("jobs"))
        return scan(*args, **kwargs)

    monkeypatch.setattr(claims, "connectivity_bruteforce", recorded)
    result, = verify_claims(["lem2.3(n=4)"], jobs=3)
    assert result.status == "pass"
    assert seen == [None, None]  # structure:1 and substructure (as subcube:1)


def test_jobs_keyword_is_accepted_and_ignored():
    """Scans run in-process; the public jobs= keyword changes nothing,
    families_scanned included."""

    def records(jobs):
        out = [r.to_record() for r in verify_claims(["lem2.3(n=4)", "thm3.7(n=4)"], jobs=jobs)]
        for rec in out:
            del rec["seconds"]
        return out

    assert records(2) == records(1)
    mode = FaultMode.structure(1)
    assert connectivity_bruteforce(4, mode, jobs=2) == connectivity_bruteforce(4, mode, jobs=1)


def test_frozen_catalog_slice():
    """Status, value and witness of every claim in the benchmark's frozen
    reference slice (read only; it is the benchmark's correctness check)."""
    want = json.loads(CATALOG_REFERENCE.read_text())["slice"]
    results = verify_claims([c["claim"] for c in want])
    got = [
        {
            "claim": r.claim_id,
            "status": r.status,
            "computed": r.computed,
            "witness": list(r.witness),
        }
        for r in results
    ]
    assert len(want) == 53
    assert got == want


def test_claims_outside_the_frozen_slice():
    """The five n = 5 claims the benchmark slice leaves out, pinned as
    the plain (unreduced) scan computes them."""
    want = [
        ("lem2.3(n=5)", "4", ["0000*", "0011*", "0101*", "1001*"]),
        ("lem2.4(n=5,m=1)", "4", ["0000*", "0011*", "0101*", "1001*"]),
        ("lem3.6(n=5)", "6", ["0000*", "0011*", "0101*"]),
        ("thm3.7(n=5)", "6", ["0000*", "0011*", "0101*"]),
        ("thm3.26(n=5,m=1)", "6", ["0000*", "0011*", "0101*"]),
    ]
    results = verify_claims([claim for claim, _, _ in want])
    got = [(r.claim_id, r.computed, list(r.witness)) for r in results]
    assert got == want
    assert all(r.passed for r in results)


def test_verify_all_matches_the_golden_records(capsys):
    """`verify --claims all --format json` without its `seconds` fields:
    every claim's params, statement, expected value, verdict and witness,
    byte for byte."""
    assert main(["verify", "--claims", "all", "--format", "json"]) == 0
    payload = without_seconds(json.loads(capsys.readouterr().out))
    got = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert got == VERIFY_ALL.read_text()


def antipode_kernel(n):
    """A broken common-neighbour kernel of Q_n: the antipode of ub alone."""
    return lambda ub, vb: (ub ^ ((1 << n) - 1),)


def test_common_neighbor_checks_report_each_failure(monkeypatch):
    """With the common-neighbour kernel broken (it returns the antipode
    alone), every instance counts one violation per vertex pair (lem2.5)
    and per subcube (cor2.6), and names the first failing case.  The
    public common_neighbors wraps the same kernel, so it breaks too."""
    want = [
        ("lem2.5(n=3)", "28 violations", ["000", "001"]),
        ("lem2.5(n=4)", "120 violations", ["0000", "0001"]),
        ("lem2.5(n=5)", "496 violations", ["00000", "00001"]),
        ("lem2.5(n=6)", "2016 violations", ["000000", "000001"]),
        ("cor2.6(n=3)", "18 violations", ["00*", "000", "001"]),
        ("cor2.6(n=4)", "64 violations", ["000*", "0000", "0001"]),
        ("cor2.6(n=5)", "210 violations", ["0000*", "00000", "00001"]),
        ("cor2.6(n=6)", "664 violations", ["00000*", "000000", "000001"]),
    ]
    results = []
    for claim, _, witness in want:
        n = len(witness[-1])  # the last witness pattern is a vertex of Q_n
        monkeypatch.setattr(claims, "_common_neighbor_bits", antipode_kernel(n))
        results += verify_claims([claim])
    assert [(r.claim_id, r.computed, list(r.witness)) for r in results] == want
    assert all(r.status == "fail" for r in results)

    monkeypatch.setattr(core, "_common_neighbor_bits", antipode_kernel(3))
    got = common_neighbors(Vertex.from_pattern("000"), Vertex.from_pattern("011"))
    assert {w.pattern for w in got} == {"111"}


def test_common_neighbor_check_names_the_labels(monkeypatch):
    """A kernel that returns the two endpoints at Hamming distance 2 has
    the right count and the wrong labels; lem2.5 counts one violation
    per such pair, C(n, 2) * 2^(n-1) of them, and names the first."""
    monkeypatch.setattr(
        claims, "_common_neighbor_bits",
        lambda ub, vb: (ub, vb) if (ub ^ vb).bit_count() == 2 else (),
    )
    want = [
        ("lem2.5(n=3)", "12 violations", ["000", "011"]),
        ("lem2.5(n=4)", "48 violations", ["0000", "0011"]),
        ("lem2.5(n=5)", "160 violations", ["00000", "00011"]),
        ("lem2.5(n=6)", "480 violations", ["000000", "000011"]),
    ]
    results = verify_claims([claim for claim, _, _ in want])
    assert [(r.claim_id, r.computed, list(r.witness)) for r in results] == want
    assert all(r.status == "fail" for r in results)


def verdicts(ids):
    return [(r.claim_id, r.expected, r.computed, r.status, list(r.witness))
            for r in verify_claims(ids)]


def test_small_removal_check_reports_a_disconnection(monkeypatch):
    """With every faulty survivor graph reported disconnected, lem3.2
    fails on the first vertex fault and names it."""
    real = claims.diameter
    monkeypatch.setattr(claims, "diameter", lambda g: None if g.removed_mask else real(g))
    assert verdicts(["lem3.2(n=3)", "lem3.2(n=4)"]) == [
        ("lem3.2(n=3)", "3", "disconnected", "fail", ["000"]),
        ("lem3.2(n=4)", "4", "disconnected", "fail", ["0000"]),
    ]


EXTREMAL = [
    ("lem3.4(n=5)", "6", ["*0010", "*0100", "*1000"]),
    ("lem3.24(n=5,m=2)", ">= 6", ["**010", "**100"]),
]


@pytest.mark.parametrize(
    "connected,failure",
    [(lambda g: True, "half stays connected"), (lambda g: False, "whole cube disconnected")],
    ids=["half", "whole"],
)
def test_extremal_checks_report_a_connectivity_failure(monkeypatch, connected, failure):
    monkeypatch.setattr(claims, "is_connected", connected)
    assert verdicts([c for c, _, _ in EXTREMAL]) == [
        (claim, expected, failure, "fail", witness) for claim, expected, witness in EXTREMAL
    ]


def test_extremal_checks_report_an_invalid_family(monkeypatch):
    """Each builder returns its family without the last element."""

    def without_last(build):
        def built(*args):
            fam = build(*args)
            return dataclasses.replace(fam, elements=fam.elements[:-1])
        return built

    for name in ("adversarial_q1_family", "adversarial_subcube_family"):
        monkeypatch.setattr(claims, name, without_last(getattr(claims, name)))
    assert verdicts([c for c, _, _ in EXTREMAL]) == [
        (claim, expected, "invalid family", "fail", witness[:-1])
        for claim, expected, witness in EXTREMAL
    ]


def test_pinned_edge_check_reports_the_wrong_component(monkeypatch):
    monkeypatch.setattr(claims, "component_of", lambda g, v: 1 << v.bits)
    assert verdicts(["lem3.4(n=5)"]) == [(
        "lem3.4(n=5)", "6", "pinned component is not the expected edge", "fail",
        ["*0010", "*0100", "*1000"],
    )]


@pytest.mark.parametrize("n,violations,witness", [(5, 20, "01***"), (6, 30, "01****")])
def test_crossing_certificate_fails_with_elements_of_dimension_n_minus_2(n, violations, witness):
    """Admitting elements of dimension n-2 breaks lem3.1's certificate:
    each one that misses 0 and 1^n blocks two coordinates."""
    assert claims._check_crossing_dimension(n, n - 2) == (
        "0 violations", f"{violations} violations", False, [witness]
    )
