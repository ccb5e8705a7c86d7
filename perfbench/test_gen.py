"""Tests of the route-mix input generator.

    python3 -m pytest perfbench/test_gen.py
"""

from __future__ import annotations

import random

import pytest

import gen
from common import import_library

lib = import_library()

SEEDS = (0, 1, 2, 12345)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_is_valid_at_full_budget(seed):
    requests = gen.route_requests(lib, seed)
    assert requests
    for req in requests:
        fam = req.family
        assert lib.validate_family(fam) is None, (req.n, req.mode, fam.patterns())
        assert fam.ambient == req.n
        assert fam.size == fam.mode.kappa(req.n) - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_are_survivors_of_the_requested_kind(seed):
    for req in gen.route_requests(lib, seed):
        full = (1 << req.n) - 1
        u, v = req.u.bits, req.v.bits
        assert u != v
        assert not gen.is_faulty(req.family, u) and not gen.is_faulty(req.family, v)
        if req.kind == "antipodal":
            assert u ^ v == full


def test_requests_cover_the_mix_and_repeat_for_a_seed():
    a, b = gen.route_requests(lib, 7), gen.route_requests(lib, 7)
    assert [(r.n, r.mode, r.kind, r.family, r.u, r.v) for r in a] == [
        (r.n, r.mode, r.kind, r.family, r.u, r.v) for r in b
    ]
    assert {r.n for r in a} == set(gen.ROUTE_DIMS)
    for n in gen.ROUTE_DIMS:
        assert {r.mode for r in a if r.n == n and r.kind != "adversarial"} == set(gen.route_modes(n))
    assert {r.kind for r in a} == {"uniform", "antipodal", "adversarial"}


@pytest.mark.parametrize("n,label", [(12, "structure:3"), (30, "structure:27"), (30, "substructure")])
def test_random_family_matches_validate_family_at_large_n(n, label):
    mode = lib.FaultMode.from_label(label)
    rng = random.Random(99)
    for _ in range(20):
        fam = gen.random_family(lib, rng, n, mode, mode.kappa(n) - 1)
        assert lib.validate_family(fam) is None
