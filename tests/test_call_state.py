"""Scan state lives exactly as long as the call that needs it.

Only pure constant builders may be memoised process-wide; element
spaces, their vertex-bitset tables, oracle results and the BFS masks of
tables past 2^16 bits are built per call and dropped when it returns.
"""

from __future__ import annotations

import ast
import gc
import sys
import tracemalloc
from pathlib import Path

from cube_faultlab import (
    FaultMode,
    SurvivalGraph,
    claims,
    connectivity_bruteforce,
    enumerate_families,
    is_connected,
    verify_claims,
)
from cube_faultlab.faults import _space

SRC = Path(claims.__file__).resolve().parent
CACHES = {"lru_cache", "cache"}
# (module, function): builders of constants that depend on their arguments alone
ALLOWED = {("metrics", "_spaced_ones"), ("metrics", "_lo_masks"), ("claims", "_registry")}


def cache_name(node: ast.AST) -> str | None:
    """`lru_cache`, `cache` or `functools.<either>`, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in CACHES else None


def test_only_constant_builders_are_memoised():
    decorated, uses = set(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(cache_name, node.decorator_list)):
                    decorated.add((path.stem, node.name))
            elif isinstance(node, (ast.Name, ast.Attribute)) and cache_name(node):
                uses += 1
    assert decorated == ALLOWED
    # no cache applied any other way, e.g. `f = lru_cache()(g)`
    assert uses == len(decorated)


def test_a_second_verify_runs_the_oracle_again(monkeypatch):
    calls = []

    def counted(name, scan):
        def run(*args):
            calls.append(name)
            return scan(*args)
        return run

    for name in ("connectivity_bruteforce", "fault_diameter_bruteforce"):
        monkeypatch.setattr(claims, name, counted(name, getattr(claims, name)))
    ids = ["lem2.2(n=3)", "lem2.4(n=3,m=1)", "lem2.3(n=3)"]
    for run in (1, 2):
        assert all(r.passed for r in verify_claims(ids))
        # structure:1 and subcube:1 once each, shared by both connectivity claims
        assert calls == ["fault_diameter_bruteforce"] + ["connectivity_bruteforce"] * 2, run
        calls.clear()


def table_bytes(n: int, mode: FaultMode) -> int:
    return sum(map(sys.getsizeof, _space(n, mode).masks))


def held_after(call) -> int:
    """Bytes still allocated, under tracemalloc, once `call` has returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_finished_enumeration_holds_no_bitset_table():
    mode = FaultMode.structure(1)
    held = held_after(lambda: sum(1 for _ in enumerate_families(10, mode, 1)))
    assert held < table_bytes(10, mode) // 10


def test_a_finished_connectivity_scan_holds_no_bitset_table():
    connectivity_bruteforce(7, FaultMode.structure(5))  # the BFS constants of Q_7
    mode = FaultMode.subcube(5)
    held = held_after(lambda: connectivity_bruteforce(7, mode).kappa)
    assert held < table_bytes(7, mode) // 10


def test_a_finished_large_bfs_holds_no_mask_table():
    # Q_20's 20 masks of 2^20 bits are 2.5 MB; 208 MiB at n = 26
    held = held_after(lambda: is_connected(SurvivalGraph(20, frozenset({1, 2, 3}))))
    assert held < 512 * 1024
