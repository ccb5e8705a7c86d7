"""One unit of benchmark work, run in a fresh interpreter.

    python3 perfbench/unit.py <kind> '<json params>'

run.py starts this script once per unit, so every unit begins with cold
lru_caches and its own peak RSS, as a user's own process would.  It
prints one JSON object on its last line of standard output.  Kinds:

  setup    import cube_faultlab (and its cli), build a workload's inputs, then
           time the reference kernel for the speed this set-up ran at
  catalog  verify_claims on the fixed catalog slice
  sampled  one sampled fault_diameter_bruteforce search, with its checks
  sampler  sample_families at n = 12, optionally under tracemalloc
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

from common import BENCH_DIR, SpeedProbe, Tracer, case_seed, import_library, peak_rss_mb

METRICS_N5_REPEAT = 20
SETUP_SPEED_SAMPLES = 40
METRICS_N5_CORPUS = 8  # seeded families per (mode, size) at n = 5
METRICS_N5_MODES = ("structure:0", "structure:1", "substructure", "subcube:2", "structure:2")


def load_slice() -> list[dict]:
    with open(BENCH_DIR / "catalog_reference.json") as fh:
        return json.load(fh)["slice"]


def unit_setup(lib, workload: str, seed: int) -> dict:
    import cube_faultlab.cli  # noqa: F401  (import time of the CLI is part of set-up)

    if workload.startswith("catalog"):
        ids = [c["claim"] for c in load_slice()]
        missing = sorted(set(ids) - set(lib.claim_ids()))
        if missing:
            raise SystemExit(f"catalog slice names unknown claims: {missing}")
    elif workload == "route-mix":
        import gen

        gen.route_requests(lib, seed)
    # The machine's speed right after set-up, on the CPU that ran it.
    probe = SpeedProbe().sample(SETUP_SPEED_SAMPLES)
    return {"speed": probe.speed(), "probe_s": probe.spent}


def _n5_graphs(lib, witnesses: list[list[str]], seed: int) -> list:
    """The catalog's n = 5 witness families plus a seeded n = 5 corpus."""
    graphs = []
    for patterns in witnesses:
        removed = set()
        for p in patterns:
            removed.update(lib.Subcube.from_pattern(p).vertex_bits())
        graphs.append(lib.SurvivalGraph(5, frozenset(removed)))
    for label in METRICS_N5_MODES:
        mode = lib.FaultMode.from_label(label)
        for size in range(1, mode.kappa(5)):
            families = lib.sample_families(
                5, mode, size, METRICS_N5_CORPUS, case_seed("metrics-n5", label, size, seed)
            )
            graphs.extend(lib.SurvivalGraph.from_family(f) for f in families)
    return graphs


def unit_catalog(lib, jobs: int, trace: bool, seed: int) -> dict:
    from cube_faultlab import claims

    ids = [c["claim"] for c in load_slice()]
    tracer = Tracer()
    if trace:
        # Spans around every call that reaches the oracle; calls served by
        # the claims module's lru_cache never get here.
        claims.connectivity_bruteforce = tracer.wrap(
            lib.connectivity_bruteforce,
            "oracle.connectivity_bruteforce",
            lambda r: {"n": r.n, "mode": r.mode.label, "families": r.families_scanned},
        )
        claims.fault_diameter_bruteforce = tracer.wrap(
            lib.fault_diameter_bruteforce,
            "oracle.fault_diameter_bruteforce",
            lambda r: {"families": r.families_scanned, "skipped": r.disconnected_skipped},
        )
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        with tracer.span("claims.verify_claims"):
            results = lib.verify_claims(ids, jobs=jobs)
        wall = time.perf_counter() - t0 - probe.spent
    out = {
        "wall_s": wall,
        "wall_norm_s": probe.normalise(wall),
        "speed": probe.speed(),
        "rss_mb": peak_rss_mb(),
        "claims": [[r.claim_id, r.status, r.computed, list(r.witness)] for r in results],
    }
    if trace:
        if jobs > 1:
            # Families the same connectivity scans cost at jobs=1, for the
            # pool's wasted-work ratio; run after the traced verify.
            out["jobs1_connectivity_families"] = sum(
                lib.connectivity_bruteforce(
                    s["attrs"]["n"], lib.FaultMode.from_label(s["attrs"]["mode"]), jobs=1
                ).families_scanned
                for s in tracer.named("oracle.connectivity_bruteforce")
            )
        else:
            witnesses = [
                list(r.witness)
                for r in results
                if r.params.get("n") == 5 and r.witness and "*" in "".join(r.witness)
            ]
            for g in _n5_graphs(lib, witnesses, seed):
                with tracer.span("metrics.diameter", repeat=METRICS_N5_REPEAT):
                    for _ in range(METRICS_N5_REPEAT):
                        lib.diameter(g)
                with tracer.span("metrics.is_connected", repeat=METRICS_N5_REPEAT):
                    for _ in range(METRICS_N5_REPEAT):
                        lib.is_connected(g)
        out["spans"] = tracer.spans
    return out


def unit_sampled(lib, n: int, m: int, draws: int, seed: int, trace: bool, verify: bool) -> dict:
    mode = lib.FaultMode.structure(m)
    budget = mode.kappa(n) - 1
    search = lib.SearchSpec.sampled(seed, draws)
    tracer = Tracer()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        if trace:
            with tracer.span("oracle.fault_diameter_bruteforce", n=n, draws=draws):
                result = lib.fault_diameter_bruteforce(n, mode, budget, search=search)
        else:
            result = lib.fault_diameter_bruteforce(n, mode, budget, search=search)
        wall = time.perf_counter() - t0 - probe.spent
    witness = result.witness
    out = {
        "wall_s": wall,
        "wall_norm_s": probe.normalise(wall),
        "speed": probe.speed(),
        "rss_mb": peak_rss_mb(),
        "value": result.value,
        "witness": witness.patterns(),
        "problems": [],
    }
    if verify:
        # Checks that hold for any seed: a valid in-budget witness whose own
        # diameter is the reported value, inside [n, route_bound].
        problems = out["problems"]
        if lib.validate_family(witness) is not None or witness.size > budget:
            problems.append(f"invalid witness {witness.patterns()}")
        if not n <= result.value <= lib.route_bound(n, mode):
            problems.append(f"value {result.value} outside [{n}, {lib.route_bound(n, mode)}]")
        graph = lib.SurvivalGraph.from_family(witness)
        with tracer.span("metrics.diameter", n=n):
            d = lib.diameter(graph)
        if d != result.value:
            problems.append(f"witness diameter {d} != reported value {result.value}")
    if trace:
        out["spans"] = tracer.spans
    return out


def unit_sampler(lib, n: int, m: int, count: int, seed: int, memory: bool) -> dict:
    mode = lib.FaultMode.structure(m)
    size = mode.kappa(n) - 1
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    families = lib.sample_families(n, mode, size, count, seed)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if memory else 0.0
    ok = len(families) == count and all(
        lib.validate_family(f) is None and f.size == size for f in families
    )
    return {"sample_s": elapsed, "peak_mb": peak, "ok": ok}


def main(argv: list[str]) -> None:
    kind, params = argv[0], json.loads(argv[1])
    lib = import_library()
    runners = {
        "setup": unit_setup,
        "catalog": unit_catalog,
        "sampled": unit_sampled,
        "sampler": unit_sampler,
    }
    out = runners[kind](lib, **params)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
