"""cube-faultlab benchmark: end-to-end and per-layer metrics on four workloads.

Usage (from the root of a checkout; needs only the standard library):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark drives cube_faultlab's public functions only (claims,
oracle, metrics, faults, router, core; the cli only through its import
time) and checks every output.  It imports the package from this
checkout's src/ and refuses any other copy, so it runs from source with
nothing installed.  Without src/ it exits with status 1 and prints no
result.

Output: human-readable lines (machine info, every metric with its unit
and sample counts, any failed checks), then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
"metrics" holds the end-to-end metrics declared in BENCHMARK.json; with
--trace 1 it holds every per-layer metric declared there.  A per-layer
metric of a layer the workload does not exercise reads 0 (no samples).
Every run also writes .perfbench/<workload>-seed<n>-trace<t>.json in
the checkout: machine info, all metrics, notes and, for traced runs,
the spans.

Workloads (the seed only shapes the generated inputs; the library
receives nothing else):

  catalog-exhaustive  verify_claims(slice, jobs=1) in a fresh interpreter
      per unit, so the claims module's lru_caches start cold as in every
      user `verify`.  The slice is the 58-claim catalog minus the five
      claims that cost 15-58 s each (lem2.3(n=5), lem2.4(n=5,m=1),
      lem3.6(n=5), thm3.7(n=5), thm3.26(n=5,m=1)), in catalog order; it
      is frozen with the expected results in catalog_reference.json.
      Why: it holds the exhaustive kappa scan lem2.4(n=5,m=2) and the
      diameter scans lem3.21(m=2) / lem3.23 / thm3.25(n=5,m=2) (the
      last two are cache hits) and lem3.22(n=5,m=1), where translation
      reduction, multi-source BFS and one cache key per canonical mode
      act.  The slice is seed-independent: its claims fix their own
      seeds.
  catalog-pool  the same slice at jobs=min(2, nproc).  Why: the only
      workload that runs oracle's process pool (pool start per family
      size, chunk split, per-chunk early exit).
  route-mix  one closed-loop client, no think time, calling
      route_with_report at n = 6, 10, 16, 30.  Per n: modes structure:0,
      structure:1, substructure, subcube:2 and structure:n-3, four
      seeded families each at full budget kappa-1 (drawn by gen.py
      without building the element space), four uniform survivor pairs
      and four antipodal pairs per family (the router's symmetric case),
      plus adversarial_q1_family and adversarial_subcube_family(n, 2)
      with their far-corner pairs (the n+1 tight case) both ways: 656
      routes per pass.  Why: loads router, core.Path and
      faults.require_valid and bypasses oracle and claims, so a scan
      optimisation predicts no change here.
  sampled-large  fault_diameter_bruteforce(..., SearchSpec.sampled(seed,
      draws)) at full budget: n=8 structure:1 (80 draws), n=10
      structure:3 (12 draws), n=12 structure:3 (1 draw), each in a
      fresh interpreter.  Why: few large survivor graphs instead of many
      tiny ones, plus the element-space build and rejection sampler in
      faults and the memory they hold.  It bypasses the packing
      enumerator (translation reduction predicts no change), and it is
      where multi-source BFS on 2^(2n)-bit integers could get slower
      while catalog-exhaustive gets faster.

A unit is the workload's fixed timed work: one slice verification, 40
route-mix passes, or the three sampled searches.  An untraced run
repeats units while the next one still fits in --seconds (always at
least one) and reports medians over units.  A traced run does fixed
work instead: one untraced and one traced unit (10 passes each for
route-mix), plus the layer probes below.

End-to-end metrics (untraced runs; all workloads).  The host's virtual
CPUs change speed by up to 1.7x from second to second and drift by tens
of percent over minutes, so raw wall times of the same code spread by
20-40% between runs.  The declared times are therefore normalised: a
SpeedProbe (common.py) times a fixed pure-Python reference kernel every
20 ms while the library runs, and the wall time is rescaled by the mean
speed it saw, to the speed at which that kernel takes REF_NOMINAL_S.
Raw wall times are printed and saved beside them.

  wall_norm_s   s      median over units of one unit's wall time (library
                       calls only, probe time removed) rescaled to nominal
                       speed; declared
  setup_s       s      median over fresh interpreters (15 per run, spread
                       between units) of start, import of cube_faultlab
                       and its cli, and the workload's input generation,
                       rescaled by the speed the same interpreter measured
                       right after; declared
  peak_rss_mb   MB     peak RSS of the process making the library calls
                       (the unit process; route-mix: the run itself);
                       median over units; declared
  wall_s        s      (printed) the raw median wall time of one unit
  setup_wall_s  s      (printed) the raw median set-up wall time
  speed         ratio  (printed) median machine speed the probe saw during
                       units, as a share of nominal
  failed_frac   ratio  failed / attempted checks (printed; the JSON line
                       carries it as "failed" and "attempted")
  routes_per_s  1/s    route-mix only (printed): routes / timed pass time
  route_p50_us, route_p99_us
                us     route-mix only (printed): per-call latency of
                       route_with_report, with the sample count

The probe costs about 2% of a unit's time, which is subtracted.  Its
kernel runs in the process that calls the library, so at jobs=2 it
samples the CPU of the waiting parent, not of the pool's workers, and
corrects catalog-pool less well than the jobs=1 workloads.  It also
shares the process's caches, so a change that grows or shrinks the
library's memory traffic moves the probe a little too; compare the raw
wall_s when judging such a change.  Per-layer times are raw and include
the probe's ticks.

Per-layer metrics (traced runs), with the end-to-end metric each should
move and its workload:

  claims.claims_run, claims.oracle_calls (calls reaching the oracle),
  claims.self_s (verify time outside oracle calls)
      count, count, s   -> wall_s          catalog-*
  oracle.connectivity_s, oracle.connectivity_families,
  oracle.connectivity_us_per_family
      s, count, us      -> wall_s          catalog-*
  oracle.fault_diameter_s, oracle.fault_diameter_families,
  oracle.fault_diameter_us_per_family, oracle.disconnected_skipped
      s, count, us, count -> wall_s        catalog-*
  oracle.pool_scan_ratio (connectivity families at jobs=2 / at jobs=1)
      ratio             -> wall_s          catalog-pool
  oracle.sampled_draws_per_s.n8 / .n10 / .n12
      1/s               -> wall_s          sampled-large
  metrics.diameter_us.n5, metrics.is_connected_us.n5 (on the slice's
  n=5 witness families and a seeded n=5 corpus)
      us                -> wall_s          catalog-exhaustive
  metrics.diameter_ms.n8 / .n10 / .n12 (on the searches' witnesses)
      ms                -> wall_s          sampled-large
  faults.sample_s.n12, faults.sample_peak_mb.n12 (sample_families,
  structure:3, full budget, 100 families; tracemalloc peak)
      s, MB             -> setup_s, peak_rss_mb, wall_s   sampled-large
  faults.require_valid_us
      us                -> route_p50_us    route-mix
  router.route_p50_us.n6 / .n10 / .n16 / .n30, router.fallbacks (one
  pass), router.stretch_mean (length / bfs_distance, n <= 16),
  router.bound_slack_min (bound - length, must stay >= 0)
      us, count, ratio, edges -> route_p50_us, route_p99_us,
                                 routes_per_s      route-mix
  core.path_from_bits_us (Path.from_bits on the routed labels)
      us                -> route_p50_us    route-mix
  trace.overhead_s (traced unit wall minus untraced unit wall)
      s                                    all

Correctness checks (any failure counts in "failed"):
  catalog-*      each claim's status, computed value and witness equal
                 catalog_reference.json (never the per-claim seconds);
  route-mix      every generated family is valid with kappa-1 elements;
                 each route has the right endpoints, no faulty vertex,
                 length <= route_bound, length >= bfs_distance (n <= 16)
                 or a length of the right parity >= the Hamming distance
                 (n = 30); every later pass repeats the first pass's path;
  sampled-large  the witness is valid and in budget, the value lies in
                 [n, route_bound] and diameter() of the witness equals the
                 value (first unit); every later unit repeats the first
                 unit's value and witness.

Per-case seeds come from zlib.crc32 of the case name and --seed, never
from hash().  Memory probes stay at n <= 12.

ROADMAP baseline rows this regenerates: survivor diameter
(metrics.diameter_us.n5, oracle.fault_diameter_us_per_family),
connectivity-scan rate (oracle.connectivity_us_per_family), guided route
(router.route_p50_us.*), sampler time and memory (faults.sample_s.n12,
faults.sample_peak_mb.n12).  The full catalog (about 136 s) and the
tier-1 wall time are not workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, Tracer, case_seed, import_library, median, peak_rss_mb

WORKLOADS = ("catalog-exhaustive", "catalog-pool", "route-mix", "sampled-large")
SETUP_PROBES = 15  # per untraced run, spread between its units
HARD_LIMIT_S = 170.0
SAMPLED_CASES = ((8, 1, 80), (10, 3, 12), (12, 3, 1))  # (n, m, draws), structure:m
SAMPLER_CASE = (12, 3, 100)  # (n, m, families)
# End-to-end metrics printed and recorded but not declared in BENCHMARK.json
PRINTED_ONLY = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "speed": "ratio",
    "failed_frac": "ratio",
    "routes_per_s": "1/s",
    "route_p50_us": "us",
    "route_p99_us": "us",
}


class UnitFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.setup_times: list[float] = []
        self.setup_walls: list[float] = []

    def child(self, kind: str, **params) -> dict:
        """Run one unit in a fresh interpreter and return its JSON result."""
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = max(1.0, self.deadline - time.perf_counter())
        cmd = [sys.executable, str(BENCH_DIR / "unit.py"), kind, json.dumps(params)]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise UnitFailed(f"{kind} unit exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def repeat(self, unit) -> list[dict]:
        """Run units while the next one still fits in --seconds (at least one).

        Set-up probes run between units, spread in proportion to the time
        elapsed, and after the last as needed, so the probes sample the
        whole run rather than one moment of a noisy machine.
        """
        results, durations = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            share = (t0 - start + median(durations)) / self.args.seconds
            while len(self.setup_times) < max(1, math.ceil(SETUP_PROBES * min(1.0, share))):
                self.probe_setup()
            results.append(unit())
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + median(durations) > self.args.seconds:
                break
        while len(self.setup_times) < SETUP_PROBES:
            self.probe_setup()
        self.notes.append(
            f"{len(results)} units; unit wall_s {[round(u['wall_s'], 3) for u in results]}; "
            f"wall_norm_s {[round(u['wall_norm_s'], 3) for u in results]}"
        )
        return results

    @staticmethod
    def unit_medians(units: list[dict]) -> dict:
        return {
            "wall_s": median(u["wall_s"] for u in units),
            "wall_norm_s": median(u["wall_norm_s"] for u in units),
            "speed": median(u["speed"] for u in units),
            "peak_rss_mb": median(u["rss_mb"] for u in units),
        }

    def probe_setup(self) -> None:
        """Time one fresh interpreter's set-up, rescaled by the speed the
        child measured right after it (see SpeedProbe)."""
        t0 = time.perf_counter()
        out = self.child("setup", workload=self.args.workload, seed=self.args.seed)
        wall = time.perf_counter() - t0 - out["probe_s"]
        self.setup_walls.append(wall)
        self.setup_times.append(wall * out["speed"])

    # -- catalog-exhaustive, catalog-pool --------------------------------

    def catalog(self, jobs: int) -> dict:
        with open(BENCH_DIR / "catalog_reference.json") as fh:
            reference = json.load(fh)["slice"]

        def unit(trace: bool) -> dict:
            out = self.child("catalog", jobs=jobs, trace=trace, seed=self.args.seed)
            got = {c[0]: c[1:] for c in out["claims"]}
            for ref in reference:
                want = [ref["status"], ref["computed"], ref["witness"]]
                self.check(
                    got.get(ref["claim"]) == want,
                    f"{ref['claim']}: got {got.get(ref['claim'])}, expected {want}",
                )
            return out

        if not self.args.trace:
            self.notes.append(f"unit: verify_claims on {len(reference)} claims, jobs={jobs}")
            units = self.repeat(lambda: unit(False))
            return {"e2e": self.unit_medians(units)}
        plain, traced = unit(False), unit(True)
        spans = traced["spans"]
        tr = Tracer(spans)
        conn = tr.named("oracle.connectivity_bruteforce")
        fd = tr.named("oracle.fault_diameter_bruteforce")
        conn_s = tr.total_s("oracle.connectivity_bruteforce")
        fd_s = tr.total_s("oracle.fault_diameter_bruteforce")
        conn_fam = sum(s["attrs"]["families"] for s in conn)
        fd_fam = sum(s["attrs"]["families"] for s in fd)
        layer = {
            "claims.claims_run": len(traced["claims"]),
            "claims.oracle_calls": len(conn) + len(fd),
            "claims.self_s": tr.self_s("claims.verify_claims"),
            "oracle.connectivity_s": conn_s,
            "oracle.connectivity_families": conn_fam,
            "oracle.connectivity_us_per_family": conn_s * 1e6 / conn_fam if conn_fam else 0.0,
            "oracle.fault_diameter_s": fd_s,
            "oracle.fault_diameter_families": fd_fam,
            "oracle.fault_diameter_us_per_family": fd_s * 1e6 / fd_fam if fd_fam else 0.0,
            "oracle.disconnected_skipped": sum(s["attrs"]["skipped"] for s in fd),
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
        if jobs > 1:
            layer["oracle.pool_scan_ratio"] = conn_fam / traced["jobs1_connectivity_families"]
        else:
            layer["metrics.diameter_us.n5"] = median(tr.per_call_us("metrics.diameter"))
            layer["metrics.is_connected_us.n5"] = median(tr.per_call_us("metrics.is_connected"))
        self.notes.append(f"one untraced and one traced slice verification, jobs={jobs}")
        return {"layer": layer, "spans": spans}

    # -- sampled-large ----------------------------------------------------

    def sampled(self) -> dict:
        first: dict[int, dict] = {}

        def unit(trace: bool) -> dict:
            outs = []
            for n, m, draws in SAMPLED_CASES:
                out = self.child(
                    "sampled", n=n, m=m, draws=draws,
                    seed=case_seed("sampled-large", n, m, self.args.seed),
                    trace=trace, verify=n not in first,
                )
                ref = first.setdefault(n, out)
                problems = out["problems"]
                if (out["value"], out["witness"]) != (ref["value"], ref["witness"]):
                    problems.append("value or witness differs from the first unit's")
                self.check(not problems, f"n={n} structure:{m}: {'; '.join(problems)}")
                outs.append(out)
            return {
                "wall_s": sum(o["wall_s"] for o in outs),
                "wall_norm_s": sum(o["wall_norm_s"] for o in outs),
                "speed": median(o["speed"] for o in outs),
                "rss_mb": max(o["rss_mb"] for o in outs),
                "cases": outs,
            }

        if not self.args.trace:
            self.notes.append(f"unit: {len(SAMPLED_CASES)} sampled searches, one process each")
            units = self.repeat(lambda: unit(False))
            return {"e2e": self.unit_medians(units)}
        # Traced first: only a case's first unit times diameter() on its witness.
        traced, plain = unit(True), unit(False)
        layer, spans = {"trace.overhead_s": traced["wall_s"] - plain["wall_s"]}, []
        for (n, _m, draws), case in zip(SAMPLED_CASES, traced["cases"]):
            tr = Tracer(case["spans"])
            spans.extend(tr.spans)
            layer[f"oracle.sampled_draws_per_s.n{n}"] = draws / tr.total_s("oracle.fault_diameter_bruteforce")
            layer[f"metrics.diameter_ms.n{n}"] = tr.total_s("metrics.diameter") * 1e3
        n, m, count = SAMPLER_CASE
        seed = case_seed("sampler", n, m, self.args.seed)
        timed = self.child("sampler", n=n, m=m, count=count, seed=seed, memory=False)
        traced_mem = self.child("sampler", n=n, m=m, count=count, seed=seed, memory=True)
        for out in (timed, traced_mem):
            self.check(out["ok"], f"sample_families(n={n}, structure:{m}) returned invalid families")
        layer[f"faults.sample_s.n{n}"] = timed["sample_s"]
        layer[f"faults.sample_peak_mb.n{n}"] = traced_mem["peak_mb"]
        self.notes.append("one untraced and one traced unit, two sample_families probes")
        return {"layer": layer, "spans": spans}

    # -- route-mix ----------------------------------------------------------

    def route_mix(self) -> dict:
        import routes

        mix = routes.RouteMix(import_library(), self.args.seed)
        if not self.args.trace:
            units_routes = routes.PASSES_PER_UNIT * len(mix.requests)
            self.notes.append(
                f"unit: {routes.PASSES_PER_UNIT} passes of {len(mix.requests)} routes; "
                f"route p50/p99 are medians over units of {units_routes} samples each"
            )
            units = self.repeat(lambda: mix.unit(routes.PASSES_PER_UNIT))
            out = {
                "e2e": {
                    "wall_s": median(u["wall_s"] for u in units),
                    "wall_norm_s": median(u["wall_norm_s"] for u in units),
                    "speed": median(u["speed"] for u in units),
                    "peak_rss_mb": peak_rss_mb(),
                    "routes_per_s": sum(u["routes"] for u in units) / sum(u["wall_s"] for u in units),
                    "route_p50_us": median(u["p50_us"] for u in units),
                    "route_p99_us": median(u["p99_us"] for u in units),
                }
            }
        else:
            out = mix.traced_layers()
            self.notes.append(
                f"one untraced and one traced unit of {routes.TRACED_PASSES} passes "
                f"of {len(mix.requests)} routes"
            )
        self.attempted += mix.attempted
        self.failed += mix.failed
        self.problems.extend(mix.problems)
        return out


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="cube-faultlab benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args)
    if args.workload == "route-mix":
        out = runner.route_mix()
    elif args.workload == "sampled-large":
        out = runner.sampled()
    else:
        jobs = 1 if args.workload == "catalog-exhaustive" else min(2, os.cpu_count() or 1)
        out = runner.catalog(jobs)
    if args.trace:
        values = out["layer"]
    else:
        values = dict(
            out["e2e"],
            setup_s=median(runner.setup_times),
            setup_wall_s=median(runner.setup_walls),
        )
    unknown = set(values) - {m["name"] for m in wanted} - set(PRINTED_ONLY)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }

    machine = machine_info()
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for note in runner.notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        values["failed_frac"] = failed_frac
        for name, unit in PRINTED_ONLY.items():
            value = values.get(name)
            shown = "n/a (no routes)" if value is None else f"{value:.6g}"
            print(f"{name:40s} {shown:>16s} {unit}")
    print(f"# checks: {runner.attempted} attempted, {runner.failed} failed")
    for problem in runner.problems[:20]:
        print(f"# FAILED {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": metrics,
        "all_values": values, "failed_frac": failed_frac,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems, "notes": runner.notes, "spans": out.get("spans", []),
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (UnitFailed, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
