"""The route-mix workload: one closed-loop client calling route_with_report.

The client sends its next request as soon as the previous one returns
(no think time).  One pass routes the fixed request list from
gen.route_requests once; a unit is PASSES_PER_UNIT passes.
"""

from __future__ import annotations

import time
from array import array

import gen
from common import SpeedProbe, Tracer, median, percentile

BFS_CHECK_MAX_N = 16
PASSES_PER_UNIT = 40
TRACED_PASSES = 10  # per unit of a traced run, which keeps one span per route
PROBE_REPEAT = 50


def check_route(lib, req, rep, graphs: dict) -> tuple[list[str], float | None]:
    """Seed-independent checks of one route; returns (problems, stretch).

    The stretch is the routed length over the BFS distance, for n <= 16.
    """
    n, fam = req.n, req.family
    problems = []
    if lib.validate_family(fam) is not None or fam.size != fam.mode.kappa(n) - 1:
        problems.append("generated family is invalid or not at full budget")
    labels = [x.bits for x in rep.path.vertices]
    if labels[0] != req.u.bits or labels[-1] != req.v.bits:
        problems.append("wrong endpoints")
    if any(gen.is_faulty(fam, x) for x in labels):
        problems.append("path touches a faulty vertex")
    bound = lib.route_bound(n, fam.mode)
    if rep.length > bound or rep.bound.bound != bound:
        problems.append(f"length {rep.length} above the bound {bound}")
    stretch = None
    if n <= BFS_CHECK_MAX_N:
        graph = graphs.get(id(fam))
        if graph is None:
            graph = graphs[id(fam)] = lib.SurvivalGraph.from_family(fam)
        shortest = lib.bfs_distance(graph, req.u, req.v)
        if shortest is None or rep.length < shortest:
            problems.append(f"length {rep.length} below the BFS distance {shortest}")
        elif shortest:
            stretch = rep.length / shortest
    else:
        # Q_n is bipartite: any u-v walk has the parity of their distance.
        dist = (req.u.bits ^ req.v.bits).bit_count()
        if rep.length < dist or (rep.length - dist) % 2:
            problems.append(f"length {rep.length} impossible for Hamming distance {dist}")
    return problems, stretch


def _labels(rep) -> tuple[int, ...]:
    return tuple(x.bits for x in rep.path.vertices)


class RouteMix:
    def __init__(self, lib, seed: int) -> None:
        self.lib = lib
        self.requests = gen.route_requests(lib, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_pass()

    def _first_pass(self) -> None:
        """Route every request once, untimed, and check each result in full."""
        lib, graphs = self.lib, {}
        self.refs, stretches = [], []
        self.fallbacks, self.slack_min = 0, None
        for req in self.requests:
            rep = lib.route_with_report(req.u, req.v, req.family)
            problems, stretch = check_route(lib, req, rep, graphs)
            self._count(problems, req)
            self.refs.append(_labels(rep))
            self.fallbacks += rep.fallbacks
            slack = rep.bound.bound - rep.length
            self.slack_min = slack if self.slack_min is None else min(self.slack_min, slack)
            if stretch is not None:
                stretches.append(stretch)
        self.stretch_mean = sum(stretches) / len(stretches)

    def _count(self, problems: list[str], req) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"n={req.n} {req.mode} {req.kind}: {'; '.join(problems)}")

    def unit(self, passes: int, tracer: Tracer | None = None) -> dict:
        """Route the request list `passes` times: the workload's timed unit.

        Every route must repeat the first pass's labels.
        """
        route = self.lib.route_with_report
        requests = self.requests
        lat = array("d")
        reps = [None] * len(requests)
        clock = time.perf_counter
        wall = 0.0
        with SpeedProbe() as probe:
            for _ in range(passes):
                start, spent = clock(), probe.spent
                for i, req in enumerate(requests):
                    if tracer is None:
                        t0, s0 = clock(), probe.spent
                        reps[i] = route(req.u, req.v, req.family)
                        lat.append(clock() - t0 - (probe.spent - s0))
                    else:
                        with tracer.span("router.route_with_report", n=req.n):
                            reps[i] = route(req.u, req.v, req.family)
                wall += clock() - start - (probe.spent - spent)
                for req, rep, ref in zip(requests, reps, self.refs):
                    self._count([] if _labels(rep) == ref else ["route differs from the first pass"], req)
        out = {
            "wall_s": wall,
            "wall_norm_s": probe.normalise(wall),
            "speed": probe.speed(),
            "routes": passes * len(requests),
        }
        if tracer is None:
            out["p50_us"] = percentile(lat, 50) * 1e6
            out["p99_us"] = percentile(lat, 99) * 1e6
        return out

    def traced_layers(self) -> dict:
        """Per-layer metrics: one untraced and one traced unit, then probes."""
        tracer = Tracer()
        plain = self.unit(TRACED_PASSES)
        traced = self.unit(TRACED_PASSES, tracer)
        families = {id(r.family): r.family for r in self.requests}
        for fam in families.values():
            with tracer.span("faults.require_valid", repeat=PROBE_REPEAT):
                for _ in range(PROBE_REPEAT):
                    self.lib.faults.require_valid(fam)
        for req, labels in zip(self.requests, self.refs):
            with tracer.span("core.Path.from_bits", repeat=PROBE_REPEAT):
                for _ in range(PROBE_REPEAT):
                    self.lib.Path.from_bits(labels, req.n)
        by_n: dict[int, list[float]] = {}
        for s in tracer.named("router.route_with_report"):
            by_n.setdefault(s["attrs"]["n"], []).append((s["end"] - s["start"]) * 1e6)
        layer = {f"router.route_p50_us.n{n}": median(v) for n, v in by_n.items()}
        layer.update({
            "router.fallbacks": self.fallbacks,
            "router.stretch_mean": self.stretch_mean,
            "router.bound_slack_min": self.slack_min,
            "faults.require_valid_us": median(tracer.per_call_us("faults.require_valid")),
            "core.path_from_bits_us": median(tracer.per_call_us("core.Path.from_bits")),
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        })
        return {"layer": layer, "spans": tracer.spans}
