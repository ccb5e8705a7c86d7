"""Command-line front end for the fault-tolerance toolkit.

Subcommands map one-to-one onto the library's capabilities: `verify`
runs the claim catalog, `connectivity` and `fault-diameter` drive the
brute-force oracle, `diameter` and `route` answer ad-hoc survival-graph
queries, `adversary` emits the extremal families, and `enumerate`
counts fault families.  Reports go to stdout (or --output) as a text
table by default, as canonical JSON, or as CSV.

Exit codes: 0 success, 1 claim mismatch, 2 usage error (a family file
or --output path that cannot be opened included), 3 resource limit.
`enumerate` exits 3 before walking when the candidate count C(element
space, size) exceeds _ENUMERATE_LIMIT, about 10 s of walking.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from dataclasses import dataclass, field
from math import comb, lgamma, log

from .claims import verify_claims
from .core import Vertex
from .errors import ResourceLimitError
from .faults import (
    FaultFamily,
    FaultMode,
    adversarial_q1_family,
    adversarial_subcube_family,
    element_space_size,
    enumerate_families,
    family_to_text,
    read_family,
    require_valid,
)
from .metrics import SurvivalGraph, diameter
from .oracle import SearchSpec, connectivity_bruteforce, fault_diameter_bruteforce
from .router import route_with_report


@dataclass
class _Report:
    """One command's result in all three output shapes."""

    payload: dict
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    text: str | None = None
    footer: list[str] = field(default_factory=list)


def _render(report: _Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(report.headers)
        writer.writerows(report.rows)
        return buf.getvalue()
    if report.text is not None:
        return report.text
    widths = [
        max(len(h), *(len(r[i]) for r in report.rows)) if report.rows else len(h)
        for i, h in enumerate(report.headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(report.headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in report.rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.extend(report.footer)
    return "\n".join(lines) + "\n"


def _mode_from_args(mode: str | None, m: int | None) -> FaultMode | None:
    """Combine --mode and --m; accepts full labels like structure:1 too."""
    if mode is None:
        if m is not None:
            raise ValueError("--m needs --mode structure or --mode subcube")
        return None
    if ":" in mode or mode == "substructure":
        if m is not None:
            raise ValueError(f"--m conflicts with the explicit mode {mode!r}")
        return FaultMode.from_label(mode)
    if m is None:
        raise ValueError(f"--mode {mode} needs --m <element dimension>")
    return FaultMode.from_label(f"{mode}:{m}")


def _required_mode(args) -> FaultMode:
    mode = _mode_from_args(args.mode, args.m)
    if mode is None:
        raise ValueError(f"{args.command} needs --mode")
    return mode


def _single_row(payload: dict, headers: list[str], footer: list[str] | None = None) -> _Report:
    """A one-row report whose cells are the payload's values under the
    header names; a list cell is joined with commas."""
    row = [
        ",".join(v) if isinstance(v, list) else str(v)
        for v in (payload[h] for h in headers)
    ]
    return _Report(payload, headers, [row], footer=footer or [])


def _infer_mode(dims: list[int]) -> FaultMode:
    """Classify inline patterns: uniform dims are a structure family,
    dims within {0, 1} a substructure, anything else a subcube family."""
    if not dims:
        return FaultMode.structure(0)
    if len(set(dims)) == 1:
        return FaultMode.structure(dims[0])
    if set(dims) <= {0, 1}:
        return FaultMode.substructure()
    return FaultMode.subcube(max(dims))


def _parse_faults(args) -> FaultFamily:
    """Build the fault family named by --faults.

    Accepts `none` (or nothing), `adversary:q1`, `adversary:subcube:<m>`,
    `@<file>` in the family file format, or inline comma-separated
    patterns.  An explicit --mode re-tags the family, subject to the
    usual conformity check.
    """
    spec, n, mode = args.faults, args.n, _mode_from_args(args.mode, args.m)
    if spec is None or spec in ("", "none"):
        family = FaultFamily((), mode or FaultMode.structure(0), n)
    elif spec == "adversary:q1":
        family = adversarial_q1_family(n)
    elif spec.startswith("adversary:subcube:"):
        try:
            m = int(spec.rsplit(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad adversary spec {spec!r}") from None
        family = adversarial_subcube_family(n, m)
    elif spec.startswith("adversary:"):
        raise ValueError(
            f"unknown adversary family {spec!r}, "
            "expected adversary:q1 or adversary:subcube:<m>"
        )
    elif spec.startswith("@"):
        family = read_family(spec[1:])
        if family.ambient != n:
            raise ValueError(
                f"family file is over Q_{family.ambient}, but --n {n} was given"
            )
    else:
        patterns = [p.strip() for p in spec.split(",") if p.strip()]
        inferred = _infer_mode([p.count("*") for p in patterns])
        family = FaultFamily.from_patterns(patterns, inferred, n)
    if mode is not None and family.mode != mode:
        family = FaultFamily(family.elements, mode, family.ambient)
    require_valid(family)
    return family


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> tuple[_Report, int]:
    ids = None
    if args.claims not in (None, "all"):
        # claim ids carry commas of their own, as in lem2.4(n=4,m=2)
        parts = re.split(r",(?![^()]*\))", args.claims)
        ids = [c.strip() for c in parts if c.strip()]
    t0 = time.perf_counter()
    results = verify_claims(ids, max_n=args.max_n)
    failed = sum(1 for r in results if not r.passed)
    payload = {
        "claims": [r.to_record() for r in results],
        "total": len(results),
        "passed": len(results) - failed,
        "failed": failed,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    headers = ["claim", "expected", "computed", "status", "seconds"]
    rows = [
        [r.claim_id, r.expected, r.computed, r.status, f"{r.seconds:.2f}"]
        for r in results
    ]
    return _Report(payload, headers, rows), (1 if failed else 0)


def _cmd_connectivity(args) -> tuple[_Report, int]:
    mode = _required_mode(args)
    t0 = time.perf_counter()
    res = connectivity_bruteforce(args.n, mode)
    payload = {
        "n": args.n,
        "mode": mode.label,
        "kappa": res.kappa,
        "witness": res.witness.patterns(),
        "families_scanned": res.families_scanned,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    return _single_row(payload, ["n", "mode", "kappa", "witness", "families_scanned"]), 0


def _cmd_fault_diameter(args) -> tuple[_Report, int]:
    mode = _required_mode(args)
    budget = args.budget if args.budget is not None else mode.kappa(args.n) - 1
    if args.sampled:
        search = SearchSpec.sampled(
            args.seed if args.seed is not None else 0,
            args.draws if args.draws is not None else 1000,
        )
    else:
        if args.seed is not None or args.draws is not None:
            raise ValueError("--seed and --draws need --sampled")
        search = SearchSpec.exhaustive()
    t0 = time.perf_counter()
    res = fault_diameter_bruteforce(args.n, mode, budget, search=search)
    payload = {
        "n": args.n,
        "mode": mode.label,
        "budget": budget,
        "search": res.search.label,
        "value": res.value,
        "witness": res.witness.patterns(),
        "families_scanned": res.families_scanned,
        "disconnected_skipped": res.disconnected_skipped,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    return _single_row(payload, ["n", "mode", "budget", "search", "value", "witness"]), 0


def _cmd_diameter(args) -> tuple[_Report, int]:
    family = _parse_faults(args)
    g = SurvivalGraph.from_family(family)
    d = diameter(g)
    payload = {
        "n": args.n,
        "mode": family.mode.label,
        "faults": family.patterns(),
        "survivors": g.survivor_count,
        "connected": d is not None,
        "diameter": d,
    }
    headers = ["n", "mode", "faults", "survivors", "diameter"]
    rows = [[
        str(args.n), family.mode.label, ",".join(family.patterns()) or "-",
        str(g.survivor_count), str(d) if d is not None else "disconnected",
    ]]
    return _Report(payload, headers, rows), 0


def _cmd_route(args) -> tuple[_Report, int]:
    family = _parse_faults(args)
    u = Vertex.from_pattern(args.src)
    v = Vertex.from_pattern(args.dst)
    if u.dim != args.n or v.dim != args.n:
        raise ValueError(f"--from/--to must be {args.n}-bit patterns")
    report = route_with_report(u, v, family)
    payload = {
        "n": args.n,
        "mode": family.mode.label,
        "faults": family.patterns(),
        "from": u.pattern,
        "to": v.pattern,
        "path": report.path.patterns(),
        "length": report.length,
        "bound": report.bound.bound,
        "fallbacks": report.fallbacks,
    }
    headers = ["step", "vertex"]
    rows = [[str(i), p] for i, p in enumerate(report.path.patterns())]
    text = (
        " -> ".join(report.path.patterns())
        + f"\nlength {report.length} (bound {report.bound.bound})\n"
    )
    return _Report(payload, headers, rows, text=text), 0


def _cmd_adversary(args) -> tuple[_Report, int]:
    if args.kind == "q1":
        if args.m not in (None, 1):
            raise ValueError("adversary q1 has no element dimension to choose")
        family = adversarial_q1_family(args.n)
    else:
        if args.m is None:
            raise ValueError("adversary subcube needs --m")
        family = adversarial_subcube_family(args.n, args.m)
    text = family_to_text(family)
    payload = {
        "kind": args.kind,
        "n": args.n,
        "mode": family.mode.label,
        "size": family.size,
        "patterns": family.patterns(),
        "text": text,
    }
    headers = ["pattern"]
    rows = [[p] for p in family.patterns()]
    return _Report(payload, headers, rows, text=text), 0


# Candidate families C(element space, size) that `enumerate` may walk:
# 4 to 10 s at the 200,000 to 450,000 families/s measured for
# structure:0 at n = 6, size 4 (2 vCPUs, Python 3.11.7, by host load).
_ENUMERATE_LIMIT = 2_000_000


def _walk_allowed(space: int, size: int) -> bool:
    """C(space, size) <= _ENUMERATE_LIMIT, stopping at the first partial
    binomial C(space, i) above it (they grow with i up to space / 2)."""
    count = 1
    for i in range(min(size, space - size)):
        count = count * (space - i) // (i + 1)
        if count > _ENUMERATE_LIMIT:
            return False
    return True


def _check_enumerate_feasible(n: int, mode: FaultMode, size: int) -> None:
    """Refuse a walk over more than _ENUMERATE_LIMIT candidate families,
    naming the count, the largest smaller size and the largest smaller n
    that fit."""
    space = element_space_size(n, mode)
    if _walk_allowed(space, size):
        return
    digits = (lgamma(space + 1) - lgamma(size + 1) - lgamma(space - size + 1)) / log(10)
    count = f"{comb(space, size):,}" if digits < 15 else f"about 10^{digits:.0f}"
    fits = 0
    while _walk_allowed(space, fits + 1):
        fits += 1
    hint = f"--size {fits}"
    for m in range(n - 1, 0, -1):
        smaller = element_space_size(m, mode)
        if size <= smaller and _walk_allowed(smaller, size):
            hint += f" or --n {m}"
            break
    raise ResourceLimitError(
        f"enumerate would walk C({space}, {size}) = {count} candidate {mode.label} "
        f"families of Q_{n}, above the limit of {_ENUMERATE_LIMIT:,} (about 10 s); "
        f"use {hint}"
    )


def _cmd_enumerate(args) -> tuple[_Report, int]:
    mode = _required_mode(args)
    if args.size < 0:
        raise ValueError(f"--size must be >= 0, got {args.size}")
    _check_enumerate_feasible(args.n, mode, args.size)
    shown: list[str] = []
    count = 0
    for fam in enumerate_families(args.n, mode, args.size):
        if args.show and len(shown) < args.show:
            shown.append(",".join(fam.patterns()))
        count += 1
    payload = {
        "n": args.n,
        "mode": mode.label,
        "size": args.size,
        "element_space": element_space_size(args.n, mode),
        "families": count,
    }
    if args.show:
        payload["shown"] = shown
    return _single_row(payload, ["n", "mode", "size", "element_space", "families"], shown), 0


_DISPATCH = {
    "verify": _cmd_verify,
    "connectivity": _cmd_connectivity,
    "fault-diameter": _cmd_fault_diameter,
    "diameter": _cmd_diameter,
    "route": _cmd_route,
    "adversary": _cmd_adversary,
    "enumerate": _cmd_enumerate,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="report format (default: table)",
    )
    common.add_argument("--output", metavar="FILE", help="write the report to FILE")

    mode_common = argparse.ArgumentParser(add_help=False)
    mode_common.add_argument(
        "--mode", metavar="MODE",
        help="fault mode: structure, substructure, or subcube "
        "(or a full label like structure:1)",
    )
    mode_common.add_argument(
        "--m", type=int, metavar="M", help="element dimension for --mode"
    )

    parser = argparse.ArgumentParser(
        prog="cube-faultlab",
        description="Hypercube fault tolerance under vertex-disjoint subcube faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify", parents=[common],
        help="run the claim catalog and report pass/fail",
    )
    p.add_argument(
        "--claims", default="all", metavar="IDS",
        help="comma-separated claim ids, or 'all' (default)",
    )
    p.add_argument(
        "--max-n", type=int, metavar="N",
        help="skip claims whose ambient dimension exceeds N",
    )

    p = sub.add_parser(
        "connectivity", parents=[common, mode_common],
        help="brute-force structure connectivity",
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")

    p = sub.add_parser(
        "fault-diameter", parents=[common, mode_common],
        help="brute-force fault diameter over all in-budget families",
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument(
        "--budget", type=int,
        help="max family size (default: connectivity - 1)",
    )
    grp = p.add_mutually_exclusive_group()
    grp.add_argument(
        "--exhaustive", action="store_true", help="scan every family (default)"
    )
    grp.add_argument(
        "--sampled", action="store_true", help="randomized search instead"
    )
    p.add_argument("--seed", type=int, help="seed for --sampled (default 0)")
    p.add_argument("--draws", type=int, help="draws for --sampled (default 1000)")

    p = sub.add_parser(
        "diameter", parents=[common, mode_common],
        help="diameter of the cube minus a given fault family",
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument(
        "--faults", metavar="SPEC", default="none",
        help="patterns 'p1,p2,...', '@file', 'adversary:q1', "
        "'adversary:subcube:<m>', or 'none'",
    )

    p = sub.add_parser(
        "route", parents=[common, mode_common],
        help="guided fault-avoiding route between two survivors",
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--faults", metavar="SPEC", default="none", help="as in diameter")
    p.add_argument("--from", dest="src", required=True, metavar="BITS")
    p.add_argument("--to", dest="dst", required=True, metavar="BITS")

    p = sub.add_parser(
        "adversary", parents=[common],
        help="emit an extremal family in the family file format",
    )
    p.add_argument("kind", choices=("q1", "subcube"))
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, help="element dimension for kind subcube")

    p = sub.add_parser(
        "enumerate", parents=[common, mode_common],
        help="count valid families of a given size",
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--size", type=int, required=True, help="family size")
    p.add_argument(
        "--show", type=int, metavar="K", help="also list the first K families"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _DISPATCH[args.command](args)
        report.payload["command"] = args.command
        rendered = _render(report, args.format)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(rendered)
    except (ValueError, OSError) as exc:
        # OSError: a --faults @file or --output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if not args.output:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
