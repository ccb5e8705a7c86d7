"""Command-line front end for the fault-tolerance toolkit.

Subcommands map one-to-one onto the library's capabilities: `verify`
runs the claim catalog, `connectivity` and `fault-diameter` drive the
brute-force oracle, `diameter` and `route` answer ad-hoc survival-graph
queries, and `adversary` emits the extremal families.  Reports go to
stdout (or --output) as a text table by default, as canonical JSON, or
as CSV.

Each request has one spelling: --mode takes a full mode label
(structure:1, substructure, subcube:2), an integer option takes plain
decimal digits (faults._decimal), and fault-diameter always scans every
in-budget family.  A diameter is priced before its survival graph
is built, so a refused one builds no vertex bitset.

Exit codes: 0 success, 1 claim mismatch, 2 usage error (a family file
or --output path that cannot be opened included), 3 resource limit: a
request predicted above metrics._LIMIT_S, refused before it starts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from dataclasses import dataclass

from .claims import verify_claims
from .core import Vertex
from .errors import ResourceLimitError
from .faults import (
    FaultFamily,
    FaultMode,
    _decimal,
    adversarial_q1_family,
    adversarial_subcube_family,
    family_to_text,
    read_family,
    require_valid,
)
from .metrics import SurvivalGraph, _check_diameter, diameter
from .oracle import connectivity_bruteforce, fault_diameter_bruteforce
from .router import route_with_report


@dataclass
class _Report:
    """One command's result in all three output shapes."""

    payload: dict
    headers: list[str]
    rows: list[list[str]]
    text: str | None = None


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
    return "\n".join(lines) + "\n"


def _integer(text: str) -> int:
    """An integer option's value: `04`, `+4`, `0_4` and ` 4` are refused."""
    try:
        return _decimal(text, f"expected a decimal integer, got {text!r}")
    except ValueError as exc:  # argparse shows an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _required_mode(args) -> FaultMode:
    if args.mode is None:
        raise ValueError(f"{args.command} needs --mode")
    return FaultMode.from_label(args.mode)


def _single_row(payload: dict, headers: list[str]) -> _Report:
    """A one-row report whose cells are the payload's values under the
    header names; a list cell is joined with commas."""
    row = [
        ",".join(v) if isinstance(v, list) else str(v)
        for v in (payload[h] for h in headers)
    ]
    return _Report(payload, headers, [row])


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
    spec, n = args.faults, args.n
    mode = FaultMode.from_label(args.mode) if args.mode is not None else None
    if spec is None or spec in ("", "none"):
        family = FaultFamily((), mode or FaultMode.structure(0), n)
    elif spec == "adversary:q1":
        family = adversarial_q1_family(n)
    elif spec.startswith("adversary:subcube:"):
        m = _decimal(spec.rsplit(":", 1)[1], f"bad adversary spec {spec!r}")
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
        if not ids:
            raise ValueError(f"--claims {args.claims!r} names no claim")
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
    t0 = time.perf_counter()
    res = fault_diameter_bruteforce(args.n, mode, budget)
    payload = {
        "n": args.n,
        "mode": mode.label,
        "budget": budget,
        "search": "exhaustive",
        "value": res.value,
        "witness": res.witness.patterns(),
        "families_scanned": res.families_scanned,
        "disconnected_skipped": res.disconnected_skipped,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    return _single_row(payload, ["n", "mode", "budget", "search", "value", "witness"]), 0


def _cmd_diameter(args) -> tuple[_Report, int]:
    family = _parse_faults(args)
    _check_diameter(args.n)  # before the graph builds its vertex bitset
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
    report = route_with_report(u, v, family)
    path = report.path.patterns()
    payload = {
        "n": args.n,
        "mode": family.mode.label,
        "faults": family.patterns(),
        "from": u.pattern,
        "to": v.pattern,
        "path": path,
        "length": report.length,
        "bound": report.bound.bound,
        "fallbacks": report.fallbacks,
    }
    headers = ["step", "vertex"]
    rows = [[str(i), p] for i, p in enumerate(path)]
    text = " -> ".join(path) + f"\nlength {report.length} (bound {report.bound.bound})\n"
    return _Report(payload, headers, rows, text=text), 0


def _cmd_adversary(args) -> tuple[_Report, int]:
    if args.kind == "q1":
        if args.m is not None:
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


_DISPATCH = {
    "verify": _cmd_verify,
    "connectivity": _cmd_connectivity,
    "fault-diameter": _cmd_fault_diameter,
    "diameter": _cmd_diameter,
    "route": _cmd_route,
    "adversary": _cmd_adversary,
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
        help="fault mode label: structure:<m>, substructure or subcube:<m>",
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
        "--max-n", type=_integer, metavar="N",
        help="skip claims whose ambient dimension exceeds N",
    )

    p = sub.add_parser(
        "connectivity", parents=[common, mode_common],
        help="brute-force structure connectivity",
    )
    p.add_argument("--n", type=_integer, required=True, help="ambient dimension")

    p = sub.add_parser(
        "fault-diameter", parents=[common, mode_common],
        help="brute-force fault diameter over all in-budget families",
    )
    p.add_argument("--n", type=_integer, required=True, help="ambient dimension")
    p.add_argument(
        "--budget", type=_integer,
        help="max family size (default: connectivity - 1)",
    )

    p = sub.add_parser(
        "diameter", parents=[common, mode_common],
        help="diameter of the cube minus a given fault family",
    )
    p.add_argument("--n", type=_integer, required=True, help="ambient dimension")
    p.add_argument(
        "--faults", metavar="SPEC", default="none",
        help="patterns 'p1,p2,...', '@file', 'adversary:q1', "
        "'adversary:subcube:<m>', or 'none'",
    )

    p = sub.add_parser(
        "route", parents=[common, mode_common],
        help="guided fault-avoiding route between two survivors",
    )
    p.add_argument("--n", type=_integer, required=True, help="ambient dimension")
    p.add_argument("--faults", metavar="SPEC", default="none", help="as in diameter")
    p.add_argument("--from", dest="src", required=True, metavar="BITS")
    p.add_argument("--to", dest="dst", required=True, metavar="BITS")

    p = sub.add_parser(
        "adversary", parents=[common],
        help="emit an extremal family in the family file format",
    )
    p.add_argument("kind", choices=("q1", "subcube"))
    p.add_argument("--n", type=_integer, required=True, help="ambient dimension")
    p.add_argument("--m", type=_integer, help="element dimension for kind subcube")

    for p in sub.choices.values():
        p.allow_abbrev = False  # one spelling per option: --m is not short for --mode
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
