"""Command-line interface: dispatch, formats, exit codes, round trips."""

from __future__ import annotations

import argparse
import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from cube_faultlab import (
    ClaimResult,
    FaultMode,
    ResourceLimitError,
    SearchSpec,
    adversarial_q1_family,
    cli,
    fault_diameter_bruteforce,
    family_to_text,
    faults,
)
from cube_faultlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_commands() -> list[str]:
    """Every `cube-faultlab ...` line of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cube-faultlab ")]


@pytest.mark.parametrize(
    "argv",
    [shlex.split(line, comments=True)[1:] for line in readme_commands()],
    ids=" ".join,
)
def test_every_readme_command_runs(capsys, argv):
    assert main(argv) == 0, capsys.readouterr().err


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


class TestVerify:
    def test_passing_claims_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claims", "lem2.3(n=3),thm3.3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["total"] == 2
        assert {c["claim"] for c in payload["claims"]} == {"lem2.3(n=3)", "thm3.3"}

    def test_failing_claim_exits_one(self, capsys, monkeypatch):
        fake = ClaimResult(
            "lem0.0", {"n": 3}, "a fake statement", "1", "2", "fail", (), 0.0
        )
        monkeypatch.setattr(
            "cube_faultlab.cli.verify_claims", lambda *a, **k: [fake]
        )
        code, out, _ = run(capsys, "verify", "--claims", "all")
        assert code == 1
        assert "fail" in out

    def test_unknown_claim_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--claims", "nope")
        assert code == 2
        assert "unknown claim" in err

    @pytest.mark.parametrize("ids", ["", ",", " , "])
    def test_an_empty_claim_list_is_a_usage_error(self, capsys, ids):
        code, out, err = run(capsys, "verify", "--claims", ids)
        assert (code, out) == (2, "")
        assert err == f"error: --claims {ids!r} names no claim\n"

    def test_a_repeated_claim_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--claims", "thm3.3,lem2.3(n=3),thm3.3")
        assert (code, out, err) == (2, "", "error: repeated claim ids: thm3.3\n")

    def test_table_has_one_line_per_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "lem2.2(n=3),lem2.2(n=4)")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("lem")]
        assert len(lines) == 2

    def test_ids_with_commas_inside_parentheses(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claims", "lem2.4(n=4,m=2), thm3.26(n=3,m=1)",
            "--format", "json",
        )
        assert code == 0
        claims = [c["claim"] for c in json.loads(out)["claims"]]
        assert claims == ["lem2.4(n=4,m=2)", "thm3.26(n=3,m=1)"]

    def test_csv_round_trips_through_the_csv_module(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claims", "lem2.3(n=3)", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "expected", "computed", "status", "seconds"]
        assert rows[1][0] == "lem2.3(n=3)"
        assert rows[1][3] == "pass"


class TestOracleCommands:
    def test_connectivity_json(self, capsys):
        code, out, _ = run(
            capsys,
            "connectivity", "--n", "4", "--mode", "subcube:2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 2
        assert payload["witness"] == ["00**", "11**"]

    def test_fault_diameter_defaults_to_the_full_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "fault-diameter", "--n", "4", "--mode", "structure:1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["budget"] == 2
        assert payload["value"] == 5

    def test_connectivity_counts_the_reduced_scan(self, capsys):
        code, out, _ = run(
            capsys,
            "connectivity", "--n", "5", "--mode", "substructure",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 4
        assert payload["witness"] == ["0000*", "0011*", "0101*", "1001*"]
        assert payload["families_scanned"] == 164050

    def test_fault_diameter_counts_the_reduced_scan(self, capsys):
        code, out, _ = run(
            capsys,
            "fault-diameter", "--n", "4", "--mode", "structure:0",
            "--budget", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5
        assert payload["families_scanned"] == 122

    # the sampled search is a library call only; the cli maps its
    # ResourceLimitError to exit 3 like every other refusal

    def test_resource_guard_maps_to_exit_three(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "9", "--mode", "structure:1")
        assert code == 3
        assert "use --n 6" in err

    def test_sampling_rejection_limit_maps_to_exit_three(self):
        # Q_5 holds at most 16 disjoint edges; sizes up to 40 get drawn
        with pytest.raises(ResourceLimitError, match="lower the size"):
            fault_diameter_bruteforce(5, FaultMode.structure(1), 40, SearchSpec.sampled(0, 3))

    def test_a_size_no_family_reaches_is_refused_before_any_draw(self, monkeypatch):
        # seed 0 draws size 6311, where Q_5 holds at most 16 disjoint edges
        def attempt(*args):
            raise AssertionError("the sampler drew a family")

        monkeypatch.setattr(faults, "_disjoint_elements", attempt)
        with pytest.raises(ResourceLimitError, match="lower the size"):
            fault_diameter_bruteforce(5, FaultMode.structure(1), 10000, SearchSpec.sampled(0, 1))

    def test_a_budget_past_every_family_walks_no_empty_layer(self, capsys):
        code, out, _ = run(
            capsys,
            "fault-diameter", "--n", "3", "--mode", "structure:0",
            "--budget", "10000000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["witness"]) == (4, ["000", "011"])
        assert (payload["families_scanned"], payload["disconnected_skipped"]) == (129, 52)


class TestDiameterCommand:
    def test_adversary_spec(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "4", "--faults", "adversary:q1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == 5
        assert payload["survivors"] == 12

    def test_inline_patterns_infer_the_mode(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "3", "--faults", "0*1,110", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "substructure"

    def test_uniform_inline_patterns_are_a_structure_family(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "3", "--faults", "0*1,1*0", "--format", "json"
        )
        assert json.loads(out)["mode"] == "structure:1"

    def test_explicit_mode_overrides_inference(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "3", "--faults", "0*1,1*0",
            "--mode", "subcube:1", "--format", "json",
        )
        assert json.loads(out)["mode"] == "subcube:1"

    def test_disconnected_reported_not_fatal(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "3", "--faults", "00*,11*", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["connected"] is False
        assert payload["diameter"] is None

    def test_overlapping_patterns_are_a_usage_error(self, capsys):
        code, _, err = run(capsys, "diameter", "--n", "3", "--faults", "0**,001")
        assert code == 2
        assert "invalid fault family" in err

    def test_family_file_round_trip(self, capsys, tmp_path):
        fam = adversarial_q1_family(5)
        path = tmp_path / "fam.txt"
        path.write_text(family_to_text(fam))
        code, out, _ = run(
            capsys, "diameter", "--n", "5", "--faults", f"@{path}", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["faults"] == fam.patterns()

    def test_file_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(family_to_text(adversarial_q1_family(5)))
        code, _, err = run(capsys, "diameter", "--n", "4", "--faults", f"@{path}")
        assert code == 2


class TestRouteCommand:
    def test_route_spec_example(self, capsys):
        code, out, _ = run(
            capsys,
            "route", "--n", "5", "--faults", "adversary:q1",
            "--from", "00000", "--to", "11110", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 6
        assert payload["path"][0] == "00000"
        assert payload["path"][-1] == "11110"
        assert payload["length"] <= payload["bound"]

    def test_table_output_is_the_path(self, capsys):
        code, out, _ = run(
            capsys, "route", "--n", "4", "--faults", "none",
            "--from", "0000", "--to", "1111",
        )
        assert code == 0
        assert "->" in out
        assert "length 4" in out

    def test_endpoints_of_another_cube_are_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "route", "--n", "4", "--faults", "adversary:q1",
            "--from", "000", "--to", "1111",
        )
        assert (code, err) == (2, "error: endpoints live in Q_3/Q_4, family in Q_4\n")

    def test_removed_endpoint_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "route", "--n", "4", "--faults", "adversary:q1",
            "--from", "0100", "--to", "1111",
        )
        assert code == 2


class TestAdversaryCommand:
    def test_q1_prints_the_family_file_format(self, capsys):
        code, out, _ = run(capsys, "adversary", "q1", "--n", "4")
        assert code == 0
        assert out == "n=4 mode=structure:1\n*010\n*100\n"

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_q1_takes_no_m(self, capsys, m):
        code, out, err = run(capsys, "adversary", "q1", "--n", "4", "--m", m)
        assert (code, out) == (2, "")
        assert err == "error: adversary q1 has no element dimension to choose\n"

    def test_subcube_needs_m(self, capsys):
        code, _, err = run(capsys, "adversary", "subcube", "--n", "5")
        assert code == 2

    def test_subcube_family(self, capsys):
        code, out, _ = run(
            capsys, "adversary", "subcube", "--n", "5", "--m", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["patterns"] == ["**010", "**100"]
        assert payload["size"] == 2


class TestPlumbing:
    def test_json_reports_are_deterministic(self, capsys):
        args = (
            "route", "--n", "5", "--faults", "adversary:subcube:2",
            "--from", "00000", "--to", "11110", "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_verify_json_deterministic_modulo_timing(self, capsys):
        args = ("verify", "--claims", "lem2.3(n=3),lem2.5(n=3)", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert without_seconds(json.loads(first)) == without_seconds(json.loads(second))

    def test_output_flag_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "adversary", "q1", "--n", "4",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["patterns"] == ["*010", "*100"]

    @pytest.mark.parametrize("option", ["--faults", "--output"])
    def test_a_path_that_cannot_be_opened_is_a_usage_error(self, capsys, tmp_path, option):
        path = tmp_path / "no" / "such.txt"
        value = f"@{path}" if option == "--faults" else str(path)
        code, out, err = run(capsys, "diameter", "--n", "3", option, value)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_jobs_flag_is_gone(self, capsys):
        # every command runs in-process; --jobs is an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--claims", "thm3.3", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_enumerate_command_is_gone(self, capsys):
        # enumerate_families is the library's enumerator; no command wraps it
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "4", "--mode", "structure:1", "--size", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'enumerate'" in capsys.readouterr().err

    def test_bad_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_mode_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "4", "--mode", "edgy")
        assert code == 2

    def test_a_second_spelling_of_a_dimension_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "4", "--mode", "structure:1_0")
        assert (code, err) == (2, "error: bad element dimension in mode label 'structure:1_0'\n")

    @pytest.mark.parametrize(
        "value",
        ["0_4", "04", "+4", " 4", "4 ", "٤", "-0", ""],
        ids=["underscore", "zero-pad", "plus", "lead-space", "trail-space", "arabic", "minus-0", "empty"],
    )
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("verify", "--claims", "thm3.3"), "--max-n"),
            (("connectivity", "--mode", "structure:1"), "--n"),
            (("fault-diameter", "--n", "4", "--mode", "structure:1"), "--budget"),
            (("adversary", "subcube", "--n", "5"), "--m"),
        ],
        ids=lambda a: a if isinstance(a, str) else a[0],
    )
    def test_an_integer_option_has_one_spelling(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: expected a decimal integer, got {value!r}\n")

    @pytest.mark.parametrize("m", ["01", "+1", "1_0"])
    def test_an_adversary_dimension_has_one_spelling(self, capsys, m):
        spec = f"adversary:subcube:{m}"
        code, _, err = run(capsys, "diameter", "--n", "5", "--faults", spec)
        assert (code, err) == (2, f"error: bad adversary spec {spec!r}\n")

    def test_a_mode_kind_without_its_dimension_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "4", "--mode", "structure")
        assert (code, err) == (2, "error: bad mode label 'structure'\n")


class TestOptionInventory:
    """Every subcommand's option strings, pinned: a new option shows up
    here as a test edit.  --mode takes a full label, and --m belongs to
    adversary alone (the construction's element dimension)."""

    OPTIONS = {
        "verify": ["--claims", "--format", "--max-n", "--output"],
        "connectivity": ["--format", "--mode", "--n", "--output"],
        "fault-diameter": ["--budget", "--format", "--mode", "--n", "--output"],
        "diameter": ["--faults", "--format", "--mode", "--n", "--output"],
        "route": ["--faults", "--format", "--from", "--mode", "--n", "--output", "--to"],
        "adversary": ["--format", "--m", "--n", "--output"],
    }

    def test_each_subcommand_has_exactly_its_options(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert got == self.OPTIONS

    def test_no_option_is_abbreviated(self, capsys):
        # argparse would otherwise read --m as --mode
        with pytest.raises(SystemExit) as exc:
            main(["connectivity", "--n", "4", "--m", "structure:1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m" in capsys.readouterr().err


class TestPinnedOutput:
    """Table and CSV output of one request per single-row command, byte
    for byte; the CSV writer ends rows with CRLF."""

    CASES = [
        (
            ("connectivity", "--n", "4", "--mode", "structure:1"),
            "n  mode         kappa  witness         families_scanned\n"
            "-  -----------  -----  --------------  ----------------\n"
            "4  structure:1  3      000*,011*,101*  109\n",
            "n,mode,kappa,witness,families_scanned\r\n"
            '4,structure:1,3,"000*,011*,101*",109\r\n',
        ),
        (
            ("fault-diameter", "--n", "4", "--mode", "structure:1", "--budget", "2"),
            "n  mode         budget  search      value  witness\n"
            "-  -----------  ------  ----------  -----  ---------\n"
            "4  structure:1  2       exhaustive  5      000*,011*\n",
            "n,mode,budget,search,value,witness\r\n"
            '4,structure:1,2,exhaustive,5,"000*,011*"\r\n',
        ),
        (
            ("diameter", "--n", "3", "--faults", "0*1,110"),
            "n  mode          faults   survivors  diameter\n"
            "-  ------------  -------  ---------  --------\n"
            "3  substructure  110,0*1  5          4\n",
            "n,mode,faults,survivors,diameter\r\n"
            '3,substructure,"110,0*1",5,4\r\n',
        ),
    ]

    @pytest.mark.parametrize("argv, table, rows", CASES, ids=[c[0][0] for c in CASES])
    def test_table_and_csv(self, capsys, argv, table, rows):
        assert run(capsys, *argv) == (0, table, "")
        assert run(capsys, *argv, "--format", "csv") == (0, rows, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("connectivity", "--n", "4"),
            ("fault-diameter", "--n", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_mode_is_a_usage_error(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", f"error: {argv[0]} needs --mode\n")
