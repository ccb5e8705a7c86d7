"""Command-line interface: dispatch, formats, exit codes, round trips."""

from __future__ import annotations

import csv
import io
import json

import pytest

from cube_faultlab import ClaimResult, adversarial_q1_family, cli, family_to_text
from cube_faultlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
            "connectivity", "--n", "4", "--mode", "subcube", "--m", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 2
        assert payload["witness"] == ["00**", "11**"]

    def test_fault_diameter_defaults_to_the_full_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "fault-diameter", "--n", "4", "--mode", "structure", "--m", "1",
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
            "fault-diameter", "--n", "4", "--mode", "structure", "--m", "0",
            "--budget", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5
        assert payload["families_scanned"] == 122

    def test_sampled_search(self, capsys):
        code, out, _ = run(
            capsys,
            "fault-diameter", "--n", "4", "--mode", "structure", "--m", "1",
            "--sampled", "--seed", "7", "--draws", "100", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["search"] == "sampled(seed=7,draws=100)"

    def test_seed_without_sampled_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "fault-diameter", "--n", "4", "--mode", "structure", "--m", "1",
            "--seed", "7",
        )
        assert code == 2
        assert "--sampled" in err

    def test_resource_guard_maps_to_exit_three(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "9", "--mode", "structure:1")
        assert code == 3
        assert "n <= 7" in err

    def test_sampling_rejection_limit_maps_to_exit_three(self, capsys):
        # Q_5 holds at most 16 disjoint edges; sizes up to 40 get drawn
        code, _, err = run(
            capsys,
            "fault-diameter", "--n", "5", "--mode", "structure", "--m", "1",
            "--sampled", "--draws", "3", "--budget", "40",
        )
        assert code == 3
        assert "lower the size" in err


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
    def test_guided_route_spec_example(self, capsys):
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


class TestEnumerateCommand:
    def test_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--mode", "structure:1",
            "--size", "1", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["families"] == 12
        assert payload["element_space"] == 12

    def test_show_lists_families(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--mode", "structure:1",
            "--size", "2", "--show", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["shown"]) == 2

    def test_show_appends_families_to_the_table(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--mode", "structure:1",
            "--size", "2", "--show", "2",
        )
        tail = out.strip().splitlines()[-2:]
        assert tail == ["00*,01*", "00*,10*"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--n", "6", "--mode", "structure:0", "--size", "6"),
                "enumerate would walk C(64, 6) = 74,974,368 candidate structure:0 "
                "families of Q_6, above the limit of 2,000,000 (about 10 s); "
                "use --size 4 or --n 5",
            ),
            (
                ("--n", "5", "--mode", "subcube:2", "--size", "4"),
                "enumerate would walk C(192, 4) = 54,870,480 candidate subcube:2 "
                "families of Q_5, above the limit of 2,000,000 (about 10 s); "
                "use --size 3 or --n 4",
            ),
            (
                ("--n", "30", "--mode", "subcube:28", "--size", "1000000000"),
                "enumerate would walk C(205891132094588, 1000000000) = about "
                "10^5747931064 candidate subcube:28 families of Q_30, above the "
                "limit of 2,000,000 (about 10 s); use --size 0",
            ),
        ],
        ids=["structure:0", "subcube:2", "huge-size"],
    )
    def test_an_oversized_walk_is_refused_before_it_starts(self, capsys, monkeypatch, argv, message):
        def walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(cli, "enumerate_families", walk)
        assert run(capsys, "enumerate", *argv) == (3, "", f"resource limit: {message}\n")

    @pytest.mark.parametrize(
        "n, size, families",
        [(5, 30, 496), (5, 32, 1), (5, 33, 0), (3, 10**9, 0), (10, 1024, 1), (10, 1023, 1024)],
    )
    def test_sizes_next_to_the_space_finish(self, capsys, n, size, families):
        """Q_n has 2^n vertices: the walk stops prefixes that cannot be
        completed, so it does not visit every vertex subset; it allocates
        nothing for a size above the space and does not recurse per
        element, so a family of all 1024 vertices of Q_10 is one walk."""
        code, out, _ = run(
            capsys, "enumerate", "--n", str(n), "--mode", "structure:0",
            "--size", str(size), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["families"] == families


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

    def test_bad_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_mode_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "connectivity", "--n", "4", "--mode", "edgy")
        assert code == 2


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
            ("enumerate", "--n", "4", "--mode", "structure:1", "--size", "2"),
            "n  mode         size  element_space  families\n"
            "-  -----------  ----  -------------  --------\n"
            "4  structure:1  2     32             400\n",
            "n,mode,size,element_space,families\r\n"
            "4,structure:1,2,32,400\r\n",
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
            ("enumerate", "--n", "4", "--size", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_mode_is_a_usage_error(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", f"error: {argv[0]} needs --mode\n")
