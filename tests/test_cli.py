"""Command line behavior: output formats, files, and exit codes."""

from __future__ import annotations

import json
import sys

import pytest

from hypertrace import dumps_json, hyperpath, hyperstar, save_json
from hypertrace.cli import main


@pytest.fixture()
def path_file(tmp_path):
    target = tmp_path / "p23.json"
    save_json(hyperpath(3, 2), str(target))
    return str(target)


class TestGen:
    def test_gen_edge_to_stdout(self, capsys):
        assert main(["gen", "--family", "edge", "--m", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"m": 3, "n": 3, "edges": [[0, 1, 2]]}

    def test_gen_hyperstar_to_file(self, tmp_path, capsys):
        target = tmp_path / "star.json"
        code = main(
            ["gen", "--family", "hyperstar", "--m", "3", "--edges", "3",
             "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == dumps_json(__import__("hypertrace").hyperstar(3, 3))

    def test_gen_rejects_bad_size(self, capsys):
        assert main(["gen", "--family", "hyperpath", "--m", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_plain_trace_text(self, path_file, capsys):
        assert main(["trace", "--input", path_file, "--d", "6"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "126/1"

    def test_trace_json(self, path_file, capsys):
        assert main(["trace", "--input", path_file, "--d", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"d": 3, "trace": "72/1", "decimal": "72.000000"}

    def test_localized_trace_flags(self, path_file, capsys):
        assert main(["trace", "--input", path_file, "--d", "3",
                     "--required", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "72/1"
        assert main(["trace", "--input", path_file, "--d", "3",
                     "--forbidden", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0/1"
        assert main(["trace", "--input", path_file, "--d", "6",
                     "--pinned", "2", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "126/1"

    def test_pinned_count_above_the_order_prints_zero(self, path_file, capsys):
        assert main(["trace", "--input", path_file, "--d", "3",
                     "--pinned", "0", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0/1"

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["trace", "--input", "/nonexistent.json", "--d", "3"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["trace", "--input", str(tmp_path), "--d", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["trace", "--input", str(bad), "--d", "3"]) == 1

    @pytest.mark.parametrize("command", [["estrada", "--tol", "1"], ["trace", "--d", "3"]],
                             ids=["estrada", "trace"])
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["not-utf8", "deep"])
    def test_malformed_file_exits_one_with_one_error_line(self, tmp_path, capsys,
                                                          command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([*command, "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_order_exits_one(self, path_file, capsys):
        assert main(["trace", "--input", path_file, "--d", "-2"]) == 1

    @pytest.mark.parametrize("d", ["0", "3"])
    def test_out_of_range_query_vertex_exits_one(self, path_file, capsys, d):
        assert main(["trace", "--input", path_file, "--d", d,
                     "--forbidden", "99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_over_budget_exits_two(self, path_file, capsys):
        assert main(["--budget", "5", "trace", "--input", path_file,
                     "--d", "6"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_bad_budget_exits_one(self, path_file, capsys):
        for budget in ("0", "-5"):
            assert main(["--budget", budget, "trace", "--input", path_file,
                         "--d", "3"]) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_closed_stdout_exits_141_quietly(self, path_file, tmp_path, capsys,
                                             monkeypatch):
        # a reader that closes the pipe early (``| head -1``) is not bad
        # input: no error line, and the status a shell gives on SIGPIPE
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        with open(tmp_path / "sink", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["trace", "--input", path_file, "--d", "6",
                         "--pinned", "2", "2", "--forbidden", "0"]) == 141
        assert capsys.readouterr().err == ""


class TestEstrada:
    def test_text_output(self, path_file, capsys):
        assert main(["estrada", "--input", path_file, "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bracket: [")
        assert "depth:" in out

    def test_json_output(self, path_file, capsys):
        assert main(["estrada", "--input", path_file, "--tol", "1e-4",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "lower", "upper", "lower_decimal", "upper_decimal", "depth",
            "tail_bound",
        }
        num, den = map(int, payload["lower"].split("/"))
        assert num > 0 and den > 0

    def test_unparseable_tolerance_exits_one(self, path_file, capsys):
        for tol in ("huh", "inf", "1/0", "0/0"):
            assert main(["estrada", "--input", path_file, "--tol", tol]) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_negative_tolerance_exits_one(self, path_file, capsys):
        assert main(["estrada", "--input", path_file, "--tol=-1e-3"]) == 1

    def test_zero_tolerance_exits_one(self, path_file, capsys):
        # refused before any trace, even with the budget raised
        assert main(["--budget", "1000000", "estrada", "--input", path_file, "--tol", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_star_over_budget_exits_two(self, tmp_path, capsys):
        # the star takes the block route, which keeps the whole-host cost
        # check: depth 33 times 6 edges is above the default 128
        target = tmp_path / "star.json"
        save_json(hyperstar(3, 6), str(target))
        assert main(["estrada", "--input", str(target), "--tol", "1e-3"]) == 2


class TestScan:
    def test_text_output(self, capsys):
        assert main(["scan", "--m", "2", "--edges", "3", "--tol", "1e-2"]) == 0
        out = capsys.readouterr().out
        assert "2 classes" in out
        assert "minimizer" in out and "maximizer" in out

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        assert main(["scan", "--m", "2", "--edges", "4", "--tol", "1e-2",
                     "--format", "csv", "--output", str(target)]) == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "id,n,degrees,ee_lower,ee_upper,rank"
        assert len(lines) == 4

    def test_json_output(self, capsys):
        assert main(["scan", "--m", "3", "--edges", "2", "--tol", "1e-2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path_is_minimum"] is True

    def test_too_many_edges_exits_two(self, capsys):
        assert main(["scan", "--m", "2", "--edges", "9", "--tol", "1e-2"]) == 2


class TestAudit:
    def test_path_shift_text(self, capsys):
        assert main(["audit", "--law", "path-shift", "--m", "3",
                     "--dmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "claimed strict onset: d=3" in out
        assert "observed strict onset: d=6" in out
        assert "violations: none" in out

    def test_edge_shift_json(self, capsys):
        assert main(["audit", "--law", "edge-shift", "--m", "3",
                     "--dmax", "6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["law"] == "edge-shift"
        assert payload["violations"] == []

    def test_cored_shift_text(self, capsys):
        assert main(["audit", "--law", "cored-shift", "--m", "3",
                     "--dmax", "6"]) == 0
        assert "violations: none" in capsys.readouterr().out

    def test_bad_parameters_exit_one(self, capsys):
        assert main(["audit", "--law", "edge-shift", "--m", "2",
                     "--dmax", "6"]) == 1


class TestParser:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["trace", "--d", "3"])
        assert info.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0


class TestEnvBudget:
    def test_env_override_allows_deeper_runs(self, path_file, capsys,
                                             monkeypatch):
        monkeypatch.setenv("HYPERTRACE_BUDGET", "1")
        assert main(["trace", "--input", path_file, "--d", "3"]) == 2
        capsys.readouterr()
        monkeypatch.setenv("HYPERTRACE_BUDGET", "500")
        assert main(["trace", "--input", path_file, "--d", "3"]) == 0
        capsys.readouterr()

    def test_invalid_env_value_exits_one(self, path_file, capsys, monkeypatch):
        for value in ("lots", "0", "-5", "2.5"):
            monkeypatch.setenv("HYPERTRACE_BUDGET", value)
            assert main(["trace", "--input", path_file, "--d", "3"]) == 1
            assert "HYPERTRACE_BUDGET" in capsys.readouterr().err

    def test_explicit_flag_wins_over_env(self, path_file, capsys, monkeypatch):
        monkeypatch.setenv("HYPERTRACE_BUDGET", "1")
        assert main(["--budget", "128", "trace", "--input", path_file,
                     "--d", "3"]) == 0
