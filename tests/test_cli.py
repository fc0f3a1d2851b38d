"""Tests for the genlogic command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "genlogic" in capsys.readouterr().out


class TestSynth:
    def test_hex_spec(self, capsys):
        assert main(["synth", "0x0B"]) == 0
        out = capsys.readouterr().out
        assert "expected behaviour: 0x0B" in out
        assert "NOR" in out

    def test_expression_spec(self, capsys):
        assert main(["synth", "LacI & TetR"]) == 0
        assert "expected behaviour: 0x08" in capsys.readouterr().out

    def test_unknown_circuit_errors_cleanly(self, capsys):
        assert main(["verify", "mystery"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRuntime:
    def test_prints_one_line_per_size(self, capsys):
        assert main(["runtime", "--sizes", "2000", "5000", "--inputs", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2


class TestSimulateAnalyzeVerify:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        csv_path = tmp_path / "not.csv"
        code = main(
            [
                "simulate",
                "not",
                "--out",
                str(csv_path),
                "--hold-time",
                "100",
                "--simulator",
                "ode",
            ],
        )
        assert code == 0
        assert csv_path.exists()
        capsys.readouterr()

        json_path = tmp_path / "result.json"
        code = main(
            [
                "analyze",
                str(csv_path),
                "--threshold",
                "15",
                "--expected",
                "~LacI",
                "--json",
                str(json_path),
            ],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Boolean expression" in out
        payload = json.loads(json_path.read_text())
        assert payload["verification"]["matches"] is True

    def test_verify_builtin_circuit(self, capsys, tmp_path):
        json_path = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "and",
                "--hold-time",
                "120",
                "--seed",
                "7",
                "--json",
                str(json_path),
            ],
        )
        assert code == 0
        assert "MATCH" in capsys.readouterr().out
        assert json.loads(json_path.read_text())["gate_name"] == "AND"

    def test_verify_cello_circuit_by_hex_name(self, capsys):
        code = main(["verify", "0x04", "--hold-time", "150", "--seed", "11"])
        assert code == 0
        assert "0x04" in capsys.readouterr().out

    def test_simulate_sbml_requires_species(self, tmp_path, capsys, toy_model):
        from repro.sbml import write_sbml_file

        sbml_path = tmp_path / "toy.xml"
        write_sbml_file(toy_model, sbml_path)
        assert main(["simulate", str(sbml_path), "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()
        code = main(
            [
                "simulate",
                str(sbml_path),
                "--out",
                str(tmp_path / "toy.csv"),
                "--inputs",
                "A",
                "--output",
                "Y",
                "--hold-time",
                "80",
                "--simulator",
                "ode",
            ],
        )
        assert code == 0


class TestEnsembleFlags:
    def test_verify_replicate_study(self, tmp_path, capsys):
        json_path = tmp_path / "study.json"
        code = main(
            [
                "verify",
                "and",
                "--hold-time",
                "100",
                "--seed",
                "7",
                "--replicates",
                "3",
                "--json",
                str(json_path),
            ],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 replicates" in out
        assert "runs/s" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_replicates"] == 3
        assert payload["recovery_rate"] == 1.0
        assert payload["engine"]["executor"] == "serial"

    def test_verify_replicates_parallel_matches_serial(self, capsys):
        code = main(
            [
                "verify",
                "and",
                "--hold-time",
                "100",
                "--seed",
                "7",
                "--replicates",
                "2",
                "--workers",
                "2",
            ],
        )
        assert code == 0
        parallel_out = capsys.readouterr().out
        assert "process-pool" in parallel_out
        code = main(
            ["verify", "and", "--hold-time", "100", "--seed", "7", "--replicates", "2"],
        )
        assert code == 0
        serial_out = capsys.readouterr().out
        # Same study line (recovery rate and fitness) regardless of --workers.
        assert parallel_out.splitlines()[0] == serial_out.splitlines()[0]

    def test_simulate_replicates_writes_one_csv_each(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = main(
            [
                "simulate",
                "not",
                "--out",
                str(out),
                "--hold-time",
                "60",
                "--simulator",
                "ode",
                "--replicates",
                "2",
            ],
        )
        assert code == 0
        assert (tmp_path / "runs-r0.csv").exists()
        assert (tmp_path / "runs-r1.csv").exists()
        assert not out.exists()

    def test_replicate_out_path_handles_dotted_directories(self, tmp_path, capsys):
        from repro.cli import _replicate_out_path

        assert _replicate_out_path("results.v2/run", 0) == "results.v2/run-r0"
        assert _replicate_out_path("a/b.csv", 3) == "a/b-r3.csv"
        assert _replicate_out_path("plain", 1) == "plain-r1"

    def test_workers_without_replicates_prints_note(self, capsys):
        code = main(
            ["verify", "not", "--hold-time", "80", "--simulator", "ode", "--workers", "4"],
        )
        assert code == 0
        assert "--workers only parallelises replicate batches" in capsys.readouterr().err

    def test_invalid_replicates_rejected(self, capsys):
        assert main(["verify", "and", "--replicates", "0"]) == 2
        capsys.readouterr()
        assert main(["simulate", "not", "--out", "x.csv", "--replicates", "0"]) == 2
        capsys.readouterr()

    def test_invalid_workers_rejected(self, capsys):
        for argv in (
            ["verify", "and", "--workers", "0"],
            ["simulate", "not", "--out", "x.csv", "--workers", "-4"],
            ["runtime", "--sizes", "2000", "--workers", "0"],
        ):
            assert main(argv) == 2
            assert "--workers must be at least 1" in capsys.readouterr().err

    def test_runtime_flags(self, capsys):
        code = main(
            ["runtime", "--sizes", "2000", "--inputs", "2", "--replicates", "1", "--workers", "2"],
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestVerifySpec:
    """``verify --spec FILE.json``: the canonical study request on the CLI."""

    @staticmethod
    def _write(tmp_path, body):
        path = tmp_path / "spec.json"
        path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
        return str(path)

    def test_spec_file_matches_the_keyword_form(self, tmp_path, capsys):
        path = self._write(
            tmp_path, {"circuit": "and", "n_replicates": 2, "hold_time": 100.0, "seed": 7}
        )
        assert main(["verify", "--spec", path, "--no-progress"]) == 0
        from_spec = capsys.readouterr().out.splitlines()
        flags = ["--replicates", "2", "--hold-time", "100", "--seed", "7", "--no-progress"]
        assert main(["verify", "and", *flags]) == 0
        from_flags = capsys.readouterr().out.splitlines()
        # The study line and the worst-combination line (the engine line has timings).
        assert from_spec[:2] == from_flags[:2]

    def test_spec_excludes_circuit_and_study_flags(self, tmp_path, capsys):
        path = self._write(tmp_path, {"circuit": "and", "seed": 7})
        for extra in (["and"], ["--seed", "3"], ["--replicates", "2"]):
            assert main(["verify", *extra, "--spec", path]) == 2
            assert "--spec may not be combined" in capsys.readouterr().err

    def test_schema_1_analysis_jobs_field_rejected(self, tmp_path, capsys):
        path = self._write(tmp_path, {"circuit": "and", "seed": 7, "analysis_jobs": 2})
        assert main(["verify", "--spec", path]) == 2
        assert "analysis_jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, named",
        [
            ({"circuit": "and", "seed": 7, "threshold": "abc"}, "threshold"),
            ({"circuit": "and", "seed": 7, "overrides": 5}, "overrides"),
            ({"circuit": "and", "seed": 7, "simulator": 5}, "simulator"),
            (b"\xff\xfe{", "malformed"),
        ],
        ids=["non-number", "overrides-not-pairs", "simulator-not-a-name", "not-utf8"],
    )
    def test_malformed_spec_file_errors_cleanly(self, tmp_path, capsys, body, named):
        assert main(["verify", "--spec", self._write(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_missing_spec_file_errors_cleanly(self, capsys):
        assert main(["verify", "--spec", "/no/such/file.json"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err


class TestProgressLine:
    def test_off_by_default_without_a_tty(self, capsys):
        """CI logs stay clean: no carriage returns unless stderr is a TTY."""
        code = main(["verify", "and", "--hold-time", "100", "--seed", "7", "--replicates", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "\r" not in captured.err
        assert "\r" not in captured.out

    def test_forced_on_with_progress_flag(self, capsys):
        code = main(
            [
                "verify",
                "and",
                "--hold-time",
                "100",
                "--seed",
                "7",
                "--replicates",
                "2",
                "--progress",
            ],
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "\r1/2 runs" in err
        # The line is erased once the batch finishes.
        assert err.endswith("\r")

    def test_forced_off_with_no_progress_flag(self, capsys):
        code = main(
            [
                "runtime",
                "--sizes",
                "2000",
                "--inputs",
                "2",
                "--replicates",
                "1",
                "--no-progress",
            ],
        )
        assert code == 0
        assert "\r" not in capsys.readouterr().err

    def test_runtime_progress_counts_sizes(self, capsys):
        code = main(
            [
                "runtime",
                "--sizes",
                "2000",
                "4000",
                "--inputs",
                "2",
                "--replicates",
                "1",
                "--progress",
            ],
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "\r1/2 sizes" in err

    def test_simulate_replicates_progress(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = main(
            [
                "simulate",
                "not",
                "--out",
                str(out),
                "--hold-time",
                "60",
                "--simulator",
                "ode",
                "--replicates",
                "2",
                "--progress",
            ],
        )
        assert code == 0
        assert "\r1/2 runs" in capsys.readouterr().err

    def test_hook_helper_respects_non_tty_stream(self):
        import argparse

        from repro.cli import _progress_hook

        args = argparse.Namespace(progress=None)
        assert _progress_hook(args) is None  # pytest's stderr is not a TTY


class TestList:
    def test_cello_only_listing(self, capsys):
        assert main(["list", "--cello-only"]) == 0
        out = capsys.readouterr().out
        assert "cello_0x0b" in out
        assert out.count("\n") == 10

    def test_reader_closing_the_pipe_early_exits_quietly(self):
        """``genlogic list | head -1``: exit status 1, no traceback."""
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": source},
        )
        process.stdout.close()  # the interpreter is still starting: no line is written yet
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 1
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, stderr


class TestSearch:
    SMALL = [
        "search",
        "0x8",
        "--inputs",
        "LacI",
        "TetR",
        "--library",
        "diverse",
        "--max-candidates",
        "4",
        "--n0",
        "2",
        "--fixed-replicates",
        "2",
        "--hold-time",
        "20",
        "--seed",
        "7",
    ]

    def test_needs_function_or_spec(self, capsys):
        assert main(["search"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_smoke_run_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "frontier.json"
        assert main([*self.SMALL, "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "design fitness" in out
        assert "replicates via" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_candidates"] == 4
        assert payload["allocator"] == "racing"
        assert payload["entries"][0]["rank"] == 1

    def test_variant_flag_extends_the_grid(self, capsys):
        assert main([*self.SMALL, "--variant", "kd_YFP=0.5"]) == 0
        capsys.readouterr()

    def test_malformed_variant_rejected(self, capsys):
        assert main([*self.SMALL, "--variant", "kmax"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_malformed_variant_value_rejected(self, capsys):
        assert main([*self.SMALL, "--variant", "kmax=fast"]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_spec_file_round_trip(self, capsys, tmp_path):
        from repro.search import SearchSpec

        spec = SearchSpec(
            function="0x8",
            inputs=("LacI", "TetR"),
            library="diverse",
            max_candidates=4,
            n0=2,
            fixed_replicates=2,
            hold_time=20.0,
            seed=7,
        )
        path = tmp_path / "search.json"
        path.write_text(spec.to_json())
        assert main(["search", "--spec", str(path)]) == 0
        assert "design fitness" in capsys.readouterr().out

    def test_spec_file_conflicts_with_flags(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        path.write_text("{}")
        assert main(["search", "0x8", "--spec", str(path)]) == 2
        assert "may not be combined" in capsys.readouterr().err

    def test_missing_spec_file_errors_cleanly(self, capsys):
        assert main(["search", "--spec", "/no/such/file.json"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_non_utf8_spec_file_errors_cleanly(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["search", "--spec", str(path)]) == 2
        assert "SearchSpec JSON is malformed" in capsys.readouterr().err
