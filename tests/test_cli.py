"""Command-line interface: reports, traces, tables, exit codes."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slamobs import simulation
from slamobs.cli import main

EXPECTED_TRACE_FILES = (
    "position.csv",
    "velocity.csv",
    "attitude.csv",
    "features.csv",
    "relative.csv",
)


def bundled_path(name):
    return str(importlib.resources.files("slamobs") / "scenarios" / name)


ANALYZE = ["analyze", bundled_path("case2.yaml")]
SIMULATE = ["simulate", bundled_path("case2_flight.yaml")]

#: An integer too large for a double.
HUGE_INT = "1" + "0" * 400

#: The one line of a scenario whose stacked transitions overflow.
OVERFLOW_ERROR = (
    "error: the observability matrix overflows: "
    "the segment durations and specific forces are too large\n"
)

# (command, flag, value, rule): every numeric flag is checked by the rule of
# the scenario field that carries the same quantity
BAD_FLAG_VALUES = [
    (ANALYZE, "--tol", "nan", "must be finite"),
    (ANALYZE, "--tol", "inf", "must be finite"),
    (ANALYZE, "--tol", "-1", "must be > 0.0"),
    (ANALYZE, "--local", "-1", "must be >= 0"),
    (ANALYZE, "--local", "2", "must be < 2 (the scenario has 2 segments)"),
    (ANALYZE, "--local", HUGE_INT, "must be finite"),
    (["cases"], "--tol", "nan", "must be finite"),
    (["cases"], "--tol", "inf", "must be finite"),
    (["cases"], "--tol", "-1", "must be > 0.0"),
    (["cases"], "--dt", "nan", "must be finite"),
    (["cases"], "--dt", "inf", "must be finite"),
    (["cases"], "--dt", "-5", "must be > 0.0"),
    (SIMULATE, "--duration", "nan", "must be finite"),
    (SIMULATE, "--duration", "inf", "must be finite"),
    (SIMULATE, "--duration", "-1", "must be >= 0.0"),
    (SIMULATE, "--seed", "-1", "must be >= 0"),
    (SIMULATE, "--seed", HUGE_INT, "must be finite"),
]
# a negative force component is a valid specific force
BAD_FORCES = [
    ("0,0,nan", "entries must be finite"),
    ("0,0,inf", "entries must be finite"),
    ("1,2", "expected a list of 3 numbers"),
    ("0,x,9.81", "entries must be numbers"),
]
BAD_FLAG_VALUES += [(["cases"], "--forces", f"{v} 0,0,9.81", rule) for v, rule in BAD_FORCES]


@pytest.mark.parametrize(
    "command, flag, value, rule", BAD_FLAG_VALUES,
    ids=[f"{c[0]} {f} {v.replace(HUGE_INT, 'HUGE_INT')}" for c, f, v, _ in BAD_FLAG_VALUES],
)
def test_bad_flag_value_names_the_flag(command, flag, value, rule, tmp_path, capsys):
    argv = command + [flag, *value.split(" ")]
    if command is SIMULATE:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag}: {rule}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1.5"])
def test_non_integer_seed_is_a_usage_error(value, capsys):
    # argparse's int conversion refuses it before any command runs, as it
    # refuses `--tol abc`
    with pytest.raises(SystemExit) as exc:
        main(SIMULATE + ["--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: invalid int value: '{value}'" in err
    assert "Traceback" not in err


class TestAnalyzeCommand:
    def test_case2_report(self, capsys):
        assert main(["analyze", bundled_path("case2.yaml")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 12
        assert report["nullity"] == 3
        assert report["matrix_cols"] == 15
        assert report["scope"] == "total"
        assert report["expansion_mode"] == "exact"
        assert len(report["null_basis"]) == 3
        assert all(len(vec) == 15 for vec in report["null_basis"])
        labels = {f["label"]: f["observable"] for f in report["functionals"]}
        assert labels["dv_N"] is True
        assert labels["dp_N"] is False
        assert "dm_f1-dm_f2" in report["observable_modes"]

    def test_local_segment_report(self, capsys):
        assert main(["analyze", bundled_path("case2.yaml"), "--local", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 8
        assert report["matrix_cols"] == 12
        assert report["scope"] == "local"
        assert report["segment_index"] == 0

    def test_single_segment_scenario(self, capsys):
        assert main(["analyze", bundled_path("case2_segment1.yaml")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 8
        assert report["matrix_cols"] == 12

    def test_first_order_flag(self, capsys):
        assert main(["analyze", bundled_path("case2.yaml"), "--first-order"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["expansion_mode"] == "first_order"
        assert report["rank"] == 12

    def test_exact_flag_overrides_the_document(self, tmp_path, capsys):
        """``--exact`` on a first-order document gives the exact document's report, bytewise."""
        text = Path(bundled_path("case2.yaml")).read_text()
        first_order = tmp_path / "case2.yaml"
        first_order.write_text(text.replace("expansion: exact", "expansion: first_order"))
        assert main(["analyze", str(first_order)]) == 0
        assert json.loads(capsys.readouterr().out)["expansion_mode"] == "first_order"
        assert main(["analyze", str(first_order), "--exact"]) == 0
        got = capsys.readouterr().out
        assert main(["analyze", bundled_path("case2.yaml")]) == 0
        assert got == capsys.readouterr().out

    def test_overflowing_durations(self, tmp_path, capsys):
        text = Path(bundled_path("case2.yaml")).read_text()
        huge = tmp_path / "huge.yaml"
        huge.write_text(text.replace("duration: 50.0", "duration: 1.0e+200"))
        assert main(["analyze", str(huge)]) == 1
        assert capsys.readouterr().err == OVERFLOW_ERROR

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", bundled_path("case2.yaml"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rank"] == 12

    def test_report_schema_is_closed(self, capsys):
        expected = {
            "scenario", "scope", "segment_index", "expansion_mode",
            "rank_tolerance", "state_labels", "matrix_rows", "matrix_cols",
            "rank", "nullity", "null_basis", "functionals", "observable_modes",
        }
        for name in ("case2.yaml", "case2_segment1.yaml", "case2_flight.yaml"):
            assert main(["analyze", bundled_path(name)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert set(report) == expected
            for entry in report["functionals"]:
                assert set(entry) == {"label", "observable", "null_projection"}

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: broken\nschedule:\n  detected:\n    f1: [1]\nsegments:\n  - duration: -5\n    specific_force: [0, 0, 9.81]\n")
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "segments[0].duration" in err

    def test_infinite_tolerance_rejected(self, capsys):
        # an infinite tolerance would read rank 0 yet call every functional observable
        assert main(["analyze", bundled_path("case2.yaml"), "--tol", "inf"]) == 1
        assert "error: --tol: must be finite" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.yaml"]) == 1
        assert "error: /no/such/file.yaml: cannot read file" in capsys.readouterr().err

    def test_local_out_of_range(self, capsys):
        assert main(["analyze", bundled_path("case2.yaml"), "--local", "9"]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_trace_files_and_row_count(self, tmp_path, capsys):
        rc = main(
            ["simulate", bundled_path("case2_flight.yaml"), "--seed", "42", "--out", str(tmp_path)]
        )
        assert rc == 0
        for name in EXPECTED_TRACE_FILES:
            path = tmp_path / name
            assert path.exists()
            lines = path.read_text().splitlines()
            assert len(lines) == 2502  # header + 100 s at 25 Hz inclusive
            assert lines[0].startswith("time_s,")

    def test_seed_repeatability_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["simulate", bundled_path("case2_flight.yaml"), "--seed", "42", "--out", str(out)]
            ) == 0
        for name in EXPECTED_TRACE_FILES:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_duration_header_only(self, tmp_path):
        # the lowest accepted --duration and --seed
        assert main(
            [
                "simulate", bundled_path("case2_flight.yaml"),
                "--duration", "0", "--seed", "0", "--out", str(tmp_path),
            ]
        ) == 0
        for name in EXPECTED_TRACE_FILES:
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) == 1

    def test_nan_duration_rejected(self, tmp_path, capsys):
        argv = ["simulate", bundled_path("case2_flight.yaml"), "--duration", "nan"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error: --duration: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--state-run"]], ids=["trace", "state-run"])
    def test_flight_too_long_to_record(self, extra, tmp_path, capsys):
        # 1e13 s at 25 Hz is a 3.55 PiB trace column: the allocation is
        # refused at once, before any memory is touched or file written
        text = Path(bundled_path("case2_flight.yaml")).read_text()
        long_flight = tmp_path / "long.yaml"
        long_flight.write_text(text.replace("duration: 50.0", "duration: 1.0e+13"))
        out = tmp_path / "out"
        assert main(["simulate", str(long_flight), "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_never_imports_scipy(self, tmp_path):
        # the model's dynamics are nilpotent, so scipy's expm is never reached
        argv = [
            "simulate", bundled_path("case2_flight.yaml"),
            "--duration", "1", "--out", str(tmp_path),
        ]
        code = (
            "import sys, slamobs\n"
            "from slamobs.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "position.csv").read_text().splitlines()) == 27

    def test_state_run_output(self, tmp_path):
        assert main(
            [
                "simulate", bundled_path("case2_flight.yaml"),
                "--duration", "10", "--state-run", "--seed", "3",
                "--out", str(tmp_path),
            ]
        ) == 0
        lines = (tmp_path / "state_run.csv").read_text().splitlines()
        assert lines[0] == "time_s,true_N,true_E,true_U,ins_N,ins_E,ins_U,est_N,est_E,est_U"
        assert len(lines) == 252

    def test_state_run_is_one_filter_pass(self, tmp_path, monkeypatch):
        """--state-run runs the filter loop once and writes the traces it writes without."""
        passes = []
        filter_frames = simulation._filter_frames

        def counted(*args, **kwargs):
            passes.append(args)
            return filter_frames(*args, **kwargs)

        monkeypatch.setattr(simulation, "_filter_frames", counted)
        argv = ["simulate", bundled_path("case2_flight.yaml"), "--seed", "42", "--duration", "20"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert len(passes) == 1
        assert main(argv + ["--state-run", "--out", str(tmp_path / "state")]) == 0
        assert len(passes) == 2
        for name in EXPECTED_TRACE_FILES:
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "state" / name).read_bytes() == plain, name
            assert len(plain.splitlines()) == 502
        assert (tmp_path / "state" / "state_run.csv").exists()

    def test_state_run_reports_every_file_in_order(self, tmp_path, capsys):
        argv = ["simulate", bundled_path("case2_flight.yaml"), "--duration", "1", "--state-run"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "simulated case2-flight: 26 rows per trace (seed 0)"
        names = EXPECTED_TRACE_FILES + ("state_run.csv",)
        assert lines[1:] == [f"wrote {tmp_path / name}" for name in names]

    def test_requires_simulation_sections(self, capsys):
        assert main(["simulate", bundled_path("case2.yaml")]) == 1
        assert "trajectory" in capsys.readouterr().err


class TestCasesCommand:
    def test_default_table(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(lines) == 4
        for line in lines:
            assert "12/15" in line
            assert " 3 " in line or line.rstrip().endswith("3")
        case2 = lines[1]
        assert "{f1} / {f1,f2}" in case2
        assert "dm_f1-dm_f2" in case2

    def test_both_expansions(self, capsys):
        assert main(["cases", "--exact", "--first-order"]) == 0
        out = capsys.readouterr().out
        assert out.count("expansion:") == 2
        assert "first_order" in out
        assert out.count("12/15") == 8

    def test_parallel_forces_drop_case2_rank(self, capsys):
        assert main(["cases", "--forces", "0,0,9.81", "0,0,9.81"]) == 0
        out = capsys.readouterr().out
        case2 = [line for line in out.splitlines() if line.startswith("2")][0]
        assert "11/15" in case2

    def test_bad_forces(self, capsys):
        assert main(["cases", "--forces", "1,2", "0,0,9.81"]) == 1
        assert "--forces" in capsys.readouterr().err

    def test_non_finite_force_names_the_flag(self, capsys):
        assert main(["cases", "--forces", "0,0,nan", "0,0,9.81"]) == 1
        assert "--forces: entries must be finite" in capsys.readouterr().err

    def test_overflowing_duration(self, capsys):
        assert main(["cases", "--dt", "1e200"]) == 1
        assert capsys.readouterr().err == OVERFLOW_ERROR

    def test_bad_duration_names_the_flag(self, capsys):
        for dt, rule in (("nan", "finite"), ("0", "> 0.0"), ("-5", "> 0.0"), ("inf", "finite")):
            assert main(["cases", "--dt", dt]) == 1
            assert f"error: --dt: must be {rule}" in capsys.readouterr().err
