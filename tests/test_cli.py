"""Command-line interface: reports, traces, tables, exit codes."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import o_expm, o_tom
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


def flight_variant(tmp_path, old, new):
    """A copy of ``case2_flight.yaml`` with the line ``old`` replaced by ``new``."""
    text = Path(bundled_path("case2_flight.yaml")).read_text()
    assert old in text
    path = tmp_path / "variant.yaml"
    path.write_text(text.replace(old, new))
    return str(path)


#: The one line of a flight whose segments end beyond the largest double.
TRAJECTORY_OVERFLOW_ERROR = (
    "error: trajectory: segment 1: the state at its end is not finite "
    "(the segment durations and specific forces are too large)\n"
)


def run_fresh(code, timeout=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def fov_flight_variant(tmp_path, replacements):
    """A copy of ``tests/golden/fov_flight.yaml`` with each (old, new, count) applied."""
    text = (Path(__file__).resolve().parent / "golden" / "fov_flight.yaml").read_text()
    for old, new, count in replacements:
        assert text.count(old) >= count
        text = text.replace(old, new, count)
    path = tmp_path / "fov_variant.yaml"
    path.write_text(text)
    return str(path)


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

    def test_overflowing_flight(self, tmp_path, capsys):
        """A trajectory that overflows is one input error, without a warning."""
        huge = flight_variant(tmp_path, "duration: 50.0", "duration: 1.0e+200")
        assert main(["analyze", huge]) == 1
        assert capsys.readouterr().err == TRAJECTORY_OVERFLOW_ERROR

    def test_vanishing_frame_rate(self, tmp_path, capsys):
        tiny = flight_variant(tmp_path, "frame_rate_hz: 25.0", "frame_rate_hz: 5.0e-324")
        assert main(["analyze", tiny]) == 1
        assert capsys.readouterr().err == (
            "error: sensor: imu_rate_hz / frame_rate_hz must be finite\n"
        )

    @pytest.mark.parametrize(
        "replacements, frames",
        [
            ([("duration: 5.0", "duration: 1.0e+300", 1)], "2.5e+301"),
            (
                [
                    ("v0: [5.0, 0.0, 0.0]", "v0: [0.0, 0.0, 0.0]", 1),
                    ("[0.05, 0.08, 9.81]", "[0.0, 0.0, 9.81]", 1),
                    ("[0.0, -0.05, 9.81]", "[0.0, 0.0, 9.81]", 1),
                    ("duration: 5.0", "duration: 1.0e+308", 2),
                ],
                "inf",
            ),
        ],
        ids=["huge_segment", "infinite_flight"],
    )
    def test_auto_schedule_frame_bound(self, replacements, frames, tmp_path):
        """An auto schedule of more than ``MAX_FRAMES`` frames fails at once, not after hours.

        The first flight has a finite end state (no net acceleration); the
        second holds still, so its end state is finite though its total
        duration is not.
        """
        variant = fov_flight_variant(tmp_path, replacements)
        proc = run_fresh(
            f"import sys\nfrom slamobs.cli import main\nsys.exit(main(['analyze', {variant!r}]))\n",
            timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: schedule: duration * frame_rate_hz is {frames} frames, "
            "more than the 1,000,000 allowed\n"
        )

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
        # 2e13 s at 25 Hz is 5e14 frames, past simulation.MAX_FRAMES: the run
        # is refused at once, before any memory is touched or file written
        text = Path(bundled_path("case2_flight.yaml")).read_text()
        long_flight = tmp_path / "long.yaml"
        long_flight.write_text(text.replace("duration: 50.0", "duration: 1.0e+13"))
        out = tmp_path / "out"
        assert main(["simulate", str(long_flight), "--out", str(out)] + extra) == 1
        assert capsys.readouterr().err == (
            "error: duration * frame_rate_hz is 5e+14 frames, more than the 1,000,000 allowed\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, old, new, message",
        [
            ("range_error_m", "5.0", "1.0e+300", "range_error_m must be finite once squared"),
            ("gyro_noise_deg", "0.1", "1.0e+300", "gyro_noise_deg must be finite once squared"),
            ("frame_rate_hz", "25.0", "5.0e-324", "imu_rate_hz / frame_rate_hz must be finite"),
        ],
        ids=["range_error", "gyro_noise", "frame_rate"],
    )
    def test_sensor_magnitude_is_one_error_line(self, field, old, new, message, tmp_path, capsys):
        """A sensor magnitude the filter cannot square or divide fails before any output."""
        out = tmp_path / "out"
        variant = flight_variant(tmp_path, f"{field}: {old}", f"{field}: {new}")
        argv = ["simulate", variant, "--duration", "0.2"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: sensor: {message}\n"
        assert not out.exists()

    def test_overflowing_flight(self, tmp_path, capsys):
        """A trajectory that overflows fails even when the run stops before the overflow."""
        out = tmp_path / "out"
        huge = flight_variant(tmp_path, "duration: 50.0", "duration: 1.0e+200")
        assert main(["simulate", huge, "--duration", "0.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == TRAJECTORY_OVERFLOW_ERROR
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, old, new",
        [("range_error_m", "5.0", "1.0e+154"), ("gyro_noise_deg", "0.1", "1.0e+155")],
        ids=["range_error", "gyro_noise"],
    )
    def test_overflowing_filter_is_one_error_line(self, field, old, new, tmp_path, capsys):
        """A sigma whose square fits but whose filter sums overflow fails before any output.

        The overflow reaches the innovation covariances as NaN, which the
        blocked Cholesky check factors without an error; its factor is not
        finite.  NumPy's overflow warnings still come first.
        """
        out = tmp_path / "out"
        variant = flight_variant(tmp_path, f"{field}: {old}", f"{field}: {new}")
        with pytest.warns(RuntimeWarning):
            assert main(["simulate", variant, "--duration", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: innovation covariance is singular or indefinite: "
            "its Cholesky factor is not finite\n"
        )
        assert not out.exists()

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


class TestImportContract:
    """Each command loads only the modules it runs, in a fresh interpreter.

    The analysis commands never run the covariance filter, and ``cases``
    reads no scenario file; a flight document or ``simulate`` loads both.
    """

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["analyze", bundled_path("case2.yaml")], ["yaml"]),
            (["analyze", bundled_path("case2_segment1.yaml"), "--local", "0"], ["yaml"]),
            (["cases", "--exact", "--first-order"], []),
            (["analyze", bundled_path("case2_flight.yaml")], ["slamobs.simulation", "yaml"]),
            (SIMULATE + ["--duration", "1"], ["slamobs.simulation", "yaml"]),
        ],
        ids=["analyze", "analyze_local", "cases", "analyze_flight", "simulate"],
    )
    def test_command_loads(self, argv, loaded, tmp_path):
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path)]
        code = (
            "import contextlib, io, sys\n"
            "from slamobs.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print([m for m in ('slamobs.simulation', 'yaml') if m in sys.modules])\n"
        )
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(loaded)

    def test_import_loads_no_filter_and_no_yaml(self):
        """``import slamobs`` loads neither; the filter's names load the filter on first use."""
        proc = run_fresh(
            "import sys, slamobs\n"
            "print([m for m in ('slamobs.simulation', 'yaml') if m in sys.modules])\n"
            "assert slamobs.simulate is slamobs.simulation.simulate\n"
            "assert 'slamobs.simulation' in sys.modules\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_with_scipy_blocked(self, tmp_path):
        """Every command, and the exponential of a non-nilpotent F, runs where scipy cannot load."""
        stripe = "PwcsStripe(F=np.roll(np.eye(4), 1, axis=1), H=np.eye(4)[:1], delta=0.5)"
        simulate = SIMULATE + ["--duration", "1", "--state-run", "--out", str(tmp_path)]
        code = (
            "import contextlib, io, json, sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "import numpy as np\n"
            "import slamobs\n"
            "from slamobs.cli import main\n"
            "from slamobs.pwcs import PwcsStripe, state_transition, tom\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in ({ANALYZE!r}, ['cases'], {simulate!r}):\n"
            "        assert main(argv) == 0, argv\n"
            f"stripe = {stripe}\n"
            "phi = state_transition(stripe.F, stripe.delta)\n"
            "print(json.dumps([phi.tolist(), tom([stripe, stripe]).tolist()]))\n"
        )
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        phi, matrix = json.loads(proc.stdout)
        F = np.roll(np.eye(4), 1, axis=1).tolist()
        np.testing.assert_allclose(phi, o_expm(F, 0.5), rtol=0, atol=1e-15)
        want = o_tom([(F, [[1.0, 0.0, 0.0, 0.0]], 0.5)] * 2, max_power=3)
        np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-15)
        assert len((tmp_path / "state_run.csv").read_text().splitlines()) == 27

    def test_filter_module_is_an_attribute_of_the_package(self):
        proc = run_fresh(
            "import slamobs\n"
            "assert slamobs.simulation.process_noise_intensity\n"
            "assert 'simulation' in dir(slamobs)\n"
        )
        assert proc.returncode == 0, proc.stderr
