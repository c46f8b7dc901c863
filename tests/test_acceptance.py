"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import contextlib
import time

import numpy as np
import pytest

from oracles import o_lom, o_tom, scenario_to_oracle_stripes
from randgen import random_scenario
from slamobs.analysis import (
    AnalysisOptions,
    analyze_local,
    analyze_total,
    case_scenario,
)
from slamobs.cli import main
from slamobs.model import augment, equivalence_pad
from slamobs.pwcs import lom, numerical_rank, tom
from slamobs.simulation import SensorConfig, SimScenario, TrajectoryConfig, simulate

RANK_TOL = 1e-10
AXES = ("N", "E", "U")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def flight_run():
    scenario = SimScenario(
        feature_positions={"f1": [10.0, 0.0, 0.0], "f2": [20.0, 100.0, 0.0]},
        schedule=case_scenario(2).schedule,
    )
    trajectory = TrajectoryConfig(
        p0=[0.0, 0.0, 100.0],
        v0=[0.1, 0.0, 0.0],
        segments=[(50.0, [0.0, 0.0, 9.81]), (50.0, [0.0, 0.1, 9.81])],
    )
    start = time.perf_counter()
    trace = simulate(
        scenario, trajectory, SensorConfig(), seed=0, collect_diagnostics=True
    )
    elapsed = time.perf_counter() - start
    return trace, elapsed


def test_criterion_1_rank_eight_local():
    with criterion(1, "local rank 8 of 12 for the case-2 first segment"):
        start = time.perf_counter()
        report = analyze_local(case_scenario(2), 0, AnalysisOptions(rank_tol=RANK_TOL))
        elapsed = time.perf_counter() - start
        assert report.rank == 8
        assert report.matrix_cols == 12
        assert elapsed < 1.0


def test_criterion_2_rank_twelve_total():
    with criterion(2, "total rank 12 of 15, nullity 3, for the case-2 pattern"):
        scenario = case_scenario(2, forces=([0, 0, 9.81], [0, 0.1, 9.81]))
        f1, f2 = (np.asarray(s.specific_force) for s in scenario.segments)
        assert np.linalg.norm(np.cross(f1, f2)) > 0
        report = analyze_total(scenario, AnalysisOptions(rank_tol=RANK_TOL))
        assert report.rank == 12
        assert report.matrix_cols == 15
        assert report.nullity == 3


def test_criterion_3_mode_classification():
    with criterion(3, "observable and unobservable mode classification"):
        report = analyze_total(case_scenario(2), AnalysisOptions(rank_tol=RANK_TOL))
        for base in ("dv", "psi", "dp-dm_f2", "dm_f1-dm_f2"):
            for axis in AXES:
                assert report.verdict(f"{base}_{axis}").observable, f"{base}_{axis}"
        for base in ("dp", "dm_f1", "dm_f2"):
            for axis in AXES:
                assert not report.verdict(f"{base}_{axis}").observable, f"{base}_{axis}"


def test_criterion_4_nullity_floor():
    with criterion(4, "nullity >= 3 over 200 randomized scenarios"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            report = analyze_total(random_scenario(rng))
            assert report.nullity >= 3


def test_criterion_5_augmentation_equivalence():
    with criterion(5, "padding an undetected feature keeps rank, adds 3 to nullity"):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            stripes = augment(random_scenario(rng))
            base = tom(stripes)
            padded = tom([equivalence_pad(s, 3) for s in stripes])
            rank_base = numerical_rank(base, RANK_TOL)
            rank_padded = numerical_rank(padded, RANK_TOL)
            assert rank_padded == rank_base
            nullity_base = base.shape[1] - rank_base
            nullity_padded = padded.shape[1] - rank_padded
            assert nullity_padded == nullity_base + 3


def test_criterion_6_single_segment_collapse():
    with criterion(6, "1-segment total analysis equals the local analysis"):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            scenario = random_scenario(rng, n_segments=1)
            total = analyze_total(scenario)
            local = analyze_local(scenario, 0)
            assert total.rank == local.rank
            assert total.nullity == local.nullity
            assert [(v.label, v.observable) for v in total.mode_results] == [
                (v.label, v.observable) for v in local.mode_results
            ]


def test_criterion_7_covariance_observability_consistency(flight_run):
    with criterion(7, "covariance run matches the observability verdicts"):
        trace, elapsed = flight_run
        assert elapsed < 30.0
        # (a) velocity convergence during the first segment
        for axis in AXES:
            v0 = trace.value_at(f"dv_{axis}", 0.0)
            v50 = trace.value_at(f"dv_{axis}", 50.0)
            assert v50 <= 0.20 * v0, f"dv_{axis}: {v50:.3g} vs {v0:.3g}"
        # (b) absolute feature errors stay bounded away from zero
        for fid in ("f1", "f2"):
            for axis in AXES:
                final = trace.value_at(f"dm_{fid}_{axis}", 100.0)
                assert final >= 0.5, f"dm_{fid}_{axis}: {final:.3g}"
        # (c) relative functionals collapse
        for base in ("dp-dm_f2", "dm_f1-dm_f2"):
            for axis in AXES:
                series = trace.series(f"{base}_{axis}")
                finite = np.flatnonzero(np.isfinite(series))
                first = series[finite[0]]
                final = trace.value_at(f"{base}_{axis}", 100.0)
                assert final <= 0.25 * first, f"{base}_{axis}: {final:.3g} vs {first:.3g}"
        # (d) yaw: flat in segment 1, converging in segment 2
        yaw0 = trace.value_at("psi_U", 0.0)
        yaw50 = trace.value_at("psi_U", 50.0)
        yaw100 = trace.value_at("psi_U", 100.0)
        assert abs(yaw50 - yaw0) < 0.10 * yaw0
        assert (yaw50 - yaw100) >= 0.10 * yaw50


def test_criterion_8_numerical_hygiene(flight_run):
    with criterion(8, "covariance stays symmetric, PSD, and update-monotone"):
        trace, _ = flight_run
        diag = trace.diagnostics
        assert diag.max_relative_asymmetry <= 1e-9
        assert diag.min_eigenvalue_ratio >= -1e-9
        assert diag.n_updates == 2501
        assert diag.max_update_variance_growth <= 1e-9


def test_criterion_9_oracle_equivalence():
    with criterion(9, "stacked matrices match the brute-force assembler"):
        scenarios = [case_scenario(case_id) for case_id in (1, 2, 3, 4)]
        rng = np.random.default_rng(2029)
        scenarios += [random_scenario(rng) for _ in range(20)]
        for scenario in scenarios:
            stripes = augment(scenario)
            oracle = scenario_to_oracle_stripes(scenario)
            for mode, first_order in (("exact", False), ("first_order", True)):
                got = tom(stripes, max_power=2, mode=mode)
                want = np.array(o_tom(oracle, max_power=2, first_order=first_order))
                scale = max(1.0, float(np.abs(want).max()))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
            for stripe, (F, H, _) in zip(stripes, oracle):
                got = lom(stripe, max_power=2)
                want = np.array(o_lom(H, F, max_power=2))
                scale = max(1.0, float(np.abs(want).max()))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_criterion_10_simulation_determinism(tmp_path):
    with criterion(10, "repeated simulate runs are byte-identical"):
        import importlib.resources

        scenario_path = str(
            importlib.resources.files("slamobs") / "scenarios" / "case2_flight.yaml"
        )
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        for out in (out_a, out_b):
            rc = main(
                ["simulate", scenario_path, "--seed", "42", "--out", str(out)]
            )
            assert rc == 0
        names = ["position.csv", "velocity.csv", "attitude.csv", "features.csv", "relative.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
