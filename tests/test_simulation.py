"""Covariance simulation: propagation, updates, traces."""

import numpy as np
import pytest

import types
import warnings

from oracles import (
    o_diagnostics,
    o_expm,
    o_feature_obs_row,
    o_in_fov,
    o_kinematics,
    o_noise_cartesian,
    o_segment,
    o_state_run,
    o_step_filter,
)
from test_golden import SCENARIO as CASE2_FLIGHT
from test_golden_fov import SCENARIO as FOV_SCENARIO
from slamobs import analysis, simulation
from slamobs.model import DetectionSchedule, feature_obs_row, ins_error_f
from slamobs.pwcs import state_transition
from slamobs.scenario import load_scenario, parse_scenario
from slamobs.simulation import (
    AugmentedCovariance,
    SensorConfig,
    SimScenario,
    TrajectoryConfig,
    fov_schedule,
    initialize_feature,
    measurement_noise_cartesian,
    process_noise_intensity,
    simulate,
    state_comparison_run,
)

G = 9.81


def flight_trajectory():
    return TrajectoryConfig(
        p0=[0.0, 0.0, 100.0],
        v0=[0.1, 0.0, 0.0],
        segments=[(50.0, [0.0, 0.0, G]), (50.0, [0.0, 0.1, G])],
    )


def o_trajectory(trajectory, t):
    """``o_kinematics`` of a TrajectoryConfig at time t."""
    return o_kinematics(trajectory.p0, trajectory.v0, trajectory.segments, trajectory.gravity, t)


def flight_scenario():
    return SimScenario(
        feature_positions={"f1": [10.0, 0.0, 0.0], "f2": [20.0, 100.0, 0.0]},
        schedule=DetectionSchedule(
            detected=np.array([[1, 1], [0, 1]], dtype=bool), feature_ids=("f1", "f2")
        ),
    )


@pytest.fixture(scope="module")
def flight_trace():
    return simulate(
        flight_scenario(), flight_trajectory(), SensorConfig(), seed=0,
        collect_diagnostics=True,
    )


class TestTrajectory:
    def test_level_segment_is_constant_velocity(self):
        config = flight_trajectory()
        pos, vel, _ = config.state_at(50.0)
        np.testing.assert_allclose(pos, [5.0, 0.0, 100.0], atol=1e-9)
        np.testing.assert_allclose(vel, [0.1, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(config.state_at(0.0)[2], [0.0, 0.0, G])

    def test_acceleration_segment_velocity(self):
        config = flight_trajectory()
        assert config.total_duration == pytest.approx(100.0)
        _, vel, _ = config.state_at(100.0)
        np.testing.assert_allclose(vel, [0.1, 5.0, 0.0], atol=1e-9)

    def test_hover(self):
        config = TrajectoryConfig(
            p0=[1.0, 2.0, 30.0], v0=[0.0, 0.0, 0.0], segments=[(10.0, [0.0, 0.0, G])]
        )
        pos = np.array([config.state_at(k / 10.0)[0] for k in range(101)])
        np.testing.assert_allclose(pos, np.tile([1.0, 2.0, 30.0], (101, 1)), atol=1e-12)

    def test_positions_at_matches_per_time_lookup(self):
        config = TrajectoryConfig(
            p0=[3.0, -2.0, 120.0],
            v0=[4.9, 0.7, -0.3],
            segments=[(10.3, [0.2, 0.0, G]), (0.7, [1.5, -0.4, 9.0]), (25.1, [0.0, 0.3, 10.2]),
                      (3.3, [-0.8, 0.1, G])],
        )
        ends = np.cumsum([d for d, _ in config.segments])
        near = [ends, ends - 1e-12, ends + 1e-12]
        near += [np.nextafter(t, limit) for t in near for limit in (0, 99)]
        times = np.concatenate(
            [np.arange(0, 1000) / 25.0, *near, [0.0, -1.0, 39.4 + 1e-6, 50.0, 1e4]]
        )
        positions, segments = config.positions_at(times)
        want = [o_trajectory(config, t) for t in times.tolist()]
        np.testing.assert_array_equal(positions, [p for p, _, _ in want])
        durations = [d for d, _ in config.segments]
        want_segments = [o_segment(durations, t) for t in times.tolist()]
        np.testing.assert_array_equal(segments, want_segments)
        for t, (p, v, f), s in zip(times.tolist(), want, want_segments):
            got = config.state_at(t)
            np.testing.assert_array_equal(np.concatenate(got), np.concatenate([p, v, f]))
            assert config.segment_index(t) == s

    def test_motion_is_continuous_past_a_segment_end(self):
        """A time just past an end moves on the next segment, not held at the end point."""
        trajectory = TrajectoryConfig(
            p0=[0.0, 0.0, 100.0],
            v0=[200.0, 0.0, 0.0],
            segments=[(10.0, [0.0, 0.0, G]), (10.0, [1.5, -0.5, G + 0.2])],
        )
        pos, _, _ = trajectory.state_at(10.0 + 5e-13)
        assert pos[0] == 2000.0000000000998
        np.testing.assert_array_equal(trajectory.positions_at([10.0 + 5e-13])[0][0], pos)
        for t in (10.0 - 5e-13, 10.0, 10.0 + 5e-13):
            assert trajectory.segment_index(t) == o_segment([10.0, 10.0], t) == 1
            got = trajectory.state_at(t)
            for g, w in zip(got, o_trajectory(trajectory, t)):
                np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(got[2], trajectory.segments[1][1])

    def test_motion_continues_past_the_end(self):
        """Past the last segment's end the vehicle moves on, as its velocity and force say."""
        trajectory = TrajectoryConfig(
            p0=[0.0, 0.0, 100.0], v0=[200.0, 0.0, 0.0], segments=[(10.0, [0.0, 0.0, G])]
        )
        pos, vel, force = trajectory.state_at(11.0)
        np.testing.assert_array_equal(pos, [2200.0, 0.0, 100.0])
        np.testing.assert_array_equal(vel, [200.0, 0.0, 0.0])
        np.testing.assert_array_equal(force, [0.0, 0.0, G])
        np.testing.assert_array_equal(trajectory.positions_at([11.0])[0][0], pos)

    @pytest.mark.parametrize("offset", [0.0, 5e-13], ids=["boundary", "within_slack"])
    def test_state_at_force_follows_segment_index(self, offset):
        """At a segment end the force is the next segment's, as the filter's Phi is."""
        trajectory = load_scenario(CASE2_FLIGHT).trajectory
        t = 50.0 + offset
        assert trajectory.segment_index(t) == 1
        np.testing.assert_array_equal(trajectory.state_at(t)[2], trajectory.segments[1][1])
        assert trajectory.segments_at([t])[0] == 1
        before = trajectory.state_at(50.0 - 2e-12)[2]
        np.testing.assert_array_equal(before, trajectory.segments[0][1])

    def test_rejects_bad_segments(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(p0=[0, 0, 0], v0=[0, 0, 0], segments=[(0.0, [0, 0, G])])
        with pytest.raises(ValueError):
            TrajectoryConfig(p0=[0, 0, 0], v0=[0, 0, 0], segments=[])


def _propagate(P, F, q, dt):
    """One prediction of length dt: the exact transition of F and q * dt of process noise."""
    return simulation._propagated(P, state_transition(F, dt, "exact"), q * dt)[1]


def _update(P, H, R):
    """The Joseph-form posterior of P."""
    return simulation._joseph(P, H, R)[2]


class TestPropagate:
    def test_no_noise_no_dynamics_is_identity(self):
        P = AugmentedCovariance.initial(n_features=1).P
        out = _propagate(P, np.zeros((12, 12)), np.zeros((12, 12)), dt=0.5)
        np.testing.assert_array_equal(out, P)

    def test_position_variance_grows_from_velocity(self):
        P = np.diag([0.0, 0, 0, 1, 1, 1, 0, 0, 0])
        F = np.zeros((9, 9))
        F[0:3, 3:6] = np.eye(3)
        out = _propagate(P, F, np.zeros((9, 9)), dt=2.0)
        assert all(out[i, i] > 0 for i in range(3))
        np.testing.assert_allclose(np.diag(out)[0:3], [4.0, 4.0, 4.0])

    def test_one_step_matches_direct_oracle(self):
        sensor = SensorConfig()
        P = AugmentedCovariance.initial(n_features=2).P
        F = np.zeros((15, 15))
        F[0:9, 0:9] = ins_error_f([0.0, 0.0, G])
        q = process_noise_intensity(sensor, 15)
        dt = 1.0 / sensor.imu_rate_hz
        out = _propagate(P, F, q, dt)
        phi = np.array(o_expm(F.tolist(), dt))
        want = phi @ P @ phi.T + q * dt
        want = 0.5 * (want + want.T)
        np.testing.assert_allclose(out, want, atol=1e-12 * np.abs(want).max())
        # without an update the trace grows by exactly the injected noise
        # (the transition is volume preserving only to first order, so
        # compare against the oracle value, not the bare prior trace)
        assert np.trace(out) > np.trace(P)


class TestUpdate:
    def test_zero_observation_changes_nothing(self):
        P = AugmentedCovariance.initial(n_features=1).P
        out = _update(P, np.zeros((3, 12)), 25.0 * np.eye(3))
        np.testing.assert_allclose(out, P, atol=1e-12)

    def test_large_prior_scalar_formula(self):
        # a single direct position measurement against a 1e9 prior collapses
        # the variance to the measurement level, like a fresh feature fix
        P = np.diag([1e9, 0, 0, 0, 0, 0, 0, 0, 0])
        H = np.zeros((1, 9))
        H[0, 0] = 1.0
        out = _update(P, H, np.array([[25.0]]))
        expected = 1e9 * 25.0 / (1e9 + 25.0)
        assert out[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_relative_functional_collapses_absolute_does_not(self):
        sensor = SensorConfig()
        cov = AugmentedCovariance.initial(n_features=2)
        cov = initialize_feature(cov, 0)
        cov = initialize_feature(cov, 1)
        rel = np.array([10.0, 0.0, -100.0])
        H = np.zeros((3, 15))
        H[:, 0:9] = feature_obs_row(rel)
        H[:, 9:12] = np.eye(3)
        R = measurement_noise_cartesian(rel, sensor)
        w_rel = np.zeros(15)
        w_rel[0], w_rel[9] = 1.0, -1.0
        w_abs = np.zeros(15)
        w_abs[0] = 1.0

        before_rel = cov.functional_std(w_rel)
        out = AugmentedCovariance(_update(cov.P, H, R), cov.feature_initialized)

        # textbook-gain oracle for both quadratic forms
        S = H @ cov.P @ H.T + R
        K = cov.P @ H.T @ np.linalg.inv(S)
        P_oracle = (np.eye(15) - K @ H) @ cov.P
        np.testing.assert_allclose(
            out.functional_std(w_rel),
            np.sqrt(w_rel @ P_oracle @ w_rel),
            rtol=1e-5,
        )
        np.testing.assert_allclose(
            out.functional_std(w_abs),
            np.sqrt(w_abs @ P_oracle @ w_abs),
            rtol=1e-5,
        )
        assert before_rel > 3e4
        assert out.functional_std(w_rel) < 30.0
        assert out.functional_std(w_abs) == pytest.approx(1.0, rel=1e-2)

    def test_singular_innovation_raises(self):
        H = np.zeros((1, 9))
        H[0, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            _update(np.zeros((9, 9)), H, np.array([[0.0]]))


class TestInitializeFeature:
    def test_default_prior_block(self):
        cov = AugmentedCovariance.initial(n_features=2)
        out = initialize_feature(cov, 1)
        np.testing.assert_array_equal(out.P[12:15, 12:15], 1e9 * np.eye(3))
        assert not out.P[12:15, 0:12].any()
        assert out.feature_initialized == [False, True]

    def test_zero_prior_is_perfectly_known(self):
        cov = AugmentedCovariance.initial(n_features=1)
        out = initialize_feature(cov, 0, u_m_value=0.0)
        assert not out.P[9:12, :].any()

    def test_invariants_hold_after_initialization(self):
        cov = AugmentedCovariance.initial(n_features=2)
        out = initialize_feature(cov, 0, u_m_value=1e6)
        np.testing.assert_array_equal(out.P, out.P.T)
        assert np.linalg.eigvalsh(out.P)[0] >= 0.0

    def test_double_initialization_rejected(self):
        cov = initialize_feature(AugmentedCovariance.initial(n_features=1), 0)
        with pytest.raises(ValueError, match="already initialized"):
            initialize_feature(cov, 0)


class TestMeasurementNoise:
    def test_tangential_scale_at_100m(self):
        R = measurement_noise_cartesian(100.0, SensorConfig())
        # angular noise of 0.1 degrees at 100 m is about 0.1745 m of arc
        sigmas = np.sqrt(np.linalg.eigvalsh(R))
        assert sigmas[0] == pytest.approx(100.0 * np.deg2rad(0.1), rel=1e-6)
        assert sigmas[1] == pytest.approx(100.0 * np.deg2rad(0.1), rel=1e-6)
        assert sigmas[2] == pytest.approx(5.0, rel=1e-9)

    def test_isotropic_when_scales_match(self):
        r = 200.0
        deg = np.rad2deg(5.0 / r)
        sensor = SensorConfig(range_error_m=5.0, bearing_noise_deg=deg, elevation_noise_deg=deg)
        R = measurement_noise_cartesian([0.0, r, 0.0], sensor)
        np.testing.assert_allclose(R, 25.0 * np.eye(3), rtol=1e-9)

    def test_degenerate_sigma_floored_with_warning(self):
        sensor = SensorConfig(bearing_noise_deg=0.0, elevation_noise_deg=0.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            R = measurement_noise_cartesian([50.0, 0.0, 0.0], sensor)
        eigs = np.linalg.eigvalsh(R)
        assert eigs[0] > 0.0
        assert eigs[-1] == pytest.approx(25.0, rel=1e-6)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            measurement_noise_cartesian([0.0, 0.0, 0.0], SensorConfig())


class TestFovSchedule:
    def test_flight_geometry_reproduces_case2_pattern(self):
        schedule = fov_schedule(
            {"f1": [10.0, 0.0, 0.0], "f2": [20.0, 100.0, 0.0]},
            flight_trajectory(),
            SensorConfig(),
        )
        np.testing.assert_array_equal(
            schedule.detected, np.array([[True, True], [False, True]])
        )


class TestSimulate:
    def test_velocity_std_drops_early(self, flight_trace):
        for axis in ("N", "E", "U"):
            start = flight_trace.value_at(f"dv_{axis}", 0.0)
            mid = flight_trace.value_at(f"dv_{axis}", 50.0)
            assert mid < 0.2 * start

    def test_feature_stds_do_not_converge_to_zero(self, flight_trace):
        for fid in ("f1", "f2"):
            for axis in ("N", "E", "U"):
                assert flight_trace.value_at(f"dm_{fid}_{axis}", 100.0) >= 0.5

    def test_relative_stds_converge(self, flight_trace):
        for label in ("dp-dm_f2_N", "dm_f1-dm_f2_N"):
            first = flight_trace.series(label)[0]
            final = flight_trace.value_at(label, 100.0)
            assert final <= 0.25 * first
            assert final < 20.0

    def test_yaw_becomes_observable_in_second_segment(self, flight_trace):
        yaw0 = flight_trace.value_at("psi_U", 0.0)
        yaw50 = flight_trace.value_at("psi_U", 50.0)
        yaw100 = flight_trace.value_at("psi_U", 100.0)
        assert abs(yaw50 - yaw0) < 0.1 * yaw0
        assert (yaw50 - yaw100) / yaw50 >= 0.1

    def test_numerical_health(self, flight_trace):
        diag = flight_trace.diagnostics
        assert diag.max_relative_asymmetry <= 1e-9
        assert diag.min_eigenvalue_ratio >= -1e-9
        assert diag.max_update_variance_growth <= 1e-9
        assert diag.n_updates == 2501

    def test_trace_shape_and_labels(self, flight_trace):
        assert flight_trace.times.size == 2501
        assert flight_trace.times[0] == 0.0
        assert flight_trace.times[-1] == pytest.approx(100.0)
        assert set(flight_trace.std) == {
            f"{block}_{axis}"
            for block in ("dp", "dv", "psi", "dm_f1", "dm_f2")
            for axis in ("N", "E", "U")
        }
        assert set(flight_trace.derived_std) == {
            f"{base}_{axis}"
            for base in ("dp-dm_f1", "dp-dm_f2", "dm_f1-dm_f2")
            for axis in ("N", "E", "U")
        }
        for series in flight_trace.std.values():
            assert series.shape == (2501,)
            assert np.all(series >= 0)

    def test_deterministic_across_runs(self):
        kwargs = dict(scenario=flight_scenario(), trajectory=flight_trajectory(), sensor=SensorConfig())
        a = simulate(seed=7, **kwargs)
        b = simulate(seed=7, **kwargs)
        np.testing.assert_array_equal(a.times, b.times)
        for label in a.labels():
            np.testing.assert_array_equal(a.series(label), b.series(label))

    def test_zero_duration_empty_trace(self):
        trace = simulate(
            flight_scenario(), flight_trajectory(), SensorConfig(), duration=0.0
        )
        assert trace.times.size == 0
        assert all(series.size == 0 for series in trace.std.values())

    @pytest.mark.parametrize("gating", ["schedule", "fov"])
    def test_no_frame_past_the_end(self, gating):
        """A run whose length is not a whole number of frames stops at the last frame inside it."""
        trajectory = TrajectoryConfig(
            p0=[0.0, 0.0, 100.0], v0=[0.1, 0.0, 0.0], segments=[(10.03, [0.0, 0.0, G])]
        )
        scenario = SimScenario(
            feature_positions={"f1": [0.2, 0.0, 0.0]},
            schedule=DetectionSchedule(detected=np.array([[1]], dtype=bool), feature_ids=("f1",))
            if gating == "schedule"
            else None,
        )
        trace = simulate(scenario, trajectory, SensorConfig())
        run = state_comparison_run(scenario, trajectory, SensorConfig(), seed=1)
        for times in (trace.times, run.times):
            assert times.size == 251
            assert times[-1] <= 10.03
        truncated = simulate(flight_scenario(), flight_trajectory(), SensorConfig(), duration=4.03)
        assert truncated.times.size == 101 and truncated.times[-1] <= 4.03

    def test_auto_schedule_runs(self):
        scenario = SimScenario(
            feature_positions={"f1": [10.0, 0.0, 0.0], "f2": [20.0, 100.0, 0.0]}
        )
        trace = simulate(scenario, flight_trajectory(), SensorConfig(), duration=4.0)
        assert trace.times.size == 101
        # only f1 is inside the cone at the start; f2 keeps its raw prior
        assert trace.value_at("dm_f1_N", 4.0) < 1e3
        assert trace.value_at("dm_f2_N", 4.0) == pytest.approx(np.sqrt(1e9), rel=1e-6)

    @pytest.mark.parametrize(
        "run", [simulate, state_comparison_run], ids=["simulate", "state_run"]
    )
    def test_schedule_segment_count_mismatch(self, run):
        scenario = flight_scenario()
        for n_segments in (1, 3):
            trajectory = TrajectoryConfig(
                p0=[0, 0, 100.0], v0=[0.1, 0, 0], segments=[(50.0, [0, 0, G])] * n_segments
            )
            with pytest.raises(ValueError, match="segments"):
                run(scenario, trajectory, SensorConfig())
        for duration in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="duration"):
                run(scenario, flight_trajectory(), SensorConfig(), duration=duration)


class TestOnePass:
    """One filter pass gives the trace and the state run, and the trace records it exactly."""

    @pytest.mark.parametrize(
        "flight, duration, frames",
        [("case2", None, 2501), ("case2", 3.3, 83), ("case2", 0.0, 0), ("gated", None, 481),
         ("gated", 3.3, 100)],
    )
    def test_state_run_trace_equals_simulate(self, flight, duration, frames):
        if flight == "case2":
            doc = load_scenario(CASE2_FLIGHT)
            inputs = (doc.sim_scenario(), doc.trajectory, doc.sensor)
        else:
            features, trajectory = _gated_flight()
            sensor = SensorConfig(frame_rate_hz=30.0, imu_rate_hz=90.0)
            inputs = (SimScenario(feature_positions=features), trajectory, sensor)
        assert (inputs[0].schedule is not None) == (flight == "case2")  # schedule and FOV paths
        want = simulate(*inputs, seed=7, duration=duration)
        run = state_comparison_run(*inputs, seed=7, duration=duration)
        got = run.trace
        assert want.times.size == frames
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(run.times, want.times)
        assert got.labels() == want.labels() and got.feature_ids == want.feature_ids
        for label in want.labels():
            np.testing.assert_array_equal(got.series(label), want.series(label), err_msg=label)
        assert got.diagnostics is None

    def test_recorder_matches_each_frames_covariance(self):
        """Every std is sqrt(max(P_ii, 0)) and every difference's is sqrt(max(w P w, 0))."""
        doc = load_scenario(CASE2_FLIGHT)
        scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
        trace = simulate(scenario, trajectory, sensor, duration=20.0)
        count = simulation._frame_count(scenario, trajectory, sensor, 20.0)
        covariances = [f.P for f in simulation._filter_frames(scenario, trajectory, sensor, count)]
        labels, weights = analysis.standard_weights(scenario.feature_ids)
        n = len(trace.std)
        assert count == len(covariances) == trace.times.size == 501
        assert list(trace.std) == labels[:n] and list(trace.derived_std) == labels[n:]
        std = [[np.sqrt(max(P[i, i], 0.0)) for P in covariances] for i in range(n)]
        derived = [[np.sqrt(max(w @ P @ w, 0.0)) for P in covariances] for w in weights[n:]]
        np.testing.assert_array_equal(np.array(list(trace.std.values())), std)
        np.testing.assert_array_equal(np.array(list(trace.derived_std.values())), derived)


class TestCrossModuleConsistency:
    """Rank-based verdicts must show up in the covariance behaviour."""

    def test_verdicts_match_std_evolution(self, flight_trace):
        from slamobs.analysis import analyze_total, case_scenario

        report = analyze_total(case_scenario(2))
        for verdict in report.mode_results:
            label = verdict.label
            try:
                series = flight_trace.series(label)
            except KeyError:
                continue
            first = series[np.flatnonzero(np.isfinite(series))[0]]
            final = series[-1]
            if verdict.observable:
                assert final < 0.5 * first, f"{label}: {final:.3g} vs {first:.3g}"
            elif label.startswith(("dp_", "dm_")) and "-" not in label:
                # unobservable position/feature axes must not collapse; the
                # raw feature prior is an effectively-infinite sentinel, so
                # the meaningful floor is an absolute one tied to the initial
                # vehicle position uncertainty
                if label.startswith("dp_"):
                    assert final >= 0.5 * first or final > first
                else:
                    assert final >= 0.5


class TestStateComparisonRun:
    def test_filter_beats_dead_reckoning(self):
        run = state_comparison_run(
            flight_scenario(), flight_trajectory(), SensorConfig(), seed=5
        )
        ins_err = np.linalg.norm(run.ins_positions - run.true_positions, axis=1)
        est_err = np.linalg.norm(run.estimated_positions - run.true_positions, axis=1)
        # compare over the second half, after the filter has converged
        half = run.times.size // 2
        assert est_err[half:].mean() < ins_err[half:].mean()

    @pytest.mark.parametrize(
        "prior", [dict(vehicle_variances=[-1.0] + [1.0] * 8), dict(feature_prior=-1.0)]
    )
    def test_negative_prior_rejected(self, prior):
        """The state run draws its initial errors from the prior before the loop starts."""
        with pytest.raises(ValueError, match="non-negative"):
            SimScenario(feature_positions={"f1": [10.0, 0.0, 0.0]}, **prior)

    def test_deterministic_per_seed(self):
        kwargs = dict(
            scenario=flight_scenario(), trajectory=flight_trajectory(), sensor=SensorConfig()
        )
        a = state_comparison_run(seed=5, duration=10.0, **kwargs)
        b = state_comparison_run(seed=5, duration=10.0, **kwargs)
        np.testing.assert_array_equal(a.estimated_positions, b.estimated_positions)
        c = state_comparison_run(seed=6, duration=10.0, **kwargs)
        assert not np.array_equal(a.estimated_positions, c.estimated_positions)


def _scalar_frame_geometry(scenario, trajectory, sensor, count):
    """The per-frame geometry stream built frame by frame and feature by feature.

    Per-vector references (``o_in_fov``, ``o_noise_cartesian``,
    ``o_feature_obs_row``) in place of the batched kernels, ``o_kinematics``
    for the vehicle position, and a running clock with ``o_segment`` for the
    IMU steps, yielding the records the filter loop reads.
    """
    ids = scenario.feature_ids
    durations = [duration for duration, _ in trajectory.segments]
    sigmas = (sensor.range_error_m, sensor.bearing_noise_rad, sensor.elevation_noise_rad)
    steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
    imu_dt = (1.0 / sensor.frame_rate_hz) / steps_per_frame
    for frame in range(count):
        clock = (frame - 1) * (1.0 / sensor.frame_rate_hz)
        pattern = []
        for _ in range(steps_per_frame):
            pattern.append(o_segment(durations, clock))
            clock += imu_dt
        t = frame * (1.0 / sensor.frame_rate_hz)
        pos = o_trajectory(trajectory, t)[0]
        features, obs, noise = [], [], []
        for c, fid in enumerate(ids):
            rel = scenario.feature_positions[fid] - pos
            if scenario.schedule is None:
                visible = o_in_fov(rel, sensor.boresight, sensor.fov_deg)
            else:
                visible = scenario.schedule.detected[c, o_segment(durations, t)]
            if visible:
                features.append(c)
                obs.append(o_feature_obs_row(rel))
                noise.append(o_noise_cartesian(rel, sigmas))
        yield (
            t,
            pos,
            tuple(pattern),
            features,
            np.array(obs).reshape(-1, 3, 9),
            np.array(noise).reshape(-1, 3, 3),
        )


def _gated_flight():
    """Four features crossing the cone of a 5 m/s flight at 100 m."""
    trajectory = TrajectoryConfig(
        p0=[0.0, 0.0, 100.0],
        v0=[5.0, 0.0, 0.0],
        segments=[(6.0, [0.0, 0.0, G]), (10.0, [0.05, 0.08, G])],
    )
    features = {
        "m1": [-15.0, 3.0, 0.0],
        "m2": [10.0, -8.0, 0.0],
        "m3": [35.0, 5.0, 0.0],
        "m4": [60.0, -10.0, 0.0],
    }
    return features, trajectory


class TestBatchedGeometry:
    """The batched geometry reproduces the per-vector code bit for bit."""

    def test_noise_blocks_match_scalar_reference(self):
        rng = np.random.default_rng(11)
        rel = rng.standard_normal((400, 3)) * rng.choice([0.01, 1.0, 100.0, 1e4], (400, 1))
        rel[:40, 2] = 50.0 * np.sign(rel[:40, 2])  # nearly vertical lines of sight
        los_u = np.abs(rel[:, 2]) / np.linalg.norm(rel, axis=1)
        assert (los_u > 0.9).sum() >= 40 and (los_u <= 0.9).sum() >= 100
        sensor = SensorConfig(range_error_m=3.0, bearing_noise_deg=0.2, elevation_noise_deg=0.05)
        sigmas = (3.0, sensor.bearing_noise_rad, sensor.elevation_noise_rad)
        want = np.array([o_noise_cartesian(r, sigmas) for r in rel])
        np.testing.assert_array_equal(simulation._noise_blocks(rel, sensor), want)
        for r, block in zip(rel[::37], want[::37]):
            np.testing.assert_array_equal(measurement_noise_cartesian(r, sensor), block)

    def test_degenerate_noise_blocks_match_scalar_reference(self):
        rel = np.random.default_rng(12).standard_normal((50, 3)) * 80.0
        sensor = SensorConfig(elevation_noise_deg=0.0)
        sigmas = (sensor.range_error_m, sensor.bearing_noise_rad, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = np.array([o_noise_cartesian(r, sigmas) for r in rel])
        with pytest.warns(RuntimeWarning, match="degenerate"):
            got = simulation._noise_blocks(rel, sensor)
        np.testing.assert_array_equal(got, want)

    def test_fov_mask_matches_scalar_reference(self):
        sensor = SensorConfig(fov_deg=20.0, boresight=(0.3, -0.2, -1.0))
        b = np.array(sensor.boresight)
        u = np.cross(b, [1.0, 0.0, 0.0])
        u /= np.linalg.norm(u)
        w = np.cross(b, u)
        rng = np.random.default_rng(13)
        rows = [np.zeros(3)]  # zero range is never in view
        angle = np.deg2rad(sensor.fov_deg)
        for phi in rng.uniform(0.0, 2.0 * np.pi, 60):
            edge = 70.0 * (np.cos(angle) * b + np.sin(angle) * (np.cos(phi) * u + np.sin(phi) * w))
            rows.append(edge)
            for axis in range(3):  # one ulp either way on each component
                for toward in (-np.inf, np.inf):
                    nudged = edge.copy()
                    nudged[axis] = np.nextafter(nudged[axis], toward)
                    rows.append(nudged)
        rows.extend(rng.standard_normal((300, 3)) * 50.0)
        rel = np.array(rows)
        want = np.array([o_in_fov(r, sensor.boresight, sensor.fov_deg) for r in rel])
        edge_rows = want[1:421]
        assert edge_rows.any() and not edge_rows.all()  # the edge cuts through
        np.testing.assert_array_equal(simulation._in_cone(rel, sensor), want)
        np.testing.assert_array_equal(
            simulation._in_cone(rel.reshape(7, -1, 3), sensor), want.reshape(7, -1)
        )

    def test_fov_schedule_matches_scalar_reference(self):
        features, trajectory = _gated_flight()
        sensor = SensorConfig(frame_rate_hz=30.0, imu_rate_hz=90.0)
        schedule = fov_schedule(features, trajectory, sensor)
        want = np.zeros((4, 2), dtype=bool)
        for k in range(int(round(trajectory.total_duration * 30.0)) + 1):
            t = k / 30.0
            pos = o_trajectory(trajectory, t)[0]
            for c, position in enumerate(features.values()):
                if o_in_fov(np.asarray(position) - pos, sensor.boresight, sensor.fov_deg):
                    want[c, o_segment([d for d, _ in trajectory.segments], t)] = True
        np.testing.assert_array_equal(schedule.detected, want)
        assert want.sum() > 4

    @pytest.mark.parametrize("flight", ["gated", "fov_golden"])
    def test_fov_schedule_gates_the_filters_frames(self, flight):
        """The auto schedule is the per-segment OR of the loop's own per-frame visibility."""
        if flight == "gated":
            features, trajectory = _gated_flight()
            sensor = SensorConfig(frame_rate_hz=30.0, imu_rate_hz=90.0)
        else:
            doc = parse_scenario(FOV_SCENARIO)
            features, trajectory, sensor = doc.feature_positions, doc.trajectory, doc.sensor
        scenario = SimScenario(feature_positions=features)
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        want = np.zeros((len(features), len(trajectory.segments)), dtype=bool)
        frames = simulation._frame_geometry(scenario, trajectory, sensor, count)
        for t, _, _, visible, _, _ in frames:
            want[visible, trajectory.segment_index(t)] = True
        assert want.sum() > len(features)
        np.testing.assert_array_equal(fov_schedule(features, trajectory, sensor).detected, want)

    @pytest.mark.parametrize("gating", ["fov", "schedule"])
    def test_degenerate_simulate_matches_scalar_reference(self, gating, monkeypatch):
        features, trajectory = _gated_flight()
        sensor = SensorConfig(bearing_noise_deg=0.0)
        schedule = fov_schedule(features, trajectory, sensor) if gating == "schedule" else None
        scenario = SimScenario(feature_positions=features, schedule=schedule)
        # 12 s is 301 frames: the stream crosses a geometry block boundary
        with pytest.warns(RuntimeWarning, match="degenerate"):
            got = simulate(scenario, trajectory, sensor, duration=12.0)
            got_run = state_comparison_run(scenario, trajectory, sensor, seed=3, duration=12.0)
        monkeypatch.setattr(simulation, "_frame_geometry", _scalar_frame_geometry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = simulate(scenario, trajectory, sensor, duration=12.0)
            want_run = state_comparison_run(scenario, trajectory, sensor, seed=3, duration=12.0)
        assert got.times.size == 301
        for label in want.labels():
            np.testing.assert_array_equal(got.series(label), want.series(label), err_msg=label)
        np.testing.assert_array_equal(got_run.estimated_positions, want_run.estimated_positions)

    def test_zero_range_on_schedule_path_rejected(self):
        scenario = SimScenario(
            feature_positions={"f1": [0.0, 0.0, 100.0]},
            schedule=DetectionSchedule(detected=np.array([[1, 1]], dtype=bool), feature_ids=("f1",)),
        )
        with pytest.raises(ValueError, match="range must be positive"):
            simulate(scenario, flight_trajectory(), SensorConfig(), duration=1.0)


def _straddling_flight(schedule=True):
    """Three segments of 1.005, 0.97 and 1.01 s: their ends fall between vision frames."""
    trajectory = TrajectoryConfig(
        p0=[0.0, 0.0, 100.0],
        v0=[5.0, 0.0, 0.0],
        segments=[(1.005, [0.0, 0.0, G]), (0.97, [0.8, -0.6, G + 0.3]), (1.01, [-0.5, 0.4, G])],
    )
    detected = DetectionSchedule(
        detected=np.array([[1, 1, 1], [0, 1, 1]], dtype=bool), feature_ids=("a", "b")
    )
    scenario = SimScenario(
        feature_positions={"a": [10.0, 3.0, 0.0], "b": [18.0, -6.0, 0.0]},
        schedule=detected if schedule else None,
    )
    return scenario, trajectory


class TestFramePropagation:
    """One composed propagation per frame against the per-IMU-step recursion."""

    @staticmethod
    def _oracle_inputs(sensor):
        """The straddling flight, its frame count and ``o_step_filter``'s arguments."""
        scenario, trajectory = _straddling_flight()
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        n = 9 + 3 * len(scenario.feature_ids)
        frame_dt = 1.0 / sensor.frame_rate_hz
        steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
        imu_dt = frame_dt / steps_per_frame
        phis = []
        for _, force in trajectory.segments:
            F = np.zeros((n, n))
            F[0:9, 0:9] = ins_error_f(force)
            phis.append(state_transition(F, imu_dt, "exact"))
        measurements = []
        for _, _, _, visible, obs, noise in _scalar_frame_geometry(
            scenario, trajectory, sensor, count
        ):
            H = R = None
            if visible:
                H, R = simulation._stacked_measurement(visible, obs, noise, n)
            measurements.append((visible, H, R))
        args = (
            AugmentedCovariance.initial(n_features=2).P,
            phis,
            process_noise_intensity(sensor, n) * imu_dt,
            [duration for duration, _ in trajectory.segments],
            frame_dt,
            steps_per_frame,
            measurements,
            scenario.feature_prior,
        )
        return scenario, trajectory, count, args

    @classmethod
    def _loop_and_oracle(cls, sensor):
        scenario, trajectory, count, args = cls._oracle_inputs(sensor)
        got = np.array([f.P for f in simulation._filter_frames(scenario, trajectory, sensor, count)])
        want, patterns = o_step_filter(*args)
        steps = [
            pattern
            for _, _, pattern, *_ in simulation._frame_geometry(scenario, trajectory, sensor, count)
        ]
        return got, want, patterns, steps

    @pytest.mark.parametrize("rates", [(100.0, 25.0), (90.0, 30.0)])
    def test_matches_step_by_step_oracle(self, rates):
        sensor = SensorConfig(imu_rate_hz=rates[0], frame_rate_hz=rates[1])
        got, want, patterns, steps = self._loop_and_oracle(sensor)
        straddling = [p for p in patterns if len(set(p)) > 1]
        assert len(straddling) >= 2  # both inner segment ends fall inside a frame
        assert steps[1:] == patterns  # the stream's step segments follow the running clock
        assert got.shape == want.shape
        variances = np.einsum("kii->ki", want)
        np.testing.assert_allclose(np.einsum("kii->ki", got), variances, rtol=1e-9)
        # off-diagonal entries relative to their scale sqrt(P_ii P_jj)
        scale = np.sqrt(variances[:, :, None] * variances[:, None, :])
        np.testing.assert_allclose(got / scale, want / scale, rtol=0.0, atol=1e-9)

    def test_one_imu_step_per_frame_equals_oracle_bitwise(self):
        sensor = SensorConfig(imu_rate_hz=25.0, frame_rate_hz=25.0)
        got, want, _, _ = self._loop_and_oracle(sensor)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rates", [(25.0, 25.0), (100.0, 25.0), (90.0, 30.0)])
    def test_state_run_matches_step_by_step_oracle(self, rates):
        """Truth and estimate against ``o_state_run``: bitwise at one IMU step per frame."""
        sensor = SensorConfig(imu_rate_hz=rates[0], frame_rate_hz=rates[1])
        scenario, trajectory, count, args = self._oracle_inputs(sensor)
        run = state_comparison_run(scenario, trajectory, sensor, seed=8)
        noise_std = np.sqrt(np.diag(process_noise_intensity(sensor, len(args[0]))))
        x, x_hat = o_state_run(*args, noise_std, np.random.default_rng(8))
        positions = np.array([o_trajectory(trajectory, t)[0] for t in run.times.tolist()])
        assert run.times.size == count == len(x)
        np.testing.assert_array_equal(run.true_positions, positions)
        np.testing.assert_array_equal(run.ins_positions, positions + x[:, :3])
        want = positions + x[:, :3] - x_hat[:, :3]
        if rates[0] == rates[1]:
            np.testing.assert_array_equal(run.estimated_positions, want)
        else:
            # the estimate is predicted with the composed Phi_f, not step by step
            np.testing.assert_allclose(run.estimated_positions, want, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("schedule", [True, False], ids=["schedule", "fov"])
    def test_runs_without_per_step_segment_lookup(self, schedule, monkeypatch):
        def refuse(self, t):
            raise AssertionError("segment_index called")

        scenario, trajectory = _straddling_flight(schedule)
        want = simulate(scenario, trajectory, SensorConfig())
        want_run = state_comparison_run(scenario, trajectory, SensorConfig(), seed=4)
        monkeypatch.setattr(TrajectoryConfig, "segment_index", refuse)
        got = simulate(scenario, trajectory, SensorConfig())
        got_run = state_comparison_run(scenario, trajectory, SensorConfig(), seed=4)
        assert got.times.size == got_run.times.size == 75
        for label in want.labels():
            np.testing.assert_array_equal(got.series(label), want.series(label), err_msg=label)
        np.testing.assert_array_equal(got_run.estimated_positions, want_run.estimated_positions)


class TestDiagnostics:
    """The blocked health checks against the per-frame reference, and their power."""

    @staticmethod
    def _blocked_and_reference(scenario, trajectory, sensor, seed, duration):
        got = simulate(
            scenario, trajectory, sensor, seed=seed, duration=duration, collect_diagnostics=True
        )
        count = simulation._frame_count(scenario, trajectory, sensor, duration)
        frames = simulation._filter_frames(scenario, trajectory, sensor, count)
        want = o_diagnostics(frames, np.random.default_rng(seed))
        return got.diagnostics, want, count

    @staticmethod
    def _assert_equal(diag, want):
        asymmetry, ratio, growth, updates = want
        assert diag.max_relative_asymmetry == asymmetry
        assert diag.min_eigenvalue_ratio == ratio
        assert diag.n_updates == updates
        if updates:
            assert abs(diag.max_update_variance_growth - growth) <= 1e-15
        else:
            assert diag.max_update_variance_growth == growth == -np.inf

    @pytest.mark.parametrize(
        "seed, duration, frames", [(0, 20.0, 501), (7, 20.0, 501), (0, 3.3, 83), (5, 0.0, 0)]
    )
    def test_case2_flight_matches_per_frame_reference(self, seed, duration, frames):
        doc = load_scenario(CASE2_FLIGHT)
        diag, want, count = self._blocked_and_reference(
            doc.sim_scenario(), doc.trajectory, doc.sensor, seed, duration
        )
        assert count == frames
        self._assert_equal(diag, want)
        if not frames:
            assert (diag.max_relative_asymmetry, diag.min_eigenvalue_ratio) == (0.0, 0.0)
            assert (diag.max_update_variance_growth, diag.n_updates) == (-np.inf, 0)
        else:
            assert diag.n_updates == frames  # case2_flight sees a feature on every frame
            assert diag.max_relative_asymmetry > 0.0

    def test_no_visible_feature_matches_per_frame_reference(self):
        scenario = SimScenario(feature_positions={"f1": [1000.0, 0.0, 0.0]})
        diag, want, count = self._blocked_and_reference(
            scenario, flight_trajectory(), SensorConfig(), 3, 6.0
        )
        assert count == 151 and diag.n_updates == 0
        self._assert_equal(diag, want)

    @pytest.mark.parametrize("fault", ["asymmetric", "indefinite", "inflating", "nan"])
    def test_each_check_can_trip(self, fault):
        """A fault in one frame of 120 pushes its own field past the hygiene bound.

        A NaN in the frame's raw and posterior covariance pushes all three.
        """
        n, bad_frame = 6, 77
        assert bad_frame % simulation._DIAGNOSTIC_BLOCK_FRAMES  # inside a block
        rng = np.random.default_rng(11)
        diag = simulation.SimulationDiagnostics()
        for k in range(120):
            raw, P, P_prior = np.eye(n), 0.5 * np.eye(n), np.eye(n)
            if k == bad_frame and fault == "asymmetric":
                raw[0, 1] = 1e-6
            if k == bad_frame and fault == "indefinite":
                P[n - 1, n - 1] = -1e-6
            if k == bad_frame and fault == "inflating":
                P = 2.0 * np.eye(n)
            if k == bad_frame and fault == "nan":
                raw[0, 0] = P[0, 0] = np.nan
            diag.note_frame(types.SimpleNamespace(P=P, P_prior=P_prior, raw=(raw,)), rng)
            assert len(diag._frames) < simulation._DIAGNOSTIC_BLOCK_FRAMES
        diag.flush(rng)
        # the hygiene bounds as the acceptance suite states them, which a NaN fails
        within = {
            "asymmetric": diag.max_relative_asymmetry <= 1e-9,
            "indefinite": diag.min_eigenvalue_ratio >= -1e-9,
            "inflating": diag.max_update_variance_growth <= 1e-9,
        }
        assert within == {name: fault not in (name, "nan") for name in within}
        assert diag.n_updates == 120


class TestSensorConfig:
    def test_rate_consistency(self):
        with pytest.raises(ValueError):
            SensorConfig(imu_rate_hz=10.0, frame_rate_hz=25.0)

    @pytest.mark.parametrize("rates", [(110.0, 25.0), (100.0, 30.0), (25.0 * 3.5, 25.0)])
    def test_imu_rate_must_be_a_whole_multiple_of_frame_rate(self, rates):
        with pytest.raises(ValueError, match="whole multiple"):
            SensorConfig(imu_rate_hz=rates[0], frame_rate_hz=rates[1])

    def test_whole_multiple_within_rounding_accepted(self):
        sensor = SensorConfig(imu_rate_hz=3.3, frame_rate_hz=1.1)  # 3.3 / 1.1 = 2.9999999999999996
        assert simulation._frame_clock(sensor)[2] == 3

    def test_boresight_normalized(self):
        sensor = SensorConfig(boresight=(0.0, 0.0, -2.0))
        assert sensor.boresight == (0.0, 0.0, -1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SensorConfig(accel_noise=-0.1)
