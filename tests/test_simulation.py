"""Covariance simulation: propagation, updates, traces."""

import numpy as np
import pytest

import re
import tracemalloc
import types
import warnings
from pathlib import Path

from oracles import (
    _band_features,
    _extended_precision_stds,
    _looped_measurement,
    _scalar_frame_geometry,
    _step_filter_args,
    o_diagnostics,
    o_expm,
    o_in_fov,
    o_noise_cartesian,
    o_segment,
    o_state_run,
    o_step_filter,
    o_trajectory,
)
from slamobs import analysis, model, simulation
from slamobs.model import DetectionSchedule, feature_obs_row, ins_error_f
from slamobs.pwcs import state_transition
from slamobs.scenario import fov_schedule, load_scenario
from slamobs.simulation import (
    DEFAULT_VEHICLE_VARIANCES,
    SensorConfig,
    SimScenario,
    TrajectoryConfig,
    measurement_noise_cartesian,
    process_noise_intensity,
    simulate,
    state_comparison_run,
)

G = 9.81
TESTS = Path(__file__).resolve().parent
CASE2_FLIGHT = TESTS.parent / "src" / "slamobs" / "scenarios" / "case2_flight.yaml"
FOV_FLIGHT = TESTS / "golden" / "fov_flight.yaml"


def flight_trajectory():
    return TrajectoryConfig(
        p0=[0.0, 0.0, 100.0],
        v0=[0.1, 0.0, 0.0],
        segments=[(50.0, [0.0, 0.0, G]), (50.0, [0.0, 0.1, G])],
    )


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
            assert config.segments_at([t])[0] == s

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("lookup", ["state_at", "positions_at", "segments_at"])
    def test_non_finite_time_rejected(self, lookup, t):
        query = t if lookup == "state_at" else [t]
        with pytest.raises(ValueError, match="times must be finite"):
            getattr(flight_trajectory(), lookup)(query)

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
            assert trajectory.segments_at([t])[0] == o_segment([10.0, 10.0], t) == 1
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
        assert trajectory.segments_at([t])[0] == 1
        np.testing.assert_array_equal(trajectory.state_at(t)[2], trajectory.segments[1][1])
        before = trajectory.state_at(50.0 - 2e-12)[2]
        np.testing.assert_array_equal(before, trajectory.segments[0][1])

    def test_rejects_bad_segments(self):
        for duration in (0.0, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                TrajectoryConfig(p0=[0, 0, 0], v0=[0, 0, 0], segments=[(duration, [0, 0, G])])
        with pytest.raises(ValueError):
            TrajectoryConfig(p0=[0, 0, 0], v0=[0, 0, 0], segments=[])

    def test_rejects_mis_shaped_start(self):
        with pytest.raises(ValueError, match=re.escape("p0 must have shape (3,), got (2,)")):
            TrajectoryConfig(p0=[0, 0], v0=[0, 0, 0], segments=[(1.0, [0, 0, G])])

    @pytest.mark.parametrize(
        "segments, bad",
        [
            ([(1e200, [0.0, 0.0, G]), (1e200, [0.0, 0.1, G])], 1),
            ([(1e200, [0.0, 1.0, G]), (1.0, [0.0, 0.0, G])], 0),
            ([(1e150, [0.0, 1.0, G]), (1e160, [0.0, 0.0, G])], 1),
        ],
        ids=["last", "first", "carried_velocity"],
    )
    def test_overflowing_segment_end_rejected(self, segments, bad):
        """A segment whose end state overflows is named, without a floating-point warning."""
        with pytest.raises(ValueError, match=f"^segment {bad}: the state at its end is not finite"):
            TrajectoryConfig(p0=[0.0, 0.0, 100.0], v0=[0.1, 0.0, 0.0], segments=segments)

    @pytest.mark.parametrize("gravity", [-1.0, np.inf, np.nan])
    def test_gravity_must_be_non_negative_and_finite(self, gravity):
        with pytest.raises(ValueError, match="gravity must be non-negative and finite"):
            TrajectoryConfig(
                p0=[0, 0, 0], v0=[0, 0, 0], segments=[(1.0, [0, 0, G])], gravity=gravity
            )


def _propagate(P, F, q, dt):
    """One prediction of length dt: the exact transition of F and q * dt of process noise."""
    return simulation._propagated(P, state_transition(F, dt, "exact"), q * dt)[1]


def _update(P, H, R):
    """The Joseph-form posterior of P."""
    return simulation._joseph(P, H, R)[2]


def _prior(n_features):
    """The filter's initial P: the default vehicle variances, then 1e9 on every feature axis."""
    return np.diag(np.r_[DEFAULT_VEHICLE_VARIANCES, np.full(3 * n_features, 1e9)])


class TestPropagate:
    def test_no_noise_no_dynamics_is_identity(self):
        P = _prior(1)
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
        P = _prior(2)
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
        P = _prior(1)
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
        P = _prior(2)
        rel = np.array([10.0, 0.0, -100.0])
        H = np.zeros((3, 15))
        H[:, 0:9] = feature_obs_row(rel)
        H[:, 9:12] = np.eye(3)
        R = measurement_noise_cartesian(rel, sensor)
        w_rel = np.zeros(15)
        w_rel[0], w_rel[9] = 1.0, -1.0
        w_abs = np.zeros(15)
        w_abs[0] = 1.0

        before_rel = np.sqrt(w_rel @ P @ w_rel)
        out = _update(P, H, R)

        # textbook-gain oracle for both quadratic forms
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        P_oracle = (np.eye(15) - K @ H) @ P
        for w in (w_rel, w_abs):
            np.testing.assert_allclose(
                np.sqrt(w @ out @ w), np.sqrt(w @ P_oracle @ w), rtol=1e-5
            )
        assert before_rel > 3e4
        assert np.sqrt(w_rel @ out @ w_rel) < 30.0
        assert np.sqrt(w_abs @ out @ w_abs) == pytest.approx(1.0, rel=1e-2)

    def test_singular_innovation_raises(self):
        H = np.zeros((1, 9))
        H[0, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match=_SINGULAR):
            _update(np.zeros((9, 9)), H, np.array([[0.0]]))

    def test_cached_identity_rejects_writes(self):
        """I - KH takes one read-only identity per n, equal to ``np.eye(n)``."""
        eye = simulation._identity(12)
        assert simulation._identity(12) is eye
        np.testing.assert_array_equal(eye, np.eye(12))
        with pytest.raises(ValueError, match="read-only"):
            eye[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            eye += 1.0
        np.testing.assert_array_equal(simulation._identity(12), np.eye(12))


_SINGULAR = r"^innovation covariance is singular or indefinite: Singular matrix$"


def _reference_joseph(P, H, R):
    """The Joseph update written with ``np.linalg.solve`` and out-of-place sums."""
    HP = H @ P
    S = HP @ H.T + R
    K = np.linalg.solve(S, HP).T
    ikh = np.eye(len(P)) - K @ H
    P_raw = ikh @ P @ ikh.T + K @ R @ K.T
    return K, P_raw, 0.5 * (P_raw + P_raw.T), S


def _reference_propagated(P, phi, q_dt):
    """The prediction written with out-of-place sums."""
    P_raw = phi @ P @ phi.T + q_dt
    return P_raw, 0.5 * (P_raw + P_raw.T)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def _kernel_inputs(n, k):
    """(diagonal prior P, H, R, Phi, q dt) of an n-state filter with k visible features.

    H is built by ``model.feature_bands``, so it carries exact and signed
    zeros (one relative position has a zero component); with no feature in
    the state (n = 9) it is the vehicle rows of one feature outside it.
    """
    rng = np.random.default_rng(100 * n + k)
    n_features = (n - model.VEHICLE_DIM) // 3
    rel = rng.uniform(-200.0, 200.0, (k, 3))
    rel[:, 2] = -rng.uniform(50.0, 300.0, k)
    rel[0, 1] = 0.0
    obs = model.feature_obs_rows(rel)
    if n_features:
        features = np.sort(rng.choice(n_features, k, replace=False))
        H = model.feature_bands(features, obs, n).reshape(3 * k, n)
    else:
        H = obs.reshape(3 * k, n)
    R = np.zeros((3 * k, 3 * k))
    for i, block in enumerate(simulation._noise_blocks(rel, SensorConfig())):
        R[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = block
    dt = 0.04
    phi = state_transition(model.augmented_f([0.0, 0.3, G], n), dt, "exact")
    q_dt = process_noise_intensity(SensorConfig(), n) * dt
    return _prior(n_features), H, R, phi, q_dt


_UPDATE_SIZES = [(9, 1)] + [
    (n, k) for n in (15, 21, 33, 45) for k in (1, 2, 4, 12) if 3 * k <= n - 9
]


class TestKernelBits:
    """``_joseph`` and ``_propagated`` keep the bits of their out-of-place, ``np.linalg.solve`` form.

    The gain's solve goes straight to NumPy's LAPACK gufunc and the sums are
    formed in place; the outputs must equal the written-out expressions as
    raw bits, compared as uint64, and fail like ``np.linalg.solve``.
    """

    @pytest.mark.parametrize("n,k", _UPDATE_SIZES)
    def test_update_equals_reference(self, n, k):
        """Three updates, the first on the diagonal prior, with a propagation between."""
        P, H, R, phi, q_dt = _kernel_inputs(n, k)
        for _ in range(3):
            got = simulation._joseph(P, H, R)
            _assert_same_bits(got, _reference_joseph(P, H, R))
            P = simulation._propagated(got[2], phi, q_dt)[1]

    @pytest.mark.parametrize("n", [9, 15, 21, 33, 45])
    def test_propagation_equals_reference(self, n):
        """Propagations from the diagonal prior, then from an updated P."""
        P, H, R, phi, q_dt = _kernel_inputs(n, 1)
        for step in range(4):
            got = simulation._propagated(P, phi, q_dt)
            _assert_same_bits(got, _reference_propagated(P, phi, q_dt))
            P = got[1] if step != 1 else simulation._joseph(got[1], H, R)[2]

    @pytest.mark.parametrize("k", [1, 2])
    def test_singular_innovation_message_is_numpys(self, k):
        """An exactly singular S fails with ``np.linalg.solve``'s message, without a warning."""
        P, H, R, _, _ = _kernel_inputs(15, k)
        P, R = np.zeros_like(P), np.zeros_like(R)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.solve(H @ P @ H.T + R, H @ P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=_SINGULAR) as got:
                simulation._joseph(P, H, R)
        assert str(got.value) == simulation._INDEFINITE.format(want.value)

    @pytest.mark.parametrize("entry", [(0, 0), (3, 4), (9, 9), (20, 20)])
    def test_nan_prior_fails_like_the_reference(self, entry):
        """A NaN in P gives the reference's exception, or its output bits."""
        P, H, R, _, _ = _kernel_inputs(21, 2)
        P[entry] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = _reference_joseph(P, H, R)
            except Exception as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    simulation._joseph(P, H, R)
            else:
                _assert_same_bits(simulation._joseph(P, H, R), want)

    @pytest.mark.parametrize("singular", [False, True], ids=["returns", "raises"])
    def test_error_state_is_the_callers(self, singular):
        """The solve's error state is set for the call only, whether it returns or raises."""
        P, H, R, _, _ = _kernel_inputs(15, 2)
        if singular:
            P, R = np.zeros_like(P), np.zeros_like(R)

        def handler(err, flag):
            raise AssertionError("the caller's handler was called")

        for state in ({}, {"all": "ignore", "call": handler}):
            with np.errstate(**state):
                before = np.geterr(), np.geterrcall()
                try:
                    simulation._joseph(P, H, R)
                except np.linalg.LinAlgError:
                    assert singular
                else:
                    assert not singular
                assert (np.geterr(), np.geterrcall()) == before


class TestInitializeFeature:
    def test_default_prior_block(self):
        cov = simulation.AugmentedCovariance(_prior(2), [False, False])
        out = simulation.initialize_feature(cov, 1)
        np.testing.assert_array_equal(out.P[12:15, 12:15], 1e9 * np.eye(3))
        assert not out.P[12:15, 0:12].any()
        assert out.feature_initialized == [False, True]

    def test_zero_prior_is_perfectly_known(self):
        cov = simulation.AugmentedCovariance(_prior(1), [False])
        out = simulation.initialize_feature(cov, 0, u_m_value=0.0)
        assert not out.P[9:12, :].any()

    def test_invariants_hold_after_initialization(self):
        cov = simulation.AugmentedCovariance(_prior(2), [False, False])
        out = simulation.initialize_feature(cov, 0, u_m_value=1e6)
        np.testing.assert_array_equal(out.P, out.P.T)
        assert np.linalg.eigvalsh(out.P)[0] >= 0.0

    def test_double_initialization_rejected(self):
        cov = simulation.initialize_feature(simulation.AugmentedCovariance(_prior(1), [False]), 0)
        with pytest.raises(ValueError, match="already initialized"):
            simulation.initialize_feature(cov, 0)


class TestUnseenFeature:
    """A feature keeps its prior block, uncorrelated, until the filter first measures it.

    Features have no dynamics and no process noise, and an update's H is zero
    on an unmeasured feature, so the filter loop does nothing at a feature's
    first detection.
    """

    @staticmethod
    def _at_prior(P, c, prior):
        """Feature c's block of P is ``prior`` * I3 and the rest of its rows are zero."""
        block = slice(9 + 3 * c, 12 + 3 * c)
        rows = P[block].copy()
        at_prior = np.array_equal(rows[:, block], prior * np.eye(3))
        rows[:, block] = 0.0
        return at_prior and not rows.any()

    @pytest.mark.parametrize(
        "flight", ["case2_flight", "two_segment", "two_segment_unit_prior", "gated"]
    )
    def test_block_stays_at_prior_until_first_update(self, flight):
        if flight == "case2_flight":
            doc = load_scenario(CASE2_FLIGHT)
            scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
        elif flight.startswith("two_segment"):
            scenario, trajectory, sensor = flight_scenario(), flight_trajectory(), SensorConfig()
            if flight == "two_segment_unit_prior":  # small feature noise would not round away
                scenario.feature_prior = 1.0
        else:
            features, trajectory = _gated_flight()
            scenario = SimScenario(feature_positions=features)
            sensor = SensorConfig(frame_rate_hz=30.0, imu_rate_hz=90.0)
        L = len(scenario.feature_ids)
        first_update = [None] * L
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        for k, frame in enumerate(simulation._filter_frames(scenario, trajectory, sensor, count)):
            H = np.zeros((0, 9 + 3 * L)) if frame.H is None else frame.H
            for c in range(L):
                if first_update[c] is not None:
                    continue
                if H[:, 9 + 3 * c : 12 + 3 * c].any():
                    first_update[c] = k
                    states = [frame.P_prior]
                else:
                    states = [frame.P] if frame.P_prior is None else [frame.P_prior, frame.P]
                for P in states:
                    assert self._at_prior(P, c, scenario.feature_prior), (k, c)
        assert None not in first_update  # every feature is measured
        assert max(first_update) > 0  # and one only after the run has started


class TestMeasurementNoise:
    def test_tangential_scale_at_100m(self):
        R = measurement_noise_cartesian([100.0, 0.0, 0.0], SensorConfig())
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

    def test_all_zero_noise_rejected(self):
        sensor = SensorConfig(range_error_m=0.0, bearing_noise_deg=0.0, elevation_noise_deg=0.0)
        with pytest.raises(ValueError, match="all measurement noise terms are zero"):
            measurement_noise_cartesian([50.0, 0.0, 0.0], sensor)

    def test_process_noise_needs_the_vehicle_states(self):
        with pytest.raises(ValueError, match="state dimension too small"):
            process_noise_intensity(SensorConfig(), 8)


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
        # frame k is at k * dt, bit for bit
        np.testing.assert_array_equal(flight_trace.times, np.arange(2501) * (1.0 / 25.0))
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
        for label in [*a.std, *a.derived_std]:
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

    def test_position_without_schedule_row_rejected(self):
        """An explicit schedule names every feature the run estimates; none is dropped silently."""
        features = {"f1": [10.0, 0.0, 0.0], "f3": [20.0, 0.0, 0.0], "f2": [0.0, 5.0, 0.0]}
        schedule = DetectionSchedule(detected=np.array([[True]]), feature_ids=("f1",))
        with pytest.raises(ValueError, match=r"no schedule row for feature\(s\) \['f2', 'f3'\]"):
            SimScenario(feature_positions=features, schedule=schedule)

    def test_unknown_schedule_feature_error_quotes_id_once(self):
        schedule = DetectionSchedule(detected=[[True], [True]], feature_ids=("f1", "f2"))
        with pytest.raises(ValueError, match=re.escape("unknown feature(s) ['f2']")):
            SimScenario(feature_positions={"f1": [10.0, 0.0, 0.0]}, schedule=schedule)

    def test_auto_schedule_runs(self):
        scenario = SimScenario(
            feature_positions={"f1": [10.0, 0.0, 0.0], "f2": [20.0, 100.0, 0.0]}
        )
        trace = simulate(scenario, flight_trajectory(), SensorConfig(), duration=4.0)
        assert trace.times.size == 101
        # only f1 is inside the cone at the start; f2 keeps its raw prior
        assert trace.value_at("dm_f1_N", 4.0) < 1e3
        assert trace.value_at("dm_f2_N", 4.0) == pytest.approx(np.sqrt(1e9), rel=1e-6)

    def test_empty_trace_lookups(self):
        doc = load_scenario(CASE2_FLIGHT)
        trace = simulate(doc.sim_scenario(), doc.trajectory, doc.sensor, duration=0.0)
        with pytest.raises(KeyError, match="no_such_label"):
            trace.series("no_such_label")
        with pytest.raises(ValueError, match="trace is empty"):
            trace.value_at("dv_N", 0.0)

    def test_scenario_needs_a_feature(self):
        with pytest.raises(ValueError, match="at least one feature is required"):
            SimScenario(feature_positions={})

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_value_at_rejects_non_finite_time(self, t):
        doc = load_scenario(CASE2_FLIGHT)
        trace = simulate(doc.sim_scenario(), doc.trajectory, doc.sensor, duration=2.0)
        with pytest.raises(ValueError, match="t must be finite"):
            trace.value_at("dv_N", t)

    def test_value_at_reads_only_inside_the_trace(self):
        """A finite time outside the recorded frames raises; one inside reads the nearest frame."""
        doc = load_scenario(CASE2_FLIGHT)
        trace = simulate(doc.sim_scenario(), doc.trajectory, doc.sensor, duration=2.0)
        for t in (1e9, -1e9, 2.001):
            with pytest.raises(ValueError, match="outside the trace"):
                trace.value_at("dv_N", t)
        series = trace.series("dv_N")
        for t, k in ((0.0, 0), (2.0, 50), (1.01, 25)):
            assert trace.value_at("dv_N", t) == series[k]

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
        labels = [*want.std, *want.derived_std]
        assert [*got.std, *got.derived_std] == labels
        for label in labels:
            np.testing.assert_array_equal(got.series(label), want.series(label), err_msg=label)
        assert got.diagnostics is None

    def test_simulate_keeps_no_block_of_frames(self):
        """Without diagnostics, ``simulate`` holds one frame at a time, not a block of them.

        On fov_flight (501 frames, n = 24) the traced peak is about 1.2 MB:
        the trace buffer and one geometry block.  Holding each block's 50
        frames until the frame that closes it reads about 2.2 MB.
        """
        doc = load_scenario(FOV_FLIGHT)
        inputs = (doc.sim_scenario(), doc.trajectory, doc.sensor)
        simulate(*inputs)  # builds the cached identities and block indices first
        tracemalloc.start()
        try:
            trace = simulate(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.times.size == 501
        assert peak < 1.6e6

    def test_recorder_matches_each_frames_covariance(self):
        """Every std is sqrt(max(P_ii, 0)) and every difference's is sqrt(max(w P w, 0)).

        On 20 s of case2_flight and of fov_flight, whose five features enter
        the gate mid-run.
        """
        for path in (CASE2_FLIGHT, FOV_FLIGHT):
            doc = load_scenario(path)
            scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
            trace = simulate(scenario, trajectory, sensor, duration=20.0)
            count = simulation._frame_count(scenario, trajectory, sensor, 20.0)
            frames = simulation._filter_frames(scenario, trajectory, sensor, count)
            covariances = [f.P for f in frames]
            candidates = analysis.standard_candidates(scenario.feature_ids)
            labels = [c.label for c in candidates]
            weights = [c.weights for c in candidates]
            n = len(trace.std)
            assert count == len(covariances) == trace.times.size == 501
            assert list(trace.std) == labels[:n] and list(trace.derived_std) == labels[n:]
            std = [[np.sqrt(max(P[i, i], 0.0)) for P in covariances] for i in range(n)]
            derived = [[np.sqrt(max(w @ P @ w, 0.0)) for P in covariances] for w in weights[n:]]
            np.testing.assert_array_equal(np.array(list(trace.std.values())), std)
            np.testing.assert_array_equal(np.array(list(trace.derived_std.values())), derived)


    @pytest.mark.parametrize("path", [CASE2_FLIGHT, FOV_FLIGHT], ids=["case2", "fov"])
    def test_every_frame_covariance_is_exactly_symmetric(self, path):
        """Every P equals its transpose bit for bit, as the recorder relies on.

        Both flights update at every frame, so the propagated covariances are
        the update priors.
        """
        doc = load_scenario(path)
        scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        assert count == {CASE2_FLIGHT: 2501, FOV_FLIGHT: 501}[path]
        frames = simulation._filter_frames(scenario, trajectory, sensor, count)
        for k, frame in enumerate(frames):
            for P in (frame.P_prior, frame.P):
                bits = P.view(np.uint64)
                np.testing.assert_array_equal(bits, bits.T, err_msg=f"frame {k}")

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

    @pytest.mark.parametrize("prior", [np.inf, np.nan])
    def test_non_finite_feature_prior_rejected(self, prior):
        with pytest.raises(ValueError, match="feature_prior must be non-negative and finite"):
            SimScenario(feature_positions={"f1": [10.0, 0.0, 0.0]}, feature_prior=prior)

    def test_deterministic_per_seed(self):
        kwargs = dict(
            scenario=flight_scenario(), trajectory=flight_trajectory(), sensor=SensorConfig()
        )
        a = state_comparison_run(seed=5, duration=10.0, **kwargs)
        b = state_comparison_run(seed=5, duration=10.0, **kwargs)
        np.testing.assert_array_equal(a.estimated_positions, b.estimated_positions)
        c = state_comparison_run(seed=6, duration=10.0, **kwargs)
        assert not np.array_equal(a.estimated_positions, c.estimated_positions)


def _frame_by_frame_state_run(scenario, trajectory, sensor, seed, duration=None):
    """(true, ins, estimated) positions of a state run replayed one frame at a time.

    The reference for ``state_comparison_run``'s block replay: each frame
    draws its process noise and then its measurement noise as the loop
    yields it, and factors its own R with ``np.linalg.cholesky(frame.R)``.
    """
    count = simulation._frame_count(scenario, trajectory, sensor, duration)
    n = 9 + 3 * len(scenario.feature_ids)
    rng = np.random.default_rng(seed)
    x, x_hat = rng.standard_normal(n) * np.sqrt(scenario._prior_variances()), np.zeros(n)
    noise_std = np.sqrt(np.diag(process_noise_intensity(sensor, n)))
    _, frame_dt, _, imu_dt = simulation._frame_clock(sensor)
    sqrt_dt = np.sqrt(imu_dt)
    true, ins, estimated = [], [], []
    for k, frame in enumerate(simulation._filter_frames(scenario, trajectory, sensor, count)):
        if frame.phi is not None:
            draws = rng.standard_normal((len(frame.steps), n)) * noise_std * sqrt_dt
            for phi, w in zip(frame.steps, draws):
                x = phi @ x + w
            x_hat = frame.phi @ x_hat
        if frame.H is not None:
            z = frame.H @ x + np.linalg.cholesky(frame.R) @ rng.standard_normal(frame.H.shape[0])
            x_hat = x_hat + frame.K @ (z - frame.H @ x_hat)
        position = trajectory.state_at(k * frame_dt)[0]
        true.append(position)
        ins.append(position + x[0:3])
        estimated.append(position + x[0:3] - x_hat[0:3])
    return [np.array(rows).reshape(-1, 3) for rows in (true, ins, estimated)]


def _gap_flight():
    """``_gated_flight``'s trajectory, its cone holding two features, then one, none and two."""
    _, trajectory = _gated_flight()
    features = {
        "m1": [-15.0, 3.0, 0.0],
        "m2": [10.0, -8.0, 0.0],
        "m3": [70.0, 5.0, 0.0],
        "m4": [75.0, -10.0, 0.0],
    }
    return SimScenario(feature_positions=features), trajectory


class TestBlockedLapackCalls:
    """The innovation checks and the state run's noise factors, one LAPACK call per block."""

    @pytest.mark.parametrize(
        "flight, duration, frames",
        [("case2", 3.3, 83), ("case2", 0.0, 0), ("case2", 0.01, 1), ("gap", None, 401)],
    )
    def test_state_run_equals_frame_by_frame_replay(self, flight, duration, frames):
        if flight == "case2":
            doc = load_scenario(CASE2_FLIGHT)
            scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
        else:
            (scenario, trajectory), sensor = _gap_flight(), SensorConfig()
            count = simulation._frame_count(scenario, trajectory, sensor, duration)
            sizes = [
                0 if f.H is None else len(f.H)
                for f in simulation._filter_frames(scenario, trajectory, sensor, count)
            ]
            block = simulation._BLOCK_FRAMES
            shapes = [set(sizes[i : i + block]) for i in range(0, count, block)]
            assert 0 in sizes  # frames without an update
            assert any(len(s - {0}) > 1 for s in shapes)  # a block holds R of two shapes
        run = state_comparison_run(scenario, trajectory, sensor, seed=3, duration=duration)
        true, ins, estimated = _frame_by_frame_state_run(
            scenario, trajectory, sensor, 3, duration
        )
        assert run.times.size == frames  # 83 and 401 frames end in a shorter block
        np.testing.assert_array_equal(run.true_positions, true)
        np.testing.assert_array_equal(run.ins_positions, ins)
        np.testing.assert_array_equal(run.estimated_positions, estimated)

    @pytest.mark.parametrize("count", [0, 1, 50, 51, 83, 501])
    def test_block_rule(self, count):
        """A frame closes a block at every 50th frame and at the run's last frame, nowhere else."""
        doc = load_scenario(CASE2_FLIGHT)
        frames = simulation._filter_frames(doc.sim_scenario(), doc.trajectory, doc.sensor, count)
        closes = [frame.closes for frame in frames]
        assert simulation._BLOCK_FRAMES == 50
        assert closes == [(k + 1) % 50 == 0 or k == count - 1 for k in range(count)]

    @staticmethod
    def _bad_innovation_run(monkeypatch, bad_frame):
        """A one-feature, zero-prior flight whose R at ``bad_frame`` is negated, so S is not PD.

        The feature is measured at every frame, so row k of the geometry
        block's noise blocks is frame k's.
        """
        noise_blocks = simulation._noise_blocks

        def negated(rel, sensor):
            noise = noise_blocks(rel, sensor)
            noise[bad_frame] = -noise[bad_frame]
            return noise

        monkeypatch.setattr(simulation, "_noise_blocks", negated)
        scenario = SimScenario(
            feature_positions={"f1": [10.0, 0.0, 0.0]},
            schedule=DetectionSchedule(detected=np.array([[1, 1]], dtype=bool), feature_ids=("f1",)),
            vehicle_variances=[0.0] * 9,
            feature_prior=0.0,
        )
        return scenario, flight_trajectory(), SensorConfig()

    @pytest.mark.parametrize("bad_frame, yielded", [(77, 99), (120, 139)], ids=["mid", "last"])
    def test_bad_innovation_fails_the_run(self, monkeypatch, bad_frame, yielded):
        """A non-PD S in the middle of a check block, or in the last shorter one, fails the run.

        The loop yields the frames before the one that closes the bad
        frame's block and then raises; no diagnostics block and no replay
        block reads a frame at or past the bad one.  Warnings are errors
        here, so none may come first.
        """
        inputs = self._bad_innovation_run(monkeypatch, bad_frame)
        message = "singular or indefinite: Matrix is not positive definite"
        assert simulation._frame_count(*inputs, 5.56) == 140
        frames = []
        with pytest.raises(np.linalg.LinAlgError, match=message):
            frames.extend(simulation._filter_frames(*inputs, 140))
        assert len(frames) == yielded

        checked, replayed = [], []
        note_frame, replay = simulation.SimulationDiagnostics.note_frame, simulation._replay

        def noted_frame(diag, frame, rng):
            if frame.closes:
                checked.extend([*diag._frames, frame])
            return note_frame(diag, frame, rng)

        def counted_replay(block, *args):
            replayed.append(len(block))
            return replay(block, *args)

        monkeypatch.setattr(simulation.SimulationDiagnostics, "note_frame", noted_frame)
        monkeypatch.setattr(simulation, "_replay", counted_replay)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            simulate(*inputs, duration=5.56, collect_diagnostics=True)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            simulate(*inputs, duration=5.56)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            state_comparison_run(*inputs, seed=2, duration=5.56)
        # the checked and replayed blocks are the run's first frames, in order
        assert len(checked) <= bad_frame
        assert sum(replayed) <= bad_frame

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_innovation_fails_the_check(self, bad):
        """The stacked Cholesky call factors a NaN matrix without an error; its factor fails."""
        S = np.eye(3)
        S[1, 1] = bad
        message = "^innovation covariance is singular or indefinite: its Cholesky factor is not finite$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            simulation._check_innovations([np.eye(2), np.eye(3), S])

    @pytest.mark.parametrize("run", [simulate, state_comparison_run])
    def test_one_cholesky_per_shape_per_block(self, run, monkeypatch):
        """case2_flight's 2,501 updates take a few stacked Cholesky calls, not one each.

        ``simulate`` checks S once per shape and block of 50 frames; the state
        run also factors its R once per shape and block.
        """
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        doc = load_scenario(CASE2_FLIGHT)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        trace = run(doc.sim_scenario(), doc.trajectory, doc.sensor)
        assert trace.times.size == 2501  # every frame updates
        blocks = -(-2501 // simulation._BLOCK_FRAMES)
        shapes = {shape[1:] for shape in calls}
        assert all(len(shape) == 3 for shape in calls)  # every call takes a stack
        assert len(calls) <= len(shapes) * blocks * (1 if run is simulate else 2)
        assert len(calls) < 2501 // 10


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
            doc = load_scenario(FOV_FLIGHT)
            features, trajectory, sensor = doc.feature_positions, doc.trajectory, doc.sensor
        scenario = SimScenario(feature_positions=features)
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        want = np.zeros((len(features), len(trajectory.segments)), dtype=bool)
        frame_dt = simulation._frame_clock(sensor)[1]
        frames = simulation._frame_geometry(scenario, trajectory, sensor, count)
        for k, (_, bands, _) in enumerate(frames):
            want[_band_features(bands), trajectory.segments_at([k * frame_dt])[0]] = True
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
        for label in [*want.std, *want.derived_std]:
            np.testing.assert_array_equal(got.series(label), want.series(label), err_msg=label)
        np.testing.assert_array_equal(got_run.estimated_positions, want_run.estimated_positions)

    @pytest.mark.parametrize("flight", ["scheduled", "gated"])
    def test_stacked_measurement_matches_looped_build(self, flight):
        """H sliced from the per-block bands and R equal the layout built feature by feature."""
        if flight == "scheduled":
            # k = 1..6 visible features, never the first k of the seven
            visible = [[3], [0, 5], [1, 4, 6], [0, 2, 5, 6], [1, 2, 3, 4, 6], [0, 1, 2, 4, 5, 6]]
            detected = np.zeros((7, len(visible)), dtype=bool)
            for segment, columns in enumerate(visible):
                detected[columns, segment] = True
            features = {f"m{c}": [10.0 * c - 30.0, 5.0 * (c % 3) - 5.0, 0.0] for c in range(7)}
            scenario = SimScenario(features, DetectionSchedule(detected, tuple(features)))
            trajectory = TrajectoryConfig(
                p0=[0.0, 0.0, 100.0],
                v0=[5.0, 0.0, 0.0],
                segments=[(0.2, [0.0, 0.0, G])] * len(visible),
            )
        else:
            features, trajectory = _gated_flight()
            scenario = SimScenario(feature_positions=features)
        sensor = SensorConfig()
        n = 9 + 3 * len(features)
        count = simulation._frame_count(scenario, trajectory, sensor, None)
        sizes = []
        for _, bands, noise in simulation._frame_geometry(scenario, trajectory, sensor, count):
            visible = _band_features(bands)
            sizes.append(len(visible))
            if not visible:
                continue
            H, R = simulation._stacked_measurement(bands, noise)
            want_H, want_R = _looped_measurement(visible, bands[:, :, :9], noise, n)
            np.testing.assert_array_equal(H, want_H)
            np.testing.assert_array_equal(R, want_R)
        if flight == "scheduled":
            assert set(sizes) == {1, 2, 3, 4, 5, 6}
        else:
            # the visible counts differ between the two geometry blocks
            block = simulation.GEOMETRY_BLOCK_FRAMES
            assert count > block and set(sizes[:block]) != set(sizes[block:])

    def test_filter_measures_the_rows_the_analysis_ranks(self):
        """At each segment start of case2_flight the filter's H is ``augment``'s detected bands.

        The parser derives each segment's relative positions from the
        trajectory at the segment start, so the frames at t = 0 and t = 50 s
        (frame 1250) measure exactly the rows of stripes 0 and 1, bit for bit.
        """
        doc = load_scenario(CASE2_FLIGHT)
        schedule = doc.scenario.schedule
        stripes = model.augment(doc.scenario)
        frames = list(
            simulation._filter_frames(doc.sim_scenario(), doc.trajectory, doc.sensor, 1251)
        )
        frame_dt = simulation._frame_clock(doc.sensor)[1]
        for segment, k in enumerate((0, 1250)):
            frame = frames[k]
            assert k * frame_dt == 50.0 * segment
            bands = stripes[segment].H.reshape(schedule.n_features, 3, -1)
            want = bands[schedule.detected[:, segment]].reshape(-1, bands.shape[2])
            np.testing.assert_array_equal(frame.H, want)

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
        return scenario, trajectory, count, _step_filter_args(scenario, trajectory, sensor, count)

    @classmethod
    def _loop_and_oracle(cls, sensor):
        scenario, trajectory, count, args = cls._oracle_inputs(sensor)
        got = np.array([f.P for f in simulation._filter_frames(scenario, trajectory, sensor, count)])
        want, patterns = o_step_filter(*args)
        steps = [
            pattern
            for pattern, *_ in simulation._frame_geometry(scenario, trajectory, sensor, count)
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

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 on this platform",
    )
    def test_float64_run_matches_extended_precision_reference(self):
        """Every standard candidate's std over 20 s of case2_flight, against long double.

        The reference runs the same float64 inputs one IMU step at a time in
        ``np.longdouble`` (eps 1.1e-19), so the difference is the float64
        run's accumulated rounding: about 1e-10 relative at worst.
        """
        doc = load_scenario(CASE2_FLIGHT)
        labels, reference = _extended_precision_stds(doc, 20.0)
        assert reference.dtype == np.longdouble and reference.shape[1] == 501
        trace = simulate(doc.sim_scenario(), doc.trajectory, doc.sensor, duration=20.0)
        assert [*trace.std, *trace.derived_std] == labels
        got = np.array([trace.series(label) for label in labels])
        error = np.abs(got - reference) / reference
        assert float(error.max()) <= 1e-9

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
            raise AssertionError("state_at called")

        scenario, trajectory = _straddling_flight(schedule)
        want = simulate(scenario, trajectory, SensorConfig())
        want_run = state_comparison_run(scenario, trajectory, SensorConfig(), seed=4)
        monkeypatch.setattr(TrajectoryConfig, "state_at", refuse)
        got = simulate(scenario, trajectory, SensorConfig())
        got_run = state_comparison_run(scenario, trajectory, SensorConfig(), seed=4)
        assert got.times.size == got_run.times.size == 75
        for label in [*want.std, *want.derived_std]:
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
        n, bad_frame, block = 6, 77, simulation._BLOCK_FRAMES
        assert bad_frame % block  # inside a block
        rng = np.random.default_rng(11)
        diag = simulation.SimulationDiagnostics()
        for k in range(120):
            closes = (k + 1) % block == 0 or k == 119
            raw, P, P_prior = np.eye(n), 0.5 * np.eye(n), np.eye(n)
            if k == bad_frame and fault == "asymmetric":
                raw[0, 1] = 1e-6
            if k == bad_frame and fault == "indefinite":
                P[n - 1, n - 1] = -1e-6
            if k == bad_frame and fault == "inflating":
                P = 2.0 * np.eye(n)
            if k == bad_frame and fault == "nan":
                raw[0, 0] = P[0, 0] = np.nan
            frame = types.SimpleNamespace(P=P, P_prior=P_prior, raw=(raw,), closes=closes)
            diag.note_frame(frame, rng)
            assert len(diag._frames) < block
        assert not diag._frames
        # the hygiene bounds as the acceptance suite states them, which a NaN fails
        within = {
            "asymmetric": diag.max_relative_asymmetry <= 1e-9,
            "indefinite": diag.min_eigenvalue_ratio >= -1e-9,
            "inflating": diag.max_update_variance_growth <= 1e-9,
        }
        assert within == {name: fault not in (name, "nan") for name in within}
        assert diag.n_updates == 120


class TestFrameClock:
    def test_frame_count_is_bounded(self):
        """duration * frame_rate_hz may reach ``MAX_FRAMES`` and no further; inf and NaN fail."""
        sensor = SensorConfig()
        limit = simulation.MAX_FRAMES / sensor.frame_rate_hz
        assert simulation._frame_clock(sensor, limit)[0] == simulation.MAX_FRAMES + 1
        for duration in (np.nextafter(limit, np.inf), np.inf, np.nan):
            with pytest.raises(ValueError, match="frames, more than the 1,000,000 allowed$"):
                simulation._frame_clock(sensor, duration)


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

    @pytest.mark.parametrize("boresight", [(0.0, 0.0, -2.0), (0.3, -0.2, -1.0)])
    def test_boresight_keeps_the_bits_of_its_norm_division(self, boresight):
        want = np.array(boresight) / np.linalg.norm(boresight)
        got = np.array(SensorConfig(boresight=boresight).boresight)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "boresight, unit",
        [
            ((0.0, 0.0, -1.0e200), (0.0, 0.0, -1.0)),
            ((0.0, 0.0, -1.0e-170), (0.0, 0.0, -1.0)),
            ((1.0e308, -1.0e308, 0.0), (0.5**0.5, -(0.5**0.5), 0.0)),
            ((3.0e-160, 4.0e-160, 0.0), (0.6, 0.8, 0.0)),
        ],
        ids=["huge", "tiny", "overflowing-sum", "subnormal-sum"],
    )
    def test_boresight_at_extreme_magnitudes(self, boresight, unit):
        """Any finite nonzero direction normalises, with no warning (warnings are errors here).

        The sum of squares overflows, underflows to zero or loses bits below
        the normal range; the direction is rescaled by its largest component
        first.
        """
        got = SensorConfig(boresight=boresight).boresight
        np.testing.assert_allclose(got, unit, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("boresight", [(0.0, 0.0, 0.0), (0.0, np.nan, -1.0), (np.inf, 0.0, -1.0)])
    def test_zero_or_non_finite_boresight_rejected(self, boresight):
        with pytest.raises(ValueError, match="boresight must be a nonzero 3-vector"):
            SensorConfig(boresight=boresight)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SensorConfig(accel_noise=-0.1)

    @pytest.mark.parametrize(
        "name",
        [
            "accel_noise", "gyro_noise_deg", "range_error_m", "bearing_noise_deg",
            "elevation_noise_deg",
        ],
    )
    def test_noise_whose_square_overflows_rejected(self, name):
        """The filter squares each sigma in its own units; an infinite square is an input error."""
        with pytest.raises(ValueError, match=f"^{name} must be finite once squared$"):
            SensorConfig(**{name: 1e300})

    def test_rate_ratio_must_be_finite(self):
        with pytest.raises(ValueError, match="^imu_rate_hz / frame_rate_hz must be finite$"):
            SensorConfig(frame_rate_hz=5e-324)

    @pytest.mark.parametrize(
        "name, value, wording",
        [
            ("imu_rate_hz", np.inf, "positive"),
            ("imu_rate_hz", np.nan, "positive"),
            ("frame_rate_hz", np.inf, "positive"),
            ("fov_deg", np.inf, "positive"),
            ("fov_deg", np.nan, "positive"),
            ("accel_noise", np.nan, "non-negative"),
            ("gyro_noise_deg", np.inf, "non-negative"),
            ("range_error_m", np.inf, "non-negative"),
            ("bearing_noise_deg", np.nan, "non-negative"),
            ("elevation_noise_deg", np.inf, "non-negative"),
        ],
    )
    def test_non_finite_rejected(self, name, value, wording):
        with pytest.raises(ValueError, match=f"{name} must be {wording} and finite"):
            SensorConfig(**{name: value})
