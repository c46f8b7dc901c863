"""Covariance simulation of an aided-inertial SLAM filter.

Runs the Riccati recursion (propagation and measurement update of the error
covariance) over a piece-wise constant acceleration trajectory, so that each
rank-based verdict can be checked against predicted filter performance:
observable functionals should see their standard deviations collapse,
unobservable ones should stay at their prior or grow.  The state layout, F
and the measurement rows are ``slamobs.model``'s, the system the analysis
ranks, in the North / East / Up frame.  Every feature is carried from the
start at its prior, so the state dimension never changes; a feature has no
dynamics or process noise and H is zero on it until it is measured, so its
block keeps the prior until then.

Each rule has one owner:

- one timeline, ``_frame_clock``: frame k is at k * dt, for the geometry
  blocks (``_frame_blocks``) and the trace's times (``_TraceRecorder``);
- one boundary rule, ``TrajectoryConfig.segments_at``, for every time;
- one filter loop, ``_filter_frames``, which ``simulate`` and
  ``state_comparison_run`` each run once;
- one block rule, ``_Frame.closes``: the loop checks a block's innovation
  covariances before it yields the frame that closes it, and the diagnostics
  and the state run's replay handle the block only then.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import model
from .model import DEFAULT_VEHICLE_VARIANCES, FEATURE_PRIOR_DEFAULT, GRAVITY
from .model import DetectionSchedule, VEHICLE_DIM
from .model import feature_obs_row  # noqa: F401  (perfbench/tracer.py counts calls through this name)
from .pwcs import _as_finite_array, state_transition

_R_FLOOR = 1e-12
#: Segment-boundary slack in seconds: a time this close before a segment's end
#: already belongs to the next segment, and a frame this close past the end of
#: a run is still recorded.
_SLACK = 1e-12
#: Vision frames whose measurement geometry (vehicle positions, visibility,
#: observation rows, noise blocks) is computed in one batch: 10 s at 25 Hz.
#: The batch bounds the geometry's memory to one block whatever the run length.
GEOMETRY_BLOCK_FRAMES = 250
#: Frames of one checked block: the filter loop checks the block's innovation
#: covariances before it yields the frame that closes it (``_Frame.closes``),
#: and the diagnostics and the state run's replay then handle the block.  A
#: diagnostics block holds about four n x n matrices a frame, so it is kept
#: short to bound peak memory; ``_TraceRecorder.trace`` forms its variances
#: over spans of the same length.
_BLOCK_FRAMES = 50
#: Most vision frames one timeline may count (``_frame_clock``): 11 h at
#: 25 Hz.  A longer flight, or an infinite one, fails at once instead of
#: walking its frames for hours.
MAX_FRAMES = 10**6


@dataclass(eq=False)
class TrajectoryConfig:
    """Piece-wise constant acceleration trajectory.

    Each segment is (duration_s, specific_force) with the specific force in
    m/s^2 navigation-frame components (N, E, U).  The net inertial
    acceleration in a segment is the specific force minus gravity along Up,
    so a vertical specific force equal to gravity is level unaccelerated
    flight.
    """

    p0: np.ndarray
    v0: np.ndarray
    segments: list
    gravity: float = GRAVITY

    def __post_init__(self):
        self.p0 = _as_finite_array(self.p0, "p0", (3,))
        self.v0 = _as_finite_array(self.v0, "v0", (3,))
        self.gravity = float(self.gravity)
        if not 0 <= self.gravity < np.inf:
            raise ValueError("gravity must be non-negative and finite")
        norm = []
        for j, seg in enumerate(self.segments):
            duration, force = seg
            duration = float(duration)
            if not 0 < duration < np.inf:
                raise ValueError(f"segment {j}: duration must be positive and finite")
            norm.append((duration, _as_finite_array(force, f"segment {j} force", (3,))))
        if not norm:
            raise ValueError("at least one trajectory segment is required")
        self.segments = norm
        self._pieces = self._start_states()

    def _start_states(self):
        """Each segment's (start position, start velocity, net acceleration).

        The track is continued from one segment end to the next, as
        ``_kinematics`` moves each time.  A segment whose end state
        overflows raises ValueError naming it, without a floating-point
        warning.
        """
        g_vec = np.array([0.0, 0.0, self.gravity])
        p, v = self.p0, self.v0
        pieces = []
        for j, (duration, force) in enumerate(self.segments):
            accel = force - g_vec
            pieces.append((p, v, accel))
            with np.errstate(over="ignore", invalid="ignore"):
                p = p + v * duration + 0.5 * accel * duration * duration
                v = v + accel * duration
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
                raise ValueError(
                    f"segment {j}: the state at its end is not finite "
                    "(the segment durations and specific forces are too large)"
                )
        return pieces

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def state_at(self, t: float):
        """(position, velocity, specific_force) at time t: one row of ``_kinematics``."""
        positions, velocities, segments = self._kinematics([t])
        return positions[0], velocities[0], self.segments[segments[0]][1]

    def segments_at(self, times) -> np.ndarray:
        """Active segment indices at an array of times.

        Segment j is active from ``_SLACK`` before the end of segment j - 1
        until ``_SLACK`` before its own end, the ends accumulated in segment
        order; the last segment also at and beyond the end of the trajectory.
        A NaN or infinite time raises ValueError.
        """
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        ends = np.cumsum([duration for duration, _ in self.segments]) - _SLACK
        return np.minimum(np.searchsorted(ends, times, side="right"), len(self.segments) - 1)

    def positions_at(self, times):
        """Positions and active segment indices (``segments_at``) at an array of times."""
        positions, _, segments = self._kinematics(times)
        return positions, segments

    def _kinematics(self, times):
        """(positions, velocities, segments) at a 1-D array of times.

        Each time moves on the constant-acceleration piece of its own segment
        (``segments_at``) from that segment's start state (``_start_states``),
        by the time left after subtracting the earlier durations one at a
        time, so the track is continuous across a segment end, as the
        filter's transitions are; past the end of the trajectory the vehicle
        moves on along the last segment.  Each row is computed on its own, so
        a batch of times gives the bits of each time alone.
        """
        times = np.asarray(times, dtype=float)
        segments = self.segments_at(times)
        remaining = times.copy()
        positions, velocities = np.empty((2, times.size, 3))
        for j, ((duration, _), (p, v, accel)) in enumerate(zip(self.segments, self._pieces)):
            here = segments == j
            step = remaining[here][:, None]
            positions[here] = p + v * step + 0.5 * accel * step * step
            velocities[here] = v + accel * step
            remaining -= duration
        return positions, velocities, segments


# sensor fields that must be > 0; the noise magnitudes may be zero
_POSITIVE_SENSOR_FIELDS = ("imu_rate_hz", "frame_rate_hz", "fov_deg")


@dataclass(frozen=True)
class SensorConfig:
    """IMU and vision sensor noise model.

    Rates in Hz, the IMU rate a whole multiple of the frame rate (each vision
    frame spans the same number of IMU steps); angular noises in degrees (per
    second for the gyro), accelerometer noise in m/s^2, range error in metres;
    all 1-sigma.
    The vision boresight is a unit vector in the navigation frame, pointing
    straight down by default.
    """

    imu_rate_hz: float = 100.0
    accel_noise: float = 0.01
    gyro_noise_deg: float = 0.1
    frame_rate_hz: float = 25.0
    fov_deg: float = 15.0
    range_error_m: float = 5.0
    bearing_noise_deg: float = 0.1
    elevation_noise_deg: float = 0.1
    boresight: tuple = (0.0, 0.0, -1.0)

    def __post_init__(self):
        for name in _POSITIVE_SENSOR_FIELDS:
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # noise magnitudes may be zero to exercise degenerate limits; the
        # filter squares each in its own units, radians for the angles
        for name, to_filter_units in (
            ("accel_noise", float),
            ("gyro_noise_deg", np.deg2rad),
            ("range_error_m", float),
            ("bearing_noise_deg", np.deg2rad),
            ("elevation_noise_deg", np.deg2rad),
        ):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
            sigma = float(to_filter_units(value))
            if not sigma * sigma < np.inf:
                raise ValueError(f"{name} must be finite once squared")
        if self.imu_rate_hz < self.frame_rate_hz:
            raise ValueError("imu_rate_hz must be at least frame_rate_hz")
        ratio = self.imu_rate_hz / self.frame_rate_hz
        if not ratio < np.inf:
            raise ValueError("imu_rate_hz / frame_rate_hz must be finite")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError("imu_rate_hz must be a whole multiple of frame_rate_hz")
        bs = np.asarray(self.boresight, dtype=float)
        if bs.shape != (3,) or not np.all(np.isfinite(bs)) or not np.any(bs):
            raise ValueError("boresight must be a nonzero 3-vector")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(bs)
        # the sum of squares overflowed, or fell below the normal range and lost bits
        if not np.sqrt(np.finfo(float).tiny) <= norm < np.inf:
            bs = bs / np.abs(bs).max()
            norm = np.linalg.norm(bs)
        object.__setattr__(self, "boresight", tuple(bs / norm))

    @property
    def gyro_noise_rad(self) -> float:
        return float(np.deg2rad(self.gyro_noise_deg))

    @property
    def bearing_noise_rad(self) -> float:
        return float(np.deg2rad(self.bearing_noise_deg))

    @property
    def elevation_noise_rad(self) -> float:
        return float(np.deg2rad(self.elevation_noise_deg))


@dataclass(eq=False)
class AugmentedCovariance:
    """Vehicle-plus-feature error covariance with feature bookkeeping."""

    P: np.ndarray
    feature_initialized: list

    def __post_init__(self):
        self.P = _as_finite_array(self.P, "P")
        n = self.P.shape[0]
        if self.P.ndim != 2 or self.P.shape != (n, n):
            raise ValueError("P must be square")
        if (n - VEHICLE_DIM) % 3 != 0 or n < VEHICLE_DIM:
            raise ValueError("P must cover 9 vehicle states plus 3 per feature")
        self.feature_initialized = list(self.feature_initialized)
        if len(self.feature_initialized) != (n - VEHICLE_DIM) // 3:
            raise ValueError("one initialization flag per feature is required")

    @property
    def n_features(self) -> int:
        return (self.P.shape[0] - VEHICLE_DIM) // 3

    def stds(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.P), 0.0, None))

    def functional_std(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(np.sqrt(max(w @ self.P @ w, 0.0)))


def process_noise_intensity(sensor: SensorConfig, n: int) -> np.ndarray:
    """Continuous-time process noise intensity for the augmented state.

    Accelerometer noise drives the velocity error, gyro noise the attitude
    error; position and feature states carry no process noise.
    """
    if n < VEHICLE_DIM:
        raise ValueError("state dimension too small")
    q = np.zeros((n, n))
    q[3:6, 3:6] = sensor.accel_noise**2 * np.eye(3)
    q[6:9, 6:9] = sensor.gyro_noise_rad**2 * np.eye(3)
    return q


def _propagated(P, phi, q_dt):
    """Array-level prediction: (raw phi P phi^T + q_dt, its re-symmetrization).

    The sums and the halving are formed in place on fresh arrays; IEEE
    addition and multiplication commute, so the bits are those of
    ``phi @ P @ phi.T + q_dt`` and ``0.5 * (P_raw + P_raw.T)``.
    """
    P_raw = phi @ P @ phi.T
    P_raw += q_dt
    P = P_raw + P_raw.T
    P *= 0.5
    return P_raw, P


@functools.lru_cache(maxsize=32)
def _identity(n):
    """Read-only n x n identity, built once per n, so no caller can change it."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


_INDEFINITE = "innovation covariance is singular or indefinite: {}"


def _raise_singular(err, flag):
    """``np.errstate`` call handler: LAPACK reported an exactly singular matrix."""
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(A, B):
    """A^-1 B for a square float64 A and a float64 B of as many rows.

    The LU solve of ``np.linalg.solve``, through the LAPACK gufunc that it
    calls, under the same error state, which the decorator sets for each call
    and restores on return: LinAlgError("Singular matrix") on an exactly
    singular A, and no floating-point warning.  It skips the wrapper's checks
    and conversions, which only re-prove what the caller's arrays are.  The
    decorator keeps its state per call in a context variable (NumPy >= 2.0),
    so calls in other threads do not share it.  The gufunc is private to
    NumPy, so pyproject.toml declares only the NumPy range the tests run on.
    """
    return _umath_linalg.solve(A, B, signature="dd->d")


def _joseph(P, H, R):
    """Array-level Joseph-form update; returns (gain, raw P, re-symmetrized P, S).

    The gain is K = (S^-1 H P)^T with S = H P H^T + R, from one LU solve,
    which raises LinAlgError on an exactly singular S.  The solve goes
    straight to NumPy's LAPACK gufunc (``_solve``): S is a square float64
    matrix built here, so the checks of the ``np.linalg.solve`` wrapper,
    about half of its cost at these sizes, prove nothing new, and the gain
    keeps the wrapper's bits.  S comes back unchecked: the filter loop
    checks it for positive definiteness later, one Cholesky per stack of
    innovation covariances (``_check_innovations``).  S is still factored
    twice because NumPy has no triangular solve: a gain taken from the
    Cholesky factor through ``np.linalg.solve`` would cost two LU
    factorizations and differ in its last bits from the one general solve.
    I - KH is ``I - K @ H`` with a cached identity (``_identity``), as the
    reference filter of the tests writes it with ``np.eye(n)``.  The sums and
    the halving are formed in place on fresh arrays, with the bits of
    ``HP @ H.T + R``, ``ikh @ P @ ikh.T + K @ R @ K.T`` and
    ``0.5 * (P_raw + P_raw.T)``.
    """
    HP = H @ P
    S = HP @ H.T
    S += R
    try:
        K = _solve(S, HP).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(_INDEFINITE.format(exc)) from exc
    ikh = _identity(len(P)) - K @ H
    P_raw = ikh @ P @ ikh.T
    P_raw += K @ R @ K.T
    P = P_raw + P_raw.T
    P *= 0.5
    return K, P_raw, P, S


def _cholesky_by_shape(matrices):
    """Cholesky factors of ``matrices``, one ``np.linalg.cholesky`` call per shape.

    Returns (positions, factors) per shape: where that shape's matrices sit
    in ``matrices`` and their stacked factors, which equal the per-matrix
    calls bit for bit.  Raises LinAlgError, as the call does, when any matrix
    is not positive definite.
    """
    groups = {}
    for i, A in enumerate(matrices):
        groups.setdefault(A.shape, []).append(i)
    return [
        (rows, np.linalg.cholesky(np.stack([matrices[i] for i in rows])))
        for rows in groups.values()
    ]


def _check_innovations(innovations) -> None:
    """Check that every innovation covariance in ``innovations`` is positive definite.

    The same LAPACK test, matrix by matrix, as a Cholesky call per matrix,
    in one call per shape.  A matrix that holds NaN gets a NaN factor rather
    than an error, so a factor that is not finite fails as well.  Raises
    LinAlgError with ``_joseph``'s message when any matrix fails; clears the
    list.
    """
    try:
        factors = _cholesky_by_shape(innovations)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(_INDEFINITE.format(exc)) from exc
    if not all(np.isfinite(L).all() for _, L in factors):
        raise np.linalg.LinAlgError(_INDEFINITE.format("its Cholesky factor is not finite"))
    innovations.clear()


def _frame_transition(phis, q_dt):
    """Transition and process noise of consecutive IMU steps with transitions ``phis``.

    Phi_f = phis[-1] ... phis[0], and Q_f is the ``_propagated`` recursion over
    the same steps started from a zero matrix, so one ``_propagated(P, Phi_f,
    Q_f)`` equals the step-by-step propagation (each step adding ``q_dt``)
    up to rounding.
    """
    phi_f = np.eye(len(q_dt))
    q_f = np.zeros_like(q_dt)
    for phi in phis:
        phi_f = phi @ phi_f
        q_f = _propagated(q_f, phi, q_dt)[1]
    return phi_f, q_f


def initialize_feature(
    cov: AugmentedCovariance, feature_index: int, u_m_value: float = FEATURE_PRIOR_DEFAULT
) -> AugmentedCovariance:
    """Stamp a feature's prior block and zero its cross-covariances.

    The feature block becomes u_m_value * I3; a second initialization of the
    same feature is an error.
    """
    c = int(feature_index)
    if not 0 <= c < cov.n_features:
        raise IndexError(f"feature index {feature_index} out of range")
    if cov.feature_initialized[c]:
        raise ValueError(f"feature {c} is already initialized")
    if u_m_value < 0:
        raise ValueError("u_m_value must be non-negative")
    P = cov.P.copy()
    block = slice(VEHICLE_DIM + 3 * c, VEHICLE_DIM + 3 * c + 3)
    P[block, :] = 0.0
    P[:, block] = 0.0
    P[block, block] = u_m_value * np.eye(3)
    flags = list(cov.feature_initialized)
    flags[c] = True
    return AugmentedCovariance(P=P, feature_initialized=flags)


def _row_dots(a, b) -> np.ndarray:
    """Row-wise dot products of two (m, 3) arrays.

    Taken as m (1x3)(3x1) matrix products, which sum each row exactly as
    ``np.dot`` sums one 3-vector pair (``einsum`` or ``sum(axis=1)`` do not),
    so batched ranges and cosines equal the per-vector ones bit for bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _noise_blocks(rel, sensor: SensorConfig) -> np.ndarray:
    """(m, 3, 3) Cartesian noise covariances for the (m, 3) relative vectors ``rel``.

    The one implementation of the noise geometry that
    ``measurement_noise_cartesian`` documents, applied row by row.  Raises on
    a zero range or an all-zero noise model; a zero sigma warns once per
    call, attributed to the caller's caller.
    """
    ranges = np.sqrt(_row_dots(rel, rel))
    if not np.all(ranges > 0):
        raise ValueError("range must be positive")
    los = rel / ranges[:, None]
    # tangent-plane helper: Up, or North for a line of sight near vertical
    helper = np.zeros_like(los)
    near_vertical = np.abs(los[:, 2]) > 0.9
    helper[near_vertical, 0] = 1.0
    helper[~near_vertical, 2] = 1.0
    t1 = np.cross(los, helper)
    t1 /= np.sqrt(_row_dots(t1, t1))[:, None]
    t2 = np.cross(los, t1)
    J = np.stack([los, ranges[:, None] * t1, ranges[:, None] * t2], axis=2)
    sig = np.array(
        [sensor.range_error_m, sensor.bearing_noise_rad, sensor.elevation_noise_rad]
    )
    R = (J * sig**2) @ J.transpose(0, 2, 1)
    R = 0.5 * (R + R.transpose(0, 2, 1))
    if np.any(sig == 0.0):
        floor = _R_FLOOR * R.diagonal(axis1=1, axis2=2).max(axis=1)
        if np.any(floor <= 0.0):
            raise ValueError("all measurement noise terms are zero")
        warnings.warn(
            "degenerate measurement noise (a zero sigma); flooring covariance",
            RuntimeWarning,
            stacklevel=3,
        )
        R = R + floor[:, None, None] * np.eye(3)
    return R


def measurement_noise_cartesian(rel_pos, sensor: SensorConfig) -> np.ndarray:
    """3x3 Cartesian noise covariance of a range/bearing/elevation fix.

    ``rel_pos`` is the feature-relative-to-vehicle 3-vector.  The range error
    acts along the line of sight, the two angular errors act tangentially
    with lever arm equal to the range, so R = J diag(sig_r^2, sig_b^2,
    sig_e^2) J^T with J the Jacobian of the polar-to-Cartesian map at the
    current geometry.  If any noise term is exactly zero the result is rank
    deficient; it is then floored to stay invertible and a warning is
    emitted.
    """
    rel = _as_finite_array(rel_pos, "rel_pos", (3,))
    return _noise_blocks(rel[None, :], sensor)[0]


def _in_cone(rel, sensor: SensorConfig) -> np.ndarray:
    """Field-of-view gate of a (..., 3) array of feature-minus-vehicle vectors.

    True where the vector is nonzero and at most ``fov_deg`` off the
    boresight.
    """
    flat = rel.reshape(-1, 3)
    ranges = np.sqrt(_row_dots(flat, flat))
    along = _row_dots(flat, np.broadcast_to(sensor.boresight, flat.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = along / ranges >= np.cos(np.deg2rad(sensor.fov_deg))
    return (inside & (ranges > 0)).reshape(rel.shape[:-1])


@dataclass(eq=False)
class SimScenario:
    """What the covariance simulation estimates and when features are seen.

    ``feature_positions`` maps feature id to its true navigation-frame
    position.  With an explicit ``schedule``, which must have one row per
    feature, a feature is measured at every vision frame of the segments
    where it is scheduled; without one the field-of-view gate decides
    detection frame by frame.
    """

    feature_positions: dict
    schedule: DetectionSchedule | None = None
    vehicle_variances: np.ndarray = DEFAULT_VEHICLE_VARIANCES
    feature_prior: float = FEATURE_PRIOR_DEFAULT

    def __post_init__(self):
        self.feature_positions = {
            fid: _as_finite_array(pos, f"feature_positions[{fid!r}]", (3,))
            for fid, pos in self.feature_positions.items()
        }
        if not self.feature_positions:
            raise ValueError("at least one feature is required")
        self.vehicle_variances = _as_finite_array(
            self.vehicle_variances, "vehicle_variances", (9,)
        )
        self.feature_prior = float(self.feature_prior)
        if np.any(self.vehicle_variances < 0):
            raise ValueError("vehicle_variances must be non-negative")
        if not 0 <= self.feature_prior < np.inf:
            raise ValueError("feature_prior must be non-negative and finite")
        if self.schedule is not None:
            scheduled, positioned = set(self.schedule.feature_ids), set(self.feature_positions)
            missing = scheduled - positioned
            if missing:
                raise ValueError(
                    f"schedule references unknown feature(s) {sorted(missing, key=repr)}"
                )
            unscheduled = positioned - scheduled
            if unscheduled:
                raise ValueError(
                    f"no schedule row for feature(s) {sorted(unscheduled, key=repr)}"
                )

    @property
    def feature_ids(self) -> tuple:
        if self.schedule is not None:
            return self.schedule.feature_ids
        return tuple(self.feature_positions)

    def _prior_variances(self) -> np.ndarray:
        """Prior error variances: the vehicle's, then ``feature_prior`` on every feature axis."""
        return np.r_[self.vehicle_variances, np.full(3 * len(self.feature_ids), self.feature_prior)]


@dataclass(eq=False)
class SimulationDiagnostics:
    """Numerical health of a covariance run, checked on every frame.

    Three checks cover every vision frame and every update:

    - ``max_relative_asymmetry``: the largest max|P - P^T| / max|P| of a raw
      covariance before re-symmetrization (a frame's ``raw``), over every
      frame's composed propagation (not every IMU step) and every update;
    - ``min_eigenvalue_ratio``: the smallest ratio of a posterior's lowest to
      its highest eigenvalue.  It starts at 0.0, so it reports
      min(0, ratio): 0 for a positive semidefinite run, negative when a
      posterior was indefinite;
    - ``max_update_variance_growth``: the worst relative increase, across an
      update, of the variances of 20 random functionals drawn per update
      (non-positive means no update inflated a variance; -inf without
      updates).

    A NaN in a checked matrix makes its field NaN for the rest of the run, so
    a bound on the field fails.  ``note_frame`` records each frame in one
    buffer and checks the buffered block, stacked, when a frame closes it
    (``_Frame.closes``), so the checks read the frames alone and only after
    the loop has checked the block's innovations.  Blocking changes no
    result: maxima and minima do not depend on the grouping, ``eigvalsh`` of
    a stack equals the per-matrix calls, and one (u, 20, n) draw is the same
    stream as u draws of (20, n).
    """

    max_relative_asymmetry: float = 0.0
    min_eigenvalue_ratio: float = 0.0
    max_update_variance_growth: float = -np.inf
    n_updates: int = 0
    _frames: list = field(default_factory=list, init=False, repr=False)

    def note_frame(self, frame, rng) -> None:
        """Record a frame (kept by reference, not copied); check the block it closes.

        The block's updates draw their 20 random functionals each from
        ``rng`` in one (u, 20, n) block.
        """
        self._frames.append(frame)
        if not frame.closes:
            return
        frames, self._frames = self._frames, []
        raw = [P_raw for frame in frames for P_raw in frame.raw]
        if raw:
            raw = np.stack(raw)
            scale = np.abs(raw).max(axis=(1, 2))
            scale[scale == 0.0] = 1.0
            asym = np.abs(raw - raw.transpose(0, 2, 1)).max(axis=(1, 2)) / scale
            self.max_relative_asymmetry = float(np.maximum(self.max_relative_asymmetry, asym.max()))
        posteriors = np.stack([frame.P for frame in frames])
        eigs = np.linalg.eigvalsh(posteriors)
        ratio = eigs[:, 0] / np.maximum(eigs[:, -1], 1e-300)
        # eigvalsh can return finite eigenvalues for a matrix holding a NaN
        ratio[~np.isfinite(posteriors).all(axis=(1, 2))] = np.nan
        self.min_eigenvalue_ratio = float(np.minimum(self.min_eigenvalue_ratio, ratio.min()))
        updated = [i for i, frame in enumerate(frames) if frame.P_prior is not None]
        if updated:
            priors = np.stack([frames[i].P_prior for i in updated])
            posteriors = posteriors[updated]
            w = rng.standard_normal((len(priors), 20, priors.shape[1]))
            before = ((w @ priors) * w).sum(axis=2)
            after = ((w @ posteriors) * w).sum(axis=2)
            growth = ((after - before) / np.maximum(before, 1e-300)).max()
            growth = np.maximum(self.max_update_variance_growth, growth)
            self.max_update_variance_growth = float(growth)
            self.n_updates += len(priors)


@dataclass(eq=False)
class CovarianceTrace:
    """Standard-deviation time series recorded at the vision frame rate.

    ``std`` holds per-axis standard deviations of the state errors keyed by
    ``model.state_labels``, in state order, so its ``dm_<id>`` labels name
    the features; ``derived_std`` those of the position-minus-feature and
    feature-minus-feature differences (``model.standard_differences``).
    """

    times: np.ndarray
    std: dict
    derived_std: dict
    diagnostics: SimulationDiagnostics | None = None

    def series(self, label: str) -> np.ndarray:
        if label in self.std:
            return self.std[label]
        if label in self.derived_std:
            return self.derived_std[label]
        raise KeyError(label)

    def value_at(self, label: str, t: float) -> float:
        """``label`` at the frame nearest ``t``; ValueError unless t is finite and in the trace."""
        if not np.isfinite(t):
            raise ValueError("t must be finite")
        if self.times.size == 0:
            raise ValueError("trace is empty")
        first, last = self.times[0], self.times[-1]
        if not first - _SLACK <= t <= last + _SLACK:
            raise ValueError(f"t = {t} lies outside the trace [{first}, {last}]")
        k = int(np.argmin(np.abs(self.times - t)))
        return float(self.series(label)[k])


class _TraceRecorder:
    """Records the variances of ``count`` frames for one ``CovarianceTrace``.

    The frame times are the clock's, k * dt (``_frame_clock``).  A frame
    costs one gather (``ndarray.take``) from its P into a column of one
    (n + D, count) buffer: P's diagonal, then the entry P[plus, minus] of
    each of the D standard differences e_plus - e_minus
    (``model.standard_differences``).  Every P the filter loop yields is
    exactly symmetric (a re-symmetrized matrix or the diagonal prior), so
    P[minus, plus] is the same number.  ``trace`` turns those entries into
    the differences' variances in place, ``_BLOCK_FRAMES`` frames at a time,
    and takes standard deviations once; each series is a row of the buffer.
    """

    def __init__(self, feature_ids, sensor, count):
        n = VEHICLE_DIM + 3 * len(feature_ids)
        labels, self._plus, self._minus = model.standard_differences(feature_ids)
        # flat indices into P: the diagonal, then P[plus, minus]
        self._gather = np.concatenate([np.arange(n) * (n + 1), self._plus * n + self._minus])
        self._labels, self._derived_labels = model.state_labels(feature_ids), labels
        self.times = np.arange(count) * _frame_clock(sensor)[1]
        self._values = np.empty((len(self._gather), count))

    def record(self, k: int, frame) -> None:
        self._values[:, k] = frame.P.take(self._gather)

    def trace(self, diagnostics=None) -> CovarianceTrace:
        n, values = len(self._labels), self._values
        for first in range(0, values.shape[1], _BLOCK_FRAMES):
            block = values[:, first : first + _BLOCK_FRAMES]
            variances, cross = block[:n], block[n:]
            # (P_pp - P_mp) - (P_pm - P_mm), the order w @ P @ w sums it in, with P_mp = P_pm
            cross[:] = (variances[self._plus] - cross) - (cross - variances[self._minus])
        # variances to standard deviations, elementwise and in place, once per run
        np.sqrt(np.clip(values, 0.0, None, out=values), out=values)
        return CovarianceTrace(
            times=self.times,
            std=dict(zip(self._labels, values[:n])),
            derived_std=dict(zip(self._derived_labels, values[n:])),
            diagnostics=diagnostics,
        )


def _frame_clock(sensor: SensorConfig, duration=0.0):
    """(frames in the first ``duration`` s, frame period dt, IMU steps per frame, IMU step).

    Frame k is at k * dt everywhere (k / frame_rate_hz differs by an ulp on
    some k), and the frames counted are those with k * dt <= duration, with
    the ``_SLACK`` of the segment lookups; a zero duration counts none, not
    frame 0.  ValueError when duration * frame_rate_hz exceeds ``MAX_FRAMES``
    or is not finite.
    """
    frame_dt = 1.0 / sensor.frame_rate_hz
    steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
    frames = duration * sensor.frame_rate_hz
    if not frames <= MAX_FRAMES:
        raise ValueError(
            f"duration * frame_rate_hz is {frames:.6g} frames, more than the {MAX_FRAMES:,} allowed"
        )
    last = round(frames)
    if last * frame_dt > duration + _SLACK:  # the nearest frame lies past the end
        last -= 1
    count = last + 1 if duration > 0 else 0
    return count, frame_dt, steps_per_frame, frame_dt / steps_per_frame


def _frame_blocks(trajectory, sensor, count):
    """Yield (positions, segments, steps) per block of ``count`` frames.

    A block holds ``GEOMETRY_BLOCK_FRAMES`` frames: the vehicle positions and
    active segments at their times k * dt, and in row i of ``steps`` the
    segments of the IMU steps that propagate the previous frame to frame i
    (unused for frame 0).  Those step times start at the previous frame's
    time and add the step length one at a time, as a running clock would.
    """
    _, frame_dt, steps_per_frame, imu_dt = _frame_clock(sensor)
    for first in range(0, count, GEOMETRY_BLOCK_FRAMES):
        frames = np.arange(first, min(first + GEOMETRY_BLOCK_FRAMES, count))
        positions, segments = trajectory.positions_at(frames * frame_dt)
        step_times = np.full((frames.size, steps_per_frame), imu_dt)
        step_times[:, 0] = (frames - 1) * frame_dt
        yield positions, segments, trajectory.segments_at(np.cumsum(step_times, axis=1))


def _frame_geometry(scenario: SimScenario, trajectory, sensor, count):
    """Yield (step segments, bands, noise) per frame.

    ``bands`` and ``noise`` hold the (k, 3, n) bands of H and the (k, 3, 3)
    noise blocks (``_noise_blocks``) of the frame's k visible features, in
    ascending feature order (the schedule's columns, or the field-of-view
    gate); both are slices of arrays computed once per ``_frame_blocks``
    block, the bands by ``model.feature_bands``, the function ``augment``
    builds the analysis's H with.
    """
    features = np.array([scenario.feature_positions[fid] for fid in scenario.feature_ids])
    n = VEHICLE_DIM + 3 * len(features)
    for positions, segments, steps in _frame_blocks(trajectory, sensor, count):
        rel = features - positions[:, None, :]
        if scenario.schedule is None:
            visible = _in_cone(rel, sensor)
        else:
            visible = scenario.schedule.detected[:, segments].T
        frame_of, feature_of = np.nonzero(visible)
        rel = rel[frame_of, feature_of]
        bands = model.feature_bands(feature_of, model.feature_obs_rows(rel), n)
        noise = _noise_blocks(rel, sensor) if len(rel) else np.empty((0, 3, 3))
        bounds = np.searchsorted(frame_of, np.arange(len(steps) + 1)).tolist()
        for i, pattern in enumerate(map(tuple, steps.tolist())):
            rows = slice(bounds[i], bounds[i + 1])
            yield pattern, bands[rows], noise[rows]


@functools.lru_cache(maxsize=32)
def _block_diagonal_indices(k):
    """Flat indices of the k 3x3 diagonal blocks of a 3k x 3k matrix, in (k, 3, 3) order.

    Built once per k and read-only, so no caller can change it.
    """
    corner = 3 * np.arange(k)[:, None, None]
    axis = np.arange(3)
    index = ((corner + axis[:, None]) * (3 * k) + corner + axis).ravel()
    index.flags.writeable = False
    return index


def _stacked_measurement(bands, noise):
    """Stacked H (3k x n) and block-diagonal R (3k x 3k) of k visible features.

    ``bands`` and ``noise`` are the features' (k, 3, n) bands of H and
    (k, 3, 3) noise blocks, from ``_frame_geometry``.  H is a view of the
    bands, so it keeps its geometry block's bands alive; the noise blocks go
    onto R's diagonal in one scatter (``_block_diagonal_indices``).
    """
    k, _, n = bands.shape
    R = np.zeros((3 * k, 3 * k))
    R.put(_block_diagonal_indices(k), noise)
    return bands.reshape(3 * k, n), R


class _Frame(NamedTuple):
    """One vision frame of the filter loop.

    ``P`` is the covariance after the frame's update and ``P_prior``, ``H``,
    ``R`` and ``K`` the update's prior, stacked measurement and gain (None when
    no feature is visible); ``steps`` and ``phi`` the IMU-step transitions from
    the previous frame and their product Phi_f (empty and None at frame 0).
    ``steps`` is one tuple, shared by every frame with the same step segments.
    ``raw`` holds the covariances the frame re-symmetrized, as computed: the
    propagated one (from frame 1 on), then the updated one (at an update).
    ``closes`` is True on the last frame of each block of ``_BLOCK_FRAMES``
    frames and on the run's last frame: the block's innovations are checked.
    """

    steps: tuple
    phi: np.ndarray | None
    P: np.ndarray
    P_prior: np.ndarray | None
    H: np.ndarray | None
    R: np.ndarray | None
    K: np.ndarray | None
    raw: tuple
    closes: bool


def _frame_count(scenario: SimScenario, trajectory, sensor, duration) -> int:
    """Vision frames recorded by a run truncated to ``duration`` (0 if empty)."""
    if scenario.schedule is not None and scenario.schedule.n_segments != len(
        trajectory.segments
    ):
        raise ValueError(
            f"schedule covers {scenario.schedule.n_segments} segments but the "
            f"trajectory has {len(trajectory.segments)}"
        )
    total = trajectory.total_duration if duration is None else float(duration)
    if not total >= 0:
        raise ValueError("duration must be non-negative")
    return _frame_clock(sensor, min(total, trajectory.total_duration))[0]


def _filter_frames(scenario: SimScenario, trajectory, sensor, count):
    """The covariance filter loop: yield a _Frame for each of ``count`` frames.

    Propagates P once per vision frame with the frame's composed transition
    Phi_f = Phi_{s_k} ... Phi_{s_1} over its IMU steps and the matching
    process noise Q_f (``_frame_transition``: the per-step recursion
    Q <- Phi_s Q Phi_s^T + q dt started from zero, so the first-order noise of
    every IMU step is kept).  Phi_s is built once per trajectory segment, in
    closed form as the inertial error dynamics are nilpotent, and (Phi_f,
    Q_f) once per distinct tuple of step segments: a frame inside
    one segment, or one of the few frames that straddle a segment boundary.
    Then it applies one stacked Joseph update per vision frame covering every
    currently-detected feature; a feature not yet measured keeps its prior
    block, uncorrelated.  Each frame's step segments, and the bands and noise
    of its visible features, come from ``_frame_geometry``.  A frame yields
    what it applied (step transitions and Phi_f; H, R and the gain K) and the
    raw covariances it re-symmetrized, and carries no sampled state.

    Every update's innovation covariance S is checked for positive
    definiteness (``_check_innovations``) in blocks of ``_BLOCK_FRAMES``
    frames, the last one shorter: just before the frame that closes a block
    (``_Frame.closes``) is yielded.  A failing block raises LinAlgError, so a
    caller that handles a block when a frame closes it (the diagnostics, the
    state run's replay) never computes on a frame of a failing block.
    """
    n = VEHICLE_DIM + 3 * len(scenario.feature_ids)
    imu_dt = _frame_clock(sensor)[3]
    q_dt = process_noise_intensity(sensor, n) * imu_dt
    phis = [
        state_transition(model.augmented_f(force, n), imu_dt, "exact")
        for _, force in trajectory.segments
    ]
    transitions = {}  # step segments -> (step transitions, Phi_f, Q_f)
    P = np.diag(scenario._prior_variances())
    steps, phi_f = (), None
    innovations = []  # S of each update since the last check

    frames = _frame_geometry(scenario, trajectory, sensor, count)
    for frame, (pattern, bands, noise) in enumerate(frames):
        raw = ()
        if frame:
            if pattern not in transitions:
                steps = tuple(phis[s] for s in pattern)
                transitions[pattern] = (steps, *_frame_transition(steps, q_dt))
            steps, phi_f, q_f = transitions[pattern]
            P_raw, P = _propagated(P, phi_f, q_f)
            raw = (P_raw,)
        P_prior = H = R = K = None
        if len(bands):
            H, R = _stacked_measurement(bands, noise)
            P_prior = P
            K, P_raw, P, S = _joseph(P, H, R)
            innovations.append(S)
            raw += (P_raw,)
        closes = (frame + 1) % _BLOCK_FRAMES == 0 or frame + 1 == count
        if closes:
            _check_innovations(innovations)
        yield _Frame(steps, phi_f, P, P_prior, H, R, K, raw, closes)


def simulate(
    scenario: SimScenario,
    trajectory: TrajectoryConfig,
    sensor: SensorConfig,
    seed: int = 0,
    duration: float = None,
    collect_diagnostics: bool = False,
) -> CovarianceTrace:
    """Run the covariance recursion and record standard deviations per frame.

    Propagates once per vision frame over the frame's IMU steps and applies
    one stacked measurement update per vision frame covering every
    currently-detected feature; every feature starts at its prior and keeps
    it until first measured.  ``duration`` truncates the run; the trace holds
    floor(duration * frame_rate) + 1 rows for a positive duration and none
    for a zero one.  The run itself is deterministic;
    the seed only drives the random functionals sampled for the optional
    diagnostics.
    """
    count = _frame_count(scenario, trajectory, sensor, duration)
    recorder = _TraceRecorder(scenario.feature_ids, sensor, count)
    diag = SimulationDiagnostics() if collect_diagnostics else None
    rng = np.random.default_rng(seed)
    for k, frame in enumerate(_filter_frames(scenario, trajectory, sensor, count)):
        if diag is not None:
            diag.note_frame(frame, rng)
        recorder.record(k, frame)
    return recorder.trace(diag)


@dataclass(eq=False)
class StateRun:
    """Trajectory comparison from one noisy-measurement state run.

    ``trace`` is the covariance trace of the filter pass the run replays:
    equal, array for array, to ``simulate``'s for the same scenario and
    duration, without diagnostics.  ``times`` is ``trace.times``.
    """

    times: np.ndarray
    true_positions: np.ndarray
    ins_positions: np.ndarray
    estimated_positions: np.ndarray
    trace: CovarianceTrace


def _replay(block, x, x_hat, rng, noise_std, sqrt_dt, ins, estimated):
    """Replay a block of frames on the sampled error state x and its estimate x_hat.

    ``block`` holds each frame's (steps, phi, H, R, K).  The block's normals
    come from one ``rng.standard_normal`` call, in the order a frame-by-frame
    replay draws them: len(steps) x n process-noise draws for a propagated
    frame, then 3k measurement-noise draws for an update.  Each update's
    measurement noise chol(R) v is formed before the recursion, with one
    Cholesky and one product over the stacked R of each shape; both equal
    the per-frame calls bit for bit.  Writes each frame's x[0:3] and
    x_hat[0:3] into its row of ``ins`` and ``estimated`` and returns the last
    (x, x_hat).
    """
    n = len(x)
    sizes = [(len(steps) * n, 0 if R is None else len(R)) for steps, _, _, R, _ in block]
    is_process = np.repeat(np.tile([True, False], len(block)), np.ravel(sizes))
    draws = rng.standard_normal(is_process.size)
    process = draws[is_process].reshape(-1, n) * noise_std * sqrt_dt
    # each frame's measurement draws, empty without an update
    measured = np.split(draws[~is_process], np.cumsum([size for _, size in sizes])[:-1])
    updated = [i for i, (_, size) in enumerate(sizes) if size]
    noise = [None] * len(block)
    for rows, L in _cholesky_by_shape([block[i][3] for i in updated]):
        frames = [updated[r] for r in rows]
        v = np.stack([measured[i] for i in frames])
        for i, row in zip(frames, (L @ v[:, :, None])[:, :, 0]):
            noise[i] = row
    first = 0
    for i, (steps, phi, H, _, K) in enumerate(block):
        if phi is not None:
            for step, w in zip(steps, process[first : first + len(steps)]):
                x = step @ x + w
            first += len(steps)
            x_hat = phi @ x_hat
        if H is not None:
            z = H @ x + noise[i]
            x_hat = x_hat + K @ (z - H @ x_hat)
        ins[i], estimated[i] = x[0:3], x_hat[0:3]
    return x, x_hat


def state_comparison_run(
    scenario: SimScenario,
    trajectory: TrajectoryConfig,
    sensor: SensorConfig,
    seed: int = 0,
    duration: float = None,
) -> StateRun:
    """Single noise-driven run comparing dead-reckoning against the filter.

    Samples one realization of the error-state process (prior errors, then
    process noise at every IMU step of each frame's ``steps``) as the
    uncorrected inertial drift, measures it with noise drawn from R at every
    update of the filter loop, and replays the estimate with each frame's
    Phi_f and gain K.  Reports true, inertial-only and corrected positions,
    and the covariance trace of the same pass (``StateRun.trace``), so one
    run of the loop serves both; fully deterministic for a given seed.
    Each frame is recorded as the loop yields it, keeping only what the
    replay reads of it; the replay (``_replay``) runs over each block when a
    frame closes it (``_Frame.closes``), and draws the same numbers as a
    replay frame by frame.  The true track is read at the trace's times in
    one ``positions_at`` call after the loop.
    """
    count = _frame_count(scenario, trajectory, sensor, duration)
    n = VEHICLE_DIM + 3 * len(scenario.feature_ids)
    rng = np.random.default_rng(seed)
    x, x_hat = rng.standard_normal(n) * np.sqrt(scenario._prior_variances()), np.zeros(n)
    noise_std = np.sqrt(np.diag(process_noise_intensity(sensor, n)))
    sqrt_dt = np.sqrt(_frame_clock(sensor)[3])
    recorder = _TraceRecorder(scenario.feature_ids, sensor, count)
    ins, estimated = np.empty((2, count, 3))
    block = []
    for k, frame in enumerate(_filter_frames(scenario, trajectory, sensor, count)):
        recorder.record(k, frame)
        block.append((frame.steps, frame.phi, frame.H, frame.R, frame.K))
        if frame.closes:
            rows = slice(k + 1 - len(block), k + 1)
            x, x_hat = _replay(
                block, x, x_hat, rng, noise_std, sqrt_dt, ins[rows], estimated[rows]
            )
            block = []
    # x and x_hat until the replay ends; then (position + x) - x_hat, in place
    true = trajectory.positions_at(recorder.times)[0]
    ins += true
    np.subtract(ins, estimated, out=estimated)
    trace = recorder.trace()
    return StateRun(trace.times, true, ins, estimated, trace)
