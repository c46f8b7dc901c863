"""Covariance simulation of an aided-inertial SLAM filter.

Runs the Riccati recursion (propagate + measurement update of the error
covariance) over a piece-wise constant acceleration trajectory, so the
predicted estimator performance can be compared against the rank-based
observability verdicts: observable functionals should see their standard
deviations collapse, unobservable ones should stay at prior level or grow.

The state layout, F and the measurement rows are ``slamobs.model``'s: the
system the analysis ranks, in the North / East / Up navigation frame.
Feature covariance blocks are carried from the start at a large prior so the
state dimension never changes; a feature is "initialized" the first time it
is detected, which stamps its prior block and zeroes its cross-covariances.

There is one filter loop, ``_filter_frames``, built on one Joseph-form update
(``_joseph``, which takes the gain from one solve against the innovation
covariance after a Cholesky check that it is positive definite) and one
propagation (``_propagated``) per vision frame.  The IMU-step transition
matrix is computed once per trajectory segment, in closed form because the
inertial error dynamics are nilpotent.  A frame's IMU steps are composed into
one transition Phi_f and one process noise Q_f (the per-step recursion
Q <- Phi Q Phi^T + q dt run from zero, which keeps the first-order noise of
every step), cached per distinct tuple of step segments, so a frame that
straddles a segment boundary gets its own pair.  Each frame yields what it
applied (step transitions, Phi_f, and H, R and the gain K at an update) and
the raw covariances it re-symmetrized.  ``simulate`` and
``state_comparison_run`` each run the loop once and record its variances
through ``_TraceRecorder``, taking standard deviations once per run;
``state_comparison_run`` also replays the frames on a state sampled outside
the loop, so one pass gives both the trace and the state run.  With
``collect_diagnostics``, ``simulate`` also hands every frame to
``SimulationDiagnostics``, which checks symmetry, the eigenvalue ratio and
update growth on the frames alone, one block of ``_DIAGNOSTIC_BLOCK_FRAMES``
frames at a time.

The trajectory has one segment-boundary rule, ``TrajectoryConfig.segments_at``:
segment j is active from ``_SLACK`` before the end of segment j - 1 until
``_SLACK`` before its own end.  Positions, velocities and forces come from
one kinematics pass keyed by it, continuous across a segment end, matching
the filter's transition there and moving on past the last segment's end.

The frame timeline has one source.  ``_frame_blocks`` walks the run in
blocks of ``GEOMETRY_BLOCK_FRAMES`` vision frames at the times k * dt of
``_frame_clock`` and yields each block's vehicle positions, active segments
and the segments of every IMU step, all under that rule; ``fov_schedule``
gates those positions and ``_frame_geometry`` turns them into one record per
frame: its time, position, step segments, visible features (the schedule's
columns, or one field-of-view gate over frames x features) and their rows
(``model.feature_obs_rows``) and 3x3 noise blocks (``_noise_blocks``), both
computed once per block.  An update frame only stacks H and R
(``_stacked_measurement``).  The batched kernels take dot products and norms
as stacked 1x3 by 3x1 matrix products, which sum exactly as ``np.dot`` does,
so every number equals the per-vector computation bit for bit;
``measurement_noise_cartesian`` and ``fov_schedule`` are the same kernels
applied to one vector and to a whole flight.  Blocks bound the extra memory
to one block whatever the run length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import analysis, model
from .model import DetectionSchedule, VEHICLE_DIM
from .model import feature_obs_row  # noqa: F401  (perfbench/tracer.py counts calls through this name)
from .pwcs import _as_finite_array, state_transition

GRAVITY = 9.81
FEATURE_PRIOR_DEFAULT = 1.0e9
#: Default initial vehicle error variances: 1 m^2 / (m/s)^2 on position and
#: velocity, 0.0873 rad^2 on attitude, read literally as variances.
DEFAULT_VEHICLE_VARIANCES = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0873, 0.0873, 0.0873)

_R_FLOOR = 1e-12
#: Segment-boundary slack in seconds: a time this close before a segment's end
#: already belongs to the next segment, and a frame this close past the end of
#: a run is still recorded.
_SLACK = 1e-12
#: Vision frames whose measurement geometry (vehicle positions, visibility,
#: observation rows, noise blocks) is computed in one batch: 10 s at 25 Hz.
GEOMETRY_BLOCK_FRAMES = 250
#: Frames whose health checks ``SimulationDiagnostics`` runs in one batch.  A
#: block holds every raw, prior and posterior covariance of its frames (about
#: four n x n matrices a frame), so it is kept short to bound peak memory.
_DIAGNOSTIC_BLOCK_FRAMES = 50


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
        norm = []
        for j, seg in enumerate(self.segments):
            duration, force = seg
            duration = float(duration)
            if not duration > 0:
                raise ValueError(f"segment {j}: duration must be positive")
            norm.append((duration, _as_finite_array(force, f"segment {j} force", (3,))))
        if not norm:
            raise ValueError("at least one trajectory segment is required")
        self.segments = norm

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def segment_index(self, t: float) -> int:
        """Segment active at time t: ``segments_at`` of one time."""
        return int(self.segments_at([t])[0])

    def state_at(self, t: float):
        """(position, velocity, specific_force) at time t: one row of ``_kinematics``."""
        positions, velocities, segments = self._kinematics([t])
        return positions[0], velocities[0], self.segments[segments[0]][1]

    def segments_at(self, times) -> np.ndarray:
        """Active segment indices at an array of times.

        Segment j is active from ``_SLACK`` before the end of segment j - 1
        until ``_SLACK`` before its own end, the ends accumulated in segment
        order; the last segment also at and beyond the end of the trajectory.
        """
        ends = np.cumsum([duration for duration, _ in self.segments]) - _SLACK
        return np.minimum(np.searchsorted(ends, times, side="right"), len(self.segments) - 1)

    def positions_at(self, times):
        """Positions and active segment indices (``segments_at``) at an array of times."""
        positions, _, segments = self._kinematics(times)
        return positions, segments

    def _kinematics(self, times):
        """(positions, velocities, segments) at a 1-D array of times.

        Each time moves on the constant-acceleration piece of its own segment
        (``segments_at``) from that segment's start state, by the time left
        after subtracting the earlier durations one at a time; past the end
        of the trajectory the vehicle moves on along the last segment.
        """
        times = np.asarray(times, dtype=float)
        segments = self.segments_at(times)
        remaining = times.copy()
        positions, velocities = np.empty((2, times.size, 3))
        g_vec = np.array([0.0, 0.0, self.gravity])
        p, v = self.p0, self.v0
        for j, (duration, force) in enumerate(self.segments):
            accel = force - g_vec
            here = segments == j
            step = remaining[here][:, None]
            positions[here] = p + v * step + 0.5 * accel * step * step
            velocities[here] = v + accel * step
            p = p + v * duration + 0.5 * accel * duration * duration
            v = v + accel * duration
            remaining -= duration
        return positions, velocities, segments


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
        for name in ("imu_rate_hz", "frame_rate_hz", "fov_deg"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # noise magnitudes may be zero to exercise degenerate limits
        for name in (
            "accel_noise",
            "gyro_noise_deg",
            "range_error_m",
            "bearing_noise_deg",
            "elevation_noise_deg",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.imu_rate_hz < self.frame_rate_hz:
            raise ValueError("imu_rate_hz must be at least frame_rate_hz")
        ratio = self.imu_rate_hz / self.frame_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError("imu_rate_hz must be a whole multiple of frame_rate_hz")
        bs = np.asarray(self.boresight, dtype=float)
        if bs.shape != (3,) or not np.all(np.isfinite(bs)) or not np.linalg.norm(bs) > 0:
            raise ValueError("boresight must be a nonzero 3-vector")
        object.__setattr__(self, "boresight", tuple(bs / np.linalg.norm(bs)))

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
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def n_features(self) -> int:
        return (self.n - VEHICLE_DIM) // 3

    @classmethod
    def initial(
        cls,
        vehicle_variances=DEFAULT_VEHICLE_VARIANCES,
        n_features: int = 0,
        feature_prior: float = FEATURE_PRIOR_DEFAULT,
    ) -> "AugmentedCovariance":
        """Diagonal prior: given vehicle variances, a large prior per feature."""
        variances = _as_finite_array(vehicle_variances, "vehicle_variances", (9,))
        if np.any(variances < 0):
            raise ValueError("vehicle variances must be non-negative")
        if feature_prior < 0:
            raise ValueError("feature_prior must be non-negative")
        features = np.full(3 * int(n_features), float(feature_prior))
        P = np.diag(np.concatenate([variances, features]))
        return cls(P=P, feature_initialized=[False] * int(n_features))

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
    """Array-level prediction: (raw phi P phi^T + q_dt, its re-symmetrization)."""
    P_raw = phi @ P @ phi.T + q_dt
    return P_raw, 0.5 * (P_raw + P_raw.T)


def _joseph(P, H, R):
    """Array-level Joseph-form update; returns (gain, raw P, re-symmetrized P).

    The gain is K = (S^-1 H P)^T with S = H P H^T + R, from one solve; a
    Cholesky factorization of S only checks that it is positive definite.
    """
    HP = H @ P
    S = HP @ H.T + R
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"innovation covariance is singular or indefinite: {exc}"
        ) from exc
    K = np.linalg.solve(S, HP).T
    ikh = np.eye(P.shape[0]) - K @ H
    P_raw = ikh @ P @ ikh.T + K @ R @ K.T
    return K, P_raw, 0.5 * (P_raw + P_raw.T)


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


def _stamped(P, c: int, u_m_value: float):
    """Copy of P with feature c's block set to u_m_value * I3, uncorrelated."""
    P = P.copy()
    block = slice(VEHICLE_DIM + 3 * c, VEHICLE_DIM + 3 * c + 3)
    P[block, :] = 0.0
    P[:, block] = 0.0
    P[block, block] = u_m_value * np.eye(3)
    return P


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
    flags = list(cov.feature_initialized)
    flags[c] = True
    return AugmentedCovariance(P=_stamped(cov.P, c, u_m_value), feature_initialized=flags)


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

    ``rel_pos`` is the feature-relative-to-vehicle vector (or a bare positive
    range, taken along North).  The range error acts along the line of sight,
    the two angular errors act tangentially with lever arm equal to the
    range, so R = J diag(sig_r^2, sig_b^2, sig_e^2) J^T with J the Jacobian
    of the polar-to-Cartesian map at the current geometry.  If any noise
    term is exactly zero the result is rank deficient; it is then floored to
    stay invertible and a warning is emitted.
    """
    rel = np.asarray(rel_pos, dtype=float)
    if rel.ndim == 0:
        rel = np.array([float(rel), 0.0, 0.0])
    rel = _as_finite_array(rel, "rel_pos", (3,))
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
    position.  With an explicit ``schedule``, a feature is measured at every
    vision frame of the segments where it is scheduled; without one the
    field-of-view gate decides detection frame by frame.
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
        if np.any(self.vehicle_variances < 0) or self.feature_prior < 0:
            raise ValueError("vehicle variances and feature_prior must be non-negative")
        if self.schedule is not None:
            missing = set(self.schedule.feature_ids) - set(self.feature_positions)
            if missing:
                raise ValueError(
                    f"schedule references unknown feature(s) {sorted(map(repr, missing))}"
                )

    @property
    def feature_ids(self) -> tuple:
        if self.schedule is not None:
            return self.schedule.feature_ids
        return tuple(self.feature_positions)

    def _prior_variances(self) -> np.ndarray:
        """Prior error variances: the vehicle's, then ``feature_prior`` on every feature axis."""
        return np.r_[self.vehicle_variances, np.full(3 * len(self.feature_ids), self.feature_prior)]


def _running(pick, old, new) -> float:
    """``pick(old, new)`` (``max`` or ``min``) keeping a NaN ``new``; ``pick`` keeps a NaN ``old``."""
    return float(new) if np.isnan(new) else pick(old, float(new))


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
    a bound on the field fails.  ``note_frame`` only records the frame, in one
    buffer; the checks read the frames alone, over stacked blocks of at most
    ``_DIAGNOSTIC_BLOCK_FRAMES`` frames, when a block fills and at ``flush``.
    Blocking changes no result: maxima and minima do not depend on the
    grouping, ``eigvalsh`` of a stack equals the per-matrix calls, and one
    (u, 20, n) draw is the same stream as u draws of (20, n).
    """

    max_relative_asymmetry: float = 0.0
    min_eigenvalue_ratio: float = 0.0
    max_update_variance_growth: float = -np.inf
    n_updates: int = 0
    _frames: list = field(default_factory=list, init=False, repr=False)

    def note_frame(self, frame, rng) -> None:
        """Record a frame (kept by reference, not copied); check a full block."""
        self._frames.append(frame)
        if len(self._frames) >= _DIAGNOSTIC_BLOCK_FRAMES:
            self.flush(rng)

    def flush(self, rng) -> None:
        """Check every recorded frame and clear the block.

        The updates draw their 20 random functionals each from ``rng`` in
        one (u, 20, n) block.
        """
        frames, self._frames = self._frames, []
        raw = [P_raw for frame in frames for P_raw in frame.raw]
        if raw:
            raw = np.stack(raw)
            scale = np.abs(raw).max(axis=(1, 2))
            scale[scale == 0.0] = 1.0
            asym = np.abs(raw - raw.transpose(0, 2, 1)).max(axis=(1, 2)) / scale
            self.max_relative_asymmetry = _running(max, self.max_relative_asymmetry, asym.max())
        if frames:
            posteriors = np.stack([frame.P for frame in frames])
            eigs = np.linalg.eigvalsh(posteriors)
            ratio = eigs[:, 0] / np.maximum(eigs[:, -1], 1e-300)
            # eigvalsh can return finite eigenvalues for a matrix holding a NaN
            ratio[~np.isfinite(posteriors).all(axis=(1, 2))] = np.nan
            self.min_eigenvalue_ratio = _running(min, self.min_eigenvalue_ratio, ratio.min())
        updates = [(frame.P_prior, frame.P) for frame in frames if frame.P_prior is not None]
        if updates:
            priors, posteriors = map(np.stack, zip(*updates))
            w = rng.standard_normal((len(priors), 20, priors.shape[1]))
            before = ((w @ priors) * w).sum(axis=2)
            after = ((w @ posteriors) * w).sum(axis=2)
            growth = ((after - before) / np.maximum(before, 1e-300)).max()
            self.max_update_variance_growth = _running(max, self.max_update_variance_growth, growth)
            self.n_updates += len(priors)


@dataclass(eq=False)
class CovarianceTrace:
    """Standard-deviation time series recorded at the vision frame rate.

    ``std`` holds per-axis standard deviations of the state errors keyed by
    ``model.state_labels``, in state order; ``derived_std`` those of the
    position-minus-feature and feature-minus-feature differences.
    """

    times: np.ndarray
    std: dict
    derived_std: dict
    feature_ids: tuple
    diagnostics: SimulationDiagnostics | None = None

    def labels(self) -> list:
        return list(self.std) + list(self.derived_std)

    def series(self, label: str) -> np.ndarray:
        if label in self.std:
            return self.std[label]
        if label in self.derived_std:
            return self.derived_std[label]
        raise KeyError(label)

    def value_at(self, label: str, t: float) -> float:
        if self.times.size == 0:
            raise ValueError("trace is empty")
        k = int(np.argmin(np.abs(self.times - t)))
        return float(self.series(label)[k])


class _TraceRecorder:
    """Records the variances of ``count`` frames for one ``CovarianceTrace``.

    A frame costs one strided read of the diagonal of its P and one gather of
    the four entries P[a, b], a, b in {plus, minus}, of every standard
    difference e_plus - e_minus; ``trace`` takes standard deviations once.
    """

    def __init__(self, feature_ids, count):
        n = VEHICLE_DIM + 3 * len(feature_ids)
        # the candidates after the n single-state ones are the unit differences
        labels, weights = analysis.standard_weights(feature_ids)
        plus, minus = weights[n:].argmax(axis=1), weights[n:].argmin(axis=1)
        rows, cols = np.stack([plus, minus, plus, minus]), np.stack([plus, plus, minus, minus])
        self._pairs = np.ravel_multi_index((rows, cols), (n, n))
        self._diagonal = slice(None, None, n + 1)  # of the flattened P
        self._ids, self._derived_labels = tuple(feature_ids), labels[n:]
        self.times = np.empty(count)
        self.variances = np.empty((n, count))
        self.derived = np.empty((len(plus), count))

    def record(self, k: int, frame) -> None:
        flat = frame.P.reshape(-1)
        self.times[k] = frame.t
        self.variances[:, k] = flat[self._diagonal]
        pp, mp, pm, mm = flat[self._pairs]
        # (e_a - e_b) P (e_a - e_b), summed in the order w @ P @ w sums it
        self.derived[:, k] = (pp - mp) - (pm - mm)

    def trace(self, diagnostics=None) -> CovarianceTrace:
        # variances to standard deviations, elementwise and in place, once per run
        for variances in (self.variances, self.derived):
            np.sqrt(np.clip(variances, 0.0, None, out=variances), out=variances)
        return CovarianceTrace(
            times=self.times,
            std=dict(zip(model.state_labels(self._ids), self.variances)),
            derived_std=dict(zip(self._derived_labels, self.derived)),
            feature_ids=self._ids,
            diagnostics=diagnostics,
        )


def fov_schedule(
    feature_positions: dict, trajectory: TrajectoryConfig, sensor: SensorConfig
) -> DetectionSchedule:
    """Detection schedule implied by field-of-view gating.

    A feature counts as detected in a segment when it falls inside the
    sensor cone at any vision frame of that segment.
    """
    ids = tuple(feature_positions)
    features = np.array([feature_positions[fid] for fid in ids], dtype=float)
    seen = np.zeros((len(trajectory.segments), len(ids)), dtype=bool)
    count = _frame_clock(sensor, trajectory.total_duration)[0]
    for _, positions, segments, _ in _frame_blocks(trajectory, sensor, count):
        np.logical_or.at(seen, segments, _in_cone(features - positions[:, None, :], sensor))
    return DetectionSchedule(detected=seen.T.copy(), feature_ids=ids)


def _frame_clock(sensor: SensorConfig, duration=0.0):
    """(frames in the first ``duration`` s, frame period dt, IMU steps per frame, IMU step).

    Frame k is at k * dt everywhere (k / frame_rate_hz differs by an ulp on
    some k), and the frames counted are those with k * dt <= duration, with
    the ``_SLACK`` of the segment lookups.
    """
    frame_dt = 1.0 / sensor.frame_rate_hz
    steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
    last = round(duration * sensor.frame_rate_hz)
    if last * frame_dt > duration + _SLACK:  # the nearest frame lies past the end
        last -= 1
    count = last + 1 if duration > 0 else 0
    return count, frame_dt, steps_per_frame, frame_dt / steps_per_frame


def _frame_blocks(trajectory, sensor, count):
    """Yield (times, positions, segments, steps) per block of ``count`` frames.

    A block holds ``GEOMETRY_BLOCK_FRAMES`` frames: their times, the vehicle
    positions and active segments there, and in row i of ``steps`` the
    segments of the IMU steps that propagate the previous frame to frame i
    (unused for frame 0).  Those step times start at the previous frame's
    time and add the step length one at a time, as a running clock would.
    """
    _, frame_dt, steps_per_frame, imu_dt = _frame_clock(sensor)
    for first in range(0, count, GEOMETRY_BLOCK_FRAMES):
        frames = np.arange(first, min(first + GEOMETRY_BLOCK_FRAMES, count))
        times = frames * frame_dt
        positions, segments = trajectory.positions_at(times)
        step_times = np.full((frames.size, steps_per_frame), imu_dt)
        step_times[:, 0] = (frames - 1) * frame_dt
        yield times, positions, segments, trajectory.segments_at(np.cumsum(step_times, axis=1))


def _frame_geometry(scenario: SimScenario, trajectory, sensor, count):
    """Yield (t, position, step segments, visible features, rows, noise) per frame.

    The visible features of a frame are in ascending order (the schedule's
    columns, or the field-of-view gate); ``rows`` and ``noise`` hold their
    3x9 vehicle observation rows (``model.feature_obs_rows``) and 3x3 noise
    blocks (``_noise_blocks``), computed once per ``_frame_blocks`` block.
    """
    features = np.array([scenario.feature_positions[fid] for fid in scenario.feature_ids])
    for times, positions, segments, steps in _frame_blocks(trajectory, sensor, count):
        rel = features - positions[:, None, :]
        if scenario.schedule is None:
            visible = _in_cone(rel, sensor)
        else:
            visible = scenario.schedule.detected[:, segments].T
        frame_of, feature_of = np.nonzero(visible)
        rel = rel[frame_of, feature_of]
        obs = model.feature_obs_rows(rel)
        noise = _noise_blocks(rel, sensor) if len(rel) else np.empty((0, 3, 3))
        bounds = np.searchsorted(frame_of, np.arange(times.size + 1)).tolist()
        feature_of = feature_of.tolist()
        for i, (t, pattern) in enumerate(zip(times.tolist(), map(tuple, steps.tolist()))):
            rows = slice(bounds[i], bounds[i + 1])
            yield t, positions[i], pattern, feature_of[rows], obs[rows], noise[rows]


def _stacked_measurement(features, obs, noise, n):
    """Stacked H (3k x n, ``model.feature_bands``) and block-diagonal R of k visible features."""
    k = len(features)
    R = np.zeros((k, 3, k, 3))
    R[np.arange(k), :, np.arange(k), :] = noise
    return model.feature_bands(features, obs, n).reshape(3 * k, n), R.reshape(3 * k, 3 * k)


class _Frame(NamedTuple):
    """One vision frame of the filter loop.

    ``P`` is the covariance after the frame's update and ``P_prior``, ``H``,
    ``R`` and ``K`` the update's prior, stacked measurement and gain (None when
    no feature is visible); ``steps`` and ``phi`` the IMU-step transitions from
    the previous frame and their product Phi_f (empty and None at frame 0).
    ``raw`` holds the covariances the frame re-symmetrized, as computed: the
    propagated one (from frame 1 on), then the updated one (at an update).
    """

    t: float
    position: np.ndarray
    steps: list
    phi: np.ndarray | None
    P: np.ndarray
    P_prior: np.ndarray | None
    H: np.ndarray | None
    R: np.ndarray | None
    K: np.ndarray | None
    raw: tuple


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
    every IMU step is kept).  Phi_s is built once per trajectory segment, and
    (Phi_f, Q_f) once per distinct tuple of step segments: a frame inside
    one segment, or one of the few frames that straddle a segment boundary.
    Then it applies one stacked Joseph update per vision frame covering every
    currently-detected feature, stamping each feature's prior block at its
    first detection; each frame's time, position, step segments, visible
    features and their rows and noise come from ``_frame_geometry``.  A frame
    yields what it applied (step transitions and Phi_f; H, R and the gain K)
    and the raw covariances it re-symmetrized, and carries no sampled state.
    """
    L = len(scenario.feature_ids)
    n = VEHICLE_DIM + 3 * L
    imu_dt = _frame_clock(sensor)[3]
    q_dt = process_noise_intensity(sensor, n) * imu_dt
    phis = [
        state_transition(model.augmented_f(force, n), imu_dt, "exact")
        for _, force in trajectory.segments
    ]
    transitions = {}  # step segments -> (Phi_f, Q_f)
    P = np.diag(scenario._prior_variances())
    initialized = [False] * L
    steps, phi_f = [], None

    frames = _frame_geometry(scenario, trajectory, sensor, count)
    for frame, (t, pos, pattern, visible, obs, noise) in enumerate(frames):
        raw = ()
        if frame:
            steps = [phis[s] for s in pattern]
            if pattern not in transitions:
                transitions[pattern] = _frame_transition(steps, q_dt)
            phi_f, q_f = transitions[pattern]
            P_raw, P = _propagated(P, phi_f, q_f)
            raw = (P_raw,)
        for c in visible:
            if not initialized[c]:
                P = _stamped(P, c, scenario.feature_prior)
                initialized[c] = True
        P_prior = H = R = K = None
        if visible:
            H, R = _stacked_measurement(visible, obs, noise, n)
            P_prior = P
            K, P_raw, P = _joseph(P, H, R)
            raw += (P_raw,)
        yield _Frame(t, pos, steps, phi_f, P, P_prior, H, R, K, raw)


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
    currently-detected feature, initializing each feature's prior block at
    its first detection.  ``duration`` truncates the run; the trace holds
    floor(duration * frame_rate) + 1 rows.  The run itself is deterministic;
    the seed only drives the random functionals sampled for the optional
    diagnostics.
    """
    count = _frame_count(scenario, trajectory, sensor, duration)
    recorder = _TraceRecorder(scenario.feature_ids, count)
    diag = SimulationDiagnostics() if collect_diagnostics else None
    rng = np.random.default_rng(seed)
    for k, frame in enumerate(_filter_frames(scenario, trajectory, sensor, count)):
        if diag is not None:
            diag.note_frame(frame, rng)
        recorder.record(k, frame)
    if diag is not None:
        diag.flush(rng)
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
    """
    count = _frame_count(scenario, trajectory, sensor, duration)
    n = VEHICLE_DIM + 3 * len(scenario.feature_ids)
    rng = np.random.default_rng(seed)
    x, x_hat = rng.standard_normal(n) * np.sqrt(scenario._prior_variances()), np.zeros(n)
    noise_std = np.sqrt(np.diag(process_noise_intensity(sensor, n)))
    sqrt_dt = np.sqrt(_frame_clock(sensor)[3])
    recorder = _TraceRecorder(scenario.feature_ids, count)
    true, ins, estimated = np.empty((3, count, 3))
    for k, frame in enumerate(_filter_frames(scenario, trajectory, sensor, count)):
        if frame.phi is not None:
            draws = rng.standard_normal((len(frame.steps), n)) * noise_std * sqrt_dt
            for phi, w in zip(frame.steps, draws):
                x = phi @ x + w
            x_hat = frame.phi @ x_hat
        if frame.H is not None:
            z = frame.H @ x + np.linalg.cholesky(frame.R) @ rng.standard_normal(frame.H.shape[0])
            x_hat = x_hat + frame.K @ (z - frame.H @ x_hat)
        recorder.record(k, frame)
        true[k] = frame.position
        ins[k] = frame.position + x[0:3]
        estimated[k] = frame.position + x[0:3] - x_hat[0:3]
    trace = recorder.trace()
    return StateRun(trace.times, true, ins, estimated, trace)
