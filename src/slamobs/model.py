"""Inertial SLAM error-state model construction.

The estimated error state is ordered (dp, dv, psi, dm_1, ..., dm_L): vehicle
position, velocity and attitude errors followed by one 3-vector position
error per mapped feature, all expressed in the local-level navigation frame
with axes North / East / Up.

Because the set of detected features changes from segment to segment, the
per-segment systems are embedded into one fixed-dimension system of size
n = 9 + 3L covering every feature detected anywhere in the scenario: feature
states have zero dynamics (features are static) and a feature's observation
rows are zeroed in segments where it is not detected.  Appending unmeasured,
dynamics-free states in this way never changes the rank attributable to the
original states, which is what makes the fixed-dimension embedding sound;
``equivalence_pad`` exposes exactly that padding for testing.

The analysis and the covariance filter both take that layout from here:
block names, F (``augmented_f``), the rows [-I, 0, skew(r)] of m relative
positions (``feature_obs_rows``) and their bands in H (``feature_bands``):
every H of ``augment`` and of the filter's update frames is built from them.
So do the relative modes, the position-minus-feature and feature-minus-feature
differences e_plus - e_minus (``standard_differences``): the analysis
classifies them and the filter records their standard deviations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pwcs import PwcsStripe, _as_finite_array

AXES = ("N", "E", "U")
VEHICLE_BLOCKS = ("dp", "dv", "psi")
VEHICLE_DIM = 9

#: Gravity along Up (m/s^2) when a scenario gives none.
GRAVITY = 9.81
#: Prior variance of each feature axis (m^2) when a scenario gives none.
FEATURE_PRIOR_DEFAULT = 1.0e9
#: Default initial vehicle error variances: 1 m^2 / (m/s)^2 on position and
#: velocity, 0.0873 rad^2 on attitude, read literally as variances.
DEFAULT_VEHICLE_VARIANCES = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0873, 0.0873, 0.0873)


def _put_skews(out, v) -> None:
    """Write ``skew(v[i])`` into ``out[i]``: (m, 3) ``v``, zeroed (m, 3, 3) view ``out``.

    Each off-diagonal entry is a component of v or its negation, as ``skew``
    gives it; the diagonal keeps its zeros.  ``v`` is not validated.
    """
    x, y, z = v.T
    out[:, 0, 1], out[:, 0, 2] = -z, y
    out[:, 1, 0], out[:, 1, 2] = z, -x
    out[:, 2, 0], out[:, 2, 1] = -y, x


def ins_error_f(specific_force) -> np.ndarray:
    """9x9 inertial error dynamics for a given specific force (m/s^2, nav frame).

    Position error integrates velocity error; velocity error couples to
    attitude error through the cross-product matrix of the specific force;
    attitude error is constant.  The result is strictly block upper
    triangular, hence nilpotent with F**3 == 0.
    """
    return augmented_f(specific_force, VEHICLE_DIM)


def augmented_f(specific_force, n) -> np.ndarray:
    """n x n dynamics: ``ins_error_f`` top-left, zero rows for the static features."""
    f = _as_finite_array(specific_force, "specific_force", (3,))
    F = np.zeros((n, n))
    F[0:3, 3:6] = np.eye(3)
    _put_skews(F[None, 3:6, 6:9], f[None])
    return F


def feature_obs_rows(rel) -> np.ndarray:
    """(m, 3, 9) rows [-I, 0, skew(rel[i])] on (dp, dv, psi) for (m, 3) relative positions.

    ``rel`` (feature minus vehicle, nav frame) is not validated.
    """
    H = np.zeros((len(rel), 3, VEHICLE_DIM))
    H[:, :, 0:3] = -np.eye(3)
    _put_skews(H[:, :, 6:9], rel)
    return H


def feature_obs_row(rel_pos) -> np.ndarray:
    """3x9 rows of one relative-position measurement: ``feature_obs_rows``, validated."""
    r = _as_finite_array(rel_pos, "rel_pos", (3,))
    return feature_obs_rows(r[None, :])[0]


def feature_bands(features, obs, n) -> np.ndarray:
    """(k, 3, n) bands of H: vehicle rows ``obs[i]`` plus I3 on feature ``features[i]``'s block."""
    k = len(features)
    H = np.zeros((k, 3, n))
    H[:, :, 0:VEHICLE_DIM] = obs
    axes = np.arange(3)
    cols = VEHICLE_DIM + 3 * np.asarray(features, dtype=np.intp)[:, None] + axes
    H[np.arange(k)[:, None], axes, cols] = 1.0
    return H


@dataclass(eq=False)
class DetectionSchedule:
    """Which feature is detected in which segment.

    ``detected[c, i]`` is True when feature c is measured during segment i.
    Feature order is fixed by ``feature_ids`` and determines the column-block
    layout of the augmented state.  Every feature must be detected in at
    least one segment.
    """

    detected: np.ndarray
    feature_ids: tuple = None

    def __post_init__(self):
        self.detected = np.asarray(self.detected, dtype=bool)
        if self.detected.ndim != 2:
            raise ValueError("detected must be a 2-d boolean array (features x segments)")
        if self.detected.shape[1] < 1:
            raise ValueError("schedule must cover at least one segment")
        if self.feature_ids is None:
            self.feature_ids = tuple(str(c + 1) for c in range(self.detected.shape[0]))
        else:
            self.feature_ids = tuple(self.feature_ids)
        if len(self.feature_ids) != self.detected.shape[0]:
            raise ValueError(
                f"{len(self.feature_ids)} feature ids for "
                f"{self.detected.shape[0]} schedule rows"
            )
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise ValueError("feature ids must be unique")
        for c, fid in enumerate(self.feature_ids):
            if not self.detected[c].any():
                raise ValueError(f"feature {fid!r} is never detected")

    @property
    def n_features(self) -> int:
        return self.detected.shape[0]

    @property
    def n_segments(self) -> int:
        return self.detected.shape[1]

    def features_in_segment(self, segment_index: int):
        """(index, id) pairs of the features detected in one segment."""
        return [
            (c, fid)
            for c, fid in enumerate(self.feature_ids)
            if self.detected[c, segment_index]
        ]


@dataclass(eq=False)
class SegmentSpec:
    """One segment's inputs: duration, specific force and feature geometry.

    ``feature_rel_pos`` maps feature id to the feature-relative-to-vehicle
    position (m, nav frame) used as that segment's constant linearization
    point, and must cover exactly the features detected in the segment.
    """

    duration: float
    specific_force: np.ndarray
    feature_rel_pos: dict = field(default_factory=dict)

    def __post_init__(self):
        self.duration = float(self.duration)
        if not 0 < self.duration < np.inf:
            raise ValueError("duration must be positive and finite")
        self.specific_force = _as_finite_array(
            self.specific_force, "specific_force", (3,)
        )
        self.feature_rel_pos = {
            fid: _as_finite_array(rel, f"feature_rel_pos[{fid!r}]", (3,))
            for fid, rel in self.feature_rel_pos.items()
        }


@dataclass(eq=False)
class Scenario:
    """A detection schedule plus per-segment specs, validated for consistency.

    Raises ValueError naming the offending segment/feature when the segment
    count or a segment's relative positions disagree with the schedule.
    """

    schedule: DetectionSchedule
    segments: list

    def __post_init__(self):
        self.segments = list(self.segments)
        schedule = self.schedule
        if len(self.segments) != schedule.n_segments:
            raise ValueError(
                f"schedule covers {schedule.n_segments} segments but "
                f"{len(self.segments)} segment specs were given"
            )
        for i, seg in enumerate(self.segments):
            scheduled = {fid for _, fid in schedule.features_in_segment(i)}
            supplied = set(seg.feature_rel_pos)
            missing = scheduled - supplied
            if missing:
                raise ValueError(
                    f"segment {i}: no relative position for scheduled "
                    f"feature(s) {sorted(missing, key=repr)}"
                )
            extra = supplied - scheduled
            if extra:
                raise ValueError(
                    f"segment {i}: relative position supplied for unscheduled "
                    f"feature(s) {sorted(extra, key=repr)}"
                )

    @property
    def n_segments(self) -> int:
        return self.schedule.n_segments

    @property
    def feature_ids(self) -> tuple:
        return self.schedule.feature_ids


def state_blocks(feature_ids=()) -> list:
    """Names of the 3-state blocks of the augmented state, in state order."""
    return list(VEHICLE_BLOCKS) + [f"dm_{fid}" for fid in feature_ids]


def state_labels(feature_ids=()) -> list:
    """Per-axis names of the augmented state, in state order."""
    return [f"{block}_{axis}" for block in state_blocks(feature_ids) for axis in AXES]


@functools.lru_cache(maxsize=32)
def _difference_layout(n_features):
    """(pairs (c, d), plus, minus) of ``standard_differences`` for ``n_features`` features.

    The layout depends on the feature count alone, so it is built once per
    count; ``plus`` and ``minus`` are read-only, so no caller can change it.
    """
    first, second = np.triu_indices(n_features, 1)
    feature = VEHICLE_DIM + 3 * np.arange(n_features)[:, None] + np.arange(3)
    plus = np.concatenate([np.tile(np.arange(3), n_features), feature[first].ravel()])
    minus = np.concatenate([feature.ravel(), feature[second].ravel()])
    plus.flags.writeable = minus.flags.writeable = False
    return tuple(zip(first.tolist(), second.tolist())), plus, minus


def standard_differences(feature_ids):
    """Labels and state indices (plus, minus) of the standard differences e_plus - e_minus.

    One difference per axis of the vehicle position minus each feature, then
    of feature c minus feature d for each pair c < d, in that order.  The
    index arrays are shared between calls with the same feature count and
    are read-only.
    """
    ids = list(feature_ids)
    pairs, plus, minus = _difference_layout(len(ids))
    position = VEHICLE_BLOCKS[0]
    blocks = state_blocks(ids)[len(VEHICLE_BLOCKS) :]
    labels = [f"{position}-{block}_{axis}" for block in blocks for axis in AXES]
    labels += [f"{blocks[c]}-{blocks[d]}_{axis}" for c, d in pairs for axis in AXES]
    return labels, plus, minus


def augment(scenario: Scenario) -> list:
    """One ``PwcsStripe`` per segment, embedding all into one system of size 9 + 3L.

    Each stripe's F carries the inertial block in the top-left corner and
    zero rows for the (static) feature states.  Each stripe's H has one
    3-row band per feature: the vehicle-block observation rows plus an
    identity in the feature's own column block when the feature is detected,
    all zeros otherwise.  Zero bands are retained so row indexing stays
    aligned with the schedule; they do not affect rank.

    All segments are built in one pass: one ``feature_obs_rows`` and one
    ``feature_bands`` call over every (segment, feature) detection, and one
    (S, n, n) array of F with the entries of ``augmented_f``, so each
    stripe's F and H have the bits a segment-by-segment build gives.
    ``Scenario`` has already checked that schedule and segments agree; the
    forces are checked again (an error names ``specific_force``) and each
    stripe goes through ``PwcsStripe``'s checks.
    """
    schedule = scenario.schedule
    segments = scenario.segments
    S, L = schedule.n_segments, schedule.n_features
    n = VEHICLE_DIM + 3 * L
    forces = _as_finite_array([seg.specific_force for seg in segments], "specific_force", (S, 3))
    F = np.zeros((S, n, n))
    F[:, (0, 1, 2), (3, 4, 5)] = 1.0
    _put_skews(F[:, 3:6, 6:9], forces)
    # detections in segment order, features in schedule order within each
    seg_of, feature_of = np.nonzero(schedule.detected.T)
    ids = schedule.feature_ids
    pairs = zip(seg_of.tolist(), feature_of.tolist())
    rel = np.array([segments[i].feature_rel_pos[ids[c]] for i, c in pairs]).reshape(-1, 3)
    H = np.zeros((S, L, 3, n))
    H[seg_of, feature_of] = feature_bands(feature_of, feature_obs_rows(rel), n)
    return [
        PwcsStripe(F[i], H[i].reshape(3 * L, n), seg.duration)
        for i, seg in enumerate(segments)
    ]


def equivalence_pad(stripe: PwcsStripe, extra_states: int) -> PwcsStripe:
    """Append unmeasured, dynamics-free states to a stripe.

    The padded system is equivalent to the original: the extra states are
    never observed and never move, so padding changes neither the
    observability of the original states nor the rank of any local or total
    observability matrix built from the stripe.
    """
    if not 0 <= extra_states < np.inf or int(extra_states) != extra_states:
        raise ValueError("extra_states must be a non-negative integer")
    extra = int(extra_states)
    n = stripe.n
    F = np.zeros((n + extra, n + extra))
    F[:n, :n] = stripe.F
    H = np.zeros((stripe.H.shape[0], n + extra))
    H[:, :n] = stripe.H
    return PwcsStripe(F=F, H=H, delta=stripe.delta)
