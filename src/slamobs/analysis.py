"""Observability reports for inertial SLAM scenarios.

Builds the local (single-segment) or total (all-segment) observability
matrix of a scenario, computes its numerical rank and unobservable subspace,
and classifies a family of candidate linear functionals as observable or
not.  Candidates are classified by row-space membership: a functional is
observable exactly when its projection onto the unobservable subspace is
negligible.  A report projects all of its candidates in one matrix product,
as the rows of a weight matrix.

Modes are reported per axis.  A 3-vector quantity such as the velocity error
counts as an observable mode only when all three of its axes are observable;
this keeps partial-axis effects visible (under a purely vertical specific
force, for example, the horizontal attitude errors are observable while the
vertical one is not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import AXES, DetectionSchedule, Scenario, SegmentSpec, augment
from .pwcs import DEFAULT_RANK_TOL, NullSpaceBasis, _as_finite_array, null_space, tom
from .pwcs import lom  # noqa: F401  (perfbench/tracer.py wraps this name)

#: Highest dynamics power stacked per segment: F**3 == 0, so higher powers add
#: only zero rows (``matrix_rows``, pinned by the goldens, follows from it).
MAX_POWER = 2

#: Detection patterns of the four two-feature / two-segment benchmark cases,
#: as rows (feature) by columns (segment).
CASE_SCHEDULES = {
    1: ((1, 0), (0, 1)),
    2: ((1, 1), (0, 1)),
    3: ((1, 0), (1, 1)),
    4: ((1, 1), (1, 1)),
}

DEFAULT_FEATURE_POSITIONS = ((10.0, 0.0, 0.0), (20.0, 100.0, 0.0))
DEFAULT_VEHICLE_POSITION = (0.0, 0.0, 100.0)
DEFAULT_FORCES = ((0.0, 0.0, 9.81), (0.0, 0.1, 9.81))
DEFAULT_SEGMENT_DURATION = 50.0


@dataclass(eq=False)
class CandidateFunctional:
    """A labelled linear functional w.T @ x of the augmented error state."""

    label: str
    weights: np.ndarray

    def __post_init__(self):
        self.weights = _as_finite_array(self.weights, "weights")
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not self.weights.any():
            raise ValueError("weights must be nonzero")


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for report construction.

    expansion_mode selects how segment transitions are expanded when stacking
    the total observability matrix ("exact" or "first_order"); rank_tol is
    the relative singular-value threshold; extra_candidates additional
    functionals (weights over the full augmented state) classified alongside
    the standard set.  A report classifies only the extra candidates sized
    for its own system, so a local report skips full-state extras unless its
    segment sees every feature.
    """

    expansion_mode: str = "exact"
    rank_tol: float = DEFAULT_RANK_TOL
    extra_candidates: tuple = ()

    def __post_init__(self):
        if self.expansion_mode not in ("exact", "first_order"):
            raise ValueError(
                "expansion_mode must be 'exact' or 'first_order', "
                f"got {self.expansion_mode!r}"
            )
        if not self.rank_tol > 0:
            raise ValueError("rank_tol must be positive")


@dataclass(eq=False)
class FunctionalVerdict:
    """Observability verdict for one candidate functional.

    null_projection is the norm of the candidate's projection onto the
    unobservable subspace, relative to the candidate's norm (0 means fully
    determined by measurements, 1 means fully unobservable).
    """

    label: str
    observable: bool
    null_projection: float


@dataclass(eq=False)
class ObservabilityReport:
    """Rank, unobservable subspace and per-functional verdicts."""

    scope: str
    segment_index: int | None
    expansion_mode: str
    rank_tol: float
    state_labels: list
    matrix_rows: int
    matrix_cols: int
    rank: int
    nullity: int
    null_basis: NullSpaceBasis
    mode_results: list

    def verdict(self, label: str) -> FunctionalVerdict:
        for v in self.mode_results:
            if v.label == label:
                return v
        raise KeyError(label)

    def observable_modes(self) -> list:
        """Base labels whose three axis functionals are all observable."""
        by_base: dict = {}
        order = []
        for v in self.mode_results:
            base, _, axis = v.label.rpartition("_")
            if axis not in AXES or not base:
                base = v.label
            if base not in by_base:
                by_base[base] = []
                order.append(base)
            by_base[base].append(v.observable)
        return [base for base in order if all(by_base[base])]


def standard_weights(features):
    """Labels and (count, n) weight matrix of the standard candidate functionals.

    ``features`` is either a feature count or a sequence of feature ids.
    Rows are one functional per axis for the vehicle position, velocity and
    attitude errors, each feature error, each position-minus-feature
    difference, and each pairwise feature difference, in that order; every
    row is a unit vector or a difference of two.
    """
    if isinstance(features, (int, np.integer)):
        ids = [str(c + 1) for c in range(int(features))]
    else:
        ids = list(features)
    L = len(ids)
    n = model.VEHICLE_DIM + 3 * L
    first, second = np.triu_indices(L, 1)
    position = model.VEHICLE_BLOCKS[0]
    blocks = model.state_blocks(ids)[len(model.VEHICLE_BLOCKS) :]
    labels = model.state_labels(ids)
    labels += [f"{position}-{block}_{axis}" for block in blocks for axis in AXES]
    labels += [
        f"{blocks[c]}-{blocks[d]}_{axis}"
        for c, d in zip(first.tolist(), second.tolist())
        for axis in AXES
    ]
    # the differences: e_plus - e_minus, axis by axis
    feature = model.VEHICLE_DIM + 3 * np.arange(L)[:, None] + np.arange(3)
    plus = np.concatenate([np.tile(np.arange(3), L), feature[first].ravel()])
    minus = np.concatenate([feature.ravel(), feature[second].ravel()])
    weights = np.zeros((len(labels), n))
    weights[:n] = np.eye(n)
    rows = np.arange(n, len(labels))
    weights[rows, plus] = 1.0
    weights[rows, minus] = -1.0
    return labels, weights


def standard_candidates(features) -> list:
    """The standard candidate functionals of ``standard_weights`` as objects."""
    labels, weights = standard_weights(features)
    return [CandidateFunctional(label, w) for label, w in zip(labels, weights)]


def _build_report(system, scope, segment_index, options):
    matrix = tom(system.stripes, MAX_POWER, options.expansion_mode)
    basis = null_space(matrix, options.rank_tol)
    n = system.n
    labels, weights = standard_weights(system.feature_ids)
    extra = [cand for cand in options.extra_candidates if cand.weights.shape[0] == n]
    if extra:
        labels += [cand.label for cand in extra]
        weights = np.vstack([weights] + [cand.weights for cand in extra])
    # every candidate's projection onto the kernel, as rows (W N) N^T
    N = basis.vectors
    projections = (weights @ N) @ N.T
    relative = np.linalg.norm(projections, axis=1) / np.linalg.norm(weights, axis=1)
    results = [
        FunctionalVerdict(label=label, observable=rel <= options.rank_tol, null_projection=rel)
        for label, rel in zip(labels, relative.tolist())
    ]
    return ObservabilityReport(
        scope=scope,
        segment_index=segment_index,
        expansion_mode=options.expansion_mode,
        rank_tol=options.rank_tol,
        state_labels=system.state_labels,
        matrix_rows=matrix.shape[0],
        matrix_cols=n,
        rank=n - basis.dim,
        nullity=basis.dim,
        null_basis=basis,
        mode_results=results,
    )


def analyze_local(
    scenario: Scenario, segment_index: int, options: AnalysisOptions = None
) -> ObservabilityReport:
    """Observability report for a single segment considered on its own.

    The local system is ``augment`` of the one segment with every feature it
    detects, and no other: the vehicle states plus those features, so its
    dimension is 9 + 3 * (detections in the segment).  Its total
    observability matrix is the segment's local one.
    """
    options = options or AnalysisOptions()
    if not 0 <= segment_index < scenario.n_segments:
        raise IndexError(
            f"segment index {segment_index} out of range "
            f"(scenario has {scenario.n_segments} segments)"
        )
    local_ids = [fid for _, fid in scenario.schedule.features_in_segment(segment_index)]
    detected = np.ones((len(local_ids), 1), dtype=bool)
    system = augment(DetectionSchedule(detected, local_ids), [scenario.segments[segment_index]])
    return _build_report(system, "local", segment_index, options)


def analyze_total(
    scenario: Scenario, options: AnalysisOptions = None
) -> ObservabilityReport:
    """Observability report for the whole scenario.

    Builds the fixed-dimension augmented system over all features detected
    anywhere, stacks the total observability matrix with the configured
    transition expansion, and classifies the standard candidate functionals.
    """
    options = options or AnalysisOptions()
    system = augment(scenario.schedule, scenario.segments)
    return _build_report(system, "total", None, options)


def case_scenario(
    case_id: int,
    feature_positions=DEFAULT_FEATURE_POSITIONS,
    vehicle_position=DEFAULT_VEHICLE_POSITION,
    forces=DEFAULT_FORCES,
    delta: float = DEFAULT_SEGMENT_DURATION,
) -> Scenario:
    """Two-feature / two-segment scenario for one of the benchmark cases.

    All segments share the same vehicle vantage point, so each feature keeps
    one relative position throughout; the per-segment specific forces default
    to a vertical force followed by a slightly tilted one.
    """
    if case_id not in CASE_SCHEDULES:
        raise ValueError(f"case_id must be one of {sorted(CASE_SCHEDULES)}, got {case_id}")
    positions = [_as_finite_array(p, "feature_positions", (3,)) for p in feature_positions]
    if len(positions) != 2:
        raise ValueError("exactly two feature positions are required")
    vantage = _as_finite_array(vehicle_position, "vehicle_position", (3,))
    force_list = [_as_finite_array(f, "forces", (3,)) for f in forces]
    if len(force_list) != 2:
        raise ValueError("exactly two segment forces are required")
    ids = ("f1", "f2")
    rel = {fid: pos - vantage for fid, pos in zip(ids, positions)}
    pattern = np.array(CASE_SCHEDULES[case_id], dtype=bool)
    schedule = DetectionSchedule(detected=pattern, feature_ids=ids)
    segments = []
    for i, f in enumerate(force_list):
        segments.append(
            SegmentSpec(
                duration=delta,
                specific_force=f,
                feature_rel_pos={
                    fid: rel[fid] for _, fid in schedule.features_in_segment(i)
                },
            )
        )
    return Scenario(schedule=schedule, segments=segments)


def analyze_case(
    case_id: int,
    feature_positions=DEFAULT_FEATURE_POSITIONS,
    vehicle_position=DEFAULT_VEHICLE_POSITION,
    forces=DEFAULT_FORCES,
    delta: float = DEFAULT_SEGMENT_DURATION,
    options: AnalysisOptions = None,
) -> ObservabilityReport:
    """Total-observability report for one benchmark detection pattern."""
    scenario = case_scenario(case_id, feature_positions, vehicle_position, forces, delta)
    return analyze_total(scenario, options)
