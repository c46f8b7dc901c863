"""Observability reports for inertial SLAM scenarios.

Builds the local (single-segment) or total (all-segment) observability
matrix of a scenario, computes its numerical rank and unobservable subspace,
and classifies a family of candidate linear functionals as observable or
not.  Candidates are classified by row-space membership: a functional is
observable exactly when its projection onto the unobservable subspace is
negligible.  A report reads each standard candidate off the null basis N:
e_i projects to ``‖N[i]‖`` and a difference e_plus - e_minus to
``‖N[plus] - N[minus]‖ / √2``; only extra candidates take a matrix product.
A report is asked for with ``analyze_total`` or ``analyze_local`` of a
``Scenario``; ``case_scenario`` builds the four benchmark patterns.

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
from .pwcs import DEFAULT_RANK_TOL, PwcsStripe, _as_finite_array
from .pwcs import null_projections, null_space, tom
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
    the standard set.  ``analyze_total`` raises ValueError for an extra not
    sized for the full state; a local report skips any extra not sized for
    its own system, so all of them unless its segment sees every feature.
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
        if not 0 < self.rank_tol < np.inf:
            raise ValueError("rank_tol must be positive and finite")


@dataclass(eq=False, slots=True)
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
    """Rank, unobservable subspace and per-functional verdicts.

    ``mode_results`` holds one ``FunctionalVerdict`` per classified
    candidate, in order; ``verdict(label)`` returns the entry itself, so a
    change to it shows in every later read.
    """

    scope: str
    segment_index: int | None
    expansion_mode: str
    rank_tol: float
    state_labels: list
    matrix_rows: int
    matrix_cols: int
    rank: int
    nullity: int
    null_basis: np.ndarray
    mode_results: list

    def verdict(self, label: str) -> FunctionalVerdict:
        for v in self.mode_results:
            if v.label == label:
                return v
        raise KeyError(label)

    def observable_modes(self) -> list:
        """Base labels whose three axis functionals are all observable."""
        by_base: dict = {}
        for v in self.mode_results:
            by_base.setdefault(_mode_base(v.label), []).append(v.observable)
        return [base for base, flags in by_base.items() if all(flags)]


def _mode_base(label: str) -> str:
    """The mode ``observable_modes`` counts ``label`` toward: the label less its axis suffix."""
    base, _, axis = label.rpartition("_")
    return base if axis in AXES and base else label


def _check_extra_label(label: str, standard_labels, earlier_labels: set) -> None:
    """Raise ValueError if ``label`` is in ``earlier_labels`` or falls in a standard mode.

    A label that passes joins ``earlier_labels``.  Standard labels come in
    axis triples, so a mode is standard when its first-axis label is.
    """
    base = _mode_base(label)
    if f"{base}_{AXES[0]}" in standard_labels:
        raise ValueError(f"candidate label {label!r} falls in the standard mode {base!r}")
    if label in earlier_labels:
        raise ValueError(f"candidate label {label!r} is repeated")
    earlier_labels.add(label)


def standard_candidates(feature_ids) -> list:
    """The standard candidate functionals of the augmented state of ``feature_ids``.

    One unit functional per state axis (``model.state_labels``), then the
    position-minus-feature and feature-minus-feature differences
    e_plus - e_minus of ``model.standard_differences``, in that order.
    """
    labels = model.state_labels(feature_ids)
    differences, plus, minus = model.standard_differences(feature_ids)
    eye = np.eye(len(labels))
    weights = np.vstack([eye, eye[plus] - eye[minus]])
    return [CandidateFunctional(label, w) for label, w in zip(labels + differences, weights)]


_OVERFLOW = (
    "the observability matrix overflows: the segment durations and specific forces "
    "are too large"
)


def _build_report(stripes, feature_ids, scope, segment_index, options):
    # durations and forces large enough to overflow the stacked transitions
    # make an input error, raised once null_space finds the matrix not finite
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = tom(stripes, MAX_POWER, options.expansion_mode)
    try:
        basis = null_space(matrix, options.rank_tol)
    except ValueError:
        raise ValueError(_OVERFLOW) from None
    n, nullity = basis.shape
    differences, plus, minus = model.standard_differences(feature_ids)
    labels = model.state_labels(feature_ids) + differences
    extra = [cand for cand in options.extra_candidates if cand.weights.shape[0] == n]
    earlier = set()
    for cand in extra:
        _check_extra_label(cand.label, labels, earlier)
    standard = np.linalg.norm(np.concatenate([basis, basis[plus] - basis[minus]]), axis=1)
    standard[n:] /= np.sqrt(2.0)
    projections = np.concatenate([
        standard,
        null_projections(basis, np.reshape([cand.weights for cand in extra], (-1, n))),
    ])
    observable = (projections <= options.rank_tol).tolist()
    labels += [cand.label for cand in extra]
    results = list(map(FunctionalVerdict, labels, observable, projections.tolist()))
    return ObservabilityReport(
        scope=scope,
        segment_index=segment_index,
        expansion_mode=options.expansion_mode,
        rank_tol=options.rank_tol,
        state_labels=labels[:n],
        matrix_rows=matrix.shape[0],
        matrix_cols=n,
        rank=n - nullity,
        nullity=nullity,
        null_basis=basis,
        mode_results=results,
    )


def analyze_local(
    scenario: Scenario, segment_index: int, options: AnalysisOptions = None
) -> ObservabilityReport:
    """Observability report for a single segment considered on its own.

    The local system holds the vehicle states plus the features the segment
    detects, and no other, so its dimension is 9 + 3 * (detections in the
    segment).  Its one stripe is built straight from the already checked
    segment with ``augmented_f`` and ``feature_bands``, bit for bit the
    stripe ``augment`` gives for the one-segment scenario of those features.
    Its total observability matrix is the segment's local one.
    A ``segment_index`` that is not an integer (a bool is not) raises
    ``TypeError``; one out of range raises ``IndexError``.
    """
    options = options or AnalysisOptions()
    if isinstance(segment_index, bool) or not isinstance(segment_index, (int, np.integer)):
        raise TypeError(
            f"segment_index must be an integer, got {type(segment_index).__name__}"
        )
    if not 0 <= segment_index < scenario.n_segments:
        raise IndexError(
            f"segment index {segment_index} out of range "
            f"(scenario has {scenario.n_segments} segments)"
        )
    segment = scenario.segments[segment_index]
    local_ids = [fid for _, fid in scenario.schedule.features_in_segment(segment_index)]
    n = model.VEHICLE_DIM + 3 * len(local_ids)
    rel = np.array([segment.feature_rel_pos[fid] for fid in local_ids]).reshape(-1, 3)
    H = model.feature_bands(range(len(local_ids)), model.feature_obs_rows(rel), n)
    stripe = PwcsStripe(
        model.augmented_f(segment.specific_force, n), H.reshape(-1, n), segment.duration
    )
    return _build_report([stripe], local_ids, "local", segment_index, options)


def analyze_total(
    scenario: Scenario, options: AnalysisOptions = None
) -> ObservabilityReport:
    """Observability report for the whole scenario.

    Builds the fixed-dimension augmented system over all features detected
    anywhere, stacks the total observability matrix with the configured
    transition expansion, and classifies the standard candidate functionals.
    """
    options = options or AnalysisOptions()
    n = 3 * len(model.state_blocks(scenario.feature_ids))
    for cand in options.extra_candidates:
        if cand.weights.size != n:
            raise ValueError(f"candidate {cand.label!r} has {cand.weights.size} weights, not {n}")
    return _build_report(augment(scenario), scenario.feature_ids, "total", None, options)


def case_scenario(
    case_id: int, forces=DEFAULT_FORCES, delta: float = DEFAULT_SEGMENT_DURATION
) -> Scenario:
    """Two-feature / two-segment scenario for one of the benchmark cases.

    Every segment sees ``DEFAULT_FEATURE_POSITIONS`` from the vantage point
    ``DEFAULT_VEHICLE_POSITION``, so each feature keeps one relative position;
    the specific forces default to a vertical then a slightly tilted one.
    """
    if case_id not in CASE_SCHEDULES:
        raise ValueError(f"case_id must be one of {sorted(CASE_SCHEDULES)}, got {case_id}")
    force_list = [_as_finite_array(f, "forces", (3,)) for f in forces]
    if len(force_list) != 2:
        raise ValueError("exactly two segment forces are required")
    ids = ("f1", "f2")
    rel = dict(zip(ids, np.subtract(DEFAULT_FEATURE_POSITIONS, DEFAULT_VEHICLE_POSITION)))
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
