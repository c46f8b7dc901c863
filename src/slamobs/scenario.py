"""Declarative scenario files.

A scenario file is a single YAML document describing the analysis inputs
(segments with durations, specific forces and feature geometry plus a
detection schedule) and, optionally, the simulation inputs (true feature
positions, trajectory, sensor noise and the initial covariance).  The
schedule may be given explicitly per feature or as the string "auto", in
which case field-of-view gating over the trajectory decides which feature is
detected in which segment.  Relative feature positions omitted from a
segment are derived from the trajectory at the segment start.

Parse and validation problems raise ScenarioError carrying the offending
field's path; that includes a key that no section knows, so a misspelt field
never falls back to its default without a word.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
import yaml

from . import model
from .analysis import AnalysisOptions, CandidateFunctional, _check_extra_label
from .model import DetectionSchedule, Scenario, SegmentSpec, state_blocks
from .pwcs import DEFAULT_RANK_TOL
from .simulation import (
    DEFAULT_VEHICLE_VARIANCES,
    FEATURE_PRIOR_DEFAULT,
    GRAVITY,
    _POSITIVE_SENSOR_FIELDS,
    SensorConfig,
    SimScenario,
    TrajectoryConfig,
    fov_schedule,
)


class ScenarioError(ValueError):
    """A scenario file problem, positioned at a field path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


_SENSOR_FIELDS = tuple(f.name for f in fields(SensorConfig))
_TOP_FIELDS = (
    "name", "gravity", "options", "features", "segments", "schedule", "trajectory", "sensor",
    "initial_covariance", "candidates",
)


@dataclass(eq=False)
class ScenarioDoc:
    """A fully parsed scenario file."""

    name: str
    options: AnalysisOptions
    scenario: Scenario
    schedule_mode: str
    feature_positions: dict
    trajectory: TrajectoryConfig | None
    sensor: SensorConfig | None
    vehicle_variances: np.ndarray
    feature_prior: float

    def sim_scenario(self) -> SimScenario:
        """Simulation-side view; raises at a missing trajectory, sensor or features section."""
        if self.trajectory is None:
            raise ScenarioError("trajectory", "section required for simulation")
        if self.sensor is None:
            raise ScenarioError("sensor", "section required for simulation")
        if not self.feature_positions:
            raise ScenarioError("features", "section required for simulation")
        schedule = None if self.schedule_mode == "auto" else self.scenario.schedule
        return SimScenario(
            feature_positions=dict(self.feature_positions),
            schedule=schedule,
            vehicle_variances=self.vehicle_variances,
            feature_prior=self.feature_prior,
        )


def _require(mapping, key, path):
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _mapping(value, path, known=None):
    """``value`` if it is a mapping whose keys are all in ``known`` (any keys when None).

    The first key outside ``known`` is rejected at its own field path.
    """
    if not isinstance(value, dict):
        raise ScenarioError(path, "must be a mapping")
    if known is not None:
        for key in value:
            if key not in known:
                raise ScenarioError(
                    f"{path}.{key}" if path else str(key),
                    f"unknown field (known: {', '.join(known)})",
                )
    return value


@contextmanager
def _located(path):
    """Re-raise a ValueError of the block as a ScenarioError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _feature_id(key, feature_positions, path):
    """``key`` as a feature id, rejected at ``path.id`` when a features section lacks it."""
    fid = str(key)
    if feature_positions and fid not in feature_positions:
        raise ScenarioError(f"{path}.{fid}", "unknown feature id")
    return fid


def _is_number(value) -> bool:
    """An int or float, and not a bool (YAML reads yes/no/on/off as bools)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _vec3(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(path, "expected a list of 3 numbers")
    if not all(map(_is_number, value)):
        raise ScenarioError(path, "entries must be numbers")
    try:
        arr = np.array([float(v) for v in value])
    except OverflowError:  # an int too large for a double
        raise ScenarioError(path, "entries must be finite") from None
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(path, "entries must be finite")
    return arr


def _number(value, path, minimum=None, strict=False):
    if not _is_number(value):
        raise ScenarioError(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an int too large for a double
        raise ScenarioError(path, "must be finite") from None
    if not math.isfinite(value):
        raise ScenarioError(path, "must be finite")
    if minimum is not None:
        if strict and not value > minimum:
            raise ScenarioError(path, f"must be > {minimum}")
        if not strict and value < minimum:
            raise ScenarioError(path, f"must be >= {minimum}")
    return value


def load_scenario(path) -> ScenarioDoc:
    """Parse a scenario file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(path), f"cannot read file: {exc}") from exc
    return parse_scenario(text, name_hint=str(path))


def parse_scenario(text: str, name_hint: str = "<scenario>") -> ScenarioDoc:
    """Parse a scenario document from YAML text."""
    try:
        raw = yaml.safe_load(text)
    # PyYAML's constructors raise a plain ValueError for a scalar they cannot
    # convert: a date out of range, an int over Python's digit limit, !!float abc
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError(name_hint, f"invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(name_hint, "document must be a mapping")
    return _build_doc(raw)


def _build_doc(raw: dict) -> ScenarioDoc:
    _mapping(raw, "", _TOP_FIELDS)
    name = raw.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "must be a non-empty string")
    gravity = _number(raw.get("gravity", GRAVITY), "gravity", minimum=0.0)

    options_raw = _mapping(raw.get("options", {}), "options", ("expansion", "rank_tol"))
    expansion = options_raw.get("expansion", "exact")
    if expansion not in ("exact", "first_order"):
        raise ScenarioError("options.expansion", "must be 'exact' or 'first_order'")
    rank_tol = _number(
        options_raw.get("rank_tol", DEFAULT_RANK_TOL), "options.rank_tol", minimum=0.0, strict=True
    )

    feature_positions = {
        str(fid): _vec3(pos, f"features.{fid}")
        for fid, pos in _mapping(raw.get("features", {}), "features").items()
    }

    segments_raw = _require(raw, "segments", "")
    if not isinstance(segments_raw, list) or not segments_raw:
        raise ScenarioError("segments", "must be a non-empty list")
    durations, forces, rel_maps = [], [], []
    for i, seg in enumerate(segments_raw):
        seg_path = f"segments[{i}]"
        _mapping(seg, seg_path, ("duration", "specific_force", "rel"))
        durations.append(
            _number(_require(seg, "duration", seg_path), f"{seg_path}.duration", 0.0, True)
        )
        forces.append(_vec3(_require(seg, "specific_force", seg_path), f"{seg_path}.specific_force"))
        rel = {}
        for key, vec in _mapping(seg.get("rel", {}), f"{seg_path}.rel").items():
            fid = _feature_id(key, feature_positions, f"{seg_path}.rel")
            rel[fid] = _vec3(vec, f"{seg_path}.rel.{fid}")
        rel_maps.append(rel)

    trajectory = None
    if "trajectory" in raw:
        traj_raw = _mapping(raw["trajectory"], "trajectory", ("p0", "v0"))
        p0 = _vec3(_require(traj_raw, "p0", "trajectory"), "trajectory.p0")
        v0 = _vec3(_require(traj_raw, "v0", "trajectory"), "trajectory.v0")
        trajectory = TrajectoryConfig(
            p0=p0,
            v0=v0,
            segments=[(d, f) for d, f in zip(durations, forces)],
            gravity=gravity,
        )

    sensor = None
    if "sensor" in raw:
        kwargs = {}
        for key, value in _mapping(raw["sensor"], "sensor", _SENSOR_FIELDS).items():
            if key == "boresight":
                kwargs[key] = tuple(_vec3(value, "sensor.boresight"))
            else:
                kwargs[key] = _number(value, f"sensor.{key}", 0.0, key in _POSITIVE_SENSOR_FIELDS)
        with _located("sensor"):
            sensor = SensorConfig(**kwargs)

    schedule_raw = _require(raw, "schedule", "")
    if schedule_raw == "auto":
        schedule_mode = "auto"
        if not feature_positions:
            raise ScenarioError("schedule", "'auto' requires a features section")
        if trajectory is None:
            raise ScenarioError("schedule", "'auto' requires a trajectory section")
        gate_sensor = sensor if sensor is not None else SensorConfig()
        with _located("schedule"):
            schedule = fov_schedule(feature_positions, trajectory, gate_sensor)
    elif isinstance(schedule_raw, dict):
        schedule_mode = "explicit"
        _mapping(schedule_raw, "schedule", ("detected",))
        detected_raw = _mapping(_require(schedule_raw, "detected", "schedule"), "schedule.detected")
        ids, rows = [], []
        for key, row in detected_raw.items():
            fid = _feature_id(key, feature_positions, "schedule.detected")
            if not isinstance(row, list) or len(row) != len(segments_raw):
                raise ScenarioError(
                    f"schedule.detected.{fid}",
                    f"expected {len(segments_raw)} entries (one per segment)",
                )
            for j, flag in enumerate(row):
                if flag not in (0, 1, True, False):
                    raise ScenarioError(f"schedule.detected.{fid}[{j}]", "entries must be 0 or 1")
            ids.append(fid)
            rows.append([bool(v) for v in row])
        with _located("schedule.detected"):
            schedule = DetectionSchedule(
                detected=np.array(rows, dtype=bool).reshape(len(ids), len(segments_raw)),
                feature_ids=tuple(ids),
            )
    else:
        raise ScenarioError("schedule", "must be 'auto' or a mapping with 'detected'")

    # complete per-segment relative positions, deriving from the trajectory
    # at segment start where omitted
    seg_starts = np.concatenate([[0.0], np.cumsum(durations)])[:-1]
    vehicles = None if trajectory is None else trajectory.positions_at(seg_starts)[0]
    segment_specs = []
    for i in range(len(segments_raw)):
        rel = dict(rel_maps[i])
        for c, fid in schedule.features_in_segment(i):
            if fid in rel:
                continue
            if trajectory is None or fid not in feature_positions:
                raise ScenarioError(
                    f"segments[{i}].rel.{fid}",
                    "missing relative position (no trajectory/features to derive it from)",
                )
            rel[fid] = feature_positions[fid] - vehicles[i]
        with _located(f"segments[{i}]"):
            segment_specs.append(
                SegmentSpec(
                    duration=durations[i],
                    specific_force=forces[i],
                    feature_rel_pos=rel,
                )
            )

    with _located("segments"):
        scenario = Scenario(schedule=schedule, segments=segment_specs)
    for fid in feature_positions:
        if fid not in schedule.feature_ids:
            raise ScenarioError(f"schedule.detected.{fid}", "missing (every feature needs a row)")

    initial_fields = ("vehicle_diag", "interpretation", "feature_prior")
    initial_raw = _mapping(raw.get("initial_covariance", {}), "initial_covariance", initial_fields)
    vehicle_diag = initial_raw.get("vehicle_diag", list(DEFAULT_VEHICLE_VARIANCES))
    if not isinstance(vehicle_diag, list) or len(vehicle_diag) != 9:
        raise ScenarioError("initial_covariance.vehicle_diag", "expected a list of 9 numbers")
    vehicle = np.array(
        [_number(v, f"initial_covariance.vehicle_diag[{k}]", minimum=0.0)
         for k, v in enumerate(vehicle_diag)]
    )
    interpretation = initial_raw.get("interpretation", "variance")
    if interpretation not in ("variance", "stddev"):
        raise ScenarioError(
            "initial_covariance.interpretation", "must be 'variance' or 'stddev'"
        )
    if interpretation == "stddev":
        with np.errstate(over="ignore"):
            vehicle = vehicle**2
        overflow = np.flatnonzero(np.isinf(vehicle))
        if overflow.size:
            raise ScenarioError(
                f"initial_covariance.vehicle_diag[{overflow[0]}]", "must be finite once squared"
            )
    feature_prior = _number(
        initial_raw.get("feature_prior", FEATURE_PRIOR_DEFAULT),
        "initial_covariance.feature_prior",
        minimum=0.0,
    )

    candidates_raw = raw.get("candidates", [])
    if not isinstance(candidates_raw, list):
        raise ScenarioError("candidates", "must be a list")
    extra = []
    ids = schedule.feature_ids
    blocks = state_blocks(ids)
    block_offsets = {block: 3 * k for k, block in enumerate(blocks)}
    standard = model.state_labels(ids) + model.standard_differences(ids)[0] if candidates_raw else []
    earlier = set()
    for k, cand in enumerate(candidates_raw):
        cand_path = f"candidates[{k}]"
        _mapping(cand, cand_path, ("label", "weights"))
        label = _require(cand, "label", cand_path)
        if not isinstance(label, str):
            raise ScenarioError(f"{cand_path}.label", "must be a string")
        with _located(f"{cand_path}.label"):
            _check_extra_label(label, standard, earlier)
        weights_raw = _mapping(_require(cand, "weights", cand_path), f"{cand_path}.weights")
        w = np.zeros(3 * len(blocks))
        for block, vec in weights_raw.items():
            if block not in block_offsets:
                raise ScenarioError(
                    f"{cand_path}.weights.{block}",
                    f"unknown state block (known: {sorted(block_offsets)})",
                )
            offset = block_offsets[block]
            w[offset : offset + 3] = _vec3(vec, f"{cand_path}.weights.{block}")
        if not w.any():
            raise ScenarioError(f"{cand_path}.weights", "must be nonzero")
        extra.append(CandidateFunctional(label=label, weights=w))

    options = AnalysisOptions(
        expansion_mode=expansion, rank_tol=rank_tol, extra_candidates=tuple(extra)
    )

    return ScenarioDoc(
        name=name,
        options=options,
        scenario=scenario,
        schedule_mode=schedule_mode,
        feature_positions=feature_positions,
        trajectory=trajectory,
        sensor=sensor,
        vehicle_variances=vehicle,
        feature_prior=feature_prior,
    )
