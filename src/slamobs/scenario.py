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
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .analysis import AnalysisOptions, CandidateFunctional
from .model import DetectionSchedule, Scenario, SegmentSpec, state_blocks
from .pwcs import DEFAULT_RANK_TOL
from .simulation import (
    DEFAULT_VEHICLE_VARIANCES,
    FEATURE_PRIOR_DEFAULT,
    GRAVITY,
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
    gravity: float

    def sim_scenario(self) -> SimScenario:
        """Simulation-side view; requires feature positions."""
        if not self.feature_positions:
            raise ScenarioError("features", "required for simulation")
        schedule = None if self.schedule_mode == "auto" else self.scenario.schedule
        return SimScenario(
            feature_positions=dict(self.feature_positions),
            schedule=schedule,
            vehicle_variances=self.vehicle_variances,
            feature_prior=self.feature_prior,
        )

    def require_simulation_sections(self) -> None:
        if self.trajectory is None:
            raise ScenarioError("trajectory", "section required for simulation")
        if self.sensor is None:
            raise ScenarioError("sensor", "section required for simulation")
        if not self.feature_positions:
            raise ScenarioError("features", "section required for simulation")

    def to_dict(self) -> dict:
        """Canonical dictionary form; re-parsing it reproduces this document.

        It is rebuilt from the parsed objects, so it also writes the relative
        positions the parser derived from the trajectory and the initial
        covariance (as variances), defaults included.
        """
        doc: dict = {"name": self.name, "gravity": self.gravity}
        doc["options"] = {
            "expansion": self.options.expansion_mode,
            "rank_tol": self.options.rank_tol,
        }
        if self.feature_positions:
            doc["features"] = {fid: _floats(pos) for fid, pos in self.feature_positions.items()}
        schedule = self.scenario.schedule
        if self.schedule_mode == "auto":
            doc["schedule"] = "auto"
        else:
            detected = zip(schedule.feature_ids, schedule.detected)
            doc["schedule"] = {"detected": {fid: [int(v) for v in row] for fid, row in detected}}
        doc["segments"] = []
        for seg in self.scenario.segments:
            entry = {"duration": seg.duration, "specific_force": _floats(seg.specific_force)}
            if seg.feature_rel_pos:
                entry["rel"] = {fid: _floats(rel) for fid, rel in seg.feature_rel_pos.items()}
            doc["segments"].append(entry)
        if self.trajectory is not None:
            doc["trajectory"] = {
                "p0": _floats(self.trajectory.p0),
                "v0": _floats(self.trajectory.v0),
            }
        if self.sensor is not None:
            doc["sensor"] = {name: getattr(self.sensor, name) for name in _SENSOR_FIELDS}
            # YAML writes lists, not the tuple the config holds
            doc["sensor"]["boresight"] = _floats(self.sensor.boresight)
        doc["initial_covariance"] = {
            "vehicle_diag": _floats(self.vehicle_variances),
            "feature_prior": self.feature_prior,
        }
        if self.options.extra_candidates:
            blocks = state_blocks(schedule.feature_ids)
            doc["candidates"] = [
                {
                    "label": cand.label,
                    "weights": {
                        block: _floats(cand.weights[3 * k : 3 * k + 3])
                        for k, block in enumerate(blocks)
                        if cand.weights[3 * k : 3 * k + 3].any()
                    },
                }
                for cand in self.options.extra_candidates
            ]
        return doc


def _floats(values) -> list:
    return [float(v) for v in values]


def _require(mapping, key, path, kind=None):
    if not isinstance(mapping, dict):
        raise ScenarioError(path, "must be a mapping")
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(
            f"{path}.{key}" if path else key,
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    return value


def _known(mapping, names, path):
    """Reject the first key of ``mapping`` outside ``names``, at its field path."""
    for key in mapping:
        if key not in names:
            raise ScenarioError(
                f"{path}.{key}" if path else str(key),
                f"unknown field (known: {', '.join(names)})",
            )


def _vec3(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(path, "expected a list of 3 numbers")
    try:
        arr = np.array([float(v) for v in value])
    except (TypeError, ValueError):
        raise ScenarioError(path, "entries must be numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(path, "entries must be finite")
    return arr


def _number(value, path, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {type(value).__name__}")
    value = float(value)
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
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read file: {exc}") from exc
    return parse_scenario(text, name_hint=str(path))


def parse_scenario(text: str, name_hint: str = "<scenario>") -> ScenarioDoc:
    """Parse a scenario document from YAML text."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(name_hint, f"invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(name_hint, "document must be a mapping")
    return _build_doc(raw)


def dump_scenario(doc: ScenarioDoc) -> str:
    """Serialize a parsed scenario back to YAML text."""
    return yaml.safe_dump(doc.to_dict(), sort_keys=False)


def _build_doc(raw: dict) -> ScenarioDoc:
    _known(raw, _TOP_FIELDS, "")
    name = raw.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "must be a non-empty string")
    gravity = _number(raw.get("gravity", GRAVITY), "gravity", minimum=0.0)

    options_raw = raw.get("options", {})
    if not isinstance(options_raw, dict):
        raise ScenarioError("options", "must be a mapping")
    _known(options_raw, ("expansion", "rank_tol"), "options")
    expansion = options_raw.get("expansion", "exact")
    if expansion not in ("exact", "first_order"):
        raise ScenarioError("options.expansion", "must be 'exact' or 'first_order'")
    rank_tol = _number(
        options_raw.get("rank_tol", DEFAULT_RANK_TOL), "options.rank_tol", minimum=0.0, strict=True
    )

    features_raw = raw.get("features", {})
    if not isinstance(features_raw, dict):
        raise ScenarioError("features", "must be a mapping of id to position")
    feature_positions = {
        str(fid): _vec3(pos, f"features.{fid}") for fid, pos in features_raw.items()
    }

    segments_raw = _require(raw, "segments", "", list)
    if not segments_raw:
        raise ScenarioError("segments", "at least one segment is required")
    durations, forces, rel_maps = [], [], []
    for i, seg in enumerate(segments_raw):
        seg_path = f"segments[{i}]"
        if not isinstance(seg, dict):
            raise ScenarioError(seg_path, "must be a mapping")
        _known(seg, ("duration", "specific_force", "rel"), seg_path)
        durations.append(
            _number(_require(seg, "duration", seg_path), f"{seg_path}.duration", 0.0, True)
        )
        forces.append(_vec3(_require(seg, "specific_force", seg_path), f"{seg_path}.specific_force"))
        rel_raw = seg.get("rel", {})
        if not isinstance(rel_raw, dict):
            raise ScenarioError(f"{seg_path}.rel", "must be a mapping of feature id to vector")
        rel = {}
        for fid, vec in rel_raw.items():
            fid = str(fid)
            if feature_positions and fid not in feature_positions:
                raise ScenarioError(f"{seg_path}.rel.{fid}", "unknown feature id")
            rel[fid] = _vec3(vec, f"{seg_path}.rel.{fid}")
        rel_maps.append(rel)

    trajectory = None
    if "trajectory" in raw:
        traj_raw = raw["trajectory"]
        if not isinstance(traj_raw, dict):
            raise ScenarioError("trajectory", "must be a mapping")
        _known(traj_raw, ("p0", "v0"), "trajectory")
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
        sensor_raw = raw["sensor"]
        if not isinstance(sensor_raw, dict):
            raise ScenarioError("sensor", "must be a mapping")
        _known(sensor_raw, _SENSOR_FIELDS, "sensor")
        kwargs = {}
        for key, value in sensor_raw.items():
            if key == "boresight":
                kwargs[key] = tuple(_vec3(value, "sensor.boresight"))
            else:
                kwargs[key] = _number(value, f"sensor.{key}", minimum=0.0)
        try:
            sensor = SensorConfig(**kwargs)
        except ValueError as exc:
            raise ScenarioError("sensor", str(exc)) from exc

    schedule_raw = _require(raw, "schedule", "")
    if schedule_raw == "auto":
        schedule_mode = "auto"
        if not feature_positions:
            raise ScenarioError("schedule", "'auto' requires a features section")
        if trajectory is None:
            raise ScenarioError("schedule", "'auto' requires a trajectory section")
        gate_sensor = sensor if sensor is not None else SensorConfig()
        try:
            schedule = fov_schedule(feature_positions, trajectory, gate_sensor)
        except ValueError as exc:
            raise ScenarioError("schedule", f"field-of-view gating failed: {exc}") from exc
    elif isinstance(schedule_raw, dict):
        schedule_mode = "explicit"
        _known(schedule_raw, ("detected",), "schedule")
        detected_raw = _require(schedule_raw, "detected", "schedule", dict)
        ids, rows = [], []
        for fid, row in detected_raw.items():
            fid = str(fid)
            if feature_positions and fid not in feature_positions:
                raise ScenarioError(f"schedule.detected.{fid}", "unknown feature id")
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
        try:
            schedule = DetectionSchedule(
                detected=np.array(rows, dtype=bool).reshape(len(ids), len(segments_raw)),
                feature_ids=tuple(ids),
            )
        except ValueError as exc:
            raise ScenarioError("schedule.detected", str(exc)) from exc
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
        try:
            segment_specs.append(
                SegmentSpec(
                    duration=durations[i],
                    specific_force=forces[i],
                    feature_rel_pos=rel,
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"segments[{i}]", str(exc)) from exc

    try:
        scenario = Scenario(schedule=schedule, segments=segment_specs)
    except ValueError as exc:
        raise ScenarioError("segments", str(exc)) from exc

    initial_raw = raw.get("initial_covariance", {})
    if not isinstance(initial_raw, dict):
        raise ScenarioError("initial_covariance", "must be a mapping")
    _known(initial_raw, ("vehicle_diag", "interpretation", "feature_prior"), "initial_covariance")
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
        vehicle = vehicle**2
    feature_prior = _number(
        initial_raw.get("feature_prior", FEATURE_PRIOR_DEFAULT),
        "initial_covariance.feature_prior",
        minimum=0.0,
    )

    candidates_raw = raw.get("candidates", [])
    if not isinstance(candidates_raw, list):
        raise ScenarioError("candidates", "must be a list")
    extra = []
    blocks = state_blocks(schedule.feature_ids)
    block_offsets = {block: 3 * k for k, block in enumerate(blocks)}
    for k, cand in enumerate(candidates_raw):
        cand_path = f"candidates[{k}]"
        if not isinstance(cand, dict):
            raise ScenarioError(cand_path, "must be a mapping")
        _known(cand, ("label", "weights"), cand_path)
        label = _require(cand, "label", cand_path, str)
        weights_raw = _require(cand, "weights", cand_path, dict)
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
        gravity=gravity,
    )
