"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, k)``: the k-th input of a run
with a given seed is always the same, and inputs with different k share no
random draws.  Input sizes follow a fixed cycle over k, so every run of a
workload sees the same mix of sizes whatever its seed; the seed changes only
geometry, forces and detection patterns.  This keeps the figures of one seed
comparable with those of another.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

GRAVITY = 9.81

# sweep: (features, segments) cycle; small, medium and large in both
# directions, so that candidate classification (many features) and the SVD
# of a tall TOM (many segments) each dominate some scenarios.
SWEEP_SIZES = tuple((L, S) for L in (2, 4, 8, 16) for S in (2, 4, 8))

# flight: feature counts cycled over k (state dimension 21, 33, 45)
FLIGHT_FEATURES = (4, 8, 12)
FLIGHT_SEGMENTS = 4
FLIGHT_SEGMENT_S = 10.0
FLIGHT_ALTITUDE_M = 100.0
FLIGHT_SPEED_MPS = 5.0
FLIGHT_FRAME_HZ = 25.0
FLIGHT_IMU_HZ = 100.0
FLIGHT_FOV_DEG = 15.0
# lateral offset of a feature from the ground track at its sighting time;
# the footprint radius at 100 m and 15 degrees is 26.8 m, so every feature is
# inside the cone at least at that frame.
FLIGHT_MAX_OFFSET_M = 12.0

SENSOR = {
    "imu_rate_hz": FLIGHT_IMU_HZ,
    "accel_noise": 0.01,
    "gyro_noise_deg": 0.1,
    "frame_rate_hz": FLIGHT_FRAME_HZ,
    "fov_deg": FLIGHT_FOV_DEG,
    "range_error_m": 5.0,
    "bearing_noise_deg": 0.1,
    "elevation_noise_deg": 0.1,
}
INITIAL_COVARIANCE = {
    "vehicle_diag": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0873, 0.0873, 0.0873],
    "interpretation": "variance",
    "feature_prior": 1.0e9,
}

# cli: the fixed command set; the seed only permutes its order per cycle and
# is passed to simulate as --seed.  CLI_DURATION_S truncates the flight.
CLI_DURATION_S = 10.0
CLI_COMMANDS = ("analyze", "analyze_local", "cases", "simulate", "simulate_state")

AXES = ("N", "E", "U")


def rng_for(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k)])


# --------------------------------------------------------------------- sweep


def _tilted_force(rng, max_tilt_rad):
    """Near-vertical specific force of magnitude g, tilted in a random azimuth."""
    tilt = rng.uniform(0.01, max_tilt_rad)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return [
        GRAVITY * math.sin(tilt) * math.cos(azimuth),
        GRAVITY * math.sin(tilt) * math.sin(azimuth),
        GRAVITY * math.cos(tilt),
    ]


def sweep_size(k: int):
    return SWEEP_SIZES[k % len(SWEEP_SIZES)]


def sweep_spec(seed: int, k: int) -> dict:
    """Plain description of the k-th sweep scenario (no package objects).

    Keys: ``detected`` (L x S list of 0/1, every feature and every segment
    has at least one detection), ``durations``, ``forces`` and ``rel`` (per
    segment, feature index to relative position of the detected features).
    """
    L, S = sweep_size(k)
    rng = rng_for(seed, k)
    detected = rng.random((L, S)) < 0.5
    for c in range(L):
        if not detected[c].any():
            detected[c, rng.integers(S)] = True
    for i in range(S):
        if not detected[:, i].any():
            detected[rng.integers(L), i] = True
    features = np.column_stack(
        [rng.uniform(-150.0, 150.0, L), rng.uniform(-150.0, 150.0, L), np.zeros(L)]
    )
    vehicle = np.array([0.0, 0.0, FLIGHT_ALTITUDE_M])
    durations, forces, rel = [], [], []
    for i in range(S):
        durations.append(float(rng.uniform(10.0, 60.0)))
        forces.append(_tilted_force(rng, 0.05))
        rel.append(
            {c: (features[c] - vehicle).tolist() for c in range(L) if detected[c, i]}
        )
        vehicle = vehicle + np.array(
            [rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), rng.uniform(-5.0, 5.0)]
        )
    return {
        "detected": detected.astype(int).tolist(),
        "durations": durations,
        "forces": forces,
        "rel": rel,
    }


def rigid_translation_weights(n_features: int, axis: int) -> np.ndarray:
    """Weights of the functional that shifts dp and every dm together on one axis."""
    w = np.zeros(9 + 3 * n_features)
    w[axis] = 1.0
    for c in range(n_features):
        w[9 + 3 * c + axis] = 1.0
    return w


def sweep_input(seed: int, k: int):
    """The k-th sweep scenario as package objects.

    Returns ``(scenario, total_options, local_options)`` where the options
    carry the three rigid-translation functionals as extra candidates, sized
    for the total system and for each segment's local system respectively.
    """
    from slamobs.analysis import AnalysisOptions, CandidateFunctional
    from slamobs.model import DetectionSchedule, Scenario, SegmentSpec

    spec = sweep_spec(seed, k)
    detected = np.array(spec["detected"], dtype=bool)
    L, S = detected.shape
    ids = tuple(f"f{c + 1}" for c in range(L))
    schedule = DetectionSchedule(detected=detected, feature_ids=ids)
    segments = [
        SegmentSpec(
            duration=spec["durations"][i],
            specific_force=spec["forces"][i],
            feature_rel_pos={ids[c]: v for c, v in spec["rel"][i].items()},
        )
        for i in range(S)
    ]
    scenario = Scenario(schedule=schedule, segments=segments)

    def options(n_features):
        return AnalysisOptions(
            extra_candidates=tuple(
                CandidateFunctional(f"rigid_{AXES[a]}", rigid_translation_weights(n_features, a))
                for a in range(3)
            )
        )

    local = [options(int(detected[:, i].sum())) for i in range(S)]
    return scenario, options(L), local


# -------------------------------------------------------------------- flight


def flight_features(k: int) -> int:
    return FLIGHT_FEATURES[k % len(FLIGHT_FEATURES)]


def _track(p0, v0, segments, t):
    """Vehicle position at time t under piece-wise constant acceleration."""
    p = np.array(p0, dtype=float)
    v = np.array(v0, dtype=float)
    for duration, force in segments:
        accel = np.array(force) - np.array([0.0, 0.0, GRAVITY])
        step = min(t, duration)
        if t <= duration:
            return p + v * step + 0.5 * accel * step * step
        p = p + v * duration + 0.5 * accel * duration * duration
        v = v + accel * duration
        t -= duration
    return p


def flight_doc(seed: int, k: int) -> dict:
    """The k-th flight scenario as a plain YAML-ready mapping.

    Level flight at 100 m and 5 m/s on a random heading; four 10 s segments
    whose specific forces carry a small random horizontal tilt.  Feature c is
    placed on the ground near the track at a sighting time drawn from the
    c-th of L equal slices of the flight, so every feature is seen and the
    number in view stays near L/4 whatever the seed.
    """
    L = flight_features(k)
    rng = rng_for(seed, k)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    p0 = [0.0, 0.0, FLIGHT_ALTITUDE_M]
    v0 = [FLIGHT_SPEED_MPS * math.cos(heading), FLIGHT_SPEED_MPS * math.sin(heading), 0.0]
    segments = []
    for _ in range(FLIGHT_SEGMENTS):
        accel = rng.uniform(0.02, 0.1)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        segments.append(
            (FLIGHT_SEGMENT_S, [accel * math.cos(azimuth), accel * math.sin(azimuth), GRAVITY])
        )
    total = FLIGHT_SEGMENTS * FLIGHT_SEGMENT_S
    n_frames = int(round(total * FLIGHT_FRAME_HZ))
    features = {}
    for c in range(L):
        lo = int(c * n_frames / L)
        hi = max(lo + 1, int((c + 1) * n_frames / L))
        frame = int(rng.integers(lo, hi))
        below = _track(p0, v0, segments, frame / FLIGHT_FRAME_HZ)
        radius = FLIGHT_MAX_OFFSET_M * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        features[f"m{c + 1}"] = [
            float(below[0] + radius * math.cos(angle)),
            float(below[1] + radius * math.sin(angle)),
            0.0,
        ]
    return {
        "name": f"flight-s{seed}-k{k}-L{L}",
        "gravity": GRAVITY,
        "features": features,
        "schedule": "auto",
        "segments": [
            {"duration": d, "specific_force": [float(x) for x in f]} for d, f in segments
        ],
        "trajectory": {"p0": p0, "v0": v0},
        "sensor": dict(SENSOR),
        "initial_covariance": dict(INITIAL_COVARIANCE),
    }


def flight_yaml(seed: int, k: int) -> str:
    return yaml.safe_dump(flight_doc(seed, k), sort_keys=False)


# -------------------------------------------------------------------- verify


def verify_yaml(root: Path) -> str:
    """The bundled case2_flight scenario text (fixed geometry, L = 2, 100 s)."""
    return (root / "src" / "slamobs" / "scenarios" / "case2_flight.yaml").read_text(
        encoding="utf-8"
    )


# ----------------------------------------------------------------------- cli


def cli_commands(seed: int, k: int) -> list:
    """Order of the fixed command set in cycle k (a seeded permutation)."""
    rng = rng_for(seed, k)
    return [CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS))]


def cli_argv(command: str, scenarios: Path, out_dir: Path, seed: int) -> list:
    """Arguments after ``python -m slamobs.cli`` for one named command."""
    if command == "analyze":
        return ["analyze", str(scenarios / "case2.yaml")]
    if command == "analyze_local":
        return ["analyze", str(scenarios / "case2_segment1.yaml"), "--local", "0"]
    if command == "cases":
        return ["cases", "--exact", "--first-order"]
    sim = [
        "simulate",
        str(scenarios / "case2_flight.yaml"),
        "--duration",
        repr(CLI_DURATION_S),
        "--seed",
        str(seed),
        "--out",
        str(out_dir / command),
    ]
    if command == "simulate_state":
        sim.append("--state-run")
    return sim
