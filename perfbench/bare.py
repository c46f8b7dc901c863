"""Plain single-threaded NumPy covariance recursion, with no package code.

It reads the scenario YAML itself and runs the same frame updates (stacked
relative-position measurements, Joseph form), feature initialisations and
IMU-rate propagations as ``slamobs.simulation.simulate``, with every matrix
built in place and no validation.  It serves two purposes:

* an independent oracle: its standard-deviation traces must agree with the
  package's at a stated tolerance;
* an arithmetic floor: its wall time (``simulation.bare_numpy_s``) and its
  flop count computed from matrix shapes (``simulation.flops_computed``)
  show how far ``simulate()`` sits from the cost of the arithmetic.

Only the keys the generated and bundled flight scenarios use are read; they
must all be present.
"""

from __future__ import annotations

import math

import numpy as np
import yaml


def _matmul_flops(a, b, c):
    return 2 * a * b * c


def load(text: str) -> dict:
    """Flight problem from scenario YAML: arrays and scalars only."""
    raw = yaml.safe_load(text)
    ids = list(raw["features"])
    segments = [(float(s["duration"]), np.array(s["specific_force"], float)) for s in raw["segments"]]
    sensor = raw["sensor"]
    schedule = None
    if raw["schedule"] != "auto":
        schedule = np.array([raw["schedule"]["detected"][fid] for fid in raw["schedule"]["detected"]], bool)
        ids = list(raw["schedule"]["detected"])
    init = raw["initial_covariance"]
    variances = np.array(init["vehicle_diag"], float)
    if init.get("interpretation", "variance") == "stddev":
        variances = variances**2
    boresight = np.array(sensor.get("boresight", (0.0, 0.0, -1.0)), float)
    return {
        "ids": ids,
        "features": np.array([raw["features"][fid] for fid in ids], float),
        "schedule": schedule,
        "segments": segments,
        "gravity": float(raw["gravity"]),
        "p0": np.array(raw["trajectory"]["p0"], float),
        "v0": np.array(raw["trajectory"]["v0"], float),
        "imu_hz": float(sensor["imu_rate_hz"]),
        "frame_hz": float(sensor["frame_rate_hz"]),
        "accel_noise": float(sensor["accel_noise"]),
        "gyro_noise": math.radians(float(sensor["gyro_noise_deg"])),
        "cos_fov": math.cos(math.radians(float(sensor["fov_deg"]))),
        "sigmas": np.array(
            [
                float(sensor["range_error_m"]),
                math.radians(float(sensor["bearing_noise_deg"])),
                math.radians(float(sensor["elevation_noise_deg"])),
            ]
        ),
        "boresight": boresight / np.linalg.norm(boresight),
        "variances": variances,
        "prior": float(init["feature_prior"]),
    }


def _segment_starts(prob):
    """Per segment: (start time, end time, start position, start velocity, accel)."""
    g = np.array([0.0, 0.0, prob["gravity"]])
    p, v, t = prob["p0"].copy(), prob["v0"].copy(), 0.0
    out = []
    for duration, force in prob["segments"]:
        a = force - g
        out.append((t, t + duration, p.copy(), v.copy(), a))
        p = p + v * duration + 0.5 * a * duration * duration
        v = v + a * duration
        t += duration
    return out


def _segment_at(starts, t):
    for j, (_, end, _, _, _) in enumerate(starts):
        if t < end - 1e-12:
            return j
    return len(starts) - 1


def _difference_weights(L, n):
    """Rows of (dp - dm_c) per axis, then (dm_c - dm_d) per pair and axis."""
    rows = []
    for c in range(L):
        for a in range(3):
            w = np.zeros(n)
            w[a], w[9 + 3 * c + a] = 1.0, -1.0
            rows.append(w)
    for c in range(L):
        for d in range(c + 1, L):
            for a in range(3):
                w = np.zeros(n)
                w[9 + 3 * c + a], w[9 + 3 * d + a] = 1.0, -1.0
                rows.append(w)
    return np.array(rows).reshape(len(rows), n)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _noise(rel, rng_m, sigmas):
    """Range/bearing/elevation noise in Cartesian form, same tangent frame as the package."""
    los = (rel[0] / rng_m, rel[1] / rng_m, rel[2] / rng_m)
    t1 = _cross(los, (1.0, 0.0, 0.0) if abs(los[2]) > 0.9 else (0.0, 0.0, 1.0))
    norm = math.sqrt(t1[0] ** 2 + t1[1] ** 2 + t1[2] ** 2)
    t1 = (t1[0] / norm, t1[1] / norm, t1[2] / norm)
    t2 = _cross(los, t1)
    J = np.array([los, t1, t2]).T * np.array([1.0, rng_m, rng_m])
    R = (J * sigmas**2) @ J.T
    return 0.5 * (R + R.T)


def covariance_run(prob: dict, duration: float | None = None):
    """Run the recursion; returns (times, stds, derived_stds, flops).

    ``stds`` has one row per frame and one column per state, ``derived_stds``
    one column per difference functional in the package's order.
    """
    ids = prob["ids"]
    L = len(ids)
    n = 9 + 3 * L
    starts = _segment_starts(prob)
    total = starts[-1][1] if duration is None else min(float(duration), starts[-1][1])
    frame_dt = 1.0 / prob["frame_hz"]
    steps = int(round(prob["imu_hz"] / prob["frame_hz"]))
    imu_dt = frame_dt / steps
    n_frames = int(round(total * prob["frame_hz"]))
    g = np.array([0.0, 0.0, prob["gravity"]])

    P = np.zeros((n, n))
    P[:9, :9] = np.diag(prob["variances"])
    for c in range(L):
        P[9 + 3 * c : 12 + 3 * c, 9 + 3 * c : 12 + 3 * c] = prob["prior"] * np.eye(3)
    initialized = [False] * L
    Qdt = np.zeros((n, n))
    Qdt[3:6, 3:6] = prob["accel_noise"] ** 2 * imu_dt * np.eye(3)
    Qdt[6:9, 6:9] = prob["gyro_noise"] ** 2 * imu_dt * np.eye(3)
    phis = []
    for _, _, _, _, a in starts:
        F = np.zeros((n, n))
        F[0:3, 3:6] = np.eye(3)
        f = a + g
        F[3:6, 6:9] = [[0.0, -f[2], f[1]], [f[2], 0.0, -f[0]], [-f[1], f[0], 0.0]]
        phis.append(np.eye(n) + F * imu_dt + (F @ F) * (imu_dt * imu_dt / 2.0))
    W = _difference_weights(L, n)
    eye = np.eye(n)
    i3 = np.eye(3)

    times = np.arange(n_frames + 1) * frame_dt
    stds = np.empty((n_frames + 1, n))
    derived = np.empty((n_frames + 1, W.shape[0]))
    flops = 0
    for k in range(n_frames + 1):
        t = times[k]
        j = _segment_at(starts, t)
        t0, _, p0, v0, a = starts[j]
        dt = t - t0
        pos = p0 + v0 * dt + 0.5 * a * dt * dt
        if prob["schedule"] is not None:
            visible = [c for c in range(L) if prob["schedule"][c, j]]
        else:
            visible = []
            for c in range(L):
                rel = prob["features"][c] - pos
                r = math.sqrt(rel @ rel)
                if r > 0 and rel @ prob["boresight"] / r >= prob["cos_fov"]:
                    visible.append(c)
        for c in visible:
            if not initialized[c]:
                b = slice(9 + 3 * c, 12 + 3 * c)
                P[b, :] = 0.0
                P[:, b] = 0.0
                P[b, b] = prob["prior"] * i3
                initialized[c] = True
        if visible:
            m = 3 * len(visible)
            H = np.zeros((m, n))
            R = np.zeros((m, m))
            for i, c in enumerate(visible):
                rel = prob["features"][c] - pos
                rows = slice(3 * i, 3 * i + 3)
                H[rows, 0:3] = -i3
                H[rows, 6:9] = [[0.0, -rel[2], rel[1]], [rel[2], 0.0, -rel[0]], [-rel[1], rel[0], 0.0]]
                H[rows, 9 + 3 * c : 12 + 3 * c] = i3
                R[rows, rows] = _noise(rel, math.sqrt(rel @ rel), prob["sigmas"])
            HP = H @ P
            S = HP @ H.T + R
            K = np.linalg.solve(S, HP).T
            ikh = eye - K @ H
            P = ikh @ P @ ikh.T + K @ R @ K.T
            P = 0.5 * (P + P.T)
            flops += (
                _matmul_flops(m, n, n)  # H P
                + _matmul_flops(m, n, m)  # (H P) H^T
                + m**3 // 3 * 2 + _matmul_flops(m, m, n)  # factor S, solve for K
                + _matmul_flops(n, m, n)  # K H
                + 2 * _matmul_flops(n, n, n)  # (I - K H) P (I - K H)^T
                + _matmul_flops(n, m, m) + _matmul_flops(n, m, n)  # K R K^T
            )
        stds[k] = np.sqrt(np.clip(np.diag(P), 0.0, None))
        if W.shape[0]:
            derived[k] = np.sqrt(np.maximum(((W @ P) * W).sum(axis=1), 0.0))
            flops += _matmul_flops(W.shape[0], n, n) + 2 * W.shape[0] * n
        if k == n_frames:
            break
        phi = phis[j]
        for _ in range(steps):
            P = phi @ P @ phi.T + Qdt
            P = 0.5 * (P + P.T)
        flops += steps * 2 * _matmul_flops(n, n, n)
    return times, stds, derived, flops
