"""Independent brute-force reference implementations.

Everything here is assembled with naive Python loops over nested lists,
deliberately sharing no code with the package: element-by-element matrix
construction, a converged power-series exponential, and plain stacking.
The measurement-geometry references are per-vector NumPy transcriptions of
the scalar noise model and field-of-view gate; the kernel reference takes a
full SVD, and the candidate enumerator builds one unit vector at a time.  The
trajectory references look up one time at a time, and the filter references
propagate the covariance, and a state run's sampled state and estimate, one
IMU step at a time; the diagnostics reference checks one frame at a time.
The exact rank oracle does modular arithmetic on int64 arrays, with no
rounding at all.  Tests compare the package's vectorized results against
these transcriptions entry for entry.

One section builds the references' inputs from the package's scenario,
trajectory and sensor objects; it alone calls the package, for the inputs
the filter also takes as given (the exact IMU-step transitions, the process
noise intensity and the frame count).
"""

import warnings

import numpy as np

from slamobs import simulation
from slamobs.model import ins_error_f
from slamobs.pwcs import state_transition
from slamobs.simulation import process_noise_intensity


def o_skew(v):
    x, y, z = [float(c) for c in v]
    return [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]


def o_zeros(rows, cols):
    return [[0.0] * cols for _ in range(rows)]


def o_eye(n):
    out = o_zeros(n, n)
    for i in range(n):
        out[i][i] = 1.0
    return out


def o_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = o_zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def o_scale(a, s):
    return [[v * s for v in row] for row in a]


def o_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_aug_f(force, n_features):
    """Augmented dynamics: inertial block top-left, static feature states."""
    n = 9 + 3 * n_features
    F = o_zeros(n, n)
    for i in range(3):
        F[i][3 + i] = 1.0
    S = o_skew(force)
    for i in range(3):
        for j in range(3):
            F[3 + i][6 + j] = S[i][j]
    return F


def o_aug_h(rel_by_index, detected, n_features):
    """Augmented observation: one band per feature, zero when undetected."""
    n = 9 + 3 * n_features
    H = o_zeros(3 * n_features, n)
    for c in range(n_features):
        if c not in detected:
            continue
        S = o_skew(rel_by_index[c])
        for i in range(3):
            H[3 * c + i][i] = -1.0
            H[3 * c + i][9 + 3 * c + i] = 1.0
            for j in range(3):
                H[3 * c + i][6 + j] = S[i][j]
    return H


def o_feature_obs_row(rel):
    """Vehicle-block rows [-I, 0, skew(rel)] of one relative-position measurement."""
    return [row[:9] for row in o_aug_h({0: rel}, {0}, 1)]


def o_expm(F, dt):
    """Converged power-series matrix exponential."""
    n = len(F)
    out = o_eye(n)
    term = o_eye(n)
    for k in range(1, 80):
        term = o_scale(o_matmul(term, F), dt / k)
        out = o_add(out, term)
        if max(abs(v) for row in term for v in row) < 1e-280:
            break
    return out


def o_first_order(F, dt):
    return o_add(o_eye(len(F)), o_scale(F, dt))


def o_lom(H, F, max_power=2):
    rows = [row[:] for row in H]
    current = H
    for _ in range(max_power):
        current = o_matmul(current, F)
        rows.extend(row[:] for row in current)
    return rows


def o_tom(stripes, max_power=2, first_order=False):
    """stripes: list of (F, H, delta) in nested-list form."""
    out = []
    accumulated = None
    for j, (F, H, delta) in enumerate(stripes):
        q = o_lom(H, F, max_power)
        out.extend(q if accumulated is None else o_matmul(q, accumulated))
        if j < len(stripes) - 1:
            step = o_first_order(F, delta) if first_order else o_expm(F, delta)
            accumulated = step if accumulated is None else o_matmul(step, accumulated)
    return out


def o_rank(M, rel_tol=1e-10):
    """SVD rank with a relative threshold."""
    arr = np.asarray(M, dtype=float)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(sum(1 for v in s if v > rel_tol * s[0]))


def case_stripes(case_pattern, forces, rels_by_segment, delta=50.0, n_features=2):
    """(F, H, delta) stripes for a two-feature pattern given as rows x columns."""
    stripes = []
    for i in range(len(forces)):
        detected = {c for c in range(n_features) if case_pattern[c][i]}
        F = o_aug_f(forces[i], n_features)
        H = o_aug_h(rels_by_segment[i], detected, n_features)
        stripes.append((F, H, delta))
    return stripes


def scenario_to_oracle_stripes(scenario):
    """Transcribe a scenario into the oracle's nested-list stripes."""
    schedule = scenario.schedule
    L = schedule.n_features
    stripes = []
    for i, seg in enumerate(scenario.segments):
        detected = {c for c, _ in schedule.features_in_segment(i)}
        rel_by_index = {
            c: list(map(float, seg.feature_rel_pos[fid]))
            for c, fid in schedule.features_in_segment(i)
        }
        F = o_aug_f(list(map(float, seg.specific_force)), L)
        H = o_aug_h(rel_by_index, detected, L)
        stripes.append((F, H, seg.duration))
    return stripes


def o_noise_cartesian(rel, sigmas):
    """Per-vector Cartesian noise covariance of a range/bearing/elevation fix.

    The scalar transcription the batched noise kernel must reproduce bit for
    bit: ``sigmas`` is (range, bearing, elevation) in metres and radians; a
    zero sigma floors the result (with a warning), an all-zero model raises.
    """
    rel = np.asarray(rel, dtype=float)
    rng = float(np.linalg.norm(rel))
    if not rng > 0:
        raise ValueError("range must be positive")
    los = rel / rng
    helper = np.array([0.0, 0.0, 1.0])
    if abs(los @ helper) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    t1 = np.cross(los, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(los, t1)
    J = np.column_stack([los, rng * t1, rng * t2])
    sig = np.array(sigmas, dtype=float)
    R = J @ np.diag(sig**2) @ J.T
    R = 0.5 * (R + R.T)
    if np.any(sig == 0.0):
        floor = 1e-12 * float(np.max(np.diag(R)))
        if floor <= 0.0:
            raise ValueError("all measurement noise terms are zero")
        warnings.warn("degenerate measurement noise (oracle)", RuntimeWarning)
        R = R + floor * np.eye(3)
    return R


def o_in_fov(rel, boresight, fov_deg):
    """Per-vector field-of-view gate: nonzero and at most fov_deg off the boresight."""
    rng = float(np.linalg.norm(rel))
    if rng <= 0:
        return False
    cos_angle = float(np.dot(rel, boresight)) / rng
    return cos_angle >= np.cos(np.deg2rad(fov_deg))


def o_null_space(M, rel_tol=1e-10):
    """Kernel basis (columns) from a full SVD, the textbook construction."""
    arr = np.asarray(M, dtype=float)
    n = arr.shape[1]
    if arr.shape[0] == 0 or not arr.any():
        return np.eye(n)
    _, s, vt = np.linalg.svd(arr, full_matrices=True)
    rank = int(sum(1 for v in s if v > rel_tol * s[0]))
    return vt[rank:].T


def o_standard_candidates(features):
    """(labels, weights) of the standard candidates, one unit vector at a time.

    Position, velocity and attitude per axis; each feature; each
    position-minus-feature difference; each pairwise feature difference.
    """
    ids = [str(c + 1) for c in range(features)] if isinstance(features, int) else list(features)
    n = 9 + 3 * len(ids)
    axes = ("N", "E", "U")

    def unit(i):
        row = [0.0] * n
        row[i] = 1.0
        return row

    def minus(a, b):
        return [x - y for x, y in zip(unit(a), unit(b))]

    labels, weights = [], []
    for b, block in enumerate(("dp", "dv", "psi")):
        for a, axis in enumerate(axes):
            labels.append(f"{block}_{axis}")
            weights.append(unit(3 * b + a))
    for c, fid in enumerate(ids):
        for a, axis in enumerate(axes):
            labels.append(f"dm_{fid}_{axis}")
            weights.append(unit(9 + 3 * c + a))
    for c, fid in enumerate(ids):
        for a, axis in enumerate(axes):
            labels.append(f"dp-dm_{fid}_{axis}")
            weights.append(minus(a, 9 + 3 * c + a))
    for c in range(len(ids)):
        for d in range(c + 1, len(ids)):
            for a, axis in enumerate(axes):
                labels.append(f"dm_{ids[c]}-dm_{ids[d]}_{axis}")
                weights.append(minus(9 + 3 * c + a, 9 + 3 * d + a))
    return labels, weights


def o_segment(durations, t):
    """Segment active at time t: the first whose end, less 1e-12 s, lies beyond t.

    The ends are accumulated one duration at a time; at and beyond the last
    end the last segment stays active.
    """
    acc = 0.0
    for j, duration in enumerate(durations):
        acc += duration
        if t < acc - 1e-12:
            return j
    return len(durations) - 1


def o_kinematics(p0, v0, segments, gravity, t):
    """(position, velocity, specific force) at time t, one segment at a time.

    ``segments`` holds (duration, specific force) pairs.  The state is carried
    through each whole segment before ``o_segment``'s one, and t moves on that
    segment's constant-acceleration piece by the time left after subtracting
    the earlier durations one at a time, past the end of the last segment too.
    """
    g_vec = np.array([0.0, 0.0, float(gravity)])
    p, v = np.array(p0, dtype=float), np.array(v0, dtype=float)
    remaining = float(t)
    active = o_segment([duration for duration, _ in segments], t)
    for duration, force in segments[:active]:
        accel = np.asarray(force, dtype=float) - g_vec
        p = p + v * duration + 0.5 * accel * duration * duration
        v = v + accel * duration
        remaining -= duration
    duration, force = segments[active]
    force = np.asarray(force, dtype=float)
    accel = force - g_vec
    return p + v * remaining + 0.5 * accel * remaining * remaining, v + accel * remaining, force


def o_trajectory(trajectory, t):
    """``o_kinematics`` of a TrajectoryConfig at time t."""
    return o_kinematics(trajectory.p0, trajectory.v0, trajectory.segments, trajectory.gravity, t)


def _o_step_segments(f, durations, frame_dt, steps_per_frame):
    """Segments of the IMU steps between frames f - 1 and f, from a running clock.

    The clock starts at (f - 1) * frame_dt and advances by
    frame_dt / steps_per_frame per step; each step takes ``o_segment`` of it.
    """
    clock = (f - 1) * frame_dt
    pattern = []
    for _ in range(steps_per_frame):
        pattern.append(o_segment(durations, clock))
        clock += frame_dt / steps_per_frame
    return pattern


def _o_stamp(P, visible, seen, prior):
    """P with each feature seen for the first time given ``prior * I3``, uncorrelated."""
    for c in visible:
        if c not in seen:
            seen.add(c)
            block = slice(9 + 3 * c, 12 + 3 * c)
            P = P.copy()
            P[block, :] = 0.0
            P[:, block] = 0.0
            P[block, block] = prior * np.eye(3)
    return P


def _o_gauss_solve(A, B):
    """X with A X = B by Gaussian elimination with partial pivoting, in A's dtype.

    ``np.linalg`` has no ``np.longdouble`` solve; this one works in any
    floating dtype.
    """
    A, X = np.array(A), np.array(B, dtype=A.dtype)
    m = len(A)
    for j in range(m):
        p = j + int(np.argmax(np.abs(A[j:, j])))
        A[[j, p]], X[[j, p]] = A[[p, j]], X[[p, j]]
        factors = A[j + 1 :, j] / A[j, j]
        A[j + 1 :, j:] -= np.outer(factors, A[j, j:])
        X[j + 1 :] -= np.outer(factors, X[j])
    for j in reversed(range(m)):
        X[j] = (X[j] - A[j, j + 1 :] @ X[j + 1 :]) / A[j, j]
    return X


def _o_joseph(P, H, R):
    """(K, re-symmetrized Joseph posterior) with the gain from one solve against S = H P H^T + R.

    Float64 solves with ``np.linalg.solve``, any other dtype with ``_o_gauss_solve``.
    """
    HP = H @ P
    solve = np.linalg.solve if P.dtype == np.float64 else _o_gauss_solve
    K = solve(HP @ H.T + R, HP).T
    ikh = np.eye(P.shape[0], dtype=P.dtype) - K @ H
    P = ikh @ P @ ikh.T + K @ R @ K.T
    return K, 0.5 * (P + P.T)


def o_step_filter(
    P0, phis, q_dt, durations, frame_dt, steps_per_frame, measurements, prior, dtype=float
):
    """Covariance filter propagated one IMU step at a time.

    The per-step reference for a filter that propagates once per vision
    frame.  Between frames f - 1 and f each step (``_o_step_segments``)
    applies the transition ``phis[s]`` of its segment, P <- phi P phi^T + q_dt,
    and re-symmetrizes.  ``measurements[f]`` is (visible feature indices, H, R);
    a feature seen for the first time gets the block ``prior * I3`` with its
    cross-covariances zeroed, then a Joseph update takes its gain from one
    solve with S = H P H^T + R.  Returns the posterior covariance of every
    frame and the tuple of step segments of every propagation.  Every input
    matrix is converted to ``dtype`` and the recursion runs in it:
    ``np.longdouble`` gives an extended-precision reference for a float64 run
    over the same float64 inputs.
    """
    P = np.array(P0, dtype=dtype)
    phis = [np.asarray(phi, dtype=dtype) for phi in phis]
    q_dt = np.asarray(q_dt, dtype=dtype)
    seen = set()
    covariances, patterns = [], []
    for f, (visible, H, R) in enumerate(measurements):
        if f:
            pattern = _o_step_segments(f, durations, frame_dt, steps_per_frame)
            for s in pattern:
                P = phis[s] @ P @ phis[s].T + q_dt
                P = 0.5 * (P + P.T)
            patterns.append(tuple(pattern))
        P = _o_stamp(P, visible, seen, prior)
        if len(visible):
            _, P = _o_joseph(P, np.asarray(H, dtype=dtype), np.asarray(R, dtype=dtype))
        covariances.append(P)
    return np.array(covariances), patterns


def o_state_run(
    P0, phis, q_dt, durations, frame_dt, steps_per_frame, measurements, prior, noise_std, rng
):
    """Sampled error state and its filter estimate, both propagated one IMU step at a time.

    The reference for a state run, over ``o_step_filter``'s arguments.  The
    true error state x starts at ``rng.standard_normal(9)`` times the square
    roots of P0's vehicle variances, then ``rng.standard_normal`` per feature
    state times ``sqrt(prior)``; the estimate starts at zero.  Each IMU step
    moves x by its segment's transition plus the draw
    ``(rng.standard_normal(n) * noise_std) * sqrt(imu_dt)`` and moves the
    estimate by the same transition, while P follows ``o_step_filter``.  An
    update frame measures z = H x + chol(R) v with v drawn next, and the
    estimate takes the Joseph gain's correction K (z - H x_hat).  Returns x
    and the estimate at every frame.
    """
    P = np.array(P0, dtype=float)
    n = P.shape[0]
    sqrt_dt = np.sqrt(frame_dt / steps_per_frame)
    x = np.concatenate(
        [
            rng.standard_normal(9) * np.sqrt(np.diag(P)[:9]),
            rng.standard_normal(n - 9) * np.sqrt(prior),
        ]
    )
    x_hat = np.zeros(n)
    seen = set()
    states, estimates = [], []
    for f, (visible, H, R) in enumerate(measurements):
        if f:
            for s in _o_step_segments(f, durations, frame_dt, steps_per_frame):
                x = phis[s] @ x + (rng.standard_normal(n) * noise_std) * sqrt_dt
                x_hat = phis[s] @ x_hat
                P = phis[s] @ P @ phis[s].T + q_dt
                P = 0.5 * (P + P.T)
        P = _o_stamp(P, visible, seen, prior)
        if len(visible):
            z = H @ x + np.linalg.cholesky(R) @ rng.standard_normal(H.shape[0])
            K, P = _o_joseph(P, H, R)
            x_hat = x_hat + K @ (z - H @ x_hat)
        states.append(x)
        estimates.append(x_hat)
    return np.array(states), np.array(estimates)


def o_diagnostics(frames, rng):
    """Covariance-health checks taken one matrix and one frame at a time.

    The per-frame reference for ``SimulationDiagnostics``.  ``frames`` yields
    frames carrying the raw covariances ``raw`` they re-symmetrized, the
    posterior ``P`` and, at an update, its prior ``P_prior``.  Each raw
    covariance gives max|P - P^T| / max|P| (a zero max read as 1); each
    posterior one ``eigvalsh`` call and the ratio of its lowest to its
    highest eigenvalue (starting from 0); each update draws
    ``rng.standard_normal((20, n))`` and compares the functionals' variances
    after and before it, taken with ``einsum``.  Returns (max asymmetry, min
    eigenvalue ratio, max update growth, updates).
    """
    asymmetry, ratio, growth, updates = 0.0, 0.0, -np.inf, 0
    for frame in frames:
        for P_raw in frame.raw:
            scale = float(np.max(np.abs(P_raw))) or 1.0
            asymmetry = max(asymmetry, float(np.max(np.abs(P_raw - P_raw.T))) / scale)
        if frame.P_prior is not None:
            w = rng.standard_normal((20, frame.P.shape[0]))
            before = np.einsum("ij,jk,ik->i", w, frame.P_prior, w)
            after = np.einsum("ij,jk,ik->i", w, frame.P, w)
            growth = max(growth, float(np.max((after - before) / np.maximum(before, 1e-300))))
            updates += 1
        eigs = np.linalg.eigvalsh(frame.P)
        ratio = min(ratio, float(eigs[0] / max(eigs[-1], 1e-300)))
    return asymmetry, ratio, growth, updates


# The references' inputs, built from package objects: a run's geometry and
# measurements frame by frame, and ``o_step_filter``'s arguments.


def _scalar_frame_geometry(scenario, trajectory, sensor, count):
    """The per-frame geometry stream built frame by frame and feature by feature.

    Per-vector references (``o_in_fov``, ``o_noise_cartesian``,
    ``o_feature_obs_row``) in place of the batched kernels, ``o_kinematics``
    for the vehicle position, a running clock with ``o_segment`` for the
    IMU steps, and each visible feature's band of H written out on its own,
    yielding the (step segments, bands, noise) records the filter loop reads.
    """
    ids = scenario.feature_ids
    n = 9 + 3 * len(ids)
    durations = [duration for duration, _ in trajectory.segments]
    sigmas = (sensor.range_error_m, sensor.bearing_noise_rad, sensor.elevation_noise_rad)
    steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
    imu_dt = (1.0 / sensor.frame_rate_hz) / steps_per_frame
    for frame in range(count):
        clock = (frame - 1) * (1.0 / sensor.frame_rate_hz)
        pattern = []
        for _ in range(steps_per_frame):
            pattern.append(o_segment(durations, clock))
            clock += imu_dt
        t = frame * (1.0 / sensor.frame_rate_hz)
        pos = o_trajectory(trajectory, t)[0]
        bands, noise = [], []
        for c, fid in enumerate(ids):
            rel = scenario.feature_positions[fid] - pos
            if scenario.schedule is None:
                visible = o_in_fov(rel, sensor.boresight, sensor.fov_deg)
            else:
                visible = scenario.schedule.detected[c, o_segment(durations, t)]
            if visible:
                band = np.zeros((3, n))
                band[:, :9] = o_feature_obs_row(rel)
                band[:, 9 + 3 * c : 12 + 3 * c] = np.eye(3)
                bands.append(band)
                noise.append(o_noise_cartesian(rel, sigmas))
        yield tuple(pattern), np.array(bands).reshape(-1, 3, n), np.array(noise).reshape(-1, 3, 3)


def _band_features(bands):
    """Feature index of each (3, n) band of H: where its identity block's first column sits."""
    return np.nonzero(bands[:, 0, 9::3])[1].tolist()


def _looped_measurement(visible, obs, noise, n):
    """H and block-diagonal R of one frame, assembled feature by feature."""
    k = len(visible)
    H, R = np.zeros((3 * k, n)), np.zeros((3 * k, 3 * k))
    for j, c in enumerate(visible):
        rows = slice(3 * j, 3 * j + 3)
        H[rows, :9] = obs[j]
        H[rows, 9 + 3 * c : 12 + 3 * c] = np.eye(3)
        R[rows, rows] = noise[j]
    return H, R


def _extended_precision_stds(doc, duration):
    """Labels and ``np.longdouble`` stds of every standard candidate of a scenario document.

    ``o_step_filter`` runs the first ``duration`` s of ``doc``'s flight one
    IMU step at a time in ``np.longdouble`` on the float64 inputs of
    ``_step_filter_args``; the result is (labels, stds), one row a label.
    """
    scenario, trajectory, sensor = doc.sim_scenario(), doc.trajectory, doc.sensor
    count = simulation._frame_count(scenario, trajectory, sensor, duration)
    args = _step_filter_args(scenario, trajectory, sensor, count)
    want, _ = o_step_filter(*args, dtype=np.longdouble)
    labels, weights = o_standard_candidates(scenario.feature_ids)
    W = np.array(weights, dtype=np.longdouble)
    return labels, np.sqrt(np.einsum("ci,kij,cj->ck", W, want, W))


def _step_filter_args(scenario, trajectory, sensor, count):
    """``o_step_filter``'s arguments for the first ``count`` frames of a run."""
    n = 9 + 3 * len(scenario.feature_ids)
    frame_dt = 1.0 / sensor.frame_rate_hz
    steps_per_frame = int(round(sensor.imu_rate_hz / sensor.frame_rate_hz))
    imu_dt = frame_dt / steps_per_frame
    phis = []
    for _, force in trajectory.segments:
        F = np.zeros((n, n))
        F[0:9, 0:9] = ins_error_f(force)
        phis.append(state_transition(F, imu_dt, "exact"))
    measurements = []
    for _, bands, noise in _scalar_frame_geometry(scenario, trajectory, sensor, count):
        visible = _band_features(bands)
        H = R = None
        if visible:
            H, R = _looped_measurement(visible, bands[:, :, :9], noise, n)
        measurements.append((visible, H, R))
    prior = np.r_[scenario.vehicle_variances, np.full(n - 9, scenario.feature_prior)]
    return (
        np.diag(prior),
        phis,
        process_noise_intensity(sensor, n) * imu_dt,
        [duration for duration, _ in trajectory.segments],
        frame_dt,
        steps_per_frame,
        measurements,
        scenario.feature_prior,
    )


#: Two primes just below 2**25.  Residues multiply to less than 2**50, so an
#: int64 matrix product mod p is exact for inner dimensions below 2**13.
PRIMES = (33554393, 33554383)


def o_mod(x, p):
    """Residue mod p of a float, exactly: every float is a dyadic rational m / 2**k."""
    num, den = float(x).as_integer_ratio()
    return num * pow(den, -1, p) % p


def o_mod_matrix(rows, p):
    return np.array([[o_mod(v, p) for v in row] for row in rows], dtype=np.int64)


def o_mod_tom(stripes, p):
    """Total observability matrix of (F, H, delta) stripes mod p, exactly.

    F must satisfy F**3 == 0, as the inertial model's does, so the segment
    transition exp(F delta) is exactly I + F delta + F**2 delta**2 / 2 and
    the local matrices [H; H F; H F**2] are complete.
    """
    n = len(stripes[0][0])
    half = pow(2, -1, p)
    blocks = []
    accumulated = np.eye(n, dtype=np.int64)
    for F, H, delta in stripes:
        F, H, d = o_mod_matrix(F, p), o_mod_matrix(H, p), o_mod(delta, p)
        F2 = F @ F % p
        HF = H @ F % p
        for Q in (H, HF, HF @ F % p):
            blocks.append(Q @ accumulated % p)
        phi = (np.eye(n, dtype=np.int64) + F * d + F2 * (d * d % p * half % p)) % p
        accumulated = phi @ accumulated % p
    return np.vstack(blocks)


def o_mod_echelon(M, p):
    """Reduced row echelon form of an int64 matrix mod p: (nonzero rows, pivot columns)."""
    M = M % p
    pivots = []
    for c in range(M.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(M[r:, c])
        if below.size == 0:
            continue
        M[[r, r + below[0]]] = M[[r + below[0], r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        others = np.arange(M.shape[0]) != r
        M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
        pivots.append(c)
    return M[: len(pivots)], pivots


def o_exact_observability(stripes, weights):
    """(rank, observable flags) of the exact total observability matrix.

    The tolerance-free reference for rank verdicts: the matrix is rebuilt mod
    each of ``PRIMES`` from the exact values of its float inputs, its rank
    is taken by modular elimination, and a weight row is observable iff it
    reduces to zero against the echelon rows.  The two primes must agree.
    """
    results = []
    for p in PRIMES:
        echelon, pivots = o_mod_echelon(o_mod_tom(stripes, p), p)
        W = o_mod_matrix(weights, p)
        residue = (W - W[:, pivots] @ echelon) % p
        results.append((len(pivots), [not row.any() for row in residue]))
    if results[0] != results[1]:
        raise AssertionError(f"the primes disagree: {results}")
    return results[0]
