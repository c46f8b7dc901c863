"""Observability machinery for piece-wise constant linear systems.

A piece-wise constant system (PWCS) is a linear time-varying system whose
dynamics matrix F and observation matrix H are constant inside each time
segment.  This module provides the generic building blocks: the per-segment
(local) observability matrix, segment transition matrices, the stacked
multi-segment (total) observability matrix, and SVD-based rank / null-space
queries used to decide which linear functionals of the state the
measurements determine.

All operations are pure functions of their inputs; no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-10


def _as_finite_array(value, name, shape=None):
    arr = np.asarray(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _as_square(value, name):
    arr = _as_finite_array(value, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def skew(v) -> np.ndarray:
    """Return the 3x3 cross-product matrix S with ``S @ w == np.cross(v, w)``.

    S is antisymmetric with zero diagonal.
    """
    x, y, z = _as_finite_array(v, "v", (3,))
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(eq=False)
class PwcsStripe:
    """One segment of a piece-wise constant system.

    Attributes
    ----------
    F : (n, n) dynamics matrix, constant over the segment.
    H : (m, n) observation matrix, constant over the segment.  m may be 0.
    delta : segment duration in seconds, positive and finite.

    Construction checks each field as stated above and converts it to float;
    ``ValueError`` names the field that fails.
    """

    F: np.ndarray
    H: np.ndarray
    delta: float

    def __post_init__(self):
        self.F = _as_square(self.F, "F")
        self.H = _as_finite_array(self.H, "H")
        if self.H.ndim != 2 or self.H.shape[1] != self.F.shape[0]:
            raise ValueError(
                f"H must have {self.F.shape[0]} columns to match F, "
                f"got shape {self.H.shape}"
            )
        self.delta = float(self.delta)
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")

    @property
    def n(self) -> int:
        """State dimension."""
        return self.F.shape[0]


def _nilpotency_index(F: np.ndarray):
    """Smallest p with F**p == 0 exactly, or None if F is not nilpotent."""
    n = F.shape[0]
    power = F
    for p in range(1, n + 1):
        if not power.any():
            return p
        power = power @ F
    return None


def state_transition(F, delta: float, mode: str = "exact") -> np.ndarray:
    """Transition matrix of a constant-dynamics segment of length delta.

    mode="first_order" returns I + F*delta.  mode="exact" returns the matrix
    exponential; when F is nilpotent (F**p == 0) its series
    I + F*delta + ... + (F*delta)**(p-1)/(p-1)! is summed from F*delta on,
    each term from the last; otherwise a scaling-and-squaring exponential.
    """
    F = _as_square(F, "F")
    delta = float(delta)
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    _check_mode(mode)
    return _transition(F, delta, mode)


def _check_mode(mode) -> None:
    if mode not in ("exact", "first_order"):
        raise ValueError(f"mode must be 'exact' or 'first_order', got {mode!r}")


def _transition(F: np.ndarray, delta: float, mode: str) -> np.ndarray:
    """``state_transition`` of an F, delta and mode that are already checked."""
    n = F.shape[0]
    if mode == "first_order":
        return np.eye(n) + F * delta
    p = _nilpotency_index(F)
    if p is None:
        import scipy.linalg

        return scipy.linalg.expm(F * delta)
    term = F * delta
    out = np.eye(n) + term
    for k in range(2, p):
        term = term @ F * (delta / k)
        out = out + term
    return out


def _max_power(max_power, n) -> int:
    """``max_power`` checked, or ``lom``'s default n - 1 (at least 1) when it is None."""
    if max_power is None:
        return max(n - 1, 1)
    if int(max_power) != max_power or max_power < 1:
        raise ValueError("max_power must be an integer >= 1")
    return int(max_power)


def lom(stripe: PwcsStripe, max_power: int = None) -> np.ndarray:
    """Local observability matrix of one segment.

    Stacks H, H F, H F**2, ..., H F**max_power, giving a matrix with
    (max_power + 1) * m rows and n columns.  The default n - 1 is exact for
    any F (Cayley-Hamilton).  The inertial SLAM dynamics of this package
    satisfy F**3 == 0, so ``slamobs.analysis`` passes 2 and drops only zero
    rows.
    """
    blocks = [stripe.H]
    current = stripe.H
    for _ in range(_max_power(max_power, stripe.n)):
        current = current @ stripe.F
        blocks.append(current)
    return np.vstack(blocks)


def tom(stripes, max_power: int = None, mode: str = "exact") -> np.ndarray:
    """Total observability matrix of a sequence of segments.

    Stacks the per-segment local observability matrices, each right-multiplied
    by the accumulated transition of all earlier segments:

        [Q_1; Q_2 T_1; Q_3 T_2 T_1; ...]

    where Q_j = lom(stripes[j]) and T_j = state_transition(F_j, delta_j).
    For a single stripe the result is lom(stripe) itself.  The stripes may
    have different row counts, 0 included.  ``mode`` is checked once, for
    any stripe count; each T_j is ``state_transition``'s series for the
    stripe's F and delta, which ``PwcsStripe`` has already checked.  Each
    Q_j is formed only when its rows are written, so the Q_j are not all
    held at once.
    """
    _check_mode(mode)
    stripes = list(stripes)
    if not stripes:
        raise ValueError("at least one stripe is required")
    n = stripes[0].n
    for j, stripe in enumerate(stripes[1:], start=1):
        if stripe.n != n:
            raise ValueError(
                f"stripe {j} has state dimension {stripe.n}, expected {n}"
            )
    max_power = _max_power(max_power, n)
    first = lom(stripes[0], max_power)
    if len(stripes) == 1:
        return first
    out = np.empty(((max_power + 1) * sum(s.H.shape[0] for s in stripes), n))
    start = len(first)
    out[:start] = first
    accumulated = None
    # block j + 1 carries the transitions of stripes 0..j
    for prev, stripe in zip(stripes, stripes[1:]):
        step = _transition(prev.F, prev.delta, mode)
        accumulated = step if accumulated is None else step @ accumulated
        q = lom(stripe, max_power)
        np.matmul(q, accumulated, out=out[start : start + len(q)])
        start += len(q)
    return out


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest one.

    Returns 0 for empty and all-zero matrices.
    """
    return np.shape(M)[1] - null_space(M, rel_tol).shape[1]


def null_space(M, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of M, as the columns of an (n, k) array.

    k equals M.shape[1] - numerical_rank(M); each column v satisfies
    ||M v|| <= rel_tol * ||M|| * ||v||.  An empty or all-zero M gives I_n.
    Past LAPACK dgesdd's tall-matrix crossover the basis comes from the SVD
    of M's n x n R factor, with the same bits as the SVD of M itself.
    """
    M = _as_finite_array(M, "M")
    if not 0 < rel_tol < np.inf:
        raise ValueError("rel_tol must be positive and finite")
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    n = M.shape[1]
    if M.shape[0] == 0 or not M.any():
        return np.eye(n)
    # dgesdd's MNTHR: from this many rows it QR-factors M and takes the SVD
    # of R itself, so handing it R gives the same s and V^T without forming
    # Q or the m x n U
    if M.shape[0] >= int(n * 11.0 / 6.0):
        M = np.linalg.qr(M, mode="r")
    # V is n x n either way unless M is wide; U is never read
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.count_nonzero(s > rel_tol * s[0]))
    return vt[rank:].T.copy()


def null_projections(N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Norm of each row of W projected onto the span of N's columns, over the row's norm.

    N is the orthonormal kernel basis of a matrix M (``null_space``).  Its
    columns are orthonormal, so the projection w N Nᵀ has norm ‖w N‖, which
    is what is computed.  A row w lies in the row space of M exactly when
    its value is negligible; a zero row gives 0, as it lies in every one.
    """
    norms = np.linalg.norm(W, axis=1)
    projected = np.linalg.norm(W @ N, axis=1)
    return np.divide(projected, norms, out=np.zeros_like(projected), where=norms > 0)


def is_functional_observable(M, w, rel_tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether the linear functional w.T @ x is determined by measurements.

    True iff w lies in the row space of M, tested as: the projection of w
    onto the kernel of M has norm <= rel_tol * ||w|| (``null_projections``).
    """
    M = _as_finite_array(M, "M")
    w = _as_finite_array(w, "w")
    if w.ndim != 1 or w.shape[0] != M.shape[1]:
        raise ValueError(
            f"w must be a vector of length {M.shape[1]}, got shape {w.shape}"
        )
    return bool(null_projections(null_space(M, rel_tol), w[None, :])[0] <= rel_tol)
