"""Core piece-wise constant system machinery."""

import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import o_expm, o_null_space, o_rank, o_tom
from randgen import random_scenario
from slamobs.analysis import case_scenario
from slamobs.model import augment, augmented_f, ins_error_f
from slamobs.pwcs import (
    DEFAULT_RANK_TOL,
    PwcsStripe,
    is_functional_observable,
    lom,
    null_space,
    numerical_rank,
    skew,
    state_transition,
    tom,
)


def case2_stripes():
    return augment(case_scenario(2))


def sweep_sized_tom():
    """TOM of the sweep's largest scenario size: 16 features, 8 segments."""
    rng = np.random.default_rng(23)
    return tom(augment(random_scenario(rng, n_features=16, n_segments=8)), 2)


def crossover_rows(n):
    """Row counts one below, at and one above dgesdd's MNTHR for n columns."""
    mnthr = int(n * 11.0 / 6.0)
    return [mnthr - 1, mnthr, mnthr + 1]


def case2_segment1_stripe():
    """Single-feature local stripe of the case-2 first segment (n = 12)."""
    scenario = case_scenario(2)
    seg = scenario.segments[0]
    F = np.zeros((12, 12))
    F[0:9, 0:9] = ins_error_f(seg.specific_force)
    H = np.zeros((3, 12))
    H[:, 0:3] = -np.eye(3)
    H[:, 6:9] = skew(seg.feature_rel_pos["f1"])
    H[:, 9:12] = np.eye(3)
    return PwcsStripe(F=F, H=H, delta=seg.duration)


def cyclic_stripe():
    """Non-nilpotent 4-state shift (F**4 == I) seen through H = e1^T."""
    return PwcsStripe(F=np.roll(np.eye(4), 1, axis=1), H=np.eye(4)[:1], delta=0.5)


class TestSkew:
    def test_e1_cross_e2(self):
        np.testing.assert_allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])

    def test_zero_vector(self):
        np.testing.assert_array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_antisymmetry_exact(self):
        S = skew([1, 2, 3])
        np.testing.assert_array_equal(S + S.T, np.zeros((3, 3)))
        np.testing.assert_array_equal(np.diag(S), np.zeros(3))

    def test_matches_cross_product(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.normal(scale=10.0, size=3)
            w = rng.normal(scale=10.0, size=3)
            np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-12 * (1 + np.abs(np.cross(v, w)).max()))

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0], [0, np.inf, 0], [1, 2, -np.inf]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            skew(bad)


class TestPwcsStripe:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PwcsStripe(F=np.eye(4), H=np.zeros((2, 3)), delta=1.0)

    def test_non_square_f(self):
        with pytest.raises(ValueError):
            PwcsStripe(F=np.zeros((3, 4)), H=np.zeros((1, 4)), delta=1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.inf])
    def test_non_positive_delta(self, delta):
        with pytest.raises(ValueError, match="positive and finite"):
            PwcsStripe(F=np.eye(2), H=np.eye(2), delta=delta)

    def test_empty_observation_allowed(self):
        stripe = PwcsStripe(F=np.zeros((9, 9)), H=np.zeros((0, 9)), delta=1.0)
        assert stripe.n == 9


class TestStateTransition:
    def test_zero_dynamics(self):
        np.testing.assert_array_equal(state_transition(np.zeros((4, 4)), 12.5), np.eye(4))

    def test_nilpotent_exact_matches_series_oracle(self):
        F = ins_error_f([0.0, 0.0, 9.81])
        assert not (F @ F @ F).any()
        got = state_transition(F, 50.0, "exact")
        want = np.array(o_expm(F.tolist(), 50.0))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_first_order_drops_coupling_into_position(self):
        F = ins_error_f([0.0, 0.0, 9.81])
        delta = 50.0
        exact = state_transition(F, delta, "exact")
        first = state_transition(F, delta, "first_order")
        np.testing.assert_array_equal(first, np.eye(9) + F * delta)
        # the second-order term lands in the position/attitude block only
        diff = exact - first
        np.testing.assert_allclose(diff[0:3, 6:9], skew([0, 0, 9.81]) * delta**2 / 2)
        diff[0:3, 6:9] = 0.0
        assert not diff.any()

    def test_inverse_and_determinant(self):
        F = np.zeros((15, 15))
        F[0:9, 0:9] = ins_error_f([0.3, -0.2, 9.81])
        phi = state_transition(F, 50.0, "exact")
        np.testing.assert_allclose(phi @ np.linalg.inv(phi), np.eye(15), atol=1e-10)
        assert np.trace(F) == 0.0
        assert abs(np.linalg.det(phi) - 1.0) < 1e-9

    def test_general_fallback_matches_series_oracle(self):
        rng = np.random.default_rng(3)
        F = rng.normal(scale=0.2, size=(5, 5))
        got = state_transition(F, 1.7, "exact")
        want = np.array(o_expm(F.tolist(), 1.7))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_bad_mode_and_shape(self):
        with pytest.raises(ValueError):
            state_transition(np.eye(2), 1.0, "approximate")
        with pytest.raises(ValueError):
            state_transition(np.zeros((2, 3)), 1.0)
        for delta in (0.0, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                state_transition(np.eye(2), delta)


def eye_started_series(F, delta):
    """The nilpotent branch of ``state_transition`` as first written: its first term is eye @ F."""
    n = F.shape[0]
    p, power = 1, F
    while power.any():
        p, power = p + 1, power @ F
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, p):
        term = term @ F * (delta / k)
        out = out + term
    return out


class TestNilpotentSeriesBits:
    """The series started at F * delta gives the bits of the eye-started one.

    ``eye @ F`` differs from F only where F holds -0.0, and such signed zeros
    never reach the sum, which starts from the identity.
    """

    DELTAS = (1e-3, 0.37, 1.0, 50.0, 1e4)

    def assert_same_bits(self, F):
        for delta in self.DELTAS:
            got = state_transition(F, delta, "exact")
            np.testing.assert_array_equal(
                got.view(np.uint64), eye_started_series(F, delta).view(np.uint64)
            )

    @pytest.mark.parametrize("n", [9, 15, 57])
    def test_dynamics_with_signed_zeros(self, n):
        for force in ([0.0, 0.0, 9.81], [0.3, 0.0, 9.81], [0.0, -0.2, 0.0]):
            F = augmented_f(force, n)
            assert (np.signbit(F) & (F == 0)).any()
            self.assert_same_bits(F)

    @pytest.mark.parametrize("n", [9, 15, 57])
    def test_zero_dynamics(self, n):
        self.assert_same_bits(np.zeros((n, n)))

    @pytest.mark.parametrize("n", [9, 15, 57])
    def test_strictly_upper_triangular(self, n):
        rng = np.random.default_rng(n)
        F = np.triu(rng.normal(size=(n, n)), 1)
        assert np.linalg.matrix_power(F, n - 1).any()
        self.assert_same_bits(F)


class TestLom:
    def test_case2_segment1_rank_eight(self):
        matrix = lom(case2_segment1_stripe(), max_power=2)
        assert matrix.shape == (9, 12)
        assert numerical_rank(matrix) == 8

    def test_zero_observation_gives_zero_matrix(self):
        stripe = PwcsStripe(F=np.eye(4), H=np.zeros((2, 4)), delta=1.0)
        matrix = lom(stripe, max_power=3)
        assert matrix.shape == (8, 4)
        assert not matrix.any()
        assert numerical_rank(matrix) == 0

    def test_zero_force_rank_six(self):
        # velocity rows survive, the attitude-coupling rows vanish
        stripe = case2_segment1_stripe()
        F = stripe.F.copy()
        F[3:6, 6:9] = 0.0
        degraded = PwcsStripe(F=F, H=stripe.H, delta=stripe.delta)
        assert numerical_rank(lom(degraded)) == 6

    def test_default_covers_non_nilpotent_dynamics(self):
        # H F**3 adds the fourth direction, so stopping at F**2 loses rank
        stripe = cyclic_stripe()
        assert numerical_rank(lom(stripe, max_power=2)) == 3
        matrix = lom(stripe)
        assert matrix.shape == (4, 4)
        assert numerical_rank(matrix) == 4

    def test_max_power_validation(self):
        with pytest.raises(ValueError):
            lom(case2_segment1_stripe(), max_power=0)


class TestTom:
    def test_single_stripe_equals_lom(self):
        unobserved = PwcsStripe(F=np.eye(3), H=np.zeros((0, 3)), delta=1.0)
        for stripe in (case2_segment1_stripe(), cyclic_stripe(), unobserved):
            np.testing.assert_array_equal(tom([stripe]), lom(stripe))
            np.testing.assert_array_equal(tom([stripe], 2, "first_order"), lom(stripe, 2))

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    def test_stripes_of_different_row_counts(self, mode):
        """Each stripe contributes (max_power + 1) times its own row count, 0 included."""
        rng = np.random.default_rng(7)
        stripes = [
            PwcsStripe(F=np.triu(rng.integers(-2, 3, (5, 5)), 1), H=rng.integers(-2, 3, (m, 5)), delta=d)
            for m, d in ((0, 1.0), (2, 0.5), (0, 2.0), (3, 0.25), (1, 1.5))
        ]
        matrix = tom(stripes, 2, mode)
        oracle_stripes = [(s.F.tolist(), s.H.tolist(), s.delta) for s in stripes]
        want = o_tom(oracle_stripes, 2, first_order=mode == "first_order")
        assert matrix.shape == (3 * 6, 5)
        np.testing.assert_allclose(matrix, np.reshape(want, (18, 5)), rtol=1e-13, atol=1e-13)

    def test_case2_rank_twelve_of_fifteen(self):
        matrix = tom(case2_stripes())
        assert matrix.shape[1] == 15
        assert numerical_rank(matrix) == 12

    def test_identical_nilpotent_stripes_add_no_rank(self):
        stripe = case2_segment1_stripe()
        single = numerical_rank(lom(stripe))
        double = numerical_rank(tom([stripe, stripe]))
        assert double == single

    def test_default_covers_non_nilpotent_dynamics(self):
        # the shift is not nilpotent, so the transition is a general exponential
        stripes = [cyclic_stripe(), cyclic_stripe()]
        matrix = tom(stripes)
        want = o_tom([(s.F.tolist(), s.H.tolist(), s.delta) for s in stripes], max_power=3)
        np.testing.assert_allclose(matrix, want, atol=1e-12)
        assert numerical_rank(matrix) == 4

    @pytest.mark.parametrize("count", [1, 2])
    def test_bad_mode_rejected_for_any_stripe_count(self, count):
        with pytest.raises(ValueError, match="^mode must be 'exact' or 'first_order', got 'bogus'$"):
            tom(case2_stripes()[:count], mode="bogus")

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("max_power", [0, 1.5])
    def test_bad_max_power_rejected_for_any_stripe_count(self, count, max_power):
        with pytest.raises(ValueError, match="^max_power must be an integer >= 1$"):
            tom(case2_stripes()[:count], max_power)

    def test_local_matrices_are_not_all_held_at_once(self):
        """Each Q_j is formed as its rows are written: the traced peak stays under
        the result plus six Q_j (one held, one forming, and the n x n transitions),
        where holding all eight would take more."""
        stripes = augment(random_scenario(np.random.default_rng(37), n_features=16, n_segments=8))
        block = lom(stripes[0], 2).nbytes
        tracemalloc.start()
        try:
            matrix = tom(stripes, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.nbytes == 8 * block
        assert peak < matrix.nbytes + 6 * block

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    def test_transitions_have_state_transition_bits(self, mode):
        """Each block is Q_j times the product of ``state_transition`` of the earlier stripes."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            stripes = augment(random_scenario(rng, n_segments=int(rng.integers(2, 6))))
            blocks, accumulated = [lom(stripes[0], 2)], None
            for prev, stripe in zip(stripes, stripes[1:]):
                step = state_transition(prev.F, prev.delta, mode)
                accumulated = step if accumulated is None else step @ accumulated
                blocks.append(lom(stripe, 2) @ accumulated)
            want = np.vstack(blocks)
            assert tom(stripes, 2, mode).tobytes() == want.tobytes()

    def test_empty_and_inconsistent_inputs(self):
        with pytest.raises(ValueError):
            tom([])
        a = PwcsStripe(F=np.zeros((3, 3)), H=np.eye(3), delta=1.0)
        b = PwcsStripe(F=np.zeros((4, 4)), H=np.eye(4), delta=1.0)
        with pytest.raises(ValueError):
            tom([a, b])


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_tiny_singular_value_below_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-14]), rel_tol=1e-10) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 6))) == 0

    def test_case2_total_matrix(self):
        assert numerical_rank(tom(case2_stripes())) == 12

    def test_rank_plus_nullity_equals_cols(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rows, cols = rng.integers(1, 12, size=2)
            rank_target = int(rng.integers(0, min(rows, cols) + 1))
            M = (
                rng.normal(size=(rows, rank_target)) @ rng.normal(size=(rank_target, cols))
                if rank_target
                else np.zeros((rows, cols))
            )
            rank = numerical_rank(M)
            basis = null_space(M)
            assert rank + basis.shape[1] == cols

    def test_rank_invariant_under_row_permutation_and_scaling(self):
        rng = np.random.default_rng(13)
        base = tom(case2_stripes())
        want = numerical_rank(base)
        for _ in range(100):
            perm = rng.permutation(base.shape[0])
            scales = rng.uniform(0.1, 10.0, size=base.shape[0]) * rng.choice(
                [-1.0, 1.0], size=base.shape[0]
            )
            assert numerical_rank(base[perm] * scales[:, None]) == want


class TestNullSpace:
    def test_identity_has_trivial_kernel(self):
        basis = null_space(np.eye(6))
        assert basis.shape[1] == 0
        assert basis.shape == (6, 0)

    def test_zero_matrix_full_kernel(self):
        basis = null_space(np.zeros((4, 3)))
        assert basis.shape[1] == 3
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    def test_case2_kernel_dimension_and_annihilation(self):
        matrix = tom(case2_stripes())
        basis = null_space(matrix)
        assert basis.shape[1] == 3
        scale = np.linalg.norm(matrix)
        for k in range(basis.shape[1]):
            assert np.linalg.norm(matrix @ basis[:, k]) <= 1e-10 * scale
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_empty_row_matrix(self):
        basis = null_space(np.zeros((0, 9)))
        assert basis.shape[1] == 9

    def test_tall_basis_equals_thin_svd_of_m(self):
        # a tall or square M takes the thin SVD, past dgesdd's crossover of its
        # R factor; either way the basis is the thin SVD's of M itself, bit for
        # bit, as documented (the full SVD's V^T parts from it in a last bit on
        # some TOMs, so it is no reference for bits)
        def thin_svd_basis(M):
            _, s, vt = np.linalg.svd(M, full_matrices=False)
            return vt[int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) :].T

        rng = np.random.default_rng(17)
        matrices = [tom(case2_stripes()), np.eye(6), sweep_sized_tom()]
        for _ in range(10):
            rows, rank = int(rng.integers(12, 40)), int(rng.integers(1, 12))
            matrices.append(rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, 12)))
        for _ in range(5):
            stripes = augment(random_scenario(rng, n_features=8, n_segments=6))
            matrices.append(tom(stripes, 2))
        for n in (1, 2, 12, 33, 57, 130):
            # rank deficient but for n = 1, columns scaled over 16 decades
            rank = max(1, n - max(1, n // 4))
            scales = rng.permutation(np.logspace(-8, 8, n))
            # n = 1 crosses at one row, so its row below is an empty M
            for rows in [r for r in crossover_rows(n) if r >= n]:
                low = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, n))
                matrices.append(low * scales)
        for M in matrices:
            assert M.shape[0] >= M.shape[1]
            np.testing.assert_array_equal(null_space(M), thin_svd_basis(M))

    def test_tall_matrix_svd_takes_its_r_factor(self, monkeypatch):
        # Q and the m x n U of a sweep-sized TOM are never formed
        handed = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            handed.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        matrix = sweep_sized_tom()
        assert matrix.shape == (1152, 57)
        null_space(matrix)
        assert [a.shape for a in handed] == [(57, 57)]
        below = matrix[: crossover_rows(57)[0]]
        null_space(below)
        assert len(handed) == 2 and handed[1] is below

    def test_wide_kernel_matches_reference(self):
        rng = np.random.default_rng(19)
        matrices = [lom(case2_segment1_stripe(), 2)]
        for _ in range(10):
            rows, rank = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            matrices.append(rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, 12)))
        for M in matrices:
            assert M.shape[0] < M.shape[1]
            basis = null_space(M)
            want = o_null_space(M)
            assert basis.shape[1] == want.shape[1] == M.shape[1] - o_rank(M)
            assert np.linalg.norm(M @ basis) <= 1e-10 * np.linalg.norm(M)
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
            np.testing.assert_allclose(
                basis @ basis.T, want @ want.T, atol=1e-12
            )

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="M must be a matrix"):
            null_space(np.ones(3))

    @pytest.mark.parametrize("rel_tol", [0.0, np.inf, np.nan])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        # an infinite tolerance would give rank 0 yet call every functional observable
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            null_space(np.eye(3), rel_tol)


class TestIsFunctionalObservable:
    def test_full_column_rank_sees_everything(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(8, 4))
        for _ in range(5):
            assert is_functional_observable(M, rng.normal(size=4))

    def test_zero_matrix_sees_nothing(self):
        assert not is_functional_observable(np.zeros((3, 5)), np.ones(5))

    def test_case2_position_minus_feature2_observable(self):
        matrix = tom(case2_stripes())
        w = np.zeros(15)
        w[0], w[12] = 1.0, -1.0  # north position error minus feature-2 north error
        assert is_functional_observable(matrix, w)
        alone = np.zeros(15)
        alone[0] = 1.0
        assert not is_functional_observable(matrix, alone)

    def test_every_row_is_observable(self):
        matrix = tom(case2_stripes())
        for row in matrix:
            if row.any():
                assert is_functional_observable(matrix, row)

    @pytest.mark.parametrize("M", [np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0])])
    def test_zero_functional_is_observable(self, M):
        # a zero w is in every row space, rank-deficient or not, with no 0/0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_functional_observable(M, np.zeros(4)) is True

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_functional_observable(np.eye(3), np.ones(4))


# name: (call, shape of an array to poison, field named in the error, an accepted input)
CHECKED = {
    "PwcsStripe.F": (lambda a: PwcsStripe(a, np.zeros((2, 4)), 1.0), (4, 4), "F", np.zeros((4, 4))),
    "PwcsStripe.H": (lambda a: PwcsStripe(np.zeros((4, 4)), a, 1.0), (2, 4), "H", np.zeros((0, 4))),
    "skew": (skew, (3,), "v", np.zeros(3)),
    "augmented_f": (lambda a: augmented_f(a, 12), (3,), "specific_force", np.zeros(3)),
    "state_transition": (lambda a: state_transition(a, 1.0), (4, 4), "F", np.zeros((4, 4))),
    "null_space": (null_space, (3, 4), "M", np.zeros((3, 4))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name", CHECKED)
def test_non_finite_entry_rejected(name, where, bad):
    call, shape, field, accepted = CHECKED[name]
    call(accepted)
    poisoned = np.zeros(shape)
    poisoned.flat[where] = bad
    with pytest.raises(ValueError, match=f"^{field} must contain only finite values$"):
        call(poisoned)


def test_oracle_rank_agrees_on_case2():
    matrix = tom(case2_stripes())
    assert numerical_rank(matrix) == o_rank(matrix)
