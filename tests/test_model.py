"""SLAM model construction: dynamics, observation rows, augmentation."""

import re

import numpy as np
import pytest

from oracles import o_aug_f, o_aug_h, o_feature_obs_row
from randgen import random_scenario, zero_components
from slamobs.analysis import case_scenario
from slamobs.model import (
    DetectionSchedule,
    Scenario,
    SegmentSpec,
    augment,
    equivalence_pad,
    feature_obs_row,
    feature_obs_rows,
    ins_error_f,
    state_labels,
)
from slamobs.pwcs import lom, numerical_rank, skew, state_transition, tom


class TestInsErrorState:
    """The vehicle error state is the 9-vector (dp, dv, psi)."""

    def test_ordering_matches_dynamics_coupling(self):
        # position derivative must pick up exactly the velocity block
        state = np.concatenate([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        rate = ins_error_f([0, 0, 9.81]) @ state
        np.testing.assert_array_equal(rate[0:3], [1, 2, 3])


class TestInsErrorF:
    def test_zero_force_only_velocity_coupling(self):
        F = ins_error_f([0, 0, 0])
        np.testing.assert_array_equal(F[0:3, 3:6], np.eye(3))
        F[0:3, 3:6] = 0.0
        assert not F.any()
        assert numerical_rank(ins_error_f([0, 0, 0])) == 3

    def test_vertical_force_is_nilpotent(self):
        F = ins_error_f([0, 0, 9.81])
        np.testing.assert_array_equal(F @ F @ F, np.zeros((9, 9)))

    def test_generic_force_rank_five(self):
        # identity block contributes 3, the cross-product block only 2
        assert numerical_rank(ins_error_f([0, 0.1, 9.81])) == 5

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ins_error_f([np.nan, 0, 0])


class TestFeatureObsRow:
    def test_zero_relative_position(self):
        H = feature_obs_row([0, 0, 0])
        np.testing.assert_array_equal(H[:, 0:3], -np.eye(3))
        H[:, 0:3] = 0.0
        assert not H.any()

    def test_skew_block(self):
        H = feature_obs_row([10, 0, -100])
        np.testing.assert_array_equal(H[:, 6:9], skew([10, 0, -100]))
        np.testing.assert_array_equal(H[:, 3:6], np.zeros((3, 3)))

    def test_batched_rows_match_oracle(self):
        rng = np.random.default_rng(5)
        rel = rng.normal(scale=100.0, size=(60, 3))
        rel[rng.random((60, 3)) < 0.3] = 0.0
        rel[0] = 0.0
        want = np.array([o_feature_obs_row(r) for r in rel])
        np.testing.assert_array_equal(feature_obs_rows(rel), want)
        for r, rows in zip(rel, want):
            np.testing.assert_array_equal(feature_obs_row(r), rows)

    def test_always_full_row_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert numerical_rank(feature_obs_row(rng.normal(scale=100, size=3))) == 3


class TestDetectionSchedule:
    def test_counts_and_bookkeeping(self):
        sched = DetectionSchedule(
            detected=np.array([[1, 1], [0, 1]], dtype=bool), feature_ids=("f1", "f2")
        )
        assert sched.n_features == 2
        assert sched.n_segments == 2

    def test_never_detected_feature_rejected(self):
        with pytest.raises(ValueError, match="never detected"):
            DetectionSchedule(detected=np.array([[1, 0], [0, 0]], dtype=bool))

    @pytest.mark.parametrize(
        "detected, ids, message",
        [
            ([1, 1], None, "detected must be a 2-d boolean array (features x segments)"),
            (np.zeros((2, 0), dtype=bool), None, "schedule must cover at least one segment"),
            ([[1], [1]], ("a",), "1 feature ids for 2 schedule rows"),
        ],
        ids=["1-d", "no segments", "id count"],
    )
    def test_shape_checks(self, detected, ids, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectionSchedule(detected=detected, feature_ids=ids)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DetectionSchedule(
                detected=np.array([[1], [1]], dtype=bool), feature_ids=("a", "a")
            )


class TestAugment:
    def test_case2_shape_and_zero_band(self):
        scenario = case_scenario(2)
        stripes = augment(scenario)
        assert stripes[0].n == 15
        assert [s.H.shape for s in stripes] == [(6, 15), (6, 15)]
        # feature 2 is not detected in segment 1: its band is all zero
        assert not stripes[0].H[3:6, :].any()
        assert stripes[0].H[0:3, :].any()

    def test_single_segment_single_feature(self):
        schedule = DetectionSchedule(detected=np.ones((1, 1), dtype=bool), feature_ids=("f1",))
        seg = SegmentSpec(
            duration=50.0,
            specific_force=[0, 0, 9.81],
            feature_rel_pos={"f1": [10, 0, -100]},
        )
        stripes = augment(Scenario(schedule, [seg]))
        assert stripes[0].n == 12
        H = stripes[0].H
        np.testing.assert_array_equal(H[:, 0:9], feature_obs_row([10, 0, -100]))
        np.testing.assert_array_equal(H[:, 9:12], np.eye(3))

    def test_all_features_every_segment(self):
        rng = np.random.default_rng(4)
        L, k = 3, 2
        schedule = DetectionSchedule(detected=np.ones((L, k), dtype=bool))
        segments = [
            SegmentSpec(
                duration=10.0,
                specific_force=rng.normal(size=3),
                feature_rel_pos={
                    fid: rng.normal(size=3) for fid in schedule.feature_ids
                },
            )
            for _ in range(k)
        ]
        stripes = augment(Scenario(schedule, segments))
        for stripe in stripes:
            for c in range(L):
                assert stripe.H[3 * c : 3 * c + 3].any()

    def test_stripes_match_oracle(self):
        rng = np.random.default_rng(71)
        zeroed = 0
        for _ in range(40):
            scenario = random_scenario(rng)
            zeroed += zero_components(rng, scenario)
            schedule, L = scenario.schedule, scenario.schedule.n_features
            stripes = augment(scenario)
            for i, (seg, stripe) in enumerate(zip(scenario.segments, stripes)):
                rel = {c: seg.feature_rel_pos[fid] for c, fid in schedule.features_in_segment(i)}
                np.testing.assert_array_equal(stripe.F, o_aug_f(seg.specific_force, L))
                np.testing.assert_array_equal(
                    stripe.H, np.reshape(o_aug_h(rel, set(rel), L), stripe.H.shape)
                )
        assert zeroed > 50

    def test_feature_rows_of_dynamics_are_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            stripes = augment(random_scenario(rng))
            for stripe in stripes:
                assert not stripe.F[9:, :].any()

    def test_transition_is_block_diagonal(self):
        # the augmented transition equals the inertial transition beside an
        # identity on the feature states
        scenario = case_scenario(2)
        stripes = augment(scenario)
        for stripe, seg in zip(stripes, scenario.segments):
            phi = state_transition(stripe.F, stripe.delta, "exact")
            expected = np.eye(15)
            expected[0:9, 0:9] = state_transition(
                ins_error_f(seg.specific_force), seg.duration, "exact"
            )
            np.testing.assert_allclose(phi, expected, atol=1e-12 * np.abs(expected).max())

    def test_schedule_segment_mismatch(self):
        scenario = case_scenario(2)
        with pytest.raises(ValueError, match="segments"):
            Scenario(scenario.schedule, scenario.segments[:1])

    def test_missing_relative_position(self):
        scenario = case_scenario(2)
        broken = SegmentSpec(
            duration=50.0, specific_force=[0, 0, 9.81], feature_rel_pos={}
        )
        with pytest.raises(ValueError, match="no relative position"):
            Scenario(scenario.schedule, [broken, scenario.segments[1]])

    def test_unscheduled_relative_position(self):
        scenario = case_scenario(2)
        seg = scenario.segments[0]
        broken = SegmentSpec(
            duration=seg.duration,
            specific_force=seg.specific_force,
            feature_rel_pos={"f1": seg.feature_rel_pos["f1"], "f2": [1, 2, 3]},
        )
        with pytest.raises(ValueError, match="unscheduled"):
            Scenario(scenario.schedule, [broken, scenario.segments[1]])

    def test_missing_position_error_quotes_id_once(self):
        schedule = DetectionSchedule(detected=[[True], [True]], feature_ids=("f1", "f2"))
        segment = SegmentSpec(1.0, [0, 0, 9.81], {"f1": [1, 2, 3]})
        with pytest.raises(ValueError, match=re.escape("scheduled feature(s) ['f2']")):
            Scenario(schedule, [segment])

    def test_unscheduled_position_error_quotes_id_once(self):
        schedule = DetectionSchedule(detected=[[True]], feature_ids=("f1",))
        segment = SegmentSpec(1.0, [0, 0, 9.81], {"f1": [1, 2, 3], "f2": [4, 5, 6]})
        with pytest.raises(ValueError, match=re.escape("unscheduled feature(s) ['f2']")):
            Scenario(schedule, [segment])

    def test_vehicle_only_scenario(self):
        schedule = DetectionSchedule(detected=np.zeros((0, 2), dtype=bool))
        segments = [
            SegmentSpec(duration=1.0, specific_force=[0, 0, 9.81]),
            SegmentSpec(duration=1.0, specific_force=[0, 1, 9.81]),
        ]
        stripes = augment(Scenario(schedule, segments))
        assert stripes[0].n == 9
        assert all(s.H.shape == (0, 9) for s in stripes)
        assert numerical_rank(tom(stripes)) == 0

    def test_state_labels(self):
        labels = state_labels(("f1", "f2"))
        assert len(labels) == 15
        assert labels[0] == "dp_N"
        assert labels[8] == "psi_U"
        assert labels[9] == "dm_f1_N"
        assert labels[14] == "dm_f2_U"


def _zero_forces(rng, scenario, share=0.3):
    """Set a random share of the scenario's force components to 0.0, in place; the count."""
    zeroed = 0
    for seg in scenario.segments:
        mask = rng.random(3) < share
        seg.specific_force[mask] = 0.0
        zeroed += int(mask.sum())
    return zeroed


def _per_segment_stripes(scenario):
    """(F, H, delta) of each segment, built one at a time with ``skew``."""
    schedule = scenario.schedule
    L = schedule.n_features
    n = 9 + 3 * L
    out = []
    for i, seg in enumerate(scenario.segments):
        F = np.zeros((n, n))
        F[0:3, 3:6] = np.eye(3)
        F[3:6, 6:9] = skew(seg.specific_force)
        H = np.zeros((L, 3, n))
        for c, fid in schedule.features_in_segment(i):
            H[c, :, 0:3] = -np.eye(3)
            H[c, :, 6:9] = skew(seg.feature_rel_pos[fid])
            H[c, :, 9 + 3 * c : 12 + 3 * c] = np.eye(3)
        out.append((F, H.reshape(3 * L, n), seg.duration))
    return out


class TestBatchedAugment:
    """``augment`` builds all segments in one pass with the bits of a per-segment loop."""

    @pytest.mark.parametrize("L", range(1, 17))
    def test_stripes_equal_per_segment_loop_bitwise(self, L):
        rng = np.random.default_rng(100 + L)
        negative_zeros = featureless = 0
        for S in range(1, 9):
            scenario = random_scenario(rng, n_features=L, n_segments=S)
            _zero_forces(rng, scenario)
            zero_components(rng, scenario)
            stripes = augment(scenario)
            assert len(stripes) == S
            for stripe, (F, H, delta) in zip(stripes, _per_segment_stripes(scenario)):
                assert stripe.F.shape == F.shape and stripe.H.shape == H.shape
                # uint64 views tell -0.0 from 0.0
                np.testing.assert_array_equal(stripe.F.view(np.uint64), F.view(np.uint64))
                np.testing.assert_array_equal(stripe.H.view(np.uint64), H.view(np.uint64))
                assert stripe.delta == delta
                negative_zeros += int(np.count_nonzero((F == 0) & np.signbit(F)))
                featureless += not H.any()
        assert negative_zeros > 0
        if L < 4:
            assert featureless > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_non_finite_force_set_after_construction(self, bad):
        scenario = case_scenario(2)
        scenario.segments[1].specific_force[2] = bad
        with pytest.raises(ValueError, match="^specific_force must contain only finite values$"):
            augment(scenario)


class TestEquivalencePad:
    def test_zero_padding_is_identity(self):
        stripe = augment(case_scenario(2))[0]
        padded = equivalence_pad(stripe, 0)
        np.testing.assert_array_equal(padded.F, stripe.F)
        np.testing.assert_array_equal(padded.H, stripe.H)
        assert padded.delta == stripe.delta

    def test_padding_preserves_lom_rank(self):
        stripe = augment(case_scenario(2))[0]
        want = numerical_rank(lom(stripe))
        padded = equivalence_pad(stripe, 3)
        assert padded.n == stripe.n + 3
        assert numerical_rank(lom(padded)) == want

    def test_case2_padded_with_ghost_feature(self):
        stripes = augment(case_scenario(2))
        padded = [equivalence_pad(s, 3) for s in stripes]
        matrix = tom(padded)
        assert matrix.shape[1] == 18
        assert numerical_rank(matrix) == 12
        assert matrix.shape[1] - numerical_rank(matrix) == 6

    def test_padding_preserves_rank_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            scenario = random_scenario(rng)
            stripes = augment(scenario)
            extra = int(rng.integers(1, 4)) * 3
            base_rank = numerical_rank(tom(stripes))
            padded_rank = numerical_rank(
                tom([equivalence_pad(s, extra) for s in stripes])
            )
            assert padded_rank == base_rank
            lom_base = numerical_rank(lom(stripes[0]))
            lom_padded = numerical_rank(lom(equivalence_pad(stripes[0], extra)))
            assert lom_padded == lom_base

    def test_negative_padding_rejected(self):
        stripe = augment(case_scenario(2))[0]
        with pytest.raises(ValueError):
            equivalence_pad(stripe, -1)

    @pytest.mark.parametrize("extra", [np.inf, np.nan])
    def test_non_finite_padding_rejected(self, extra):
        stripe = augment(case_scenario(2))[0]
        with pytest.raises(ValueError, match="extra_states must be a non-negative integer"):
            equivalence_pad(stripe, extra)


class TestScenario:
    @pytest.mark.parametrize("delta", [0.0, -1.0, np.inf])
    def test_non_positive_duration(self, delta):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            SegmentSpec(duration=delta, specific_force=[0, 0, 9.81])
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            case_scenario(2, delta=delta)

    def test_validates_on_construction(self):
        scenario = case_scenario(2)
        with pytest.raises(ValueError):
            Scenario(schedule=scenario.schedule, segments=scenario.segments[:1])

    def test_properties(self):
        scenario = case_scenario(3)
        assert scenario.n_segments == 2
        assert scenario.feature_ids == ("f1", "f2")
