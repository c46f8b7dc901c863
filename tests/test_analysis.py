"""Observability reports: ranks, null spaces, mode classification."""

import numpy as np
import pytest

from oracles import o_aug_f, o_aug_h, o_exact_observability, o_lom, o_standard_candidates
from randgen import random_scenario, zero_components
from test_acceptance import scenario_to_oracle_stripes
from slamobs import pwcs
from slamobs.analysis import (
    MAX_POWER,
    AnalysisOptions,
    CandidateFunctional,
    analyze_case,
    analyze_local,
    analyze_total,
    case_scenario,
    standard_candidates,
    standard_weights,
)
from slamobs.model import DetectionSchedule, Scenario, SegmentSpec, augment
from slamobs.pwcs import is_functional_observable, lom, tom


def axes_of(report, base):
    return [report.verdict(f"{base}_{axis}").observable for axis in ("N", "E", "U")]


class TestAnalyzeLocal:
    def test_case2_segment1_rank_eight_velocity_only(self):
        report = analyze_local(case_scenario(2), 0)
        assert (report.rank, report.matrix_cols) == (8, 12)
        assert report.scope == "local"
        assert report.segment_index == 0
        assert report.observable_modes() == ["dv"]
        # under a vertical force the horizontal attitude axes are observable
        # but yaw is not, so the attitude mode as a whole fails
        assert axes_of(report, "psi") == [True, True, False]
        assert axes_of(report, "dp") == [False, False, False]

    def test_zero_force_drops_attitude_rows(self):
        scenario = case_scenario(2, forces=([0, 0, 0], [0, 0.1, 9.81]))
        report = analyze_local(scenario, 0)
        assert report.rank == 6
        assert report.observable_modes() == ["dv"]
        assert axes_of(report, "psi") == [False, False, False]

    def test_vehicle_only_segment(self):
        schedule = DetectionSchedule(detected=np.array([[True, False]]), feature_ids=("f1",))
        segments = [
            SegmentSpec(duration=1.0, specific_force=[0, 0, 9.81], feature_rel_pos={"f1": [5, 5, -50]}),
            SegmentSpec(duration=1.0, specific_force=[0, 1, 9.81]),
        ]
        scenario = Scenario(schedule=schedule, segments=segments)
        report = analyze_local(scenario, 1)
        assert (report.matrix_rows, report.matrix_cols) == (0, 9)
        assert report.rank == 0
        assert report.nullity == 9
        assert report.state_labels == [f"{b}_{a}" for b in ("dp", "dv", "psi") for a in "NEU"]
        assert [v.label for v in report.mode_results] == report.state_labels
        assert report.observable_modes() == []
        assert not any(v.observable for v in report.mode_results)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            analyze_local(case_scenario(2), 2)

    def test_local_stripe_matches_oracle(self, monkeypatch):
        """The one stripe a local report stacks, seen where ``tom`` calls ``pwcs.lom``."""
        stacked = []

        def recording_lom(stripe, max_power):
            stacked.append((stripe, lom(stripe, max_power)))
            return stacked[-1][1]

        monkeypatch.setattr(pwcs, "lom", recording_lom)
        rng = np.random.default_rng(73)
        zeroed = 0
        for _ in range(30):
            scenario = random_scenario(rng)
            zeroed += zero_components(rng, scenario)
            for i, seg in enumerate(scenario.segments):
                stacked.clear()
                report = analyze_local(scenario, i)
                ((stripe, matrix),) = stacked
                ids = [fid for _, fid in scenario.schedule.features_in_segment(i)]
                k, n = len(ids), 9 + 3 * len(ids)
                rel = {c: seg.feature_rel_pos[fid] for c, fid in enumerate(ids)}
                F, H = o_aug_f(seg.specific_force, k), o_aug_h(rel, set(rel), k)
                np.testing.assert_array_equal(stripe.F, F)
                np.testing.assert_array_equal(stripe.H, np.reshape(H, (3 * k, n)))
                want = np.reshape(o_lom(H, F, 2), (9 * k, n))
                np.testing.assert_array_equal(matrix, want)
                assert report.matrix_rows == 9 * k
                assert report.state_labels[9:] == [f"dm_{fid}_{a}" for fid in ids for a in "NEU"]
        assert zeroed > 30


class TestAnalyzeTotal:
    def test_case2_rank_and_modes(self):
        report = analyze_total(case_scenario(2))
        assert (report.rank, report.matrix_cols, report.nullity) == (12, 15, 3)
        for base in ("dv", "psi", "dp-dm_f2", "dm_f1-dm_f2"):
            assert axes_of(report, base) == [True, True, True], base
        for base in ("dp", "dm_f1", "dm_f2"):
            assert axes_of(report, base) == [False, False, False], base

    def test_parallel_forces_degrade_rank(self):
        # regression fixture: with both segment forces vertical and a single
        # vantage point the yaw direction stays entangled, rank drops to 11
        scenario = case_scenario(2, forces=([0, 0, 9.81], [0, 0, 9.81]))
        report = analyze_total(scenario)
        assert report.rank == 11
        assert report.rank < 12

    def test_single_segment_equals_local(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            scenario = random_scenario(rng, n_segments=1)
            total = analyze_total(scenario)
            local = analyze_local(scenario, 0)
            assert total.rank == local.rank
            assert total.nullity == local.nullity
            assert total.matrix_cols == local.matrix_cols
            assert [(v.label, v.observable) for v in total.mode_results] == [
                (v.label, v.observable) for v in local.mode_results
            ]

    def test_extra_candidates_are_classified(self):
        w = np.zeros(15)
        w[9], w[12] = 1.0, -1.0
        options = AnalysisOptions(
            extra_candidates=(CandidateFunctional(label="baseline_N", weights=w),)
        )
        report = analyze_total(case_scenario(2), options)
        assert report.verdict("baseline_N").observable

    def test_first_order_matches_exact_rank_on_cases(self):
        for case_id in (1, 2, 3, 4):
            exact = analyze_case(case_id, options=AnalysisOptions(expansion_mode="exact"))
            first = analyze_case(
                case_id, options=AnalysisOptions(expansion_mode="first_order")
            )
            assert exact.rank == first.rank == 12
            assert exact.nullity == first.nullity == 3


class TestAnalyzeCase:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_all_cases_rank_twelve(self, case_id):
        report = analyze_case(case_id)
        assert (report.rank, report.matrix_cols, report.nullity) == (12, 15, 3)

    def test_case1_schedule_pattern(self):
        scenario = case_scenario(1)
        np.testing.assert_array_equal(
            scenario.schedule.detected, np.array([[True, False], [False, True]])
        )

    def test_invalid_case_id(self):
        with pytest.raises(ValueError):
            analyze_case(5)


class TestStandardCandidates:
    def test_counts(self):
        assert len(standard_candidates(0)) == 9
        assert len(standard_candidates(2)) == 24
        assert len(standard_candidates(3)) == 9 + 9 + 9 + 9

    def test_single_feature_difference_present(self):
        labels = [c.label for c in standard_candidates(1)]
        for axis in ("N", "E", "U"):
            assert f"dp-dm_1_{axis}" in labels

    def test_accepts_feature_ids(self):
        labels = [c.label for c in standard_candidates(("a", "b"))]
        assert "dm_a-dm_b_N" in labels

    def test_weights_are_unit_differences(self):
        for cand in standard_candidates(2):
            assert cand.weights.any()
            assert set(np.unique(cand.weights)) <= {-1.0, 0.0, 1.0}


class TestStandardWeights:
    @pytest.mark.parametrize("features", [0, 1, 2, 5, ("a", "b", "c")])
    def test_matches_loop_reference(self, features):
        labels, weights = standard_weights(features)
        want_labels, want_weights = o_standard_candidates(features)
        assert labels == want_labels
        np.testing.assert_array_equal(weights, np.array(want_weights))

    def test_candidates_wrap_the_rows(self):
        labels, weights = standard_weights(("a", "b"))
        candidates = standard_candidates(("a", "b"))
        assert [c.label for c in candidates] == labels
        np.testing.assert_array_equal([c.weights for c in candidates], weights)


def _total_matrix(scenario, options):
    system = augment(scenario.schedule, scenario.segments)
    return tom(system.stripes, MAX_POWER, options.expansion_mode)


def _random_reports(seed, count):
    """(report, matrix, weights) of random scenarios, both expansions, with extra rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        scenario = random_scenario(rng)
        n = 9 + 3 * scenario.schedule.n_features
        extra = tuple(
            CandidateFunctional(label=f"x{j}", weights=rng.normal(size=n)) for j in range(3)
        )
        for mode in ("exact", "first_order"):
            options = AnalysisOptions(expansion_mode=mode, extra_candidates=extra)
            report = analyze_total(scenario, options)
            _, standard = o_standard_candidates(scenario.schedule.feature_ids)
            weights = np.vstack([standard] + [c.weights for c in extra])
            yield report, _total_matrix(scenario, options), weights


class TestBatchedClassification:
    def test_verdicts_agree_with_per_functional_test(self):
        for report, matrix, weights in _random_reports(59, 25):
            assert len(report.mode_results) == len(weights)
            for verdict, w in zip(report.mode_results, weights):
                assert verdict.observable == is_functional_observable(matrix, w)

    def test_null_projection_matches_per_vector(self):
        for report, _, weights in _random_reports(61, 25):
            N = report.null_basis.vectors
            for verdict, w in zip(report.mode_results, weights):
                want = np.linalg.norm(N @ (N.T @ w)) / np.linalg.norm(w)
                assert abs(verdict.null_projection - want) <= 1e-15


class TestProperties:
    def test_nullity_floor_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            report = analyze_total(random_scenario(rng))
            assert report.nullity >= 3

    def test_rank_monotone_in_segments(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            scenario = random_scenario(rng)
            rank_before = analyze_total(scenario).rank
            # append one more segment observing a random subset of the same
            # features (possibly none)
            L = scenario.schedule.n_features
            extra_col = rng.random(L) < 0.6
            detected = np.column_stack([scenario.schedule.detected, extra_col])
            schedule = DetectionSchedule(
                detected=detected, feature_ids=scenario.schedule.feature_ids
            )
            rel = {
                fid: rng.normal(scale=50.0, size=3)
                for c, fid in enumerate(schedule.feature_ids)
                if extra_col[c]
            }
            segments = scenario.segments + [
                SegmentSpec(
                    duration=float(rng.uniform(1, 50)),
                    specific_force=rng.normal(scale=5, size=3),
                    feature_rel_pos=rel,
                )
            ]
            rank_after = analyze_total(Scenario(schedule=schedule, segments=segments)).rank
            assert rank_after >= rank_before

    def test_mode_projection_consistency(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            report = analyze_total(random_scenario(rng))
            for verdict in report.mode_results:
                if verdict.observable:
                    assert verdict.null_projection <= 1e-10
                else:
                    assert verdict.null_projection >= 1e-6

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            report = analyze_total(random_scenario(rng))
            assert report.rank + report.nullity == report.matrix_cols


class TestExactOracle:
    """Rank and every standard verdict against the tolerance-free modular oracle."""

    @staticmethod
    def _check(scenario):
        report = analyze_total(scenario)
        labels, weights = o_standard_candidates(scenario.schedule.feature_ids)
        rank, observable = o_exact_observability(scenario_to_oracle_stripes(scenario), weights)
        assert report.rank == rank
        assert [report.verdict(label).observable for label in labels] == observable
        return rank, observable

    def test_case2(self):
        rank, observable = self._check(case_scenario(2))
        assert rank == 12
        assert 0 < sum(observable) < len(observable)

    def test_random_scenarios(self):
        rng = np.random.default_rng(2039)
        nullities = []
        for k in range(60):
            scenario = random_scenario(rng)
            if k % 4 == 1:
                zero_components(rng, scenario)
            elif k % 4 == 2:  # vertical forces leave the yaw error unobservable
                for seg in scenario.segments:
                    seg.specific_force[:2] = 0.0
            rank, _ = self._check(scenario)
            nullities.append(9 + 3 * scenario.schedule.n_features - rank)
        assert set(nullities) == {3, 4}
