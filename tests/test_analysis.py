"""Observability reports: ranks, null spaces, mode classification."""

import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    o_aug_f,
    o_aug_h,
    o_exact_observability,
    o_lom,
    o_standard_candidates,
    scenario_to_oracle_stripes,
)
from randgen import random_scenario, zero_components
from slamobs import pwcs
from slamobs.analysis import (
    MAX_POWER,
    AnalysisOptions,
    CandidateFunctional,
    _build_report,
    analyze_local,
    analyze_total,
    case_scenario,
    standard_candidates,
)
from slamobs.cli import report_to_dict
from slamobs.model import DetectionSchedule, Scenario, SegmentSpec, augment, standard_differences
from slamobs.pwcs import is_functional_observable, lom, tom


def sweep_scenario(seed, k):
    """The k-th scenario of a benchmark sweep run (``perfbench/gen.py``)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen

    return gen.sweep_input(seed, k)[0]


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
        message = "segment index 2 out of range (scenario has 2 segments)"
        with pytest.raises(IndexError, match=re.escape(message)):
            analyze_local(case_scenario(2), 2)

    @pytest.mark.parametrize("index", [True, False, 1.0, 1.5, "1"], ids=repr)
    def test_non_integer_index_is_a_type_error(self, index):
        with pytest.raises(TypeError, match="^segment_index must be an integer, got "):
            analyze_local(case_scenario(2), index)

    def test_numpy_integer_index(self):
        scenario = case_scenario(2)
        want = analyze_local(scenario, 1)
        got = analyze_local(scenario, np.int64(1))
        assert report_to_dict(got, "case2") == report_to_dict(want, "case2")

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


def _one_segment_stripe(scenario, i):
    """(ids, stripe): ``augment`` of the one-segment scenario of segment i's features."""
    ids = [fid for _, fid in scenario.schedule.features_in_segment(i)]
    schedule = DetectionSchedule(np.ones((len(ids), 1), dtype=bool), ids)
    (stripe,) = augment(Scenario(schedule, [scenario.segments[i]]))
    return ids, stripe


class TestDirectLocalStripe:
    """A local report's stripe, built straight from the segment, has the bits of the
    one-segment scenario's ``augment`` stripe, and so does the whole report."""

    def test_stripe_equals_one_segment_augment_bitwise(self, monkeypatch):
        stacked = []

        def recording_lom(stripe, max_power):
            stacked.append(stripe)
            return lom(stripe, max_power)

        monkeypatch.setattr(pwcs, "lom", recording_lom)
        rng = np.random.default_rng(79)
        featureless = 0
        for _ in range(30):
            scenario = random_scenario(rng)
            zero_components(rng, scenario)
            for i in range(scenario.n_segments):
                stacked.clear()
                analyze_local(scenario, i)
                (got,) = stacked
                _, want = _one_segment_stripe(scenario, i)
                assert (got.F.shape, got.H.shape, got.delta) == (want.F.shape, want.H.shape, want.delta)
                np.testing.assert_array_equal(got.F.view(np.uint64), want.F.view(np.uint64))
                np.testing.assert_array_equal(got.H.view(np.uint64), want.H.view(np.uint64))
                featureless += not want.H.size
        assert featureless > 0

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    def test_report_json_equals_one_segment_path(self, mode):
        rng = np.random.default_rng(83)
        for k in range(30):
            scenario = random_scenario(rng)
            zero_components(rng, scenario)
            for i in range(scenario.n_segments):
                n = 9 + 3 * int(scenario.schedule.detected[:, i].sum())
                extra = (CandidateFunctional("x", rng.normal(size=n)),)
                options = AnalysisOptions(expansion_mode=mode, extra_candidates=extra)
                ids, stripe = _one_segment_stripe(scenario, i)
                want = _build_report([stripe], ids, "local", i, options)
                got = analyze_local(scenario, i, options)
                dump = [json.dumps(report_to_dict(r, str(k)), indent=2) for r in (got, want)]
                assert dump[0] == dump[1]


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

    def test_verdicts_are_shared_objects(self):
        """``verdict`` hands out the report's own entries, so a caller's change to one persists."""
        w = np.zeros(15)
        w[9], w[12] = 1.0, -1.0
        options = AnalysisOptions(
            extra_candidates=(CandidateFunctional(label="baseline_N", weights=w),)
        )
        report = analyze_total(case_scenario(2), options)
        labels = [c.label for c in standard_candidates(case_scenario(2).schedule.feature_ids)]
        assert [v.label for v in report.mode_results] == labels + ["baseline_N"]
        modes = ["dv", "psi", "dp-dm_f1", "dp-dm_f2", "dm_f1-dm_f2", "baseline"]
        assert report.observable_modes() == modes
        for v in report.mode_results:
            assert report.verdict(v.label) is v
        assert report.verdict("baseline_N") is report.verdict("baseline_N")
        for axis in "NEU":
            report.verdict(f"dp_{axis}").observable = True
        assert report.verdict("dp_E").observable
        assert report.observable_modes() == ["dp"] + modes
        report.rank += 1
        assert report.rank == 13
        with pytest.raises(KeyError):
            report.verdict("rigid_N")

    def test_mis_sized_extra_candidate_raises(self):
        """A total report names an extra not sized for its state; a local report skips it."""
        extra = (CandidateFunctional("typo", np.ones(14)),)
        with pytest.raises(ValueError, match="candidate 'typo' has 14 weights, not 15"):
            analyze_total(case_scenario(2), AnalysisOptions(extra_candidates=extra))
        local = analyze_local(case_scenario(2), 0, AnalysisOptions(extra_candidates=extra))
        assert local.matrix_cols == 12
        assert "typo" not in [v.label for v in local.mode_results]

    def test_large_report_builds_no_dense_weight_matrix(self):
        """An L = 100, two-segment total report peaks under 40 MB of traced memory.

        Its 15,459 standard candidates would take 38 MB as one dense weight
        matrix, and the report reads them off the null basis instead.
        """
        scenario = random_scenario(np.random.default_rng(71), n_features=100, n_segments=2)
        tracemalloc.start()
        try:
            report = analyze_total(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.matrix_cols, len(report.mode_results)) == (309, 15459)
        assert peak < 40e6

    def test_first_order_matches_exact_rank_on_cases(self):
        for case_id in (1, 2, 3, 4):
            scenario = case_scenario(case_id)
            exact = analyze_total(scenario, AnalysisOptions(expansion_mode="exact"))
            first = analyze_total(scenario, AnalysisOptions(expansion_mode="first_order"))
            assert exact.rank == first.rank == 12
            assert exact.nullity == first.nullity == 3

    @pytest.mark.parametrize("rank_tol", [0.0, np.inf, np.nan])
    def test_rank_tol_must_be_positive_and_finite(self, rank_tol):
        with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
            AnalysisOptions(rank_tol=rank_tol)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CandidateFunctional("w", [[1.0, 0.0]]), "weights must be a vector"),
            (lambda: CandidateFunctional("w", [0.0, 0.0]), "weights must be nonzero"),
            (
                lambda: AnalysisOptions(expansion_mode="bogus"),
                "expansion_mode must be 'exact' or 'first_order', got 'bogus'",
            ),
            (
                lambda: case_scenario(2, forces=[(0.0, 0.0, 9.81)] * 3),
                "exactly two segment forces are required",
            ),
        ],
        ids=["2-d weights", "zero weights", "expansion mode", "three forces"],
    )
    def test_input_check_messages(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_overflowing_matrix_is_an_input_error(self):
        """Durations that overflow the stacked transitions fail with one message, no warning."""
        message = (
            "the observability matrix overflows: "
            "the segment durations and specific forces are too large"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_total(case_scenario(2, delta=1e200))


class TestAnalyzeCase:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_all_cases_rank_twelve(self, case_id):
        report = analyze_total(case_scenario(case_id))
        assert (report.rank, report.matrix_cols, report.nullity) == (12, 15, 3)

    def test_case1_schedule_pattern(self):
        scenario = case_scenario(1)
        np.testing.assert_array_equal(
            scenario.schedule.detected, np.array([[True, False], [False, True]])
        )

    def test_invalid_case_id(self):
        with pytest.raises(ValueError):
            case_scenario(5)


class TestStandardCandidates:
    def test_counts(self):
        assert len(standard_candidates(())) == 9
        assert len(standard_candidates(("1", "2"))) == 24
        assert len(standard_candidates(("1", "2", "3"))) == 9 + 9 + 9 + 9

    def test_single_feature_difference_present(self):
        labels = [c.label for c in standard_candidates(("1",))]
        for axis in ("N", "E", "U"):
            assert f"dp-dm_1_{axis}" in labels

    def test_accepts_feature_ids(self):
        labels = [c.label for c in standard_candidates(("a", "b"))]
        assert "dm_a-dm_b_N" in labels

    def test_weights_are_unit_differences(self):
        for cand in standard_candidates(("1", "2")):
            assert cand.weights.any()
            assert set(np.unique(cand.weights)) <= {-1.0, 0.0, 1.0}


def _stacked(candidates):
    """(labels, weights) of a list of candidate functionals."""
    return [c.label for c in candidates], np.array([c.weights for c in candidates])


class TestStandardWeights:
    """The rows of ``standard_candidates`` against the one-vector-at-a-time reference."""

    @pytest.mark.parametrize(
        "features",
        [(), ("1",), ("1", "2"), ("1", "2", "3", "4", "5"), ("a", "b", "c")],
        ids=["0", "1", "2", "5", "features4"],
    )
    def test_matches_loop_reference(self, features):
        labels, weights = _stacked(standard_candidates(features))
        want_labels, want_weights = o_standard_candidates(features)
        assert labels == want_labels
        assert weights.tobytes() == np.array(want_weights).tobytes()

    def test_shared_layout_is_read_only(self):
        """The difference layout is built once per feature count; callers cannot change it."""
        candidates = standard_candidates(("a", "b"))
        differences, plus, minus = standard_differences(("a", "b"))
        for array in (plus, minus):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        differences.append("x")
        candidates[0].label = "x"
        candidates[0].weights[0] = 7.0
        candidates[-1].weights[:] = 7.0
        want_labels, want_weights = o_standard_candidates(("a", "b"))
        again_labels, again = _stacked(standard_candidates(("a", "b")))
        assert again_labels == want_labels
        np.testing.assert_array_equal(again, np.array(want_weights))
        assert standard_differences(("a", "b"))[0] == want_labels[15:]

    def test_candidates_wrap_the_rows(self):
        """A report's standard verdicts are those of the candidates' rows, label for label."""
        scenario = case_scenario(2)
        report = analyze_total(scenario)
        labels, weights = _stacked(standard_candidates(scenario.schedule.feature_ids))
        assert [v.label for v in report.mode_results] == labels
        want = pwcs.null_projections(report.null_basis, weights)
        assert [v.null_projection for v in report.mode_results] == want.tolist()


def _total_matrix(scenario, options):
    stripes = augment(scenario)
    return tom(stripes, MAX_POWER, options.expansion_mode)


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
            N = report.null_basis
            for verdict, w in zip(report.mode_results, weights):
                want = np.linalg.norm(N @ (N.T @ w)) / np.linalg.norm(w)
                assert abs(verdict.null_projection - want) <= 1e-15


    def test_standard_projections_read_off_the_basis_bit_for_bit(self):
        """Each standard null projection has the bits of the product with its dense row.

        A report reads a unit functional off one row of N and a difference off
        one subtraction of two rows; the product with the dense row adds only
        exact zeros to those, in any summation order.  Total and local reports
        in both expansions, each with one extra candidate, including local
        reports of segments that detect no feature.
        """
        rng = np.random.default_rng(67)
        featureless = 0
        for _ in range(25):
            scenario = random_scenario(rng)
            systems = [(None, scenario.schedule.feature_ids)] + [
                (i, [fid for _, fid in scenario.schedule.features_in_segment(i)])
                for i in range(scenario.n_segments)
            ]
            for mode in ("exact", "first_order"):
                for segment, ids in systems:
                    extra = (CandidateFunctional("x", rng.normal(size=9 + 3 * len(ids))),)
                    options = AnalysisOptions(expansion_mode=mode, extra_candidates=extra)
                    if segment is None:
                        report = analyze_total(scenario, options)
                    else:
                        report = analyze_local(scenario, segment, options)
                    labels, weights = o_standard_candidates(ids)
                    assert [v.label for v in report.mode_results] == labels + ["x"]
                    got = np.array([v.null_projection for v in report.mode_results[:-1]])
                    want = pwcs.null_projections(report.null_basis, np.array(weights))
                    assert got.tobytes() == want.tobytes()
                    featureless += not ids
        assert featureless > 0


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

    # Known wrong answers: the SVD of the unscaled total observability matrix
    # misplaces its null basis by about eps * s_1 / s_r, which lands above the
    # rank tolerance. The mark documents the defect and hides nothing: it is
    # strict, so the fix turns these cases into failures until it is removed.
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="documents a known defect and hides nothing: the unscaled SVD gives "
        "a wrong rank or wrong verdicts here",
    )
    @pytest.mark.parametrize(
        "make",
        [
            # rank 11 of the oracle's 12, 9 of 24 verdicts wrong
            pytest.param(lambda: case_scenario(2, delta=1e4), id="case2-delta-1e4"),
            # rank 4, 15 verdicts wrong
            pytest.param(lambda: case_scenario(2, delta=1e5), id="case2-delta-1e5"),
            # rank 11, 9 verdicts wrong
            pytest.param(
                lambda: case_scenario(2, forces=((0.0, 0.0, 9.81), (0.0, 1e-5, 9.81))),
                id="case2-tilt-1e-5",
            ),
            # L = 16, S = 8: rank right at 54, 6 of 465 verdicts wrong
            pytest.param(lambda: sweep_scenario(906, 11), id="sweep-906-11"),
        ],
    )
    def test_known_wrong_answers(self, make):
        self._check(make())
