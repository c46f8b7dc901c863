"""Scenario file parsing, validation and round-tripping."""

import importlib.resources

import numpy as np
import pytest
import yaml

from slamobs.analysis import analyze_total
from slamobs.scenario import ScenarioError, dump_scenario, load_scenario, parse_scenario

BUNDLED = ("case2.yaml", "case2_segment1.yaml", "case2_flight.yaml")


def bundled_path(name):
    return str(importlib.resources.files("slamobs") / "scenarios" / name)


MINIMAL = """
name: minimal
schedule:
  detected:
    f1: [1]
segments:
  - duration: 10.0
    specific_force: [0.0, 0.0, 9.81]
    rel:
      f1: [5.0, 0.0, -50.0]
"""


class TestBundledScenarios:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_parses(self, name):
        doc = load_scenario(bundled_path(name))
        assert doc.scenario.n_segments >= 1

    @pytest.mark.parametrize("name", BUNDLED)
    def test_round_trip(self, name):
        doc = load_scenario(bundled_path(name))
        text = dump_scenario(doc)
        again = parse_scenario(text)
        assert doc.to_dict() == again.to_dict()
        assert dump_scenario(again) == text

    def test_case2_analysis_values(self):
        doc = load_scenario(bundled_path("case2.yaml"))
        report = analyze_total(doc.scenario, doc.options)
        assert (report.rank, report.nullity) == (12, 3)

    def test_flight_has_simulation_sections(self):
        doc = load_scenario(bundled_path("case2_flight.yaml"))
        doc.require_simulation_sections()
        assert doc.sensor.frame_rate_hz == 25.0
        assert doc.trajectory.total_duration == 100.0
        np.testing.assert_array_equal(
            doc.vehicle_variances, [1, 1, 1, 1, 1, 1, 0.0873, 0.0873, 0.0873]
        )
        assert doc.feature_prior == 1e9
        # relative positions are derived from the trajectory at segment starts
        np.testing.assert_allclose(
            doc.scenario.segments[1].feature_rel_pos["f1"], [5.0, 0.0, -100.0]
        )
        labels = [c.label for c in doc.options.extra_candidates]
        assert labels == ["north_baseline"]


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario(MINIMAL)
        assert doc.name == "minimal"
        assert doc.schedule_mode == "explicit"
        assert doc.trajectory is None
        assert doc.sensor is None

    def test_stddev_interpretation_squares_entries(self):
        text = MINIMAL + (
            "initial_covariance:\n"
            "  vehicle_diag: [1, 1, 1, 2, 2, 2, 0.0873, 0.0873, 0.0873]\n"
            "  interpretation: stddev\n"
        )
        doc = parse_scenario(text)
        np.testing.assert_allclose(doc.vehicle_variances[3:6], [4.0, 4.0, 4.0])
        np.testing.assert_allclose(doc.vehicle_variances[6], 0.0873**2)

    def test_auto_schedule_from_fov(self):
        doc = load_scenario(bundled_path("case2_flight.yaml"))
        text = dump_scenario(doc).replace(
            "schedule:\n  detected:\n    f1:\n    - 1\n    - 1\n    f2:\n    - 0\n    - 1",
            "schedule: auto",
        )
        auto = parse_scenario(text)
        assert auto.schedule_mode == "auto"
        np.testing.assert_array_equal(
            auto.scenario.schedule.detected, np.array([[True, True], [False, True]])
        )

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.yaml")


#: One misspelt key per scenario section, with the field path the parser must report.
UNKNOWN_FIELDS = [
    (lambda d: d.update(gravty=9.8), "gravty"),
    (lambda d: d["options"].update(ranktol=1e-9), "options.ranktol"),
    (lambda d: d["segments"][1].update(durtion=5.0), "segments[1].durtion"),
    (lambda d: d["trajectory"].update(a0=[0, 0, 0]), "trajectory.a0"),
    (lambda d: d["sensor"].update(imu_hz=100.0), "sensor.imu_hz"),
    (lambda d: d["schedule"].update(mode="explicit"), "schedule.mode"),
    (lambda d: d["initial_covariance"].update(featur_prior=1.0), "initial_covariance.featur_prior"),
    (
        lambda d: d.update(candidates=[{"label": "x", "weights": {"dp": [1, 0, 0]}, "lable": "y"}]),
        "candidates[0].lable",
    ),
]


class TestValidationErrors:
    @pytest.mark.parametrize(
        "mutation, field",
        [
            (lambda d: d.pop("segments"), "segments"),
            (lambda d: d.pop("schedule"), "schedule"),
            (lambda d: d["segments"][0].update(duration=-1.0), "segments[0].duration"),
            (
                lambda d: d["segments"][0].update(specific_force=[1.0, 2.0]),
                "segments[0].specific_force",
            ),
            (
                lambda d: d["segments"][0]["rel"].update(f9=[0.0, 0.0, 0.0]),
                "segments[0].rel.f9",
            ),
            (
                lambda d: d["schedule"]["detected"].update(f1=[2]),
                "schedule.detected.f1[0]",
            ),
            (
                lambda d: d.update(options={"expansion": "sometimes"}),
                "options.expansion",
            ),
            (
                lambda d: d.update(
                    initial_covariance={"vehicle_diag": [1, 2, 3]}
                ),
                "initial_covariance.vehicle_diag",
            ),
            (
                lambda d: d.update(
                    candidates=[{"label": "x", "weights": {"bogus": [1, 0, 0]}}]
                ),
                "candidates[0].weights.bogus",
            ),
            (
                lambda d: d.update(sensor={"imu_rate_hz": "fast"}),
                "sensor.imu_rate_hz",
            ),
        ],
    )
    def test_errors_name_the_field(self, mutation, field):
        data = yaml.safe_load(MINIMAL)
        data.setdefault("features", {"f1": [5.0, 0.0, -50.0]})
        mutation(data)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert err.value.field == field

    @pytest.mark.parametrize("mutation, field", UNKNOWN_FIELDS, ids=[f for _, f in UNKNOWN_FIELDS])
    def test_unknown_field_is_named(self, mutation, field):
        """A misspelt key in any section fails at its path instead of taking a default."""
        data = load_scenario(bundled_path("case2_flight.yaml")).to_dict()
        parse_scenario(yaml.safe_dump(data, sort_keys=False))
        mutation(data)
        with pytest.raises(ScenarioError, match="unknown field") as err:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert err.value.field == field

    @pytest.mark.parametrize("rates", [(110.0, 25.0), (100.0, 30.0)])
    def test_imu_rate_not_a_whole_multiple_of_frame_rate(self, rates):
        data = load_scenario(bundled_path("case2_flight.yaml")).to_dict()
        data["sensor"].update(imu_rate_hz=rates[0], frame_rate_hz=rates[1])
        with pytest.raises(ScenarioError, match="whole multiple") as err:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert err.value.field == "sensor"

    def test_never_detected_feature(self):
        text = MINIMAL.replace("f1: [1]", "f1: [1]\n    f2: [0]")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.field == "schedule.detected"
        assert "never detected" in str(err.value)

    def test_missing_rel_without_trajectory(self):
        text = MINIMAL.replace("    rel:\n      f1: [5.0, 0.0, -50.0]\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.field == "segments[0].rel.f1"

    def test_auto_schedule_needs_trajectory(self):
        text = MINIMAL.replace(
            "schedule:\n  detected:\n    f1: [1]", "schedule: auto"
        ) + "features:\n  f1: [5.0, 0.0, -50.0]\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.field == "schedule"

    def test_simulation_sections_enforced(self):
        doc = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError) as err:
            doc.require_simulation_sections()
        assert err.value.field == "trajectory"
