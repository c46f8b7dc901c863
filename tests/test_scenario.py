"""Scenario file parsing and validation."""

import importlib.resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from slamobs.analysis import AnalysisOptions, CandidateFunctional, analyze_local, analyze_total
from slamobs.scenario import ScenarioError, load_scenario, parse_scenario

BUNDLED = ("case2.yaml", "case2_segment1.yaml", "case2_flight.yaml")


def bundled_path(name):
    return str(importlib.resources.files("slamobs") / "scenarios" / name)


def bundled_data(name):
    """The bundled scenario file ``name`` as plain YAML data, to edit into variants."""
    with open(bundled_path(name), encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def golden_data(name):
    """The test scenario ``tests/golden/<name>`` as plain YAML data."""
    with open(Path(__file__).resolve().parent / "golden" / name, encoding="utf-8") as handle:
        return yaml.safe_load(handle)


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

    def test_case2_analysis_values(self):
        doc = load_scenario(bundled_path("case2.yaml"))
        report = analyze_total(doc.scenario, doc.options)
        assert (report.rank, report.nullity) == (12, 3)

    def test_flight_has_simulation_sections(self):
        doc = load_scenario(bundled_path("case2_flight.yaml"))
        doc.sim_scenario()
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
        data = bundled_data("case2_flight.yaml")
        data["schedule"] = "auto"
        auto = parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert auto.schedule_mode == "auto"
        np.testing.assert_array_equal(
            auto.scenario.schedule.detected, np.array([[True, True], [False, True]])
        )

    @pytest.mark.parametrize("scale", [1.0e200, 1.0e-170], ids=["huge", "tiny"])
    def test_boresight_at_extreme_magnitudes(self, scale):
        """A straight-down boresight of any finite length gates as the unit one does."""
        data = golden_data("fov_flight.yaml")
        want = parse_scenario(yaml.safe_dump(data, sort_keys=False))
        data["sensor"]["boresight"] = [0.0, 0.0, -scale]
        doc = parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert doc.sensor.boresight == want.sensor.boresight == (0.0, 0.0, -1.0)
        np.testing.assert_array_equal(
            doc.scenario.schedule.detected, want.scenario.schedule.detected
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
            pytest.param(lambda d: d.update(name=""), "name", id="name-empty"),
            pytest.param(lambda d: d.update(gravity=-1.0), "gravity", id="gravity-negative"),
            pytest.param(lambda d: d.update(gravity=float("inf")), "gravity", id="gravity-inf"),
            pytest.param(lambda d: d.update(options=["exact"]), "options", id="options-list"),
            pytest.param(
                lambda d: d.update(features=[5.0, 0.0, -50.0]), "features", id="features-list"
            ),
            pytest.param(
                lambda d: d["features"].update(f1=[float("nan"), 0.0, -50.0]),
                "features.f1",
                id="feature-nan",
            ),
            pytest.param(
                lambda d: d.update(segments={"duration": 10.0}), "segments", id="segments-mapping"
            ),
            pytest.param(lambda d: d.update(segments=[]), "segments", id="segments-empty"),
            pytest.param(lambda d: d.update(segments=[10.0]), "segments[0]", id="segment-number"),
            pytest.param(
                lambda d: d["segments"][0].update(specific_force=["up", 0.0, 9.81]),
                "segments[0].specific_force",
                id="force-entry-string",
            ),
            pytest.param(
                lambda d: d["segments"][0].update(specific_force=[True, 0.0, 9.81]),
                "segments[0].specific_force",
                id="force-entry-bool",
            ),
            pytest.param(
                lambda d: d["segments"][0].update(specific_force=["0.0", 0.0, 9.81]),
                "segments[0].specific_force",
                id="force-entry-quoted-number",
            ),
            pytest.param(
                lambda d: d["segments"][0].update(duration=10**400),
                "segments[0].duration",
                id="duration-int-overflow",
            ),
            pytest.param(
                lambda d: d["segments"][0].update(specific_force=[10**400, 0, 0]),
                "segments[0].specific_force",
                id="force-entry-int-overflow",
            ),
            pytest.param(
                lambda d: d["segments"][0].update(rel=[[5.0, 0.0, -50.0]]),
                "segments[0].rel",
                id="rel-list",
            ),
            pytest.param(
                lambda d: (
                    d["features"].update(f2=[1.0, 2.0, 0.0]),
                    d["segments"][0]["rel"].update(f2=[1.0, 2.0, -50.0]),
                ),
                "segments",
                id="rel-of-unscheduled-feature",
            ),
            pytest.param(
                lambda d: d["features"].update(f2=[1.0, 2.0, 0.0]),
                "schedule.detected.f2",
                id="feature-without-schedule-row",
            ),
            pytest.param(
                lambda d: d.update(trajectory=[0.0, 0.0, 100.0]), "trajectory", id="trajectory-list"
            ),
            pytest.param(lambda d: d.update(sensor=25.0), "sensor", id="sensor-number"),
            pytest.param(
                lambda d: d.update(sensor={"imu_rate_hz": 0}), "sensor.imu_rate_hz", id="imu-rate-zero"
            ),
            pytest.param(
                lambda d: d.update(sensor={"frame_rate_hz": 0.0}),
                "sensor.frame_rate_hz",
                id="frame-rate-zero",
            ),
            pytest.param(
                lambda d: d.update(sensor={"fov_deg": -15.0}), "sensor.fov_deg", id="fov-negative"
            ),
            pytest.param(
                lambda d: (d.pop("features"), d.update(schedule="auto")),
                "schedule",
                id="auto-without-features",
            ),
            pytest.param(
                lambda d: d.update(
                    schedule="auto",
                    features={"f1": [5000.0, 0.0, 0.0]},
                    trajectory={"p0": [0.0, 0.0, 100.0], "v0": [0.0, 0.0, 0.0]},
                ),
                "schedule",
                id="auto-feature-never-seen",
            ),
            pytest.param(lambda d: d.update(schedule="manual"), "schedule", id="schedule-word"),
            pytest.param(
                lambda d: d["schedule"].update(detected=[1]),
                "schedule.detected",
                id="detected-list",
            ),
            pytest.param(
                lambda d: d["schedule"]["detected"].update(f9=[1]),
                "schedule.detected.f9",
                id="detected-unknown-feature",
            ),
            pytest.param(
                lambda d: d["schedule"]["detected"].update(f1=[1, 1]),
                "schedule.detected.f1",
                id="detected-row-length",
            ),
            pytest.param(
                lambda d: d.update(initial_covariance=[1.0] * 9),
                "initial_covariance",
                id="initial-covariance-list",
            ),
            pytest.param(
                lambda d: d.update(initial_covariance={"interpretation": "sigma"}),
                "initial_covariance.interpretation",
                id="interpretation",
            ),
            pytest.param(
                lambda d: d.update(initial_covariance={"vehicle_diag": [1.0] * 8 + [-1.0]}),
                "initial_covariance.vehicle_diag[8]",
                id="vehicle-variance-negative",
            ),
            pytest.param(
                lambda d: d.update(
                    initial_covariance={
                        "interpretation": "stddev",
                        "vehicle_diag": [1.0e200] + [1.0] * 8,
                    }
                ),
                "initial_covariance.vehicle_diag[0]",
                id="vehicle-stddev-square-overflow",
            ),
            pytest.param(
                lambda d: d.update(initial_covariance={"feature_prior": float("inf")}),
                "initial_covariance.feature_prior",
                id="feature-prior-inf",
            ),
            pytest.param(
                lambda d: d.update(candidates={"label": "x"}), "candidates", id="candidates-mapping"
            ),
            pytest.param(
                lambda d: d.update(candidates=["x"]), "candidates[0]", id="candidate-string"
            ),
            pytest.param(
                lambda d: d.update(candidates=[{"label": 5, "weights": {"dp": [1, 0, 0]}}]),
                "candidates[0].label",
                id="candidate-label-number",
            ),
            pytest.param(
                lambda d: d.update(candidates=[{"label": "x", "weights": [1, 0, 0]}]),
                "candidates[0].weights",
                id="candidate-weights-list",
            ),
            pytest.param(
                lambda d: d.update(candidates=[{"label": "x", "weights": {"dp": [0, 0, 0]}}]),
                "candidates[0].weights",
                id="candidate-weights-zero",
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

    @pytest.mark.parametrize(
        "text",
        [
            "schedule: [1\n",
            "- 1\n- 2\n",
            "name: 2020-13-45\n",
            "duration: " + "1" * 5001 + "\n",
            "a: !!float abc\n",
        ],
        ids=["yaml", "list", "date-out-of-range", "int-over-digit-limit", "float-tag-not-a-number"],
    )
    def test_unreadable_document_names_the_source(self, text):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, name_hint="flight.yaml")
        assert err.value.field == "flight.yaml"

    def test_file_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ScenarioError, match="cannot read file") as err:
            load_scenario(path)
        assert err.value.field == str(path)

    @pytest.mark.parametrize("mutation, field", UNKNOWN_FIELDS, ids=[f for _, f in UNKNOWN_FIELDS])
    def test_unknown_field_is_named(self, mutation, field):
        """A misspelt key in any section fails at its path instead of taking a default."""
        data = bundled_data("case2_flight.yaml")
        parse_scenario(yaml.safe_dump(data, sort_keys=False))
        mutation(data)
        with pytest.raises(ScenarioError, match="unknown field") as err:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert err.value.field == field

    @pytest.mark.parametrize("rates", [(110.0, 25.0), (100.0, 30.0)])
    def test_imu_rate_not_a_whole_multiple_of_frame_rate(self, rates):
        data = bundled_data("case2_flight.yaml")
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
            doc.sim_scenario()
        assert err.value.field == "trajectory"

    @pytest.mark.parametrize("section", ["trajectory", "sensor", "features"])
    def test_sim_scenario_names_the_missing_section(self, section):
        """``sim_scenario`` alone checks a simulation's inputs, with the CLI's message."""
        if section == "trajectory":
            doc = load_scenario(bundled_path("case2.yaml"))
        else:
            data = bundled_data("case2_flight.yaml")
            if section == "features":
                # without features the parser cannot derive rel, so write the derived vectors
                segments = load_scenario(bundled_path("case2_flight.yaml")).scenario.segments
                for entry, seg in zip(data["segments"], segments):
                    entry["rel"] = {fid: rel.tolist() for fid, rel in seg.feature_rel_pos.items()}
            del data[section]
            doc = parse_scenario(yaml.safe_dump(data, sort_keys=False))
        with pytest.raises(ScenarioError) as err:
            doc.sim_scenario()
        assert err.value.field == section
        assert str(err.value) == f"{section}: section required for simulation"


class TestCandidateLabels:
    @pytest.mark.parametrize(
        "labels",
        [["dv"], ["dv_N"], ["psi_U"], ["dp-dm_f1"], ["twice", "twice"]],
        ids=["dv", "dv_N", "psi_U", "dp-dm_f1", "repeated"],
    )
    def test_colliding_label_rejected(self, labels):
        """An extra label a report could not tell apart fails in the parser and the analysis."""
        data = bundled_data("case2.yaml")
        data["candidates"] = [{"label": label, "weights": {"dp": [1, 0, 0]}} for label in labels]
        with pytest.raises(ScenarioError, match=repr(labels[-1])) as err:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert err.value.field == f"candidates[{len(labels) - 1}].label"

        scenario = load_scenario(bundled_path("case2.yaml")).scenario
        weights = np.eye(15)[0]
        extra = tuple(CandidateFunctional(label, weights) for label in labels)
        options = AnalysisOptions(extra_candidates=extra)
        with pytest.raises(ValueError, match=repr(labels[-1])):
            analyze_total(scenario, options)
        # segment 1 sees both features, so its system takes the full-state extras
        with pytest.raises(ValueError, match=repr(labels[-1])):
            analyze_local(scenario, 1, options)

    def test_non_standard_labels_accepted(self):
        data = bundled_data("case2.yaml")
        data["candidates"] = [
            {"label": f"rigid_{axis}", "weights": {"dp": [1, 0, 0]}} for axis in "NEU"
        ] + [{"label": "dv_x", "weights": {"dv": [1, 0, 0]}}]
        doc = parse_scenario(yaml.safe_dump(data, sort_keys=False))
        report = analyze_total(doc.scenario, doc.options)
        labels = [v.label for v in report.mode_results[-4:]]
        assert labels == ["rigid_N", "rigid_E", "rigid_U", "dv_x"]
