"""Golden values of the case2_flight covariance run and state run.

The fixture pins every standard-deviation series of ``simulate`` and the
three position series of ``state_comparison_run`` for seed 42 over the first
10 s, so a refactor of the filter (or a change of the state run's random
draw order) cannot drift silently.  A change that alters these numbers on
purpose re-records the fixture with

    PYTHONPATH=src python tests/test_golden.py --record

Every recorded standard deviation is also held within ``RTOL`` (1e-9)
relative of an ``np.longdouble`` run of the same inputs
(``oracles._extended_precision_stds``); the worst measured
deviation is 2.4e-10 (on ``dv_E``).  So a fixture re-recorded under that
rule cannot bake in more than float64 rounding.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import _extended_precision_stds
from slamobs.scenario import load_scenario
from slamobs.simulation import simulate, state_comparison_run

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden" / "case2_flight_seed42.json"
SCENARIO = ROOT / "src" / "slamobs" / "scenarios" / "case2_flight.yaml"
SEED = 42
DURATION = 10.0
RTOL = 1e-9
ATOL = 1e-12
STATE_SERIES = ("true_positions", "ins_positions", "estimated_positions")


def current_values() -> dict:
    doc = load_scenario(SCENARIO)
    sim = doc.sim_scenario()
    trace = simulate(sim, doc.trajectory, doc.sensor, seed=SEED, duration=DURATION)
    run = state_comparison_run(sim, doc.trajectory, doc.sensor, seed=SEED, duration=DURATION)
    return {
        "times": trace.times.tolist(),
        "std": {label: series.tolist() for label, series in trace.std.items()},
        "derived_std": {label: series.tolist() for label, series in trace.derived_std.items()},
        "state_run": {name: getattr(run, name).tolist() for name in STATE_SERIES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return current_values()


def test_times(current, golden):
    np.testing.assert_allclose(current["times"], golden["times"], rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("group", ["std", "derived_std"])
def test_std_series(current, golden, group):
    assert list(current[group]) == list(golden[group])
    for label, want in golden[group].items():
        np.testing.assert_allclose(
            current[group][label], want, rtol=RTOL, atol=ATOL, err_msg=label
        )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)
def test_std_series_within_extended_precision_bound(golden):
    """Every recorded std is within RTOL of a long-double run of the same inputs."""
    labels, reference = _extended_precision_stds(load_scenario(SCENARIO), DURATION)
    recorded = {**golden["std"], **golden["derived_std"]}
    assert list(recorded) == labels
    got = np.array([recorded[label] for label in labels])
    assert float((np.abs(got - reference) / reference).max()) <= RTOL


@pytest.mark.parametrize("name", STATE_SERIES)
def test_state_run_series(current, golden, name):
    np.testing.assert_allclose(
        current["state_run"][name], golden["state_run"][name], rtol=RTOL, atol=ATOL
    )


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(current_values()) + "\n")
    print(f"wrote {FIXTURE}")
