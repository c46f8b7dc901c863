"""Golden end-to-end outputs, so that a refactor cannot drift silently.

``FIXTURES`` names every file under ``golden/`` and the command that writes it:
- two flights, the first 10 s at seed 42 of ``simulate`` (every std series)
  and of ``state_comparison_run`` (three position series): the bundled
  case2_flight, and ``golden/fov_flight.yaml``, whose ``schedule: auto``
  fixture also pins the schedule the sensor cone gives its five features;
- six ``analyze`` reports of case2, case2_flight and ``golden/sweep_6x4.yaml``
  (six features, four segments, two extra candidates);
- the ``cases --exact --first-order`` table, which must match exactly.

Series, null projections and the null space match at rtol 1e-9 and atol
1e-12; integers, labels, verdicts and schedules match exactly.  Null-space
basis vectors carry arbitrary signs (and any rotation within the space), so
the space is compared through its projector N^T N.  Every std of a flight,
recorded and current, is also held within ``RTOL`` relative of an
``np.longdouble`` run of the same inputs (``oracles._extended_precision_stds``);
the worst measured deviation is 1.5e-10 (fov_flight, ``dv_U``; case2_flight
1.0e-10, ``dv_E``).  So a re-recorded fixture bakes in only float64 rounding.
A change that alters these outputs on purpose re-records every fixture with

    PYTHONPATH=src python tests/test_golden.py --record

which prints, per fixture, ``identical`` or the largest absolute and relative
deviation over its numbers before it overwrites the file.
"""

import importlib.resources
import json
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from oracles import _extended_precision_stds
from slamobs.cli import main
from slamobs.scenario import load_scenario
from slamobs.simulation import simulate, state_comparison_run

GOLDEN = Path(__file__).resolve().parent / "golden"
BUNDLED = importlib.resources.files("slamobs") / "scenarios"
FIXTURES = {
    "case2_flight_seed42.json": ("flight", BUNDLED / "case2_flight.yaml"),
    "fov_flight_seed42.json": ("flight", GOLDEN / "fov_flight.yaml"),
    "case2_analyze.json": ("analyze", BUNDLED / "case2.yaml"),
    "case2_analyze_local0.json": ("analyze", BUNDLED / "case2.yaml", "--local", "0"),
    "case2_analyze_first_order.json": ("analyze", BUNDLED / "case2.yaml", "--first-order"),
    "case2_flight_analyze.json": ("analyze", BUNDLED / "case2_flight.yaml"),
    "sweep_6x4_analyze.json": ("analyze", GOLDEN / "sweep_6x4.yaml"),
    "sweep_6x4_analyze_local1.json": ("analyze", GOLDEN / "sweep_6x4.yaml", "--local", "1"),
    "cases_exact_first_order.txt": ("cases", "--exact", "--first-order"),
}
FLIGHTS = sorted(name for name, (command, *_) in FIXTURES.items() if command == "flight")
ANALYZE = sorted(name for name, (command, *_) in FIXTURES.items() if command == "analyze")
SEED = 42
DURATION = 10.0
RTOL = 1e-9
ATOL = 1e-12
STATE_SERIES = ("true_positions", "ins_positions", "estimated_positions")
# A number in a fixture's text; the digits of a label such as ``dm_f1`` are not one.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def flight_values(doc) -> dict:
    sim = doc.sim_scenario()
    trace = simulate(sim, doc.trajectory, doc.sensor, seed=SEED, duration=DURATION)
    run = state_comparison_run(sim, doc.trajectory, doc.sensor, seed=SEED, duration=DURATION)
    auto = doc.schedule_mode == "auto"
    values = {"schedule": doc.scenario.schedule.detected.tolist()} if auto else {}
    return values | {
        "times": trace.times.tolist(),
        "std": {label: series.tolist() for label, series in trace.std.items()},
        "derived_std": {label: series.tolist() for label, series in trace.derived_std.items()},
        "state_run": {name: getattr(run, name).tolist() for name in STATE_SERIES},
    }


def current_text(fixture) -> str:
    """What the code writes today to ``golden/<fixture>``: flight values or CLI output."""
    command, *args = FIXTURES[fixture]
    if command == "flight":
        return json.dumps(flight_values(load_scenario(args[0]))) + "\n"
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert main([command] + [str(arg) for arg in args]) == 0
    return buffer.getvalue()


@pytest.fixture(scope="module", params=FLIGHTS)
def flight(request):
    """Scenario document, recorded values and current values of one flight."""
    doc = load_scenario(FIXTURES[request.param][1])
    return doc, json.loads((GOLDEN / request.param).read_text()), flight_values(doc)


def test_times(flight):
    _, golden, current = flight
    np.testing.assert_allclose(current["times"], golden["times"], rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("flight", ["fov_flight_seed42.json"], indirect=True)
def test_auto_schedule(flight):
    _, golden, current = flight
    assert current["schedule"] == golden["schedule"]


@pytest.mark.parametrize("group", ["std", "derived_std"])
def test_std_series(flight, group):
    _, golden, current = flight
    assert list(current[group]) == list(golden[group])
    for label, want in golden[group].items():
        np.testing.assert_allclose(
            current[group][label], want, rtol=RTOL, atol=ATOL, err_msg=label
        )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)
def test_std_series_within_extended_precision_bound(flight):
    """Every recorded and current std is within RTOL of a long-double run of the same inputs."""
    doc, golden, current = flight
    labels, reference = _extended_precision_stds(doc, DURATION)
    for values in (golden, current):
        stds = {**values["std"], **values["derived_std"]}
        assert list(stds) == labels
        got = np.array([stds[label] for label in labels])
        assert float((np.abs(got - reference) / reference).max()) <= RTOL


@pytest.mark.parametrize("name", STATE_SERIES)
def test_state_run_series(flight, name):
    _, golden, current = flight
    np.testing.assert_allclose(
        current["state_run"][name], golden["state_run"][name], rtol=RTOL, atol=ATOL
    )


def projector(basis) -> np.ndarray:
    vectors = np.array(basis, dtype=float).reshape(len(basis), -1)
    return vectors.T @ vectors


@pytest.mark.parametrize("fixture", ANALYZE)
def test_analyze_report(fixture):
    want = json.loads((GOLDEN / fixture).read_text())
    got = json.loads(current_text(fixture))
    assert got.keys() == want.keys()
    for key in want.keys() - {"null_basis", "functionals"}:
        assert got[key] == want[key], key
    assert len(got["null_basis"]) == len(want["null_basis"])
    np.testing.assert_allclose(
        projector(got["null_basis"]), projector(want["null_basis"]), rtol=RTOL, atol=ATOL
    )
    assert [(f["label"], f["observable"]) for f in got["functionals"]] == [
        (f["label"], f["observable"]) for f in want["functionals"]
    ]
    np.testing.assert_allclose(
        [f["null_projection"] for f in got["functionals"]],
        [f["null_projection"] for f in want["functionals"]],
        rtol=RTOL,
        atol=ATOL,
    )


def test_cases_table():
    fixture = "cases_exact_first_order.txt"
    assert current_text(fixture) == (GOLDEN / fixture).read_text()


def deviation(old: str, new: str) -> str:
    """``identical``, or the largest deviation of ``new`` from ``old`` over their numbers."""
    if old == new:
        return "identical"
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "changed beyond its numbers (a label, verdict or length)"
    was, now = (np.array(NUMBER.findall(text), dtype=float) for text in (old, new))
    diff = np.abs(now - was)
    with np.errstate(divide="ignore"):
        rel = np.divide(diff, np.abs(was), out=np.zeros_like(diff), where=diff > 0)
    return (
        f"max abs {diff.max():.2g}, max rel {rel.max():.2g} "
        f"in {np.count_nonzero(diff)} of {diff.size} numbers"
    )


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    for fixture in FIXTURES:
        path = GOLDEN / fixture
        new = current_text(fixture)
        old = path.read_text() if path.exists() else None
        print(f"{fixture}: {'new' if old is None else deviation(old, new)}")
        path.write_text(new)
