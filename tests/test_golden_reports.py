"""Golden outputs of ``slamobs analyze`` and ``slamobs cases``.

The fixtures pin the analyze JSON of the bundled case2 scenario (total,
``--local 0`` and ``--first-order``), of case2_flight (its
``north_baseline`` extra candidate and the relative positions derived from
its trajectory) and of ``golden/sweep_6x4.yaml`` (six features over four
segments with two extra candidates: total and ``--local 1``), and the
``cases --exact --first-order`` table.  Integers,
labels and verdicts must match exactly; null projections and the null space
match at rtol 1e-9.  Null-space basis vectors carry arbitrary signs (and any
rotation within the space), so the space is compared through its projector
N^T N.  A change that alters these outputs on purpose re-records them with

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

import importlib.resources
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from slamobs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
ATOL = 1e-12
ANALYZE = {
    "case2_analyze.json": ["case2.yaml"],
    "case2_analyze_local0.json": ["case2.yaml", "--local", "0"],
    "case2_analyze_first_order.json": ["case2.yaml", "--first-order"],
    "case2_flight_analyze.json": ["case2_flight.yaml"],
    "sweep_6x4_analyze.json": ["sweep_6x4.yaml"],
    "sweep_6x4_analyze_local1.json": ["sweep_6x4.yaml", "--local", "1"],
}
CASES = ("cases_exact_first_order.txt", ["cases", "--exact", "--first-order"])


def cli_output(argv) -> str:
    """What ``slamobs <argv>`` prints to stdout."""
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def analyze_argv(args) -> list:
    """``analyze`` of the scenario ``args[0]`` with the flags ``args[1:]``.

    The scenario is the one of that name under ``golden/``, else the bundled one.
    """
    scenario = GOLDEN / args[0]
    if not scenario.exists():
        scenario = importlib.resources.files("slamobs") / "scenarios" / args[0]
    return ["analyze", str(scenario)] + args[1:]


def projector(basis) -> np.ndarray:
    vectors = np.array(basis, dtype=float).reshape(len(basis), -1)
    return vectors.T @ vectors


@pytest.mark.parametrize("fixture", sorted(ANALYZE))
def test_analyze_report(fixture):
    want = json.loads((GOLDEN / fixture).read_text())
    got = json.loads(cli_output(analyze_argv(ANALYZE[fixture])))
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
    fixture, argv = CASES
    assert cli_output(argv) == (GOLDEN / fixture).read_text()


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --record")
    GOLDEN.mkdir(exist_ok=True)
    for fixture, args in ANALYZE.items():
        (GOLDEN / fixture).write_text(cli_output(analyze_argv(args)))
    (GOLDEN / CASES[0]).write_text(cli_output(CASES[1]))
    print(f"wrote {len(ANALYZE) + 1} fixtures to {GOLDEN}")
