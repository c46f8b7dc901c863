"""Golden outputs of ``slamobs analyze`` and ``slamobs cases``.

The fixtures pin the analyze JSON of the bundled case2 scenario (total and
``--local 0``) and the ``cases --exact --first-order`` table.  Integers,
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
    "case2_analyze.json": [],
    "case2_analyze_local0.json": ["--local", "0"],
}
CASES = ("cases_exact_first_order.txt", ["cases", "--exact", "--first-order"])


def cli_output(argv) -> str:
    """What ``slamobs <argv>`` prints to stdout."""
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def analyze_argv(extra) -> list:
    scenario = importlib.resources.files("slamobs") / "scenarios" / "case2.yaml"
    return ["analyze", str(scenario)] + extra


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
    for fixture, extra in ANALYZE.items():
        (GOLDEN / fixture).write_text(cli_output(analyze_argv(extra)))
    (GOLDEN / CASES[0]).write_text(cli_output(CASES[1]))
    print(f"wrote {len(ANALYZE) + 1} fixtures to {GOLDEN}")
