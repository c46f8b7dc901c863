"""The README's examples hold: the library example and the CLI examples run as
written and do what their comments say, the schema block sets every field the
parser knows, and the package's top-level names are the ones listed here."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import slamobs
from slamobs.cli import main
from slamobs.scenario import ScenarioError, parse_scenario

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = readme_block("Library example", "python")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments) == 3
    # the first two comments are the printed lines; the last describes one number
    modes = ["dv", "psi", "dp-dm_f1", "dp-dm_f2", "dm_f1-dm_f2"]
    assert printed[:2] == comments[:2] == ["12 3", str(modes)]
    assert math.isfinite(float(printed[2]))


def test_cli_examples_do_what_their_comments_say(tmp_path, monkeypatch, capsys):
    """Each line of the bundled-scenario block under "## CLI" runs through ``cli.main``.

    ``simulate``'s ``--out traces/`` is pointed at ``tmp_path``.
    """
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = next(b for b in re.findall(r"```\n(.*?)```", section, re.S) if "scenarios/" in b)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "traces"

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = [str(out) if arg == "traces/" else arg for arg in command.split()[1:]]
        commands.append(argv[0])
        printed = run(argv)
        if argv[0] == "analyze":
            report = json.loads(printed)
            rank, cols, nullity = report["rank"], report["matrix_cols"], report["nullity"]
            local = "--local" in argv
            want = f"rank {rank} of {cols}" if local else f"rank {rank}, nullity {nullity}"
            assert comment.strip() == want
        elif argv[0] == "simulate":
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["position.csv", "velocity.csv", "attitude.csv", "features.csv", "relative.csv"]
            )
        else:
            assert comment.strip() == "parallel forces degrade rank"
            assert re.findall(r"\d+/\d+", printed) == ["11/15"] * 4
            assert re.findall(r"\d+/\d+", run(["cases"])) == ["12/15"] * 4
    assert commands == ["analyze", "analyze", "simulate", "cases"]


#: Every section whose keys the parser checks, as a path into the document.
SCHEMA_SECTIONS = [
    (), ("options",), ("schedule",), ("segments", 0), ("trajectory",), ("sensor",),
    ("initial_covariance",), ("candidates", 0),
]


@pytest.mark.parametrize("path", SCHEMA_SECTIONS, ids=lambda p: ".".join(map(str, p)) or "top")
def test_schema_block_sets_every_field(path):
    """The schema block parses and sets each key the parser accepts in ``path``.

    No writer emits scenario files, so this block is the one complete
    reference.  The parser names the keys it knows when it rejects an
    unknown one, and the block must set exactly those.
    """
    text = readme_block("Scenario file schema (YAML)", "yaml")
    parse_scenario(text)
    data = yaml.safe_load(text)
    section = data
    for key in path:
        section = section[key]
    section["not_a_field"] = 0
    with pytest.raises(ScenarioError, match="unknown field") as err:
        parse_scenario(yaml.safe_dump(data, sort_keys=False))
    known = re.search(r"\(known: (.*)\)$", str(err.value)).group(1).split(", ")
    del section["not_a_field"]
    assert sorted(section) == sorted(known)


def test_top_level_names():
    """``import slamobs`` re-exports exactly these; a new export is a deliberate edit here."""
    public = {
        name
        for name, value in vars(slamobs).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {
        "AnalysisOptions", "CandidateFunctional", "CovarianceTrace", "DetectionSchedule",
        "FunctionalVerdict", "ObservabilityReport", "PwcsStripe", "Scenario", "ScenarioDoc",
        "ScenarioError", "SegmentSpec", "SensorConfig", "SimScenario", "TrajectoryConfig",
        "analyze_local", "analyze_total", "augment", "case_scenario", "equivalence_pad",
        "feature_obs_row", "fov_schedule", "ins_error_f", "is_functional_observable",
        "load_scenario", "lom", "measurement_noise_cartesian", "null_space", "parse_scenario",
        "simulate", "skew", "state_comparison_run", "state_labels", "state_transition", "tom",
    }
