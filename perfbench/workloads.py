"""The four workloads: inputs, the timed operation, items counted and checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Input k is made (and, for YAML inputs,
parsed) before its operation is timed; the output is checked after.

Why these four (also recorded in BENCHMARK.json):

* cli    -- interpreter start, ``import slamobs``, argparse, scenario parsing
            and CSV writing dominate; the analysis and simulation kernels do
            almost nothing.
* sweep  -- the SVD in ``pwcs`` and candidate classification in ``analysis``
            dominate; ``simulation`` is never called, and no two scenarios
            share work.
* flight -- ``simulate()`` at n = 21, 33, 45 with field-of-view gating:
            measurement build, trace recording and propagation grow with the
            feature count, and the transition matrix repeats inside segments.
* verify -- the same ``simulation`` layer at n = 15, where per-call overhead
            rather than arithmetic dominates, plus the diagnostics and the
            noise-driven state run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import bare
import checks
import gen

# covariance trace rows kept in the verify reference (one per second)
VERIFY_REF_EVERY = 25
CLI_CSV_GROUPS = ("position", "velocity", "attitude", "features", "relative")
SUBPROCESS_TIMEOUT_S = 120


class Workload:
    """Base: ``cycle`` inputs make one full mix of input sizes."""

    name = ""
    cycle = 1
    in_process = True  # False when an operation runs in a child process
    item = "operation"  # what items_per_s counts
    op = "operation"  # what one latency sample covers

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.refs_dir = Path(__file__).resolve().parent / "refs"

    def setup(self):
        """Preparation that belongs to set-up time, before any input."""

    def make_input(self, k):
        """The k-th generated input, made by the harness."""
        raise NotImplementedError

    def prepare(self, raw):
        """What the program does to a generated input before the operation (parsing)."""
        return raw

    def run(self, inp):
        """The timed operation, as a user of the package would call it."""
        raise NotImplementedError

    def run_traced(self, inp):
        """The operation as run under the tracer (in process)."""
        return self.run(inp)

    def items(self, inp, out) -> int:
        return 1

    def check(self, inp, out) -> list:
        return []

    def layer_extras(self, inputs) -> dict:
        """Per-layer numbers measured outside the tracer."""
        return {}


# ----------------------------------------------------------------------- cli


def child_env(root: Path) -> dict:
    """Environment of a child interpreter: this one's, importing from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_outputs(command, out_dir: Path, stdout: str) -> dict:
    """What a CLI command produced: stdout, or the CSV files it wrote."""
    if command in ("analyze", "analyze_local", "cases"):
        return {"stdout": stdout}
    files = list(CLI_CSV_GROUPS) + (["state_run"] if command == "simulate_state" else [])
    return {f: (out_dir / command / f"{f}.csv").read_text(encoding="utf-8") for f in files}


def check_cli(command, outputs, ref, first_state=None):
    if command in ("analyze", "analyze_local"):
        return checks.check_analyze(command, outputs["stdout"], ref[command])
    if command == "cases":
        return checks.check_cases(outputs["stdout"], ref["cases"])
    problems = []
    for group in CLI_CSV_GROUPS:
        problems += checks.check_csv(f"{command} {group}.csv", outputs[group], ref["csv"][group])
    if command == "simulate_state":
        state = outputs["state_run"]
        problems += checks.check_csv(
            "state_run.csv", state, ref["state_run"], columns=["time_s", "true_N", "true_E", "true_U"]
        )
        if first_state is not None and state != first_state:
            problems.append("state_run.csv differs from the first run with the same seed")
    return problems


class Cli(Workload):
    name = "cli"
    in_process = False
    cycle = len(gen.CLI_COMMANDS)
    item = "command"
    op = "CLI subprocess"

    def setup(self):
        from slamobs import scenario

        self.scenarios = self.root / "src" / "slamobs" / "scenarios"
        for name in ("case2.yaml", "case2_segment1.yaml", "case2_flight.yaml"):
            scenario.load_scenario(self.scenarios / name)
        self.ref = json.loads((self.refs_dir / "cli.json").read_text())
        self.env = child_env(self.root)
        self.first_state = None

    def make_input(self, k):
        command = gen.cli_commands(self.seed, k // self.cycle)[k % self.cycle]
        return command, gen.cli_argv(command, self.scenarios, self.work_dir, self.seed)

    def run(self, inp):
        _, argv = inp
        proc = subprocess.run(
            [sys.executable, "-m", "slamobs.cli", *argv],
            env=self.env,
            cwd=self.work_dir,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, inp):
        from slamobs import cli

        _, argv = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, out):
        command, _ = inp
        code, stdout, stderr = out
        if code != 0:
            return [f"{command}: exit code {code}: {stderr.strip()[-300:]}"]
        outputs = cli_outputs(command, self.work_dir, stdout)
        problems = check_cli(command, outputs, self.ref, self.first_state)
        if command == "simulate_state" and self.first_state is None and not problems:
            self.first_state = outputs["state_run"]
        return problems


# --------------------------------------------------------------------- sweep


class Sweep(Workload):
    name = "sweep"
    cycle = len(gen.SWEEP_SIZES)
    item = "scenario"
    op = "scenario (analyze_total plus analyze_local per segment)"

    def setup(self):
        from slamobs import analysis

        self.analysis = analysis

    def make_input(self, k):
        return gen.sweep_input(self.seed, k)

    def run(self, inp):
        scenario, total_options, local_options = inp
        reports = [self.analysis.analyze_total(scenario, total_options)]
        for i, options in enumerate(local_options):
            reports.append(self.analysis.analyze_local(scenario, i, options))
        return reports

    def check(self, inp, out):
        scenario, _, _ = inp
        detected = scenario.schedule.detected
        n_features = [detected.shape[0]] + [int(detected[:, i].sum()) for i in range(detected.shape[1])]
        return checks.check_sweep(out, n_features)


# ------------------------------------------------------------ flight, verify


class _Simulation(Workload):
    item = "frame"

    def setup(self):
        from slamobs import scenario, simulation

        self.scenario = scenario
        self.simulation = simulation

    def prepare(self, text):
        doc = self.scenario.parse_scenario(text)
        return text, doc, doc.sim_scenario()

    def _oracle(self, text):
        start = time.perf_counter()
        result = bare.covariance_run(bare.load(text))
        return result, time.perf_counter() - start


class Flight(_Simulation):
    name = "flight"
    cycle = len(gen.FLIGHT_FEATURES)
    op = "simulate() of one 40 s flight"

    def make_input(self, k):
        return gen.flight_yaml(self.seed, k)

    def run(self, inp):
        _, doc, sim = inp
        return self.simulation.simulate(sim, doc.trajectory, doc.sensor, seed=self.seed)

    def items(self, inp, out):
        return int(out.times.size)

    def check(self, inp, out):
        text, doc, _ = inp
        expected = int(round(doc.trajectory.total_duration * doc.sensor.frame_rate_hz)) + 1
        problems = checks.equal("flight rows", int(out.times.size), expected)
        oracle, _ = self._oracle(text)
        return problems + checks.check_oracle(doc.name, out, oracle)

    def layer_extras(self, inputs):
        total, flops = 0.0, 0
        for text, _, _ in inputs:
            (_, _, _, f), seconds = self._oracle(text)
            total += seconds
            flops += f
        return {"simulation.bare_numpy_s": total, "simulation.flops_computed": flops}


class Verify(_Simulation):
    name = "verify"
    op = "diagnostics run plus state run of case2_flight"

    def setup(self):
        super().setup()
        self.text = gen.verify_yaml(self.root)
        self.ref = json.loads((self.refs_dir / "verify.json").read_text())
        self.first_run = None

    def make_input(self, k):
        return self.text

    def run(self, inp):
        _, doc, sim = inp
        trace = self.simulation.simulate(
            sim, doc.trajectory, doc.sensor, seed=self.seed, collect_diagnostics=True
        )
        state = self.simulation.state_comparison_run(sim, doc.trajectory, doc.sensor, seed=self.seed)
        return trace, state

    def items(self, inp, out):
        trace, state = out
        return int(trace.times.size + state.times.size)

    def check(self, inp, out):
        trace, state = out
        problems = checks.check_trace("verify trace", trace, self.ref["trace"])
        problems += checks.check_diagnostics(trace.diagnostics, int(trace.times.size))
        problems += checks.close(
            "verify true positions",
            state.true_positions[:: VERIFY_REF_EVERY],
            self.ref["true_positions"],
        )
        if self.first_run is None:
            self.first_run = state
        problems += checks.check_state_repeat("verify", state, self.first_run)
        return problems

    def layer_extras(self, inputs):
        text, doc, sim = inputs[0]
        timings = {}
        for diagnostics in (True, False):
            start = time.perf_counter()
            self.simulation.simulate(
                sim, doc.trajectory, doc.sensor, seed=self.seed, collect_diagnostics=diagnostics
            )
            timings[diagnostics] = time.perf_counter() - start
        (_, _, _, flops), seconds = self._oracle(text)
        return {
            "simulation.diagnostics_s": timings[True] - timings[False],
            "simulation.bare_numpy_s": seconds,
            "simulation.flops_computed": flops,
        }


WORKLOADS = {w.name: w for w in (Cli, Sweep, Flight, Verify)}
