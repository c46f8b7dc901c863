"""Record the reference outputs the checks compare against.

    python3 perfbench/record_refs.py

Run from the root of a checkout at the commit whose outputs are the
reference.  It writes ``perfbench/refs/cli.json`` (the analyze reports, the
cases table and the CSVs of ``simulate case2_flight.yaml``) and
``perfbench/refs/verify.json`` (the case2_flight covariance trace, one row
per second, and the true trajectory of the state run).  A change that moves
these numbers on purpose records them again and states the largest change.
"""

import run  # noqa: F401  (pins BLAS to one thread before NumPy is imported)

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def csv_ref(text):
    header, rows = checks.read_csv(text)
    return {"header": header, "rows": rows}


def record_cli(work_dir):
    scenarios = ROOT / "src" / "slamobs" / "scenarios"
    env = workloads.child_env(ROOT)
    outputs = {}
    for command in gen.CLI_COMMANDS:
        argv = gen.cli_argv(command, scenarios, work_dir, seed=0)
        proc = subprocess.run(
            [sys.executable, "-m", "slamobs.cli", *argv], env=env, cwd=work_dir,
            capture_output=True, text=True, check=True,
        )
        outputs[command] = workloads.cli_outputs(command, work_dir, proc.stdout)
    sim = outputs["simulate_state"]
    return {
        "analyze": checks.analyze_summary(outputs["analyze"]["stdout"]),
        "analyze_local": checks.analyze_summary(outputs["analyze_local"]["stdout"]),
        "cases": {"rows": checks.cases_rows(outputs["cases"]["stdout"])},
        "csv": {group: csv_ref(sim[group]) for group in workloads.CLI_CSV_GROUPS},
        "state_run": csv_ref(sim["state_run"]),
    }


def record_verify():
    from slamobs import scenario, simulation

    doc = scenario.parse_scenario(gen.verify_yaml(ROOT))
    sim = doc.sim_scenario()
    trace = simulation.simulate(sim, doc.trajectory, doc.sensor, seed=0, collect_diagnostics=True)
    state = simulation.state_comparison_run(sim, doc.trajectory, doc.sensor, seed=0)
    every = workloads.VERIFY_REF_EVERY
    return {
        "trace": checks.trace_reference(trace, every),
        "true_positions": state.true_positions[::every].tolist(),
    }


def main():
    work_dir = ROOT / ".bench_build" / "perfbench" / "record-refs"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        refs = {"cli": record_cli(work_dir), "verify": record_verify()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (HERE / "refs").mkdir(exist_ok=True)
    for name, ref in refs.items():
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(ref) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
