"""Smoke check of the harness itself.

    python3 perfbench/smoke.py [--quick]

Run from the root of a checkout.  It checks that

* the input generators are deterministic per seed and differ between seeds;
* every checker flags a perturbed output (a CSV value off by more than its
  rtol, a rank changed by 1, a rigid translation called observable, a trace
  value off the oracle, an asymmetric covariance, a state run that does not
  repeat) and passes the unperturbed one;
* the harness refuses to run without the package sources;
* every workload, at its smallest size (one input cycle), emits exactly the
  metrics named in BENCHMARK.json, untraced and traced, with all outputs
  correct.  ``--quick`` skips this last part.

Exits non-zero on the first failed check.
"""

import run  # noqa: F401  (pins BLAS to one thread before NumPy is imported)

import os  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bare  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import numpy as np  # noqa: E402


def expect(condition, message):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def passes(problems, what):
    expect(not problems, f"{what} passes" + (f" ({problems[0]})" if problems else ""))


def flags(problems, what):
    expect(bool(problems), f"{what} is flagged")


def generators():
    for k in (0, 5, 11):
        expect(gen.sweep_spec(3, k) == gen.sweep_spec(3, k), f"sweep input {k} repeats for a seed")
        expect(gen.sweep_spec(3, k) != gen.sweep_spec(4, k), f"sweep input {k} differs between seeds")
    for k in (0, 1, 2):
        expect(gen.flight_yaml(3, k) == gen.flight_yaml(3, k), f"flight input {k} repeats for a seed")
        expect(gen.flight_yaml(3, k) != gen.flight_yaml(4, k), f"flight input {k} differs between seeds")
    expect(gen.cli_commands(3, 2) == gen.cli_commands(3, 2), "cli command order repeats for a seed")
    expect(sorted(gen.cli_commands(3, 2)) == sorted(gen.CLI_COMMANDS), "cli cycle runs every command once")


def cli_checkers():
    from slamobs import cli

    ref = json.loads((HERE / "refs" / "cli.json").read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["analyze", str(ROOT / "src" / "slamobs" / "scenarios" / "case2.yaml")])
    report = out.getvalue()
    passes(checks.check_analyze("analyze", report, ref["analyze"]), "analyze case2 report")
    doc = json.loads(report)
    doc["rank"] += 1
    flags(checks.check_analyze("analyze", json.dumps(doc), ref["analyze"]), "analyze rank changed by 1")

    table = "\n".join("  ".join(str(c) if i != 2 else f"{c}/{row[3]}" for i, c in enumerate(row) if i != 3)
                      for row in ref["cases"]["rows"])
    passes(checks.check_cases(table, ref["cases"]), "cases table rows")
    flags(checks.check_cases(table.replace("12/15", "11/15", 1), ref["cases"]), "cases rank changed by 1")

    csv_ref = ref["csv"]["relative"]

    def csv_text(rows):
        lines = [",".join(csv_ref["header"])] + [",".join(repr(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    rows = copy.deepcopy(csv_ref["rows"])
    passes(checks.check_csv("relative.csv", csv_text(rows), csv_ref), "relative.csv as recorded")
    rows[100][3] *= 1 + 0.1 * checks.RTOL
    passes(checks.check_csv("relative.csv", csv_text(rows), csv_ref), "relative.csv value off by 0.1 rtol")
    rows[100][3] *= 1 + 10 * checks.RTOL
    flags(checks.check_csv("relative.csv", csv_text(rows), csv_ref), "relative.csv value off by 10 rtol")
    flags(checks.check_csv("relative.csv", csv_text(rows[:-1]), csv_ref), "relative.csv missing a row")


def sweep_checker():
    from slamobs import analysis

    scenario, total, local = gen.sweep_input(0, 4)
    reports = [analysis.analyze_total(scenario, total)] + [
        analysis.analyze_local(scenario, i, o) for i, o in enumerate(local)
    ]
    detected = scenario.schedule.detected
    n_features = [detected.shape[0]] + [int(detected[:, i].sum()) for i in range(detected.shape[1])]
    passes(checks.check_sweep(reports, n_features), "sweep reports")
    reports[0].rank += 1
    flags(checks.check_sweep(reports, n_features), "sweep rank changed by 1")
    reports[0].rank -= 1
    reports[1].verdict("rigid_E").observable = True
    flags(checks.check_sweep(reports, n_features), "rigid translation classified observable")


def simulation_checkers():
    from slamobs import scenario, simulation

    text = gen.flight_yaml(0, 0)
    doc = scenario.parse_scenario(text)
    trace = simulation.simulate(doc.sim_scenario(), doc.trajectory, doc.sensor, collect_diagnostics=True)
    oracle = bare.covariance_run(bare.load(text))
    passes(checks.check_oracle("flight", trace, oracle), "flight trace against the NumPy oracle")
    label = next(iter(trace.derived_std))
    trace.derived_std[label][500] *= 1 + 10 * checks.ORACLE_RTOL
    flags(checks.check_oracle("flight", trace, oracle), "flight trace value off by 10 oracle rtol")

    diag = trace.diagnostics
    passes(checks.check_diagnostics(diag, diag.n_updates), "flight diagnostics")
    bad = copy.copy(diag)
    bad.max_relative_asymmetry = 1e-6
    flags(checks.check_diagnostics(bad, diag.n_updates), "asymmetric covariance")
    bad = copy.copy(diag)
    bad.min_eigenvalue_ratio = -1e-6
    flags(checks.check_diagnostics(bad, diag.n_updates), "indefinite covariance")

    run = simulation.state_comparison_run(doc.sim_scenario(), doc.trajectory, doc.sensor, seed=5, duration=4.0)
    again = simulation.state_comparison_run(doc.sim_scenario(), doc.trajectory, doc.sensor, seed=5, duration=4.0)
    passes(checks.check_state_repeat("state run", again, run), "state run repeated with its seed")
    again.estimated_positions[-1, 0] += 1e-9
    flags(checks.check_state_repeat("state run", again, run), "state run that does not repeat")


def refuses_without_sources():
    bare_dir = ROOT / ".bench_build" / "perfbench" / "no-sources"
    shutil.rmtree(bare_dir, ignore_errors=True)
    bare_dir.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare_dir)
        shutil.copytree(HERE, bare_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare_dir, env=env, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare_dir, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "harness refuses to run without src/")


def workloads_emit_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed", "0",
                 "--seconds", "0.001", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            expect(proc.returncode == 0, f"{w['name']} trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{w['name']} result keys")
            expect(result["correct"] and result["failed"] == 0, f"{w['name']} trace {trace} outputs correct")
            expect(sorted(result["metrics"]) == sorted(names[trace]),
                   f"{w['name']} trace {trace} emits every named metric")
            expect(all(np.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{w['name']} trace {trace} values are finite")


def main():
    generators()
    cli_checkers()
    sweep_checker()
    simulation_checkers()
    refuses_without_sources()
    if "--quick" not in sys.argv:
        workloads_emit_metrics()
    print("smoke check passed")


if __name__ == "__main__":
    main()
