"""Command-line front end.

Subcommands:
  analyze  <scenario>   rank / null-space / mode report as a JSON document
  simulate <scenario>   covariance traces as CSV files
  cases                 comparative table of the four benchmark detection
                        patterns on the default geometry
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import analysis
from .analysis import AnalysisOptions, analyze_local, analyze_total, case_scenario
from .model import AXES, VEHICLE_DIM
from .scenario import ScenarioError, _number, _vec3, load_scenario

#: One CSV per vehicle block, in state order, then one of the features and one of the differences.
_CSV_GROUPS = ("position", "velocity", "attitude", "features", "relative")


def report_to_dict(report, scenario_name: str) -> dict:
    """Structured report document for one analysis run."""
    return {
        "scenario": scenario_name,
        "scope": report.scope,
        "segment_index": report.segment_index,
        "expansion_mode": report.expansion_mode,
        "rank_tolerance": report.rank_tol,
        "state_labels": list(report.state_labels),
        "matrix_rows": report.matrix_rows,
        "matrix_cols": report.matrix_cols,
        "rank": report.rank,
        "nullity": report.nullity,
        "null_basis": report.null_basis.T.tolist(),
        "functionals": [
            {
                "label": v.label,
                "observable": bool(v.observable),
                "null_projection": float(v.null_projection),
            }
            for v in report.mode_results
        ],
        "observable_modes": report.observable_modes(),
    }


def _analysis_options(doc_options: AnalysisOptions, args) -> AnalysisOptions:
    """`doc_options` with the command's expansion and `--tol` flags applied."""
    expansion = doc_options.expansion_mode
    if args.first_order:
        expansion = "first_order"
    elif args.exact:
        expansion = "exact"
    rank_tol = doc_options.rank_tol if args.tol is None else _number(args.tol, "--tol", 0.0, True)
    return dataclasses.replace(doc_options, expansion_mode=expansion, rank_tol=rank_tol)


def cmd_analyze(args) -> int:
    doc = load_scenario(args.scenario)
    options = _analysis_options(doc.options, args)
    if args.local is not None:
        n = doc.scenario.n_segments
        if _number(args.local, "--local", minimum=0) >= n:
            raise ScenarioError("--local", f"must be < {n} (the scenario has {n} segments)")
        report = analyze_local(doc.scenario, args.local, options)
    else:
        report = analyze_total(doc.scenario, options)
    payload = json.dumps(report_to_dict(report, doc.name), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(payload)
    return 0


def _write_csv(path: Path, labels, times, columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + list(labels))
        # Python floats format faster than NumPy scalars, to the same text
        lists = [col.tolist() for col in columns]
        for k, t in enumerate(times.tolist()):
            writer.writerow([f"{t:.6f}"] + [f"{col[k]:.12g}" for col in lists])


def cmd_simulate(args) -> int:
    from . import simulation

    _number(args.seed, "--seed", minimum=0)
    if args.duration is not None:
        _number(args.duration, "--duration", minimum=0.0)
    doc = load_scenario(args.scenario)
    inputs = (doc.sim_scenario(), doc.trajectory, doc.sensor)
    if args.state_run:
        # the state run records the trace of its own filter pass
        run = simulation.state_comparison_run(*inputs, seed=args.seed, duration=args.duration)
        trace = run.trace
    else:
        run, trace = None, simulation.simulate(*inputs, seed=args.seed, duration=args.duration)
    state = list(trace.std)
    groups = [state[k : k + 3] for k in range(0, VEHICLE_DIM, 3)]
    groups += [state[VEHICLE_DIM:], list(trace.derived_std)]
    tables = [
        (name, labels, trace.times, [trace.series(lab) for lab in labels])
        for name, labels in zip(_CSV_GROUPS, groups)
    ]
    if run is not None:
        series = (run.true_positions, run.ins_positions, run.estimated_positions)
        labels = [f"{kind}_{axis}" for kind in ("true", "ins", "est") for axis in AXES]
        columns = [positions[:, a] for positions in series for a in range(3)]
        tables.append(("state_run", labels, run.times, columns))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"simulated {doc.name}: {trace.times.size} rows per trace (seed {args.seed})")
    for name, labels, times, columns in tables:
        path = out_dir / f"{name}.csv"
        _write_csv(path, labels, times, columns)
        print(f"wrote {path}")
    return 0


def _cases_table(forces, delta, options) -> str:
    lines = [
        f"expansion: {options.expansion_mode}   rank tolerance: {options.rank_tol:g}",
        f"{'case':<6}{'schedule':<22}{'rank':<7}{'nullity':<9}observable modes",
    ]
    for case_id in sorted(analysis.CASE_SCHEDULES):
        scenario = case_scenario(case_id, forces, delta)
        report = analyze_total(scenario, options)
        schedule = " / ".join(
            "{" + ",".join(fid for _, fid in scenario.schedule.features_in_segment(i)) + "}"
            for i in range(scenario.n_segments)
        )
        modes = ", ".join(report.observable_modes()) or "-"
        lines.append(
            f"{case_id:<6}{schedule:<22}"
            f"{report.rank}/{report.matrix_cols:<4} {report.nullity:<9}{modes}"
        )
    return "\n".join(lines)


def _floats(text, flag) -> list:
    """The comma-separated numbers of ``text``; a non-number fails at ``flag``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(flag, "entries must be numbers") from None


def cmd_cases(args) -> int:
    # each flag follows the rule of the scenario field that carries the same quantity
    delta = _number(args.dt, "--dt", 0.0, strict=True)
    forces = analysis.DEFAULT_FORCES
    if args.forces:
        forces = tuple(_vec3(_floats(f, "--forces"), "--forces") for f in args.forces)
    options = _analysis_options(AnalysisOptions(), args)
    modes = []
    if args.exact or not args.first_order:
        modes.append("exact")
    if args.first_order:
        modes.append("first_order")
    blocks = []
    for mode in modes:
        options = dataclasses.replace(options, expansion_mode=mode)
        blocks.append(_cases_table(forces, delta, options))
    print("\n\n".join(blocks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slamobs",
        description=(
            "Observability analysis and covariance simulation of airborne "
            "inertial SLAM under time-varying feature detection schedules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="rank/null-space report for a scenario file")
    p_analyze.add_argument("scenario", help="path to a scenario YAML file")
    p_analyze.add_argument(
        "--local",
        type=int,
        default=None,
        metavar="I",
        help="analyze a single segment instead of the whole scenario",
    )
    p_analyze.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
    group = p_analyze.add_mutually_exclusive_group()
    group.add_argument(
        "--first-order", action="store_true", help="expand transitions to first order"
    )
    group.add_argument(
        "--exact", action="store_true", help="use exact transition matrices"
    )
    p_analyze.add_argument("--out", default=None, help="write the JSON report to this file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="covariance simulation, CSV traces")
    p_sim.add_argument("scenario", help="path to a scenario YAML file")
    p_sim.add_argument(
        "--seed", type=int, default=0, help="seed of the --state-run noise draws (default 0)"
    )
    p_sim.add_argument("--out", default=".", help="output directory for CSV traces")
    p_sim.add_argument(
        "--duration", type=float, default=None, help="truncate the run to this many seconds"
    )
    p_sim.add_argument(
        "--state-run",
        action="store_true",
        help="also write a noisy-measurement trajectory comparison",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_cases = sub.add_parser(
        "cases", help="rank table of the four benchmark detection patterns"
    )
    p_cases.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
    p_cases.add_argument(
        "--first-order", action="store_true", help="include the first-order table"
    )
    p_cases.add_argument(
        "--exact", action="store_true", help="include the exact table (default)"
    )
    p_cases.add_argument(
        "--forces",
        nargs=2,
        metavar=("F1", "F2"),
        default=None,
        help="per-segment specific forces as two 'x,y,z' triples",
    )
    p_cases.add_argument(
        "--dt", type=float, default=analysis.DEFAULT_SEGMENT_DURATION,
        help="segment duration in seconds",
    )
    p_cases.set_defaults(func=cmd_cases)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
