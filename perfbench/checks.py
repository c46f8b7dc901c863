"""Output checks.  Each returns a list of problems; an empty list means pass.

The checks are pure functions of the program's outputs and the recorded
references, so they can be fed perturbed outputs to show that they catch a
wrong answer (see ``smoke.py``).
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

# Values recorded from the reference commit (CSV cells, report numbers) must
# match to RTOL; ATOL covers values that are zero up to rounding, such as the
# null projection of an observable functional (about 1e-16).
RTOL = 1e-9
ATOL = 1e-12
# The package's traces against the independent NumPy recursion in bare.py:
# the two sum in different orders, and measured deviations stay below 1e-9.
ORACLE_RTOL = 1e-7
# Covariance health limits for the diagnostics run.
MAX_ASYMMETRY = 1e-12
MIN_EIGENVALUE_RATIO = -1e-12
MAX_UPDATE_GROWTH = 1e-9
# A functional in the unobservable subspace has relative null projection 1.
UNOBSERVABLE_MIN_PROJECTION = 1.0 - 1e-9

# Facts of the paper the bundled scenarios must reproduce: (rank, columns, nullity).
PAPER_FACTS = {"analyze": (12, 15, 3), "analyze_local": (8, 12, 4)}


def close(what, got, want, rtol=RTOL, atol=ATOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != reference {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite values"]
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if bad.any():
        i = np.flatnonzero(bad.ravel())[0]
        return [
            f"{what}: {int(bad.sum())} values off, first {got.ravel()[i]!r} vs {want.ravel()[i]!r} "
            f"(rtol {rtol:g}, atol {atol:g})"
        ]
    return []


def equal(what, got, want):
    return [] if got == want else [f"{what}: {got!r} != reference {want!r}"]


# ----------------------------------------------------------------------- cli


def analyze_summary(text: str) -> dict:
    """The checked parts of an ``analyze`` JSON report."""
    doc = json.loads(text)
    basis = np.array(doc["null_basis"], dtype=float).reshape(doc["nullity"], doc["matrix_cols"])
    return {
        "rank": doc["rank"],
        "nullity": doc["nullity"],
        "matrix_rows": doc["matrix_rows"],
        "matrix_cols": doc["matrix_cols"],
        "state_labels": doc["state_labels"],
        "observable_modes": doc["observable_modes"],
        "labels": [f["label"] for f in doc["functionals"]],
        "observable": [f["observable"] for f in doc["functionals"]],
        "null_projection": [f["null_projection"] for f in doc["functionals"]],
        # the projector onto the null space does not depend on the basis chosen
        "null_projector": (basis.T @ basis).tolist(),
    }


def check_analyze(command, text, ref):
    try:
        got = analyze_summary(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable report ({exc})"]
    rank, cols, nullity = PAPER_FACTS[command]
    problems = equal(f"{command} rank/cols/nullity", (got["rank"], got["matrix_cols"], got["nullity"]), (rank, cols, nullity))
    for key in ("rank", "nullity", "matrix_rows", "matrix_cols", "state_labels", "observable_modes", "labels", "observable"):
        problems += equal(f"{command} {key}", got[key], ref[key])
    problems += close(f"{command} null_projection", got["null_projection"], ref["null_projection"])
    problems += close(f"{command} null_projector", got["null_projector"], ref["null_projector"], atol=1e-9)
    return problems


_CASE_ROW = re.compile(r"^(\d)\s+(\S+ / \S+)\s+(\d+)/(\d+)\s+(\d+)\s+(.*)$")


def cases_rows(text: str) -> list:
    """(case, schedule, rank, columns, nullity, modes) for every table row."""
    rows = []
    for line in text.splitlines():
        m = _CASE_ROW.match(line.strip())
        if m:
            case, sched, rank, cols, nullity, modes = m.groups()
            rows.append([int(case), sched, int(rank), int(cols), int(nullity), modes.strip()])
    return rows


def check_cases(text, ref):
    rows = cases_rows(text)
    if len(rows) != 8:
        return [f"cases: {len(rows)} table rows, expected 8 (exact and first-order tables)"]
    return equal("cases rows", rows, ref["rows"])


def read_csv(text: str):
    """(header, float rows) of a CSV document."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def check_csv(what, text, ref, columns=None):
    """Header, row count and values (or the named columns) against a reference."""
    try:
        header, rows = read_csv(text)
    except (StopIteration, ValueError) as exc:
        return [f"{what}: unreadable CSV ({exc})"]
    problems = equal(f"{what} header", header, ref["header"])
    problems += equal(f"{what} rows", len(rows), len(ref["rows"]))
    if problems:
        return problems
    got = np.array(rows)
    want = np.array(ref["rows"])
    if columns is not None:
        idx = [header.index(c) for c in columns]
        got, want = got[:, idx], want[:, idx]
    return close(what, got, want)


# --------------------------------------------------------------------- sweep


def check_sweep(reports, n_features):
    """Invariants of one scenario's total report and its per-segment local reports.

    ``n_features`` lists the feature count of each report's system.
    """
    problems = []
    for report, L in zip(reports, n_features):
        what = f"{report.scope} report" + ("" if report.segment_index is None else f" {report.segment_index}")
        n = 9 + 3 * L
        if report.matrix_cols != n or report.rank + report.nullity != n:
            problems.append(f"{what}: rank {report.rank} + nullity {report.nullity} != {n}")
        if report.nullity < 3:
            problems.append(f"{what}: nullity {report.nullity} < 3")
        for axis in "NEU":
            try:
                v = report.verdict(f"rigid_{axis}")
            except KeyError:
                problems.append(f"{what}: rigid_{axis} not classified")
                continue
            if v.observable or not v.null_projection >= UNOBSERVABLE_MIN_PROJECTION:
                problems.append(
                    f"{what}: rigid translation {axis} classified observable "
                    f"(null projection {v.null_projection!r})"
                )
    if len(reports) != len(n_features):
        problems.append(f"{len(reports)} reports for {len(n_features)} systems")
    return problems


# ------------------------------------------------------------ flight, verify


def trace_matrix(trace):
    """(times, state stds, derived stds) of a CovarianceTrace as arrays."""
    std = np.column_stack([trace.std[k] for k in trace.std])
    derived = np.column_stack([trace.derived_std[k] for k in trace.derived_std])
    return trace.times, std, derived


def check_oracle(what, trace, oracle):
    """A covariance trace against the bare NumPy recursion."""
    times, std, derived = trace_matrix(trace)
    o_times, o_std, o_derived, _ = oracle
    problems = close(f"{what} times", times, o_times, rtol=0.0, atol=1e-9)
    problems += close(f"{what} stds", std, o_std, rtol=ORACLE_RTOL, atol=0.0)
    problems += close(f"{what} derived stds", derived, o_derived, rtol=ORACLE_RTOL, atol=0.0)
    return problems


def trace_reference(trace, every):
    """Recorded form of a trace: labels and every ``every``-th row."""
    return {
        "every": every,
        "rows": int(trace.times.size),
        "labels": list(trace.std) + list(trace.derived_std),
        "times": trace.times[::every].tolist(),
        "values": np.column_stack(trace_matrix(trace)[1:])[::every].tolist(),
    }


def check_trace(what, trace, ref):
    got = trace_reference(trace, ref["every"])
    problems = equal(f"{what} rows", got["rows"], ref["rows"])
    problems += equal(f"{what} labels", got["labels"], ref["labels"])
    if problems:
        return problems
    problems += close(f"{what} times", got["times"], ref["times"])
    problems += close(f"{what} values", got["values"], ref["values"])
    return problems


def check_diagnostics(diag, n_updates):
    if diag is None:
        return ["diagnostics missing"]
    problems = []
    if not diag.max_relative_asymmetry <= MAX_ASYMMETRY:
        problems.append(f"asymmetry {diag.max_relative_asymmetry!r} > {MAX_ASYMMETRY:g}")
    if not diag.min_eigenvalue_ratio >= MIN_EIGENVALUE_RATIO:
        problems.append(f"eigenvalue ratio {diag.min_eigenvalue_ratio!r} < {MIN_EIGENVALUE_RATIO:g}")
    if not diag.max_update_variance_growth <= MAX_UPDATE_GROWTH:
        problems.append(f"update variance growth {diag.max_update_variance_growth!r} > {MAX_UPDATE_GROWTH:g}")
    problems += equal("diagnostics updates", diag.n_updates, n_updates)
    return problems


def state_run_arrays(run):
    return [run.times, run.true_positions, run.ins_positions, run.estimated_positions]


def check_state_repeat(what, run, first):
    """The state run of a seed must repeat bit for bit."""
    for got, want in zip(state_run_arrays(run), state_run_arrays(first)):
        if got.shape != want.shape or not np.array_equal(got, want):
            return [f"{what}: state run differs from the first run with the same seed"]
    return []
