"""Print one SHA-256 over the sweep's analysis reports and one over filter outputs.

Analysis: for seeds 0, 1, 2, 901 and 906 and k = 0..47 it takes, in this
order, the total report, the first-order total report and every local report
of ``perfbench/gen.sweep_input(seed, k)``, and hashes
``json.dumps(report_to_dict(r, f"{seed}/{k}"), indent=2)`` of each.

Filter: for ``perfbench/gen.flight_yaml(seed, k)`` with seeds 1 and 906 and
k = 0..2, then the bundled ``case2_flight.yaml``, it runs
``simulate(..., seed, collect_diagnostics=True)`` and
``state_comparison_run(..., seed)`` (seed 42 for case2_flight) and hashes
every label, the shape and bytes of every array (trace times and series,
state-run positions and the state run's own trace) and the ``repr`` of every
diagnostics field.

It prints ``analysis <reports> <hex>`` and ``filter <flights> <hex>``.  A
change that claims byte-identical reports or filter outputs runs it on the
parent commit and on the change, on the same machine, and quotes both
digests.  BLAS kernels differ between CPUs, so the digests are not constants
to pin in a test.

    PYTHONPATH=src python tests/report_digest.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from slamobs.analysis import analyze_local, analyze_total  # noqa: E402
from slamobs.cli import report_to_dict  # noqa: E402
from slamobs.scenario import parse_scenario  # noqa: E402
from slamobs.simulation import simulate, state_comparison_run  # noqa: E402

SEEDS = (0, 1, 2, 901, 906)
KS = range(48)
FLIGHT_SEEDS = (1, 906)
FLIGHT_KS = range(3)
CASE2_FLIGHT_SEED = 42
DIAGNOSTICS = (
    "max_relative_asymmetry",
    "min_eigenvalue_ratio",
    "max_update_variance_growth",
    "n_updates",
)


def reports(seed, k):
    """Total, first-order total and local reports of one sweep input."""
    scenario, total_options, local_options = gen.sweep_input(seed, k)
    yield analyze_total(scenario, total_options)
    first_order = dataclasses.replace(total_options, expansion_mode="first_order")
    yield analyze_total(scenario, first_order)
    for i, options in enumerate(local_options):
        yield analyze_local(scenario, i, options)


def flights():
    """(scenario text, seed) of every flight the filter digest covers."""
    for seed in FLIGHT_SEEDS:
        for k in FLIGHT_KS:
            yield gen.flight_yaml(seed, k), seed
    yield gen.verify_yaml(ROOT), CASE2_FLIGHT_SEED


def filter_arrays(text, seed):
    """(name, array or value) of every output of one flight's two runs."""
    doc = parse_scenario(text)
    inputs = (doc.sim_scenario(), doc.trajectory, doc.sensor)
    trace = simulate(*inputs, seed=seed, collect_diagnostics=True)
    run = state_comparison_run(*inputs, seed=seed)
    for prefix, tr in (("simulate", trace), ("state_run.trace", run.trace)):
        yield f"{prefix}.times", tr.times
        for label, series in (*tr.std.items(), *tr.derived_std.items()):
            yield f"{prefix}.{label}", series
    for name in ("times", "true_positions", "ins_positions", "estimated_positions"):
        yield f"state_run.{name}", getattr(run, name)
    for name in DIAGNOSTICS:
        yield f"diagnostics.{name}", getattr(trace.diagnostics, name)


def filter_digest():
    digest = hashlib.sha256()
    count = 0
    for text, seed in flights():
        for name, value in filter_arrays(text, seed):
            digest.update(name.encode())
            if isinstance(value, np.ndarray):
                digest.update(repr(value.shape).encode() + value.tobytes())
            else:
                digest.update(repr(value).encode())
        count += 1
    return count, digest.hexdigest()


def main():
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for k in KS:
            for report in reports(seed, k):
                text = json.dumps(report_to_dict(report, f"{seed}/{k}"), indent=2)
                digest.update(text.encode())
                count += 1
    print("analysis", count, digest.hexdigest())
    print("filter", *filter_digest())


if __name__ == "__main__":
    main()
