"""Print one SHA-256 over the sweep's analysis reports, to check byte identity.

For seeds 0, 1, 2, 901 and 906 and k = 0..47 it takes, in this order, the
total report, the first-order total report and every local report of
``perfbench/gen.sweep_input(seed, k)``, and hashes
``json.dumps(report_to_dict(r, f"{seed}/{k}"), indent=2)`` of each.  It
prints the report count and the hex digest.

A change that claims byte-identical reports runs it on the parent commit and
on the change, on the same machine, and quotes both digests.  BLAS kernels
differ between CPUs, so the digest is not a constant to pin in a test.

    PYTHONPATH=src python tests/report_digest.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
from slamobs.analysis import analyze_local, analyze_total  # noqa: E402
from slamobs.cli import report_to_dict  # noqa: E402

SEEDS = (0, 1, 2, 901, 906)
KS = range(48)


def reports(seed, k):
    """Total, first-order total and local reports of one sweep input."""
    scenario, total_options, local_options = gen.sweep_input(seed, k)
    yield analyze_total(scenario, total_options)
    first_order = dataclasses.replace(total_options, expansion_mode="first_order")
    yield analyze_total(scenario, first_order)
    for i, options in enumerate(local_options):
        yield analyze_local(scenario, i, options)


def main():
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for k in KS:
            for report in reports(seed, k):
                text = json.dumps(report_to_dict(report, f"{seed}/{k}"), indent=2)
                digest.update(text.encode())
                count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
