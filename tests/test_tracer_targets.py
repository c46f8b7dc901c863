"""The benchmark's traced run wraps package names that must keep existing.

``perfbench/tracer.py`` installs its span and count wrappers on module-level
names of ``slamobs`` (for example ``slamobs.simulation._stacked_measurement``)
and raises ``AttributeError`` under ``--trace 1`` when one is gone.  This
test resolves every target through the tracer's own ``_resolve``, so a
refactor that renames or deletes one fails here rather than in the
benchmark.  One traced run also checks that a counted name is still on the
call path.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from slamobs import simulation  # noqa: E402
from slamobs.scenario import load_scenario  # noqa: E402

CASE2_FLIGHT = Path(__file__).resolve().parent.parent / "src/slamobs/scenarios/case2_flight.yaml"
TARGETS = list(tracer.SPAN_TARGETS) + [
    target for names in tracer.COUNT_TARGETS.values() for target in names
]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr))


def test_traced_update_counter_counts_updates():
    """``simulation.update_frames`` counts every update of a traced run.

    A wrapped name that stays defined but leaves the call path would still
    resolve above, and read 0 under ``--trace 1``.
    """
    doc = load_scenario(CASE2_FLIGHT)
    traced = tracer.Tracer()
    traced.install()
    try:
        trace = simulation.simulate(
            doc.sim_scenario(), doc.trajectory, doc.sensor, duration=10.0, collect_diagnostics=True
        )
    finally:
        traced.uninstall()
    assert traced.metrics()["simulation.update_frames"] == trace.diagnostics.n_updates == 251
