"""The benchmark's traced run wraps package names that must keep existing.

``perfbench/tracer.py`` installs its span and count wrappers on module-level
names of ``slamobs`` (for example ``slamobs.simulation._stacked_measurement``)
and raises ``AttributeError`` under ``--trace 1`` when one is gone.  This
test resolves every target through the tracer's own ``_resolve``, so a
refactor that renames or deletes one fails here rather than in the
benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402

TARGETS = list(tracer.SPAN_TARGETS) + [
    target for names in tracer.COUNT_TARGETS.values() for target in names
]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr))
