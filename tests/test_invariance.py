"""Verdicts that survive a change of description of the same system.

Each relation maps a random scenario to one that describes the same
observability problem and checks that the analysis answers the same:

- reversing the feature order, which keeps the rank and every verdict (a
  feature-minus-feature label keyed by its unordered pair, since its two
  ids swap places);
- multiplying every length, relative positions and specific forces, by 1e-3
  and keeping the durations, which keeps the rank and every verdict;
- rotating every relative position and specific force by one seeded random
  rotation, which keeps the rank and the observable modes (the per-axis
  verdicts turn with the axes).
"""

import re

import numpy as np
import pytest

from randgen import random_scenario
from slamobs.analysis import analyze_total
from slamobs.model import DetectionSchedule, Scenario, SegmentSpec

SCENARIOS = 150


@pytest.fixture(scope="module")
def pairs():
    """(scenario, report) of each random scenario, drawn from one seeded stream."""
    rng = np.random.default_rng(7)
    scenarios = [random_scenario(rng) for _ in range(SCENARIOS)]
    return [(scenario, analyze_total(scenario)) for scenario in scenarios]


def _mapped(scenario, vector=lambda v: v, schedule=None):
    """``scenario`` with ``vector`` applied to every force and relative position."""
    segments = [
        SegmentSpec(
            seg.duration,
            vector(seg.specific_force),
            {fid: vector(rel) for fid, rel in seg.feature_rel_pos.items()},
        )
        for seg in scenario.segments
    ]
    return Scenario(schedule=schedule or scenario.schedule, segments=segments)


def _verdicts(report, key=lambda label: label):
    return {key(v.label): v.observable for v in report.mode_results}


def _unordered_pair(label):
    """``dm_a-dm_b_X`` as ({a, b}, X); any other label as itself."""
    match = re.fullmatch(r"dm_(.+)-dm_(.+)_([NEU])", label)
    return (frozenset(match.group(1, 2)), match.group(3)) if match else label


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def test_reversed_feature_order(pairs):
    differ = []
    for k, (scenario, report) in enumerate(pairs):
        schedule = scenario.schedule
        reversed_schedule = DetectionSchedule(
            detected=schedule.detected[::-1], feature_ids=schedule.feature_ids[::-1]
        )
        got = analyze_total(_mapped(scenario, schedule=reversed_schedule))
        key = _unordered_pair
        if (got.rank, _verdicts(got, key)) != (report.rank, _verdicts(report, key)):
            differ.append(k)
    assert differ == []


def test_lengths_times_1e_minus_3(pairs):
    differ = []
    for k, (scenario, report) in enumerate(pairs):
        got = analyze_total(_mapped(scenario, lambda v: v * 1e-3))
        if (got.rank, _verdicts(got)) != (report.rank, _verdicts(report)):
            differ.append(k)
    assert differ == []


def test_random_rotation(pairs):
    rng = np.random.default_rng(8)
    differ = []
    for k, (scenario, report) in enumerate(pairs):
        rotation = _random_rotation(rng)
        got = analyze_total(_mapped(scenario, lambda v: rotation @ v))
        if (got.rank, got.observable_modes()) != (report.rank, report.observable_modes()):
            differ.append(k)
    assert differ == []
