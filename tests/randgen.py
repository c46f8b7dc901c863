"""Random scenario generation shared by property tests."""

import numpy as np

from slamobs.model import DetectionSchedule, Scenario, SegmentSpec


def random_schedule(rng, n_features, n_segments):
    """Random detection pattern with every feature detected at least once."""
    detected = rng.random((n_features, n_segments)) < 0.5
    for c in range(n_features):
        if not detected[c].any():
            detected[c, rng.integers(n_segments)] = True
    return DetectionSchedule(detected=detected)


def random_scenario(rng, n_features=None, n_segments=None):
    """Random scenario: nonzero forces, generic feature geometry."""
    if n_features is None:
        n_features = int(rng.integers(1, 5))
    if n_segments is None:
        n_segments = int(rng.integers(1, 5))
    schedule = random_schedule(rng, n_features, n_segments)
    segments = []
    for i in range(n_segments):
        force = rng.normal(scale=5.0, size=3)
        while not np.linalg.norm(force) > 1e-6:
            force = rng.normal(scale=5.0, size=3)
        rel = {
            fid: rng.normal(scale=50.0, size=3)
            for _, fid in schedule.features_in_segment(i)
        }
        segments.append(
            SegmentSpec(
                duration=float(rng.uniform(1.0, 100.0)),
                specific_force=force,
                feature_rel_pos=rel,
            )
        )
    return Scenario(schedule=schedule, segments=segments)


def zero_components(rng, scenario, share=0.3):
    """Set a random share of the scenario's relative-position components to 0.0.

    Works in place on the validated arrays and returns the number zeroed.
    """
    zeroed = 0
    for seg in scenario.segments:
        for rel in seg.feature_rel_pos.values():
            mask = rng.random(3) < share
            rel[mask] = 0.0
            zeroed += int(mask.sum())
    return zeroed
