"""Observability analysis and covariance simulation for airborne inertial SLAM.

The estimated error state mixes an inertial navigation block (position,
velocity and attitude errors) with one static position-error block per
mapped feature.  Because the detected feature set changes over time, the
system is treated as piece-wise constant: per-segment observability
matrices, their multi-segment stack, numerical rank and null space decide
which linear functionals of the state the relative feature measurements can
determine, and a covariance simulation checks those verdicts against the
behaviour of a Kalman filter designed for the same model.

``import slamobs`` loads the analysis half (``pwcs``, ``model``,
``analysis``, ``scenario``).  The covariance filter, ``slamobs.simulation``,
loads on first use of it or of one of its names here (``simulate``,
``state_comparison_run``, ``CovarianceTrace``, ``SensorConfig``,
``TrajectoryConfig``, ``SimScenario``, ``measurement_noise_cartesian``), so
a program that only analyses never imports it.
"""

import importlib

from .analysis import (
    AnalysisOptions,
    CandidateFunctional,
    FunctionalVerdict,
    ObservabilityReport,
    analyze_local,
    analyze_total,
    case_scenario,
)
from .model import (
    DetectionSchedule,
    Scenario,
    SegmentSpec,
    augment,
    equivalence_pad,
    feature_obs_row,
    ins_error_f,
    state_labels,
)
from .pwcs import (
    PwcsStripe,
    is_functional_observable,
    lom,
    null_space,
    skew,
    state_transition,
    tom,
)
from .scenario import ScenarioDoc, ScenarioError, fov_schedule, load_scenario, parse_scenario

__version__ = "0.1.0"

_SIMULATION_NAMES = frozenset({
    "CovarianceTrace",
    "SensorConfig",
    "SimScenario",
    "TrajectoryConfig",
    "measurement_noise_cartesian",
    "simulate",
    "state_comparison_run",
})


def __getattr__(name):
    if name == "simulation" or name in _SIMULATION_NAMES:
        simulation = importlib.import_module(f"{__name__}.simulation")
        return simulation if name == "simulation" else getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _SIMULATION_NAMES | {"simulation"})
