"""Observability analysis and covariance simulation for airborne inertial SLAM.

The estimated error state mixes an inertial navigation block (position,
velocity and attitude errors) with one static position-error block per
mapped feature.  Because the detected feature set changes over time, the
system is treated as piece-wise constant: per-segment observability
matrices, their multi-segment stack, numerical rank and null space decide
which linear functionals of the state the relative feature measurements can
determine, and a covariance simulation checks those verdicts against the
behaviour of a Kalman filter designed for the same model.
"""

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
from .scenario import ScenarioDoc, ScenarioError, load_scenario, parse_scenario
from .simulation import (
    CovarianceTrace,
    SensorConfig,
    SimScenario,
    TrajectoryConfig,
    fov_schedule,
    measurement_noise_cartesian,
    simulate,
    state_comparison_run,
)

__version__ = "0.1.0"
