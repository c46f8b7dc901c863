"""Span and count wrappers for the traced run.

The wrappers are installed from outside on the module-level names through
which each layer of ``slamobs`` is called (for example
``slamobs.simulation.state_transition``, the name ``simulate`` calls, or
``slamobs.analysis.null_space``, the name the report builder calls) and are
removed again afterwards; no file of the package changes.  A span is named
``<module>.<attribute>`` after the name the call went through.  Spans are
held in memory and written once, at the end.

Counting is kept apart from timing: hot, tiny functions get a wrapper that
only counts, and every count depends on the inputs alone, so counts repeat
exactly from run to run with the same seed.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# Names wrapped with a span, as (module under slamobs, attribute path).
SPAN_TARGETS = (
    ("scenario", "parse_scenario"),
    ("scenario", "fov_schedule"),
    ("cli", "main"),
    ("cli", "_write_csv"),
    ("cli", "analyze_total"),
    ("cli", "analyze_local"),
    ("analysis", "analyze_total"),
    ("analysis", "analyze_local"),
    ("analysis", "standard_candidates"),
    ("analysis", "augment"),
    ("model", "augment"),
    ("analysis", "tom"),
    ("analysis", "lom"),
    ("pwcs", "lom"),
    ("analysis", "null_space"),
    ("pwcs", "null_space"),
    ("pwcs", "state_transition"),
    ("simulation", "state_transition"),
    ("simulation", "simulate"),
    ("simulation", "state_comparison_run"),
    ("simulation", "TrajectoryConfig.state_at"),
    ("simulation", "_stacked_measurement"),
    ("simulation", "measurement_noise_cartesian"),
    ("simulation", "initialize_feature"),
    ("simulation", "AugmentedCovariance.stds"),
    ("simulation", "AugmentedCovariance.functional_std"),
)

# Names wrapped with a bare counter: metric -> names.
COUNT_TARGETS = {
    "model.ins_error_f_calls": (("model", "ins_error_f"),),
    "model.feature_obs_row_calls": (("model", "feature_obs_row"), ("simulation", "feature_obs_row")),
    "pwcs.as_finite_array_calls": tuple(
        (module, "_as_finite_array") for module in ("pwcs", "model", "analysis", "simulation")
    ),
    "simulation.cov_constructions": (("simulation", "AugmentedCovariance.__post_init__"),),
}

_ANALYZE = ("analysis.analyze_total", "analysis.analyze_local", "cli.analyze_total", "cli.analyze_local")
_TRANSITION = ("pwcs.state_transition", "simulation.state_transition")

# Per-layer self times: metric -> span names whose self time it sums.
SELF_TIME = {
    "scenario.parse_s": ("scenario.parse_scenario",),
    "scenario.fov_schedule_s": ("scenario.fov_schedule",),
    "cli.main_self_s": ("cli.main",),
    "cli.write_csv_s": ("cli._write_csv",),
    "model.augment_s": ("analysis.augment", "model.augment"),
    "pwcs.tom_s": ("analysis.tom",),
    "pwcs.lom_s": ("analysis.lom", "pwcs.lom"),
    "pwcs.null_space_s": ("analysis.null_space", "pwcs.null_space"),
    "pwcs.state_transition_s": _TRANSITION,
    "analysis.self_s": _ANALYZE,
    "analysis.standard_candidates_s": ("analysis.standard_candidates",),
    "simulation.simulate_self_s": ("simulation.simulate",),
    "simulation.state_at_s": ("simulation.TrajectoryConfig.state_at",),
    "simulation.measurement_build_s": ("simulation._stacked_measurement",),
    "simulation.noise_geom_s": ("simulation.measurement_noise_cartesian",),
    "simulation.record_s": ("simulation.AugmentedCovariance.stds", "simulation.AugmentedCovariance.functional_std"),
    "simulation.state_run_self_s": ("simulation.state_comparison_run",),
}

# Per-layer call counts: metric -> span names whose calls it counts.
CALLS = {
    "scenario.parse_calls": ("scenario.parse_scenario",),
    "model.augment_calls": ("analysis.augment", "model.augment"),
    "pwcs.null_space_calls": ("analysis.null_space", "pwcs.null_space"),
    "pwcs.state_transition_calls": _TRANSITION,
    "analysis.reports": _ANALYZE,
    "simulation.state_at_calls": ("simulation.TrajectoryConfig.state_at",),
    "simulation.noise_geom_calls": ("simulation.measurement_noise_cartesian",),
    "simulation.functional_std_calls": ("simulation.AugmentedCovariance.functional_std",),
    "simulation.init_feature_calls": ("simulation.initialize_feature",),
    "simulation.update_frames": ("simulation._stacked_measurement",),
    "simulation.imu_steps": ("simulation.state_transition",),
}

LAYERS = ("scenario", "cli", "model", "pwcs", "analysis", "simulation")


def _transition_key(args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    return hash((args[0].tobytes(), float(args[1]), mode))


def _candidates(args, kwargs, result):
    return len(result.mode_results)


# What a span remembers about its call, for the ratio and size metrics.
_OBSERVE = {
    "analysis.tom": lambda args, kwargs, result: result.shape[0],
    "cli._write_csv": lambda args, kwargs, result: args[2].size,
    **{name: _transition_key for name in _TRANSITION},
    **{name: _candidates for name in _ANALYZE},
}


def _resolve(module, path):
    owner = importlib.import_module(f"slamobs.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _layer_of(fn):
    return fn.__module__.rpartition(".")[2]


class Tracer:
    """Spans ``[name, start, end, parent index, observed value]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []
        self._installed = []

    def _span_wrapper(self, name, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        layer = _layer_of(fn)
        observe = _OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, metric, fn):
        counts, errors = self.counts, self.errors
        layer = _layer_of(fn)

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise

        return wrapper

    def install(self):
        """Wrap every target name; ``uninstall`` restores the originals."""
        targets = [(m, p, None) for m, p in SPAN_TARGETS]
        targets += [(m, p, metric) for metric, names in COUNT_TARGETS.items() for m, p in names]
        for module, path, metric in targets:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if metric is None:
                wrapped = self._span_wrapper(f"{module}.{path}", original)
            else:
                wrapped = self._count_wrapper(metric, original)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self) -> Counter:
        """Span name -> total self time (span minus its direct children)."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - children[i]
        return out

    def _roots(self):
        roots = []
        for name, _, _, parent, _ in self.spans:
            roots.append(roots[parent] if parent >= 0 else name)
        return roots

    def calls_by_root(self) -> dict:
        """Root span name -> Counter of the span names called beneath it."""
        out: dict = {}
        for root, span in zip(self._roots(), self.spans):
            out.setdefault(root, Counter())[span[0]] += 1
        return out

    def transitions_by_root(self) -> dict:
        """Root span name -> (distinct transition inputs, transition calls)."""
        keys: dict = {}
        for root, span in zip(self._roots(), self.spans):
            if span[0] in _TRANSITION:
                keys.setdefault(root, []).append(span[4])
        return {root: (len(set(v)), len(v)) for root, v in keys.items()}

    def metrics(self) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        self_time = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        observed: dict = {}
        for name, _, _, _, value in self.spans:
            if value is not None:
                observed.setdefault(name, []).append(value)
        out = {m: float(sum(self_time[n] for n in names)) for m, names in SELF_TIME.items()}
        out.update({m: sum(calls[n] for n in names) for m, names in CALLS.items()})
        out.update({m: self.counts[m] for m in COUNT_TARGETS})
        keys = [v for n in _TRANSITION for v in observed.get(n, [])]
        out["pwcs.state_transition_distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        out["pwcs.tom_rows_max"] = max(observed.get("analysis.tom", [0]))
        out["cli.csv_rows"] = sum(observed.get("cli._write_csv", []))
        out["analysis.candidates_classified"] = sum(v for n in _ANALYZE for v in observed.get(n, []))
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        return out

    def write(self, path):
        """Write every span once, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p] for n, s, e, p, _ in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}))
