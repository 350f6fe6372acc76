"""Spans around the public functions of ``locdecomp``, and the per-layer
metrics derived from them.

Tracing happens from outside the package: every binding of a target
function or method is replaced by a wrapper that records one span per call
(name, start, end, parent).  Functions imported by name into other modules
(``as_vec2`` into ``error_models``, ``estimator`` and ``simulation``;
``run_filter`` into ``harness`` and ``cli``; ...) are rebound in every
module that holds them.  Spans live in flat arrays in memory and are
written out once the invocation ends.  A target that no longer exists is
reported as absent and its metrics read 0.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time

import numpy as np

from checks import percentile, tail_percentile

PACKAGE = "locdecomp"
MODULES = ("frames", "error_models", "estimator", "simulation", "observability",
           "harness", "cli")
# <module>.<attribute path>; also the span name
TARGETS = (
    "estimator.predict", "estimator.update", "estimator.generate_sigma_points",
    "estimator.run_filter", "estimator.GaussianBelief.__post_init__",
    "estimator.DifferenceObservation.__post_init__",
    "error_models.CompositeModel.evaluate", "error_models.ErrorComponent.evaluate",
    "simulation.inject_errors", "simulation.synthesize_trajectory",
    "observability.numerical_rank_test", "observability.stacked_output_map",
    "harness.run_experiment", "harness.emit_results", "harness.load_config",
    "cli.main", "frames.as_vec2",
)


class SpanRecorder:
    """Wraps callables so that each call appends one span to flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64),
                "start": np.frombuffer(self.starts, dtype=float).copy(),
                "end": np.frombuffer(self.ends, dtype=float).copy(),
                "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
                "names": np.array(self.names)}


def rebind(old, new) -> None:
    """Replace every module-level binding of ``old`` in the package by ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr in [a for a, v in vars(module).items() if v is old]:
            setattr(module, attr, new)


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target with ``recorder``; returns the absent target names."""
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            pass
    absent = []
    for target in TARGETS:
        module_name, *path = target.split(".")
        owner = modules.get(module_name)
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(fn):
            absent.append(target)
            continue
        wrapper = recorder.wrap(target, fn)
        if len(path) == 1:
            rebind(fn, wrapper)
        else:
            setattr(owner, path[-1], wrapper)
    return absent


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children cover disjoint parts of the
    parent's interval.
    """
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def descends_from(name_id: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    mask = np.zeros(parent.size, dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        mask[live] |= name_id[up[live]] == ancestor
        up[live] = parent[up[live]]
        live = up >= 0
    return mask


class SpanTable:
    """Queries over one invocation's spans by span name."""

    def __init__(self, spans: dict):
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.start = spans["start"]
        self.duration = spans["end"] - spans["start"]
        self.ids = {str(n): i for i, n in enumerate(spans["names"])}

    def mask(self, name: str, under: str | None = None) -> np.ndarray:
        if name not in self.ids or (under is not None and under not in self.ids):
            return np.zeros(self.parent.size, dtype=bool)
        m = self.name_id == self.ids[name]
        if under is not None:
            m &= descends_from(self.name_id, self.parent, self.ids[under])
        return m

    def count(self, name: str, under: str | None = None) -> int:
        return int(self.mask(name, under).sum())

    def total(self, name: str, under: str | None = None) -> float:
        return float(self.duration[self.mask(name, under)].sum())

    def mean(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def self_time(self, name: str) -> float:
        return float(self_times(self.parent, self.duration)[self.mask(name)].sum())


def run_durations(table: SpanTable) -> list[float]:
    """Per Monte Carlo run: from one ``inject_errors`` start to the next;
    the last run ends with the last filter or injection span."""
    inject = table.mask("simulation.inject_errors", "harness.run_experiment")
    starts = np.sort(table.start[inject])
    if starts.size == 0:
        return []
    inside = inject | table.mask("estimator.run_filter", "harness.run_experiment")
    last_end = float((table.start + table.duration)[inside].max())
    bounds = np.append(starts, last_end)
    return list(np.diff(bounds))


def layer_metrics(spans: dict, n_runs: int, steps: int, windows: int) -> dict:
    """Per-layer metrics of one traced invocation (values without units).

    ``steps`` is runs x samples filtered (0 for the rank test), ``windows``
    the windows ranked (0 for an experiment); ``n_runs`` is 0 for the rank
    test.  Ratios with a zero base read 0.
    """
    t = SpanTable(spans)

    def per(value, base):
        return value / base if base else 0.0

    runs_ms = [1e3 * d for d in run_durations(t)]
    run_filter = t.total("estimator.run_filter")
    return {
        "simulation.inject_ms_per_run": per(1e3 * t.total("simulation.inject_errors"), n_runs),
        "simulation.observation_validations_per_step":
            per(t.count("estimator.DifferenceObservation.__post_init__", "harness.run_experiment"), steps),
        "simulation.synthesize_ms": 1e3 * t.mean("simulation.synthesize_trajectory"),
        "estimator.run_filter_ms_per_run": per(1e3 * run_filter, n_runs),
        "estimator.step_us": per(1e6 * run_filter, steps),
        "estimator.predict_us": 1e6 * t.mean("estimator.predict"),
        "estimator.update_us": 1e6 * t.mean("estimator.update"),
        "estimator.sigma_points_us": 1e6 * t.mean("estimator.generate_sigma_points"),
        "estimator.propagate_us": per(1e6 * t.total("error_models.CompositeModel.evaluate", "estimator.update"),
                                      t.count("estimator.update")),
        "estimator.belief_validations_per_step":
            per(t.count("estimator.GaussianBelief.__post_init__", "estimator.run_filter"), steps),
        "estimator.calls": sum(t.count(n) for n in ("estimator.predict", "estimator.update",
                                                    "estimator.generate_sigma_points",
                                                    "estimator.run_filter")),
        "error_models.composite_evals_per_step":
            per(t.count("error_models.CompositeModel.evaluate", "estimator.run_filter"), steps),
        "error_models.component_evals_per_step":
            per(t.count("error_models.ErrorComponent.evaluate", "estimator.run_filter"), steps),
        "error_models.composite_eval_us": 1e6 * t.mean("error_models.CompositeModel.evaluate"),
        "error_models.composite_evals_per_window":
            per(t.count("error_models.CompositeModel.evaluate", "observability.numerical_rank_test"), windows),
        "frames.as_vec2_calls_per_step": per(t.count("frames.as_vec2", "harness.run_experiment"), steps),
        "observability.calls": t.count("observability.numerical_rank_test")
                               + t.count("observability.stacked_output_map"),
        "observability.rank_test_s": t.total("observability.numerical_rank_test"),
        "observability.windows": windows,
        "observability.stacked_output_map_calls_per_window":
            per(t.count("observability.stacked_output_map"), windows),
        "harness.load_config_ms": 1e3 * t.mean("harness.load_config"),
        "harness.run_experiment_self_s": t.total("harness.run_experiment")
            - t.total("simulation.inject_errors", "harness.run_experiment")
            - t.total("estimator.run_filter", "harness.run_experiment"),
        "harness.run_ms_p50": percentile(runs_ms, 50) if runs_ms else 0.0,
        # read only with at least ten runs beyond p90 (100 runs per experiment)
        "harness.run_ms_p90": percentile(runs_ms, 90)
            if (tail_percentile(len(runs_ms)) or 0) >= 90 else 0.0,
        "harness.emit_ms": 1e3 * t.total("harness.emit_results"),
        "cli.self_ms": 1e3 * t.self_time("cli.main"),
    }
