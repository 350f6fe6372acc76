"""Experiment orchestration: Monte Carlo batches and result tables.

An experiment couples a trajectory source, a composed error model, an
injection configuration and a filter configuration, runs a number of
independent simulate-then-filter pipelines and aggregates the per-step,
per-parameter mean squared estimation error across runs.  A trajectory
section builds its series once, on the first read of its ``series``
property (loading the configuration reads it for the pivot centroid), and
every later reader gets that same, read-only series.  All runs
share the trajectory, the model and the filter settings, so an experiment
is one batched pass: inject errors into every run as arrays, filter every
run in one vectorized pass, take the moments over blocks of steps as the
filter yields them, and keep the last step's record (``MseSeries.final``).
Only the injected series grow with the number of steps, and the blocks are
of nearly equal length, so the moments equal those of one stack of all
steps bit for bit.

Per-run seeds are derived by mixing the master seed with the run index, so
a run's numbers depend only on its index, not on the batch around it.  The
same configuration (including the seed) always produces byte-identical
result files.
"""

from __future__ import annotations

import json
import numbers
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from . import error_models
from .error_models import CompositeModel, KinematicInput
from .estimator import FilterStep, UkfConfig, filter_steps
from .exceptions import DimensionMismatch, ExperimentRunError, NotPSD, SingularTransform
from .frames import as_count, as_real
from .simulation import (DEFAULT_SPEED_MPS, DEFAULT_STEP_S, InjectionConfig,
                         inject_runs, load_trajectory, synthesize_trajectory)

DEFAULT_CONVERGENCE_THRESHOLD_M2 = 0.1
FLOAT_FORMAT = "%.9g"

# steps of run estimates stacked at once to take their moments; bounds the
# memory of an experiment on long trajectories
_BLOCK_STEPS = 32


@dataclass(frozen=True)
class SyntheticTrajectory:
    """Synthetic segment settings (see :func:`~locdecomp.simulation.synthesize_trajectory`);
    a corner's turns each take a tenth of the samples."""

    kind: str
    n_samples: int
    step: float = DEFAULT_STEP_S
    speed: float = DEFAULT_SPEED_MPS
    initial_heading: float = 0.0

    @cached_property
    def series(self) -> KinematicInput:
        """:func:`~locdecomp.simulation.synthesize_trajectory` of the fields, built once."""
        return synthesize_trajectory(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class FileTrajectory:
    """Trajectory loaded from a delimiter-separated text file."""

    path: str

    @cached_property
    def series(self) -> KinematicInput:
        """:func:`~locdecomp.simulation.load_trajectory` of ``path``, read once."""
        return load_trajectory(self.path)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte Carlo experiment."""

    trajectory: SyntheticTrajectory | FileTrajectory
    model: CompositeModel
    injection: InjectionConfig
    ukf: UkfConfig
    n_runs: int
    convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD_M2
    output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_runs", as_count(self.n_runs, "n_runs"))
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.output == "":
            raise ValueError("output must name a path, got ''")
        object.__setattr__(self, "convergence_threshold", _threshold(self.convergence_threshold))
        if self.injection.true_params.shape != (self.model.state_dim,):
            raise DimensionMismatch(
                f"true_params dimension {self.injection.true_params.size} does not "
                f"match model state dimension {self.model.state_dim}")
        if self.ukf.initial_mean.size != self.model.state_dim:
            raise DimensionMismatch(
                f"filter dimension {self.ukf.initial_mean.size} does not match "
                f"model state dimension {self.model.state_dim}")
        # the filter's first sigma point is the initial mean
        try:
            self.model.evaluate(self.ukf.initial_mean, self.trajectory.series)
        except SingularTransform as exc:
            raise SingularTransform(
                f"initial_mean {self.ukf.initial_mean.tolist()}: {exc}") from None


@dataclass
class MseSeries:
    """Across-run estimation error statistics per step and state entry.

    ``mse[k, j]`` is the mean over runs of the squared error of parameter
    ``j`` after processing sample ``k``; ``mean`` and ``variance`` are the
    across-run moments of the estimates themselves, so
    ``mse = (mean - truth)^2 + variance`` holds up to rounding (the two
    sides differ by up to 6e-15 on the shipped configs).  ``initial_mse``
    is the squared error of the filter's initial state estimate, the value
    every error trajectory starts from before the first observation.
    ``final`` is the filter's read-only record of the last step, whose
    ``means`` (runs, n) and ``covs`` (runs, n, n) are the final posteriors.
    """

    mse: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    true_params: np.ndarray
    initial_mse: np.ndarray
    final: FilterStep


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed; depends only on (master_seed, run_index)."""
    seq = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def _estimate_runs(trajectory, cfg: ExperimentConfig, runs):
    """Simulate the given runs as one batch and return the filter's pass
    over them, an iterator of each step's :class:`FilterStep` record.
    The injection runs in the call, so a truth at which the model is
    singular raises here, before any filter step.
    """
    seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in runs]
    inputs, d, r = inject_runs(trajectory, cfg.injection, cfg.model, seeds)
    np.subtract(inputs.ref_position, d, out=d)   # the differences overwrite p_other
    return filter_steps(cfg.model, cfg.ukf, d, r, inputs)


def run_experiment(cfg: ExperimentConfig) -> MseSeries:
    """Execute the Monte Carlo batch and aggregate the error statistics.

    A failure of a run's filter pass raises
    :class:`~locdecomp.exceptions.ExperimentRunError` naming the lowest
    failing run index, chained from that run's error; a truth at which the
    model is singular raises its
    :class:`~locdecomp.exceptions.SingularTransform` before any run.
    """
    trajectory = cfg.trajectory.series
    truth = cfg.injection.true_params
    n_steps = len(trajectory)
    mse, mean, variance = np.empty((3, n_steps, cfg.model.state_dim))
    # no block of a lone step: numpy would sum a one-parameter model's runs
    # of it pairwise, not run by run as in a stack of several steps
    n_blocks = -(-n_steps // _BLOCK_STEPS)
    steps = _estimate_runs(trajectory, cfg, range(cfg.n_runs))
    try:
        for i in range(n_blocks):
            rows = slice(n_steps * i // n_blocks, n_steps * (i + 1) // n_blocks)
            # (runs, k, dim), laid out as those rows of one full stack; of the
            # records, only the last one read stays alive, as final
            block = np.stack([(final := step).means
                              for step in islice(steps, rows.stop - rows.start)], axis=1)
            mean[rows] = np.mean(block, axis=0)
            variance[rows] = np.var(block, axis=0)
            block -= truth
            mse[rows] = np.mean(np.square(block, out=block), axis=0)
    except Exception:
        # the batch stops at the first failing step of any run; replaying
        # the runs alone, in index order, finds the lowest failing run
        for run in range(cfg.n_runs):
            try:
                deque(_estimate_runs(trajectory, cfg, [run]), maxlen=0)
            except Exception as exc:
                raise ExperimentRunError(run, str(exc)) from exc
        raise
    return MseSeries(
        mse=mse,
        mean=mean,
        variance=variance,
        true_params=truth.copy(),
        initial_mse=(cfg.ukf.initial_mean - truth) ** 2,
        final=final,
    )


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def write_table(path, table, header: str, comments: str = "") -> Path:
    """Write a 2-d array as comma-separated ``FLOAT_FORMAT`` rows under one
    header line, creating the parent directory; step indices print as integers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a stream, not the path: savetxt would truncate the file, then reopen it
    with open(path, "w", encoding="utf-8") as stream:
        np.savetxt(stream, table, fmt=FLOAT_FORMAT, delimiter=",", header=header,
                   comments=comments)
    return path


def emit_results(series: MseSeries, out_dir,
                 convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD_M2) -> list[Path]:
    """Write the per-step MSE table and the run summary.

    Creates ``mse.csv`` (columns ``step, mse_x1.., mean_x1..``) and
    ``summary.txt`` under ``out_dir``; the summary flags a parameter
    converged when its final MSE lies below ``convergence_threshold`` (a
    finite value above 0).  Formatting is deterministic (9 significant
    digits), so identical series produce identical bytes.
    """
    convergence_threshold = _threshold(convergence_threshold)
    n_steps, dim = series.mse.shape
    if n_steps == 0:
        raise ValueError("cannot emit an empty series")
    if not str(out_dir):
        raise OSError("output path is empty")
    out_dir = Path(out_dir)

    header = (["step"] + [f"mse_x{j + 1}" for j in range(dim)]
              + [f"mean_x{j + 1}" for j in range(dim)])
    table_path = write_table(out_dir / "mse.csv", np.column_stack(
        [np.arange(n_steps), series.mse, series.mean]), ",".join(header))

    summary_path = out_dir / "summary.txt"
    out = [
        f"runs = {len(series.final.means)}",
        f"steps = {n_steps}",
        f"state_dim = {dim}",
        f"convergence_threshold_m2 = {FLOAT_FORMAT % convergence_threshold}",
        "true_params = " + ",".join(FLOAT_FORMAT % v for v in series.true_params),
        "final_estimate = " + ",".join(FLOAT_FORMAT % v for v in series.mean[-1]),
        "initial_mse = " + ",".join(FLOAT_FORMAT % v for v in series.initial_mse),
        "final_mse = " + ",".join(FLOAT_FORMAT % v for v in series.mse[-1]),
        "mse_ratio = " + ",".join(
            FLOAT_FORMAT % (f / i) if i > 0.0 else "inf"
            for f, i in zip(series.mse[-1], series.initial_mse)),
        "converged = " + ",".join("true" if f < convergence_threshold else "false"
                                  for f in series.mse[-1]),
    ]
    summary_path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return [table_path, summary_path]


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

# component type -> factory of the trajectory centroid, the deformations' pivot
# (with map_translation in the model, another pivot adds only a constant shift)
_COMPONENTS = {
    "body_offset": lambda centroid: error_models.body_offset(),
    "map_translation": lambda centroid: error_models.map_translation(),
    "map_rotation": error_models.map_rotation,
    "map_scale": error_models.map_scale,
    "map_shear": error_models.map_shear,
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {where}; "
                         f"allowed: {sorted(allowed)}")


def _build_component(entry: dict, centroid: np.ndarray):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ValueError(f"each model entry needs a 'type', got {entry!r}")
    kind = _string(entry["type"], "model.type")
    if kind not in _COMPONENTS:
        raise ValueError(f"unknown component type {kind!r}; available: "
                         f"{sorted(_COMPONENTS)}")
    _reject_unknown(entry, {"type"}, f"component {kind!r}")
    return _COMPONENTS[kind](centroid)


def _string(value, key: str) -> str:
    """``value`` if it is a string; anything else raises ValueError naming ``key``."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _real(value, key: str) -> np.ndarray:
    """``value`` as a float array of a number or a (nested) list of numbers
    in rows of equal length; anything else raises ValueError naming ``key``."""

    def real(v):
        if isinstance(v, (list, tuple)):
            return all(real(item) for item in v)
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    if not real(value):
        raise ValueError(f"{key} must be a number or a list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:   # a ragged list
        raise ValueError(f"{key} must be a number or a list of numbers with rows "
                         f"of equal length, got {value!r}") from None


def _threshold(value) -> float:
    """``value`` as a convergence threshold: a finite number above 0."""
    if not 0.0 < as_real(value, "convergence_threshold") < np.inf:
        raise ValueError(f"convergence_threshold must be a finite value above 0, got {value}")
    return float(value)


def _as_matrix(value, dim: int, where: str) -> np.ndarray:
    """Scalar -> scaled identity; vector -> diagonal; nested list -> as given."""
    arr = _real(value, f"filter.{where}")
    if not np.isfinite(arr).all():   # first: an infinite scalar times the identity warns
        raise NotPSD(f"{where} must be finite")
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    return np.diag(arr) if arr.ndim == 1 else arr


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from decoded configuration data.

    Unknown keys anywhere are errors: silently ignoring a misspelled key
    would run a different experiment than the one asked for.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"configuration must be a mapping, got {type(raw)!r}")
    _reject_unknown(raw, {"trajectory", "model", "injection", "filter", "runs",
                          "convergence_threshold", "output"},
                    "configuration")
    for key in ("trajectory", "model", "injection", "filter"):
        if key not in raw:
            raise ValueError(f"missing required section '{key}'")
        if key != "model" and not isinstance(raw[key], dict):
            raise ValueError(f"section '{key}' must be a mapping, got {type(raw[key]).__name__}")

    traj_raw = raw["trajectory"]
    if "file" in traj_raw:
        _reject_unknown(traj_raw, {"file"}, "trajectory")
        # an absolute path replaces base_dir
        trajectory = FileTrajectory(path=str(Path(base_dir or "")
                                             / _string(traj_raw["file"], "trajectory.file")))
    else:
        _reject_unknown(traj_raw, {"kind", "n_samples", "step", "speed",
                                   "initial_heading"}, "trajectory")
        try:
            trajectory = SyntheticTrajectory(
                kind=traj_raw["kind"],
                n_samples=as_count(traj_raw["n_samples"], "trajectory.n_samples"),
                **{key: as_real(traj_raw[key], f"trajectory.{key}")
                   for key in ("step", "speed", "initial_heading") if key in traj_raw})
        except KeyError as exc:
            raise ValueError(f"trajectory section is missing {exc}") from None

    centroid = trajectory.series.ref_position.mean(axis=0)

    model_raw = raw["model"]
    if not isinstance(model_raw, list) or not model_raw:
        raise ValueError("'model' must be a non-empty list of components")
    model = CompositeModel(components=tuple(_build_component(entry, centroid)
                                            for entry in model_raw))

    inj_raw = raw["injection"]
    _reject_unknown(inj_raw, {"true_params", "noise_sigma_total", "seed"}, "injection")
    if "true_params" not in inj_raw or "seed" not in inj_raw:
        raise ValueError("injection needs 'true_params' and 'seed'")
    sigma = as_real(inj_raw.get("noise_sigma_total", 0.0), "injection.noise_sigma_total")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"injection.noise_sigma_total must be finite and >= 0, got {sigma}")
    injection = InjectionConfig(
        _real(inj_raw["true_params"], "injection.true_params"), sigma,
        as_count(inj_raw["seed"], "injection.seed"))

    filt_raw = raw["filter"]
    _reject_unknown(filt_raw, {f.name for f in fields(UkfConfig)}, "filter")
    dim = model.state_dim
    if "process_noise" not in filt_raw or "initial_covariance" not in filt_raw:
        raise ValueError("filter needs 'process_noise' and 'initial_covariance'")
    x0 = (_real(filt_raw["initial_mean"], "filter.initial_mean")
          if "initial_mean" in filt_raw else np.zeros(dim))
    if x0.shape != (dim,):
        raise DimensionMismatch(f"initial_mean needs {dim} entries, got {x0.shape}")
    ukf = UkfConfig(
        process_noise=_as_matrix(filt_raw["process_noise"], dim, "process_noise"),
        initial_mean=x0,
        initial_covariance=_as_matrix(filt_raw["initial_covariance"], dim,
                                      "initial_covariance"))

    n_runs = as_count(raw.get("runs", 1), "runs")
    if n_runs < 1:
        raise ValueError(f"runs must be >= 1, got {n_runs}")
    return ExperimentConfig(
        trajectory=trajectory, model=model, injection=injection, ukf=ukf,
        n_runs=n_runs,
        convergence_threshold=raw.get("convergence_threshold", DEFAULT_CONVERGENCE_THRESHOLD_M2),
        output=None if raw.get("output") is None else _string(raw["output"], "output"))


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct; json keeps the last of a
    repeated key, which would silently override the first."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)
