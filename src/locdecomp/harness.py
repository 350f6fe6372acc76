"""Experiment orchestration: Monte Carlo batches and result tables.

An experiment couples a trajectory source, a composed error model, an
injection configuration and a filter configuration, runs a number of
independent simulate-then-filter pipelines and aggregates the per-step,
per-parameter mean squared estimation error across runs.  A trajectory
section builds its series once, on the first read of its ``series``
property (loading the configuration reads it for the pivot centroid), and
every later reader gets that same series, its arrays read-only.  All runs
share the trajectory, the model and the filter settings, so an experiment
is one batched pass: inject errors into every run as arrays, filter every
run in one vectorized pass, take the moments over blocks of steps as the
filter yields them.
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
from .estimator import UkfConfig, filter_runs
from .exceptions import ConfigError, ExperimentRunError, NotPSD
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
    """Synthetic segment settings (see :func:`~locdecomp.simulation.synthesize_trajectory`)."""

    kind: str
    n_samples: int
    step: float = DEFAULT_STEP_S
    speed: float = DEFAULT_SPEED_MPS
    initial_heading: float = 0.0
    turn_samples: int | None = None

    @cached_property
    def series(self) -> KinematicInput:
        """:func:`~locdecomp.simulation.synthesize_trajectory` of the fields, built once."""
        return _read_only(synthesize_trajectory(
            **{f.name: getattr(self, f.name) for f in fields(self)}))


@dataclass(frozen=True)
class FileTrajectory:
    """Trajectory loaded from a delimiter-separated text file."""

    path: str

    @cached_property
    def series(self) -> KinematicInput:
        """:func:`~locdecomp.simulation.load_trajectory` of ``path``, read once."""
        return _read_only(load_trajectory(self.path))


def _read_only(series: KinematicInput) -> KinematicInput:
    """``series`` with its arrays made read-only: every reader of a
    configuration shares them, so an in-place change would alter later runs."""
    for name in ("t", "heading", "ref_position", "heading_rate"):
        getattr(series, name).flags.writeable = False
    return series


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
        object.__setattr__(self, "n_runs", _integer(self.n_runs, "n_runs"))
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not 0.0 < _real(self.convergence_threshold, "convergence_threshold") < np.inf:
            raise ConfigError(f"convergence_threshold must be a finite value above 0, "
                              f"got {self.convergence_threshold}")
        if self.injection.true_params.shape != (self.model.state_dim,):
            raise ConfigError(
                f"true_params dimension {self.injection.true_params.size} does not "
                f"match model state dimension {self.model.state_dim}")
        if self.ukf.initial_mean.size != self.model.state_dim:
            raise ConfigError(
                f"filter dimension {self.ukf.initial_mean.size} does not match "
                f"model state dimension {self.model.state_dim}")


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
    """

    mse: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    true_params: np.ndarray
    initial_mse: np.ndarray
    n_runs: int

    @property
    def n_steps(self) -> int:
        return self.mse.shape[0]

    @property
    def state_dim(self) -> int:
        return self.mse.shape[1]

    @property
    def final_mse(self) -> np.ndarray:
        return self.mse[-1]

    def converged(self, threshold: float = DEFAULT_CONVERGENCE_THRESHOLD_M2) -> np.ndarray:
        return self.final_mse < threshold


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed; depends only on (master_seed, run_index)."""
    seq = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def _estimate_runs(trajectory, cfg: ExperimentConfig, runs):
    """Simulate and filter the given runs as one batch.

    Yields each step's posterior means, shape (runs, dim).
    """
    seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in runs]
    inputs, d, r = inject_runs(trajectory, cfg.injection, cfg.model, seeds)
    np.subtract(inputs.ref_position, d, out=d)   # the differences overwrite p_other
    for posterior, _ in filter_runs(cfg.model, cfg.ukf, d, r, inputs):
        yield posterior


def run_experiment(cfg: ExperimentConfig) -> MseSeries:
    """Execute the Monte Carlo batch and aggregate the error statistics.

    A failure raises :class:`~locdecomp.exceptions.ExperimentRunError`
    naming the lowest failing run index, chained from that run's error.
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
            # (runs, k, dim), laid out as those rows of one full stack
            block = np.stack(list(islice(steps, rows.stop - rows.start)), axis=1)
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
        n_runs=cfg.n_runs,
    )


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def write_table(path, table, header: str, comments: str = "") -> Path:
    """Write a 2-d array as comma-separated ``FLOAT_FORMAT`` rows under one
    header line, creating the parent directory; step indices print as integers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, table, fmt=FLOAT_FORMAT, delimiter=",", header=header, comments=comments)
    return path


def emit_results(series: MseSeries, out_dir,
                 convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD_M2) -> list[Path]:
    """Write the per-step MSE table and the run summary.

    Creates ``mse.csv`` (columns ``step, mse_x1.., mean_x1..``) and
    ``summary.txt`` under ``out_dir``.  Formatting is deterministic (9
    significant digits), so identical series produce identical bytes.
    """
    if series.n_steps == 0:
        raise ValueError("cannot emit an empty series")
    if not str(out_dir):
        raise OSError("output path is empty")
    out_dir = Path(out_dir)

    dim = series.state_dim
    header = (["step"] + [f"mse_x{j + 1}" for j in range(dim)]
              + [f"mean_x{j + 1}" for j in range(dim)])
    table_path = write_table(out_dir / "mse.csv", np.column_stack(
        [np.arange(series.n_steps), series.mse, series.mean]), ",".join(header))

    flags = series.converged(convergence_threshold)
    summary_path = out_dir / "summary.txt"
    out = [
        f"runs = {series.n_runs}",
        f"steps = {series.n_steps}",
        f"state_dim = {dim}",
        f"convergence_threshold_m2 = {_fmt(convergence_threshold)}",
        "true_params = " + ",".join(_fmt(v) for v in series.true_params),
        "final_estimate = " + ",".join(_fmt(v) for v in series.mean[-1]),
        "initial_mse = " + ",".join(_fmt(v) for v in series.initial_mse),
        "final_mse = " + ",".join(_fmt(v) for v in series.final_mse),
        "mse_ratio = " + ",".join(
            _fmt(f / i) if i > 0.0 else "inf"
            for f, i in zip(series.final_mse, series.initial_mse)),
        "converged = " + ",".join(str(bool(f)).lower() for f in flags),
    ]
    summary_path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return [table_path, summary_path]


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

# component type -> (factory, option keys passed to it from the entry)
_COMPONENTS = {
    "body_offset": (error_models.body_offset, set()),
    "map_translation": (error_models.map_translation, set()),
    "map_rotation": (error_models.map_rotation, {"pivot"}),
    "map_scale": (error_models.map_scale, {"pivot"}),
    "map_shear": (error_models.map_shear, {"pivot", "axis"}),
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _build_component(entry: dict, centroid: np.ndarray):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigError(f"each model entry needs a 'type', got {entry!r}")
    kind = _string(entry["type"], "model.type")
    if kind not in _COMPONENTS:
        raise ConfigError(f"unknown component type {kind!r}; available: "
                          f"{sorted(_COMPONENTS)}")
    factory, option_keys = _COMPONENTS[kind]
    _reject_unknown(entry, option_keys | {"type", "initial"}, f"component {kind!r}")
    options = {key: entry[key] for key in option_keys & entry.keys()}
    if "pivot" in option_keys:
        options["pivot"] = (_real(entry["pivot"], f"model.{kind}.pivot", scalar=False)
                            if "pivot" in entry else centroid)
    comp = factory(**options)
    initial = entry.get("initial")
    guess = (np.zeros(comp.param_dim) if initial is None
             else _real(initial, f"model.{kind}.initial", scalar=False))
    if guess.shape != (comp.param_dim,):
        raise ConfigError(f"component {kind!r} initial guess must have "
                          f"{comp.param_dim} entries, got {guess.shape}")
    if not np.isfinite(guess).all():
        raise ConfigError(f"component {kind!r} initial guess must be finite, got {guess}")
    return comp, guess


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _integer(value, key: str) -> int:
    """:func:`~locdecomp.frames.as_count`, raising ConfigError naming ``key``."""
    try:
        return as_count(value, key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _real(value, key: str, scalar: bool = True):
    """``value`` as a float (:func:`~locdecomp.frames.as_real`), or with
    ``scalar=False`` as a float array of a number or a (nested) list of
    numbers; a boolean, a string, null, or a list where one number is
    expected, raises ConfigError naming ``key``."""
    if scalar:
        try:
            return as_real(value, key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def real(v):
        if isinstance(v, (list, tuple)):
            return all(real(item) for item in v)
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    if not real(value):
        raise ConfigError(f"{key} must be a number or a list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:   # a ragged list
        raise ConfigError(f"{key} must be a number or a list of numbers with rows "
                          f"of equal length, got {value!r}") from None


def _as_matrix(value, dim: int, where: str) -> np.ndarray:
    """Scalar -> scaled identity; vector -> diagonal; nested list -> matrix."""
    arr = _real(value, f"filter.{where}", scalar=False)
    if not np.isfinite(arr).all():
        raise NotPSD(f"{where} must be finite")
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ConfigError(f"{where} needs {dim} diagonal entries, got {arr.size}")
        return np.diag(arr)
    if arr.shape == (dim, dim):
        return arr
    raise ConfigError(f"{where} must be a scalar, a {dim}-vector or a "
                      f"{dim}x{dim} matrix, got shape {arr.shape}")


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from decoded configuration data.

    Unknown keys anywhere are errors: silently ignoring a misspelled key
    would run a different experiment than the one asked for.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(raw)!r}")
    _reject_unknown(raw, {"trajectory", "model", "injection", "filter", "runs",
                          "convergence_threshold", "output"},
                    "configuration")
    for key in ("trajectory", "model", "injection", "filter"):
        if key not in raw:
            raise ConfigError(f"missing required section '{key}'")
        if key != "model" and not isinstance(raw[key], dict):
            raise ConfigError(f"section '{key}' must be a mapping, got {type(raw[key]).__name__}")

    traj_raw = raw["trajectory"]
    if "file" in traj_raw:
        _reject_unknown(traj_raw, {"file"}, "trajectory")
        # an absolute path replaces base_dir
        trajectory = FileTrajectory(path=str(Path(base_dir or "")
                                             / _string(traj_raw["file"], "trajectory.file")))
    else:
        _reject_unknown(traj_raw, {"kind", "n_samples", "step", "speed",
                                   "initial_heading", "turn_samples"}, "trajectory")
        try:
            trajectory = SyntheticTrajectory(
                kind=traj_raw["kind"],
                n_samples=_integer(traj_raw["n_samples"], "trajectory.n_samples"),
                **{key: _real(traj_raw[key], f"trajectory.{key}")
                   for key in ("step", "speed", "initial_heading") if key in traj_raw},
                turn_samples=(_integer(traj_raw["turn_samples"], "trajectory.turn_samples")
                              if "turn_samples" in traj_raw else None))
        except KeyError as exc:
            raise ConfigError(f"trajectory section is missing {exc}") from None

    centroid = trajectory.series.ref_position.mean(axis=0)

    model_raw = raw["model"]
    if not isinstance(model_raw, list) or not model_raw:
        raise ConfigError("'model' must be a non-empty list of components")
    built = [_build_component(entry, centroid) for entry in model_raw]
    model = CompositeModel(components=tuple(comp for comp, _ in built))
    default_x0 = np.concatenate([guess for _, guess in built])

    inj_raw = raw["injection"]
    _reject_unknown(inj_raw, {"true_params", "noise_sigma_ref", "noise_sigma_other",
                              "noise_sigma_total", "seed"}, "injection")
    if "true_params" not in inj_raw or "seed" not in inj_raw:
        raise ConfigError("injection needs 'true_params' and 'seed'")
    true_params = _real(inj_raw["true_params"], "injection.true_params", scalar=False)
    seed = _integer(inj_raw["seed"], "injection.seed")
    if "noise_sigma_total" in inj_raw:
        if "noise_sigma_ref" in inj_raw or "noise_sigma_other" in inj_raw:
            raise ConfigError("give either noise_sigma_total or the per-localizer "
                              "sigmas, not both")
        injection = InjectionConfig.with_total_sigma(
            true_params, _real(inj_raw["noise_sigma_total"], "injection.noise_sigma_total"),
            seed)
    else:
        injection = InjectionConfig(
            true_params=true_params, rng_seed=seed,
            **{key: _real(inj_raw.get(key, 0.0), f"injection.{key}")
               for key in ("noise_sigma_ref", "noise_sigma_other")})

    filt_raw = raw["filter"]
    _reject_unknown(filt_raw, {f.name for f in fields(UkfConfig)}, "filter")
    dim = model.state_dim
    if "process_noise" not in filt_raw or "initial_covariance" not in filt_raw:
        raise ConfigError("filter needs 'process_noise' and 'initial_covariance'")
    x0 = (_real(filt_raw["initial_mean"], "filter.initial_mean", scalar=False)
          if "initial_mean" in filt_raw else default_x0)
    if not np.isfinite(x0).all():
        raise ConfigError(f"initial_mean must be finite, got {x0}")
    if x0.shape != (dim,):
        raise ConfigError(f"initial_mean needs {dim} entries, got {x0.shape}")
    ukf = UkfConfig(
        process_noise=_as_matrix(filt_raw["process_noise"], dim, "process_noise"),
        initial_mean=x0,
        initial_covariance=_as_matrix(filt_raw["initial_covariance"], dim,
                                      "initial_covariance"),
        **{key: _real(filt_raw[key], f"filter.{key}")
           for key in ("alpha", "beta", "kappa") if key in filt_raw},
        mahalanobis_gate=(_real(filt_raw["mahalanobis_gate"], "filter.mahalanobis_gate")
                          if filt_raw.get("mahalanobis_gate") is not None else None))

    return ExperimentConfig(
        trajectory=trajectory, model=model, injection=injection, ukf=ukf,
        n_runs=_integer(raw.get("runs", 1), "runs"),
        convergence_threshold=_real(raw.get("convergence_threshold",
                                            DEFAULT_CONVERGENCE_THRESHOLD_M2),
                                    "convergence_threshold"),
        output=None if raw.get("output") is None else _string(raw["output"], "output"))


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct; json keeps the last of a
    repeated key, which would silently override the first."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)
