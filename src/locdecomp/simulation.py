"""Trajectory ingestion and ground-truth error injection.

A trajectory is one :class:`~locdecomp.error_models.KinematicInput`
series: ``t``, heading angles and rates of shape (N,), and the true
positions, standing in for the reference localizer, in ``ref_position``
(N, 2).  Axis -2 of ``ref_position`` is the sample axis; indexing a series
gives one sample, slicing it a sub-series.

Given a clean navigation-frame trajectory, this module synthesizes the two
localizer outputs: the reference localizer reports the true position plus
its own noise, and the other localizer reports the position displaced by
the composite error model evaluated at the configured true parameters,
plus its own noise.  The resulting difference observation then has the
model output as its mean and the sum of the two noise covariances as its
covariance, which is exactly what the estimator assumes.

Trajectory files are delimiter-separated text, one sample per line, with
columns ``t_s, east_m, north_m[, heading_rad]``.  Lines starting with
``#`` are ignored and every numeric field must carry a decimal point.
When the heading column is missing, headings are derived from the bearings
of successive position deltas, so consecutive samples must not repeat a
position; heading rates are always filled by central differences over the
heading series.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .error_models import CompositeModel, KinematicInput
from .exceptions import DimensionMismatch, NonMonotoneTime, ParseError
from .frames import Heading, as_count, as_vec2, heading_rates

DEFAULT_STEP_S = 1.0
DEFAULT_SPEED_MPS = 10.0
TURN_COUNT = 5


@dataclass(frozen=True)
class InjectionConfig:
    """True error parameters and per-localizer noise levels.

    The sigmas are per-axis standard deviations; the injected difference
    noise then has covariance ``(sigma_ref^2 + sigma_other^2) * I``.  Use
    :meth:`with_total_sigma` to split a single total disturbance evenly
    across the two localizers.  ``true_params`` must be finite, the sigmas
    finite and at least 0, and ``rng_seed`` at least 0, as numpy's seed
    sequences require.
    """

    true_params: np.ndarray
    noise_sigma_ref: float
    noise_sigma_other: float
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "true_params",
                           np.asarray(self.true_params, dtype=float))
        if not np.all(np.isfinite(self.true_params)):
            raise ValueError(f"true_params must be finite, got {self.true_params}")
        for name in ("noise_sigma_ref", "noise_sigma_other"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")

    @classmethod
    def with_total_sigma(cls, true_params, total_sigma: float,
                         rng_seed: int) -> "InjectionConfig":
        """Equal-variance split of one total noise level across both localizers."""
        if not 0.0 <= total_sigma < np.inf:
            raise ValueError(f"total_sigma must be finite and >= 0, got {total_sigma}")
        per = total_sigma / np.sqrt(2.0)
        return cls(true_params=true_params, noise_sigma_ref=per,
                   noise_sigma_other=per, rng_seed=rng_seed)

    def observation_covariance(self) -> np.ndarray:
        return (self.noise_sigma_ref ** 2 + self.noise_sigma_other ** 2) * np.eye(2)


def _parse_float(token: str, line_no: int, column: str) -> float:
    token = token.strip()
    if "." not in token:
        raise ParseError(f"field '{column}' value {token!r} lacks a decimal point",
                         line_no)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"field '{column}' value {token!r} is not a number",
                         line_no) from None
    if not np.isfinite(value):
        raise ParseError(f"field '{column}' value {token!r} is not finite", line_no)
    return value


def load_trajectory(source) -> KinematicInput:
    """Read a trajectory series from a file.

    ``source`` may be a path or an open text stream.  Raises
    :class:`~locdecomp.exceptions.ParseError` with the offending line number,
    also for a sample that repeats the previous position in a file without
    headings (its bearing is undefined), and
    :class:`~locdecomp.exceptions.NonMonotoneTime` on repeated or
    decreasing timestamps.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_trajectory(handle)
    if not isinstance(source, io.TextIOBase) and not hasattr(source, "__iter__"):
        raise TypeError(f"cannot read a trajectory from {type(source)!r}")

    line_nos: list[int] = []
    times: list[float] = []
    positions: list[np.ndarray] = []
    angles: list[float] = []
    has_heading: bool | None = None
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if len(tokens) not in (3, 4):
            raise ParseError(f"expected 3 or 4 comma-separated fields, got "
                             f"{len(tokens)}", line_no)
        row_has_heading = len(tokens) == 4
        if has_heading is None:
            has_heading = row_has_heading
        elif has_heading != row_has_heading:
            raise ParseError("inconsistent column count across lines", line_no)
        t = _parse_float(tokens[0], line_no, "t_s")
        east = _parse_float(tokens[1], line_no, "east_m")
        north = _parse_float(tokens[2], line_no, "north_m")
        if times and t <= times[-1]:
            raise NonMonotoneTime(
                f"line {line_no}: timestamp {t} does not increase past {times[-1]}")
        line_nos.append(line_no)
        times.append(t)
        positions.append(np.array([east, north]))
        if row_has_heading:
            angles.append(_parse_float(tokens[3], line_no, "heading_rad"))

    if not times:
        raise ParseError("no data lines found")
    if not has_heading:
        if len(times) < 2:
            raise ParseError("cannot derive headings from a single sample; "
                             "add a heading_rad column")
        deltas = np.diff(np.vstack(positions), axis=0)
        still = np.flatnonzero(~deltas.any(axis=1))
        if still.size:
            raise ParseError("position repeats the previous sample, so its bearing "
                             "gives no heading; add a heading_rad column",
                             line_nos[still[0] + 1])
        angles = [float(np.arctan2(dn, de)) for de, dn in deltas]
        angles.append(angles[-1])

    t = np.array(times)
    angles = np.array(angles)
    return KinematicInput(t=t, heading=Heading(angles, heading_rates(t, angles)),
                          ref_position=np.vstack(positions))


def synthesize_trajectory(kind: str, n_samples: int, step: float = DEFAULT_STEP_S,
                          speed: float = DEFAULT_SPEED_MPS,
                          initial_heading: float = 0.0,
                          turn_samples: int | None = None,
                          start=(0.0, 0.0)) -> KinematicInput:
    """Generate a statistically analogous driving segment.

    ``kind="straight"`` holds the heading constant.  ``kind="corner"``
    produces a piecewise-straight path whose heading sweeps through five
    90-degree turns with alternating direction, each ramped linearly over
    ``turn_samples`` samples and separated by straight legs, i.e. exactly
    five heading-change events.  ``turn_samples`` must be an integer in
    ``[1, (n_samples - 6) // 5]``, so that the legs keep the turns apart;
    the default, a tenth of the trajectory, is clamped to that range.
    ``step`` must be finite and above 0, ``speed`` and ``initial_heading``
    finite.
    """
    if kind not in ("straight", "corner"):
        raise ValueError(f"kind must be 'straight' or 'corner', got {kind!r}")
    n_samples = as_count(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    for name, value in (("speed", speed), ("initial_heading", initial_heading)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if kind == "corner" and n_samples < 4 * TURN_COUNT:
        raise ValueError(f"a corner segment needs at least {4 * TURN_COUNT} "
                         f"samples to fit {TURN_COUNT} separated turns, got "
                         f"{n_samples}")

    if kind == "straight":
        angles = np.full(n_samples, float(initial_heading))
    else:
        max_turn = (n_samples - TURN_COUNT - 1) // TURN_COUNT
        if turn_samples is None:
            turn = max(1, min(max(2, n_samples // 10), max_turn))
        else:
            turn = as_count(turn_samples, "turn_samples")
            if not 1 <= turn <= max_turn:
                raise ValueError(f"turn_samples must be in [1, {max_turn}] for "
                                 f"{n_samples} samples, got {turn_samples}")
        n_legs = TURN_COUNT + 1
        leg_total = n_samples - TURN_COUNT * turn
        base, extra = divmod(leg_total, n_legs)
        legs = [base] * n_legs
        # inner legs first: adjacent turns would merge into one heading event
        for i in [1, 2, 3, 4, 0, 5][:extra]:
            legs[i] += 1
        angles_list: list[float] = []
        current = float(initial_heading)
        direction = 1.0
        for i in range(TURN_COUNT):
            angles_list.extend([current] * legs[i])
            increment = direction * (np.pi / 2.0) / turn
            for _ in range(turn):
                current += increment
                angles_list.append(current)
            direction = -direction
        angles_list.extend([current] * legs[TURN_COUNT])
        angles = np.array(angles_list[:n_samples])

    t = np.arange(n_samples) * step
    positions = np.empty((n_samples, 2))
    positions[0] = as_vec2(start, "start")
    steps = speed * step * np.column_stack([np.cos(angles[1:]), np.sin(angles[1:])])
    positions[1:] = positions[0] + np.cumsum(steps, axis=0)
    return KinematicInput(t=t, heading=Heading(angles, heading_rates(t, angles)),
                          ref_position=positions)


def inject_runs(trajectory: KinematicInput, cfg: InjectionConfig, model: CompositeModel,
                seeds) -> tuple[KinematicInput, np.ndarray, np.ndarray]:
    """Simulate the two localizer outputs of several runs along a trajectory
    series.

    The reference localizer reports the true position plus its noise; the
    other localizer reports the true position displaced by the model output
    at the true parameters, evaluated at that (measured) reference position,
    plus its own noise.  Run ``i`` draws its reference noise (N, 2), then its
    other noise (N, 2), from ``default_rng(seeds[i])``, so a seed reproduces
    bit-identical outputs in any batch.  Returns the record ``(inputs,
    p_other, r)`` that :func:`~locdecomp.estimator.filter_runs` reads: the
    series with the reference positions (runs, N, 2) in ``ref_position``,
    the other localizer's positions (runs, N, 2) and the measurement
    covariances (N, 2, 2), a read-only view of
    :meth:`InjectionConfig.observation_covariance` at every step.
    """
    if cfg.true_params.shape != (model.state_dim,):
        raise DimensionMismatch(
            f"true_params has shape {cfg.true_params.shape}, model expects "
            f"({model.state_dim},)")
    n = len(trajectory)
    p_ref = np.empty((len(seeds), n, 2))
    p_other = np.empty((len(seeds), n, 2))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        p_ref[i] = rng.normal(0.0, cfg.noise_sigma_ref, (n, 2))
        p_other[i] = rng.normal(0.0, cfg.noise_sigma_other, (n, 2))
    p_ref += trajectory.ref_position
    inputs = replace(trajectory, ref_position=p_ref)
    p_other += trajectory.ref_position - model.evaluate(cfg.true_params, inputs)
    r = np.broadcast_to(cfg.observation_covariance(), (n, 2, 2))
    return inputs, p_other, r
