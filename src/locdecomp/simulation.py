"""Trajectory ingestion and ground-truth error injection.

A trajectory is one :class:`~locdecomp.error_models.KinematicInput`
series: ``t``, ``heading`` and ``heading_rate`` of shape (N,), and the true
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

Both text formats, trajectory files and the CLI's simulated data files,
are read by :func:`read_table`: comma-separated finite numbers, one row per
line, blank and ``#`` lines skipped, timestamps strictly increasing; a
fault names its line.  A trajectory file has columns ``t_s, east_m,
north_m[, heading_rad]``, each number with a decimal point.  Without the
heading column, a sample's heading is the bearing of the step arriving at
it (the first sample takes the first step's), as
:func:`synthesize_trajectory` builds positions, so consecutive samples must
not repeat a position; heading rates are central differences over the
headings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .error_models import CompositeModel, KinematicInput
from .exceptions import DimensionMismatch, ParseError
from .frames import as_count, as_real, heading_rates

DEFAULT_STEP_S = 1.0
DEFAULT_SPEED_MPS = 10.0
TURN_COUNT = 5


@dataclass(frozen=True)
class InjectionConfig:
    """True error parameters and the total noise level of the difference.

    ``noise_sigma_total`` is the per-axis standard deviation of the injected
    difference noise, of covariance ``noise_sigma_total^2 * I``; each of the
    two localizers draws half that variance.  ``true_params`` must be finite,
    ``noise_sigma_total`` finite and at least 0, and ``rng_seed`` an integer
    at least 0, as numpy's seed sequences require.
    """

    true_params: np.ndarray
    noise_sigma_total: float
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "true_params",
                           np.asarray(self.true_params, dtype=float))
        if not np.all(np.isfinite(self.true_params)):
            raise ValueError(f"true_params must be finite, got {self.true_params}")
        if not 0.0 <= as_real(self.noise_sigma_total, "noise_sigma_total") < np.inf:
            raise ValueError(f"noise_sigma_total must be finite and >= 0, "
                             f"got {self.noise_sigma_total}")
        object.__setattr__(self, "rng_seed", as_count(self.rng_seed, "seed"))
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")


def read_table(source, columns, optional: int = 0, decimal_point: bool = False):
    """Read a comma-separated table of finite floats from a path or an open
    text stream, one row per line; blank lines and ``#`` lines are skipped.

    Every row has the fields ``columns`` names or, the same in every row, up
    to ``optional`` fewer (the last columns are optional).  With
    ``decimal_point`` every field must carry one.  The first column, the
    timestamp, must strictly increase.  A byte-order mark before the first
    line is skipped.  Returns the table (M, k) and the rows' M line numbers.
    A fault, also bytes that are not UTF-8 or a timestamp that does not
    increase, raises :class:`ParseError` naming the line, and a bad field
    its column.
    """
    if isinstance(source, (str, Path)):
        # undecodable bytes become lone surrogates, reported with their line
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return read_table(handle, columns, optional, decimal_point)
    widths = range(len(columns) - optional, len(columns) + 1)
    rows, line_nos = [], []
    for line_no, raw in enumerate(source, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"text is not UTF-8 at character {exc.start + 1}", line_no) from None
        line = (raw.removeprefix("\ufeff") if line_no == 1 else raw).strip()
        if not line or line.startswith("#"):
            continue
        tokens = [token.strip() for token in line.split(",")]
        if len(tokens) not in widths:
            raise ParseError(f"expected {' or '.join(map(str, widths))} comma-separated "
                             f"fields, got {len(tokens)}", line_no)
        widths = (len(tokens),)   # the first row fixes the optional columns
        row = []
        for column, token in zip(columns, tokens):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"{column} value {token!r} is not a number",
                                 line_no) from None
            if not np.isfinite(value):
                raise ParseError(f"{column} value {token!r} is not finite", line_no)
            if decimal_point and "." not in token:
                raise ParseError(f"{column} value {token!r} lacks a decimal point",
                                 line_no)
            row.append(value)
        if rows and row[0] <= rows[-1][0]:
            raise ParseError(f"timestamp {row[0]} does not increase past {rows[-1][0]}",
                             line_no)
        rows.append(row)
        line_nos.append(line_no)
    if not rows:
        raise ParseError(f"no data lines found in {getattr(source, 'name', 'the input')}")
    return np.array(rows), line_nos


def load_trajectory(source) -> KinematicInput:
    """Read a trajectory series from a file.

    ``source`` may be a path or an open text stream.  Raises
    :class:`~locdecomp.exceptions.ParseError` with the offending line number,
    also for repeated or decreasing timestamps and for a sample that repeats
    the previous position in a file without headings (its bearing is
    undefined).
    """
    table, line_nos = read_table(source, ("t_s", "east_m", "north_m", "heading_rad"),
                                 optional=1, decimal_point=True)
    t, positions = table[:, 0], table[:, 1:3]
    if table.shape[1] == 4:
        angles = table[:, 3]
    else:
        if len(t) < 2:
            raise ParseError("cannot derive headings from a single sample; "
                             "add a heading_rad column")
        deltas = np.diff(positions, axis=0)
        still = np.flatnonzero(~deltas.any(axis=1))
        if still.size:
            raise ParseError("position repeats the previous sample, so its bearing "
                             "gives no heading; add a heading_rad column",
                             line_nos[still[0] + 1])
        angles = np.arctan2(deltas[:, 1], deltas[:, 0])
        angles = np.concatenate([angles[:1], angles])
    return KinematicInput(t=t, heading=angles, ref_position=positions,
                          heading_rate=heading_rates(t, angles))


def synthesize_trajectory(kind: str, n_samples: int, step: float = DEFAULT_STEP_S,
                          speed: float = DEFAULT_SPEED_MPS,
                          initial_heading: float = 0.0) -> KinematicInput:
    """Generate a statistically analogous driving segment from the origin.

    ``kind="straight"`` holds the heading constant.  ``kind="corner"``
    produces a piecewise-straight path whose heading sweeps through five
    90-degree turns with alternating direction, each ramped linearly over
    a tenth of the samples (rounded down) and separated by straight legs,
    i.e. exactly five heading-change events.  ``step`` must be finite and
    above 0, ``speed`` and ``initial_heading`` finite.
    """
    if kind not in ("straight", "corner"):
        raise ValueError(f"kind must be 'straight' or 'corner', got {kind!r}")
    n_samples = as_count(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not 0.0 < as_real(step, "step") < np.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    for name, value in (("speed", speed), ("initial_heading", initial_heading)):
        if not np.isfinite(as_real(value, name)):
            raise ValueError(f"{name} must be finite, got {value}")
    if kind == "corner" and n_samples < 4 * TURN_COUNT:
        raise ValueError(f"a corner segment needs at least {4 * TURN_COUNT} "
                         f"samples to fit {TURN_COUNT} separated turns, got "
                         f"{n_samples}")

    if kind == "straight":
        angles = np.full(n_samples, float(initial_heading))
    else:
        # at least 2 samples, and the turns leave half the samples to the legs
        turn = n_samples // 10
        n_legs = TURN_COUNT + 1
        leg_total = n_samples - TURN_COUNT * turn
        base, extra = divmod(leg_total, n_legs)
        legs = [base] * n_legs
        # inner legs first: adjacent turns would merge into one heading event
        for i in [1, 2, 3, 4, 0, 5][:extra]:
            legs[i] += 1
        # the initial heading, then one increment per sample: 0 on the legs,
        # a quarter turn spread evenly over each turn, alternating in sign
        increments = np.zeros(n_samples)
        increments[0] = initial_heading
        starts = np.cumsum(legs[:TURN_COUNT]) + turn * np.arange(TURN_COUNT)
        signs = (-1.0) ** np.arange(TURN_COUNT)
        increments[starts[:, None] + np.arange(turn)] = (signs * (np.pi / 2.0) / turn)[:, None]
        angles = np.cumsum(increments)

    t = np.arange(n_samples) * step
    positions = np.zeros((n_samples, 2))
    steps = speed * step * np.column_stack([np.cos(angles[1:]), np.sin(angles[1:])])
    positions[1:] = positions[0] + np.cumsum(steps, axis=0)
    return KinematicInput(t=t, heading=angles, ref_position=positions,
                          heading_rate=heading_rates(t, angles))


def inject_runs(trajectory: KinematicInput, cfg: InjectionConfig, model: CompositeModel,
                seeds) -> tuple[KinematicInput, np.ndarray, np.ndarray]:
    """Simulate the two localizer outputs of several runs along a trajectory
    series.

    The reference localizer reports the true position plus its noise; the
    other localizer reports the true position displaced by the model output
    at the true parameters, evaluated at that (measured) reference position,
    plus its own noise.  Run ``i`` makes one draw (2, N, 2) of per-axis
    sigma ``cfg.noise_sigma_total / sqrt(2)`` from ``default_rng(seeds[i])``:
    its first half is the reference noise, its second the other noise, so a
    seed reproduces bit-identical outputs in any batch.  Returns the record
    ``(inputs, p_other, r)``: the read-only series with the reference
    positions (runs, N, 2) in ``ref_position``, the other localizer's
    writable positions (runs, N, 2) and the measurement covariances
    (N, 2, 2), a read-only view of the two drawn variances' sum per step.
    :func:`~locdecomp.estimator.filter_steps` reads the differences
    ``inputs.ref_position - p_other`` along with ``r`` and ``inputs``.
    """
    if cfg.true_params.shape != (model.state_dim,):
        raise DimensionMismatch(
            f"true_params has shape {cfg.true_params.shape}, model expects "
            f"({model.state_dim},)")
    n = len(trajectory)
    noise = np.empty((2, len(seeds), n, 2))
    per = cfg.noise_sigma_total / np.sqrt(2.0)
    for i, seed in enumerate(seeds):
        noise[:, i] = np.random.default_rng(seed).normal(0.0, per, (2, n, 2))
    p_ref, p_other = noise
    p_ref += trajectory.ref_position
    inputs = replace(trajectory, ref_position=p_ref)
    p_other += trajectory.ref_position - model.evaluate(cfg.true_params, inputs)
    # the two variances as drawn: 0.2 ** 2 would read 0.04000000000000001
    r = np.broadcast_to((per ** 2 + per ** 2) * np.eye(2), (n, 2, 2))
    return inputs, p_other, r
