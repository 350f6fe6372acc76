"""Decomposability analysis of composed error models along a trajectory.

A composed model is decomposable on a stretch of driving when the stacked
difference outputs over the visited kinematic inputs determine the
parameter vector uniquely.  Because the parameters are constants, the
continuous observability criterion reduces to injectivity of the map from
parameters to the outputs collected over a window of inputs, which this
module tests numerically on the map's Jacobian, without forming the stacked
outputs themselves: each sample's output Jacobian is formed once by
central differences, in one model evaluation over all samples; a sliding
window stacks the Jacobian rows of its samples, and its rank is read off
the singular values, computed for all windows in one batched SVD.

The windowed test certifies local full rank along the given trajectory
only; it does not prove global uniqueness over all conceivable inputs.
That gap is inherent to a numerical criterion and is left to the model
designer.

For the canonical two-component model (vehicle-fixed offset plus map
translation) the parameters are also recoverable in closed form from a
single difference observation and its time derivative, provided the agent
is turning; :func:`closed_form_decomposition` implements that solution and
serves as an independent cross-check of the filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .error_models import CompositeModel, KinematicInput
from .exceptions import DimensionMismatch, ZeroTurnRate
from .frames import as_count

RANK_TOL = 1e-8
MIN_TURN_RATE = 1e-3
SMOOTH_WINDOW = 3


@dataclass
class ObservabilityReport:
    """Windowed rank analysis of a model along one input trajectory.

    ``observable`` is true iff at least one window attains full rank.
    ``deficient_windows`` and ``degenerate_windows`` list (start, end)
    sample index pairs (end exclusive); a degenerate window is a deficient
    one whose samples all have the same output Jacobian, so it holds no more
    rank than one sample: the drive along it does not vary the model.
    """

    observable: bool
    state_dim: int
    window_length: int
    window_starts: list
    rank_profile: list
    condition_numbers: list
    deficient_windows: list
    degenerate_windows: list


def numerical_rank_test(model: CompositeModel, x0, inputs: KinematicInput,
                        window_length: int | None = None) -> ObservabilityReport:
    """Sliding-window rank test of the stacked sensitivity matrix along a
    :class:`~locdecomp.error_models.KinematicInput` series ``inputs`` whose
    ``ref_position`` is (N, 2).

    The 2 x n Jacobian of the model output at ``x0`` is formed once per
    sample, by central differences (step ``1e-6 * max(1, |x0_j|)``) over
    one model evaluation of all samples, which also evaluates ``x0``, so a
    deformation singular there raises
    :class:`~locdecomp.exceptions.SingularTransform`.  Each window's
    sensitivity matrix stacks the rows of its samples in order (east, then
    north per sample); its numerical rank is the number of singular values
    above ``RANK_TOL`` (1e-8) times the largest one, and its condition
    number is the ratio of the largest to the smallest (infinite when that
    is zero).
    ``window_length`` must be an integer; the default is twice the state
    dimension.  ``x0`` must be finite.
    """
    x0 = np.asarray(x0, dtype=float)
    n = model.state_dim
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0}")
    wl = 2 * n if window_length is None else as_count(window_length, "window_length")
    if wl < -(-n // 2):
        raise ValueError(f"window_length {wl} too short for {n} parameters")
    if inputs.ref_position.shape != (len(inputs), 2):
        raise DimensionMismatch(f"ref_position must have shape ({len(inputs)}, 2), "
                                f"got {inputs.ref_position.shape}")
    if len(inputs) < wl:
        raise ValueError(f"trajectory of {len(inputs)} samples is shorter than "
                         f"one window of {wl}")

    h = 1e-6 * np.maximum(1.0, np.abs(x0))
    # x0 is the last state: the steps either side of a singular point are
    # regular, so only x0 can raise
    states = np.concatenate([x0 + np.diag(h), x0 - np.diag(h), x0[None]])[:, None, :]
    # a model of state-independent components returns no sample axis
    out = np.broadcast_to(model.evaluate(states, inputs), (2 * n + 1, len(inputs), 2))
    jac = ((out[:n] - out[n:2 * n]) / (2.0 * h[:, None, None])).transpose(1, 2, 0)
    windows = sliding_window_view(jac, wl, axis=0)  # (W, 2, n, wl)

    # the reshape merges the window-sample axis (stride 16 bytes) with the
    # east/north axis (stride 8 bytes), so the stack stays a view of jac and
    # the SVD reads it one window at a time: nothing is copied
    sv = np.linalg.svd(np.moveaxis(windows, -1, 1).reshape(-1, 2 * wl, n), compute_uv=False)
    ranks = np.sum(sv > RANK_TOL * sv[:, :1], axis=1)
    conds = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] > 0.0)

    # a deficient window is degenerate when each sample's Jacobian equals
    # the previous one's: no sample adds a row the first did not have
    repeats = (jac[1:] == jac[:-1]).all(axis=(1, 2))
    run = np.concatenate([[0], np.cumsum(repeats)])
    starts = np.arange(len(windows))
    degenerate = (ranks < n) & (run[starts + wl - 1] - run[starts] == wl - 1)

    return ObservabilityReport(
        observable=bool(np.any(ranks == n)),
        state_dim=n,
        window_length=wl,
        window_starts=starts.tolist(),
        rank_profile=ranks.tolist(),
        condition_numbers=conds.tolist(),
        deficient_windows=[(s, s + wl) for s in starts[ranks < n].tolist()],
        degenerate_windows=[(s, s + wl) for s in starts[degenerate].tolist()],
    )


def closed_form_decomposition(d, d_rate, heading_angle, heading_rate) -> np.ndarray:
    """Analytic split of difference observations into body and map offsets.

    For the model consisting of a vehicle-fixed offset (rotated by heading)
    plus a state-independent map translation, the four parameters follow in
    closed form from the difference vector, its time derivative, the
    heading and the heading rate.  The heading must be changing: the
    formulas divide by the heading rate, and with a constant heading the
    two offsets are indistinguishable.  Every heading rate must exceed
    ``MIN_TURN_RATE`` (1e-3 rad/s) in magnitude, else
    :class:`~locdecomp.exceptions.ZeroTurnRate` is raised, also for a NaN.

    ``d`` and ``d_rate`` (..., 2) broadcast against the headings (...).
    Returns ``(body_x, body_y, map_east, map_north)`` on a last axis of 4.
    """
    d = np.asarray(d, dtype=float)
    d_rate = np.asarray(d_rate, dtype=float)
    slowest = np.abs(heading_rate).min(initial=np.inf)
    if not slowest > MIN_TURN_RATE:
        raise ZeroTurnRate(
            f"|heading rate| = {slowest} <= {MIN_TURN_RATE}; the agent "
            "must be turning to separate the body offset from the map offset")
    c, s = np.cos(heading_angle), np.sin(heading_angle)
    body_x = (-d_rate[..., 0] * s + d_rate[..., 1] * c) / heading_rate
    body_y = -(d_rate[..., 0] * c + d_rate[..., 1] * s) / heading_rate
    map_e = d[..., 0] - d_rate[..., 1] / heading_rate
    map_n = d[..., 1] + d_rate[..., 0] / heading_rate
    return np.stack([body_x, body_y, map_e, map_n], axis=-1)


def difference_rates(t, d_series) -> np.ndarray:
    """Time derivatives of a sampled difference series by central differences.

    The series is smoothed with a centered moving average of
    ``SMOOTH_WINDOW`` (3) samples, edge-replicated, before differentiating,
    since measured differences are noisy and the closed-form decomposition
    consumes their rates directly.  ``t`` must strictly increase over at
    least ``SMOOTH_WINDOW`` samples.
    """
    t = np.asarray(t, dtype=float)
    d = np.asarray(d_series, dtype=float)
    if d.ndim != 2 or d.shape[1] != 2 or d.shape[0] != t.size:
        raise ValueError(f"d_series must have shape (len(t), 2), got {d.shape}")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("t must strictly increase")
    if SMOOTH_WINDOW > t.size:
        raise ValueError(f"the {SMOOTH_WINDOW}-sample smoothing window (SMOOTH_WINDOW) "
                         f"is wider than the series of {t.size} samples")
    half = SMOOTH_WINDOW // 2
    padded = np.pad(d, ((half, half), (0, 0)), mode="edge")
    kernel = np.full(SMOOTH_WINDOW, 1.0 / SMOOTH_WINDOW)
    d = np.column_stack([np.convolve(padded[:, k], kernel, mode="valid")
                         for k in range(2)])
    return np.gradient(d, t, axis=0)
