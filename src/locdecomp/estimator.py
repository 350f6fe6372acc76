"""Unscented Kalman Filter over static error-model parameters.

The stacked component parameters form the filter state.  They are treated
as constants, so the process model is the identity and the prediction step
only inflates the covariance by the process noise.  The measurement
function is the composite difference model evaluated at the current
kinematic input, and the measurement is the observed localizer difference
with its composed covariance.

Sigma points follow the scaled construction of Wan and van der Merwe ("The
unscented Kalman filter for nonlinear estimation", 2000) at a fixed spread:
``ALPHA = 0.1``, ``BETA = 2`` and ``KAPPA = 0``.  Covariances are validated
where they enter (initial covariance, process noise, measurement
covariances) and stored as their exact symmetric part ``(m + m.T) / 2``,
so every prior and posterior derived from them is exactly symmetric and no
step checks symmetry.

The math is written once over a run axis (means (B, n), covariances
(B, n, n)): :func:`filter_steps` is the filter, B runs in one vectorized
pass, and one run is a batch of one.  Each step adds the process noise to
the covariances and takes one measurement step, whose sigma points are
sigma-major, (2n+1, B, n), whose cross covariance is one product over the
symmetric point pairs, and whose 2x2 innovation covariance is inverted in
closed form; each step's :class:`FilterStep` is yielded read-only.
Shapes, positions, measurement covariances and observation finiteness are
validated once per pass; a series' samples are views of its validated
arrays.  Each step checks its covariances with Cholesky factorizations,
with no jitter, which succeed only on positive-definite input: the prior's
factor is its sigma-point root, and the posterior's is taken of a copy
with the PSD floor added to its diagonal.  Only when one fails are
eigenvalues computed: an indefinite covariance raises
:class:`~locdecomp.exceptions.NotPSD` naming its lowest eigenvalue, and a
semi-definite prior (validly collapsed, e.g. all zero) gets its
eigendecomposition root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .error_models import CompositeModel, KinematicInput
from .exceptions import DimensionMismatch, FilterStepError, NotPSD

SYM_TOL = 1e-9
PSD_TOL = 1e-9
# the sigma-point spread: beta = 2 suits Gaussian priors, and a small alpha
# keeps the points near the mean; at kappa = 0, n + lambda = alpha^2 n > 0
ALPHA = 0.1
BETA = 2.0
KAPPA = 0.0


def _check_psd(sym: np.ndarray, name: str) -> None:
    """Raise NotPSD unless each symmetric matrix in ``sym`` (..., k, k) has
    its lowest eigenvalue at or above the floor ``-PSD_TOL * max(trace, 1)``.

    One batched Cholesky of a copy with the floor added to its diagonal
    decides it: it succeeds only when every lowest eigenvalue lies above the
    floor.  Only when it fails are the eigenvalues computed, to accept a
    matrix that sits exactly at the floor and to name the lowest otherwise.
    """
    k = sym.shape[-1]
    shifted = sym.copy()
    # sym + floor * I in place of this view measured 1.02x the corner filter pass time
    diagonal = shifted.reshape(sym.shape[:-2] + (k * k,))[..., ::k + 1]
    floor = PSD_TOL * np.maximum(diagonal.sum(axis=-1), 1.0)
    diagonal += floor[..., None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(sym)[..., 0]
        if np.any(lowest < -floor):
            raise NotPSD(f"{name} has negative eigenvalue {lowest.min()}") from None


def _check_covariance(m, name: str, dim: int | None = None) -> np.ndarray:
    """Validate that ``m``, of shape ``(dim, dim)`` (without ``dim``, a stack
    (..., k, k) the caller has checked), is finite, symmetric within
    ``SYM_TOL`` of its largest entry (at least 1) and positive semi-definite
    within tolerance; returns the exactly symmetric ``(m + m.T) / 2``."""
    m = np.asarray(m, dtype=float)
    if dim is not None and m.shape != (dim, dim):
        raise DimensionMismatch(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotPSD(f"{name} must be finite")
    m_t = np.swapaxes(m, -1, -2)
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(m - m_t).max(axis=(-2, -1)) > SYM_TOL * scale):
        raise NotPSD(f"{name} is not symmetric within tolerance")
    sym = (m + m_t) / 2.0
    _check_psd(sym, name)
    return sym


@dataclass(frozen=True)
class UkfConfig:
    """Initial mean (n,) and covariance (n, n) and process noise (n, n) of
    the filter; another shape raises DimensionMismatch naming the field.

    The sigma-point spread is fixed (``ALPHA``, ``BETA``, ``KAPPA``: the
    standard scaled unscented transform of Wan and van der Merwe, 2000).
    """

    process_noise: np.ndarray
    initial_mean: np.ndarray
    initial_covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.initial_mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"initial_mean must be a vector, got shape {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"initial_mean must be finite, got {mean}")
        n = mean.size
        object.__setattr__(self, "initial_mean", mean)
        for name in ("initial_covariance", "process_noise"):
            object.__setattr__(self, name, _check_covariance(getattr(self, name), name, n))


def _covariance_sqrt(p: np.ndarray) -> np.ndarray:
    """Matrices S with S @ S.T = p for symmetric p (..., n, n): the Cholesky
    factor, which is also the PSD check.  If it fails, an indefinite matrix
    raises NotPSD naming the lowest eigenvalue; else each matrix retries alone,
    so a run's root does not depend on its batch, and a semi-definite one
    gets its eigendecomposition root."""
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        _check_psd(p, "covariance")
    if p.ndim > 2:
        return np.stack([_covariance_sqrt(m) for m in p])
    eigvals, eigvecs = np.linalg.eigh(p)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _sigma_weights(n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Spread ``n + lambda`` and the mean and covariance weights of the
    2n+1 scaled sigma points of an n-dimensional state."""
    lam = ALPHA ** 2 * (n + KAPPA) - n
    scale = n + lam
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = lam / scale + (1.0 - ALPHA ** 2 + BETA)
    return scale, wm, wc


def _sigma_points(means: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Points (2n+1, B, n) of means (B, n) and spreads ``sqrt(n + lambda) L``
    (B, n, n) in one buffer: the means, then plus and minus each column."""
    n = means.shape[-1]
    columns = spread.transpose(2, 0, 1)   # (n, B, n): [j, b, :] = spread[b, :, j]
    # np.concatenate of the three parts measured 1.07x the corner filter pass time
    points = np.empty((2 * n + 1,) + means.shape)
    points[0] = means
    np.add(means, columns, out=points[1:n + 1])
    np.subtract(means, columns, out=points[n + 1:])
    return points


class FilterStep(NamedTuple):
    """One filter step of B runs: its posterior, innovation and S."""

    means: np.ndarray        # (B, n), the posterior
    covs: np.ndarray         # (B, n, n)
    innovation: np.ndarray   # (B, 2), d - predicted
    s00: np.ndarray          # (B,), the innovation covariance S's entries
    s11: np.ndarray
    s01: np.ndarray
    det: np.ndarray          # (B,), s00 * s11 - s01 ** 2


def _update(means: np.ndarray, priors: np.ndarray, d: np.ndarray, r: np.ndarray,
            u: KinematicInput, model: CompositeModel, weights) -> FilterStep:
    """The :class:`FilterStep` of prior ``means`` (B, n) and ``priors``
    (B, n, n) after differences ``d`` (B, 2) of covariance ``r``.  The
    sigma-major points (2n+1, B, n) deviate from the mean by 0 and
    ``+-sqrt(n + lambda) L_j``, so ``P_xz = w_1 sqrt(n + lambda) L (Z+ - Z-)``.
    S is built from its three entries (``r`` is exactly symmetric) and
    ``K = P_xz adj(S) / det S``.  Sums over the sigma axis reduce (2n+1, B, 2)
    arrays and products are per run, so no run's posterior depends on its batch."""
    scale, wm, wc = weights
    n = means.shape[-1]
    spread = np.sqrt(scale) * _covariance_sqrt(priors)
    outputs = model.evaluate(_sigma_points(means, spread), u)
    predicted = (wm[:, None, None] * outputs).sum(axis=0)
    dz = outputs - predicted                                   # (2n+1, B, 2)
    wdz = wc[:, None, None] * dz
    # reduce (2n+1, B, 2) arrays only: a (2n+1, B) one is summed pairwise
    # when B = 1, which moved a run alone 2.2e-11 from the same run batched
    s00, s11 = ((wdz * dz).sum(axis=0) + r.diagonal()).T
    s01 = (wdz * dz[..., ::-1]).sum(axis=0)[:, 0] + r[0, 1]
    det = s00 * s11 - s01 * s01
    if not det.all():
        raise NotPSD("innovation covariance is singular")
    pair_diff = (outputs[1:n + 1] - outputs[n + 1:]).swapaxes(0, 1)   # (B, n, 2)
    cross_cov = wc[1] * (spread @ pair_diff)
    inverse = np.empty((len(det), 2, 2))   # adj(S) / det S; np.stack measured 1.04x the filter pass
    inverse[:, 0, 0], inverse[:, 1, 1] = s11 / det, s00 / det
    inverse[:, 0, 1] = inverse[:, 1, 0] = -s01 / det
    gain = cross_cov @ inverse
    innovation = d - predicted
    posterior_means = means + (gain @ innovation[:, :, None])[:, :, 0]
    posterior_covs = priors - gain @ cross_cov.swapaxes(1, 2)
    return FilterStep(posterior_means, (posterior_covs + posterior_covs.swapaxes(1, 2)) / 2.0,
                      innovation, s00, s11, s01, det)


def filter_steps(model: CompositeModel, cfg: UkfConfig, d, r, inputs):
    """Filter B runs from ``cfg.initial_mean`` and ``cfg.initial_covariance``
    in one vectorized pass.

    ``d`` holds the observed differences (B, N, 2), ``r`` the measurement
    covariances (N, 2, 2) shared by the runs, and ``inputs`` the
    :class:`KinematicInput` series of the N steps, indexed one step at a
    time, with ``ref_position`` shared (N, 2) or per run (B, N, 2).  Before
    step 0, anything but a series raises :class:`TypeError`, and other
    counts, positions or initial state dimensions :class:`DimensionMismatch`.
    Yields each step's :class:`FilterStep`, read-only, since the next step
    reads its posterior.  Errors raised inside a step are re-raised as
    :class:`~locdecomp.exceptions.FilterStepError` carrying the step index.
    """
    n = cfg.initial_mean.size
    if n != model.state_dim:
        raise DimensionMismatch(f"initial state dimension {n} does not "
                                f"match model state dimension {model.state_dim}")
    d = np.asarray(d, dtype=float)
    if d.ndim != 3 or d.shape[2] != 2:
        raise DimensionMismatch(f"d must have shape (B, N, 2), got {d.shape}")
    n_steps = d.shape[1]
    r = np.asarray(r, dtype=float)
    if r.shape != (n_steps, 2, 2):
        raise DimensionMismatch(
            f"r must have shape ({n_steps}, 2, 2) for the {n_steps} steps of d, "
            f"got {r.shape}")
    if not isinstance(inputs, KinematicInput) or np.ndim(inputs.t) != 1:
        kind = "a single sample" if isinstance(inputs, KinematicInput) else type(inputs).__name__
        raise TypeError(f"inputs must be a KinematicInput series, got {kind}")
    if inputs.ref_position.shape not in (d.shape[1:], d.shape):
        raise DimensionMismatch(
            f"inputs.ref_position must have shape {d.shape[1:]} or {d.shape} for the "
            f"{n_steps} steps and {d.shape[0]} runs of d, got {inputs.ref_position.shape}")
    r = _check_covariance(r, "R")
    bad_steps = np.flatnonzero(~np.isfinite(d).all(axis=0).all(axis=1))
    if bad_steps.size:
        raise FilterStepError(int(bad_steps[0]), "observed difference must be finite")
    weights = _sigma_weights(n)
    means = np.tile(cfg.initial_mean, (d.shape[0], 1))
    covs = np.tile(cfg.initial_covariance, (d.shape[0], 1, 1))
    for k in range(n_steps):
        try:
            step = _update(means, covs + cfg.process_noise, d[:, k], r[k],
                           inputs[k], model, weights)
            means, covs = step.means, step.covs
            if not np.isfinite(means).all():
                raise ValueError("mean must be finite")
            if not np.isfinite(covs).all():
                raise NotPSD("covariance must be finite")
            _check_psd(covs, "covariance")
        except Exception as exc:
            raise FilterStepError(k, str(exc)) from exc
        for array in step:
            array.setflags(write=False)
        yield step
