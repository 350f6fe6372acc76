"""Unscented Kalman Filter over static error-model parameters.

The stacked component parameters form the filter state.  They are treated
as constants, so the process model is the identity and the prediction step
only inflates the covariance by the process noise.  The measurement
function is the composite difference model evaluated at the current
kinematic input, and the measurement is the observed localizer difference
with its composed covariance.

Sigma points follow the scaled construction of Wan and van der Merwe
(parameters ``alpha``, ``beta``, ``kappa``).  Covariances are validated
where they enter (initial covariance, process noise, measurement
covariances) and stored as their exact symmetric part ``(m + m.T) / 2``,
so every prior and posterior derived from them is exactly symmetric and no
step checks symmetry.

The math is written once over a run axis (means (B, n), covariances
(B, n, n)): :func:`filter_runs` is the filter, B runs in one vectorized
pass, and one run is a batch of one.  Each step adds the process noise to
the covariances and takes one measurement step, whose sigma points are
sigma-major, (2n+1, B, n), and whose cross covariance is one product over
the symmetric point pairs.  Shapes, measurement covariances and
observation finiteness are validated once per pass; the per-step samples
are views of the series' validated arrays.
Each step checks its covariances with Cholesky factorizations, with no
jitter, which succeed only on positive-definite input: the prior's factor
is its sigma-point root, and the posterior's is taken of a copy with the
PSD floor added to its diagonal.  Only when one fails are eigenvalues
computed: an indefinite covariance raises
:class:`~locdecomp.exceptions.NotPSD` naming its lowest eigenvalue, and a
semi-definite prior (validly collapsed, e.g. all zero) gets its
eigendecomposition root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .error_models import CompositeModel, KinematicInput
from .exceptions import DimensionMismatch, FilterStepError, NotPSD

SYM_TOL = 1e-9
PSD_TOL = 1e-9
_ADJUGATE = [3, 1, 2, 0]   # a flat 2x2 matrix's adjugate: entry order and signs
_ADJUGATE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


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
    """Validate that each matrix in ``m`` (shape (..., k, k)) is finite,
    symmetric within ``SYM_TOL`` of its largest entry (at least 1) and
    positive semi-definite within tolerance; returns the exactly symmetric
    ``(m + m.T) / 2``, which equals ``m`` when ``m`` is symmetric."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if dim is not None and m.shape[-2:] != (dim, dim):
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
    """Initial mean and covariance, process noise and sigma-point spread
    parameters.

    ``beta = 2`` is optimal for Gaussian priors in the scaled construction;
    a small ``alpha`` keeps the points close to the mean, which suits the
    mildly nonlinear rotation measurements handled here.  ``mahalanobis_gate``
    optionally skips updates whose normalized innovation exceeds the gate
    (off by default; the simulated pipelines have no outliers).
    """

    process_noise: np.ndarray
    initial_mean: np.ndarray
    initial_covariance: np.ndarray
    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    mahalanobis_gate: float | None = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.initial_mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"initial_mean must be a vector, got shape {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("initial_mean must be finite")
        n = mean.size
        object.__setattr__(self, "initial_mean", mean)
        object.__setattr__(self, "initial_covariance", _check_covariance(
            self.initial_covariance, "initial_covariance", n))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        for name in ("beta", "kappa"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        gate = self.mahalanobis_gate
        if gate is not None and not 0.0 < gate < np.inf:
            raise ValueError(f"mahalanobis_gate must be None or a finite value above 0, "
                             f"got {gate}")
        if n + self.kappa <= 0.0:
            raise ValueError(f"kappa must exceed -n = {-n}, got {self.kappa}")
        object.__setattr__(self, "process_noise",
                           _check_covariance(self.process_noise, "process_noise", n))


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


def _sigma_weights(n: int, cfg: UkfConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Spread ``n + lambda`` and the mean and covariance weights of the
    2n+1 scaled sigma points of an n-dimensional state."""
    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    scale = n + lam
    if scale <= 0.0:
        raise ValueError(f"sigma-point scale n + lambda = {scale} must be positive")
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = lam / scale + (1.0 - cfg.alpha ** 2 + cfg.beta)
    return scale, wm, wc


def _sigma_points(means: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Points (2n+1, B, n) of means (B, n) and spreads ``sqrt(n + lambda) L``
    (B, n, n) in one buffer: the means, then plus and minus each column."""
    n = means.shape[-1]
    columns = spread.transpose(2, 0, 1)   # (n, B, n): [j, b, :] = spread[b, :, j]
    points = np.empty((2 * n + 1,) + means.shape)
    points[0] = means
    np.add(means, columns, out=points[1:n + 1])
    np.subtract(means, columns, out=points[n + 1:])
    return points


def _inverse_2x2(s: np.ndarray) -> np.ndarray:
    """Inverses of the 2x2 matrices ``s`` (B, 2, 2): each adjugate over its
    determinant, from the flat entries, elementwise, so a run's inverse does
    not depend on its batch.  A zero determinant raises NotPSD."""
    flat = s.reshape(-1, 4)
    cross = flat * flat[:, ::-1]                      # a*d, b*c, c*b, d*a
    det = cross[:, :1] - cross[:, 1:2]
    if not det.all():
        raise NotPSD("innovation covariance is singular")
    return (flat[:, _ADJUGATE] * _ADJUGATE_SIGN / det).reshape(s.shape)


def _update(means: np.ndarray, priors: np.ndarray, d: np.ndarray, r: np.ndarray,
            u: KinematicInput, model: CompositeModel, cfg: UkfConfig,
            weights) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (B, n) and covariances (B, n, n) from prior ``means``
    and ``priors`` after differences (B, 2) of covariance ``r``.  The
    sigma-major points (2n+1, B, n) deviate from the mean by 0 and
    ``+-sqrt(n + lambda) L_j``, so ``P_xz = w_1 sqrt(n + lambda) L (Z+ - Z-)``
    and ``K = P_xz S^-1``.  Sums over the sigma axis are elementwise (a 2-d
    product over all runs would round a run by its place in the batch) and
    products per run, so a run's posterior does not depend on its batch."""
    scale, wm, wc = weights
    n = means.shape[-1]
    spread = np.sqrt(scale) * _covariance_sqrt(priors)
    outputs = model.evaluate(_sigma_points(means, spread), u)
    predicted = (wm[:, None, None] * outputs).sum(axis=0)
    dz = (outputs - predicted).transpose(1, 2, 0)              # (B, 2, 2n+1)
    innov_cov = (wc * dz) @ dz.swapaxes(1, 2) + r
    pair_diff = (outputs[1:n + 1] - outputs[n + 1:]).swapaxes(0, 1)   # (B, n, 2)
    cross_cov = wc[1] * (spread @ pair_diff)
    innovation = d - predicted
    innov_inv = _inverse_2x2(innov_cov)
    gain = cross_cov @ innov_inv
    posterior_means = means + (gain @ innovation[:, :, None])[:, :, 0]
    posterior_covs = priors - gain @ cross_cov.swapaxes(1, 2)
    posterior_covs = (posterior_covs + posterior_covs.swapaxes(1, 2)) / 2.0
    if cfg.mahalanobis_gate is not None:
        whitened = (innov_inv @ innovation[:, :, None])[:, :, 0]
        gated = np.sum(innovation * whitened, axis=1) > cfg.mahalanobis_gate ** 2
        posterior_means = np.where(gated[:, None], means, posterior_means)
        posterior_covs = np.where(gated[:, None, None], priors, posterior_covs)
    return posterior_means, posterior_covs


def filter_runs(model: CompositeModel, cfg: UkfConfig, d, r, inputs):
    """Filter B runs from ``cfg.initial_mean`` and ``cfg.initial_covariance``
    in one vectorized pass.

    ``d`` holds the observed differences (B, N, 2), ``r`` the measurement
    covariances (N, 2, 2) shared by the runs, and ``inputs`` is a sequence
    of N kinematic inputs (a series of N, or a list), indexed one step at a
    time, whose ``ref_position`` is shared (2,) or per run (B, 2); other
    shapes, counts or initial state dimensions raise
    :class:`~locdecomp.exceptions.DimensionMismatch` before any step.
    Yields the posterior means (B, n) and covariances (B, n, n) after each
    step.  Errors raised inside a step are re-raised as
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
    if len(inputs) != n_steps:
        raise DimensionMismatch(
            f"inputs must hold {n_steps} kinematic inputs for the {n_steps} "
            f"steps of d, got {len(inputs)}")
    r = _check_covariance(r, "R", 2)
    bad_steps = np.flatnonzero(~np.isfinite(d).all(axis=(0, 2)))
    if bad_steps.size:
        raise FilterStepError(int(bad_steps[0]), "observed difference must be finite")
    weights = _sigma_weights(n, cfg)
    means = np.tile(cfg.initial_mean, (d.shape[0], 1))
    covs = np.tile(cfg.initial_covariance, (d.shape[0], 1, 1))
    for step in range(n_steps):
        try:
            means, covs = _update(means, covs + cfg.process_noise, d[:, step], r[step],
                                  inputs[step], model, cfg, weights)
            if not np.isfinite(means).all():
                raise ValueError("mean must be finite")
            if not np.isfinite(covs).all():
                raise NotPSD("covariance must be finite")
            _check_psd(covs, "covariance")
        except Exception as exc:
            raise FilterStepError(step, str(exc)) from exc
        yield means, covs
