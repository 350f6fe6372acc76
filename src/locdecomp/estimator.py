"""Unscented Kalman Filter over static error-model parameters.

The stacked component parameters form the filter state.  They are treated
as constants, so the process model is the identity and the prediction step
only inflates the covariance by the process noise.  The measurement
function is the composite difference model evaluated at the current
kinematic input, and the measurement is the observed localizer difference
with its composed covariance.

Sigma points follow the scaled construction of Wan and van der Merwe
(parameters ``alpha``, ``beta``, ``kappa``).  The covariance square root
tries a Cholesky factorization first; on failure it retries once with a
diagonal jitter of ``1e-9 * trace(P) / n`` and then falls back to a
symmetric eigendecomposition root if the matrix is semi-definite within
tolerance (a covariance that has validly collapsed to singular, e.g. all
zero, must still yield sigma points).  A genuinely indefinite covariance
raises :class:`~locdecomp.exceptions.CholeskyFailure`, which signals
filter divergence rather than a recoverable condition.

The math is written once over a run axis (means (B, n), covariances
(B, n, n), sigma points (B, 2n+1, n)): :func:`filter_runs` filters B runs
in one vectorized pass, and :func:`run_filter`, :func:`predict`,
:func:`update` and :func:`generate_sigma_points` are its batch-of-one
cases.  Array shapes, measurement covariances and observation finiteness
are validated once per pass.  Each step checks its covariances with
Cholesky factorizations, which succeed only on positive-definite input:
the prior's factor is its sigma-point root, and the posterior gets one
batched factorization shifted by the PSD floor.  Eigenvalues are computed
only when a factorization fails, to settle the verdict and name the
lowest one in the error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .error_models import CompositeModel, KinematicInput
from .exceptions import CholeskyFailure, DimensionMismatch, FilterStepError, NotPSD
from .frames import as_vec2

SYM_TOL = 1e-9
PSD_TOL = 1e-9


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """Raise NotPSD unless each matrix in ``m`` equals its transpose within
    ``SYM_TOL`` of its largest entry (at least 1)."""
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1)) > SYM_TOL * scale):
        raise NotPSD(f"{name} is not symmetric within tolerance")


def _check_covariance(m, name: str, dim: int | None = None) -> np.ndarray:
    """Validate that each matrix in ``m`` (shape (..., k, k)) is finite,
    symmetric and positive semi-definite within tolerance.

    A matrix is accepted when its lowest eigenvalue is at least the floor
    ``-PSD_TOL * max(trace, 1)``.  One batched Cholesky of the symmetrized
    matrices shifted up by that floor decides it: the factorization
    succeeds only when every lowest eigenvalue lies above the floor.  Only
    when it fails are the eigenvalues computed, to accept a matrix that
    sits exactly at the floor and to name the lowest eigenvalue otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if dim is not None and m.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotPSD(f"{name} must be finite")
    _check_symmetric(m, name)
    sym = (m + np.swapaxes(m, -1, -2)) / 2.0
    floor = PSD_TOL * np.maximum(np.trace(m, axis1=-2, axis2=-1), 1.0)
    try:
        np.linalg.cholesky(sym + floor[..., None, None] * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(sym)[..., 0]
        if np.any(lowest < -floor):
            raise NotPSD(f"{name} has negative eigenvalue {lowest.min()}") from None
    return m


@dataclass
class GaussianBelief:
    """Mean and covariance of a Gaussian state estimate."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if self.mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {self.mean.shape}")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        self.covariance = _check_covariance(self.covariance, "covariance", self.mean.size)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class UkfConfig:
    """Sigma-point spread parameters, process noise and initial belief.

    ``beta = 2`` is optimal for Gaussian priors in the scaled construction;
    a small ``alpha`` keeps the points close to the mean, which suits the
    mildly nonlinear rotation measurements handled here.  ``mahalanobis_gate``
    optionally skips updates whose normalized innovation exceeds the gate
    (off by default; the simulated pipelines have no outliers).
    """

    process_noise: np.ndarray
    initial_belief: GaussianBelief
    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    mahalanobis_gate: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        q = _check_covariance(self.process_noise, "process_noise",
                              self.initial_belief.dim)
        object.__setattr__(self, "process_noise", q)


@dataclass(frozen=True)
class DifferenceObservation:
    """Measured localizer difference with its composed covariance."""

    d: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", as_vec2(self.d, "d"))
        object.__setattr__(self, "R", _check_covariance(self.R, "R", 2))


def compose_measurement_covariance(cov_ref, cov_other) -> np.ndarray:
    """Total difference covariance: the sum of the two localizer covariances.

    The difference of two independent Gaussian position estimates is
    Gaussian with the covariances added; each input must be a valid 2x2
    covariance on its own.
    """
    a = _check_covariance(cov_ref, "cov_ref", 2)
    b = _check_covariance(cov_other, "cov_other", 2)
    return a + b


@dataclass(frozen=True)
class SigmaPoints:
    """Weighted sigma-point set; ``points`` has shape (..., 2n+1, n)."""

    points: np.ndarray
    mean_weights: np.ndarray
    cov_weights: np.ndarray


def _covariance_sqrt(p: np.ndarray) -> np.ndarray:
    """Matrices S with S @ S.T = p for p of shape (..., n, n), tolerant of
    semi-definite input; if a batched Cholesky fails, each matrix retries alone."""
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        if p.ndim > 2:
            return np.stack([_covariance_sqrt(m) for m in p])
    n = p.shape[0]
    jitter = PSD_TOL * np.trace(p) / n
    if jitter > 0.0:
        try:
            return np.linalg.cholesky(p + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            pass
    eigvals, eigvecs = np.linalg.eigh((p + p.T) / 2.0)
    if eigvals.min() < -PSD_TOL * max(np.trace(p), 1.0):
        raise CholeskyFailure(
            f"covariance is indefinite (min eigenvalue {eigvals.min()}); "
            "the filter has diverged")
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


def _sigma_points(means: np.ndarray, roots: np.ndarray, weights) -> SigmaPoints:
    """Scaled sigma points of a batch: means (B, n) and covariance roots
    (B, n, n), with the weights of :func:`_sigma_weights`."""
    scale, wm, wc = weights
    root_t = np.swapaxes(np.sqrt(scale) * roots, -1, -2)
    centre = means[:, None, :]
    points = np.concatenate([centre, centre + root_t, centre - root_t], axis=1)
    return SigmaPoints(points=points, mean_weights=wm, cov_weights=wc)


def _prior_roots(prior: np.ndarray) -> np.ndarray:
    """Cholesky roots of the priors (B, n, n); the factorization is also
    their PSD check.  If it fails, the priors get the full check, so an
    indefinite one raises NotPSD, and then the tolerant per-matrix root."""
    _check_symmetric(prior, "covariance")
    try:
        return np.linalg.cholesky(prior)
    except np.linalg.LinAlgError:
        _check_covariance(prior, "covariance")
        return _covariance_sqrt(prior)


def _predict(covs: np.ndarray, cfg: UkfConfig) -> np.ndarray:
    return covs + cfg.process_noise


def _update(means: np.ndarray, covs: np.ndarray, sp: SigmaPoints, d: np.ndarray,
            r: np.ndarray, u: KinematicInput, model: CompositeModel,
            cfg: UkfConfig) -> tuple[np.ndarray, np.ndarray]:
    """Update means (B, n) and covariances (B, n, n), whose sigma points are
    ``sp``, with differences (B, 2)."""
    # sigma axis first, so per-run kinematic fields of shape (B, 2) broadcast;
    # the contiguous copy gives every run's slice the same memory layout, so
    # the reductions below round alike whatever the batch size
    outputs = np.ascontiguousarray(
        np.swapaxes(model.evaluate(np.swapaxes(sp.points, 0, 1), u), 0, 1))
    predicted = sp.mean_weights @ outputs
    dz = outputs - predicted[:, None, :]
    dx = sp.points - means[:, None, :]
    innov_cov = np.swapaxes(sp.cov_weights[:, None] * dz, 1, 2) @ dz + r
    cross_cov = np.swapaxes(sp.cov_weights[:, None] * dx, 1, 2) @ dz
    innovation = d - predicted
    gain = np.swapaxes(np.linalg.solve(innov_cov, np.swapaxes(cross_cov, 1, 2)), 1, 2)
    posterior_means = means + (gain @ innovation[:, :, None])[:, :, 0]
    posterior_covs = covs - gain @ innov_cov @ np.swapaxes(gain, 1, 2)
    posterior_covs = (posterior_covs + np.swapaxes(posterior_covs, 1, 2)) / 2.0
    if cfg.mahalanobis_gate is not None:
        whitened = np.linalg.solve(innov_cov, innovation[:, :, None])[:, :, 0]
        gated = np.sum(innovation * whitened, axis=1) > cfg.mahalanobis_gate ** 2
        posterior_means = np.where(gated[:, None], means, posterior_means)
        posterior_covs = np.where(gated[:, None, None], covs, posterior_covs)
    return posterior_means, posterior_covs


def generate_sigma_points(belief: GaussianBelief, cfg: UkfConfig) -> SigmaPoints:
    """Scaled sigma points reproducing the belief's mean and covariance.

    Returns 2n+1 points; the weighted point mean equals ``belief.mean``
    exactly and the weighted point covariance equals ``belief.covariance``
    up to the square-root accuracy.
    """
    weights = _sigma_weights(belief.dim, cfg)
    sp = _sigma_points(belief.mean[None], _covariance_sqrt(belief.covariance[None]),
                       weights)
    return replace(sp, points=sp.points[0])


def predict(belief: GaussianBelief, cfg: UkfConfig) -> GaussianBelief:
    """Prediction step for constant parameters: inflate covariance by Q."""
    return GaussianBelief(belief.mean.copy(),
                          _predict(belief.covariance[None], cfg)[0])


def update(belief: GaussianBelief, obs: DifferenceObservation, u: KinematicInput,
           model: CompositeModel, cfg: UkfConfig) -> GaussianBelief:
    """Measurement update against the composite difference model.

    Propagates sigma points through the model at the current kinematic
    input, forms the innovation against the observed difference and applies
    the standard unscented gain.
    """
    if belief.dim != model.state_dim:
        raise DimensionMismatch(
            f"belief dimension {belief.dim} does not match model state "
            f"dimension {model.state_dim}")
    sp = generate_sigma_points(belief, cfg)
    means, covs = _update(belief.mean[None], belief.covariance[None],
                          replace(sp, points=sp.points[None]), obs.d[None], obs.R,
                          u, model, cfg)
    return GaussianBelief(means[0], covs[0])


def filter_runs(model: CompositeModel, cfg: UkfConfig, d, r, inputs):
    """Filter B runs from ``cfg.initial_belief`` in one vectorized pass.

    ``d`` holds the observed differences (B, N, 2), ``r`` the measurement
    covariances (N, 2, 2) shared by the runs, and ``inputs`` yields exactly
    N kinematic inputs, whose ``ref_position`` is shared (2,) or per run
    (B, 2); other shapes or counts raise
    :class:`~locdecomp.exceptions.DimensionMismatch` before any step.
    Yields the posterior means (B, n) and covariances (B, n, n) after each
    step.  Errors raised inside a step are re-raised as
    :class:`~locdecomp.exceptions.FilterStepError` carrying the step index.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 3 or d.shape[2] != 2:
        raise DimensionMismatch(f"d must have shape (B, N, 2), got {d.shape}")
    n_steps = d.shape[1]
    r = np.asarray(r, dtype=float)
    if r.shape != (n_steps, 2, 2):
        raise DimensionMismatch(
            f"r must have shape ({n_steps}, 2, 2) for the {n_steps} steps of d, "
            f"got {r.shape}")
    inputs = list(inputs)
    if len(inputs) != n_steps:
        raise DimensionMismatch(
            f"inputs must yield {n_steps} kinematic inputs for the {n_steps} "
            f"steps of d, got {len(inputs)}")
    _check_covariance(r, "R", 2)
    bad_steps = np.flatnonzero(~np.isfinite(d).all(axis=(0, 2)))
    if bad_steps.size:
        raise FilterStepError(int(bad_steps[0]), "observed difference must be finite")
    weights = _sigma_weights(cfg.initial_belief.dim, cfg)
    means = np.tile(cfg.initial_belief.mean, (d.shape[0], 1))
    covs = np.tile(cfg.initial_belief.covariance, (d.shape[0], 1, 1))
    for step, u in enumerate(inputs):
        try:
            prior = _predict(covs, cfg)
            sp = _sigma_points(means, _prior_roots(prior), weights)
            means, covs = _update(means, prior, sp, d[:, step], r[step], u, model, cfg)
            if not np.all(np.isfinite(means)):
                raise ValueError("mean must be finite")
            _check_covariance(covs, "covariance")
        except Exception as exc:
            raise FilterStepError(step, str(exc)) from exc
        yield means, covs


def run_filter(model: CompositeModel, cfg: UkfConfig, stream) -> list[GaussianBelief]:
    """Run predict/update over a time-ordered stream of (observation, input).

    Returns the initial belief followed by one posterior per step.  Errors
    raised inside a step are re-raised as
    :class:`~locdecomp.exceptions.FilterStepError` carrying the step index.
    """
    pairs = list(stream)
    d = np.array([obs.d for obs, _ in pairs]).reshape(1, len(pairs), 2)
    r = np.array([obs.R for obs, _ in pairs]).reshape(len(pairs), 2, 2)
    beliefs = [cfg.initial_belief]
    for means, covs in filter_runs(model, cfg, d, r, (u for _, u in pairs)):
        beliefs.append(GaussianBelief(means[0], covs[0]))
    return beliefs
