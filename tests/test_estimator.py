import re
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest

from locdecomp.error_models import (CompositeModel, KinematicInput, body_offset,
                                    map_rotation, map_scale, map_shear,
                                    map_translation)
from locdecomp.estimator import (PSD_TOL, UkfConfig, _check_covariance, _check_psd,
                                 _covariance_sqrt, _inverse_2x2, _sigma_points,
                                 _sigma_weights, _update, filter_runs)
from locdecomp.exceptions import DimensionMismatch, FilterStepError, NotPSD
from locdecomp.frames import Heading


def make_input(angle=0.0, rate=0.0, position=(0.0, 0.0), t=0.0):
    return KinematicInput(t=t, heading=Heading(angle=angle, rate=rate),
                          ref_position=np.asarray(position, dtype=float))


def make_config(dim, q=0.1, p0=10.0, x0=None, **kwargs):
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    return UkfConfig(process_noise=q * np.eye(dim), initial_mean=x0,
                     initial_covariance=p0 * np.eye(dim), **kwargs)


def filter_one(model, cfg, d, r, inputs):
    """One run through ``filter_runs``: differences (N, 2) and covariances
    (N, 2, 2) in, the posterior means (N, n) and covariances (N, n, n) out."""
    steps = list(filter_runs(model, cfg, np.asarray(d, dtype=float)[None], r, inputs))
    return np.array([m[0] for m, _ in steps]), np.array([c[0] for _, c in steps])


def random_psd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T) + 1e-6 * np.eye(dim)


def eigvalsh_verdict(m, name="covariance"):
    """The PSD rule as the eigenvalue test it states: the NotPSD message
    for a stack whose lowest eigenvalue lies below -PSD_TOL * max(trace, 1),
    or None for an accepted one."""
    m = np.asarray(m, dtype=float)
    lowest = np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)[..., 0]
    floor = -PSD_TOL * np.maximum(np.trace(m, axis1=-2, axis2=-1), 1.0)
    if np.any(lowest < floor):
        return f"{name} has negative eigenvalue {lowest.min()}"
    return None


def assert_same_verdict(m, name="covariance"):
    """``_check_covariance`` accepts ``m`` exactly when the eigenvalue rule
    does, and otherwise raises its message; returns that message."""
    expected = eigvalsh_verdict(m, name)
    if expected is None:
        _check_covariance(m, name)
    else:
        with pytest.raises(NotPSD) as excinfo:
            _check_covariance(m, name)
        assert str(excinfo.value) == expected
    return expected


def with_lowest_eigenvalue(rng, dim, factor):
    """Symmetric matrix with eigenvalues 1, ..., dim - 1 and a lowest one at
    ``factor`` times the PSD floor, in a random basis."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    rest = np.arange(1.0, dim)
    eigvals = np.r_[-factor * PSD_TOL * rest.sum(), rest]
    m = (basis * eigvals) @ basis.T
    return (m + m.T) / 2.0


def floor_matrices():
    """diag(4, 2, x) with its lowest eigenvalue x exactly at the PSD floor
    -PSD_TOL * trace, and the same with x one step lower."""
    x = -6.0 * PSD_TOL
    for _ in range(10):
        x = -PSD_TOL * (6.0 + x)
    at = np.diag([4.0, 2.0, x])
    below = np.diag([4.0, 2.0, np.nextafter(x, -1.0)])
    assert x == -PSD_TOL * np.trace(at)
    assert eigvalsh_verdict(at) is None and eigvalsh_verdict(below) is not None
    return at, below


def sigma_points(cfg):
    """The scaled sigma points (2n+1, n) of a configuration's initial mean
    and covariance and their mean and covariance weights, formed as a filter
    step forms them."""
    scale, wm, wc = _sigma_weights(cfg.initial_mean.size, cfg)
    spread = np.sqrt(scale) * _covariance_sqrt(cfg.initial_covariance[None])
    return _sigma_points(cfg.initial_mean[None], spread)[:, 0], wm, wc


def gated_priors(model, cfg, n_steps):
    """Covariances after each of ``n_steps`` filter steps whose updates the
    Mahalanobis gate skips (the differences are far outliers), so each is
    the prior: the previous covariance plus the process noise."""
    d = np.full((1, n_steps, 2), 1e6)
    r = np.tile(0.01 * np.eye(2), (n_steps, 1, 1))
    gated = replace(cfg, mahalanobis_gate=3.0)
    steps = list(filter_runs(model, gated, d, r, [make_input()] * n_steps))
    for means, _ in steps:
        np.testing.assert_array_equal(means[0], cfg.initial_mean)
    return [covs[0] for _, covs in steps]


def textbook_update(mean, prior, d, r, u, model, cfg):
    """One run's measurement update as the textbook writes it: sums over
    the sigma points of weighted deviation products, and a linear solve.
    Returns the predicted difference, the innovation and cross covariances,
    and the posterior mean and covariance."""
    n = mean.size
    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    wm = np.full(2 * n + 1, 0.5 / (n + lam))
    wm[0] = lam / (n + lam)
    wc = wm.copy()
    wc[0] += 1.0 - cfg.alpha ** 2 + cfg.beta
    root = np.sqrt(n + lam) * np.linalg.cholesky(prior)
    points = np.vstack([mean, mean + root.T, mean - root.T])
    outputs = model.evaluate(points, u)
    predicted = wm @ outputs
    dx, dz = points - mean, outputs - predicted
    s = sum(w * np.outer(b, b) for w, b in zip(wc, dz)) + r
    cross = sum(w * np.outer(a, b) for w, a, b in zip(wc, dx, dz))
    gain = np.linalg.solve(s, cross.T).T
    return (predicted, s, cross, mean + gain @ (d - predicted),
            prior - gain @ s @ gain.T)


def relative_gap(actual, expected):
    """Largest deviation over the largest entry of ``expected``, per leading
    index."""
    axes = tuple(range(1, np.ndim(expected)))
    return (np.abs(actual - expected).max(axis=axes)
            / np.abs(expected).max(axis=axes)).max()


NEARLY_SYMMETRIC = np.array([[1.0, 1e-12], [0.0, 1.0]])
NON_FINITE = [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
              np.array([[np.nan, 0.0], [0.0, 1.0]])]


def initial_state(mean, covariance):
    """A configuration from an initial mean and covariance alone."""
    return UkfConfig(process_noise=np.eye(np.size(mean)), initial_mean=mean,
                     initial_covariance=covariance)


class TestInitialState:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotPSD, match="^initial_covariance is not symmetric"):
            initial_state(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPSD, match="^initial_covariance has negative eigenvalue"):
            initial_state(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^initial_covariance must have shape"):
            initial_state(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("mean, message", [
        (np.zeros((2, 1)), "^initial_mean must be a vector"),
        ([0.0, np.nan], "^initial_mean must be finite$"),
    ])
    def test_rejects_bad_mean(self, mean, message):
        with pytest.raises(ValueError, match=message):
            initial_state(mean, np.eye(2))


class TestCovarianceCheck:
    """The Cholesky verdict of ``_check_covariance`` against the eigenvalue
    rule it implements."""

    def test_random_psd_stacks_are_accepted(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 4, 6):
            for scale in (1e-6, 1.0, 1e6):
                stack = np.stack([random_psd(rng, dim, scale) for _ in range(20)])
                assert assert_same_verdict(stack) is None
            low_rank = rng.normal(size=(20, dim, 1))
            assert assert_same_verdict(low_rank @ np.swapaxes(low_rank, 1, 2)) is None

    def test_half_the_floor_is_accepted(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4, 6):
            assert assert_same_verdict(with_lowest_eigenvalue(rng, dim, 0.5)) is None

    def test_twice_the_floor_is_rejected(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4, 6):
            assert assert_same_verdict(with_lowest_eigenvalue(rng, dim, 2.0)) is not None

    def test_one_bad_member_rejects_the_stack(self):
        rng = np.random.default_rng(14)
        stack = np.stack([random_psd(rng, 4) for _ in range(8)])
        stack[3] = with_lowest_eigenvalue(rng, 4, 2.0)
        assert assert_same_verdict(stack) is not None

    def test_zero_and_semi_definite_are_accepted(self):
        v = np.array([[1.0], [-2.0], [0.5]])
        for m in (np.zeros((3, 3)), np.diag([2.0, 0.0, 1.0]), v @ v.T,
                  np.zeros((5, 3, 3))):
            assert assert_same_verdict(m) is None

    def test_semi_definite_needs_no_eigenvalues(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        _check_covariance(np.stack([np.zeros((3, 3)), np.diag([2.0, 0.0, 1.0])]),
                          "covariance")

    def test_matrix_at_the_floor_is_settled_by_eigenvalues(self):
        # the shifted factorization meets an exactly zero pivot and fails;
        # the lowest eigenvalue equals the floor, which the rule accepts
        m = np.diag([1.0, -PSD_TOL])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m + PSD_TOL * np.eye(2))
        assert assert_same_verdict(m) is None

    def test_boundaries_store_the_exactly_symmetric_part(self):
        # a covariance asymmetric within tolerance enters as (m + m.T) / 2,
        # so every prior and posterior derived from it is symmetric too
        expected = np.array([[1.0, 5e-13], [5e-13, 1.0]])
        cfg = UkfConfig(process_noise=NEARLY_SYMMETRIC, initial_mean=np.zeros(2),
                        initial_covariance=NEARLY_SYMMETRIC)
        # filter_runs's R: the next test
        stored = [cfg.initial_covariance, cfg.process_noise]
        for m in stored:
            np.testing.assert_array_equal(m, m.T)
            np.testing.assert_array_equal(m, expected)

    def test_filter_runs_uses_the_symmetric_part_of_r(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        cfg = make_config(4)
        d = np.random.default_rng(16).normal(size=(2, 3, 2))
        inputs = [make_input(angle=a) for a in (0.0, 0.4, 0.8)]
        r = np.tile(0.04 * NEARLY_SYMMETRIC, (3, 1, 1))
        sym = (r + np.swapaxes(r, 1, 2)) / 2.0
        for (m1, c1), (m2, c2) in zip(filter_runs(model, cfg, d, r, inputs),
                                      filter_runs(model, cfg, d, sym, inputs)):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(c1, c2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_is_rejected_at_every_boundary(self, bad):
        with pytest.raises(NotPSD, match="^initial_covariance must be finite$"):
            initial_state(np.zeros(2), bad)
        with pytest.raises(NotPSD, match="^process_noise must be finite$"):
            UkfConfig(process_noise=bad, initial_mean=np.zeros(2),
                      initial_covariance=np.eye(2))
        with pytest.raises(NotPSD, match="^R must be finite$"):
            next(filter_runs(CompositeModel(components=(map_translation(),)),
                             make_config(2), np.zeros((1, 1, 2)), bad[None],
                             [make_input()]))


class TestDiagonalShiftVerdict:
    """The floor added to the diagonal of one copy gives the eigenvalue
    rule's verdict at its boundary, at the API boundary and in a step."""

    def test_at_the_floor_is_accepted(self):
        at, _ = floor_matrices()
        for m in (at, np.stack([np.eye(3), at, 2.0 * np.eye(3)])):
            _check_psd(m, "covariance")

    def test_just_below_the_floor_is_rejected_naming_the_eigenvalue(self):
        _, below = floor_matrices()
        message = f"^covariance has negative eigenvalue {re.escape(str(below[2, 2]))}$"
        for m in (below, np.stack([np.eye(3), below, 2.0 * np.eye(3)])):
            with pytest.raises(NotPSD, match=message):
                _check_psd(m, "covariance")

    def test_input_is_left_unchanged(self):
        at, _ = floor_matrices()
        stack = np.stack([np.eye(3), at])
        kept = stack.copy()
        _check_psd(stack, "covariance")
        np.testing.assert_array_equal(stack, kept)

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stack"])
    def test_filter_step_takes_the_same_verdict(self, monkeypatch, stacked):
        from locdecomp import estimator
        update_runs = estimator._update
        at, below = floor_matrices()
        model = CompositeModel(components=(body_offset(), map_rotation()))
        n_runs = 3 if stacked else 1
        for cov, expected in ((at, None), (below, eigvalsh_verdict(below))):
            def posterior_at(*args, _cov=cov):
                means, covs = update_runs(*args)
                covs = covs.copy()
                covs[-1] = _cov
                return means, covs

            monkeypatch.setattr(estimator, "_update", posterior_at)
            steps = filter_runs(model, make_config(3), np.zeros((n_runs, 1, 2)),
                                0.04 * np.eye(2)[None], [make_input(position=(5.0, 2.0))])
            if expected is None:
                _, covs = next(steps)
                np.testing.assert_array_equal(covs[-1], at)
            else:
                with pytest.raises(FilterStepError,
                                   match=f"^step 0: {re.escape(expected)}$"):
                    next(steps)


class TestUkfConfig:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            make_config(2, alpha=0.0)
        with pytest.raises(ValueError):
            make_config(2, alpha=1.5)

    @pytest.mark.parametrize("field, value", [
        ("beta", np.nan), ("beta", np.inf), ("kappa", np.nan), ("kappa", -np.inf),
        ("kappa", -5.0), ("kappa", -2.0)])
    def test_rejects_invalid_spread(self, field, value):
        # n = 2: kappa must exceed -2, so that n + lambda > 0
        with pytest.raises(ValueError, match=f"^{field} must"):
            make_config(2, **{field: value})

    @pytest.mark.parametrize("gate", [0.0, -3.0, np.nan, np.inf])
    def test_rejects_meaningless_mahalanobis_gate(self, gate):
        # 0 would skip every update, -3 act as 3, and nan or inf as no gate
        with pytest.raises(ValueError, match="^mahalanobis_gate must be None or a "
                                             "finite value above 0"):
            make_config(2, mahalanobis_gate=gate)

    def test_accepts_kappa_above_minus_n(self):
        cfg = make_config(2, kappa=-1.5)
        scale, wm, _ = _sigma_weights(2, cfg)
        assert scale > 0.0
        assert wm.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_weights_sum_to_one(self):
        for dim in (1, 2, 4, 6):
            _, wm, _ = _sigma_weights(dim, make_config(dim))
            assert wm.sum() == pytest.approx(1.0, abs=1e-12)


class TestSigmaPoints:
    def test_scalar_closed_form(self):
        # for n=1 the non-central points sit at +/- sqrt(1 + lambda) * sigma
        cfg = make_config(1, p0=1.0)
        points, _, _ = sigma_points(cfg)
        lam = cfg.alpha ** 2 * (1 + cfg.kappa) - 1
        expected = np.sqrt(1 + lam)
        np.testing.assert_allclose(sorted(points.ravel()),
                                   [-expected, 0.0, expected], atol=1e-12)

    def test_weighted_mean_is_exact(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 3, 4, 5, 6):
            mean = rng.normal(size=dim) * 10.0
            points, wm, _ = sigma_points(initial_state(mean, random_psd(rng, dim, 4.0)))
            np.testing.assert_allclose(wm @ points, mean,
                                       rtol=1e-12, atol=1e-12)

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = rng.integers(1, 7)
            mean = rng.normal(size=dim)
            cov = random_psd(rng, dim, scale=float(rng.uniform(0.1, 20.0)))
            points, _, wc = sigma_points(initial_state(mean, cov))
            diffs = points - mean
            recon = (wc[:, None] * diffs).T @ diffs
            np.testing.assert_allclose(recon, cov, rtol=1e-9, atol=1e-9)

    def test_zero_covariance_collapses_to_mean(self):
        points, _, _ = sigma_points(initial_state([1.0, -2.0], np.zeros((2, 2))))
        np.testing.assert_allclose(points, np.tile([1.0, -2.0], (5, 1)))

    def test_stack_with_singular_member_roots_each_matrix(self):
        # the batched Cholesky fails on the singular member; every member
        # then gets the root it would get on its own
        rng = np.random.default_rng(7)
        stack = np.stack([random_psd(rng, 3), np.diag([2.0, 0.0, 1.0]),
                          np.zeros((3, 3))])
        roots = _covariance_sqrt(stack)
        for p, root in zip(stack, roots):
            np.testing.assert_array_equal(root, _covariance_sqrt(p))
            np.testing.assert_allclose(root @ root.T, p, atol=1e-8)

    @pytest.mark.parametrize("singular", [np.diag([2.0, 0.0, 1.0]), np.zeros((3, 3))])
    def test_singular_psd_root_is_exact(self, singular):
        # the root reproduces a semi-definite covariance alone and inside a
        # stack; a jittered Cholesky was off by 1e-9 * trace / n
        rng = np.random.default_rng(8)
        for p in (singular, np.stack([random_psd(rng, 3), singular])):
            root = _covariance_sqrt(p)
            np.testing.assert_allclose(root @ np.swapaxes(root, -1, -2), p,
                                       rtol=0.0, atol=1e-12)

    def test_indefinite_covariance_raises(self):
        indefinite = np.array([[1.0, 0.0], [0.0, -0.5]])
        for p in (indefinite, np.stack([np.eye(2), indefinite])):
            with pytest.raises(NotPSD, match="^covariance has negative eigenvalue -0.5$"):
                _covariance_sqrt(p)


class TestPredict:
    """The prediction adds the process noise to the covariance: seen in a
    filter step alone, and through steps whose updates the gate skips."""

    def test_zero_process_noise(self):
        model = CompositeModel(components=(body_offset(), map_translation(), map_rotation()))
        cfg = make_config(5, q=0.0, x0=[0.5, -0.2, 1.0, 2.0, 0.01])
        for prior in gated_priors(model, cfg, 2):
            np.testing.assert_array_equal(prior, cfg.initial_covariance)

    def test_adds_process_noise(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        cfg = make_config(4, q=0.1, p0=10.0)
        (prior,) = gated_priors(model, cfg, 1)
        np.testing.assert_array_equal(prior, np.eye(4) * 10.1)

    def test_repeated_predicts_accumulate(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.5, p0=1.0)
        priors = gated_priors(model, cfg, 7)
        for k, prior in enumerate(priors, start=1):
            np.testing.assert_allclose(prior, np.eye(2) * (1.0 + k * 0.5))

    def test_eigenvalues_never_decrease(self):
        rng = np.random.default_rng(3)
        models = {1: (map_rotation(),), 2: (map_translation(),),
                  3: (map_translation(), map_rotation()),
                  4: (body_offset(), map_translation()),
                  5: (body_offset(), map_translation(), map_rotation())}
        for _ in range(30):
            dim = int(rng.integers(1, 6))
            cov = random_psd(rng, dim)
            cfg = UkfConfig(process_noise=random_psd(rng, dim, 0.3),
                            initial_mean=rng.normal(size=dim), initial_covariance=cov)
            (prior,) = gated_priors(CompositeModel(components=models[dim]), cfg, 1)
            before = np.linalg.eigvalsh(cov)
            after = np.linalg.eigvalsh(prior)
            assert np.all(after >= before - 1e-10)


def linear_kalman_step(mean, cov, d, h, r, q):
    """Textbook linear Kalman filter step (oracle for the linear sub-case)."""
    cov = cov + q
    innov_cov = h @ cov @ h.T + r
    gain = cov @ h.T @ np.linalg.inv(innov_cov)
    mean = mean + gain @ (d - h @ mean)
    cov = (np.eye(mean.size) - gain @ h) @ cov
    return mean, cov


class TestUpdate:
    """The measurement update, through one- and multi-step filter calls."""

    def test_matches_linear_kf_on_translation_model(self):
        model = CompositeModel(components=(map_translation(),))
        rng = np.random.default_rng(4)
        cfg = make_config(2, q=0.1, p0=5.0)
        d, r = np.empty((20, 2)), np.empty((20, 2, 2))
        for k in range(20):
            d[k] = rng.normal(size=2) * 3.0
            r[k] = random_psd(rng, 2, 0.05)
        means, covs = filter_one(model, cfg, d, r, [make_input()] * 20)
        mean_kf = cfg.initial_mean.copy()
        cov_kf = cfg.initial_covariance.copy()
        for k in range(20):
            mean_kf, cov_kf = linear_kalman_step(mean_kf, cov_kf, d[k], np.eye(2), r[k],
                                                 cfg.process_noise)
            np.testing.assert_allclose(means[k], mean_kf, atol=1e-10)
            np.testing.assert_allclose(covs[k], cov_kf, atol=1e-10)

    def test_zero_innovation_keeps_mean(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        cfg = make_config(4, x0=[2.0, 1.0, 3.0, 2.0])
        u = make_input(angle=0.6)
        predicted = model.evaluate(cfg.initial_mean, u)
        (mean,), _ = filter_one(model, cfg, predicted[None], 0.04 * np.eye(2)[None], [u])
        np.testing.assert_allclose(mean, cfg.initial_mean, atol=1e-9)

    def test_dimension_mismatch(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(4)
        with pytest.raises(DimensionMismatch):
            filter_one(model, cfg, np.zeros((1, 2)), np.eye(2)[None], [make_input()])

    def test_posterior_psd_under_fuzz(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            cfg = UkfConfig(process_noise=random_psd(rng, 4, 0.05),
                            initial_mean=rng.normal(size=4) * 3.0,
                            initial_covariance=random_psd(rng, 4, 5.0))
            u = make_input(angle=rng.uniform(-np.pi, np.pi))
            d = rng.normal(size=2) * 5.0
            _, (cov,) = filter_one(model, cfg, d[None], random_psd(rng, 2, 0.1)[None], [u])
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-9 * max(np.trace(cov), 1.0)

    def test_mahalanobis_gate_skips_outliers(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=1.0, mahalanobis_gate=3.0)
        (mean,), (cov,) = filter_one(model, cfg, [[100.0, 100.0]], 0.01 * np.eye(2)[None],
                                     [make_input()])
        np.testing.assert_array_equal(mean, cfg.initial_mean)
        np.testing.assert_array_equal(cov, cfg.initial_covariance)


class TestInverse2x2:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_gain_and_whitened_innovation_match_solve(self, symmetric):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(500, 2, 2))
        s = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(2) if symmetric else a + 3.0 * np.eye(2)
        cross_cov_t = rng.normal(size=(500, 2, 5))
        innovation = rng.normal(size=(500, 2, 1))
        inv = _inverse_2x2(s)
        for rhs in (cross_cov_t, innovation):
            expected = np.linalg.solve(s, rhs)
            scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
            assert (np.abs(inv @ rhs - expected) / scale).max() <= 1e-14

    @pytest.mark.parametrize("s", [[[1.0, 1.0], [1.0, 1.0]], [[2.0, -4.0], [-1.0, 2.0]],
                                   np.zeros((2, 2))])
    def test_singular_matrix_raises(self, s):
        batch = np.stack([np.eye(2), s])
        with pytest.raises(NotPSD, match="^innovation covariance is singular$"):
            _inverse_2x2(batch)

    def test_singular_innovation_covariance_fails_the_update(self):
        # a collapsed covariance leaves S = R, which here is PSD but singular
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=0.0)
        with pytest.raises(FilterStepError,
                           match="^step 0: innovation covariance is singular$") as excinfo:
            filter_one(model, cfg, np.ones((1, 2)), np.ones((1, 2, 2)), [make_input()])
        assert isinstance(excinfo.value.__cause__, NotPSD)


class TestPairCrossCovariance:
    """The update's pair form of the cross covariance against the textbook
    sums over sigma-point deviations."""

    @pytest.mark.parametrize("deformation", [map_rotation, map_scale, map_shear])
    def test_matches_the_textbook_sums(self, deformation):
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           deformation(pivot=(3.0, -1.0))))
        n, n_runs = model.state_dim, 8
        rng = np.random.default_rng(21)
        spread = np.r_[np.ones(n - 1), 0.05]   # a small deformation parameter
        means = rng.normal(size=(n_runs, n)) * spread
        a = rng.normal(size=(n_runs, n, n))
        priors = spread[:, None] * (a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(n)) * spread
        positions = rng.normal(size=(n_runs, 2)) * 30.0
        r = random_psd(rng, 2, 0.05)
        cfg = make_config(n)
        d_random = rng.normal(size=(n_runs, 2))
        oracle = [textbook_update(means[k], priors[k], d_random[k], r,
                                  make_input(angle=0.7, position=positions[k]), model, cfg)
                  for k in range(n_runs)]
        predicted, s, cross, oracle_means, oracle_covs = map(np.array, zip(*oracle))
        # three copies of each run: with the differences predicted + S e_j,
        # j = 0, 1, the mean moves by P_xz S^-1 S e_j, the cross covariance's
        # column j; the third copy takes the random differences
        d = np.stack([predicted + s[:, :, 0], predicted + s[:, :, 1], d_random])
        u = make_input(angle=0.7, position=np.tile(positions, (3, 1)))
        post_means, post_covs = _update(
            np.tile(means, (3, 1)), np.tile(priors, (3, 1, 1)), d.reshape(-1, 2), r,
            u, model, cfg, _sigma_weights(n, cfg))
        moved = post_means.reshape(3, n_runs, n) - means
        assert relative_gap(np.stack(moved[:2], axis=-1), cross) <= 1e-12
        assert relative_gap(post_means[2 * n_runs:], oracle_means) <= 1e-12
        assert relative_gap(post_covs[2 * n_runs:], oracle_covs) <= 1e-12


class TestFilterRuns:
    def test_gate_applies_per_run(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=1.0, mahalanobis_gate=3.0)
        d = np.array([[[100.0, 100.0]], [[0.5, -0.5]]])   # runs x steps x 2
        r = 0.01 * np.eye(2)[None]
        (means, covs), = filter_runs(model, cfg, d, r, [make_input()])
        np.testing.assert_array_equal(means[0], cfg.initial_mean)
        np.testing.assert_array_equal(covs[0], cfg.initial_covariance)
        (alone_mean,), (alone_cov,) = filter_one(model, cfg, d[1], r, [make_input()])
        np.testing.assert_allclose(means[1], alone_mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(covs[1], alone_cov, rtol=0.0, atol=1e-12)

    def test_step_without_process_noise_equals_update(self):
        model = CompositeModel(components=(body_offset(), map_rotation(pivot=(3.0, -1.0))))
        rng = np.random.default_rng(11)
        cfg = UkfConfig(process_noise=np.zeros((3, 3)), initial_mean=rng.normal(size=3),
                        initial_covariance=random_psd(rng, 3))
        u = make_input(angle=0.7, position=(20.0, 5.0))
        d = rng.normal(size=(3, 1, 2))
        r = random_psd(rng, 2, 0.1)[None]
        (means, covs), = filter_runs(model, cfg, d, r, [u])
        for run in range(3):
            alone = _update(cfg.initial_mean[None], cfg.initial_covariance[None],
                            d[run], r[0], u, model, cfg, _sigma_weights(3, cfg))
            np.testing.assert_array_equal(means[run], alone[0][0])
            np.testing.assert_array_equal(covs[run], alone[1][0])

    def test_rejects_invalid_measurement_covariance(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2)
        r = np.array([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPSD):
            list(filter_runs(model, cfg, np.zeros((1, 2, 2)), r,
                             [make_input(), make_input()]))


    def test_rejects_differences_without_run_axis(self):
        model = CompositeModel(components=(map_translation(),))
        with pytest.raises(DimensionMismatch, match=r"d must have shape \(B, N, 2\)"):
            list(filter_runs(model, make_config(2), np.zeros((2, 2)),
                             np.tile(np.eye(2), (2, 1, 1)), [make_input()] * 2))

    def test_rejects_covariances_shorter_than_differences(self):
        model = CompositeModel(components=(map_translation(),))
        with pytest.raises(DimensionMismatch, match=r"r must have shape \(3, 2, 2\)"):
            list(filter_runs(model, make_config(2), np.zeros((1, 3, 2)),
                             np.tile(np.eye(2), (2, 1, 1)), [make_input()] * 3))

    @pytest.mark.parametrize("n_inputs", [2, 4])
    def test_rejects_input_count_mismatch(self, n_inputs):
        model = CompositeModel(components=(map_translation(),))
        with pytest.raises(DimensionMismatch, match=f"must hold 3 .* got {n_inputs}"):
            list(filter_runs(model, make_config(2), np.zeros((1, 3, 2)),
                             np.tile(np.eye(2), (3, 1, 1)), [make_input()] * n_inputs))

    def test_rejects_initial_state_of_another_dimension(self):
        # a 5-parameter model with a 4-dimensional initial state failed at step 0
        # inside the model, and an empty stream passed unchecked
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           map_rotation()))
        cfg = make_config(4)
        message = "initial state dimension 4 does not match model state dimension 5"
        with pytest.raises(DimensionMismatch, match=message):
            next(filter_runs(model, cfg, np.zeros((1, 0, 2)), np.zeros((0, 2, 2)), []))
        with pytest.raises(DimensionMismatch, match=message):
            next(filter_runs(model, cfg, np.zeros((1, 2, 2)),
                             np.tile(np.eye(2), (2, 1, 1)), [make_input()] * 2))

    def test_inputs_are_fetched_one_step_at_a_time(self):
        # building every step's input before step 0 held them all for the
        # whole pass, memory that grew with the steps
        class Counting(Sequence):
            def __init__(self, series):
                self.series, self.fetched = series, 0

            def __len__(self):
                return len(self.series)

            def __getitem__(self, k):
                self.fetched += 1
                return self.series[k]

        n = 6
        inputs = Counting(KinematicInput(t=np.arange(float(n)),
                                         heading=Heading(np.linspace(0.0, 1.0, n), np.zeros(n)),
                                         ref_position=np.zeros((n, 2))))
        model = CompositeModel(components=(body_offset(), map_translation()))
        steps = filter_runs(model, make_config(4), np.ones((2, n, 2)),
                            np.tile(0.04 * np.eye(2), (n, 1, 1)), inputs)
        for k, _ in enumerate(steps):
            assert inputs.fetched <= k + 1
        assert inputs.fetched == n

    def test_indefinite_prior_fails_its_step(self):
        # Q (set past validation) drives the second coordinate's prior
        # negative at step 1: the prior's Cholesky fails, and the full
        # check names the eigenvalue as it always did
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.1, p0=1.0)
        object.__setattr__(cfg, "process_noise", np.diag([0.1, -0.3]))
        d = np.zeros((2, 2, 2))
        r = np.tile(0.04 * np.eye(2), (2, 1, 1))
        steps = filter_runs(model, cfg, d, r, [make_input()] * 2)
        _, covs = next(steps)
        expected = eigvalsh_verdict(covs + cfg.process_noise)
        assert expected is not None
        with pytest.raises(FilterStepError) as excinfo:
            next(steps)
        assert excinfo.value.step == 1
        assert str(excinfo.value) == f"step 1: {expected}"
        assert isinstance(excinfo.value.__cause__, NotPSD)

    @pytest.mark.parametrize("mean, cov, message", [
        (None, np.diag([1.0, -0.5]), "covariance has negative eigenvalue -0.5"),
        (None, np.diag([1.0, np.nan]), "covariance must be finite"),
        (np.array([0.0, np.inf]), None, "mean must be finite")],
        ids=["indefinite_cov", "nan_cov", "inf_mean"])
    def test_invalid_posterior_fails_its_step(self, monkeypatch, mean, cov, message):
        # each posterior is checked in the step that forms it
        from locdecomp import estimator
        update_runs = estimator._update

        def corrupted(*args):
            means, covs = update_runs(*args)
            return (means if mean is None else np.broadcast_to(mean, means.shape),
                    covs if cov is None else np.broadcast_to(cov, covs.shape))

        monkeypatch.setattr(estimator, "_update", corrupted)
        model = CompositeModel(components=(map_translation(),))
        steps = filter_runs(model, make_config(2), np.zeros((1, 1, 2)),
                            0.04 * np.eye(2)[None], [make_input()])
        with pytest.raises(FilterStepError, match=f"^step 0: {message}$"):
            next(steps)


class TestRunFilter:
    """One run, a batch of one, through ``filter_runs``."""

    def test_empty_stream_returns_initial_only(self):
        # no step: the initial mean stays the only estimate
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2)
        assert list(filter_runs(model, cfg, np.zeros((1, 0, 2)), np.zeros((0, 2, 2)),
                                [])) == []

    def test_single_observation_moves_toward_difference(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=10.0)
        means, _ = filter_one(model, cfg, [[3.0, 2.0]], 0.04 * np.eye(2)[None],
                              [make_input()])
        assert len(means) == 1
        gain = 10.0 / (10.0 + 0.04)
        np.testing.assert_allclose(means[0], gain * np.array([3.0, 2.0]), rtol=1e-9)

    def test_matches_linear_kf_over_sequence(self):
        model = CompositeModel(components=(map_translation(),))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cfg = make_config(2, q=0.1, p0=10.0)
            d, r = np.empty((100, 2)), np.empty((100, 2, 2))
            for k in range(100):
                d[k] = rng.normal(size=2) * 4.0
                r[k] = np.diag(rng.uniform(0.01, 0.2, 2))
            means, covs = filter_one(model, cfg, d, r,
                                     [make_input(t=float(k)) for k in range(100)])
            mean = cfg.initial_mean.copy()
            cov = cfg.initial_covariance.copy()
            for k in range(100):
                mean, cov = linear_kalman_step(mean, cov, d[k], np.eye(2), r[k],
                                               cfg.process_noise)
                np.testing.assert_allclose(means[k], mean, atol=1e-8)
                np.testing.assert_allclose(covs[k], cov, atol=1e-8)

    def test_step_errors_carry_index(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2)
        d = np.zeros((3, 2))
        d[2, 0] = np.nan
        with pytest.raises(FilterStepError) as excinfo:
            filter_one(model, cfg, d, np.tile(np.eye(2), (3, 1, 1)), [make_input()] * 3)
        assert excinfo.value.step == 2

    def test_noiseless_corner_replay_recovers_injected_offsets(self):
        # a single 90-degree sweep leaves a residual split in whichever
        # direction goes unobserved last; the five-turn segment re-excites
        # every direction and pins all four parameters
        from locdecomp.simulation import synthesize_trajectory
        model = CompositeModel(components=(body_offset(), map_translation()))
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = make_config(4, q=0.1, p0=10.0)
        inputs = synthesize_trajectory("corner", 200)
        means, _ = filter_one(model, cfg, model.evaluate(true, inputs),
                              np.tile(0.04 * np.eye(2), (200, 1, 1)), inputs)
        np.testing.assert_allclose(means[-1], true, atol=0.01)

    def test_noiseless_error_shrinks_on_turning_segment(self):
        # generated from the model itself: final error must beat the initial
        # guess in nearly every randomized draw
        model = CompositeModel(components=(body_offset(), map_translation()))
        rng = np.random.default_rng(6)
        angles = np.concatenate([np.zeros(5), np.linspace(0.0, np.pi / 2, 20),
                                 np.full(5, np.pi / 2)])
        wins = 0
        for _ in range(100):
            true = rng.normal(size=4) * 3.0
            cfg = make_config(4, q=0.1, p0=10.0)
            inputs = [make_input(angle=float(ang), t=float(k))
                      for k, ang in enumerate(angles)]
            d = np.array([model.evaluate(true, u) for u in inputs])
            means, _ = filter_one(model, cfg, d, np.tile(0.04 * np.eye(2), (len(d), 1, 1)),
                                  inputs)
            initial_error = np.linalg.norm(cfg.initial_mean - true)
            final_error = np.linalg.norm(means[-1] - true)
            wins += final_error < initial_error
        assert wins >= 95
