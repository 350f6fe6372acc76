import numpy as np
import pytest

from locdecomp.error_models import (CompositeModel, KinematicInput, body_offset,
                                    map_translation)
from locdecomp.estimator import (PSD_TOL, DifferenceObservation, GaussianBelief,
                                 UkfConfig, _check_covariance, _covariance_sqrt,
                                 compose_measurement_covariance, filter_runs,
                                 generate_sigma_points, predict, run_filter, update)
from locdecomp.exceptions import (CholeskyFailure, DimensionMismatch,
                                  FilterStepError, NotPSD)
from locdecomp.frames import Heading


def make_input(angle=0.0, rate=0.0, position=(0.0, 0.0), t=0.0):
    return KinematicInput(t=t, heading=Heading(angle=angle, rate=rate),
                          ref_position=np.asarray(position, dtype=float))


def make_config(dim, q=0.1, p0=10.0, x0=None, **kwargs):
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    return UkfConfig(process_noise=q * np.eye(dim),
                     initial_belief=GaussianBelief(x0, p0 * np.eye(dim)),
                     **kwargs)


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


NON_FINITE = [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
              np.array([[np.nan, 0.0], [0.0, 1.0]])]


class TestGaussianBelief:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotPSD):
            GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPSD):
            GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianBelief(np.zeros(3), np.eye(2))


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

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_is_rejected_at_every_boundary(self, bad):
        with pytest.raises(NotPSD, match="^covariance must be finite$"):
            GaussianBelief(np.zeros(2), bad)
        with pytest.raises(NotPSD, match="^process_noise must be finite$"):
            UkfConfig(process_noise=bad,
                      initial_belief=GaussianBelief(np.zeros(2), np.eye(2)))
        with pytest.raises(NotPSD, match="^R must be finite$"):
            DifferenceObservation(d=np.zeros(2), R=bad)
        with pytest.raises(NotPSD, match="^cov_ref must be finite$"):
            compose_measurement_covariance(bad, np.eye(2))
        with pytest.raises(NotPSD, match="^cov_other must be finite$"):
            compose_measurement_covariance(np.eye(2), bad)


class TestUkfConfig:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            make_config(2, alpha=0.0)
        with pytest.raises(ValueError):
            make_config(2, alpha=1.5)

    def test_mean_weights_sum_to_one(self):
        for dim in (1, 2, 4, 6):
            cfg = make_config(dim)
            sp = generate_sigma_points(cfg.initial_belief, cfg)
            assert sp.mean_weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestComposeMeasurementCovariance:
    def test_zero_plus_nonzero(self):
        out = compose_measurement_covariance(np.diag([0.04, 0.04]), np.zeros((2, 2)))
        np.testing.assert_allclose(out, np.diag([0.04, 0.04]))

    def test_equal_split_recovers_total(self):
        # two localizers at variance 0.02 each give the 0.04 total
        out = compose_measurement_covariance(np.diag([0.02, 0.02]),
                                             np.diag([0.02, 0.02]))
        np.testing.assert_allclose(out, np.diag([0.04, 0.04]))

    def test_commutative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_psd(rng, 2), random_psd(rng, 2)
            np.testing.assert_allclose(compose_measurement_covariance(a, b),
                                       compose_measurement_covariance(b, a))

    def test_rejects_non_psd_input(self):
        with pytest.raises(NotPSD):
            compose_measurement_covariance(np.diag([-1.0, 1.0]), np.eye(2))


class TestSigmaPoints:
    def test_scalar_closed_form(self):
        # for n=1 the non-central points sit at +/- sqrt(1 + lambda) * sigma
        cfg = make_config(1, p0=1.0)
        sp = generate_sigma_points(cfg.initial_belief, cfg)
        lam = cfg.alpha ** 2 * (1 + cfg.kappa) - 1
        expected = np.sqrt(1 + lam)
        np.testing.assert_allclose(sorted(sp.points.ravel()),
                                   [-expected, 0.0, expected], atol=1e-12)

    def test_weighted_mean_is_exact(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 3, 4, 5, 6):
            mean = rng.normal(size=dim) * 10.0
            belief = GaussianBelief(mean, random_psd(rng, dim, 4.0))
            cfg = UkfConfig(process_noise=np.eye(dim), initial_belief=belief)
            sp = generate_sigma_points(belief, cfg)
            np.testing.assert_allclose(sp.mean_weights @ sp.points, mean,
                                       rtol=1e-12, atol=1e-12)

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = rng.integers(1, 7)
            mean = rng.normal(size=dim)
            cov = random_psd(rng, dim, scale=float(rng.uniform(0.1, 20.0)))
            belief = GaussianBelief(mean, cov)
            cfg = UkfConfig(process_noise=np.eye(dim), initial_belief=belief)
            sp = generate_sigma_points(belief, cfg)
            diffs = sp.points - mean
            recon = (sp.cov_weights[:, None] * diffs).T @ diffs
            np.testing.assert_allclose(recon, cov, rtol=1e-9, atol=1e-9)

    def test_zero_covariance_collapses_to_mean(self):
        belief = GaussianBelief(np.array([1.0, -2.0]), np.zeros((2, 2)))
        cfg = UkfConfig(process_noise=np.eye(2), initial_belief=belief)
        sp = generate_sigma_points(belief, cfg)
        np.testing.assert_allclose(sp.points, np.tile(belief.mean, (5, 1)))

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

    def test_indefinite_covariance_raises(self):
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        belief.covariance = np.array([[1.0, 0.0], [0.0, -0.5]])  # bypass validation
        cfg = make_config(2)
        with pytest.raises(CholeskyFailure):
            generate_sigma_points(belief, cfg)


class TestPredict:
    def test_zero_process_noise(self):
        cfg = make_config(3, q=0.0)
        out = predict(cfg.initial_belief, cfg)
        np.testing.assert_allclose(out.mean, cfg.initial_belief.mean)
        np.testing.assert_allclose(out.covariance, cfg.initial_belief.covariance)

    def test_adds_process_noise(self):
        cfg = make_config(4, q=0.1, p0=10.0)
        out = predict(cfg.initial_belief, cfg)
        np.testing.assert_allclose(out.covariance, np.eye(4) * 10.1)
        np.testing.assert_allclose(out.mean, np.zeros(4))

    def test_repeated_predicts_accumulate(self):
        cfg = make_config(2, q=0.5, p0=1.0)
        belief = cfg.initial_belief
        for _ in range(7):
            belief = predict(belief, cfg)
        np.testing.assert_allclose(belief.covariance, np.eye(2) * (1.0 + 7 * 0.5))

    def test_eigenvalues_never_decrease(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = rng.integers(1, 6)
            cov = random_psd(rng, dim)
            q = random_psd(rng, dim, 0.3)
            belief = GaussianBelief(rng.normal(size=dim), cov)
            cfg = UkfConfig(process_noise=q, initial_belief=belief)
            before = np.linalg.eigvalsh(cov)
            after = np.linalg.eigvalsh(predict(belief, cfg).covariance)
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
    def test_matches_linear_kf_on_translation_model(self):
        model = CompositeModel(components=(map_translation(),))
        rng = np.random.default_rng(4)
        cfg = make_config(2, q=0.1, p0=5.0)
        belief = cfg.initial_belief
        mean_kf = belief.mean.copy()
        cov_kf = belief.covariance.copy()
        h = np.eye(2)
        for _ in range(20):
            d = rng.normal(size=2) * 3.0
            r = random_psd(rng, 2, 0.05)
            obs = DifferenceObservation(d=d, R=r)
            belief = update(predict(belief, cfg), obs, make_input(), model, cfg)
            mean_kf, cov_kf = linear_kalman_step(mean_kf, cov_kf, d, h, r,
                                                 cfg.process_noise)
            np.testing.assert_allclose(belief.mean, mean_kf, atol=1e-10)
            np.testing.assert_allclose(belief.covariance, cov_kf, atol=1e-10)

    def test_zero_innovation_keeps_mean(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        cfg = make_config(4, x0=[2.0, 1.0, 3.0, 2.0])
        u = make_input(angle=0.6)
        predicted = model.evaluate(cfg.initial_belief.mean, u)
        obs = DifferenceObservation(d=predicted, R=0.04 * np.eye(2))
        out = update(cfg.initial_belief, obs, u, model, cfg)
        np.testing.assert_allclose(out.mean, cfg.initial_belief.mean, atol=1e-9)

    def test_dimension_mismatch(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(4)
        obs = DifferenceObservation(d=np.zeros(2), R=np.eye(2))
        with pytest.raises(DimensionMismatch):
            update(cfg.initial_belief, obs, make_input(), model, cfg)

    def test_posterior_psd_under_fuzz(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            belief = GaussianBelief(rng.normal(size=4) * 3.0, random_psd(rng, 4, 5.0))
            cfg = UkfConfig(process_noise=random_psd(rng, 4, 0.05),
                            initial_belief=belief)
            u = make_input(angle=rng.uniform(-np.pi, np.pi))
            obs = DifferenceObservation(d=rng.normal(size=2) * 5.0,
                                        R=random_psd(rng, 2, 0.1))
            posterior = update(predict(belief, cfg), obs, u, model, cfg)
            eigvals = np.linalg.eigvalsh(posterior.covariance)
            assert eigvals.min() >= -1e-9 * max(np.trace(posterior.covariance), 1.0)

    def test_mahalanobis_gate_skips_outliers(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=1.0, mahalanobis_gate=3.0)
        obs = DifferenceObservation(d=np.array([100.0, 100.0]), R=0.01 * np.eye(2))
        out = update(cfg.initial_belief, obs, make_input(), model, cfg)
        np.testing.assert_allclose(out.mean, cfg.initial_belief.mean)


class TestFilterRuns:
    def test_gate_applies_per_run(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=1.0, mahalanobis_gate=3.0)
        d = np.array([[[100.0, 100.0]], [[0.5, -0.5]]])   # runs x steps x 2
        r = 0.01 * np.eye(2)[None]
        (means, covs), = filter_runs(model, cfg, d, r, [make_input()])
        np.testing.assert_array_equal(means[0], cfg.initial_belief.mean)
        np.testing.assert_array_equal(covs[0], cfg.initial_belief.covariance)
        alone = run_filter(model, cfg, [(DifferenceObservation(d=d[1, 0], R=r[0]),
                                         make_input())])[1]
        np.testing.assert_allclose(means[1], alone.mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(covs[1], alone.covariance, rtol=0.0, atol=1e-12)

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
        with pytest.raises(DimensionMismatch, match=f"must yield 3 .* got {n_inputs}"):
            list(filter_runs(model, make_config(2), np.zeros((1, 3, 2)),
                             np.tile(np.eye(2), (3, 1, 1)),
                             (make_input() for _ in range(n_inputs))))

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


class TestRunFilter:
    def test_empty_stream_returns_initial_only(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2)
        beliefs = run_filter(model, cfg, [])
        assert len(beliefs) == 1
        assert beliefs[0] is cfg.initial_belief

    def test_single_observation_moves_toward_difference(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2, q=0.0, p0=10.0)
        obs = DifferenceObservation(d=np.array([3.0, 2.0]), R=0.04 * np.eye(2))
        beliefs = run_filter(model, cfg, [(obs, make_input())])
        assert len(beliefs) == 2
        gain = 10.0 / (10.0 + 0.04)
        np.testing.assert_allclose(beliefs[1].mean, gain * np.array([3.0, 2.0]),
                                   rtol=1e-9)

    def test_matches_linear_kf_over_sequence(self):
        model = CompositeModel(components=(map_translation(),))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cfg = make_config(2, q=0.1, p0=10.0)
            stream = []
            for k in range(100):
                obs = DifferenceObservation(d=rng.normal(size=2) * 4.0,
                                            R=np.diag(rng.uniform(0.01, 0.2, 2)))
                stream.append((obs, make_input(t=float(k))))
            beliefs = run_filter(model, cfg, stream)
            mean = cfg.initial_belief.mean.copy()
            cov = cfg.initial_belief.covariance.copy()
            for (obs, _), belief in zip(stream, beliefs[1:]):
                mean, cov = linear_kalman_step(mean, cov, obs.d, np.eye(2), obs.R,
                                               cfg.process_noise)
                np.testing.assert_allclose(belief.mean, mean, atol=1e-8)
                np.testing.assert_allclose(belief.covariance, cov, atol=1e-8)

    def test_step_errors_carry_index(self):
        model = CompositeModel(components=(map_translation(),))
        cfg = make_config(2)
        good = (DifferenceObservation(d=np.zeros(2), R=np.eye(2)), make_input())
        bad_obs = DifferenceObservation(d=np.zeros(2), R=np.eye(2))
        object.__setattr__(bad_obs, "d", np.array([np.nan, 0.0]))
        with pytest.raises(FilterStepError) as excinfo:
            run_filter(model, cfg, [good, good, (bad_obs, make_input())])
        assert excinfo.value.step == 2

    def test_noiseless_corner_replay_recovers_injected_offsets(self):
        # a single 90-degree sweep leaves a residual split in whichever
        # direction goes unobserved last; the five-turn segment re-excites
        # every direction and pins all four parameters
        from locdecomp.simulation import synthesize_trajectory, to_kinematic_inputs
        model = CompositeModel(components=(body_offset(), map_translation()))
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = make_config(4, q=0.1, p0=10.0)
        stream = [(DifferenceObservation(d=model.evaluate(true, u),
                                         R=0.04 * np.eye(2)), u)
                  for u in to_kinematic_inputs(synthesize_trajectory("corner", 200))]
        beliefs = run_filter(model, cfg, stream)
        np.testing.assert_allclose(beliefs[-1].mean, true, atol=0.01)

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
            stream = []
            for k, ang in enumerate(angles):
                u = make_input(angle=float(ang), t=float(k))
                obs = DifferenceObservation(d=model.evaluate(true, u),
                                            R=0.04 * np.eye(2))
                stream.append((obs, u))
            beliefs = run_filter(model, cfg, stream)
            initial_error = np.linalg.norm(cfg.initial_belief.mean - true)
            final_error = np.linalg.norm(beliefs[-1].mean - true)
            wins += final_error < initial_error
        assert wins >= 95
