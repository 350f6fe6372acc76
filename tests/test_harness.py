import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from locdecomp import harness
from locdecomp.cli import main as cli_main
from locdecomp.error_models import (CompositeModel, ErrorComponent, KinematicInput,
                                    body_offset, map_rotation, map_scale,
                                    map_shear, map_translation)
from locdecomp.estimator import UkfConfig, filter_runs
from locdecomp.exceptions import (ConfigError, ExperimentRunError, FilterStepError,
                                  NotPSD)
from locdecomp.frames import Heading
from locdecomp.harness import (ExperimentConfig, FileTrajectory, MseSeries,
                               SyntheticTrajectory, build_trajectory,
                               derive_run_seed, emit_results, load_config,
                               parse_config, run_experiment, _estimate_runs)
from locdecomp.observability import numerical_rank_test
from locdecomp.simulation import InjectionConfig, inject_runs

ROOT = Path(__file__).resolve().parents[1]
BODY_MAP = CompositeModel(components=(body_offset(), map_translation()))


def small_config(n_runs=5, seed=99, n_samples=40, noise=0.2, kind="corner",
                 heading=0.0, model=BODY_MAP, true_params=(2.0, 1.0, 3.0, 2.0),
                 q=0.1, p0=10.0):
    dim = model.state_dim
    eye = np.eye(dim)
    return ExperimentConfig(
        trajectory=SyntheticTrajectory(kind=kind, n_samples=n_samples,
                                       initial_heading=heading),
        model=model,
        injection=InjectionConfig.with_total_sigma(list(true_params), noise,
                                                   rng_seed=seed),
        ukf=UkfConfig(process_noise=eye * q, initial_mean=np.zeros(dim),
                      initial_covariance=eye * p0),
        n_runs=n_runs,
    )


def per_run_estimates(cfg, runs=None):
    """Reference: each run simulated and filtered on its own, a batch of one
    for ``inject_runs`` and then for ``filter_runs``."""
    trajectory = build_trajectory(cfg.trajectory)
    out = []
    for run in range(cfg.n_runs) if runs is None else runs:
        seed = derive_run_seed(cfg.injection.rng_seed, run)
        inputs, p_other, r = inject_runs(trajectory, cfg.injection, cfg.model, [seed])
        out.append([means[0] for means, _ in filter_runs(
            cfg.model, cfg.ukf, inputs.ref_position - p_other, r, inputs)])
    return np.array(out)


def batched_estimates(cfg, runs=None):
    runs = range(cfg.n_runs) if runs is None else runs
    return np.stack(list(_estimate_runs(build_trajectory(cfg.trajectory), cfg, runs)),
                    axis=1)


def corner_centroid(n_samples):
    trajectory = build_trajectory(SyntheticTrajectory(kind="corner", n_samples=n_samples))
    return trajectory.ref_position.mean(axis=0)


class TestRunExperiment:
    def test_series_shape_matches_trajectory(self):
        series = run_experiment(small_config())
        assert series.n_steps == 40
        assert series.state_dim == 4
        assert series.mse.shape == series.mean.shape == series.variance.shape

    def test_initial_mse_is_squared_initial_error(self):
        series = run_experiment(small_config())
        np.testing.assert_allclose(series.initial_mse, [4.0, 1.0, 9.0, 4.0])

    def test_mse_decomposes_into_bias_and_variance(self):
        series = run_experiment(small_config(n_runs=20))
        bias_sq = (series.mean - series.true_params) ** 2
        np.testing.assert_allclose(series.mse, bias_sq + series.variance,
                                   atol=1e-9)

    def test_single_noiseless_run_mse_is_squared_error(self):
        cfg = small_config(n_runs=1, noise=0.0)
        series = run_experiment(cfg)
        estimates = per_run_estimates(cfg)[0]
        np.testing.assert_allclose(series.mse,
                                   (estimates - cfg.injection.true_params) ** 2,
                                   atol=1e-12)
        np.testing.assert_allclose(series.variance, 0.0, atol=1e-12)

    def test_reproducible_across_calls(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        np.testing.assert_array_equal(a.mse, b.mse)
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_runs_depend_only_on_their_index(self):
        five = batched_estimates(small_config(n_runs=5))
        three = batched_estimates(small_config(n_runs=3))
        np.testing.assert_allclose(five[:3], three, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(batched_estimates(small_config(), runs=[2, 0]),
                                   five[[2, 0]], rtol=0.0, atol=1e-12)

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_run_seed(1234, r) for r in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [derive_run_seed(1234, r) for r in range(50)]


class TestBatchedEquivalence:
    """The batched experiment path against each run filtered on its own."""

    @pytest.mark.parametrize("case", ["body_map_corner", "body_map_straight",
                                      "body_map_rotation_corner"])
    def test_every_run_matches_per_run_filter(self, case):
        if case == "body_map_corner":
            cfg = small_config(n_runs=6)
        elif case == "body_map_straight":
            cfg = small_config(n_runs=6, kind="straight", n_samples=30,
                               heading=np.pi)
        else:
            # the map rotation reads the per-run reference positions, which
            # broadcast against every run's sigma points
            model = CompositeModel(components=(
                body_offset(), map_translation(),
                map_rotation(pivot=corner_centroid(60))))
            cfg = small_config(n_runs=6, n_samples=60, model=model,
                               true_params=(2.0, 1.0, 3.0, 2.0, 0.02),
                               q=[0.1, 0.1, 0.1, 0.1, 1e-4],
                               p0=[10.0, 10.0, 10.0, 10.0, 0.01])
        reference = per_run_estimates(cfg)
        np.testing.assert_allclose(batched_estimates(cfg), reference,
                                   rtol=0.0, atol=1e-12)
        series = run_experiment(cfg)
        truth = cfg.injection.true_params
        np.testing.assert_allclose(series.mean, reference.mean(axis=0),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(series.mse,
                                   ((reference - truth) ** 2).mean(axis=0),
                                   rtol=0.0, atol=1e-12)

    def test_corner_batch_rows_equal_runs_filtered_alone(self):
        # a run's posterior is the same alone and as one row of 100, bit for
        # bit; a 2-d product over the sigma axis of the whole batch would
        # round each run by its place in it
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           map_rotation(pivot=corner_centroid(200))))
        cfg = small_config(n_runs=100, n_samples=200, model=model,
                           true_params=(2.0, 1.0, 3.0, 2.0, 0.02),
                           q=[0.1, 0.1, 0.1, 0.1, 1e-4],
                           p0=[10.0, 10.0, 10.0, 10.0, 0.01])
        trajectory = build_trajectory(cfg.trajectory)
        seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in range(cfg.n_runs)]

        def filtered(seeds):
            inputs, p_other, r = inject_runs(trajectory, cfg.injection, model, seeds)
            steps = list(filter_runs(model, cfg.ukf, inputs.ref_position - p_other, r,
                                     inputs))
            return np.stack([m for m, _ in steps]), np.stack([c for _, c in steps])

        means, covs = filtered(seeds)
        for run in (0, 17, 99):
            alone_means, alone_covs = filtered([seeds[run]])
            np.testing.assert_array_equal(alone_means[:, 0], means[:, run])
            np.testing.assert_array_equal(alone_covs[:, 0], covs[:, run])

    def test_semi_definite_covariance_takes_tolerant_root(self):
        # a zero initial variance that Q never inflates keeps every run's
        # covariance singular, so the batched Cholesky fails each step and
        # the runs fall back to the per-matrix eigendecomposition root
        cfg = small_config(n_runs=4, q=[0.1, 0.1, 0.1, 0.0],
                           p0=[10.0, 10.0, 10.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cfg.ukf.initial_covariance + cfg.ukf.process_noise)
        np.testing.assert_allclose(batched_estimates(cfg), per_run_estimates(cfg),
                                   rtol=0.0, atol=1e-12)

    @staticmethod
    def assert_matches_golden(name):
        """The shipped config's series equals the benchmark's stored golden
        to 1e-12, relative to max(|golden|, 1)."""
        series = run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
        golden = np.load(ROOT / "bench" / "golden" / name / "series.npz")
        for field in ("mse", "mean", "variance"):
            expected = golden[field]
            deviation = np.abs(getattr(series, field) - expected) \
                / np.maximum(np.abs(expected), 1.0)
            assert deviation.max() <= 1e-12, field

    def test_matches_shipped_corner_golden(self):
        self.assert_matches_golden("corner")

    def test_matches_shipped_straight_golden(self):
        self.assert_matches_golden("straight")


class TestBlockedMoments:
    def test_series_do_not_depend_on_the_block_size(self, monkeypatch):
        cfg = small_config(n_runs=6)
        n_steps = cfg.trajectory.n_samples
        series = []
        for block_steps in (1, 7, n_steps, n_steps + 5):
            monkeypatch.setattr(harness, "_BLOCK_STEPS", block_steps)
            series.append(run_experiment(cfg))
        for other in series[1:]:
            for field in ("mse", "mean", "variance"):
                assert np.array_equal(getattr(other, field), getattr(series[0], field))

    def test_memory_grows_only_with_the_injected_series(self):
        # the moments were taken on a (runs, steps, dim) stack of estimates,
        # and two more of its size held the errors and their squares
        raw = json.loads((ROOT / "configs" / "corner.json").read_text())
        raw["runs"] = 50
        peaks = []
        for n_samples in (200, 800):
            raw["trajectory"]["n_samples"] = n_samples
            cfg = parse_config(raw)
            run_experiment(cfg)     # lazy imports are not the experiment's memory
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the reference positions and the differences, (runs, samples, 2) each
        injected = 600 * raw["runs"] * 2 * 2 * 8
        assert peaks[1] - peaks[0] < 2 * injected


def test_shipped_corner_filter_pass_takes_no_eigenvalues(monkeypatch):
    # every step checks its covariances with the Cholesky factorizations:
    # one of the priors (their sigma-point roots) and one of the posteriors,
    # plus one of all measurement covariances at the boundary
    cfg = load_config(ROOT / "configs" / "corner.json")
    trajectory = build_trajectory(cfg.trajectory)
    shapes = {"cholesky": [], "eigvalsh": [], "eigh": [], "solve": []}
    for name, seen in shapes.items():
        def counted(a, *args, _original=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    np.stack(list(_estimate_runs(trajectory, cfg, range(cfg.n_runs))), axis=1)
    n_steps, dim = len(trajectory), cfg.model.state_dim
    assert shapes["eigvalsh"] == [] and shapes["eigh"] == [] and shapes["solve"] == []
    assert len(shapes["cholesky"]) <= 2 * n_steps + 1
    assert set(shapes["cholesky"]) == {(n_steps, 2, 2), (cfg.n_runs, dim, dim)}


def test_shipped_corner_filter_pass_validates_no_sample(monkeypatch):
    # the series is validated once, where it is built; the per-step
    # samples the filter reads are views of its arrays
    cfg = load_config(ROOT / "configs" / "corner.json")
    trajectory = build_trajectory(cfg.trajectory)
    seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in range(cfg.n_runs)]
    inputs, p_other, r = inject_runs(trajectory, cfg.injection, cfg.model, seeds)
    built = []
    for cls in (Heading, KinematicInput):
        def counted(self, _original=cls.__post_init__):
            built.append(type(self).__name__)
            _original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    passes = list(filter_runs(cfg.model, cfg.ukf, inputs.ref_position - p_other, r,
                              inputs))
    assert len(passes) == len(trajectory) == 200 and cfg.n_runs == 100
    assert built == []


def test_observe_config_builds_no_per_sample_objects(monkeypatch, capsys):
    # a trajectory is one series: loading, building, injecting and ranking
    # it construct a fixed number of Heading objects, not one per sample
    built = []
    original = Heading.__post_init__

    def counted(self):
        built.append(np.shape(self.angle))
        original(self)

    monkeypatch.setattr(Heading, "__post_init__", counted)
    path = ROOT / "bench" / "configs" / "observe.json"
    cfg = load_config(path)
    trajectory = build_trajectory(cfg.trajectory)
    inject_runs(trajectory, cfg.injection, cfg.model,
                [derive_run_seed(cfg.injection.rng_seed, r) for r in range(3)])
    numerical_rank_test(cfg.model, cfg.ukf.initial_mean, trajectory)
    assert cli_main(["observability", "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(trajectory) == 1000
    # one per trajectory build: load_config, build_trajectory, and the CLI's two
    assert built == [(1000,)] * 4


def tripwire(threshold):
    """Component that contributes nothing but fails inside the filter once
    a run's reference position strays above ``threshold`` in north."""
    def fn(params, u):
        if params.ndim > 1 and np.any(u.ref_position[..., 1] > threshold):
            raise FloatingPointError("tripwire")
        return np.zeros(params.shape[:-1] + (2,))

    return ErrorComponent(name="tripwire", param_dim=1,
                          depends_on=frozenset({"ref_position"}), fn=fn)


class TestExperimentErrors:
    def test_failure_names_lowest_failing_run_and_step(self):
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           tripwire(1.5)))
        cfg = small_config(n_runs=6, seed=7, noise=1.0, kind="straight",
                           model=model, true_params=(2.0, 1.0, 3.0, 2.0, 0.0))
        failures = {}
        for r in range(cfg.n_runs):
            try:
                per_run_estimates(cfg, runs=[r])
            except FilterStepError as exc:
                failures[r] = exc.step
        lowest = min(failures)
        # another run fails at an earlier step, so the batch first stops
        # on a run that is not the one to report
        assert min(failures.values()) < failures[lowest]
        with pytest.raises(ExperimentRunError) as excinfo:
            run_experiment(cfg)
        assert excinfo.value.run == lowest
        cause = excinfo.value.__cause__
        assert isinstance(cause, FilterStepError)
        assert cause.step == failures[lowest]
        assert isinstance(cause.__cause__, FloatingPointError)


class TestMseSeriesConvergence:
    def test_flag_definition(self):
        series = MseSeries(mse=np.array([[0.5, 0.5], [0.05, 0.2]]),
                           mean=np.zeros((2, 2)), variance=np.zeros((2, 2)),
                           true_params=np.zeros(2), initial_mse=np.ones(2),
                           n_runs=1)
        np.testing.assert_array_equal(series.converged(0.1), [True, False])


class TestEmitResults:
    def test_table_dimensions(self, tmp_path):
        cfg = small_config(n_samples=200)
        series = run_experiment(cfg)
        table, summary = emit_results(series, tmp_path / "out")
        lines = table.read_text().strip().split("\n")
        assert len(lines) == 201  # header + one row per step
        assert lines[0] == ("step,mse_x1,mse_x2,mse_x3,mse_x4,"
                            "mean_x1,mean_x2,mean_x3,mean_x4")
        assert all(len(line.split(",")) == 9 for line in lines)
        assert "final_mse" in summary.read_text()

    def test_byte_identical_for_equal_configs(self, tmp_path):
        emit_results(run_experiment(small_config()), tmp_path / "a")
        emit_results(run_experiment(small_config()), tmp_path / "b")
        assert ((tmp_path / "a" / "mse.csv").read_bytes()
                == (tmp_path / "b" / "mse.csv").read_bytes())
        assert ((tmp_path / "a" / "summary.txt").read_bytes()
                == (tmp_path / "b" / "summary.txt").read_bytes())

    def test_empty_path_is_an_error(self):
        series = run_experiment(small_config())
        with pytest.raises(OSError):
            emit_results(series, "")

    def test_summary_convergence_flags(self, tmp_path):
        series = run_experiment(small_config(n_runs=10, n_samples=60))
        _, summary = emit_results(series, tmp_path, convergence_threshold=0.1)
        text = summary.read_text()
        flags = [line for line in text.splitlines() if line.startswith("converged")]
        expected = ",".join(str(bool(v)).lower() for v in series.converged(0.1))
        assert flags == [f"converged = {expected}"]


class TestConfigValidation:
    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError):
            small_config(n_runs=0)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_meaningless_convergence_threshold(self, threshold):
        # every parameter would read "converged = false", or every one true
        raw = dict(BASE_CONFIG, convergence_threshold=threshold)
        with pytest.raises(ConfigError, match="^convergence_threshold must be a finite "
                                              "value above 0, got "):
            parse_config(raw)

    def test_rejects_mismatched_true_params(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            ExperimentConfig(
                trajectory=cfg.trajectory, model=cfg.model,
                injection=InjectionConfig.with_total_sigma([1.0, 2.0], 0.2, 1),
                ukf=cfg.ukf, n_runs=1)


BASE_CONFIG = {
    "trajectory": {"kind": "corner", "n_samples": 50},
    "model": [{"type": "body_offset"}, {"type": "map_translation"}],
    "injection": {"true_params": [2.0, 1.0, 3.0, 2.0],
                  "noise_sigma_total": 0.2, "seed": 7},
    "filter": {"process_noise": 0.1, "initial_covariance": 10.0},
    "runs": 3,
}


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(json.loads(json.dumps(BASE_CONFIG)))
        assert cfg.n_runs == 3
        assert cfg.model.state_dim == 4
        assert cfg.injection.noise_sigma_ref == pytest.approx(0.2 / np.sqrt(2))
        np.testing.assert_allclose(cfg.ukf.process_noise, 0.1 * np.eye(4))
        np.testing.assert_allclose(cfg.ukf.initial_mean, np.zeros(4))

    def test_unknown_top_level_key(self):
        raw = dict(BASE_CONFIG, typo=1)
        with pytest.raises(ConfigError, match="typo"):
            parse_config(raw)

    def test_unknown_section_key(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["procss_noise"] = 0.1
        with pytest.raises(ConfigError, match="procss_noise"):
            parse_config(raw)

    def test_unknown_component_type(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "warp_drive"}]
        with pytest.raises(ConfigError, match="warp_drive"):
            parse_config(raw)

    def test_component_initial_guess_feeds_initial_mean(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "body_offset", "initial": [0.5, 0.5]},
                        {"type": "map_translation"}]
        cfg = parse_config(raw)
        np.testing.assert_allclose(cfg.ukf.initial_mean,
                                   [0.5, 0.5, 0.0, 0.0])

    def test_explicit_initial_mean_wins(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["initial_mean"] = [1.0, 1.0, 1.0, 1.0]
        cfg = parse_config(raw)
        np.testing.assert_allclose(cfg.ukf.initial_mean, np.ones(4))

    def test_total_and_split_sigmas_are_exclusive(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["injection"]["noise_sigma_ref"] = 0.1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_pivot_defaults_to_trajectory_centroid(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "map_scale"}]
        raw["injection"]["true_params"] = [0.1]
        cfg = parse_config(raw)
        centroid = build_trajectory(cfg.trajectory).ref_position.mean(axis=0)
        comp = cfg.model.components[0]
        # at the centroid the deformation contributes nothing regardless of
        # the parameter, which pins the pivot
        from locdecomp.error_models import KinematicInput
        from locdecomp.frames import Heading
        u = KinematicInput(t=0.0, heading=Heading(0.0), ref_position=centroid)
        np.testing.assert_allclose(comp.fn(np.array([0.3]), u), [0.0, 0.0],
                                   atol=1e-12)

    def test_matrix_process_noise(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["process_noise"] = [0.1, 0.2, 0.3, 0.4]
        cfg = parse_config(raw)
        np.testing.assert_allclose(cfg.ukf.process_noise,
                                   np.diag([0.1, 0.2, 0.3, 0.4]))

    def test_file_trajectory_resolved_relative_to_config(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("0.0, 0.0, 0.0, 0.0\n1.0, 10.0, 0.0, 0.0\n")
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["trajectory"] = {"file": "trace.csv"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        cfg = load_config(config_path)
        assert isinstance(cfg.trajectory, FileTrajectory)
        assert len(build_trajectory(cfg.trajectory)) == 2

    def test_non_finite_process_noise(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["process_noise"] = float("nan")
        with pytest.raises(NotPSD, match="^process_noise must be finite$"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value, error, message", [
        ("process_noise", float("inf"), NotPSD, "^process_noise must be finite$"),
        ("initial_covariance", float("nan"), NotPSD, "^initial_covariance must be finite$"),
        ("initial_mean", [float("nan"), 0.0, 0.0, 0.0], ConfigError,
         r"^initial_mean must be finite, got \[nan  0.  0.  0.\]$")])
    def test_non_finite_filter_setting_names_its_key(self, key, value, error, message):
        # an infinite scalar warned in its product with the identity, and a
        # a NaN initial mean failed naming no key
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"][key] = value
        with pytest.raises(error, match=message):
            parse_config(raw)

    def test_non_finite_component_guess_names_its_component(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"][0]["initial"] = [float("nan"), 0.0]
        with pytest.raises(ConfigError, match=r"^component 'body_offset' initial guess "
                                              r"must be finite, got \[nan  0.\]$"):
            parse_config(raw)

    def test_non_finite_beta(self):
        raw = json.loads(json.dumps(BASE_CONFIG).replace(
            '"initial_covariance": 10.0', '"initial_covariance": 10.0, "beta": NaN'))
        with pytest.raises(ValueError, match="^beta must be finite"):
            parse_config(raw)

    @pytest.mark.parametrize("section, value", [
        ("trajectory", 5), ("trajectory", "corner"), ("injection", [1.0]),
        ("filter", None)])
    def test_section_must_be_a_mapping(self, section, value):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw[section] = value
        with pytest.raises(ConfigError,
                           match=f"^section '{section}' must be a mapping, got "
                                 f"{type(value).__name__}$"):
            parse_config(raw)

    @pytest.mark.parametrize("entry, expected", [
        ({"type": "map_shear", "axis": "y", "pivot": [1.0, 2.0]},
         lambda centroid: map_shear(pivot=(1.0, 2.0), axis="y")),
        ({"type": "map_scale", "pivot": [-3.0, 5.0]},
         lambda centroid: map_scale(pivot=(-3.0, 5.0)))])
    def test_component_options_reach_the_factory(self, entry, expected):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [entry]
        raw["injection"]["true_params"] = [0.1]
        comp = parse_config(raw).model.components[0]
        built = expected(corner_centroid(50))
        u = KinematicInput(t=0.0, heading=Heading(0.0), ref_position=np.array([4.0, 7.0]))
        assert comp.name == built.name
        np.testing.assert_array_equal(comp.fn(np.array([0.3]), u),
                                      built.fn(np.array([0.3]), u))

    def test_unknown_reference_is_rejected_at_load(self):
        # "reference" is no key: an other-hosted deformation is the
        # ref-hosted one at the inverse parameter, so "other" must not load
        # and silently run the ref-hosted model
        for value in ("other", "ref", "foo"):
            raw = json.loads(json.dumps(BASE_CONFIG))
            raw["model"] = [{"type": "map_rotation", "reference": value}]
            raw["injection"]["true_params"] = [0.1]
            with pytest.raises(ConfigError, match=r"^unknown key\(s\) \['reference'\] in "
                                                  r"component 'map_rotation'; allowed: "
                                                  r"\['initial', 'pivot', 'type'\]$"):
                parse_config(raw)

    @pytest.mark.parametrize("section, key", [
        (None, "runs"), ("injection", "seed"), ("trajectory", "n_samples"),
        ("trajectory", "turn_samples")])
    def test_integer_keys_are_checked_not_truncated(self, section, key):
        # truncating would run 2 runs for "runs": 2.5 and 1 for "runs": true
        name = key if section is None else f"{section}.{key}"

        def parsed(value):
            raw = json.loads(json.dumps(BASE_CONFIG))
            (raw if section is None else raw[section])[key] = value
            return parse_config(raw)

        for bad in (2.5, 200.9, 1.7, True, False, "20", "abc", None, float("nan")):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
                parsed(bad)
        # a value valid for the key: 50 samples fit turns of at most 8
        valid = 8 if key == "turn_samples" else 20
        cfg = parsed(float(valid))
        values = (cfg.n_runs, cfg.injection.rng_seed, cfg.trajectory.n_samples,
                  cfg.trajectory.turn_samples)
        assert valid in values
        assert all(type(v) is int for v in values if v is not None)

    @pytest.mark.parametrize("section, key, bad", [
        ("trajectory", "step", True), ("trajectory", "speed", True),
        ("trajectory", "initial_heading", "0.5"),
        ("injection", "noise_sigma_total", True), ("injection", "true_params", "2.0"),
        ("injection", "true_params", [2.0, True, 3.0, 2.0]),
        ("filter", "alpha", True), ("filter", "alpha", "0.1"), ("filter", "beta", None),
        ("filter", "kappa", False), ("filter", "process_noise", True),
        ("filter", "process_noise", [0.1, 0.1, "0.1", 0.1]),
        ("filter", "initial_covariance", [[10.0, 0, 0, 0], [0, 10.0, 0, 0],
                                          [0, 0, 10.0, 0], [0, 0, 0, None]]),
        ("filter", "initial_mean", [0.0, 0.0, 0.0, True]),
        ("filter", "mahalanobis_gate", True), (None, "convergence_threshold", True),
        ("filter", "process_noise", [[0.1, 0, 0, 0], [0.1]]),
        ("filter", "initial_covariance", [10.0, [10.0], 10.0, 10.0])])
    def test_number_keys_reject_booleans_strings_and_null(self, section, key, bad):
        # true was read as 1.0 (Q = I, alpha = 1) and "0.1" as 0.1; a ragged
        # list failed with numpy's message, which names no key
        name = key if section is None else f"{section}.{key}"
        raw = json.loads(json.dumps(BASE_CONFIG))
        (raw if section is None else raw[section])[key] = bad
        with pytest.raises(ConfigError, match=rf"^{name} must be a number( or a list of "
                                              rf"numbers( with rows of equal length)?)?, "
                                              rf"got {re.escape(repr(bad))}$"):
            parse_config(raw)

    @pytest.mark.parametrize("key, bad", [("pivot", [1.0, True]), ("initial", [False])])
    def test_component_numbers_reject_booleans(self, key, bad):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "map_rotation", key: bad}]
        raw["injection"]["true_params"] = [0.1]
        with pytest.raises(ConfigError, match=rf"^model.map_rotation.{key} must be a "
                                              rf"number or a list of numbers"):
            parse_config(raw)

    def test_noise_sigma_ref_rejects_null(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["injection"]["noise_sigma_total"]
        raw["injection"].update(noise_sigma_ref=0.1, noise_sigma_other=None)
        with pytest.raises(ConfigError, match="^injection.noise_sigma_other must be a "
                                              "number, got None$"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value, message", [
        ("noise_sigma_total", "NaN", "total_sigma must be finite and >= 0, got nan"),
        ("noise_sigma_total", "Infinity", "total_sigma must be finite and >= 0, got inf"),
        ("true_params", "[NaN, 1.0, 3.0, 2.0]", "true_params must be finite, got ")])
    def test_non_finite_injection_fails_at_load(self, tmp_path, key, value, message):
        # json reads NaN and Infinity; the runs then failed with exit 1
        text = json.dumps(BASE_CONFIG).replace(
            f'"{key}": {json.dumps(BASE_CONFIG["injection"][key])}', f'"{key}": {value}')
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_config(path)

    def test_unknown_component_option(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "body_offset", "pivot": [0.0, 0.0]}]
        with pytest.raises(ConfigError, match=r"^unknown key\(s\) \['pivot'\] in "
                                              r"component 'body_offset'; allowed: "
                                              r"\['initial', 'type'\]$"):
            parse_config(raw)

    def test_missing_section(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["injection"]
        with pytest.raises(ConfigError, match="injection"):
            parse_config(raw)
