import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from locdecomp import harness
from locdecomp.cli import main as cli_main
from locdecomp.error_models import (CompositeModel, ErrorComponent, KinematicInput,
                                    body_offset, map_rotation, map_scale,
                                    map_shear, map_translation)
from locdecomp.estimator import FilterStep, UkfConfig, filter_steps
from locdecomp.exceptions import (DimensionMismatch, ExperimentRunError, FilterStepError,
                                  NotPSD, SingularTransform)
from locdecomp.harness import (ExperimentConfig, FileTrajectory, MseSeries,
                               SyntheticTrajectory, derive_run_seed, emit_results,
                               load_config, parse_config, run_experiment, _estimate_runs)
from locdecomp.observability import numerical_rank_test
from locdecomp.simulation import InjectionConfig, inject_runs, synthesize_trajectory

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
        injection=InjectionConfig(list(true_params), noise, rng_seed=seed),
        ukf=UkfConfig(process_noise=eye * q, initial_mean=np.zeros(dim),
                      initial_covariance=eye * p0),
        n_runs=n_runs,
    )


def per_run_estimates(cfg, runs=None):
    """Reference: each run simulated and filtered on its own, a batch of one
    for ``inject_runs`` and then for ``filter_steps``."""
    trajectory = cfg.trajectory.series
    out = []
    for run in range(cfg.n_runs) if runs is None else runs:
        seed = derive_run_seed(cfg.injection.rng_seed, run)
        inputs, p_other, r = inject_runs(trajectory, cfg.injection, cfg.model, [seed])
        out.append([step.means[0] for step in filter_steps(
            cfg.model, cfg.ukf, inputs.ref_position - p_other, r, inputs)])
    return np.array(out)


def batched_estimates(cfg, runs=None):
    runs = range(cfg.n_runs) if runs is None else runs
    return np.stack(list(_estimate_runs(cfg.trajectory.series, cfg, runs)),
                    axis=1)


def corner_centroid(n_samples):
    trajectory = SyntheticTrajectory(kind="corner", n_samples=n_samples).series
    return trajectory.ref_position.mean(axis=0)


class TestRunExperiment:
    def test_series_shape_matches_trajectory(self):
        series = run_experiment(small_config())
        assert series.mse.shape == series.mean.shape == series.variance.shape == (40, 4)

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
        # a run's step record (posterior, innovation and S) is the same alone
        # and as one row of 100, bit for bit; a 2-d product over the sigma
        # axis of the whole batch would round each run by its place in it
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           map_rotation(pivot=corner_centroid(200))))
        cfg = small_config(n_runs=100, n_samples=200, model=model,
                           true_params=(2.0, 1.0, 3.0, 2.0, 0.02),
                           q=[0.1, 0.1, 0.1, 0.1, 1e-4],
                           p0=[10.0, 10.0, 10.0, 10.0, 0.01])
        trajectory = cfg.trajectory.series
        seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in range(cfg.n_runs)]

        def filtered(seeds):
            inputs, p_other, r = inject_runs(trajectory, cfg.injection, model, seeds)
            steps = filter_steps(model, cfg.ukf, inputs.ref_position - p_other, r, inputs)
            return [np.stack(field) for field in zip(*steps)]   # (N, B, ...) per field

        batch = filtered(seeds)
        for run in (0, 17, 99):
            alone = filtered([seeds[run]])
            for name, alone_field, batch_field in zip(FilterStep._fields, alone, batch,
                                                      strict=True):
                np.testing.assert_array_equal(alone_field[:, 0], batch_field[:, run],
                                              err_msg=name)

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
    trajectory = cfg.trajectory.series
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
    trajectory = cfg.trajectory.series
    seeds = [derive_run_seed(cfg.injection.rng_seed, r) for r in range(cfg.n_runs)]
    inputs, p_other, r = inject_runs(trajectory, cfg.injection, cfg.model, seeds)
    built = []
    original = KinematicInput.__post_init__

    def counted(self):
        built.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(KinematicInput, "__post_init__", counted)
    passes = list(filter_steps(cfg.model, cfg.ukf, inputs.ref_position - p_other, r,
                               inputs))
    assert len(passes) == len(trajectory) == 200 and cfg.n_runs == 100
    assert built == []


def test_observe_config_builds_no_per_sample_objects(monkeypatch, capsys):
    # a trajectory is one series: loading, building, injecting and ranking
    # it construct a fixed number of KinematicInput objects, not one per sample
    built = []
    original = KinematicInput.__post_init__

    def counted(self):
        built.append(np.shape(self.heading))
        original(self)

    monkeypatch.setattr(KinematicInput, "__post_init__", counted)
    path = ROOT / "bench" / "configs" / "observe.json"
    cfg = load_config(path)
    trajectory = cfg.trajectory.series
    inject_runs(trajectory, cfg.injection, cfg.model,
                [derive_run_seed(cfg.injection.rng_seed, r) for r in range(3)])
    numerical_rank_test(cfg.model, cfg.ukf.initial_mean, trajectory)
    assert cli_main(["observability", "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(trajectory) == 1000
    # one per configuration loaded (a configuration builds its series once:
    # the pivot centroid, the rank test and the CLI read the same one) and
    # one where inject_runs puts the runs' positions in the series
    assert built == [(1000,)] * 3


def tripwire(threshold):
    """Component that contributes nothing but fails inside the filter once
    a run's reference position strays above ``threshold`` in north."""
    def fn(params, u):
        if params.ndim > 1 and np.any(u.ref_position[..., 1] > threshold):
            raise FloatingPointError("tripwire")
        return np.zeros(params.shape[:-1] + (2,))

    return ErrorComponent(name="tripwire", param_dim=1, fn=fn)


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

    def test_a_failure_of_the_batch_alone_is_the_batchs_error(self):
        # no run fails on its own, so no run is named: the batch's error is
        # raised as it was
        def fn(params, u):
            if params.ndim == 3 and params.shape[1] > 1:
                raise ValueError("more than one run")
            return params.copy()

        model = CompositeModel(components=(ErrorComponent("batch_only", 2, fn),))
        cfg = small_config(n_runs=3, kind="straight", model=model, true_params=(1.0, 2.0))
        for run in range(cfg.n_runs):
            per_run_estimates(cfg, runs=[run])
        with pytest.raises(FilterStepError, match="^step 0: more than one run$") as excinfo:
            run_experiment(cfg)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_singular_truth_is_the_configs_error(self):
        # the injection evaluates the model at the truth once for all runs;
        # it raised inside the batch and was relabelled "run 0: ..."
        cfg = small_config(model=CompositeModel(components=(map_scale(),)),
                           true_params=(-1.0,))
        with pytest.raises(SingularTransform, match="^scale factor 0.0 is not invertible$"):
            run_experiment(cfg)

    def test_singular_initial_mean_is_the_configs_error(self):
        # the filter's first sigma point is its initial mean; the first step
        # failed in every run and was reported as "run 0: step 0: ..."
        cfg = small_config(model=CompositeModel(components=(map_scale(),)),
                           true_params=(0.01,))
        with pytest.raises(SingularTransform, match=r"^initial_mean \[-1.0\]: scale factor "
                                                    r"0.0 is not invertible$"):
            replace(cfg, ukf=replace(cfg.ukf, initial_mean=np.array([-1.0])))


class TestEmitResults:
    def test_converged_means_final_mse_below_the_threshold(self, tmp_path):
        # the flags compare the last step's MSE, not an earlier one, and
        # strictly: an MSE at the threshold has not converged
        series = MseSeries(mse=np.array([[0.5, 0.05, 0.5], [0.05, 0.2, 0.1]]),
                           mean=np.zeros((2, 3)), variance=np.zeros((2, 3)),
                           true_params=np.zeros(3), initial_mse=np.ones(3),
                           n_runs=1)
        _, summary = emit_results(series, tmp_path, convergence_threshold=0.1)
        assert summary.read_text().splitlines()[-1] == "converged = true,false,false"

    @pytest.mark.parametrize("threshold, message", [
        (float("nan"), "a finite value above 0, got nan"),
        (-1.0, "a finite value above 0, got -1.0"), (True, "a number, got True")],
        ids=["nan", "-1", "True"])
    def test_rejects_the_thresholds_the_config_rejects(self, tmp_path, threshold, message):
        # nan and -1 flagged no parameter converged, and True wrote a
        # threshold of 1 and flagged every one
        series = run_experiment(small_config(n_samples=20))
        with pytest.raises(ValueError, match=f"^convergence_threshold must be {message}$"):
            emit_results(series, tmp_path / "out", convergence_threshold=threshold)
        assert not (tmp_path / "out").exists()

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

    def test_empty_series_is_an_error(self, tmp_path):
        empty = np.zeros((0, 2))
        series = MseSeries(mse=empty, mean=empty, variance=empty, true_params=np.zeros(2),
                           initial_mse=np.ones(2), n_runs=1)
        with pytest.raises(ValueError, match="^cannot emit an empty series$"):
            emit_results(series, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_summary_convergence_flags(self, tmp_path):
        series = run_experiment(small_config(n_runs=10, n_samples=60))
        _, summary = emit_results(series, tmp_path, convergence_threshold=0.1)
        text = summary.read_text()
        flags = [line for line in text.splitlines() if line.startswith("converged")]
        expected = ",".join(str(bool(v)).lower() for v in series.final_mse < 0.1)
        assert flags == [f"converged = {expected}"]


@pytest.mark.parametrize("comments", ["", "# "])
def test_write_table_writes_the_bytes_of_savetxt_to_a_path(tmp_path, comments):
    # in a fresh interpreter, where nothing has imported gzip yet: given the
    # path, savetxt reopens the file through numpy's datasource, which does
    script = """if True:
        import sys
        import numpy as np
        from locdecomp.harness import FLOAT_FORMAT, write_table
        table = np.column_stack([np.arange(200), -1.5 * np.sqrt(np.arange(1600.0)).reshape(200, 8)])
        header, comments = ",".join(f"c{j}" for j in range(9)), sys.argv[3]
        write_table(sys.argv[1], table, header, comments)
        assert "gzip" not in sys.modules, "write_table imported gzip"
        np.savetxt(sys.argv[2], table, fmt=FLOAT_FORMAT, delimiter=",", header=header,
                   comments=comments)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    streamed, saved = tmp_path / "streamed.csv", tmp_path / "saved.csv"
    proc = subprocess.run([sys.executable, "-c", script, str(streamed), str(saved), comments],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert streamed.read_bytes() == saved.read_bytes()
    assert streamed.read_text().startswith(f"{comments}c0,c1,")


class TestConfigValidation:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="^n_runs must be >= 1, got 0$"):
            small_config(n_runs=0)
        # a configuration file names its own key
        with pytest.raises(ValueError, match="^runs must be >= 1, got 0$"):
            parse_config(dict(BASE_CONFIG, runs=0))

    def test_negative_noise_names_the_config_key(self):
        # the library names its argument, a configuration file its key
        with pytest.raises(ValueError, match="^noise_sigma_total must be finite and >= 0, "
                                             "got -0.1$"):
            InjectionConfig([1.0, 2.0, 3.0, 4.0], -0.1, 1)
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["injection"]["noise_sigma_total"] = -0.1
        with pytest.raises(ValueError, match="^injection.noise_sigma_total must be "
                                             "finite and >= 0, got -0.1$"):
            parse_config(raw)

    @pytest.mark.parametrize("n_runs", [2.5, True, "3", None])
    def test_n_runs_must_be_an_integer(self, n_runs):
        # 2.5 built and failed only inside run_experiment's range()
        with pytest.raises(ValueError, match=f"^n_runs must be an integer, got {n_runs!r}$"):
            replace(small_config(), n_runs=n_runs)
        assert type(replace(small_config(), n_runs=3.0).n_runs) is int

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_meaningless_convergence_threshold(self, threshold):
        # every parameter would read "converged = false", or every one true
        raw = dict(BASE_CONFIG, convergence_threshold=threshold)
        with pytest.raises(ValueError, match="^convergence_threshold must be a finite "
                                             "value above 0, got "):
            parse_config(raw)

    def test_rejects_mismatched_true_params(self):
        cfg = small_config()
        with pytest.raises(DimensionMismatch, match="^true_params dimension 2 does not "
                                                    "match model state dimension 4$"):
            ExperimentConfig(
                trajectory=cfg.trajectory, model=cfg.model,
                injection=InjectionConfig([1.0, 2.0], 0.2, 1),
                ukf=cfg.ukf, n_runs=1)

    def test_rejects_filter_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match="^filter dimension 3 does not match "
                                                    "model state dimension 4$"):
            replace(small_config(), ukf=UkfConfig(np.eye(3), np.zeros(3), np.eye(3)))


REAL_SETTINGS = {
    "convergence_threshold":
        lambda v: replace(small_config(), convergence_threshold=v),
    "noise_sigma_total": lambda v: InjectionConfig([1, 2, 3, 4], v, 1),
    "step": lambda v: synthesize_trajectory("corner", 50, step=v),
    "speed": lambda v: synthesize_trajectory("corner", 50, speed=v),
    "initial_heading": lambda v: synthesize_trajectory("corner", 50, initial_heading=v),
}


@pytest.mark.parametrize("bad", [True, "0.1"])
@pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
def test_api_real_settings_reject_booleans_and_strings(name, bad):
    # True was read as 1 (a 1 s step, a unit noise sigma) and "0.1"
    # raised Python's "'<' not supported", naming no argument
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got "
                                         rf"{re.escape(repr(bad))}$"):
        REAL_SETTINGS[name](bad)


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
        assert cfg.injection.noise_sigma_total == 0.2
        np.testing.assert_allclose(cfg.ukf.process_noise, 0.1 * np.eye(4))
        np.testing.assert_allclose(cfg.ukf.initial_mean, np.zeros(4))

    def test_unknown_top_level_key(self):
        raw = dict(BASE_CONFIG, typo=1)
        with pytest.raises(ValueError, match="typo"):
            parse_config(raw)

    def test_unknown_section_key(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["procss_noise"] = 0.1
        with pytest.raises(ValueError, match="procss_noise"):
            parse_config(raw)

    def test_unknown_component_type(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "warp_drive"}]
        with pytest.raises(ValueError, match="warp_drive"):
            parse_config(raw)

    def test_explicit_initial_mean_wins(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["initial_mean"] = [1.0, 1.0, 1.0, 1.0]
        cfg = parse_config(raw)
        np.testing.assert_allclose(cfg.ukf.initial_mean, np.ones(4))

    @pytest.mark.parametrize("factory", [map_rotation, map_scale, map_shear],
                             ids=lambda factory: factory.__name__)
    def test_pivot_defaults_to_trajectory_centroid(self, factory):
        kind = factory.__name__
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": kind}]
        raw["injection"]["true_params"] = [0.1]
        cfg = parse_config(raw)
        centroid = cfg.trajectory.series.ref_position.mean(axis=0)
        comp = cfg.model.components[0]
        # at the centroid the deformation contributes nothing regardless of
        # the parameter, which pins the pivot; elsewhere it is the library's
        # deformation about the centroid (a shear along x)
        u = KinematicInput(t=0.0, heading=0.0, ref_position=centroid)
        np.testing.assert_allclose(comp.fn(np.array([0.3]), u), [0.0, 0.0],
                                   atol=1e-12)
        u = KinematicInput(t=0.0, heading=0.0, ref_position=np.array([4.0, 7.0]))
        assert comp.name == kind
        np.testing.assert_array_equal(comp.fn(np.array([0.3]), u),
                                      factory(pivot=centroid).fn(np.array([0.3]), u))

    @pytest.mark.parametrize("types, true_params", [
        (["map_rotation", "map_scale"], [0.02, 0.01]),
        (["body_offset", "map_translation", "map_rotation", "map_scale"],
         [2.0, 1.0, 3.0, 2.0, 0.02, 0.01])])
    def test_components_reading_one_field_load_and_run(self, types, true_params):
        # both deformations read the reference position; the sum still splits
        # on a corner, so the configuration loads, the rank test finds it
        # observable and its runs converge
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": kind} for kind in types]
        raw["injection"]["true_params"] = true_params
        raw["filter"] = {"process_noise": 0.0, "initial_covariance": 0.1}
        cfg = parse_config(raw)
        assert numerical_rank_test(cfg.model, cfg.ukf.initial_mean,
                                   cfg.trajectory.series).observable
        series = run_experiment(cfg)
        assert np.all(series.mse[-1] < 0.01 * series.initial_mse)

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
        assert len(cfg.trajectory.series) == 2

    def test_file_trajectory_is_read_once(self, tmp_path):
        # the series is read when the configuration loads (the pivot
        # centroid), and the experiment runs on that read
        trace = tmp_path / "trace.csv"
        series = synthesize_trajectory("corner", 50)
        np.savetxt(trace, np.column_stack([series.t, series.ref_position, series.heading]),
                   fmt="%.17e", delimiter=",")
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["trajectory"] = {"file": "trace.csv"}
        raw["model"].append({"type": "map_rotation"})
        raw["injection"]["true_params"].append(0.01)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        cfg = load_config(config_path)
        trace.unlink()
        result = run_experiment(cfg)
        assert result.mse.shape[0] == 50
        np.testing.assert_array_equal(cfg.trajectory.series.ref_position,
                                      series.ref_position)

    @pytest.mark.parametrize("key, place", [
        ("output", lambda raw: raw.update(output=5)),
        ("trajectory.file", lambda raw: raw.update(trajectory={"file": 5})),
        ("model.type", lambda raw: raw["model"].insert(0, {"type": ["x"]}))])
    def test_string_keys_reject_other_types(self, tmp_path, capsys, key, place):
        # each raised TypeError: a traceback and exit 1
        raw = json.loads(json.dumps(BASE_CONFIG))
        place(raw)
        with pytest.raises(ValueError, match=rf"^{key} must be a string, got "):
            parse_config(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_shared_series_is_read_only(self, tmp_path, source):
        # every reader of a configuration shares its series: a write in place
        # shifted the positions of every later run
        raw = json.loads(json.dumps(BASE_CONFIG))
        if source == "file":
            series = synthesize_trajectory("corner", 50)
            np.savetxt(tmp_path / "trace.csv", np.column_stack(
                [series.t, series.ref_position, series.heading]), fmt="%.17e", delimiter=",")
            raw["trajectory"] = {"file": "trace.csv"}
        cfg = parse_config(raw, base_dir=tmp_path)
        positions = cfg.trajectory.series.ref_position.copy()
        expected = run_experiment(cfg)
        for name in ("t", "heading", "ref_position", "heading_rate"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg.trajectory.series, name)[:] += 100.0
        np.testing.assert_array_equal(cfg.trajectory.series.ref_position, positions)
        np.testing.assert_array_equal(run_experiment(cfg).mean, expected.mean)

    def test_non_finite_process_noise(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"]["process_noise"] = float("nan")
        with pytest.raises(NotPSD, match="^process_noise must be finite$"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value, error, message", [
        ("process_noise", float("inf"), NotPSD, "^process_noise must be finite$"),
        ("initial_covariance", float("nan"), NotPSD, "^initial_covariance must be finite$"),
        ("initial_mean", [float("nan"), 0.0, 0.0, 0.0], ValueError,
         r"^initial_mean must be finite, got \[nan  0.  0.  0.\]$")])
    def test_non_finite_filter_setting_names_its_key(self, key, value, error, message):
        # an infinite scalar warned in its product with the identity, and a
        # a NaN initial mean failed naming no key
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"][key] = value
        with pytest.raises(error, match=message):
            parse_config(raw)

    @pytest.mark.parametrize("key, value", [
        ("process_noise", [0.1, 0.1, 0.1]), ("process_noise", [[0.1, 0.0], [0.0, 0.1]]),
        ("process_noise", np.tile(0.1 * np.eye(4), (2, 1, 1)).tolist()),
        ("initial_mean", [0.0, 0.0, 0.0])])
    def test_filter_setting_of_another_shape_names_its_key(self, key, value):
        # for a 4-state model; with no initial_mean check, a 3-entry mean
        # blamed initial_covariance for its shape
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["filter"][key] = value
        with pytest.raises(ValueError, match=f"^{key} "):
            parse_config(raw)

    @pytest.mark.parametrize("section, value", [
        ("trajectory", 5), ("trajectory", "corner"), ("injection", [1.0]),
        ("filter", None)])
    def test_section_must_be_a_mapping(self, section, value):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw[section] = value
        with pytest.raises(ValueError,
                           match=f"^section '{section}' must be a mapping, got "
                                 f"{type(value).__name__}$"):
            parse_config(raw)

    @pytest.mark.parametrize("kind, key, value", [
        ("map_rotation", "pivot", [0.0, 0.0]), ("map_rotation", "pivot", [1.0, True]),
        ("map_scale", "pivot", [-3.0, 5.0]), ("map_shear", "pivot", [1.0, 2.0]),
        ("map_shear", "axis", "y"), ("map_shear", "axis", "x"),
        ("map_rotation", "reference", "other")])
    def test_removed_component_key_fails_at_load(self, tmp_path, capsys, kind, key, value):
        # with map_translation in the model, a deformation about another pivot
        # is the one about the centroid plus a constant shift, so neither the
        # pivot nor the shear axis is a setting, and one hosted by the other
        # localizer is the ref-hosted one at the inverse parameter; a value
        # the old checks refused is refused as the unknown key
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"].append({"type": kind, key: value})
        raw["injection"]["true_params"].append(0.01)
        with pytest.raises(ValueError, match=rf"^unknown key\(s\) \['{key}'\] in "
                                             rf"component '{kind}'; allowed: \['type'\]$"):
            parse_config(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        (None, "runs"), ("injection", "seed"), ("trajectory", "n_samples")])
    def test_integer_keys_are_checked_not_truncated(self, section, key):
        # truncating would run 2 runs for "runs": 2.5 and 1 for "runs": true
        name = key if section is None else f"{section}.{key}"

        def parsed(value):
            raw = json.loads(json.dumps(BASE_CONFIG))
            (raw if section is None else raw[section])[key] = value
            return parse_config(raw)

        for bad in (2.5, 200.9, 1.7, True, False, "20", "abc", None, float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                parsed(bad)
        cfg = parsed(20.0)
        values = (cfg.n_runs, cfg.injection.rng_seed, cfg.trajectory.n_samples)
        assert 20 in values
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("section, key, bad", [
        ("trajectory", "step", True), ("trajectory", "speed", True),
        ("trajectory", "initial_heading", "0.5"),
        ("injection", "noise_sigma_total", True), ("injection", "true_params", "2.0"),
        ("injection", "true_params", [2.0, True, 3.0, 2.0]),
        ("filter", "process_noise", True),
        ("filter", "process_noise", [0.1, 0.1, "0.1", 0.1]),
        ("filter", "initial_covariance", [[10.0, 0, 0, 0], [0, 10.0, 0, 0],
                                          [0, 0, 10.0, 0], [0, 0, 0, None]]),
        ("filter", "initial_mean", [0.0, 0.0, 0.0, True]),
        (None, "convergence_threshold", True), ("filter", "initial_mean", None),
        ("filter", "process_noise", [[0.1, 0, 0, 0], [0.1]]),
        ("filter", "initial_covariance", [10.0, [10.0], 10.0, 10.0]),
        ("injection", "noise_sigma_total", None)])
    def test_number_keys_reject_booleans_strings_and_null(self, section, key, bad):
        # true was read as 1.0 (Q = I) and "0.1" as 0.1; a ragged
        # list failed with numpy's message, which names no key; null is
        # refused, not read as the default an absent key takes
        name = key if section is None else f"{section}.{key}"
        raw = json.loads(json.dumps(BASE_CONFIG))
        (raw if section is None else raw[section])[key] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be a number( or a list of "
                                             rf"numbers( with rows of equal length)?)?, "
                                             rf"got {re.escape(repr(bad))}$"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value, message", [
        ("noise_sigma_total", "NaN",
         "injection.noise_sigma_total must be finite and >= 0, got nan"),
        ("noise_sigma_total", "Infinity",
         "injection.noise_sigma_total must be finite and >= 0, got inf"),
        ("true_params", "[NaN, 1.0, 3.0, 2.0]", "true_params must be finite, got ")])
    def test_non_finite_injection_fails_at_load(self, tmp_path, key, value, message):
        # json reads NaN and Infinity; the runs then failed with exit 1
        text = json.dumps(BASE_CONFIG).replace(
            f'"{key}": {json.dumps(BASE_CONFIG["injection"][key])}', f'"{key}": {value}')
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("filter", "alpha", 0.1), ("filter", "beta", 2.0), ("filter", "kappa", 0.0),
        ("model", "initial", [0.5, 0.5]), ("filter", "alpha", True),
        ("filter", "alpha", 1e-170), ("filter", "beta", None), ("filter", "kappa", False),
        ("model", "initial", [False]), ("injection", "noise_sigma_ref", 0.1),
        ("injection", "noise_sigma_other", 0.1), ("injection", "noise_sigma_other", None),
        ("trajectory", "turn_samples", 4), ("trajectory", "turn_samples", 0),
        ("filter", "mahalanobis_gate", 3.0), ("filter", "mahalanobis_gate", None)])
    def test_removed_setting_fails_at_load(self, tmp_path, capsys, section, key, value):
        # the sigma-point spread is fixed, filter.initial_mean is the one
        # start, noise_sigma_total the one noise level (only the total reaches
        # the difference), a corner's turns take the default width and every
        # filter step takes its update, so a config setting any of them would
        # run something it does not say; a value the old checks refused, or
        # null, is refused as the unknown key
        raw = json.loads(json.dumps(BASE_CONFIG))
        (raw["model"][0] if section == "model" else raw[section])[key] = value
        where = "component 'body_offset'" if section == "model" else section
        with pytest.raises(ValueError, match=rf"^unknown key\(s\) \['{key}'\] in {where}; "
                                             rf"allowed: \[") as excinfo:
            parse_config(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"locdecomp experiment: {excinfo.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry, repeated", [
        ('"runs": 3', '"runs": 3, "runs": 5'),
        ('"process_noise": 0.1', '"process_noise": 0.1, "process_noise": 1.0'),
        ('{"type": "body_offset"}', '{"type": "body_offset", "type": "map_scale"}')],
        ids=["top", "section", "component"])
    def test_repeated_key_is_rejected_at_any_depth(self, tmp_path, capsys, entry, repeated):
        # json keeps the last value: {"runs": 100, "runs": 5} ran 5 runs
        text = json.dumps(BASE_CONFIG)
        path = tmp_path / "config.json"
        path.write_text(text.replace(entry, repeated, 1))
        key = entry.split('"')[1]
        message = f"key '{key}' appears twice in one object"
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_config(path)
        assert cli_main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"locdecomp experiment: {message}\n"

    def test_unknown_component_option(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["model"] = [{"type": "body_offset", "pivot": [0.0, 0.0]}]
        with pytest.raises(ValueError, match=r"^unknown key\(s\) \['pivot'\] in "
                                             r"component 'body_offset'; allowed: "
                                             r"\['type'\]$"):
            parse_config(raw)

    def test_missing_section(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["injection"]
        with pytest.raises(ValueError, match="injection"):
            parse_config(raw)

    @pytest.mark.parametrize("place, message", [
        (lambda raw: raw["model"].insert(0, {}), "each model entry needs a 'type', got {}"),
        (lambda raw: raw["model"].insert(0, "body_offset"),
         "each model entry needs a 'type', got 'body_offset'"),
        (lambda raw: raw.update(model=[]), "'model' must be a non-empty list of components"),
        (lambda raw: raw.update(model={"type": "body_offset"}),
         "'model' must be a non-empty list of components"),
        (lambda raw: raw["trajectory"].pop("kind"), "trajectory section is missing 'kind'"),
        (lambda raw: raw["trajectory"].pop("n_samples"),
         "trajectory section is missing 'n_samples'"),
        (lambda raw: raw["injection"].pop("seed"), "injection needs 'true_params' and 'seed'"),
        (lambda raw: raw["filter"].pop("initial_covariance"),
         "filter needs 'process_noise' and 'initial_covariance'")],
        ids=["entry-without-type", "entry-not-a-mapping", "empty-model", "model-not-a-list",
             "no-kind", "no-n_samples", "no-seed", "no-initial_covariance"])
    def test_missing_part_is_named(self, place, message):
        raw = json.loads(json.dumps(BASE_CONFIG))
        place(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            parse_config(raw)
        assert type(excinfo.value) is ValueError

    @pytest.mark.parametrize("raw", [[], "corner", None])
    def test_configuration_must_be_a_mapping(self, raw):
        with pytest.raises(ValueError, match=rf"^configuration must be a mapping, got "
                                             rf"{re.escape(repr(type(raw)))}$") as excinfo:
            parse_config(raw)
        assert type(excinfo.value) is ValueError

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"runs": 3,}')
        message = (f"{path}: Expecting property name enclosed in double quotes: "
                   f"line 1 column 12 (char 11)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            load_config(path)
        assert type(excinfo.value) is ValueError
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)
        assert cli_main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"locdecomp experiment: {message}\n"
