"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see the lines as they happen; they also appear in captured output).

The shared experiment setup: a vehicle-fixed offset of (2, 1) m plus a map
translation of (3, 2) m, total difference noise 0.2 m, filter started at
zero with initial covariance diag(10) and process noise diag(0.1), 100
Monte Carlo runs.

Criterion 1 (corner convergence) holds the final MSE to what the filter
promises at these settings.  The body + map model is linear in its
parameters, so the UKF is an exact Kalman filter and its error moments
follow from its gain alone (Bar-Shalom, Li & Kirubarajan, 2001, sec. 5.2):
with ``H = [rot(heading), I]`` and ``A = I - K H``, the bias obeys
``b <- A b`` and the error covariance ``S <- A S A^T + K R K^T``.  On the
200-sample corner this gives an expected final MSE of 0.0184 m^2 for every
parameter: process noise of 0.1 per step keeps the gain high, so every
update re-absorbs measurement noise into the estimate.  A per-parameter
reduction to 1 % of the initial error therefore cannot hold for the 1 m
parameter: its initial MSE is 1 m^2, and 1 % of it (0.01 m^2) lies below
what a correct filter reaches in expectation.  The three clauses are:

- every final MSE is below 0.1 m^2 (the harness's convergence threshold);
- the total final MSE is below 1 % of the total initial MSE;
- every final MSE lies inside the two-sided 99.9 % chi-square band with
  100 degrees of freedom around the expected value (0.0110 to 0.0282
  m^2), since the final errors of independent runs are Gaussian with
  negligible bias.

The experiment also has to finish within 30 s.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from locdecomp.cli import main as cli_main
from locdecomp.error_models import (CompositeModel, KinematicInput, body_offset,
                                    map_translation)
from locdecomp.estimator import UkfConfig, filter_steps
from locdecomp.frames import rotation_matrix
from locdecomp.harness import ExperimentConfig, SyntheticTrajectory, run_experiment
from locdecomp.observability import (closed_form_decomposition, difference_rates,
                                     numerical_rank_test)
from locdecomp.simulation import InjectionConfig, inject_runs, synthesize_trajectory

TRUE_PARAMS = np.array([2.0, 1.0, 3.0, 2.0])
TOTAL_SIGMA_M = 0.2
PROCESS_NOISE = 0.1 * np.eye(4)
INITIAL_COVARIANCE = 10.0 * np.eye(4)
N_RUNS = 100
MASTER_SEED = 20260808

BODY_MAP = CompositeModel(components=(body_offset(), map_translation()))

# the straight segment must not be near-aligned with the injected offsets:
# if the rotated body offset happens to land close to the map offset, the
# indistinguishable 50/50 split is accidentally accurate and the
# non-convergence behavior would be masked
STRAIGHT_HEADING = np.pi

SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])


def reference_ukf_config() -> UkfConfig:
    return UkfConfig(process_noise=PROCESS_NOISE, initial_mean=np.zeros(4),
                     initial_covariance=INITIAL_COVARIANCE)


def experiment_config(kind: str, n_samples: int, heading: float = 0.0,
                      n_runs: int = N_RUNS) -> ExperimentConfig:
    return ExperimentConfig(
        trajectory=SyntheticTrajectory(kind=kind, n_samples=n_samples,
                                       initial_heading=heading),
        model=BODY_MAP,
        injection=InjectionConfig(TRUE_PARAMS, TOTAL_SIGMA_M, rng_seed=MASTER_SEED),
        ukf=reference_ukf_config(),
        n_runs=n_runs,
    )


def one_run(trajectory, injection):
    """One run injected at ``injection.rng_seed`` as ``filter_steps`` takes it:
    differences (1, N, 2), covariances (N, 2, 2) and the series carrying the
    measured reference positions (1, N, 2)."""
    inputs, p_other, r = inject_runs(trajectory, injection, BODY_MAP, [injection.rng_seed])
    return inputs.ref_position - p_other, r, inputs


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corner_result():
    cfg = experiment_config("corner", 200)
    start = time.perf_counter()
    series = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return series, elapsed


@pytest.fixture(scope="module")
def straight_result():
    return run_experiment(experiment_config("straight", 100,
                                            heading=STRAIGHT_HEADING))


def expected_corner_error(angles):
    """Kalman recursion for the body + map model along the given headings.

    Returns the filter's own posterior covariance, the mean and the
    covariance of the final estimation error of a run started at zero with
    the reference tuning and noise of total sigma ``TOTAL_SIGMA_M``.
    """
    r = TOTAL_SIGMA_M ** 2 * np.eye(2)
    cov = INITIAL_COVARIANCE.copy()
    bias = -TRUE_PARAMS
    error_cov = np.zeros((4, 4))
    for angle in angles:
        h = np.hstack([rotation_matrix(angle), np.eye(2)])
        cov = cov + PROCESS_NOISE
        gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
        a = np.eye(4) - gain @ h
        cov = a @ cov
        bias = a @ bias
        error_cov = a @ error_cov @ a.T + gain @ r @ gain.T
    return cov, bias, error_cov


def test_criterion_1_corner_convergence(corner_result):
    # total reduction below 1 % plus a chi-square band around the filter's
    # expected floor (0.0184 m^2), not a per-parameter 1 % ratio, which the
    # 1 m body_y cannot reach at process noise 0.1; see the module docstring
    series, elapsed = corner_result
    final = series.final_mse
    cfg = experiment_config("corner", 200)
    trajectory = cfg.trajectory.series
    cov, bias, error_cov = expected_corner_error([s.heading for s in trajectory])
    expected = bias ** 2 + np.diag(error_cov)
    lo, hi = np.outer(stats.chi2.ppf([0.0005, 0.9995], N_RUNS) / N_RUNS, expected)

    # the band is only as good as the recursion's match to the filter
    *_, (_, covs, *_) = filter_steps(BODY_MAP, cfg.ukf, *one_run(trajectory, cfg.injection))
    cov_gap = float(np.abs(covs[0] - cov).max())

    total_ratio = final.sum() / series.initial_mse.sum()
    ok = (np.all(final < 0.1) and total_ratio < 0.01
          and np.all((lo <= final) & (final <= hi)) and cov_gap < 1e-8
          and elapsed < 30.0)
    report(
        "criterion 1 (corner convergence)", ok,
        f"final MSE {np.array2string(final, precision=4)} m^2 (< 0.1), "
        f"total ratio to initial {total_ratio:.4f} (< 0.01), "
        f"expected MSE {np.array2string(expected, precision=4)} m^2, "
        f"99.9% band [{lo.min():.4f}, {hi.max():.4f}] m^2, "
        f"|P - recursion| {cov_gap:.1e} (< 1e-8), "
        f"runtime {elapsed:.1f} s (< 30)")


def test_criterion_2_straight_non_convergence(straight_result):
    series = straight_result
    agent_ratios = series.final_mse[:2] / series.initial_mse[:2]
    ok = bool(np.all(agent_ratios >= 0.5))
    report(
        "criterion 2 (straight non-convergence)", ok,
        f"agent-parameter MSE ratios {np.array2string(agent_ratios, precision=3)} "
        f"(each >= 0.5)")


def test_criterion_3_closed_form_oracle_equivalence():
    trajectory = synthesize_trajectory("corner", 200)
    injection = InjectionConfig(true_params=TRUE_PARAMS, noise_sigma_total=0.0,
                                rng_seed=MASTER_SEED)
    d, r, inputs = one_run(trajectory, injection)
    *_, (means, *_) = filter_steps(BODY_MAP, reference_ukf_config(), d, r, inputs)
    terminal = means[0]

    d = d[0]
    rates = difference_rates(inputs.t, d)
    estimates = [closed_form_decomposition(d[k], rates[k], u.heading,
                                           u.heading_rate)
                 for k, u in enumerate(inputs)
                 if abs(u.heading_rate) > 1e-3]
    oracle_mean = np.mean(estimates, axis=0)
    gap = np.abs(terminal - oracle_mean)
    ok = bool(np.all(gap < 0.05))
    report(
        "criterion 3 (closed-form oracle equivalence)", ok,
        f"|filter - oracle| = {np.array2string(gap, precision=4)} m over "
        f"{len(estimates)} turning steps (< 0.05)")


def test_criterion_4_observability_rank():
    inputs = synthesize_trajectory("corner", 200)
    window_length = 8
    full_report = numerical_rank_test(BODY_MAP, np.zeros(4), inputs,
                                      window_length=window_length)
    rng = np.random.default_rng(MASTER_SEED)
    placements = rng.integers(0, len(full_report.window_starts), size=100)
    failures = []
    for start in placements:
        window_angles = {inputs[k].heading
                         for k in range(start, start + window_length)}
        rank = full_report.rank_profile[start]
        if len(window_angles) > 1:
            if rank != 4:
                failures.append((int(start), rank, "expected 4"))
        else:
            if rank > 2:
                failures.append((int(start), rank, "expected <= 2"))
    ok = not failures
    report(
        "criterion 4 (observability rank)", ok,
        f"100 randomized windows of {window_length} classified correctly"
        if ok else f"misclassified windows: {failures[:5]}")


def linear_kalman_step(mean, cov, d, h, r, q):
    cov = cov + q
    innov_cov = h @ cov @ h.T + r
    gain = cov @ h.T @ np.linalg.inv(innov_cov)
    mean = mean + gain @ (d - h @ mean)
    cov = (np.eye(mean.size) - gain @ h) @ cov
    return mean, cov


def test_criterion_5_linear_kf_equivalence():
    model = CompositeModel(components=(map_translation(),))
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = UkfConfig(process_noise=0.1 * np.eye(2), initial_mean=np.zeros(2),
                        initial_covariance=10.0 * np.eye(2))
        d, r = np.empty((1, 100, 2)), np.empty((100, 2, 2))
        for k in range(100):
            d[0, k] = rng.normal(size=2) * 5.0
            r[k] = np.diag(rng.uniform(0.01, 0.5, 2))
        inputs = KinematicInput(t=np.arange(100.0), heading=np.zeros(100),
                                ref_position=np.zeros((100, 2)), heading_rate=np.zeros(100))
        mean = cfg.initial_mean.copy()
        cov = cfg.initial_covariance.copy()
        for k, (means, covs, *_) in enumerate(filter_steps(model, cfg, d, r, inputs)):
            mean, cov = linear_kalman_step(mean, cov, d[0, k], np.eye(2), r[k],
                                           cfg.process_noise)
            worst = max(worst,
                        np.abs(means[0] - mean).max(),
                        np.abs(covs[0] - cov).max())
    ok = worst < 1e-8
    report(
        "criterion 5 (linear KF equivalence)", ok,
        f"max |UKF - KF| deviation {worst:.2e} over 10 seeds x 100 steps (< 1e-8)")


def test_criterion_6_covariance_composition():
    n = 10_000
    trajectory = synthesize_trajectory("straight", n)
    injection = InjectionConfig(TRUE_PARAMS, TOTAL_SIGMA_M, rng_seed=MASTER_SEED)
    d, r, inputs = one_run(trajectory, injection)
    r_inv = np.linalg.inv(r[0])
    residuals = d[0] - BODY_MAP.evaluate(TRUE_PARAMS, inputs)
    statistic = float(np.einsum("ki,ij,kj->", residuals, r_inv, residuals))
    dof = 2 * n
    lo, hi = stats.chi2.ppf([0.005, 0.995], dof)
    ok = lo <= statistic <= hi
    report(
        "criterion 6 (covariance composition)", ok,
        f"chi-square statistic {statistic:.1f} within 99% interval "
        f"[{lo:.1f}, {hi:.1f}] at {dof} dof")


def test_criterion_7_round_trip():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=4) * 5.0
        angle = rng.uniform(-np.pi, np.pi)
        rate = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
        d = rotation_matrix(angle) @ x[:2] + x[2:]
        d_rate = rate * (rotation_matrix(angle) @ SPIN @ x[:2])
        recovered = closed_form_decomposition(d, d_rate, angle, rate)
        scale = np.maximum(np.abs(x), 1.0)
        worst = max(worst, float(np.max(np.abs(recovered - x) / scale)))
    ok = worst < 1e-9
    report(
        "criterion 7 (round trip)", ok,
        f"max relative recovery error {worst:.2e} over 1000 draws (< 1e-9)")


def test_criterion_8_jumps_at_turning_points(corner_result):
    series, _ = corner_result
    trajectory = experiment_config("corner", 200).trajectory.series
    angles = np.unwrap([s.heading for s in trajectory])
    changing = np.abs(np.diff(angles)) > 1e-9
    onsets = np.where(np.diff(np.concatenate([[0], changing.astype(int)])) == 1)[0]
    assert len(onsets) == 5

    total_mse = series.mse.sum(axis=1)
    delta = np.abs(np.diff(total_mse))
    turn_mask = np.zeros(delta.size, dtype=bool)
    for onset in onsets:
        turn_mask[max(onset - 1, 0):onset + 20] = True
    off_turn_median = float(np.median(delta[~turn_mask]))
    jumps = [float(delta[max(onset - 1, 1):onset + 4].max()) for onset in onsets]
    exceeding = sum(j > off_turn_median for j in jumps)
    ok = exceeding >= 4
    report(
        "criterion 8 (jumps at turning points)", ok,
        f"{exceeding} of 5 turn-onset MSE changes exceed the off-turn median "
        f"({off_turn_median:.2e})")


def test_criterion_9_reproducibility(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "corner.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["experiment", "--config", str(config), "--runs", "10",
                         "--out", str(out)])
        assert code == 0
    same_mse = (out_a / "mse.csv").read_bytes() == (out_b / "mse.csv").read_bytes()
    same_summary = ((out_a / "summary.txt").read_bytes()
                    == (out_b / "summary.txt").read_bytes())
    ok = same_mse and same_summary
    report(
        "criterion 9 (reproducibility)", ok,
        "repeated experiment invocations with identical config and seed "
        "produced byte-identical result files")
