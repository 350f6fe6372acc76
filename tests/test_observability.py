import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from locdecomp.error_models import (CompositeModel, ErrorComponent, KinematicInput,
                                    body_offset,
                                    map_rotation, map_scale, map_translation)
from locdecomp.exceptions import DimensionMismatch, SingularTransform, ZeroTurnRate
from locdecomp.frames import rotation_matrix
from locdecomp.observability import (RANK_TOL, closed_form_decomposition,
                                     difference_rates, numerical_rank_test)
from locdecomp.simulation import synthesize_trajectory

BODY_MAP = CompositeModel(components=(body_offset(), map_translation()))
TRANSLATION_ONLY = CompositeModel(components=(map_translation(),))
BODY_MAP_ROTATION = CompositeModel(components=(body_offset(), map_translation(),
                                               map_rotation(pivot=(5.0, -3.0))))
BODY_MAP_SCALE = CompositeModel(components=(body_offset(), map_translation(),
                                            map_scale(pivot=(-2.0, 4.0))))

# derivative of the rotation matrix w.r.t. the angle, evaluated via R(g) @ J
SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])


def make_input(angle=0.0, rate=0.0, position=(0.0, 0.0), t=0.0):
    return KinematicInput(t=t, heading=angle, heading_rate=rate,
                          ref_position=np.asarray(position, dtype=float))


def make_series(angles, position=(0.0, 0.0)):
    """A series at one-second steps with the given headings, zero heading
    rates and one fixed position."""
    angles = np.asarray(angles, dtype=float)
    n = angles.size
    return KinematicInput(t=np.arange(float(n)), heading=angles, heading_rate=np.zeros(n),
                          ref_position=np.tile(position, (n, 1)))


def forward_difference_and_rate(x, angle, rate):
    """Difference vector and its analytic time derivative for BODY_MAP."""
    body, translation = x[:2], x[2:]
    d = rotation_matrix(angle) @ body + translation
    d_rate = rate * (rotation_matrix(angle) @ SPIN @ body)
    return d, d_rate


class TestNumericalRankTest:
    def test_two_distinct_headings_give_full_rank(self):
        # analytic sensitivity: rows [R(g_i) I] stacked for two headings
        jac = np.vstack([np.hstack([rotation_matrix(0.2), np.eye(2)]),
                         np.hstack([rotation_matrix(0.9), np.eye(2)])])
        assert np.linalg.matrix_rank(jac) == 4
        report = numerical_rank_test(BODY_MAP, np.zeros(4), make_series([0.2, 0.9] * 4),
                                     window_length=2)
        assert report.observable

    def test_constant_heading_stacks_are_rank_two(self):
        report = numerical_rank_test(BODY_MAP, np.zeros(4), make_series([0.4] * 8),
                                     window_length=8)
        assert report.rank_profile == [2]
        assert not report.observable

    def test_corner_segment_is_observable(self):
        trajectory = synthesize_trajectory("corner", 200)
        report = numerical_rank_test(BODY_MAP, np.zeros(4), trajectory)
        assert report.observable
        assert max(report.rank_profile) == 4

    def test_straight_segment_is_not_observable(self):
        trajectory = synthesize_trajectory("straight", 100)
        report = numerical_rank_test(BODY_MAP, np.zeros(4), trajectory)
        assert not report.observable
        assert all(rank <= 2 for rank in report.rank_profile)
        assert len(report.deficient_windows) == len(report.rank_profile)

    def test_straight_windows_are_degenerate_for_heading_models(self):
        trajectory = synthesize_trajectory("straight", 30)
        report = numerical_rank_test(BODY_MAP, np.zeros(4), trajectory)
        assert len(report.degenerate_windows) == len(report.window_starts)

    def test_translation_only_is_observable_anywhere(self):
        trajectory = synthesize_trajectory("straight", 20)
        report = numerical_rank_test(TRANSLATION_ONLY, np.zeros(2), trajectory)
        assert report.observable
        assert all(rank == 2 for rank in report.rank_profile)
        # its Jacobian never varies, but a full-rank window is not degenerate
        assert report.degenerate_windows == []

    def test_inseparable_state_independent_model_is_degenerate_everywhere(self):
        model = CompositeModel(components=(map_translation(), map_translation()))
        report = numerical_rank_test(model, np.zeros(4), synthesize_trajectory("corner", 30))
        assert report.rank_profile == [2] * len(report.window_starts)
        assert report.degenerate_windows == report.deficient_windows
        assert len(report.degenerate_windows) == len(report.window_starts)

    def test_degenerate_windows_follow_what_the_model_reads(self):
        # the heading rate varies, the heading does not: a body offset reads
        # only the heading, so a constant heading gives it nothing to gain
        inputs = synthesize_trajectory("straight", 30)
        inputs = replace(inputs, heading_rate=np.linspace(0.0, 1.0, 30))
        report = numerical_rank_test(BODY_MAP, np.zeros(4), inputs)
        assert len(report.degenerate_windows) == len(report.window_starts)

    def test_rank_invariant_under_time_rescaling(self):
        inputs = synthesize_trajectory("corner", 120)
        rescaled = replace(inputs, t=inputs.t * 37.0)
        a = numerical_rank_test(BODY_MAP, np.zeros(4), inputs)
        b = numerical_rank_test(BODY_MAP, np.zeros(4), rescaled)
        assert a.rank_profile == b.rank_profile

    def test_report_invariant(self):
        trajectory = synthesize_trajectory("corner", 120)
        report = numerical_rank_test(BODY_MAP, np.zeros(4), trajectory)
        assert report.observable == any(r == report.state_dim
                                        for r in report.rank_profile)
        assert len(report.condition_numbers) == len(report.window_starts)


    @pytest.mark.parametrize("ratio, rank", [(1e-7, 2), (1e-9, 1)])
    def test_rank_counts_singular_values_above_rank_tol(self, ratio, rank):
        # every sample's Jacobian is diag(1, ratio), so the stacked window's
        # singular values stand in that ratio: one counts only above RANK_TOL
        scaled = ErrorComponent("scaled", 2, lambda p, u: p * [1.0, ratio])
        report = numerical_rank_test(CompositeModel(components=(scaled,)), np.zeros(2),
                                     make_series([0.0, 0.5, 1.0, 1.5]))
        assert report.rank_profile == [rank]
        assert report.observable == (rank == 2)
        assert report.condition_numbers[0] == pytest.approx(1.0 / ratio, rel=1e-6)


def reference_rank_test(model, x0, inputs, window_length):
    """The rank test window by window: a central-difference Jacobian of each
    window's stacked output map and one SVD per window.

    Returns ranks, condition numbers, deficient and degenerate windows; a
    deficient window is degenerate when every sample's two rows of its
    Jacobian equal the first sample's.
    """
    x0 = np.asarray(x0, dtype=float)
    n, wl = model.state_dim, window_length
    ranks, conds, deficient, degenerate = [], [], [], []
    for start in range(len(inputs) - wl + 1):
        window = inputs[start:start + wl]
        cols = []
        for j in range(n):
            h = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            cols.append((np.concatenate([model.evaluate(xp, u) for u in window])
                         - np.concatenate([model.evaluate(xm, u) for u in window]))
                        / (2.0 * h))
        jac = np.column_stack(cols)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[0] > 0.0:
            rank = int(np.sum(sv > RANK_TOL * sv[0]))
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
        else:
            rank, cond = 0, float("inf")
        ranks.append(rank)
        conds.append(cond)
        if rank < n:
            deficient.append((start, start + wl))
            if (jac.reshape(wl, 2, n) == jac[:2]).all():
                degenerate.append((start, start + wl))
    return ranks, conds, deficient, degenerate


def assert_matches_reference(model, x0, inputs, window_length):
    report = numerical_rank_test(model, x0, inputs, window_length=window_length)
    ranks, conds, deficient, degenerate = reference_rank_test(model, x0, inputs,
                                                              window_length)
    assert report.window_starts == list(range(len(ranks)))
    assert report.rank_profile == ranks
    assert report.deficient_windows == deficient
    assert report.degenerate_windows == degenerate
    assert report.observable == any(r == model.state_dim for r in ranks)
    full = np.array(ranks) == model.state_dim
    np.testing.assert_allclose(np.array(report.condition_numbers)[full],
                               np.array(conds)[full], rtol=1e-6)
    return report


def corner_inputs(n_samples=120):
    # 120 samples turn over 12 and run straight over legs of 10, so a window
    # of up to 10 samples fits on a leg
    return synthesize_trajectory("corner", n_samples)


class TestRankTestEquivalence:
    """The per-sample batched rank test against the per-window reference."""

    @pytest.mark.parametrize("model, x0", [
        (BODY_MAP_ROTATION, [2.0, 1.0, 3.0, 2.0, 0.01]),
        (BODY_MAP_ROTATION, np.zeros(5)),
        (BODY_MAP_SCALE, [2.0, -1.0, 3.0, 2.0, 0.02]),
        (BODY_MAP, [2.0, 1.0, 3.0, 2.0]),
    ])
    def test_corner(self, model, x0):
        report = assert_matches_reference(model, x0, corner_inputs(), 2 * model.state_dim)
        assert report.observable and report.deficient_windows

    @pytest.mark.parametrize("model", [BODY_MAP, BODY_MAP_ROTATION])
    def test_repeated_samples_give_degenerate_windows(self, model):
        inputs = corner_inputs(60)
        inputs = inputs[np.r_[0:25, [25] * 14, 26:60]]
        report = assert_matches_reference(model, np.zeros(model.state_dim), inputs,
                                          2 * model.state_dim)
        assert report.degenerate_windows

    def test_translation_only(self):
        inputs = corner_inputs(30)
        report = assert_matches_reference(TRANSLATION_ONLY, [3.0, -2.0],
                                          inputs[np.r_[0:10, [10] * 6]], 4)
        assert all(r == 2 for r in report.rank_profile)
        assert report.degenerate_windows == []

    @pytest.mark.parametrize("model", [BODY_MAP, BODY_MAP_ROTATION])
    def test_minimum_window_length(self, model):
        inputs = corner_inputs(60)
        inputs = inputs[np.r_[0:30, [30] * 4, 31:60]]
        report = assert_matches_reference(model, np.zeros(model.state_dim), inputs,
                                          -(-model.state_dim // 2))
        assert report.degenerate_windows

    @pytest.mark.parametrize("model, rank", [
        (CompositeModel(components=(map_rotation(pivot=(5.0, -3.0)),)), 0),
        (BODY_MAP_ROTATION, 4)])
    def test_zero_singular_values(self, model, rank):
        # at the pivot a map rotation moves nothing: its Jacobian column is 0
        inputs = make_series(0.1 * np.arange(12), position=(5.0, -3.0))
        report = assert_matches_reference(model, np.zeros(model.state_dim), inputs,
                                          2 * model.state_dim)
        _, conds, _, _ = reference_rank_test(model, np.zeros(model.state_dim), inputs,
                                             2 * model.state_dim)
        assert set(report.rank_profile) == {rank}
        assert report.condition_numbers == conds == [np.inf] * len(conds)

    def test_memory_stays_below_one_copy_of_the_stacked_windows(self):
        inputs = synthesize_trajectory("corner", 5000)
        model = CompositeModel(components=(
            body_offset(), map_translation(),
            map_rotation(pivot=inputs.ref_position.mean(axis=0))))
        x0 = [2.0, 1.0, 3.0, 2.0, 0.01]
        wl, n = 200, model.state_dim
        numerical_rank_test(model, x0, inputs, window_length=wl)  # lazy imports
        tracemalloc.start()
        try:
            report = numerical_rank_test(model, x0, inputs, window_length=wl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacked = len(report.window_starts) * 2 * wl * n * 8  # one copy, in bytes
        assert peak < stacked / 4
        assert set(report.rank_profile) == {3, 4, 5}


class TestRankTestArguments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="x0"):
            numerical_rank_test(BODY_MAP, [0.0, bad, 0.0, 0.0], corner_inputs(40))

    def test_rejects_x0_at_which_a_deformation_is_singular(self):
        # the central differences step over the singular point: a scale
        # deviation of -1 was reported observable, every condition number 1.0
        model = CompositeModel(components=(map_scale(),))
        with pytest.raises(SingularTransform, match="^scale factor 0.0 is not invertible$"):
            numerical_rank_test(model, [-1.0], synthesize_trajectory("corner", 200))

    def test_arguments_are_model_state_inputs_and_window(self):
        # the rank cutoff is the module's RANK_TOL, not an argument
        assert list(inspect.signature(numerical_rank_test).parameters) == [
            "model", "x0", "inputs", "window_length"]

    @pytest.mark.parametrize("bad", [8.9, 2.5, True, False, "8", "abc"])
    def test_rejects_non_integer_window_length(self, bad):
        # truncating ran 8.9 as a window of 8 and 2.5 as one of 2, and "8" as 8
        with pytest.raises(ValueError,
                           match=f"^window_length must be an integer, got {bad!r}$"):
            numerical_rank_test(BODY_MAP, np.zeros(4), corner_inputs(40),
                                window_length=bad)

    def test_integral_float_window_length_is_accepted(self):
        report = numerical_rank_test(BODY_MAP, np.zeros(4), corner_inputs(40),
                                     window_length=8.0)
        assert report.window_length == 8

    @pytest.mark.parametrize("model", [BODY_MAP, BODY_MAP_ROTATION])
    def test_rejects_series_with_run_axis(self, model):
        # with a map_rotation this gave numpy's broadcast error, and without
        # one a report over the first run's shape
        inputs = corner_inputs(40)
        runs = replace(inputs, ref_position=np.stack([inputs.ref_position] * 3))
        with pytest.raises(DimensionMismatch,
                           match=r"ref_position must have shape \(40, 2\), got \(3, 40, 2\)"):
            numerical_rank_test(model, np.zeros(model.state_dim), runs)


class TestClosedFormDecomposition:
    def test_recovers_known_parameters(self):
        x = np.array([2.0, 1.0, 3.0, 2.0])
        d, d_rate = forward_difference_and_rate(x, angle=0.7, rate=0.2)
        recovered = closed_form_decomposition(d, d_rate, 0.7, 0.2)
        np.testing.assert_allclose(recovered, x, atol=1e-12)

    def test_zero_body_offset(self):
        d = np.array([3.0, 2.0])
        recovered = closed_form_decomposition(d, np.zeros(2), 1.1, 0.5)
        np.testing.assert_allclose(recovered, [0.0, 0.0, 3.0, 2.0], atol=1e-12)

    def test_zero_turn_rate_raises(self):
        with pytest.raises(ZeroTurnRate):
            closed_form_decomposition(np.zeros(2), np.zeros(2), 0.3, 0.0)
        with pytest.raises(ZeroTurnRate):
            closed_form_decomposition(np.zeros(2), np.zeros(2), 0.3, 5e-4)

    def test_broadcasts_over_samples(self):
        # one call over a series equals the scalar calls bit for bit, and a
        # scalar call keeps its (4,) shape
        rng = np.random.default_rng(5)
        d, d_rate = rng.normal(size=(2, 50, 2))
        angle = rng.uniform(-np.pi, np.pi, 50)
        rate = rng.uniform(0.05, 2.0, 50) * rng.choice([-1.0, 1.0], 50)
        batch = closed_form_decomposition(d, d_rate, angle, rate)
        assert batch.shape == (50, 4)
        single = [closed_form_decomposition(d[k], d_rate[k], float(angle[k]), float(rate[k]))
                  for k in range(50)]
        assert single[0].shape == (4,)
        np.testing.assert_array_equal(batch, single)

    def test_nan_turn_rate_raises(self):
        # NaN <= MIN_TURN_RATE is false, so the guard returned NaN estimates
        with pytest.raises(ZeroTurnRate, match=r"^\|heading rate\| = nan <= 0.001"):
            closed_form_decomposition(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3),
                                      [0.5, np.nan, 0.2])

    def test_empty_input_gives_empty_estimates(self):
        # the guard's minimum over no rates raised numpy's "zero-size array"
        out = closed_form_decomposition(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0),
                                        np.zeros(0))
        assert out.shape == (0, 4)

    def test_arguments_are_differences_and_headings(self):
        # the turn-rate floor is the module's MIN_TURN_RATE, not an argument
        assert list(inspect.signature(closed_form_decomposition).parameters) == [
            "d", "d_rate", "heading_angle", "heading_rate"]

    @pytest.mark.parametrize("rate, turning", [(1e-3, False), (-1e-3, False),
                                               (1.001e-3, True), (-1.001e-3, True)])
    def test_turn_rate_floor_is_strict_in_magnitude(self, rate, turning):
        # a left and a right turn meet the same floor, and a rate at the
        # floor is too slow
        x = np.array([2.0, 1.0, 3.0, 2.0])
        d, d_rate = forward_difference_and_rate(x, angle=0.7, rate=rate)
        if turning:
            np.testing.assert_allclose(closed_form_decomposition(d, d_rate, 0.7, rate), x,
                                       rtol=1e-9)
        else:
            with pytest.raises(ZeroTurnRate, match=rf"^\|heading rate\| = {abs(rate)} "
                                                   rf"<= 0.001"):
                closed_form_decomposition(d, d_rate, 0.7, rate)

    def test_any_slow_sample_raises(self):
        with pytest.raises(ZeroTurnRate, match=r"\|heading rate\| = 0.0005 <= 0.001"):
            closed_form_decomposition(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3),
                                      [0.5, -5e-4, 0.2])

    def test_round_trip_random_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            x = rng.normal(size=4) * 5.0
            angle = rng.uniform(-np.pi, np.pi)
            rate = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
            d, d_rate = forward_difference_and_rate(x, angle, rate)
            recovered = closed_form_decomposition(d, d_rate, angle, rate)
            np.testing.assert_allclose(recovered, x, rtol=1e-9, atol=1e-9)

    def test_agrees_with_rank_test_on_turning_windows(self):
        inputs = synthesize_trajectory("corner", 100)
        report = numerical_rank_test(BODY_MAP, np.zeros(4), inputs,
                                     window_length=2)
        x = np.array([2.0, 1.0, 3.0, 2.0])
        for start, rank in zip(report.window_starts, report.rank_profile):
            u = inputs[start]
            next_u = inputs[start + 1]
            turning = abs(next_u.heading - u.heading) > 1e-12
            if turning:
                assert rank == 4
            else:
                assert rank == 2


class TestDifferenceRates:
    def test_arguments_are_times_and_series(self):
        # the smoothing window is the module's SMOOTH_WINDOW, not an argument
        assert list(inspect.signature(difference_rates).parameters) == ["t", "d_series"]

    @pytest.mark.parametrize("n", [3, 4, 30])
    def test_matches_moving_average_then_gradient(self, n):
        # an independent reference: the 3-sample moving average with the end
        # samples repeated, then numpy's central differences; 3 samples are
        # one window wide
        rng = np.random.default_rng(15)
        t = np.cumsum(rng.uniform(0.5, 1.5, n))
        d = rng.normal(size=(n, 2))
        padded = np.concatenate([d[:1], d, d[-1:]])
        smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        np.testing.assert_allclose(difference_rates(t, d),
                                   np.gradient(smooth, t, axis=0), rtol=0.0, atol=1e-12)

    def test_smoothing_attenuates_noise(self):
        rng = np.random.default_rng(14)
        t = np.arange(200.0)
        d = np.column_stack([0.5 * t, -0.2 * t]) + rng.normal(0, 0.1, (200, 2))
        raw = np.gradient(d, t, axis=0)
        smooth = difference_rates(t, d)
        truth = np.tile([0.5, -0.2], (200, 1))
        assert (np.linalg.norm(smooth - truth)
                < np.linalg.norm(raw - truth))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_window_wider_than_the_series(self, n):
        # such a window flattened the rates toward zero, and the oracle's
        # body offset with them
        t = np.arange(3.0)
        d = np.column_stack([t, -t])
        assert np.isfinite(difference_rates(t, d)).all()
        with pytest.raises(ValueError, match=rf"^the 3-sample smoothing window "
                                             rf"\(SMOOTH_WINDOW\) is wider than the "
                                             rf"series of {n} samples$"):
            difference_rates(t[:n], d[:n])

    @pytest.mark.parametrize("t", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                                   [0.0, 1.0, np.nan, 3.0]])
    def test_rejects_times_that_do_not_increase(self, t):
        # a repeated time gave NaN rows and a decreasing one wrong signs
        d = np.column_stack([np.arange(4.0), -np.arange(4.0)])
        with pytest.raises(ValueError, match="^t must strictly increase$"):
            difference_rates(t, d)
