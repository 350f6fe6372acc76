import io

import numpy as np
import pytest

from locdecomp.error_models import CompositeModel, body_offset, map_translation
from locdecomp.exceptions import (DimensionMismatch, NonMonotoneTime, ParseError)
from locdecomp.simulation import (InjectionConfig, inject_runs, load_trajectory,
                                  synthesize_trajectory)

BODY_MAP = CompositeModel(components=(body_offset(), map_translation()))


def inject_one(trajectory, cfg):
    """One run of ``inject_runs`` at ``cfg.rng_seed``: both localizer outputs
    (N, 2) and the series carrying the measured reference positions (1, N, 2)."""
    inputs, p_other, _ = inject_runs(trajectory, cfg, BODY_MAP, [cfg.rng_seed])
    return inputs.ref_position[0], p_other[0], inputs


def count_heading_change_events(trajectory):
    angles = np.array([s.heading.angle for s in trajectory])
    changing = np.abs(np.diff(np.unwrap(angles))) > 1e-9
    # count maximal runs of consecutive changes
    return int(np.sum(np.diff(np.concatenate([[0], changing.astype(int)])) == 1))


class TestLoadTrajectory:
    def test_well_formed_file(self):
        content = io.StringIO(
            "# t_s, east_m, north_m, heading_rad\n"
            "0.0, 1.0, 2.0, 0.1\n"
            "1.0, 2.0, 3.0, 0.2\n"
            "2.0, 3.0, 4.0, 0.3\n")
        samples = load_trajectory(content)
        assert len(samples) == 3
        np.testing.assert_allclose(samples[1].ref_position, [2.0, 3.0])
        assert samples[2].heading.angle == pytest.approx(0.3)
        # central differences over the heading column
        assert samples[1].heading.rate == pytest.approx(0.1)

    def test_duplicate_timestamp(self):
        content = io.StringIO("0.0, 1.0, 2.0\n0.0, 2.0, 3.0\n")
        with pytest.raises(NonMonotoneTime):
            load_trajectory(content)

    def test_decreasing_timestamp(self):
        content = io.StringIO("1.0, 1.0, 2.0\n0.5, 2.0, 3.0\n")
        with pytest.raises(NonMonotoneTime):
            load_trajectory(content)

    def test_headings_derived_from_bearings(self):
        content = io.StringIO(
            "0.0, 0.0, 0.0\n"
            "1.0, 1.0, 0.0\n"
            "2.0, 1.0, 1.0\n")
        samples = load_trajectory(content)
        deltas = [(1.0, 0.0), (0.0, 1.0)]
        expected = [np.arctan2(dn, de) for de, dn in deltas]
        assert samples[0].heading.angle == pytest.approx(expected[0])
        assert samples[1].heading.angle == pytest.approx(expected[1])
        assert samples[2].heading.angle == pytest.approx(expected[1])

    def test_parse_error_carries_line_number(self):
        content = io.StringIO("0.0, 1.0, 2.0\n1.0, oops, 2.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_trajectory(content)
        assert excinfo.value.line == 2

    def test_missing_decimal_point_rejected(self):
        content = io.StringIO("0, 1.0, 2.0\n")
        with pytest.raises(ParseError):
            load_trajectory(content)

    def test_wrong_column_count(self):
        with pytest.raises(ParseError):
            load_trajectory(io.StringIO("0.0, 1.0\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_trajectory(io.StringIO("# only comments\n"))

    def test_round_trips_through_a_real_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.0, 0.0, 0.0, 0.0\n1.0, 10.0, 0.0, 0.0\n")
        samples = load_trajectory(path)
        assert len(samples) == 2


    def test_repeated_position_without_headings_rejected(self):
        # heading south, pausing one sample: its bearing would read 0, two
        # fake quarter turns
        content = io.StringIO(
            "# t_s, east_m, north_m\n"
            "0.0, 0.0, 3.0\n"
            "1.0, 0.0, 2.0\n"
            "2.0, 0.0, 2.0\n"
            "3.0, 0.0, 1.0\n")
        with pytest.raises(ParseError, match="heading_rad") as excinfo:
            load_trajectory(content)
        assert excinfo.value.line == 4

    def test_repeated_position_with_headings_accepted(self):
        content = io.StringIO("0.0, 0.0, 2.0, -1.5\n1.0, 0.0, 2.0, -1.5\n")
        np.testing.assert_array_equal(load_trajectory(content).heading.angle, [-1.5, -1.5])


class TestSynthesizeTrajectory:
    def test_straight_headings_all_equal(self):
        trajectory = synthesize_trajectory("straight", 100)
        angles = {s.heading.angle for s in trajectory}
        assert len(angles) == 1
        assert len(trajectory) == 100

    def test_corner_has_exactly_five_turn_events(self):
        trajectory = synthesize_trajectory("corner", 200)
        assert len(trajectory) == 200
        assert count_heading_change_events(trajectory) == 5

    def test_corner_turns_are_quarter_turns(self):
        trajectory = synthesize_trajectory("corner", 200)
        angles = np.unwrap([s.heading.angle for s in trajectory])
        total_sweep = np.abs(np.diff(angles)).sum()
        assert total_sweep == pytest.approx(5 * np.pi / 2, rel=1e-9)

    def test_minimal_two_sample_straight(self):
        trajectory = synthesize_trajectory("straight", 2)
        assert len(trajectory) == 2
        step = np.linalg.norm(trajectory[1].ref_position - trajectory[0].ref_position)
        assert step == pytest.approx(10.0)

    @pytest.mark.parametrize("n", [20, 21, 33, 40])
    def test_small_corner_still_has_five_events(self, n):
        trajectory = synthesize_trajectory("corner", n)
        assert len(trajectory) == n
        assert count_heading_change_events(trajectory) == 5

    def test_corner_too_small_for_five_turns_rejected(self):
        with pytest.raises(ValueError, match="corner segment"):
            synthesize_trajectory("corner", 19)

    @pytest.mark.parametrize("turn", [0, 999])
    def test_out_of_range_turn_samples_rejected(self, turn):
        # the turn length was clamped silently, to 1 and to 8 samples
        with pytest.raises(ValueError, match=rf"^turn_samples must be in \[1, 8\] for 50 "
                                             rf"samples, got {turn}$"):
            synthesize_trajectory("corner", 50, turn_samples=turn)

    @pytest.mark.parametrize("turn", [2.5, True, 3.0000001, float("nan"), "8", "abc"])
    def test_non_integral_turn_samples_rejected(self, turn):
        # 2.5 was truncated to 2, True read as 1, and "abc" failed naming no argument
        with pytest.raises(ValueError, match=rf"^turn_samples must be an integer, "
                                             rf"got {turn!r}$"):
            synthesize_trajectory("corner", 50, turn_samples=turn)

    def test_turn_samples_at_the_bounds_are_kept(self):
        for turn in (1, 8, 8.0):
            angles = synthesize_trajectory("corner", 50, turn_samples=turn).heading.angle
            assert np.count_nonzero(np.diff(angles)) == 5 * turn

    def test_timestamps_use_step(self):
        trajectory = synthesize_trajectory("straight", 5, step=0.25)
        np.testing.assert_allclose([s.t for s in trajectory],
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            synthesize_trajectory("circle", 10)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            synthesize_trajectory("straight", 1)

    @pytest.mark.parametrize("bad", [50.5, True, "8", "abc", None])
    def test_non_integral_n_samples_rejected(self, bad):
        # "abc", None and 50.5 raised a TypeError naming no argument
        with pytest.raises(ValueError, match=rf"^n_samples must be an integer, "
                                             rf"got {bad!r}$"):
            synthesize_trajectory("corner", bad)

    def test_integral_float_n_samples_is_accepted(self):
        assert len(synthesize_trajectory("corner", 50.0)) == 50

    @pytest.mark.parametrize("kind", ["straight", "corner"])
    @pytest.mark.parametrize("name, value", [
        ("step", np.nan), ("step", np.inf), ("speed", np.nan), ("speed", -np.inf),
        ("initial_heading", np.nan), ("initial_heading", np.inf)])
    def test_rejects_non_finite_settings_naming_the_field(self, kind, name, value):
        # they failed later, in the series' own check, with an array dump
        with pytest.raises(ValueError, match=rf"^{name} must be finite( and > 0)?, "
                                             rf"got {value}$"):
            synthesize_trajectory(kind, 50, **{name: value})


class TestInjectErrors:
    def test_noiseless_constant_heading_difference(self):
        trajectory = synthesize_trajectory("straight", 20)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0],
                              noise_sigma_ref=0.0, noise_sigma_other=0.0,
                              rng_seed=1)
        p_ref, p_other, _ = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, np.tile([5.0, 3.0], (20, 1)),
                                   atol=1e-12)

    def test_noiseless_neutral_parameters_give_zero_difference(self):
        trajectory = synthesize_trajectory("corner", 30)
        cfg = InjectionConfig(true_params=np.zeros(BODY_MAP.state_dim),
                              noise_sigma_ref=0.0, noise_sigma_other=0.0,
                              rng_seed=1)
        p_ref, p_other, _ = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, np.zeros((30, 2)), atol=1e-12)

    def test_noiseless_difference_matches_model_exactly(self):
        trajectory = synthesize_trajectory("corner", 50)
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = InjectionConfig(true_params=true, noise_sigma_ref=0.0,
                              noise_sigma_other=0.0, rng_seed=3)
        p_ref, p_other, u = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, BODY_MAP.evaluate(true, u),
                                   atol=1e-12)

    def test_deterministic_for_equal_seeds(self):
        trajectory = synthesize_trajectory("straight", 50)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0],
                              noise_sigma_ref=0.1, noise_sigma_other=0.1,
                              rng_seed=42)
        a = inject_one(trajectory, cfg)
        b = inject_one(trajectory, cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        trajectory = synthesize_trajectory("straight", 10)
        base = dict(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_ref=0.1,
                    noise_sigma_other=0.1)
        a_ref, a_other, _ = inject_one(trajectory, InjectionConfig(rng_seed=1, **base))
        b_ref, b_other, _ = inject_one(trajectory, InjectionConfig(rng_seed=2, **base))
        assert not np.allclose(a_ref[0] - a_other[0], b_ref[0] - b_other[0])

    def test_returns_the_record_that_filter_runs_reads(self):
        # the series carries each run's measured reference positions, and r
        # the difference covariance at every step
        trajectory = synthesize_trajectory("corner", 30)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_ref=0.1,
                              noise_sigma_other=0.2, rng_seed=0)
        seeds = [5, 6, 7]
        inputs, p_other, r = inject_runs(trajectory, cfg, BODY_MAP, seeds)
        assert inputs.ref_position.shape == p_other.shape == (3, 30, 2)
        for i, seed in enumerate(seeds):
            noise = np.random.default_rng(seed).normal(0.0, 0.1, (30, 2))
            np.testing.assert_array_equal(inputs.ref_position[i],
                                          trajectory.ref_position + noise)
        np.testing.assert_array_equal(inputs.t, trajectory.t)
        np.testing.assert_array_equal(inputs.heading.angle, trajectory.heading.angle)
        np.testing.assert_array_equal(r, np.tile((0.1 ** 2 + 0.2 ** 2) * np.eye(2), (30, 1, 1)))

    def test_observation_covariance_is_sum_of_localizer_variances(self):
        cfg = InjectionConfig.with_total_sigma([0.0, 0.0], 0.2, rng_seed=0)
        np.testing.assert_allclose(cfg.observation_covariance(),
                                   0.04 * np.eye(2), rtol=1e-12)

    def test_sample_covariance_matches_configured_noise(self):
        trajectory = synthesize_trajectory("straight", 10_000)
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = InjectionConfig.with_total_sigma(true, 0.2, rng_seed=7)
        p_ref, p_other, u = inject_one(trajectory, cfg)
        residuals = p_ref - p_other - BODY_MAP.evaluate(true, u)
        sample_cov = np.cov(residuals.T)
        np.testing.assert_allclose(np.diag(sample_cov), [0.04, 0.04], rtol=0.1)

    def test_dimension_mismatch(self):
        trajectory = synthesize_trajectory("straight", 5)
        cfg = InjectionConfig(true_params=[1.0, 2.0], noise_sigma_ref=0.0,
                              noise_sigma_other=0.0, rng_seed=0)
        with pytest.raises(DimensionMismatch):
            inject_one(trajectory, cfg)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            InjectionConfig(true_params=[0.0], noise_sigma_ref=-0.1,
                            noise_sigma_other=0.0, rng_seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_settings_naming_the_field(self, value):
        # a non-finite setting failed only when the runs started
        base = dict(true_params=[1.0, 2.0], noise_sigma_ref=0.1,
                    noise_sigma_other=0.1, rng_seed=0)
        with pytest.raises(ValueError, match="^true_params must be finite, got "):
            InjectionConfig(**dict(base, true_params=[1.0, value]))
        for name in ("noise_sigma_ref", "noise_sigma_other"):
            with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got "):
                InjectionConfig(**dict(base, **{name: value}))
        with pytest.raises(ValueError, match="^total_sigma must be finite and >= 0, got "):
            InjectionConfig.with_total_sigma([1.0, 2.0], value, rng_seed=0)
        with pytest.raises(ValueError, match="^true_params must be finite, got "):
            InjectionConfig.with_total_sigma([value, 2.0], 0.2, rng_seed=0)

