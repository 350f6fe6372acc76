import re

import numpy as np
import pytest

from locdecomp.error_models import KinematicInput
from locdecomp.exceptions import DimensionMismatch
from locdecomp.frames import (as_count, as_points, as_real, heading_rates, normalize_angle,
                              rotate, rotation_matrix)


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(rotation_matrix(np.pi / 2) @ np.array([2.0, 1.0]),
                                   [-1.0, 2.0], atol=1e-12)

    def test_half_turn_is_point_reflection(self):
        v = np.array([3.7, -1.2])
        np.testing.assert_allclose(rotation_matrix(np.pi) @ v, -v, atol=1e-12)

    @pytest.mark.parametrize("gamma", [-2.5, -0.3, 0.0, 0.7, 3.0])
    def test_determinant_is_one(self, gamma):
        assert np.linalg.det(rotation_matrix(gamma)) == pytest.approx(1.0, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g1, g2 = rng.uniform(-np.pi, np.pi, 2)
            np.testing.assert_allclose(
                rotation_matrix(g1) @ rotation_matrix(g2),
                rotation_matrix(g1 + g2), atol=1e-12)


class TestBodyToNav:
    """A body-frame vector reaches the navigation frame by :func:`rotate`
    through the heading, and returns by minus the heading."""

    def test_identity_at_zero_heading(self):
        np.testing.assert_allclose(rotate([1.0, 0.0], 0.0), [1.0, 0.0])

    def test_quarter_turn(self):
        np.testing.assert_allclose(rotate([2.0, 1.0], np.pi / 2),
                                   [-1.0, 2.0], atol=1e-12)

    def test_matches_direct_matrix_multiply(self):
        gamma = 0.3
        c, s = np.cos(gamma), np.sin(gamma)
        expected = np.array([[c, -s], [s, c]]) @ np.array([2.0, 1.0])
        np.testing.assert_allclose(rotate([2.0, 1.0], gamma), expected,
                                   rtol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=2) * 10.0
            gamma = rng.uniform(-10.0, 10.0)
            assert np.linalg.norm(rotate(v, gamma)) == pytest.approx(
                np.linalg.norm(v), rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = rng.normal(size=2) * 5.0
            gamma = rng.uniform(-10.0, 10.0)
            np.testing.assert_allclose(rotate(rotate(v, gamma), -gamma),
                                       v, atol=1e-12)


class TestNormalizeAngle:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (np.pi, np.pi),            # pi stays pi: the interval is (-pi, pi]
        (-np.pi, np.pi),
        (3 * np.pi, np.pi),
        (2 * np.pi, 0.0),
        (np.pi + 0.1, -np.pi + 0.1),
    ])
    def test_values(self, angle, expected):
        assert normalize_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_array_input(self):
        out = normalize_angle(np.array([0.0, 3 * np.pi, -0.2]))
        np.testing.assert_allclose(out, [0.0, np.pi, -0.2], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(-20.0, 20.0, 200)
        once = normalize_angle(angles)
        np.testing.assert_allclose(normalize_angle(once), once, atol=1e-12)
        assert np.all(once > -np.pi) and np.all(once <= np.pi)


class TestHeading:
    """The heading fields of a :class:`KinematicInput`."""

    def test_normalizes_at_construction(self):
        u = KinematicInput(t=0.0, heading=3 * np.pi, ref_position=np.zeros(2),
                           heading_rate=0.1)
        assert u.heading == pytest.approx(np.pi)
        assert u.heading_rate == 0.1
        series = KinematicInput(t=np.arange(3.0), heading=[3 * np.pi, -np.pi, 0.2],
                                ref_position=np.zeros((3, 2)), heading_rate=np.zeros(3))
        np.testing.assert_allclose(series.heading, [np.pi, np.pi, 0.2], atol=1e-12)

    def test_rejects_non_finite(self):
        for heading, rate in [(np.inf, 0.0), (0.0, np.nan), ([0.0, np.nan], np.zeros(2))]:
            with pytest.raises(ValueError, match=r"^heading must be finite, got "):
                KinematicInput(t=np.arange(float(np.size(heading))), heading=heading,
                               ref_position=np.zeros((np.size(heading), 2)), heading_rate=rate)

    @pytest.mark.parametrize("heading, rate", [(np.zeros(2), np.zeros(3)),
                                               (np.zeros(3), 0.0), (0.0, np.zeros(3))])
    def test_rejects_series_shape_mismatch(self, heading, rate):
        with pytest.raises(DimensionMismatch, match="heading angles, rates and positions"):
            KinematicInput(t=np.arange(3.0), heading=heading, ref_position=np.zeros((3, 2)),
                           heading_rate=rate)


class TestAsPoints:
    @pytest.mark.parametrize("shape", [(3,), (4, 3), ()])
    def test_rejects_arrays_that_are_not_of_2_vectors(self, shape):
        with pytest.raises(ValueError, match=rf"^points must have shape \(\.\.\., 2\), "
                                             rf"got {re.escape(str(shape))}$"):
            as_points(np.zeros(shape))


class TestAsCount:
    @pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.float64(8.0)])
    def test_integral_numbers_are_accepted(self, value):
        count = as_count(value, "n")
        assert count == 8 and type(count) is int

    @pytest.mark.parametrize("bad", [8.5, True, False, "8", "abc", None,
                                     float("nan"), float("inf"), [8]])
    def test_anything_else_is_rejected_naming_the_argument(self, bad):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got "):
            as_count(bad, "n")


class TestAsReal:
    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)])
    def test_real_numbers_are_accepted(self, value):
        real = as_real(value, "x")
        assert real == 0.5 and type(real) is float

    def test_integers_are_accepted(self):
        assert as_real(2, "x") == as_real(np.int64(2), "x") == 2.0

    def test_non_finite_numbers_are_left_to_the_bound_checks(self):
        assert np.isnan(as_real(float("nan"), "x"))

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", "abc", None,
                                     [0.5], 1j])
    def test_anything_else_is_rejected_naming_the_argument(self, bad):
        with pytest.raises(ValueError, match=r"^x must be a number, got "):
            as_real(bad, "x")


class TestHeadingRates:
    def test_linear_ramp(self):
        t = np.arange(10.0)
        angles = 0.05 * t
        np.testing.assert_allclose(heading_rates(t, angles), 0.05, atol=1e-12)

    def test_wrap_crossing_has_no_spike(self):
        # constant rate path crossing the +/-pi seam
        t = np.arange(20.0)
        angles = normalize_angle(3.0 + 0.1 * t)
        np.testing.assert_allclose(heading_rates(t, angles), 0.1, atol=1e-12)

    def test_single_sample_rate_is_zero(self):
        np.testing.assert_allclose(heading_rates([0.0], [1.0]), [0.0])

    @pytest.mark.parametrize("t", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                                   [0.0, 1.0, np.nan, 3.0]])
    def test_rejects_times_that_do_not_increase(self, t):
        # a repeated time gave NaN rates and a decreasing one wrong signs
        with pytest.raises(ValueError, match="^t must strictly increase$"):
            heading_rates(t, [0.0, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize("t, angles", [
        ([0.0, 1.0, 2.0], [0.0, 0.1]), (0.0, 0.1), (np.zeros((2, 2)), np.zeros((2, 2)))])
    def test_rejects_arrays_of_another_shape(self, t, angles):
        with pytest.raises(ValueError, match="^t and angles must be 1-d arrays of equal "
                                             "length$"):
            heading_rates(t, angles)
