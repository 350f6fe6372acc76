import numpy as np
import pytest

from locdecomp.error_models import (CompositeModel, KinematicInput, body_offset,
                                    map_rotation, map_scale, map_shear,
                                    map_translation)
from locdecomp.exceptions import DimensionMismatch, SingularTransform
from locdecomp.frames import Heading, rotate, rotation_matrix


def evaluate(comp, params, u):
    """A component's contribution, evaluated as a one-component model."""
    return CompositeModel(components=(comp,)).evaluate(params, u)


def make_input(angle=0.0, rate=0.0, position=(0.0, 0.0), t=0.0):
    return KinematicInput(t=t, heading=Heading(angle=angle, rate=rate),
                          ref_position=np.asarray(position, dtype=float))


class TestKinematicSeries:
    T = np.array([0.0, 1.0, 2.5, 4.0])
    ANGLES = np.array([0.1, 3.5, -0.2, 7.0])     # two outside (-pi, pi]
    RATES = np.array([0.0, 0.3, -0.1, 0.2])
    POSITIONS = np.arange(8.0).reshape(4, 2)

    def series(self, positions=None):
        return KinematicInput(t=self.T, heading=Heading(self.ANGLES, self.RATES),
                              ref_position=self.POSITIONS if positions is None else positions)

    def test_length(self):
        assert len(self.series()) == 4

    def test_integer_index_is_the_single_sample(self):
        series = self.series()
        for k in (0, 1, 2, 3, -1):
            u = series[k]
            # what building the sample on its own gives, bit for bit
            alone = Heading(self.ANGLES[k], self.RATES[k])
            assert u.t == self.T[k] and np.ndim(u.t) == 0
            assert type(u.heading.angle) is float and u.heading.angle == alone.angle
            assert type(u.heading.rate) is float and u.heading.rate == alone.rate
            np.testing.assert_array_equal(u.ref_position, self.POSITIONS[k])
        with pytest.raises(IndexError):
            series[4]

    def test_slice_and_index_array_give_sub_series(self):
        series = self.series()
        for key in (slice(1, 3), np.array([2, 0, 0])):
            sub = series[key]
            assert len(sub) == len(self.T[key])
            np.testing.assert_array_equal(sub.t, self.T[key])
            np.testing.assert_array_equal(sub.heading.angle, series.heading.angle[key])
            np.testing.assert_array_equal(sub.heading.rate, self.RATES[key])
            np.testing.assert_array_equal(sub.ref_position, self.POSITIONS[key])

    def test_iteration_yields_the_samples_in_order(self):
        series = self.series()
        samples = list(series)
        assert len(samples) == 4
        for k, u in enumerate(samples):
            assert u.t == series[k].t and u.heading == series[k].heading
            np.testing.assert_array_equal(u.ref_position, series[k].ref_position)

    def test_run_axis_on_positions(self):
        positions = np.arange(24.0).reshape(3, 4, 2)   # runs x samples x 2
        series = self.series(positions)
        assert len(series) == 4
        np.testing.assert_array_equal(series[2].ref_position, positions[:, 2])
        np.testing.assert_array_equal(series[1:].ref_position, positions[:, 1:])
        np.testing.assert_array_equal(series[np.array([3, 0])].ref_position,
                                      positions[:, [3, 0]])

    @pytest.mark.parametrize("angles, rates, positions", [
        (np.zeros(3), np.zeros(4), np.zeros((4, 2))),
        (np.zeros(4), np.zeros(5), np.zeros((4, 2))),
        (np.zeros(4), 0.0, np.zeros((4, 2))),
        (np.zeros(4), np.zeros(4), np.zeros((5, 2))),
        (np.zeros(4), np.zeros(4), np.zeros(2)),
        (np.zeros(4), np.zeros(4), np.zeros((4, 3, 2))),
    ])
    def test_rejects_sample_count_mismatch(self, angles, rates, positions):
        with pytest.raises(DimensionMismatch):
            KinematicInput(t=self.T, heading=Heading(angles, rates), ref_position=positions)

    def test_single_sample_has_no_sample_axis(self):
        for u in (make_input(), self.series()[1]):
            with pytest.raises(TypeError):
                len(u)
            with pytest.raises(TypeError):
                u[0]
            with pytest.raises(TypeError):
                list(u)


class TestMapTranslation:
    def test_returns_parameters_unchanged(self):
        comp = map_translation()
        np.testing.assert_allclose(evaluate(comp, [3.0, 2.0], make_input()),
                                   [3.0, 2.0])
        np.testing.assert_allclose(evaluate(comp, [0.0, 0.0], make_input()),
                                   [0.0, 0.0])
        np.testing.assert_allclose(evaluate(comp, [-1.5, 4.0], make_input(angle=1.0)),
                                   [-1.5, 4.0])

    def test_reads_no_kinematic_fields(self):
        assert map_translation().depends_on == frozenset()


class TestBodyOffset:
    def test_zero_heading_is_identity(self):
        comp = body_offset()
        np.testing.assert_allclose(evaluate(comp, [2.0, 1.0], make_input(angle=0.0)),
                                   [2.0, 1.0])

    def test_quarter_turn(self):
        comp = body_offset()
        np.testing.assert_allclose(
            evaluate(comp, [2.0, 1.0], make_input(angle=np.pi / 2)),
            [-1.0, 2.0], atol=1e-12)

    def test_matches_rotation_matrix(self):
        comp = body_offset()
        gamma = 2.0
        expected = rotation_matrix(gamma) @ np.array([2.0, 1.0])
        np.testing.assert_allclose(evaluate(comp, [2.0, 1.0], make_input(angle=gamma)),
                                   expected, rtol=1e-15)

    def test_norm_preserving_in_parameters(self):
        comp = body_offset()
        rng = np.random.default_rng(8)
        for _ in range(50):
            params = rng.normal(size=2) * 3.0
            gamma = rng.uniform(-np.pi, np.pi)
            out = evaluate(comp, params, make_input(angle=gamma))
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(params),
                                                        rel=1e-12)

    def test_depends_on_heading(self):
        assert body_offset().depends_on == frozenset({"heading"})


class TestTransformDifference:
    def test_zero_parameters_give_zero(self):
        rng = np.random.default_rng(2)
        for comp in (map_rotation(), map_scale(), map_shear()):
            for _ in range(20):
                u = make_input(position=rng.normal(size=2) * 100.0)
                out = evaluate(comp, np.zeros(1), u)
                np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)

    def test_uniform_scale_about_origin(self):
        # doubling scale about the origin: inverse image of (10, 4) is (5, 2)
        u = make_input(position=(10.0, 4.0))
        out = evaluate(map_scale(), np.array([1.0]), u)
        np.testing.assert_allclose(out, [5.0, 2.0], rtol=1e-15)

    def test_rotation_about_origin_closed_form(self):
        r, theta = 5.0, 0.4
        u = make_input(position=(r, 0.0))
        expected = np.array([r, 0.0]) - rotation_matrix(-theta) @ np.array([r, 0.0])
        out = evaluate(map_rotation(), np.array([theta]), u)
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_zero_scale_factor_is_singular(self):
        u = make_input(position=(1.0, 1.0))
        with pytest.raises(SingularTransform):
            evaluate(map_scale(), np.array([-1.0]), u)

    def test_shear_displaces_one_axis_only(self):
        u = make_input(position=(3.0, 4.0))
        out = evaluate(map_shear(axis="x"), np.array([0.5]), u)
        # x-shear inverse subtracts k*y, so the difference is (k*y, 0)
        np.testing.assert_allclose(out, [2.0, 0.0], rtol=1e-15)
        out_y = evaluate(map_shear(axis="y"), np.array([0.5]), u)
        np.testing.assert_allclose(out_y, [0.0, 1.5], rtol=1e-15)

    @pytest.mark.parametrize("deformation, forward, inverse_param, atol", [
        (map_rotation, lambda lever, p: rotate(lever, p[..., 0]), lambda p: -p, 0.0),
        (map_scale, lambda lever, p: (1.0 + p[..., :1]) * lever,
         lambda p: 1.0 / (1.0 + p) - 1.0, 1e-12),
        (lambda pivot: map_shear(pivot, "x"),
         lambda lever, p: lever + (p[..., 0] * lever[..., 1])[..., None] * [1.0, 0.0],
         lambda p: -p, 0.0),
        (lambda pivot: map_shear(pivot, "y"),
         lambda lever, p: lever + (p[..., 0] * lever[..., 0])[..., None] * [0.0, 1.0],
         lambda p: -p, 0.0)],
        ids=["rotation", "scale", "shear_x", "shear_y"])
    def test_other_hosted_is_ref_hosted_at_inverse_parameter(self, deformation, forward,
                                                             inverse_param, atol):
        # a deformation hosted by the other localizer contributes
        # p - forward(p; params), with the forward map about the pivot; the
        # ref-hosted component at the inverse parameter gives the same: bit
        # for bit for rotation and shear, up to rounding of 1 / (1 + sigma)
        # for scale
        rng = np.random.default_rng(4)
        pivot = np.array([12.0, -7.0])
        params = rng.normal(size=(7, 3, 50, 1)) * 0.3
        positions = rng.normal(size=(3, 50, 2)) * 100.0
        u = KinematicInput(t=np.arange(50.0), heading=Heading(np.zeros(50), np.zeros(50)),
                           ref_position=positions)
        other_hosted = positions - (pivot + forward(positions - pivot, params))
        out = evaluate(deformation(pivot), inverse_param(params), u)
        np.testing.assert_allclose(out, other_hosted, rtol=0.0, atol=atol)

    def test_pivot_and_axis_are_checked_at_construction(self):
        with pytest.raises(ValueError, match="pivot"):
            map_rotation(pivot=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="^axis must be 'x' or 'y', got 'z'$"):
            map_shear(axis="z")


class TestCompositeModel:
    def test_layout(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        assert model.state_dim == 4
        assert model.offsets == (0, 2)

    def test_single_contribution_rule(self):
        with pytest.raises(ValueError, match="heading"):
            CompositeModel(components=(body_offset(), body_offset()))
        with pytest.raises(ValueError, match="ref_position"):
            CompositeModel(components=(map_rotation(), map_scale()))

    def test_body_plus_map_model_at_zero_heading(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        out = model.evaluate([2.0, 1.0, 3.0, 2.0], make_input(angle=0.0))
        np.testing.assert_allclose(out, [5.0, 3.0], atol=1e-12)

    def test_body_plus_map_model_at_half_turn(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        out = model.evaluate([2.0, 1.0, 3.0, 2.0], make_input(angle=np.pi))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)

    def test_translation_only_model(self):
        model = CompositeModel(components=(map_translation(),))
        out = model.evaluate([3.0, 2.0], make_input(angle=1.3))
        np.testing.assert_allclose(out, [3.0, 2.0])

    def test_dimension_mismatch(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        with pytest.raises(DimensionMismatch):
            model.evaluate([1.0, 2.0], make_input())

    def test_translation_shift_moves_output_by_exactly_that(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        rng = np.random.default_rng(9)
        for _ in range(30):
            x = rng.normal(size=4)
            delta = rng.normal(size=2)
            u = make_input(angle=rng.uniform(-np.pi, np.pi))
            shifted = x.copy()
            shifted[2:] += delta
            np.testing.assert_allclose(
                model.evaluate(shifted, u),
                model.evaluate(x, u) + delta, atol=1e-12)

    def test_additive_over_components(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        sub_body = CompositeModel(components=(body_offset(),))
        sub_map = CompositeModel(components=(map_translation(),))
        rng = np.random.default_rng(10)
        for _ in range(30):
            x = rng.normal(size=4)
            u = make_input(angle=rng.uniform(-np.pi, np.pi),
                           position=rng.normal(size=2) * 10.0)
            total = model.evaluate(x, u)
            parts = (sub_body.evaluate(x[:2], u)
                     + sub_map.evaluate(x[2:], u))
            np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_neutral_state_evaluates_to_zero(self):
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           map_scale(pivot=(5.0, 5.0))))
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = make_input(angle=rng.uniform(-np.pi, np.pi),
                           position=rng.normal(size=2) * 20.0)
            np.testing.assert_allclose(
                model.evaluate(np.zeros(model.state_dim), u),
                [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("deformation", [
        map_rotation(pivot=(5.0, -3.0)), map_scale(pivot=(5.0, -3.0)),
        map_shear(pivot=(5.0, -3.0), axis="x"), map_shear(pivot=(5.0, -3.0), axis="y")])
    def test_stacked_states_match_pointwise(self, deformation):
        # sigma points x runs x state against one reference position per run
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           deformation))
        rng = np.random.default_rng(13)
        x = rng.normal(size=(7, 3, 5)) * 0.3
        positions = rng.normal(size=(3, 2)) * 20.0
        out = model.evaluate(x, make_input(angle=0.7, position=positions))
        assert out.shape == (7, 3, 2)
        for i in range(7):
            for r in range(3):
                expected = model.evaluate(x[i, r], make_input(angle=0.7,
                                                              position=positions[r]))
                np.testing.assert_allclose(out[i, r], expected, rtol=0.0, atol=1e-12)

    def test_heading_series_matches_pointwise(self):
        model = CompositeModel(components=(body_offset(), map_translation(),
                                           map_rotation(pivot=(1.0, 2.0))))
        rng = np.random.default_rng(14)
        angles = rng.uniform(-np.pi, np.pi, 6)
        positions = rng.normal(size=(4, 6, 2)) * 10.0   # runs x samples
        x = np.array([2.0, 1.0, 3.0, 2.0, 0.1])
        u = KinematicInput(t=np.arange(6.0), heading=Heading(angle=angles, rate=np.zeros(6)),
                           ref_position=positions)
        out = model.evaluate(x, u)
        assert out.shape == (4, 6, 2)
        for r in range(4):
            for k in range(6):
                expected = model.evaluate(x, make_input(angle=angles[k],
                                                        position=positions[r, k]))
                np.testing.assert_allclose(out[r, k], expected, rtol=0.0, atol=1e-12)

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            CompositeModel(components=())


class TestDeformationComponents:
    def test_map_rotation_component(self):
        comp = map_rotation(pivot=(1.0, 1.0))
        u = make_input(position=(4.0, 1.0))
        lever = np.array([3.0, 0.0])
        expected = lever - rotation_matrix(-0.2) @ lever
        np.testing.assert_allclose(evaluate(comp, [0.2], u), expected, rtol=1e-12)

    def test_names(self):
        assert map_rotation().name == "map_rotation"
        assert map_scale().name == "map_scale"
        assert map_shear().name == "map_shear"

    def test_depends_on_position(self):
        for comp in (map_rotation(), map_scale(), map_shear()):
            assert comp.depends_on == frozenset({"ref_position"})

