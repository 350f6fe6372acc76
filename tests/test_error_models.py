import inspect
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locdecomp.cli import read_data_file, write_data_file
from locdecomp.error_models import (CompositeModel, ErrorComponent, KinematicInput,
                                    body_offset, map_rotation, map_scale, map_shear,
                                    map_translation)
from locdecomp.exceptions import DimensionMismatch, SingularTransform
from locdecomp.frames import rotate, rotation_matrix
from locdecomp.observability import numerical_rank_test
from locdecomp.simulation import (InjectionConfig, inject_runs, load_trajectory,
                                  synthesize_trajectory)

CORNER = synthesize_trajectory("corner", 200)
PIVOT = CORNER.ref_position.mean(axis=0)
COORDINATES = st.lists(st.floats(-1e4, 1e4, allow_subnormal=False), min_size=2,
                       max_size=2).map(np.array)
# the shipped components, each built about a pivot if it takes one
SHIPPED = {"map_translation": lambda pivot: map_translation(),
           "body_offset": lambda pivot: body_offset(),
           "map_rotation": map_rotation, "map_scale": map_scale, "map_shear": map_shear}


def evaluate(comp, params, u):
    """A component's contribution, evaluated as a one-component model."""
    return CompositeModel(components=(comp,)).evaluate(params, u)


def make_input(angle=0.0, rate=0.0, position=(0.0, 0.0), t=0.0):
    return KinematicInput(t=t, heading=angle, heading_rate=rate,
                          ref_position=np.asarray(position, dtype=float))


class TestKinematicSeries:
    T = np.array([0.0, 1.0, 2.5, 4.0])
    ANGLES = np.array([0.1, 3.5, -0.2, 7.0])     # two outside (-pi, pi]
    RATES = np.array([0.0, 0.3, -0.1, 0.2])
    POSITIONS = np.arange(8.0).reshape(4, 2)

    def series(self, positions=None):
        return KinematicInput(t=self.T, heading=self.ANGLES, heading_rate=self.RATES,
                              ref_position=self.POSITIONS if positions is None else positions)

    def test_length(self):
        assert len(self.series()) == 4

    def test_integer_index_is_the_single_sample(self):
        series = self.series()
        for k in (0, 1, 2, 3, -1):
            u = series[k]
            # what building the sample on its own gives, bit for bit
            alone = make_input(self.ANGLES[k], self.RATES[k])
            assert u.t == self.T[k] and np.ndim(u.t) == 0
            assert type(u.heading) is float and u.heading == alone.heading
            assert type(u.heading_rate) is float and u.heading_rate == alone.heading_rate
            np.testing.assert_array_equal(u.ref_position, self.POSITIONS[k])
        with pytest.raises(IndexError):
            series[4]

    def test_slice_and_index_array_give_sub_series(self):
        series = self.series()
        for key in (slice(1, 3), np.array([2, 0, 0])):
            sub = series[key]
            assert len(sub) == len(self.T[key])
            np.testing.assert_array_equal(sub.t, self.T[key])
            np.testing.assert_array_equal(sub.heading, series.heading[key])
            np.testing.assert_array_equal(sub.heading_rate, self.RATES[key])
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
            KinematicInput(t=self.T, heading=angles, heading_rate=rates, ref_position=positions)

    @pytest.mark.parametrize("t, angle, rate", [
        (0.0, 0.1, np.array([1.0, 2.0])), (0.0, np.array([0.1, 0.2]), 0.0),
        (np.zeros((2, 2)), np.zeros(2), np.zeros(2))])
    def test_rejects_a_sample_of_another_shape(self, t, angle, rate):
        # a sample has a scalar t, heading and heading_rate; a 2-d t was
        # accepted and failed later, at len()
        with pytest.raises(DimensionMismatch, match="^t, heading and heading_rate must be "):
            KinematicInput(t=t, heading=angle, ref_position=[0.0, 0.0], heading_rate=rate)

    @pytest.mark.parametrize("t", [np.nan, np.array([0.0, 1.0, np.inf, 4.0])])
    def test_rejects_non_finite_timestamps(self, t):
        n = np.size(t)
        with pytest.raises(ValueError, match=r"^timestamp must be finite, got "):
            KinematicInput(t=t, heading=np.zeros(n) if n > 1 else 0.0,
                           ref_position=np.zeros((n, 2)) if n > 1 else np.zeros(2),
                           heading_rate=np.zeros(n) if n > 1 else 0.0)

    def test_a_samples_timestamp_is_a_float(self):
        # like its heading and rate; a built sample kept t as given, and an
        # indexed one held a numpy scalar
        for u in (make_input(t=3), make_input(t=np.int64(3)), self.series()[2]):
            assert type(u.t) is float

    def test_single_sample_has_no_sample_axis(self):
        for u in (make_input(), self.series()[1]):
            with pytest.raises(TypeError):
                len(u)
            with pytest.raises(TypeError):
                u[0]
            with pytest.raises(TypeError):
                list(u)


def injected_run():
    """The record of ``inject_runs`` for one run of a translation along a corner."""
    model = CompositeModel(components=(map_translation(),))
    return inject_runs(synthesize_trajectory("corner", 40),
                       InjectionConfig([1.0, 2.0], 0.2, rng_seed=3), model, [5])


def built(key=slice(None)):
    """``key`` of a series built from new arrays: a write that gets through
    changes no array another test reads."""
    s = TestKinematicSeries
    return KinematicInput(t=s.T.copy(), heading=s.ANGLES.copy(), heading_rate=s.RATES.copy(),
                          ref_position=s.POSITIONS.copy())[key]


def loaded(tmp_path):
    series = synthesize_trajectory("corner", 50)
    np.savetxt(tmp_path / "trace.csv", np.column_stack(
        [series.t, series.ref_position, series.heading]), fmt="%.17e", delimiter=",")
    return load_trajectory(tmp_path / "trace.csv")


def from_data_file(tmp_path):
    path = write_data_file(tmp_path / "data.csv", *injected_run())
    return read_data_file(path)[0]


@pytest.mark.parametrize("build", [
    lambda tmp_path: built(),
    lambda tmp_path: built(2),
    lambda tmp_path: built(slice(1, 3)),
    lambda tmp_path: built(np.array([3, 0])),
    lambda tmp_path: synthesize_trajectory("straight", 10),
    loaded,
    lambda tmp_path: injected_run()[0],
    from_data_file,
], ids=["built", "sample", "slice", "index-array", "synthesized", "loaded", "injected",
        "data-file"])
def test_every_series_is_read_only(tmp_path, build):
    # injection, the filter and the rank test trust a validated input; a NaN
    # written into a series' heading surfaced steps later as a filter step
    # error, or in the rank test as an SVD that did not converge
    u = build(tmp_path)
    arrays = [name for name in ("t", "heading", "heading_rate", "ref_position")
              if isinstance(getattr(u, name), np.ndarray)]
    assert "ref_position" in arrays
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(u, name)[...] = np.nan


def test_the_callers_arrays_and_the_other_positions_stay_writable():
    t = np.arange(4.0)
    KinematicInput(t=t, heading=np.zeros(4), heading_rate=np.zeros(4),
                   ref_position=np.zeros((4, 2)))
    t[0] = -1.0
    # the harness overwrites p_other with the differences in place
    _, p_other, _ = injected_run()
    p_other[...] = 0.0


class TestMapTranslation:
    def test_returns_parameters_unchanged(self):
        comp = map_translation()
        np.testing.assert_allclose(evaluate(comp, [3.0, 2.0], make_input()),
                                   [3.0, 2.0])
        np.testing.assert_allclose(evaluate(comp, [0.0, 0.0], make_input()),
                                   [0.0, 0.0])
        np.testing.assert_allclose(evaluate(comp, [-1.5, 4.0], make_input(angle=1.0)),
                                   [-1.5, 4.0])


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
        out = evaluate(map_shear(), np.array([0.5]), u)
        # the inverse of a shear along x subtracts k*y, so the difference is (k*y, 0)
        np.testing.assert_allclose(out, [2.0, 0.0], rtol=1e-15)

    @pytest.mark.parametrize("position, expected", [((3.0, -5.0), [0.0, 0.0]),
                                                    ((-4.0, -1.0), [2.0, 0.0])])
    def test_shear_moves_x_by_the_height_above_the_pivot(self, position, expected):
        # points level with the pivot stay put; the rest move along x only
        out = evaluate(map_shear(pivot=(1.0, -5.0)), np.array([0.5]),
                       make_input(position=position))
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    @pytest.mark.parametrize("deformation, forward, inverse_param, atol", [
        (map_rotation, lambda lever, p: rotate(lever, p[..., 0]), lambda p: -p, 0.0),
        (map_scale, lambda lever, p: (1.0 + p[..., :1]) * lever,
         lambda p: 1.0 / (1.0 + p) - 1.0, 1e-12),
        (map_shear,
         lambda lever, p: lever + (p[..., 0] * lever[..., 1])[..., None] * [1.0, 0.0],
         lambda p: -p, 0.0)],
        ids=["rotation", "scale", "shear_x"])
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
        u = KinematicInput(t=np.arange(50.0), heading=np.zeros(50), heading_rate=np.zeros(50),
                           ref_position=positions)
        other_hosted = positions - (pivot + forward(positions - pivot, params))
        out = evaluate(deformation(pivot), inverse_param(params), u)
        np.testing.assert_allclose(out, other_hosted, rtol=0.0, atol=atol)

    @settings(derandomize=True, database=None)
    @given(kind=st.sampled_from(["rotation", "scale", "shear"]),
           p=COORDINATES, pivot=COORDINATES,
           theta=st.floats(-0.5, 1.0, allow_subnormal=False))
    def test_inverse_parameter_undoes_the_deformation(self, kind, p, pivot, theta):
        # q = p - c(p, theta) is where the other localizer puts p; the
        # component at the inverse parameter takes q back to p
        comp, inverse = {
            "rotation": (map_rotation(pivot), -theta),
            "scale": (map_scale(pivot), 1.0 / (1.0 + theta) - 1.0),
            "shear": (map_shear(pivot), -theta)}[kind]
        q = p - evaluate(comp, [theta], make_input(position=p))
        back = q - evaluate(comp, [inverse], make_input(position=q))
        np.testing.assert_allclose(back, p, rtol=0.0,
                                   atol=1e-9 * np.abs([p, pivot]).max())

    def test_shear_takes_only_a_pivot(self):
        # the shear runs along x; the axis is not an argument
        assert list(inspect.signature(map_shear).parameters) == ["pivot"]

    def test_pivot_is_checked_at_construction(self):
        with pytest.raises(ValueError, match=r"^pivot must have shape \(2,\), got \(3,\)$"):
            map_rotation(pivot=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"^pivot must be finite"):
            map_scale(pivot=(1.0, np.nan))


class TestCompositeModel:
    def test_layout(self):
        model = CompositeModel(components=(body_offset(), map_translation()))
        assert model.state_dim == 4
        assert model.offsets == (0, 2)

    @pytest.mark.parametrize("components, rank", [
        ((map_rotation(PIVOT), map_scale(PIVOT)), 2),
        ((map_rotation(PIVOT), map_shear(PIVOT)), 2),
        ((body_offset(), map_translation(), map_rotation(PIVOT), map_scale(PIVOT)), 6),
        ((body_offset(), body_offset()), 2),
        ((map_translation(), map_translation()), 2),
        # rotation, scale and shear are three independent linear maps
        ((map_rotation(PIVOT), map_scale(PIVOT), map_shear(PIVOT)), 3)])
    def test_separability_is_measured_not_declared(self, components, rank):
        # any components combine; the whole corner's stacked Jacobian tells
        # which sums split, whether or not their components read one field
        model = CompositeModel(components=components)
        report = numerical_rank_test(model, np.zeros(model.state_dim), CORNER,
                                     window_length=len(CORNER))
        assert report.rank_profile == [rank]
        assert report.observable == (rank == model.state_dim)

    @pytest.mark.parametrize("width", [1.5, True])
    def test_component_width_is_an_integer(self, width):
        # 1.5 made a model of state dimension 1.5, and True counted as 1
        with pytest.raises(ValueError, match=f"^param_dim must be an integer, got {width!r}$"):
            ErrorComponent(name="x", param_dim=width, fn=lambda params, u: params)
        assert type(ErrorComponent(name="x", param_dim=2.0, fn=None).param_dim) is int

    @pytest.mark.parametrize("width", [0, -1])
    def test_component_width_is_at_least_one(self, width):
        with pytest.raises(ValueError, match=f"^param_dim must be >= 1, got {width}$"):
            ErrorComponent(name="x", param_dim=width, fn=lambda params, u: params)

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

    @settings(derandomize=True, database=None)
    @given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(SHIPPED)), min_size=1,
                                          max_size=6),
           pivot=COORDINATES, heading=st.floats(-np.pi, np.pi))
    def test_composite_is_the_sum_of_its_components(self, data, kinds, pivot, heading):
        # a disparity is a sum of component functions: stacking them into
        # one state vector changes no bit of that sum, in any order, with
        # repeats, for a sample of per-run positions and for a series
        components = [SHIPPED[kind](pivot) for kind in kinds]
        model = CompositeModel(components=components)
        positions = data.draw(arrays(float, (3, 7, 2),
                                     elements=st.floats(-1e4, 1e4, allow_subnormal=False)))
        headings = data.draw(arrays(float, 7, elements=st.floats(-np.pi, np.pi)))
        sample = make_input(angle=heading, position=positions[:, 0])
        series = KinematicInput(t=np.arange(7.0), heading=headings, heading_rate=np.zeros(7),
                                ref_position=positions)
        # a deformation's (p - c) + c round trip leaves at most one spacing
        bound = np.spacing(np.abs(positions).max() + np.abs(pivot).max())
        for u, batch in ((sample, (5, 3)), (series, (5, 3, 1))):
            x = data.draw(arrays(float, batch + (model.state_dim,),
                                 elements=st.floats(-0.5, 0.5, allow_subnormal=False)))
            parts = [evaluate(comp, x[..., off:off + comp.param_dim], u)
                     for off, comp in zip(model.offsets, components)]
            np.testing.assert_array_equal(model.evaluate(x, u), reduce(add, parts))
            for comp in components:
                alone = evaluate(comp, np.zeros(batch + (comp.param_dim,)), u)
                assert np.abs(alone).max() <= bound, comp.name

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
        map_shear(pivot=(5.0, -3.0))])
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
        u = KinematicInput(t=np.arange(6.0), heading=angles, heading_rate=np.zeros(6),
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

