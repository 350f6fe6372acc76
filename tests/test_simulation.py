import inspect
import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdecomp.cli import DATA_COLUMNS, read_data_file
from locdecomp.error_models import (CompositeModel, KinematicInput, body_offset,
                                    map_translation)
from locdecomp.exceptions import DimensionMismatch, ParseError
from locdecomp.frames import normalize_angle
from locdecomp.simulation import (InjectionConfig, inject_runs, load_trajectory,
                                  read_table, synthesize_trajectory)

BODY_MAP = CompositeModel(components=(body_offset(), map_translation()))


def inject_one(trajectory, cfg):
    """One run of ``inject_runs`` at ``cfg.rng_seed``: both localizer outputs
    (N, 2) and the series carrying the measured reference positions (1, N, 2)."""
    inputs, p_other, _ = inject_runs(trajectory, cfg, BODY_MAP, [cfg.rng_seed])
    return inputs.ref_position[0], p_other[0], inputs


def count_heading_change_events(trajectory):
    angles = np.array([s.heading for s in trajectory])
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
        assert samples[2].heading == pytest.approx(0.3)
        # central differences over the heading column
        assert samples[1].heading_rate == pytest.approx(0.1)

    def test_duplicate_timestamp(self):
        content = io.StringIO("0.0, 1.0, 2.0\n0.0, 2.0, 3.0\n")
        with pytest.raises(ParseError,
                           match=r"^line 2: timestamp 0.0 does not increase past 0.0$") as info:
            load_trajectory(content)
        assert info.value.line == 2

    def test_decreasing_timestamp(self):
        content = io.StringIO("# t, east, north\n1.0, 1.0, 2.0\n0.5, 2.0, 3.0\n")
        with pytest.raises(ParseError,
                           match=r"^line 3: timestamp 0.5 does not increase past 1.0$") as info:
            load_trajectory(content)
        assert info.value.line == 3

    def test_headings_derived_from_bearings(self):
        # each sample takes the bearing of the step arriving at it, the
        # first sample the first step's
        content = io.StringIO(
            "0.0, 0.0, 0.0\n"
            "1.0, 1.0, 0.0\n"
            "2.0, 1.0, 1.0\n")
        samples = load_trajectory(content)
        deltas = [(1.0, 0.0), (0.0, 1.0)]
        expected = [np.arctan2(dn, de) for de, dn in deltas]
        assert samples[0].heading == pytest.approx(expected[0])
        assert samples[1].heading == pytest.approx(expected[0])
        assert samples[2].heading == pytest.approx(expected[1])

    @pytest.mark.parametrize("initial_heading", [0.0, 2.5, -3.0])
    def test_synthesized_corner_round_trips_without_headings(self, tmp_path,
                                                            initial_heading):
        # bearings of the steps leaving each sample put every turn sample's
        # heading one sample early, up to 0.52 rad off
        synth = synthesize_trajectory("corner", 30, initial_heading=initial_heading)
        path = tmp_path / "corner.csv"
        np.savetxt(path, np.column_stack([synth.t, synth.ref_position]),
                   fmt="%.17e", delimiter=", ")
        loaded = load_trajectory(path)
        np.testing.assert_array_equal(loaded.ref_position, synth.ref_position)
        assert np.abs(normalize_angle(loaded.heading - synth.heading)).max() <= 1e-12
        np.testing.assert_allclose(loaded.heading_rate, synth.heading_rate,
                                   rtol=0.0, atol=1e-12)

    def test_synthesized_straight_round_trips_without_headings(self, tmp_path):
        # every step's bearing is the heading, the first sample's included
        synth = synthesize_trajectory("straight", 20, initial_heading=-1.2)
        path = tmp_path / "straight.csv"
        np.savetxt(path, np.column_stack([synth.t, synth.ref_position]),
                   fmt="%.17e", delimiter=", ")
        loaded = load_trajectory(path)
        assert np.abs(normalize_angle(loaded.heading - synth.heading)).max() <= 1e-12
        np.testing.assert_allclose(loaded.heading_rate, np.zeros(20), rtol=0.0, atol=1e-12)

    def test_parse_error_carries_line_number(self):
        content = io.StringIO("0.0, 1.0, 2.0\n1.0, oops, 2.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_trajectory(content)
        assert excinfo.value.line == 2

    def test_missing_decimal_point_rejected(self):
        # two rows with headings: a lone row without them fails for want of
        # a bearing, whatever its fields
        content = io.StringIO("0.0, 1.0, 2.0, 0.1\n1.0, 2, 3.0, 0.1\n")
        with pytest.raises(ParseError, match="^line 2: east_m value '2' lacks a decimal "
                                             "point$"):
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
        np.testing.assert_array_equal(load_trajectory(content).heading, [-1.5, -1.5])

    def test_single_sample_without_headings_rejected(self):
        # one position gives no bearing; with a heading column it loads
        with pytest.raises(ParseError, match="^cannot derive headings from a single sample; "
                                             "add a heading_rad column$") as excinfo:
            load_trajectory(io.StringIO("0.0, 1.0, 2.0\n"))
        assert excinfo.value.line is None
        assert len(load_trajectory(io.StringIO("0.0, 1.0, 2.0, 0.5\n"))) == 1

    def test_first_row_fixes_the_heading_column(self):
        content = io.StringIO("0.0, 0.0, 2.0, -1.5\n1.0, 0.0, 3.0\n")
        with pytest.raises(ParseError, match="^line 2: expected 4 comma-separated fields, "
                                             "got 3$"):
            load_trajectory(content)


# both text formats, each as three data rows under a comment line: the
# reader, its columns and the fields of row k
READERS = {
    "trajectory": (load_trajectory, ("t_s", "east_m", "north_m"),
                   lambda k: [f"{k}.0", f"{k}.5", "2.0"]),
    "data": (read_data_file, DATA_COLUMNS,
             lambda k: [f"{k}.0", "1.0", "2.0", "0.5", "1.5", "0.3", "0.0", "0.04", "0.04"]),
}


@pytest.mark.parametrize("reader", READERS)
def test_readers_skip_a_byte_order_mark(tmp_path, reader):
    # a commented file saved with a mark failed on "'\ufeff# header' is not a number"
    read, _, row = READERS[reader]
    text = "# header\n" + "".join(", ".join(row(k)) + "\n" for k in range(3))
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for source in (path, io.StringIO("\ufeff" + text)):
        out = read(source)
        series = out if reader == "trajectory" else out[0]
        np.testing.assert_array_equal(series.t, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("reader", READERS)
def test_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, reader):
    # raised UnicodeDecodeError, which names a byte position but no line
    read, _, row = READERS[reader]
    lines = [b"# header\n"] + [(", ".join(row(k)) + "\n").encode() for k in range(3)]
    lines[2] = lines[2].replace(b",", b"\xff,", 1)
    path = tmp_path / "table.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match="^line 3: text is not UTF-8 at character 4$"):
        read(path)


# characters a number, a comment or a field separator is made of, and some
# that float() reads or the reader must reject: a digit in another script, a
# byte-order mark, a control and a non-ASCII letter
TEXT = st.text("0123456789.,+-eE#_ nafi\t\r\u0663\ufeff\x00\u00e9")


@st.composite
def table_lines(draw, row):
    """Lines of random text, or valid rows with one field replaced."""
    if draw(st.booleans()):
        return draw(st.lists(TEXT, max_size=6))
    rows = [row(k) for k in range(draw(st.integers(1, 5)))]
    fields = rows[draw(st.integers(0, len(rows) - 1))]
    fields[draw(st.integers(0, len(fields) - 1))] = draw(
        TEXT | st.sampled_from(["", "nan", "-inf", "1e999", "1", "#", ",", "0.0, 0.0"]))
    return [", ".join(fields) for fields in rows]


@pytest.mark.parametrize("reader", READERS)
@settings(derandomize=True, database=None)
@given(data=st.data())
def test_read_table_on_fuzzed_lines_fails_only_at_a_line(reader, data):
    _, columns, row = READERS[reader]
    optional = int(reader == "trajectory")   # the heading column
    text = "\n".join(data.draw(table_lines(row)))
    n_lines = len(io.StringIO(text).readlines())
    try:
        table, line_nos = read_table(io.StringIO(text), columns, optional=optional,
                                     decimal_point=bool(optional))
    except ParseError as exc:
        if exc.line is None:
            assert str(exc).startswith("no data lines")
        else:
            assert 1 <= exc.line <= n_lines
        return
    assert len(columns) - optional <= table.shape[1] <= len(columns)
    assert table.shape[0] == len(line_nos) and np.isfinite(table).all()
    assert np.all(np.diff(table[:, 0]) > 0) and np.all(np.diff(line_nos) > 0)
    assert 1 <= line_nos[0] and line_nos[-1] <= n_lines


# fault -> (the field of the second data row, on line 3, that the fault
# replaces by a value or, without one, drops; whether the message names the
# field's column).  The comment-only file comments out every row.
FAULTS = {
    "non-numeric": (1, "east", True),
    "non-finite": (2, "1.0e999", True),
    "field count": (-1, None, False),
    "repeated timestamp": (0, "0.0", False),
    "comment-only": (None, None, False),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", READERS)
def test_readers_name_the_line_and_column_of_a_fault(tmp_path, reader, fault):
    read, columns, row = READERS[reader]
    index, value, names_column = FAULTS[fault]
    rows = [row(k) for k in range(3)]
    if index is None:
        rows = [["#"] + fields for fields in rows]
    elif value is None:
        del rows[1][index]
    else:
        rows[1][index] = value
    path = tmp_path / "table.csv"
    path.write_text("# header\n" + "".join(", ".join(fields) + "\n" for fields in rows))
    with pytest.raises(ParseError) as excinfo:
        read(path)
    line = None if index is None else 3
    assert excinfo.value.line == line
    if names_column:
        assert columns[index] in str(excinfo.value)


class TestSynthesizeTrajectory:
    def test_straight_headings_all_equal(self):
        trajectory = synthesize_trajectory("straight", 100)
        angles = {s.heading for s in trajectory}
        assert len(angles) == 1
        assert len(trajectory) == 100

    def test_corner_has_exactly_five_turn_events(self):
        trajectory = synthesize_trajectory("corner", 200)
        assert len(trajectory) == 200
        assert count_heading_change_events(trajectory) == 5

    def test_corner_turns_are_quarter_turns(self):
        trajectory = synthesize_trajectory("corner", 200)
        angles = np.unwrap([s.heading for s in trajectory])
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

    def test_arguments_are_kind_count_and_drive(self):
        # a corner's turn width follows from n_samples, it is not an argument
        assert list(inspect.signature(synthesize_trajectory).parameters) == [
            "kind", "n_samples", "step", "speed", "initial_heading"]

    @pytest.mark.parametrize("n", [20, 29, 30, 57, 1000])
    def test_corner_turns_take_a_tenth_of_the_samples(self, n):
        # five turns of n // 10 samples, each a quarter turn in equal
        # steps, and every leg between them at least one sample long
        increments = np.diff(synthesize_trajectory("corner", n).heading)
        turning = np.flatnonzero(increments)
        assert turning.size == 5 * (n // 10)
        np.testing.assert_allclose(np.abs(increments[turning]), np.pi / 2 / (n // 10),
                                   rtol=1e-12)
        assert np.count_nonzero(np.diff(turning) > 1) == 4

    @pytest.mark.parametrize("initial_heading", [0.0, 1.3, -2.9, np.pi])
    def test_corner_headings_equal_the_loop_reference(self, initial_heading):
        # the headings are one cumulative sum; the loop below adds the same
        # increments in the same order, so the two agree bit for bit
        def loop_headings(n):
            turn = n // 10
            legs = [(n - 5 * turn) // 6] * 6
            for i in [1, 2, 3, 4, 0, 5][:(n - 5 * turn) % 6]:
                legs[i] += 1
            angles, current, direction = [], initial_heading, 1.0
            for i in range(5):
                angles.extend([current] * legs[i])
                for _ in range(turn):
                    current += direction * (np.pi / 2.0) / turn
                    angles.append(current)
                direction = -direction
            return np.array(angles + [current] * legs[5])

        # turns of 2, 3, 5, 20, 39 and 100 samples, legs of every remainder
        for n in [20, 21, 26, 29, 30, 35, 50, 57, 200, 399, 1000]:
            trajectory = synthesize_trajectory("corner", n, initial_heading=initial_heading)
            np.testing.assert_array_equal(trajectory.heading,
                                          normalize_angle(loop_headings(n)))

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
    def test_fields_are_the_truth_the_total_noise_and_the_seed(self):
        # only the total noise reaches the difference, so it is the one level
        assert [f.name for f in fields(InjectionConfig)] == [
            "true_params", "noise_sigma_total", "rng_seed"]

    def test_noiseless_constant_heading_difference(self):
        trajectory = synthesize_trajectory("straight", 20)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_total=0.0,
                              rng_seed=1)
        p_ref, p_other, _ = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, np.tile([5.0, 3.0], (20, 1)),
                                   atol=1e-12)

    def test_noiseless_neutral_parameters_give_zero_difference(self):
        trajectory = synthesize_trajectory("corner", 30)
        cfg = InjectionConfig(true_params=np.zeros(BODY_MAP.state_dim),
                              noise_sigma_total=0.0, rng_seed=1)
        p_ref, p_other, _ = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, np.zeros((30, 2)), atol=1e-12)

    def test_noiseless_difference_matches_model_exactly(self):
        trajectory = synthesize_trajectory("corner", 50)
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = InjectionConfig(true_params=true, noise_sigma_total=0.0, rng_seed=3)
        p_ref, p_other, u = inject_one(trajectory, cfg)
        np.testing.assert_allclose(p_ref - p_other, BODY_MAP.evaluate(true, u),
                                   atol=1e-12)

    def test_deterministic_for_equal_seeds(self):
        trajectory = synthesize_trajectory("straight", 50)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_total=0.2,
                              rng_seed=42)
        a = inject_one(trajectory, cfg)
        b = inject_one(trajectory, cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        trajectory = synthesize_trajectory("straight", 10)
        base = dict(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_total=0.2)
        a_ref, a_other, _ = inject_one(trajectory, InjectionConfig(rng_seed=1, **base))
        b_ref, b_other, _ = inject_one(trajectory, InjectionConfig(rng_seed=2, **base))
        assert not np.allclose(a_ref[0] - a_other[0], b_ref[0] - b_other[0])

    def test_returns_the_record_that_filter_steps_reads(self):
        # the series carries each run's measured reference positions, and r
        # the difference covariance at every step; each localizer draws half
        # the total variance, the reference localizer first
        trajectory = synthesize_trajectory("corner", 30)
        cfg = InjectionConfig(true_params=[2.0, 1.0, 3.0, 2.0], noise_sigma_total=0.2,
                              rng_seed=0)
        per = 0.2 / np.sqrt(2.0)
        seeds = [5, 6, 7]
        inputs, p_other, r = inject_runs(trajectory, cfg, BODY_MAP, seeds)
        assert inputs.ref_position.shape == p_other.shape == (3, 30, 2)
        displaced = np.broadcast_to(
            trajectory.ref_position - BODY_MAP.evaluate(cfg.true_params, inputs), (3, 30, 2))
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            ref_noise, other_noise = rng.normal(0.0, per, (30, 2)), rng.normal(0.0, per, (30, 2))
            np.testing.assert_array_equal(inputs.ref_position[i],
                                          trajectory.ref_position + ref_noise)
            np.testing.assert_array_equal(p_other[i], other_noise + displaced[i])
        np.testing.assert_array_equal(inputs.t, trajectory.t)
        np.testing.assert_array_equal(inputs.heading, trajectory.heading)
        np.testing.assert_array_equal(r, np.tile((per ** 2 + per ** 2) * np.eye(2), (30, 1, 1)))
        # the two halves sum to exactly 0.04, where 0.2 ** 2 does not
        np.testing.assert_array_equal(r[0], 0.04 * np.eye(2))

    def test_a_run_draws_both_noises_in_one_draw(self):
        # zero positions and a zero map translation leave the bare noise: the
        # two halves of one (2, N, 2) draw, the reference localizer's first,
        # in a batch and for each run alone
        n, sigma, seeds = 30, 0.2, [5, 6, 7]
        trajectory = KinematicInput(t=np.arange(n, dtype=float), heading=np.zeros(n),
                                    ref_position=np.zeros((n, 2)), heading_rate=np.zeros(n))
        model = CompositeModel(components=(map_translation(),))
        cfg = InjectionConfig(true_params=[0.0, 0.0], noise_sigma_total=sigma, rng_seed=0)
        inputs, p_other, _ = inject_runs(trajectory, cfg, model, seeds)
        for i, seed in enumerate(seeds):
            ref_noise, other_noise = np.random.default_rng(seed).normal(
                0.0, sigma / np.sqrt(2.0), (2, n, 2))
            alone, alone_other, _ = inject_runs(trajectory, cfg, model, [seed])
            for ref, other in ((inputs.ref_position[i], p_other[i]),
                               (alone.ref_position[0], alone_other[0])):
                np.testing.assert_array_equal(ref, ref_noise)
                np.testing.assert_array_equal(other, other_noise)

    def test_sample_covariance_matches_configured_noise(self):
        trajectory = synthesize_trajectory("straight", 10_000)
        true = np.array([2.0, 1.0, 3.0, 2.0])
        cfg = InjectionConfig(true, 0.2, rng_seed=7)
        p_ref, p_other, u = inject_one(trajectory, cfg)
        residuals = p_ref - p_other - BODY_MAP.evaluate(true, u)
        sample_cov = np.cov(residuals.T)
        np.testing.assert_allclose(np.diag(sample_cov), [0.04, 0.04], rtol=0.1)

    def test_dimension_mismatch(self):
        trajectory = synthesize_trajectory("straight", 5)
        cfg = InjectionConfig(true_params=[1.0, 2.0], noise_sigma_total=0.0, rng_seed=0)
        with pytest.raises(DimensionMismatch):
            inject_one(trajectory, cfg)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError,
                           match=r"^noise_sigma_total must be finite and >= 0, got -0\.1$"):
            InjectionConfig(true_params=[0.0], noise_sigma_total=-0.1, rng_seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_settings_naming_the_field(self, value):
        # a non-finite setting failed only when the runs started
        base = dict(true_params=[1.0, 2.0], noise_sigma_total=0.2, rng_seed=0)
        with pytest.raises(ValueError, match="^true_params must be finite, got "):
            InjectionConfig(**dict(base, true_params=[1.0, value]))
        with pytest.raises(ValueError, match="^noise_sigma_total must be finite and >= 0, got "):
            InjectionConfig(**dict(base, noise_sigma_total=value))
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            InjectionConfig(**dict(base, rng_seed=value))

    @pytest.mark.parametrize("seed", [2.5, True, "7", None])
    def test_seed_must_be_an_integer(self, seed):
        # 2.5 ran as seed 2, and "7" failed comparing a string with 0
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            InjectionConfig([1.0, 2.0], 0.2, rng_seed=seed)

    def test_integral_float_seed_is_the_int(self):
        cfg = InjectionConfig([1.0, 2.0], 0.2, rng_seed=7.0)
        assert cfg.rng_seed == 7 and type(cfg.rng_seed) is int

