import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from locdecomp.cli import (DATA_COLUMNS, build_parser, main, read_data_file,
                           write_data_file)
from locdecomp.error_models import KinematicInput
from locdecomp.exceptions import DimensionMismatch, FilterStepError, ParseError
from locdecomp.harness import FLOAT_FORMAT, derive_run_seed, load_config, run_experiment
from locdecomp.observability import (closed_form_decomposition, difference_rates,
                                     numerical_rank_test)
from locdecomp.simulation import inject_runs

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOOD_ROW = [0.0, 1.0, 2.0, 0.5, 1.5, 0.3, 0.0, 0.04, 0.04]


def write_config(tmp_path, **overrides):
    raw = {
        "trajectory": {"kind": "corner", "n_samples": 60},
        "model": [{"type": "body_offset"}, {"type": "map_translation"}],
        "injection": {"true_params": [2.0, 1.0, 3.0, 2.0],
                      "noise_sigma_total": 0.2, "seed": 11},
        "filter": {"process_noise": 0.1, "initial_covariance": 10.0},
        "runs": 5,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def turn_data_file(path, n_samples, turn_samples):
    """A data file of a straight drive east whose one turn, from sample 8,
    has ``turn_samples`` turning samples; the other localizer is 1 m off."""
    rate = np.zeros(n_samples)
    rate[8:8 + turn_samples] = 0.5
    t = np.arange(n_samples, dtype=float)
    inputs = KinematicInput(t=t, heading=np.cumsum(rate),
                            ref_position=np.column_stack([10.0 * t, 0.0 * t]),
                            heading_rate=rate)
    r = np.broadcast_to(0.04 * np.eye(2), (n_samples, 2, 2))
    return write_data_file(path, inputs, inputs.ref_position - 1.0, r)


def parse_report(text):
    """Header lines and (start, end, rank, condition, marks...) rows of an
    observability report."""
    lines = text.splitlines()
    table = lines.index("start,end,rank,condition")
    windows = []
    for line in lines[table + 1:]:
        start, end, rank, cond, *marks = line.split(",")
        windows.append((int(start), int(end), int(rank), float(cond), *marks))
    return lines[:table], windows


OPTION_VALUES = {"--config": "c.json", "--data": "d.csv", "--seed": "1", "--runs": "2",
                 "--out": "o"}


@pytest.mark.parametrize("command, options", [
    ("simulate", ["--config", "--seed", "--out"]),
    ("filter", ["--config", "--data", "--out"]),
    ("experiment", ["--config", "--seed", "--runs", "--out"]),
    ("observability", ["--config", "--seed"]),
    ("oracle", ["--data"])])
def test_each_command_takes_its_options_only(capsys, command, options):
    # filter accepted --seed and observability --out, and both ignored them
    argv = [command] + [a for option in options for a in (option, OPTION_VALUES[option])]
    args = build_parser().parse_args(argv)
    assert sorted(vars(args)) == sorted(["command", "func", *(o[2:] for o in options)])
    for option in OPTION_VALUES.keys() - options:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [option, OPTION_VALUES[option]])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option} " in capsys.readouterr().err


class TestSimulateAndFilter:
    def test_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        assert data.exists()

        inputs, p_other, r = read_data_file(data)
        assert len(inputs) == 60
        assert inputs.ref_position.shape == p_other.shape == (60, 2)
        np.testing.assert_allclose(r, np.tile(0.04 * np.eye(2), (60, 1, 1)), rtol=1e-6)

        estimates = tmp_path / "estimates.csv"
        assert main(["filter", "--config", str(config), "--data", str(data),
                     "--out", str(estimates)]) == 0
        out = capsys.readouterr().out
        assert "final estimate" in out
        lines = [l for l in estimates.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 60
        # final estimate should be near the injected parameters
        final = [float(v) for v in lines[-1].split(",")[2:6]]
        np.testing.assert_allclose(final, [2.0, 1.0, 3.0, 2.0], atol=0.5)

    def test_data_file_round_trip(self, tmp_path):
        # the straight config heads at pi, the edge of the angle range
        for name in ["corner.json", "straight.json"]:
            data = tmp_path / f"{name}.csv"
            main(["simulate", "--config", str(CONFIGS / name), "--out", str(data)])
            record = read_data_file(data)
            rewritten = write_data_file(tmp_path / "again.csv", *record)
            assert rewritten.read_bytes() == data.read_bytes(), name
            inputs, p_other, r = record
            again, p_other_again, r_again = read_data_file(rewritten)
            for a, b in [(inputs.t, again.t), (inputs.ref_position, again.ref_position),
                         (inputs.heading, again.heading),
                         (inputs.heading_rate, again.heading_rate),
                         (p_other, p_other_again), (r, r_again)]:
                np.testing.assert_array_equal(a, b)

    def test_simulate_writes_the_injected_run(self, tmp_path):
        # the data file is the record of inject_runs at run 0's seed
        config = write_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(config), "--out", str(data)])
        cfg = load_config(config)
        record = inject_runs(cfg.trajectory.series, cfg.injection, cfg.model,
                             [derive_run_seed(cfg.injection.rng_seed, 0)])
        expected = write_data_file(tmp_path / "expected.csv", *record)
        assert data.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("name", ["corner.json", "straight.json"])
    def test_filtered_simulation_is_run_0_of_the_experiment(self, tmp_path, name):
        # simulate then filter ends where a one-run experiment ends, up to
        # the data file's 9 printed digits
        data, estimates = tmp_path / "data.csv", tmp_path / "estimates.csv"
        main(["simulate", "--config", str(CONFIGS / name), "--out", str(data)])
        main(["filter", "--config", str(CONFIGS / name), "--data", str(data),
              "--out", str(estimates)])
        cfg = load_config(CONFIGS / name)
        final = np.loadtxt(estimates, delimiter=",")[-1, 2:2 + cfg.model.state_dim]
        run_0 = run_experiment(replace(cfg, n_runs=1)).mean[-1]
        assert np.abs(final - run_0).max() < 1e-5


def test_file_commands_build_no_per_row_objects(tmp_path, monkeypatch, capsys):
    # simulate, filter and oracle pass arrays from end to end: they construct
    # as many KinematicInput objects for 60 rows as for 90
    built = []
    original = KinematicInput.__post_init__

    def counted(self):
        built.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(KinematicInput, "__post_init__", counted)

    def constructions(n_samples):
        folder = tmp_path / str(n_samples)
        folder.mkdir()
        config = write_config(folder, trajectory={"kind": "corner", "n_samples": n_samples})
        data = folder / "data.csv"
        commands = {
            "simulate": ["--config", str(config), "--out", str(data)],
            "filter": ["--config", str(config), "--data", str(data),
                       "--out", str(folder / "estimates.csv")],
            "oracle": ["--data", str(data)],
        }
        counts = {}
        for command, args in commands.items():
            built.clear()
            assert main([command] + args) == 0
            counts[command] = sorted(built)
        return counts

    short = constructions(60)
    assert short == constructions(90)
    assert short["oracle"] == ["KinematicInput"]


class TestReadDataFile:
    def write_rows(self, tmp_path, bad_row):
        rows = [GOOD_ROW, [1.0] + GOOD_ROW[1:], bad_row, [3.0] + GOOD_ROW[1:]]
        path = tmp_path / "data.csv"
        path.write_text("# " + ",".join(DATA_COLUMNS) + "\n"
                        + "".join(",".join(str(v) for v in row) + "\n" for row in rows))
        return path

    def test_reads_good_rows(self, tmp_path):
        inputs, p_other, r = read_data_file(self.write_rows(tmp_path, [2.0] + GOOD_ROW[1:]))
        assert len(inputs) == 4
        np.testing.assert_array_equal(inputs.t, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(inputs.ref_position, np.tile([1.0, 2.0], (4, 1)))
        np.testing.assert_array_equal(p_other, np.tile([0.5, 1.5], (4, 1)))
        np.testing.assert_array_equal(inputs.heading, np.full(4, 0.3))
        np.testing.assert_array_equal(inputs.heading_rate, np.zeros(4))
        np.testing.assert_array_equal(r, np.tile(np.diag([0.04, 0.04]), (4, 1, 1)))

    @pytest.mark.parametrize("column, value", [
        ("ref_east_m", "nan"), ("other_north_m", "inf"), ("heading_rad", "-inf"),
        ("r_var_north_m2", "nan"), ("t_s", "nan")])
    def test_non_finite_field_names_its_line(self, tmp_path, column, value):
        row = [str(v) for v in [2.0] + GOOD_ROW[1:]]
        row[DATA_COLUMNS.index(column)] = value
        with pytest.raises(ParseError, match=f"line 4: {column}") as excinfo:
            read_data_file(self.write_rows(tmp_path, row))
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("var_east, var_north", [(-0.04, 0.04), (0.04, -1.0)])
    def test_negative_variance_names_its_line(self, tmp_path, var_east, var_north):
        row = [2.0] + GOOD_ROW[1:7] + [var_east, var_north]
        column = "r_var_east_m2" if var_east < 0.0 else "r_var_north_m2"
        with pytest.raises(ParseError, match=f"line 4: {column} must be non-negative") \
                as excinfo:
            read_data_file(self.write_rows(tmp_path, row))
        assert excinfo.value.line == 4

    def test_writer_rejects_a_multi_run_record(self, tmp_path):
        # numpy's column_stack failed on the stacked runs, naming no argument
        cfg = load_config(CONFIGS / "corner.json")
        record = inject_runs(cfg.trajectory.series, cfg.injection, cfg.model, [1, 2, 3])
        with pytest.raises(DimensionMismatch, match=r"^p_other must have shape \(200, 2\) "
                                                    r"or \(1, 200, 2\), .* got \(3, 200, 2\)$"):
            write_data_file(tmp_path / "out.csv", *record)
        assert not (tmp_path / "out.csv").exists()

    def test_writer_rejects_correlated_covariances(self, tmp_path):
        inputs, p_other, r = read_data_file(self.write_rows(tmp_path, [2.0] + GOOD_ROW[1:]))
        r[1, 0, 1] = r[1, 1, 0] = 0.01
        with pytest.raises(ValueError, match="r must be diagonal"):
            write_data_file(tmp_path / "out.csv", inputs, p_other, r)

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_non_increasing_time_names_its_line(self, tmp_path, t):
        with pytest.raises(ParseError,
                           match=f"^line 4: timestamp {t} does not increase past 1.0$") as info:
            read_data_file(self.write_rows(tmp_path, [t] + GOOD_ROW[1:]))
        assert info.value.line == 4

    def test_non_numeric_field_names_its_line(self, tmp_path):
        row = [2.0] + GOOD_ROW[1:5] + ["east"] + GOOD_ROW[6:]
        with pytest.raises(ParseError, match="line 4"):
            read_data_file(self.write_rows(tmp_path, row))


class TestExperiment:
    def test_experiment_writes_results(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["experiment", "--config", str(config), "--out",
                     str(out)]) == 0
        # the summary it wrote, then the files
        assert capsys.readouterr().out == ((out / "summary.txt").read_text()
                                           + f"wrote {out / 'mse.csv'}\n"
                                           + f"wrote {out / 'summary.txt'}\n")

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["experiment", "--config", str(config), "--runs", "2",
              "--seed", "5", "--out", str(out_a)])
        main(["experiment", "--config", str(config), "--runs", "2",
              "--seed", "5", "--out", str(out_b)])
        assert ((out_a / "mse.csv").read_bytes()
                == (out_b / "mse.csv").read_bytes())

    def test_different_seed_changes_results(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["experiment", "--config", str(config), "--runs", "2",
              "--seed", "5", "--out", str(out_a)])
        main(["experiment", "--config", str(config), "--runs", "2",
              "--seed", "6", "--out", str(out_b)])
        assert ((out_a / "mse.csv").read_bytes()
                != (out_b / "mse.csv").read_bytes())


class TestObservabilityCommand:
    def test_corner_report(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["observability", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "observable = true" in out
        assert "start,end,rank,condition" in out

    def test_straight_report(self, tmp_path, capsys):
        config = write_config(tmp_path,
                              trajectory={"kind": "straight", "n_samples": 30})
        assert main(["observability", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "observable = false" in out
        assert "DEFICIENT" in out

    def test_seed_is_checked_and_changes_nothing(self, tmp_path, capsys):
        # --seed -1 printed the report and exited 0; the rank test draws no
        # random numbers, so a valid seed leaves the report as it is
        config = write_config(tmp_path)
        assert main(["observability", "--config", str(config)]) == 0
        report = capsys.readouterr().out
        assert main(["observability", "--config", str(config), "--seed", "5"]) == 0
        assert capsys.readouterr().out == report
        assert main(["observability", "--config", str(config), "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "locdecomp observability: seed must be >= 0, "
                                           "got -1\n")

    @pytest.mark.parametrize("flag, value", [("--tolerance", "1e-6"), ("--window", "5")])
    def test_rank_settings_are_no_options(self, capsys, flag, value):
        # the rank cutoff is the library's fixed RANK_TOL and the windows
        # are twice the state dimension long
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["observability", "--config", "c.json", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_matches_observe_golden(self, capsys):
        """The rank report on the benchmark's observe config equals its stored
        golden: header, ranks and marks exactly, full-rank conditions to 1e-6."""
        assert main(["observability", "--config",
                     str(ROOT / "bench" / "configs" / "observe.json")]) == 0
        header, windows = parse_report(capsys.readouterr().out)
        golden_header, golden_windows = parse_report(
            (ROOT / "bench" / "golden" / "observe" / "report.txt").read_text())
        assert header == golden_header
        assert len(windows) == len(golden_windows) == 991
        assert [w[:3] + w[4:] for w in windows] \
            == [g[:3] + g[4:] for g in golden_windows]
        state_dim = int(header[0].split(" = ")[1])
        full = [(w[3], g[3]) for w, g in zip(windows, golden_windows)
                if g[2] == state_dim]
        assert full
        np.testing.assert_allclose(*zip(*full), rtol=1e-6)


def per_line_report(report):
    """The observability report formatted one line at a time."""
    lines = [f"state_dim = {report.state_dim}",
             f"window_length = {report.window_length}",
             f"observable = {str(report.observable).lower()}",
             f"deficient_windows = {len(report.deficient_windows)}",
             f"degenerate_windows = {len(report.degenerate_windows)}",
             "start,end,rank,condition"]
    for start, rank, cond in zip(report.window_starts, report.rank_profile,
                                 report.condition_numbers):
        end = start + report.window_length
        mark = ""
        if rank < report.state_dim:
            mark = ",DEFICIENT"
        if (start, end) in report.degenerate_windows:
            mark += ",DEGENERATE"
        lines.append(f"{start},{end},{rank},{FLOAT_FORMAT % cond}{mark}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("config", ["observe", "corner_200"])
def test_report_equals_the_per_line_formatting(tmp_path, capsys, config):
    # the report is printed in one write; on the 200-sample corner the
    # windows on a leg, at one heading, are DEFICIENT and DEGENERATE, next
    # to full-rank ones
    path = (ROOT / "bench" / "configs" / "observe.json" if config == "observe"
            else write_config(tmp_path, trajectory={"kind": "corner", "n_samples": 200}))
    assert main(["observability", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    cfg = load_config(path)
    report = numerical_rank_test(cfg.model, cfg.ukf.initial_mean, cfg.trajectory.series)
    assert out == per_line_report(report)
    marks = {tuple(window[4:]) for window in parse_report(out)[1]}
    assert marks == ({(), ("DEFICIENT",)} if config == "observe" else
                     {(), ("DEFICIENT", "DEGENERATE")})


class TestOracleCommand:
    def test_noiseless_oracle_recovers_parameters(self, tmp_path, capsys):
        # turns must be several samples long or the finite-difference rates
        # misrepresent the rotation at the turn boundaries
        config = write_config(tmp_path,
                              trajectory={"kind": "corner", "n_samples": 200},
                              injection={"true_params": [2.0, 1.0, 3.0, 2.0],
                                         "noise_sigma_total": 0.0, "seed": 3})
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(config), "--out", str(data)])
        assert main(["oracle", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("mean over")][0]
        values = [float(v) for v in mean_line.split(":")[1].split(",")]
        np.testing.assert_allclose(values, [2.0, 1.0, 3.0, 2.0], atol=0.1)

    def test_straight_data_has_no_turning_steps(self, tmp_path, capsys):
        config = write_config(tmp_path,
                              trajectory={"kind": "straight", "n_samples": 20})
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(config), "--out", str(data)])
        assert main(["oracle", "--data", str(data)]) == 1
        assert "no steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--min-turn-rate", "0.01"),
                                             ("--smooth-window", "5")])
    def test_turn_settings_are_no_options(self, capsys, flag, value):
        # the oracle takes the library's MIN_TURN_RATE and SMOOTH_WINDOW
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["oracle", "--data", "d.csv", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_rejects_window_wider_than_the_series(self, tmp_path, capsys):
        # a window wider than the series printed estimates near zero for the
        # body offset and exited 0
        data = turn_data_file(tmp_path / "data.csv", n_samples=2, turn_samples=0)
        assert main(["oracle", "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("locdecomp oracle: the 3-sample smoothing window (SMOOTH_WINDOW) "
                       "is wider than the series of 2 samples\n")

    def test_rejects_window_wider_than_a_turn(self, tmp_path, capsys):
        # a window wider than a turn averages the turn's rates with the legs':
        # window 101 on the shipped corner data (turns of 21 samples) printed
        # a mean of -0.16, -0.09, 3.71, 4.10 against the truth 2, 1, 3, 2
        data = turn_data_file(tmp_path / "data.csv", n_samples=20, turn_samples=3)
        assert main(["oracle", "--data", str(data)]) == 0
        assert "mean over 3 turning steps" in capsys.readouterr().out
        turn_data_file(data, n_samples=20, turn_samples=2)
        assert main(["oracle", "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("locdecomp oracle: the 3-sample smoothing window (SMOOTH_WINDOW) "
                       "is wider than the shortest turn of 2 samples\n")

    def test_estimates_match_the_scalar_decomposition(self, tmp_path, capsys):
        # one broadcast call over the turning samples equals the per-sample
        # closed form bit for bit
        config = write_config(tmp_path, trajectory={"kind": "corner", "n_samples": 200})
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(config), "--out", str(data)])
        capsys.readouterr()
        assert main(["oracle", "--data", str(data)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        inputs, p_other, _ = read_data_file(data)
        d = inputs.ref_position - p_other
        rates = difference_rates(inputs.t, d)
        expected = []
        for k in range(len(inputs)):
            u = inputs[k]
            if abs(u.heading_rate) > 1e-3:
                x = closed_form_decomposition(d[k], rates[k], u.heading, u.heading_rate)
                expected.append(",".join(f"{v:.9g}" for v in [k, u.t, *x]))
        assert rows == expected


class TestInputErrors:
    """Invalid input ends a command with one line on stderr and status 2."""

    def test_missing_data_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["oracle", "--data", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("locdecomp oracle: ") and str(missing) in err
        assert len(err.splitlines()) == 1

    def test_negative_initial_covariance(self, tmp_path, capsys):
        config = write_config(tmp_path, filter={"process_noise": 0.1,
                                                "initial_covariance": -1.0})
        assert main(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("locdecomp experiment: ") and "negative eigenvalue" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["simulate"], ["filter", "--data", "data.csv"], ["experiment", "--runs", "2"]])
    def test_empty_out_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        # argparse read "" as Path("."), so simulate and experiment wrote
        # their files into the working directory with status 0
        config = write_config(tmp_path)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "data.csv")])
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        # the path is checked before any simulation or filter pass
        for name in ("inject_runs", "read_data_file", "run_experiment"):
            monkeypatch.setattr(f"locdecomp.cli.{name}", None)
        assert main([command[0], "--config", str(config), "--out", "", *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"locdecomp {command[0]}: --out must name a path, "
                                  f"got ''\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_empty_output_in_config(self, tmp_path, monkeypatch, capsys):
        # "output": "" wrote to results/ as if the key were absent
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, output="")
        assert main(["experiment", "--config", str(config), "--runs", "2"]) == 2
        assert capsys.readouterr().err == ("locdecomp experiment: output must name a "
                                           "path, got ''\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("args, overrides, message", [
        ([], {"runs": 0}, "runs must be >= 1, got 0"),
        (["--runs", "0"], {}, "--runs must be >= 1, got 0"),
        ([], {"injection": {"true_params": [2.0, 1.0, 3.0, 2.0],
                            "noise_sigma_total": -0.1, "seed": 11}},
         "injection.noise_sigma_total must be finite and >= 0, got -0.1")],
        ids=["runs", "--runs", "noise_sigma_total"])
    def test_config_error_names_the_key(self, tmp_path, capsys, args, overrides, message):
        # each named the library's argument, n_runs or total_sigma
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out), *args]) == 2
        assert capsys.readouterr().err == f"locdecomp experiment: {message}\n"
        assert not out.exists()

    def test_singular_truth_is_invalid_input(self, tmp_path, capsys):
        # a scale deviation of -1 collapses the map: experiment printed a
        # traceback ending in ExperimentRunError "run 0: ..." and exited 1
        config = write_config(tmp_path, model=[{"type": "map_scale"}],
                              injection={"true_params": [-1.0],
                                         "noise_sigma_total": 0.2, "seed": 11})
        out = tmp_path / "out"
        for command in ["experiment", "simulate"]:
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (f"locdecomp {command}: scale factor 0.0 "
                                               f"is not invertible\n")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "simulate", "filter", "observability"])
    def test_singular_initial_mean_is_invalid_input(self, tmp_path, capsys, command):
        # the filter's first sigma point is its initial mean: experiment
        # printed a traceback ending in ExperimentRunError "run 0: step 0:
        # ..." and exited 1, and observability reported the model observable
        config = write_config(tmp_path, model=[{"type": "map_scale"}],
                              injection={"true_params": [0.01],
                                         "noise_sigma_total": 0.2, "seed": 11},
                              filter={"process_noise": 0.1, "initial_mean": [-1.0],
                                      "initial_covariance": 10.0})
        out = tmp_path / "out"
        extra = ["--data", str(tmp_path / "missing.csv")] if command == "filter" else []
        if command != "observability":
            extra += ["--out", str(out)]
        assert main([command, "--config", str(config), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"locdecomp {command}: initial_mean [-1.0]: scale factor "
                                f"0.0 is not invertible\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "simulate", "filter", "observability"])
    def test_mahalanobis_gate_key_fails_every_command(self, tmp_path, capsys, command):
        # every step takes its update, so each command that reads a config
        # refuses the removed gate as an unknown key before it writes anything
        config = write_config(tmp_path, filter={"process_noise": 0.1,
                                                "initial_covariance": 10.0,
                                                "mahalanobis_gate": 3.0})
        with pytest.raises(ValueError, match=r"^unknown key\(s\) \['mahalanobis_gate'\] "
                                             r"in filter; allowed: \[") as excinfo:
            load_config(config)
        out = tmp_path / "out"
        extra = ["--data", str(tmp_path / "missing.csv")] if command == "filter" else []
        if command != "observability":
            extra += ["--out", str(out)]
        assert main([command, "--config", str(config), *extra]) == 2
        assert capsys.readouterr() == ("", f"locdecomp {command}: {excinfo.value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("noise_sigma_total", "NaN", "injection.noise_sigma_total"),
        ("true_params", "[NaN, 1.0, 3.0, 2.0]", "true_params"),
        ("process_noise", "true", "filter.process_noise"),
        ("process_noise", "[[0.1, 0, 0, 0], [0.1]]", "filter.process_noise"),
        ("speed", "NaN", "speed"), ("step", "Infinity", "step")])
    def test_invalid_number_in_config(self, tmp_path, capsys, key, value, named):
        # NaN ended in a traceback with exit status 1, and true ran with Q = I;
        # a ragged list gave numpy's message, naming no key, and a non-finite
        # trajectory setting an array dump of the series
        text = (CONFIGS / "corner.json").read_text()
        default = {"noise_sigma_total": "0.2", "true_params": "[2.0, 1.0, 3.0, 2.0]",
                   "process_noise": "0.1", "speed": "10.0", "step": "1.0"}[key]
        config = tmp_path / "config.json"
        config.write_text(text.replace(f'"{key}": {default}', f'"{key}": {value}'))
        assert main(["experiment", "--config", str(config), "--runs", "2",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"locdecomp experiment: {named} must be ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, value", [
        ("process_noise", [0.1, 0.1, 0.1]), ("process_noise", [[0.1, 0.0], [0.0, 0.1]]),
        ("process_noise", np.tile(0.1 * np.eye(4), (2, 1, 1)).tolist()),
        ("initial_mean", [0.0, 0.0, 0.0])])
    def test_filter_setting_of_another_shape(self, tmp_path, capsys, key, value):
        # the corner model has 4 states
        raw = json.loads((CONFIGS / "corner.json").read_text())
        raw["filter"][key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(config), "--runs", "2",
                     "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"locdecomp experiment: {key} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("process_noise", float("inf")), ("initial_mean", [float("nan"), 0.0, 0.0, 0.0])])
    def test_non_finite_filter_setting(self, tmp_path, capsys, key, value):
        # Infinity printed numpy's RuntimeWarning and its source line before
        # the error, and a NaN initial mean failed naming no key
        raw = json.loads((CONFIGS / "corner.json").read_text())
        raw["filter"][key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(config), "--runs", "2",
                     "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"locdecomp experiment: {key} must be finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed_in_config, argv", [
        (-1, []), (11, ["--seed", "-3"])])
    def test_negative_seed(self, tmp_path, capsys, seed_in_config, argv):
        # the seed failed only when the runs started, with a traceback
        config = write_config(tmp_path, injection={
            "true_params": [2.0, 1.0, 3.0, 2.0], "noise_sigma_total": 0.2,
            "seed": seed_in_config})
        assert main(["experiment", "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("locdecomp experiment: seed must be >= 0, got -")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, message", [
        ("oracle", "line 20: timestamp 17.0 does not increase past 17.0"),
        ("filter", "line 5: ref_east_m value 'east' is not a number"),
        ("experiment", "line 3: timestamp 0.5 does not increase past 1.0")],
        ids=["oracle", "filter", "experiment"])
    def test_malformed_file_names_its_line(self, tmp_path, capsys, command, message):
        # a repeated timestamp made the oracle's difference rates divide by
        # zero, and it printed nan estimates and exited 0; experiment reads a
        # trajectory file, the other two a data file
        out = tmp_path / "out"
        if command == "experiment":
            (tmp_path / "trajectory.csv").write_text(
                "0.0, 0.0, 0.0\n1.0, 10.0, 0.0\n0.5, 20.0, 0.0\n")
            config = write_config(tmp_path, trajectory={"file": "trajectory.csv"})
            args = ["--config", str(config), "--out", str(out)]
        else:
            data = tmp_path / "data.csv"
            main(["simulate", "--config", str(CONFIGS / "corner.json"), "--out", str(data)])
            rows = [line.split(",") for line in data.read_text().splitlines(keepends=True)]
            if command == "oracle":
                rows[19][0] = rows[18][0]   # line 20 repeats the timestamp of line 19
            else:
                rows[4][1] = "east"         # line 5's ref_east_m is a word
            data.write_text("".join(",".join(fields) for fields in rows))
            args = ["--data", str(data)]
            if command == "filter":
                args += ["--config", str(CONFIGS / "corner.json"), "--out", str(out)]
        capsys.readouterr()
        assert main([command, *args]) == 2
        assert capsys.readouterr() == ("", f"locdecomp {command}: {message}\n")
        assert not out.exists()

    def test_filter_failure_still_raises(self, tmp_path):
        config = write_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(config), "--out", str(data)])
        lines = data.read_text().splitlines(keepends=True)
        lines[1:] = [line.rsplit(",", 2)[0] + ",0.0,0.0\n" for line in lines[1:]]
        data.write_text("".join(lines))
        # zero measurement noise is valid input; a singular innovation
        # covariance is a runtime failure of the filter, not a usage error
        bad = write_config(tmp_path, filter={"process_noise": 0.0,
                                             "initial_covariance": 0.0})
        with pytest.raises(FilterStepError, match="^step 0: innovation covariance is singular$"):
            main(["filter", "--config", str(bad), "--data", str(data),
                  "--out", str(tmp_path / "estimates.csv")])


def test_commands_share_the_configured_output_directory(tmp_path, monkeypatch, capsys):
    # simulate wrote a file named after the output directory, and the
    # experiment then failed to create that directory
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, output="results/small")
    out = Path("results/small")
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["filter", "--config", str(config),
                 "--data", str(out / "simulated.csv")]) == 0
    assert main(["experiment", "--config", str(config), "--runs", "2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "estimates.csv", "mse.csv", "simulated.csv", "summary.txt"]


def test_out_names_a_file_or_an_existing_directory(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    named = tmp_path / "named.csv"
    assert main(["simulate", "--config", str(config), "--out", str(named)]) == 0
    assert named.read_bytes() == (tmp_path / "simulated.csv").read_bytes()
    # "." is the working directory
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert main(["simulate", "--config", str(config), "--out", "."]) == 0
    assert Path("simulated.csv").read_bytes() == named.read_bytes()


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", [["observability"], ["experiment", "--runs", "2"]])
def test_closed_output_pipe_exits_one_in_silence(tmp_path, command, unbuffered):
    # buffered output meets the closed pipe at the final flush, unbuffered
    # output at the first print
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = ["--out", str(tmp_path / "run")] if command[0] == "experiment" else []
    proc = subprocess.Popen(
        [sys.executable, "-m", "locdecomp.cli", *command,
         "--config", str(CONFIGS / "corner.json"), *out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()     # before the interpreter has started, let alone written
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["corner.json", "straight.json"])
    def test_configs_parse(self, name):
        from locdecomp.harness import load_config
        cfg = load_config(CONFIGS / name)
        assert cfg.n_runs == 100
        assert cfg.model.state_dim == 4
        np.testing.assert_allclose(cfg.ukf.process_noise, 0.1 * np.eye(4))
