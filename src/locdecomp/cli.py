"""Command line interface.

Subcommands:

- ``simulate``       generate injected localizer data from a configuration
- ``filter``         run the filter over a previously simulated data file
- ``experiment``     full Monte Carlo batch with MSE tables
- ``observability``  windowed rank report for a model along a trajectory
- ``oracle``         per-step closed-form decomposition of a data file

Flags given on the command line override the corresponding configuration
file values.  Without ``--out``, ``simulate`` and ``filter`` write
``simulated.csv`` and ``estimates.csv`` into the configuration's output
directory, where ``experiment`` writes its results.  Invalid input exits
with status 2 and one line on stderr.

A simulated data file is comma-separated text, one step per line under a
``#`` header naming the columns.  It holds one record
``(inputs, p_other, r)``: a kinematic input series with the reference
positions in ``ref_position`` (N, 2), the other localizer's positions
(N, 2) and diagonal measurement covariances (N, 2, 2).  The file commands
pass it as arrays: ``simulate`` writes one run of ``inject_runs``,
``filter`` hands it to ``filter_runs`` and ``oracle`` makes one
``closed_form_decomposition`` call over the turning steps.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .error_models import KinematicInput
from .estimator import filter_runs
from .exceptions import NonMonotoneTime, ParseError
from .frames import Heading
from .harness import (FLOAT_FORMAT, ExperimentConfig, _fmt, build_trajectory,
                      emit_results, load_config, run_experiment, write_table)
from .observability import (DEFAULT_MIN_TURN_RATE, DEFAULT_RANK_TOL,
                            DEFAULT_SMOOTH_WINDOW, closed_form_decomposition,
                            difference_rates, numerical_rank_test)
from .simulation import inject_runs

DATA_COLUMNS = ("t_s", "ref_east_m", "ref_north_m", "other_east_m",
                "other_north_m", "heading_rad", "heading_rate_rps",
                "r_var_east_m2", "r_var_north_m2")


def write_data_file(path, inputs: KinematicInput, p_other, r) -> Path:
    """Write the record ``(inputs, p_other, r)`` of one run as a simulated
    data file: positions (N, 2), or (1, N, 2) as :func:`inject_runs` returns
    them for one seed.  The file stores variances, so ``r`` must be diagonal."""
    if np.any(r[:, [0, 1], [1, 0]]):
        raise ValueError("r must be diagonal: the data file stores variances only")
    table = np.column_stack([inputs.t, inputs.ref_position.reshape(-1, 2),
                             np.reshape(p_other, (-1, 2)), inputs.heading.angle,
                             inputs.heading.rate, r[:, 0, 0], r[:, 1, 1]])
    return write_table(path, table, ",".join(DATA_COLUMNS), comments="# ")


def read_data_file(path) -> tuple[KinematicInput, np.ndarray, np.ndarray]:
    """Read a simulated data file as the record ``(inputs, p_other, r)`` of
    :func:`write_data_file`.  A wrong field count, a non-numeric or
    non-finite field or a negative variance raises ``ParseError``, a
    timestamp that does not increase ``NonMonotoneTime``; both name the line."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split(",")
            if len(tokens) != len(DATA_COLUMNS):
                raise ParseError(f"expected {len(DATA_COLUMNS)} fields, got "
                                 f"{len(tokens)}", line_no)
            try:
                values = [float(tok) for tok in tokens]
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            finite = np.isfinite(values)
            if not finite.all():
                raise ParseError(f"{DATA_COLUMNS[np.argmin(finite)]} must be finite", line_no)
            for column, value in zip(DATA_COLUMNS[-2:], values[-2:]):
                if value < 0.0:
                    raise ParseError(f"{column} must be non-negative, got {value}", line_no)
            if rows and values[0] <= rows[-1][0]:
                raise NonMonotoneTime(f"line {line_no}: timestamp {values[0]} does not "
                                      f"increase past {rows[-1][0]}")
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data lines found")
    table = np.array(rows)
    inputs = KinematicInput(t=table[:, 0], heading=Heading(table[:, 5], table[:, 6]),
                            ref_position=table[:, 1:3])
    return inputs, table[:, 3:5], table[:, 7:, None] * np.eye(2)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["injection"] = replace(cfg.injection, rng_seed=args.seed)
    if getattr(args, "runs", None) is not None:
        updates["n_runs"] = args.runs
    if getattr(args, "out", None) is not None:
        updates["output"] = str(args.out)
    return replace(cfg, **updates) if updates else cfg


def _output_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output or "results")


def _output_path(args, cfg: ExperimentConfig, name: str) -> Path:
    """``--out`` names the file, or an existing directory to write ``name``
    into; without it, ``name`` goes into the experiment's output directory."""
    if args.out is None:
        return _output_dir(cfg) / name
    return args.out / name if args.out.is_dir() else args.out


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    inputs, p_other, r = inject_runs(build_trajectory(cfg.trajectory), cfg.injection,
                                     cfg.model, [cfg.injection.rng_seed])
    out = write_data_file(_output_path(args, cfg, "simulated.csv"), inputs, p_other, r)
    print(f"wrote {len(inputs)} steps to {out}")
    return 0


def _cmd_filter(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    inputs, p_other, r = read_data_file(args.data)
    dim = cfg.model.state_dim
    passes = filter_runs(cfg.model, cfg.ukf, (inputs.ref_position - p_other)[None], r, inputs)
    table = np.column_stack([np.arange(len(inputs)), inputs.t, [
        np.concatenate([means[0], np.diagonal(covs[0])]) for means, covs in passes]])
    header = (["step", "t_s"] + [f"mean_x{j + 1}" for j in range(dim)]
              + [f"var_x{j + 1}" for j in range(dim)])
    out = write_table(_output_path(args, cfg, "estimates.csv"), table, ",".join(header),
                      comments="# ")
    print(f"wrote {len(table)} steps to {out}")
    print("final estimate: " + ", ".join(_fmt(v) for v in table[-1, 2:2 + dim]))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    series = run_experiment(cfg)
    paths = emit_results(series, _output_dir(cfg), cfg.convergence_threshold)
    print(f"{cfg.n_runs} runs x {series.n_steps} steps")
    print("final MSE:      " + ", ".join(_fmt(v) for v in series.final_mse))
    print("initial MSE:    " + ", ".join(_fmt(v) for v in series.initial_mse))
    print("final estimate: " + ", ".join(_fmt(v) for v in series.mean[-1]))
    flags = series.converged(cfg.convergence_threshold)
    print("converged:      " + ", ".join(str(bool(f)).lower() for f in flags))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_observability(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = numerical_rank_test(cfg.model, cfg.ukf.initial_mean,
                                 build_trajectory(cfg.trajectory),
                                 window_length=args.window,
                                 rank_tolerance=args.tolerance)
    print(f"state_dim = {report.state_dim}")
    print(f"window_length = {report.window_length}")
    print(f"observable = {str(report.observable).lower()}")
    print(f"deficient_windows = {len(report.deficient_windows)}")
    print(f"degenerate_windows = {len(report.degenerate_windows)}")
    print("start,end,rank,condition")
    degenerate = set(report.degenerate_windows)
    for start, rank, cond in zip(report.window_starts, report.rank_profile,
                                 report.condition_numbers):
        end = start + report.window_length
        mark = ""
        if rank < report.state_dim:
            mark = ",DEFICIENT"
        if (start, end) in degenerate:
            mark += ",DEGENERATE"
        print(f"{start},{end},{rank},{_fmt(cond)}{mark}")
    return 0


def _cmd_oracle(args) -> int:
    if not 0.0 <= args.min_turn_rate < np.inf:
        raise ValueError(f"--min-turn-rate must be finite and >= 0, "
                         f"got {args.min_turn_rate}")
    inputs, p_other, _ = read_data_file(args.data)
    d = inputs.ref_position - p_other
    rates = difference_rates(inputs.t, d, smooth_window=args.smooth_window)
    turning = np.flatnonzero(np.abs(inputs.heading.rate) > args.min_turn_rate)
    print("step,t_s,body_x,body_y,map_east,map_north")
    if not turning.size:
        print("no steps with sufficient turn rate", file=sys.stderr)
        return 1
    angle, rate = inputs.heading.angle[turning], inputs.heading.rate[turning]
    estimates = closed_form_decomposition(d[turning], rates[turning], angle, rate,
                                          min_turn_rate=args.min_turn_rate)
    np.savetxt(sys.stdout, np.column_stack([turning, inputs.t[turning], estimates]),
               fmt=FLOAT_FORMAT, delimiter=",")
    print(f"mean over {turning.size} turning steps: "
          + ", ".join(_fmt(v) for v in estimates.mean(axis=0)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdecomp",
        description="Decompose the disparity between two independent "
                    "localization estimates into parameterized error components.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", type=Path, required=config_required,
                       help="experiment configuration file (JSON)")
        p.add_argument("--seed", type=int, help="override the injection seed")
        p.add_argument("--out", type=Path, help="override the output path")

    p = sub.add_parser("simulate", help="generate injected localizer data")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", help="run the filter over a data file")
    add_common(p)
    p.add_argument("--data", type=Path, required=True, help="simulated data file")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    add_common(p)
    p.add_argument("--runs", type=int, help="override the number of runs")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("observability", help="windowed rank report")
    add_common(p)
    p.add_argument("--window", type=int, default=None,
                   help="window length in samples (default: 2 * state_dim)")
    p.add_argument("--tolerance", type=float, default=DEFAULT_RANK_TOL,
                   help="relative singular value cutoff for the rank")
    p.set_defaults(func=_cmd_observability)

    p = sub.add_parser("oracle", help="closed-form decomposition of a data file")
    p.add_argument("--data", type=Path, required=True, help="simulated data file")
    p.add_argument("--min-turn-rate", type=float, default=DEFAULT_MIN_TURN_RATE,
                   help="skip steps with |heading rate| at or below this")
    p.add_argument("--smooth-window", type=int, default=DEFAULT_SMOOTH_WINDOW,
                   help="moving-average width for difference rates (odd)")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  Invalid input (the
    library's ``ValueError`` family, e.g. ``ParseError`` or ``ConfigError``)
    and file errors print one line to stderr and return 2; runtime failures
    such as ``FilterStepError`` propagate."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"locdecomp {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
