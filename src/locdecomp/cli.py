"""Command line interface.

Subcommands:

- ``simulate``       generate injected localizer data from a configuration
- ``filter``         run the filter over a previously simulated data file
- ``experiment``     full Monte Carlo batch with MSE tables
- ``observability``  windowed rank report for a model along a trajectory
- ``oracle``         per-step closed-form decomposition of a data file

Each subcommand takes the options listed in ``COMMANDS`` and no others.
``--seed`` and ``--runs`` override the configuration file's values
(``observability`` only checks ``--seed``).  ``--out`` names
``experiment``'s output directory, and the file ``simulate`` or ``filter``
writes, or an existing directory to write it into.  Without ``--out``,
``simulate`` and ``filter`` write ``simulated.csv`` and ``estimates.csv``
into the configuration's output directory, where ``experiment`` writes
``mse.csv`` and ``summary.txt``; ``experiment`` then prints the summary.
Invalid input exits with status 2 and one line on stderr; a standard
output closed by its reader exits with status 1 and nothing on stderr.

A simulated data file is comma-separated text, one step per line under a
``#`` header naming the columns, read by
:func:`~locdecomp.simulation.read_table`.  It holds one record
``(inputs, p_other, r)``: a kinematic input series with the reference
positions in ``ref_position`` (N, 2), the other localizer's positions
(N, 2) and diagonal measurement covariances (N, 2, 2).  The file commands
pass it as arrays: ``simulate`` writes one run of ``inject_runs``,
``filter`` hands ``filter_steps`` the differences ``inputs.ref_position -
p_other`` along with ``r`` and ``inputs``, and ``oracle`` makes one
``closed_form_decomposition`` call over the turning steps of those
differences.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .error_models import KinematicInput
from .estimator import filter_steps
from .exceptions import DimensionMismatch, ParseError
from .harness import (FLOAT_FORMAT, ExperimentConfig, _fmt, derive_run_seed,
                      emit_results, load_config, run_experiment, write_table)
from .observability import (MIN_TURN_RATE, SMOOTH_WINDOW, closed_form_decomposition,
                            difference_rates, numerical_rank_test)
from .simulation import inject_runs, read_table

DATA_COLUMNS = ("t_s", "ref_east_m", "ref_north_m", "other_east_m",
                "other_north_m", "heading_rad", "heading_rate_rps",
                "r_var_east_m2", "r_var_north_m2")


def write_data_file(path, inputs: KinematicInput, p_other, r) -> Path:
    """Write the record ``(inputs, p_other, r)`` of one run as a simulated
    data file: positions (N, 2), or (1, N, 2) as :func:`inject_runs` returns
    them for one seed.  The file stores variances, so ``r`` must be diagonal."""
    n = len(inputs)
    if np.shape(p_other) not in ((n, 2), (1, n, 2)):
        raise DimensionMismatch(f"p_other must have shape ({n}, 2) or (1, {n}, 2), as a "
                                f"data file holds one run, got {np.shape(p_other)}")
    if np.any(r[:, [0, 1], [1, 0]]):
        raise ValueError("r must be diagonal: the data file stores variances only")
    table = np.column_stack([inputs.t, inputs.ref_position.reshape(-1, 2),
                             np.reshape(p_other, (-1, 2)), inputs.heading,
                             inputs.heading_rate, r[:, 0, 0], r[:, 1, 1]])
    return write_table(path, table, ",".join(DATA_COLUMNS), comments="# ")


def read_data_file(path) -> tuple[KinematicInput, np.ndarray, np.ndarray]:
    """Read a simulated data file as the record ``(inputs, p_other, r)`` of
    :func:`write_data_file`.  Besides the faults of
    :func:`~locdecomp.simulation.read_table`, a negative variance raises
    ``ParseError`` naming its line and column."""
    table, line_nos = read_table(path, DATA_COLUMNS)
    rows, cols = np.nonzero(table[:, 7:] < 0.0)
    if rows.size:
        raise ParseError(f"{DATA_COLUMNS[7 + cols[0]]} must be non-negative, got "
                         f"{table[rows[0], 7 + cols[0]]}", line_nos[rows[0]])
    inputs = KinematicInput(t=table[:, 0], heading=table[:, 5], ref_position=table[:, 1:3],
                            heading_rate=table[:, 6])
    return inputs, table[:, 3:5], table[:, 7:, None] * np.eye(2)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["injection"] = replace(cfg.injection, rng_seed=args.seed)
    if getattr(args, "runs", None) is not None:
        if args.runs < 1:
            raise ValueError(f"--runs must be >= 1, got {args.runs}")
        updates["n_runs"] = args.runs
    return replace(cfg, **updates) if updates else cfg


def _output_path(args, cfg: ExperimentConfig, name: str | None = None) -> Path:
    """Where a command writes: ``--out``, else the configuration's output
    directory.  With ``name``, the file: ``--out`` names it, or an existing
    directory to write ``name`` into."""
    if args.out is None:
        folder = Path(cfg.output or "results")
        return folder if name is None else folder / name
    # checked as given: Path("") is the working directory
    if not args.out:
        raise ValueError("--out must name a path, got ''")
    out = Path(args.out)
    return out / name if name is not None and out.is_dir() else out


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    path = _output_path(args, cfg, "simulated.csv")
    inputs, p_other, r = inject_runs(cfg.trajectory.series, cfg.injection, cfg.model,
                                     [derive_run_seed(cfg.injection.rng_seed, 0)])
    out = write_data_file(path, inputs, p_other, r)
    print(f"wrote {len(inputs)} steps to {out}")
    return 0


def _cmd_filter(args) -> int:
    cfg = load_config(args.config)
    path = _output_path(args, cfg, "estimates.csv")
    inputs, p_other, r = read_data_file(args.data)
    dim = cfg.model.state_dim
    steps = filter_steps(cfg.model, cfg.ukf, (inputs.ref_position - p_other)[None], r, inputs)
    table = np.column_stack([np.arange(len(inputs)), inputs.t, [
        np.concatenate([s.means[0], np.diagonal(s.covs[0])]) for s in steps]])
    header = (["step", "t_s"] + [f"mean_x{j + 1}" for j in range(dim)]
              + [f"var_x{j + 1}" for j in range(dim)])
    out = write_table(path, table, ",".join(header), comments="# ")
    print(f"wrote {len(table)} steps to {out}")
    print("final estimate: " + ", ".join(_fmt(v) for v in table[-1, 2:2 + dim]))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    folder = _output_path(args, cfg)
    paths = emit_results(run_experiment(cfg), folder, cfg.convergence_threshold)
    print(paths[1].read_text(encoding="utf-8"), end="")   # summary.txt
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_observability(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:   # an invalid seed fails as in every command
        replace(cfg.injection, rng_seed=args.seed)
    report = numerical_rank_test(cfg.model, cfg.ukf.initial_mean, cfg.trajectory.series)
    wl, dim = report.window_length, report.state_dim
    degenerate = set(report.degenerate_windows)
    row = f"%d,%d,%d,{FLOAT_FORMAT}%s"
    print("\n".join([
        f"state_dim = {dim}",
        f"window_length = {wl}",
        f"observable = {str(report.observable).lower()}",
        f"deficient_windows = {len(report.deficient_windows)}",
        f"degenerate_windows = {len(report.degenerate_windows)}",
        "start,end,rank,condition",
        *(row % (start, start + wl, rank, cond, (",DEFICIENT" if rank < dim else "")
                 + (",DEGENERATE" if (start, start + wl) in degenerate else ""))
          for start, rank, cond in zip(report.window_starts, report.rank_profile,
                                       report.condition_numbers))]))
    return 0


def _cmd_oracle(args) -> int:
    inputs, p_other, _ = read_data_file(args.data)
    d = inputs.ref_position - p_other
    rates = difference_rates(inputs.t, d)
    turning = np.flatnonzero(np.abs(inputs.heading_rate) > MIN_TURN_RATE)
    # a window wider than a turn averages the turn's rates with the legs'
    shortest = min(map(len, np.split(turning, np.flatnonzero(np.diff(turning) > 1) + 1)))
    if turning.size and SMOOTH_WINDOW > shortest:
        raise ValueError(f"the {SMOOTH_WINDOW}-sample smoothing window (SMOOTH_WINDOW) "
                         f"is wider than the shortest turn of {shortest} samples")
    print("step,t_s,body_x,body_y,map_east,map_north")
    if not turning.size:
        print("no steps with sufficient turn rate", file=sys.stderr)
        return 1
    angle, rate = inputs.heading[turning], inputs.heading_rate[turning]
    estimates = closed_form_decomposition(d[turning], rates[turning], angle, rate)
    np.savetxt(sys.stdout, np.column_stack([turning, inputs.t[turning], estimates]),
               fmt=FLOAT_FORMAT, delimiter=",")
    print(f"mean over {turning.size} turning steps: "
          + ", ".join(_fmt(v) for v in estimates.mean(axis=0)))
    return 0


_ARGUMENTS = {
    "--config": dict(type=Path, required=True, help="experiment configuration file (JSON)"),
    "--data": dict(type=Path, required=True, help="simulated data file"),
    "--seed": dict(type=int, help="override the injection seed"),
    "--runs": dict(type=int, help="override the number of runs"),
    "--out": dict(help="override the output path"),
}
# subcommand -> (handler, help, options).  observability's --seed is checked
# and changes nothing, as the rank test draws no random numbers; it is
# accepted so that one argument list (bench/run.py) serves every subcommand
COMMANDS = {
    "simulate": (_cmd_simulate, "generate injected localizer data",
                 ("--config", "--seed", "--out")),
    "filter": (_cmd_filter, "run the filter over a data file",
               ("--config", "--data", "--out")),
    "experiment": (_cmd_experiment, "run a Monte Carlo experiment",
                   ("--config", "--seed", "--runs", "--out")),
    "observability": (_cmd_observability,
                      "windowed rank report over windows of 2 * state_dim samples",
                      ("--config", "--seed")),
    "oracle": (_cmd_oracle, "closed-form decomposition of a data file", ("--data",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdecomp",
        description="Decompose the disparity between two independent "
                    "localization estimates into parameterized error components.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for option in options:
            p.add_argument(option, **_ARGUMENTS[option])
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  Invalid input (any
    ``ValueError``, e.g. a bad configuration key or a ``ParseError``) and
    file errors print one line to stderr and return 2; a standard output
    closed by its reader returns 1 with nothing on stderr; runtime failures
    such as ``FilterStepError`` propagate."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"locdecomp {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
