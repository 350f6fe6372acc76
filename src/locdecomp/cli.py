"""Command line interface.

Subcommands:

- ``simulate``       generate injected localizer data from a configuration
- ``filter``         run the filter over a previously simulated data file
- ``experiment``     full Monte Carlo batch with MSE tables
- ``observability``  windowed rank report for a model along a trajectory
- ``oracle``         per-step closed-form decomposition of a data file

Flags given on the command line override the corresponding configuration
file values.  Simulated data files are comma-separated text with one step
per line and a ``#`` header naming the columns.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .error_models import KinematicInput
from .estimator import DifferenceObservation, run_filter
from .exceptions import ParseError
from .frames import Heading
from .harness import (ExperimentConfig, _fmt, build_trajectory, emit_results,
                      load_config, run_experiment)
from .observability import (DEFAULT_RANK_TOL, closed_form_decomposition,
                            difference_rates, numerical_rank_test)
from .simulation import inject_errors

DATA_COLUMNS = ("t_s", "ref_east_m", "ref_north_m", "other_east_m",
                "other_north_m", "heading_rad", "heading_rate_rps",
                "r_var_east_m2", "r_var_north_m2")


def write_data_file(steps, path) -> Path:
    """Write injected steps in the simulated-data file format."""
    path = Path(path)
    if str(path.parent):
        path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# " + ",".join(DATA_COLUMNS)]
    for s in steps:
        row = [s.u.t, s.p_ref[0], s.p_ref[1], s.p_other[0], s.p_other[1],
               s.u.heading.angle, s.u.heading.rate, s.obs.R[0, 0], s.obs.R[1, 1]]
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_data_file(path) -> list[tuple[DifferenceObservation, KinematicInput]]:
    """Read a simulated data file back into observation/input pairs."""
    pairs = []
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
                if not np.isfinite(values).all():
                    raise ValueError(f"{DATA_COLUMNS[np.argmin(np.isfinite(values))]} "
                                     "must be finite")
                t, ref_e, ref_n, oth_e, oth_n, ang, rate, var_e, var_n = values
                u = KinematicInput(t=t, heading=Heading(angle=ang, rate=rate),
                                   ref_position=np.array([ref_e, ref_n]))
                obs = DifferenceObservation(d=np.array([ref_e - oth_e, ref_n - oth_n]),
                                            R=np.diag([var_e, var_n]))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            pairs.append((obs, u))
    if not pairs:
        raise ParseError(f"{path}: no data lines found")
    return pairs


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["injection"] = replace(cfg.injection, rng_seed=args.seed)
    if getattr(args, "runs", None) is not None:
        updates["n_runs"] = args.runs
    if getattr(args, "out", None) is not None:
        updates["output"] = str(args.out)
    return replace(cfg, **updates) if updates else cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    trajectory = build_trajectory(cfg.trajectory)
    steps = inject_errors(trajectory, cfg.injection, cfg.model)
    out = Path(cfg.output or "simulated.csv")
    if out.is_dir():
        out = out / "simulated.csv"
    write_data_file(steps, out)
    print(f"wrote {len(steps)} steps to {out}")
    return 0


def _cmd_filter(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    pairs = read_data_file(args.data)
    beliefs = run_filter(cfg.model, cfg.ukf, pairs)
    dim = cfg.model.state_dim
    out = Path(cfg.output or "estimates.csv")
    if out.is_dir():
        out = out / "estimates.csv"
    if str(out.parent):
        out.parent.mkdir(parents=True, exist_ok=True)
    header = (["step", "t_s"] + [f"mean_x{j + 1}" for j in range(dim)]
              + [f"var_x{j + 1}" for j in range(dim)])
    lines = ["# " + ",".join(header)]
    for k, belief in enumerate(beliefs[1:]):
        row = [str(k), _fmt(pairs[k][1].t)] \
            + [_fmt(v) for v in belief.mean] \
            + [_fmt(v) for v in np.diag(belief.covariance)]
        lines.append(",".join(row))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    final = beliefs[-1].mean
    print(f"wrote {len(beliefs) - 1} steps to {out}")
    print("final estimate: " + ", ".join(_fmt(v) for v in final))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    series = run_experiment(cfg)
    out_dir = cfg.output or "results"
    paths = emit_results(series, out_dir, cfg.convergence_threshold)
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
    report = numerical_rank_test(cfg.model, cfg.ukf.initial_belief.mean,
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
    pairs = read_data_file(args.data)
    t = np.array([u.t for _, u in pairs])
    d = np.array([obs.d for obs, _ in pairs])
    rates = difference_rates(t, d, smooth_window=args.smooth_window)
    print("step,t_s,body_x,body_y,map_east,map_north")
    estimates = []
    for k, (_, u) in enumerate(pairs):
        if abs(u.heading.rate) <= args.min_turn_rate:
            continue
        x = closed_form_decomposition(d[k], rates[k], u.heading.angle,
                                      u.heading.rate,
                                      min_turn_rate=args.min_turn_rate)
        estimates.append(x)
        print(f"{k},{_fmt(u.t)}," + ",".join(_fmt(v) for v in x))
    if not estimates:
        print("no steps with sufficient turn rate", file=sys.stderr)
        return 1
    mean = np.mean(estimates, axis=0)
    print("mean over " + str(len(estimates)) + " turning steps: "
          + ", ".join(_fmt(v) for v in mean))
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
    p.add_argument("--min-turn-rate", type=float, default=1e-3,
                   help="skip steps with |heading rate| at or below this")
    p.add_argument("--smooth-window", type=int, default=3,
                   help="moving-average width for difference rates (odd)")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
