"""One benchmark invocation in a fresh interpreter.

Runs ``locdecomp.cli.main`` with the given arguments, sends the CLI's
standard output to ``<out>/stdout.txt`` and prints one JSON line with the
timings:

- ``setup_s``: from ``--t0`` (the parent's ``time.perf_counter()`` just
  before it started this process; the clock is system-wide) until
  ``load_config`` returned, i.e. interpreter start, ``import locdecomp``
  and configuration loading including trajectory synthesis;
- ``wall_s``: from then until the CLI returned and its output was closed.

The ``MseSeries`` that ``run_experiment`` returns is saved at full
precision to ``<out>/series.npz`` (``checks.SERIES_FIELDS``).  With
``--trace 1`` the public functions are wrapped (see ``spans.py``);
the spans go to ``<out>/spans.npz`` and the per-layer metrics into the
JSON line.  With ``--setup-only`` it loads the configuration and stops.

Usage: invoke.py --t0 T --out DIR [--trace 0|1] [--setup-only CONFIG] -- CLI ARGS
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import locdecomp
from locdecomp import cli, harness

import checks
import spans


def _openblas_version() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (TypeError, KeyError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = spans.SpanRecorder() if args.trace else None
    absent = spans.install(recorder) if recorder else []
    loaded = {}
    load_config = harness.load_config

    def marked_load_config(path):
        cfg = load_config(path)
        loaded["t"] = time.perf_counter()
        loaded["cfg"] = cfg
        return cfg

    spans.rebind(load_config, marked_load_config)
    run_experiment = harness.run_experiment

    def kept_run_experiment(cfg):
        loaded["series"] = run_experiment(cfg)
        return loaded["series"]

    spans.rebind(run_experiment, kept_run_experiment)

    if args.setup_only is not None:
        harness.load_config(args.setup_only)
        print(json.dumps({"setup_s": loaded["t"] - args.t0}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "series.npz").unlink(missing_ok=True)
    with open(args.out / "stdout.txt", "w", encoding="utf-8") as stream, \
            contextlib.redirect_stdout(stream):
        code = cli.main(cli_args)
    t_done = time.perf_counter()
    if "t" not in loaded:
        raise RuntimeError("the CLI never called load_config")

    cfg = loaded["cfg"]
    if "series" in loaded:
        np.savez(args.out / "series.npz", **{name: getattr(loaded["series"], name)
                                             for name in checks.SERIES_FIELDS})
    result = {
        "exit_code": code,
        "setup_s": loaded["t"] - args.t0,
        "wall_s": t_done - loaded["t"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "openblas": _openblas_version(),
                     "locdecomp": getattr(locdecomp, "__version__", None)},
    }
    if recorder is not None:
        experiment = cli_args[:1] == ["experiment"]
        n_runs = cfg.n_runs if experiment else 0
        n_samples = cfg.trajectory.n_samples if experiment else 0
        windows = 0 if experiment else len(checks.parse_report(
            (args.out / "stdout.txt").read_text(encoding="utf-8"))["windows"])
        table = recorder.arrays()
        np.savez(args.out / "spans.npz", **table)
        result["layers"] = spans.layer_metrics(table, n_runs, n_runs * n_samples, windows)
        result["spans"] = int(table["start"].size)
        result["absent"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
