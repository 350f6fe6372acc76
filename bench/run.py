"""locdecomp benchmark: runs one workload through the public CLI and prints
its metrics, with a JSON object as the last line of standard output.

    python3 bench/run.py --workload corner|straight|observe|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each invocation is a fresh interpreter
(``bench/invoke.py``) running ``locdecomp.cli.main``; invocations run one
at a time (a closed loop with one client) until ``--seconds`` is used up.
After every invocation the run times a fixed reference kernel in this
process; ``wall_rel``, an invocation's wall time over the mean of the
reference times just before and after it, cancels the drift of a shared
host's speed (see ``reference_s``).
``--seconds`` belongs to the benchmark's command interface (``--workload
--seed --seconds --trace``) and defaults to ``run_seconds`` of
``BENCHMARK.json``.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics from traced invocations
alternating with untraced ones (for ``trace.overhead_frac``).  With
``all`` the last line holds every workload's metrics, each named
``<workload>.<metric>``.  Every invocation's output is checked; the exit
code is 1 when a check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the program runs single-threaded (workers = 1, BLAS pinned to one thread);
# the reference kernel must run the same way, so pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
# a whole run, all workloads included, must end within 180 s even if the
# program hangs
RUN_DEADLINE_S = 170

WORKLOADS = {
    "corner": ("experiment", "configs/corner.json"),
    "straight": ("experiment", "configs/straight.json"),
    "observe": ("observability", "bench/configs/observe.json"),
}
SETUP_PROBES = 6
# reference kernel steps timed after every invocation (about 0.6 s on a
# 2 vCPU Xeon at 2.1 GHz)
REFERENCE_STEPS = 10_000


def reference_s(steps: int = REFERENCE_STEPS) -> float:
    """Seconds a fixed piece of work takes on this host right now.

    A shared host's per-core speed drifts (by about +-20 % over tens of
    seconds on a 2 vCPU share of a Xeon), which no number of invocations
    in one run averages out.  This kernel is shaped like the program's
    inner loop (a Python loop over sigma points of a 6-d state, with small
    numpy calls), so the host's drift moves it as it moves the program,
    and dividing by it cancels the drift.  The work is fixed here, outside
    the program, so it is the same on every commit.
    """
    rng = np.random.default_rng(0)
    root0 = rng.standard_normal((6, 6))
    cov = root0 @ root0.T + 6.0 * np.eye(6)
    mean = np.zeros(6)
    t = time.perf_counter()
    for _ in range(steps):
        root = np.linalg.cholesky(cov)
        points = np.vstack([mean, mean + root.T, mean - root.T])
        moved = np.array([np.sin(p) + 0.1 * p for p in points])
        mean = moved.mean(axis=0)
        dev = moved - mean
        cov = 0.5 * cov + dev.T @ dev / len(points) + np.eye(6)
    return time.perf_counter() - t


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def load_spec() -> dict:
    """BENCHMARK.json: run length and the unit of every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env  # BLAS stays pinned to one thread (set at import above)


def invoke(out: Path, deadline: float, trace: bool = False,
           setup_only: Path | None = None, cli_args=()) -> dict:
    """Start one fresh interpreter, wait for it (killing it at the
    ``time.perf_counter()`` deadline), return its JSON line."""
    cmd = [sys.executable, str(BENCH / "invoke.py"), "--out", str(out),
           "--trace", str(int(trace))]
    if setup_only is not None:
        cmd += ["--setup-only", str(setup_only)]
    cmd += ["--t0"]
    t0 = time.perf_counter()
    if t0 >= deadline:
        raise RuntimeError(f"the run's {RUN_DEADLINE_S} s deadline has passed")
    proc = subprocess.run(cmd + [repr(t0), "--", *cli_args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=deadline - t0)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"invocation exited with {proc.returncode}: {' | '.join(tail)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("invocation printed no result")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT.resolve():
            return None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "locdecomp").glob("*.py")))


class Workload:
    """One workload: its CLI arguments and the checks on its output."""

    def __init__(self, name: str, seed: int | None):
        self.name = name
        self.command, config = WORKLOADS[name]
        self.config = ROOT / config
        if not self.config.is_file() or not (ROOT / "src" / "locdecomp").is_dir():
            raise BenchError(f"{self.config} or src/locdecomp missing; run from the "
                             "root of a locdecomp checkout")
        raw = json.loads(self.config.read_text(encoding="utf-8"))
        self.default_seed = int(raw["injection"]["seed"])
        self.seed = self.default_seed if seed is None else seed
        self.n_runs = int(raw.get("runs", 1))
        self.n_samples = int(raw["trajectory"]["n_samples"])
        self.out = OUT / name
        self.first_output: dict | None = None

    @property
    def experiment(self) -> bool:
        return self.command == "experiment"

    @property
    def golden_applies(self) -> bool:
        # the rank test reads no random numbers, so its golden holds at any seed
        return not self.experiment or self.seed == self.default_seed

    def work(self, windows: int) -> int:
        """Filtered steps (runs x samples) or ranked windows of one invocation."""
        return self.n_runs * self.n_samples if self.experiment else windows

    def cli_args(self) -> list[str]:
        args = [self.command, "--config", str(self.config), "--seed", str(self.seed)]
        return args + (["--out", str(self.out / "result")] if self.experiment else [])

    def check(self) -> dict:
        """Check the last invocation's output; returns errors and record fields."""
        if self.experiment:
            files = {n: (self.out / "result" / n).read_text(encoding="utf-8")
                     for n in ("mse.csv", "summary.txt")}
            final, errors = checks.check_experiment(self.name, files["mse.csv"],
                                                    files["summary.txt"],
                                                    self.n_runs, self.n_samples)
            dev = None
            if self.golden_applies:
                golden = {n: (GOLDEN / self.name / n).read_text(encoding="utf-8")
                          for n in files}
                errors += checks.experiment_text_errors(
                    files["mse.csv"], files["summary.txt"],
                    golden["mse.csv"], golden["summary.txt"])
                with np.load(self.out / "series.npz") as series, \
                        np.load(GOLDEN / self.name / "series.npz") as ref:
                    dev, series_errors = checks.series_deviation(series, ref)
                errors += series_errors
            fields = {"final_mse": final, "windows": 0}
        else:
            files = {"report.txt": (self.out / "stdout.txt").read_text(encoding="utf-8")}
            golden = (GOLDEN / self.name / "report.txt").read_text(encoding="utf-8")
            dev, errors = checks.check_report(files["report.txt"], golden)
            fields = {"windows": len(checks.parse_report(files["report.txt"])["windows"])}
        if self.first_output is None:
            self.first_output = files
        elif files != self.first_output:
            errors.append("output differs from the first invocation of this run")
        return {"errors": errors, "ref_dev": dev, **fields}


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 units: dict, deadline: float) -> dict:
    wl = Workload(name, seed)
    shutil.rmtree(wl.out, ignore_errors=True)
    setup_samples = []
    try:
        # warm-up: compiles bytecode and proves the program imports
        invoke(wl.out / "setup", deadline, setup_only=wl.config)
        if not trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(
                    invoke(wl.out / "setup", deadline, setup_only=wl.config)["setup_s"])
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        raise BenchError(f"set-up failed: {exc}") from exc

    kinds = [False, True] if trace else [False]
    samples = {False: [], True: []}
    took = {False: [], True: []}
    attempted, failures, devs, extra = 0, [], [], {}
    references = [reference_s()]
    start = time.perf_counter()
    while True:
        traced = kinds[attempted % len(kinds)]
        expected = statistics.median(took[traced]) if took[traced] else 0.0
        # start another invocation when the run then ends nearer to `seconds`
        if attempted and (time.perf_counter() >= deadline or (
                attempted >= len(kinds)
                and time.perf_counter() - start + expected / 2 > seconds)):
            break
        shutil.rmtree(wl.out / "result", ignore_errors=True)
        t = time.perf_counter()
        attempted += 1
        try:
            res = invoke(wl.out, deadline, trace=traced, cli_args=wl.cli_args())
            if res["exit_code"] != 0:
                raise RuntimeError(f"CLI returned {res['exit_code']}")
            checked = wl.check()
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError,
                KeyError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        finally:
            references.append(reference_s())
            took[traced].append(time.perf_counter() - t)
        res["reference_s"] = (references[-2] + references[-1]) / 2
        res["wall_rel"] = res["wall_s"] / res["reference_s"]
        if checked["ref_dev"] is not None:
            devs.append(checked["ref_dev"])
        if checked["errors"]:
            failures.extend(checked["errors"])
            continue
        samples[traced].append(res)
        extra = {k: v for k, v in checked.items() if k not in ("errors", "ref_dev")}
        extra["versions"] = res["versions"]
        if traced:
            extra["absent"] = res["absent"]
    failed = attempted - len(samples[False]) - len(samples[True])

    def median(key, kind=False):
        return statistics.median([r[key] for r in samples[kind]])

    metrics, raw = {}, {}
    sampled = {"reference_s": references}
    plain = samples[False]
    if plain:
        sampled.update({k: [r[k] for r in plain] for k in ("wall_s", "wall_rel")})
        # raw seconds drift with the host; kept as record fields, not metrics
        raw = {"wall_s": median("wall_s"), "reference_s": median("reference_s")}
        raw["work_per_s"] = wl.work(extra.get("windows", 0)) / raw["wall_s"]
        if not trace:
            setup_samples += [r["setup_s"] for r in plain]
            sampled["setup_s"] = setup_samples
            values = {"wall_rel": median("wall_rel"),
                      "setup_s": statistics.median(setup_samples),
                      "peak_rss_mb": median("peak_rss_mb")}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
        elif samples[True]:
            layers = {k: statistics.median([r["layers"][k] for r in samples[True]])
                      for k in samples[True][0]["layers"]}
            layers["trace.overhead_frac"] = \
                median("wall_rel", True) / median("wall_rel") - 1.0
            metrics = {k: {"value": layers[k], "unit": units[k]} for k in layers}
            sampled["traced_wall_rel"] = [r["wall_rel"] for r in samples[True]]

    record = {
        "workload": name, "seed": wl.seed, "default_seed": wl.default_seed,
        "trace": int(trace), "seconds": seconds, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "golden_applied": wl.golden_applies,
        "ref_dev_max": max(devs) if devs else None,
        "failures": failures[:20], "samples": sampled, "metrics": metrics, **raw,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "src_lines": src_lines(), "waits": "none measured: one process, workers = 1",
        **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{name}-seed{wl.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    sizes = {k: len(v) for k, v in record["samples"].items()}
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"invocations {record['attempted']}  samples {sizes}")
    for name, m in record["metrics"].items():
        print(f"{name:52s} {m['value']:14.6g} {m['unit']}")
    for name, unit in (("wall_s", "s"), ("work_per_s", "1/s"), ("reference_s", "s")):
        if name in record:
            print(f"{name:52s} {record[name]:14.6g} {unit}  (raw, drifts with the host)")
    golden = "golden applied" if record["golden_applied"] else "golden not applied (seed)"
    dev = record["ref_dev_max"]
    dev = "-" if dev is None else f"{dev:.6g}"
    print(f"{'ref_dev_max':52s} {dev:>14} ratio  ({golden})")
    print(f"{'failed_frac':52s} {record['failed_frac']:14.6g} ratio")
    if "final_mse" in record:
        print("final_mse " + ", ".join(f"{v:.9g}" for v in record["final_mse"]) + " m^2")
    if record.get("absent"):
        print("absent trace targets: " + ", ".join(record["absent"]))
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, help="injection seed (default: the config's)")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    records = []
    for name in names:
        try:
            spec = load_spec()
            record = run_workload(name, args.seed, args.seconds or spec["run_seconds"],
                                  bool(args.trace), spec["units"], deadline)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return int(any(r["failed"] > 0 or not r["metrics"] for r in records))


if __name__ == "__main__":
    sys.exit(main())
