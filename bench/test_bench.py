"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"


def golden(workload, name):
    return (GOLDEN / workload / name).read_text(encoding="utf-8")


def span_table(rows):
    """rows: (name, start, end, parent index)"""
    names = sorted({r[0] for r in rows})
    return {"name_id": np.array([names.index(r[0]) for r in rows]),
            "start": np.array([r[1] for r in rows], dtype=float),
            "end": np.array([r[2] for r in rows], dtype=float),
            "parent": np.array([r[3] for r in rows]),
            "names": np.array(names)}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

NESTED = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
          ("b", 5.0, 9.0, 0), ("c", 6.0, 6.5, 3), ("a", 11.0, 12.0, -1)]


def test_self_time_subtracts_direct_children_only():
    t = span_table(NESTED)
    own = spans.self_times(t["parent"], t["end"] - t["start"])
    assert own.tolist() == [3.0, 2.0, 1.0, 3.5, 0.5, 1.0]
    table = spans.SpanTable(t)
    assert table.self_time("a") == 4.0
    assert table.self_time("b") == 5.5


def test_descendant_queries_follow_every_ancestor():
    table = spans.SpanTable(span_table(NESTED))
    assert table.count("c", under="a") == 2
    assert table.count("c", under="b") == 2
    assert table.count("b", under="c") == 0
    assert table.total("c", under="a") == 1.5
    assert table.count("missing") == 0 and table.mean("missing") == 0.0


def test_recorder_nests_spans_and_keeps_results():
    rec = spans.SpanRecorder()

    def inner(x):
        return x + 1

    inner_traced = rec.wrap("inner", inner)
    outer = rec.wrap("outer", lambda x: inner_traced(x) * 2)
    assert outer(1) == 4
    with pytest.raises(TypeError):
        outer(None)
    arrays = rec.arrays()
    names = [str(arrays["names"][i]) for i in arrays["name_id"]]
    assert names == ["outer", "inner", "outer", "inner"]
    assert arrays["parent"].tolist() == [-1, 0, -1, 2]
    assert np.all(arrays["end"] >= arrays["start"])


def test_run_durations_split_at_injection_starts():
    rows = [("harness.run_experiment", 0.0, 10.0, -1),
            ("simulation.inject_errors", 1.0, 2.0, 0), ("estimator.run_filter", 2.0, 4.0, 0),
            ("simulation.inject_errors", 4.5, 5.0, 0), ("estimator.run_filter", 5.0, 8.0, 0)]
    assert spans.run_durations(spans.SpanTable(span_table(rows))) == [3.5, 3.5]


def test_traced_experiment_counts_and_absent_target(tmp_path):
    """Install the wrappers in a fresh interpreter on a small experiment."""
    script = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import spans
spans.TARGETS = spans.TARGETS + ("estimator.no_such_function",)
rec = spans.SpanRecorder()
absent = spans.install(rec)
from locdecomp import cli, error_models, estimator, simulation, frames
assert error_models.as_vec2 is estimator.as_vec2 is simulation.as_vec2 is frames.as_vec2
cli.main(["experiment", "--config", "configs/corner.json", "--runs", "2",
          "--out", {str(tmp_path)!r}])
layers = spans.layer_metrics(rec.arrays(), 2, 2 * 200, 0)
print(json.dumps({{"absent": absent, "layers": layers}}))
"""
    root = BENCH.parent
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env={"PYTHONPATH": str(root / "src"), "PATH": ""},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    layers = out["layers"]
    assert out["absent"] == ["estimator.no_such_function"]
    assert layers["error_models.composite_evals_per_step"] == 9.0
    assert layers["error_models.component_evals_per_step"] == 18.0
    assert layers["estimator.belief_validations_per_step"] == 2.0
    assert layers["simulation.observation_validations_per_step"] == 1.0
    assert layers["observability.calls"] == 0
    assert layers["harness.run_experiment_self_s"] > 0.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [(19, None), (20, 50), (99, 50), (100, 90),
                                         (999, 90), (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert checks.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert checks.percentile(values, 90) == 90
    assert sum(v > checks.percentile(values, 90) for v in values) == 10
    assert checks.percentile(values, 50) == 50


# ---------------------------------------------------------------------------
# golden checks
# ---------------------------------------------------------------------------

def _perturb_mse(text, row, column, new_value):
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = new_value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def golden_series(workload):
    with np.load(GOLDEN / workload / "series.npz") as z:
        return {k: z[k] for k in z.files}


def test_golden_matches_itself():
    mse, summary = golden("corner", "mse.csv"), golden("corner", "summary.txt")
    assert checks.experiment_text_errors(mse, summary, mse, summary) == []
    series = golden_series("corner")
    assert checks.series_deviation(series, series) == (0.0, [])
    assert checks.check_experiment("corner", mse, summary, 100, 200)[1] == []
    assert checks.check_report(golden("observe", "report.txt"),
                               golden("observe", "report.txt")) == (0.0, [])


def test_golden_series_is_what_the_text_files_print():
    for workload in ("corner", "straight"):
        series = golden_series(workload)
        _, rows = checks.parse_mse_csv(golden(workload, "mse.csv"))
        printed = np.hstack([series["mse"], series["mean"]])
        assert np.array_equal(np.array(rows)[:, 1:], np.vectorize(
            lambda v: float("%.9g" % v))(printed))


@pytest.mark.parametrize("shift, fails", [(1e-9, True), (2e-12, True), (5e-13, False)])
def test_series_deviation_below_print_resolution(shift, fails):
    series = golden_series("corner")
    bad = {k: v.copy() for k, v in series.items()}
    bad["mse"][50, 1] += shift          # an MSE of about 0.02: absolute shift
    dev, errors = checks.series_deviation(bad, series)
    assert dev == pytest.approx(shift, rel=1e-3)
    assert bool(errors) == fails
    if fails:
        assert errors[0].startswith("mse[50, 1] = ")
    # the same shifts vanish in the 9-digit text
    mse, summary = golden("corner", "mse.csv"), golden("corner", "summary.txt")
    assert checks.experiment_text_errors(mse, summary, mse, summary) == []


def test_series_deviation_is_relative_above_one_and_rejects_shape_and_nan():
    series = golden_series("straight")             # final MSEs of 2 to 6 m^2
    bad = {k: v.copy() for k, v in series.items()}
    bad["mse"][-1, 0] *= 1.0 + 1e-10
    dev, errors = checks.series_deviation(bad, series)
    assert dev == pytest.approx(1e-10, rel=1e-3) and errors
    bad["variance"][3, 2] = np.nan
    assert checks.series_deviation(bad, series)[0] == math.inf
    short = {k: v[:-1] for k, v in series.items()}
    dev, errors = checks.series_deviation(short, series)
    assert dev == math.inf and "shape" in errors[0]


def test_perturbed_mse_text_fails_format_check():
    mse, summary = golden("corner", "mse.csv"), golden("corner", "summary.txt")
    value = float(mse.splitlines()[51].split(",")[2])
    bad = _perturb_mse(mse, 50, 2, repr(value + 1e-6))
    errors = checks.experiment_text_errors(bad, summary, mse, summary)
    assert errors and "mse.csv[50].mse_x2" in errors[0]


def test_last_printed_digit_step_is_tolerated():
    mse, summary = golden("corner", "mse.csv"), golden("corner", "summary.txt")
    field = mse.splitlines()[11].split(",")[1]
    value = float(field)
    nudged = _perturb_mse(mse, 10, 1, "%.9g" % (value + checks.printed_step(value)))
    assert checks.experiment_text_errors(nudged, summary, mse, summary) == []
    twice = _perturb_mse(mse, 10, 1, "%.9g" % (value + 2 * checks.printed_step(value)))
    assert checks.experiment_text_errors(twice, summary, mse, summary)


def test_behaviour_checks_at_any_seed():
    straight = golden("straight", "mse.csv"), golden("straight", "summary.txt")
    assert checks.check_experiment("straight", *straight, 100, 100)[1] == []
    errors = checks.check_experiment("corner", *straight, 100, 100)[1]
    assert any("not every parameter converged" in e for e in errors)
    corner = golden("corner", "mse.csv"), golden("corner", "summary.txt")
    errors = checks.check_experiment("straight", *corner, 100, 200)[1]
    assert any("body parameter converged" in e for e in errors)
    assert checks.check_experiment("corner", *corner, 100, 100)[1]


def _edit_window(text, start, edit):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{start},"):
            lines[i] = edit(line.split(","))
    return "\n".join(lines) + "\n"


def test_perturbed_rank_profile_fails():
    report = golden("observe", "report.txt")
    full = next(w for w in checks.parse_report(report)["windows"] if w["rank"] == 5)
    bad = _edit_window(report, full["start"], lambda f: ",".join(f[:2] + ["4"] + f[3:]))
    _, errors = checks.check_report(bad, report)
    assert any("rank profile" in e for e in errors)


def test_condition_numbers_full_rank_compared_deficient_bounded():
    report = golden("observe", "report.txt")
    windows = checks.parse_report(report)["windows"]
    full = next(w for w in windows if w["rank"] == 5)
    shifted = _edit_window(report, full["start"], lambda f: ",".join(
        f[:3] + ["%.9g" % (float(f[3]) * 1.01)] + f[4:]))
    dev, errors = checks.check_report(shifted, report)
    assert dev == pytest.approx(0.01, rel=1e-6) and errors
    deficient = next(w for w in windows if w["rank"] < 5)
    noise = _edit_window(report, deficient["start"], lambda f: ",".join(
        f[:3] + ["%.9g" % (float(f[3]) * 3.0)] + f[4:]))
    assert checks.check_report(noise, report) == (0.0, [])
    too_small = _edit_window(report, deficient["start"], lambda f: ",".join(
        f[:3] + ["1000"] + f[4:]))
    assert checks.check_report(too_small, report)[1]
