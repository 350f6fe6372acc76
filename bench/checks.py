"""Output checks and the small statistics the benchmark reports.

Parses the files the ``locdecomp`` CLI writes (``mse.csv``,
``summary.txt`` and the ``observability`` report) and the full-precision
series ``series.npz``, compares them with the goldens recorded under
``bench/golden`` and applies the behavioural checks that hold at any seed.  Every check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# ROADMAP aim 2: results stay within 1e-12 of the reference.  Applied to
# the full-precision series (``series.npz``) that ``run_experiment`` returns.
EXPERIMENT_TOL = 1e-12
SERIES_FIELDS = ("mse", "mean", "variance")
# mse.csv and summary.txt hold 9 significant digits; compared with their
# golden they may differ by one step in the last digit (a format check).
PRINTED_DIGITS = 9
# Condition numbers of full-rank windows come from a central-difference
# Jacobian.  Halving or doubling its step moves them on the observe workload
# by at most 5.4e-8 relative, so a Jacobian computed another valid way should
# stay well within this.
CONDITION_TOL = 1e-6
# The CLI default: a window is deficient when its smallest singular value is
# below this share of the largest, i.e. when its condition number exceeds
# the inverse.
RANK_TOL = 1e-8
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of percentile ``p`` in ``n`` samples."""
    return max(1, math.ceil(round(n * p / 100.0, 9)))


def tail_percentile(n: int, candidates=(50, 90, 99, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns None when even the median lacks ten samples beyond it.
    """
    best = None
    for p in candidates:
        if n - _rank(n, p) >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p % of samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    return s[_rank(len(s), p) - 1]


def printed_step(value: float) -> float:
    """Place value of the last printed significant digit of ``value``."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - (PRINTED_DIGITS - 1))


# ---------------------------------------------------------------------------
# experiment outputs: mse.csv and summary.txt
# ---------------------------------------------------------------------------

def parse_mse_csv(text: str):
    """Header names and rows of floats of an ``mse.csv`` table."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("mse.csv is empty")
    header = lines[0].split(",")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"mse.csv line {line_no}: {len(fields)} fields, "
                             f"header has {len(header)}")
        rows.append([float(v) for v in fields])
    return header, rows


def parse_summary(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def summary_floats(summary: dict, key: str) -> list[float]:
    return [float(v) for v in summary[key].split(",")]


def series_deviation(series: dict, golden: dict):
    """Largest deviation of the full-precision series from the golden over
    ``SERIES_FIELDS``: |value - golden| relative to max(|golden|, 1).

    Returns ``(ref_dev_max, errors)``; the errors name values beyond
    ``EXPERIMENT_TOL``.
    """
    dev, errors = 0.0, []
    for name in SERIES_FIELDS:
        value, ref = np.asarray(series[name], float), np.asarray(golden[name], float)
        if value.shape != ref.shape:
            return math.inf, [f"series {name} shape {value.shape} differs from "
                              f"golden {ref.shape}"]
        d = np.abs(value - ref) / np.maximum(np.abs(ref), 1.0)
        d[np.isnan(d)] = math.inf
        dev = max(dev, float(d.max(initial=0.0)))
        for index in np.argwhere(d > EXPERIMENT_TOL)[:5]:
            i = tuple(int(k) for k in index)
            errors.append(f"{name}{list(i)} = {float(value[i])!r}, golden {float(ref[i])!r}")
    return dev, errors


def experiment_text_errors(mse_text: str, summary_text: str,
                           golden_mse: str, golden_summary: str) -> list[str]:
    """Format check of mse.csv and final_mse against their golden text:
    same shape, and every value within one step of its last printed digit."""
    errors = []
    header, rows = parse_mse_csv(mse_text)
    g_header, g_rows = parse_mse_csv(golden_mse)
    if header != g_header or len(rows) != len(g_rows):
        return [f"mse.csv shape {len(rows)}x{len(header)} differs from "
                f"golden {len(g_rows)}x{len(g_header)}"]
    pairs = [(f"mse.csv[{k}].{name}", v, g)
             for k, (row, g_row) in enumerate(zip(rows, g_rows))
             for name, v, g in zip(header, row, g_row)]
    final = summary_floats(parse_summary(summary_text), "final_mse")
    g_final = summary_floats(parse_summary(golden_summary), "final_mse")
    if len(final) != len(g_final):
        return ["final_mse length differs from golden"]
    pairs += [(f"final_mse[{j}]", v, g) for j, (v, g) in enumerate(zip(final, g_final))]
    for where, v, g in pairs:
        if not abs(v - g) <= printed_step(g) * (1.0 + 1e-9):
            errors.append(f"{where} = {v!r}, golden {g!r}")
    return errors[:5] + ([f"... {len(errors) - 5} more"] if len(errors) > 5 else [])


def check_experiment(workload: str, mse_text: str, summary_text: str,
                     n_runs: int, n_samples: int):
    """Checks that hold at any seed; returns ``(final_mse, errors)``."""
    errors = []
    header, rows = parse_mse_csv(mse_text)
    summary = parse_summary(summary_text)
    dim = (len(header) - 1) // 2
    if header[0] != "step" or len(header) != 2 * dim + 1 or dim < 1:
        errors.append(f"unexpected mse.csv header {header}")
    if len(rows) != n_samples:
        errors.append(f"mse.csv has {len(rows)} rows, expected {n_samples}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        errors.append("mse.csv steps are not 0..n-1")
    if not all(math.isfinite(v) for r in rows for v in r):
        errors.append("mse.csv holds a non-finite value")
    if any(v < 0.0 for r in rows for v in r[1:dim + 1]):
        errors.append("mse.csv holds a negative MSE")
    if summary.get("runs") != str(n_runs) or summary.get("steps") != str(n_samples):
        errors.append(f"summary runs/steps {summary.get('runs')}/{summary.get('steps')}, "
                      f"expected {n_runs}/{n_samples}")
    final = summary_floats(summary, "final_mse")
    if rows and final != rows[-1][1:dim + 1]:
        errors.append("summary final_mse differs from the last mse.csv row")
    threshold = float(summary["convergence_threshold_m2"])
    converged = [f == "true" for f in summary["converged"].split(",")]
    if converged != [f < threshold for f in final]:
        errors.append("summary converged flags disagree with final_mse")
    if workload == "corner" and not all(converged):
        errors.append(f"corner: not every parameter converged, final MSE {final}")
    if workload == "straight" and any(converged[:2]):
        errors.append(f"straight: a body parameter converged, final MSE {final}")
    return final, errors


# ---------------------------------------------------------------------------
# observability report
# ---------------------------------------------------------------------------

def parse_report(text: str) -> dict:
    """Header fields and window rows of an ``observability`` report."""
    header, windows = {}, []
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            header[key.strip()] = value.strip()
        elif line and line[0].isdigit():
            fields = line.split(",")
            windows.append({"start": int(fields[0]), "end": int(fields[1]),
                            "rank": int(fields[2]), "condition": float(fields[3]),
                            "marks": tuple(fields[4:])})
    return {"header": header, "windows": windows}


def _window_list(report: dict, mark: str) -> list:
    return [(w["start"], w["end"]) for w in report["windows"] if mark in w["marks"]]


def check_report(text: str, golden_text: str | None):
    """Checks on an observability report; returns ``(ref_dev_max, errors)``.

    Rank profile and deficient/degenerate windows must equal the golden.
    Condition numbers of full-rank windows are compared relatively (see
    CONDITION_TOL); those of deficient windows are round-off and must only
    exceed 1 / RANK_TOL.  ``ref_dev_max`` is the largest relative
    deviation of a full-rank window's condition number.
    """
    errors = []
    report = parse_report(text)
    head, windows = report["header"], report["windows"]
    if head.get("observable") != "true":
        errors.append(f"report is not observable: {head.get('observable')}")
    n = int(head.get("state_dim", "0"))
    wl = int(head.get("window_length", "0"))
    if [w["start"] for w in windows] != list(range(len(windows))) or \
            any(w["end"] != w["start"] + wl for w in windows):
        errors.append("report windows are not consecutive")
    deficient = _window_list(report, "DEFICIENT")
    if deficient != [(w["start"], w["end"]) for w in windows if w["rank"] < n]:
        errors.append("DEFICIENT marks disagree with the ranks")
    if head.get("deficient_windows") != str(len(deficient)) or \
            head.get("degenerate_windows") != str(len(_window_list(report, "DEGENERATE"))):
        errors.append("report window counts disagree with the marks")
    for w in windows:
        if w["rank"] < n and not w["condition"] >= 1.0 / RANK_TOL:
            errors.append(f"deficient window {w['start']} has condition {w['condition']}")
            break
    if golden_text is None:
        return None, errors
    golden = parse_report(golden_text)
    g_windows = golden["windows"]
    if head != golden["header"]:
        errors.append(f"report header {head} differs from golden {golden['header']}")
    if [w["rank"] for w in windows] != [w["rank"] for w in g_windows]:
        errors.append("rank profile differs from golden")
    for mark in ("DEFICIENT", "DEGENERATE"):
        if _window_list(report, mark) != _window_list(golden, mark):
            errors.append(f"{mark.lower()} windows differ from golden")
    dev = math.inf if len(windows) != len(g_windows) else 0.0
    for w, g in zip(windows, g_windows):
        if g["rank"] < n:
            continue
        # a full-rank window has a finite condition number >= 1
        d = abs(w["condition"] - g["condition"]) / g["condition"]
        dev = max(dev, d)
        if not d <= CONDITION_TOL:
            errors.append(f"window {g['start']}: condition {w['condition']!r}, "
                          f"golden {g['condition']!r}")
    return dev, errors[:5] + ([f"... {len(errors) - 5} more"] if len(errors) > 5 else [])
