"""Correctness gate: every CSV cell of a workload against reference.json.

A cell (one CSV row) fails when its spec raised, when it is missing or
duplicated, when its value is not finite, or when it misses its reference:

* analytic rows: within 1e-4 relative of the independent quadrature value;
* Monte Carlo outage: an exact two-sided binomial test of the outage
  count at the five-sigma level (p-value below 5.7e-7 fails).  The null
  p is the analytic outage for the optimum policy; for a baseline policy
  it is the stored high-trial estimate, allowed to move by 5 of its
  standard errors (at least one event's worth).  A normal "5 se" rule
  fails by chance on cells that expect about one event in n trials, and
  the sweeps have several such cells at high SNR;
* Monte Carlo rate of the optimum policy: within max(5 se, 1%) of the
  analytic rate; the 1% covers the bias of the gamma fading surrogate;
* Monte Carlo rate of a baseline policy: within 5 combined standard
  errors of the stored high-trial estimate.

Five sigma, not three: with three, a run of ~70 cells would fail by
chance about one time in ten.  Values are compared with
tolerances, never byte for byte, so a change that alters the Monte Carlo
streams by design still passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
ANALYTIC_RTOL = 1e-4
N_SE = 5.0
RATE_RTOL = 0.01
ALPHA = 5.733e-7  # two-sided normal tail beyond 5 sigma


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())["cells"]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_row(row: list[str], ref: dict | None, trials: int) -> str | None:
    """Why one CSV row fails the gate, or None when it passes."""
    _, _, method, metric, value_text, se_text = row
    value = _number(value_text)
    if not math.isfinite(value):
        return f"non-finite value {value_text!r}"
    if ref is None:
        return "no reference value"
    if method == "analytic":
        want = ref["value"]
        if abs(value - want) > ANALYTIC_RTOL * abs(want):
            return f"analytic {value!r} vs reference {want!r}"
        return None
    se = _number(se_text)
    if not math.isfinite(se):
        return f"non-finite std_error {se_text!r}"
    if metric == "outage":
        return _check_outage(value, ref, trials)
    if ref["kind"] == "analytic":
        want, tol = ref["value"], max(N_SE * se, RATE_RTOL * abs(ref["value"]))
    else:
        want, tol = ref["mean"], N_SE * math.hypot(se, ref["std_error"])
    if abs(value - want) > tol:
        return f"montecarlo {value!r} vs reference {want!r} (tolerance {tol:.3g})"
    return None


def _check_outage(value: float, ref: dict, trials: int) -> str | None:
    from scipy.stats import binom

    events = round(value * trials)
    if ref["kind"] == "analytic":
        lo = hi = ref["value"]
    else:
        m, n_ref = ref["mean"], ref["trials"]
        slack = N_SE * math.sqrt(max(m * (1.0 - m), 1.0 / n_ref) / n_ref)
        lo, hi = max(0.0, m - slack), min(1.0, m + slack)
    p = min(max(events / trials, lo), hi)
    p_value = 2.0 * min(binom.cdf(events, trials, p), binom.sf(events - 1, trials, p))
    if p_value < ALPHA:
        return f"montecarlo outage {events}/{trials} vs reference p in [{lo!r}, {hi!r}] (p-value {p_value:.2g})"
    return None


def check_workload(workload, rows_by_spec, errors, reference: dict) -> tuple[int, dict[str, str]]:
    """(cells attempted, {cell: why it failed}) for one sweep of a workload.

    Cells are named "spec index/sweep value/policy/method/metric".
    """
    attempted, failures = 0, {}
    for s_idx, spec in enumerate(workload.specs):
        expected = spec.expected_cells()
        attempted += len(expected)
        rows = rows_by_spec[s_idx]
        if rows is None:
            failures.update({f"{s_idx}/{'/'.join(c)}": f"spec raised {errors[s_idx]}" for c in expected})
            continue
        seen = {}
        for row in rows[1:]:
            seen.setdefault(tuple(row[:4]), []).append(row)
        for cell in expected:
            name = f"{s_idx}/{'/'.join(cell)}"
            found = seen.pop(cell, [])
            if len(found) != 1:
                failures[name] = f"{len(found)} rows"
                continue
            key = f"{workload.name}/{s_idx}/{cell[0]}/{cell[1]}/{cell[3]}"
            why = check_row(found[0], reference.get(key), spec.trials)
            if why:
                failures[name] = why
        failures.update({f"{s_idx}/{'/'.join(cell)}": "unexpected row" for cell in seen})
    return attempted, failures
