"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the correctness gate rejects a perturbed, missing or
non-finite cell, that tracing leaves every CSV row unchanged, that every
traced name is restored on exit, and that the metric names printed match
BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Spec, Workload, write_specs  # noqa: E402

from ris_select import cli  # noqa: E402


def _reference_rows(workload, reference):
    """CSV rows per spec whose values sit exactly on their references."""
    rows_by_spec = []
    for s_idx, spec in enumerate(workload.specs):
        rows = [["sweep_var", "policy", "method", "metric", "value", "std_error"]]
        for value, policy, method, metric in spec.expected_cells():
            ref = reference[f"{workload.name}/{s_idx}/{value}/{policy}/{metric}"]
            if method == "analytic":
                rows.append([value, policy, method, metric, f"{ref['value']:.12g}", ""])
            elif ref["kind"] == "analytic":
                rows.append([value, policy, method, metric, f"{ref['value']:.12g}", "0.01"])
            else:
                rows.append([value, policy, method, metric, f"{ref['mean']:.12g}", f"{ref['std_error']:.12g}"])
        rows_by_spec.append(rows)
    return rows_by_spec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_reference_values(name):
    workload = WORKLOADS[name]
    rows = _reference_rows(workload, gate.load_reference())
    attempted, failures = gate.check_workload(workload, rows, [None] * len(rows), gate.load_reference())
    assert attempted == sum(len(s.expected_cells()) for s in workload.specs)
    assert failures == {}


@pytest.mark.parametrize("method, scale", [("analytic", 1.001), ("montecarlo", 1.5)])
def test_gate_rejects_a_perturbed_cell(method, scale):
    workload = WORKLOADS["mc-sweep"]
    reference = gate.load_reference()
    rows = _reference_rows(workload, reference)
    target = next(i for i, r in enumerate(rows[0]) if r[2] == method and r[3] == "rate")
    rows[0][target][4] = f"{float(rows[0][target][4]) * scale:.12g}"
    _, failures = gate.check_workload(workload, rows, [None], reference)
    assert list(failures) == [f"0/{'/'.join(rows[0][target][:4])}"]


def test_gate_rejects_missing_duplicate_nonfinite_and_raising():
    workload = WORKLOADS["analytic-grid"]
    reference = gate.load_reference()
    rows = _reference_rows(workload, reference)
    rows[0][1][4] = "nan"
    rows[1].append(list(rows[1][1]))
    del rows[2][1]
    _, failures = gate.check_workload(workload, rows, [None] * 3, reference)
    assert len(failures) == 3
    rows[1] = None
    _, failures = gate.check_workload(workload, rows, [None, "PoleError: boom", None], reference)
    assert sum("PoleError" in why for why in failures.values()) == len(workload.specs[1].expected_cells())


def test_gate_outage_uses_an_exact_binomial_test():
    rare = {"kind": "analytic", "value": 1e-6}
    row = ["0", "opt-product", "montecarlo", "outage", f"{1 / 10_000}", "1e-4"]
    assert gate.check_row(row, rare, 10_000) is None
    row[4] = f"{6 / 10_000}"
    assert gate.check_row(row, rare, 10_000) is not None
    # a baseline cell expecting 1.7 events in 10000 trials may see none
    baseline = {"kind": "montecarlo", "mean": 1.725e-4, "std_error": 2.08e-5, "trials": 400_000}
    row = ["20", "min-max", "montecarlo", "outage", "0", "0"]
    assert gate.check_row(row, baseline, 10_000) is None
    row[4] = f"{20 / 10_000}"
    assert gate.check_row(row, baseline, 10_000) is not None


SELFTEST = Workload(
    "selftest", "small specs covering both layers and the pool path",
    specs=(
        Spec("power", 16, 0, "avg_snr_db", 0, 10, 2, ("opt-product", "min-min"),
             ("analytic", "montecarlo"), trials=2_000),
        Spec("exp", 64, 10, "threshold", 3, 5, 2, ("opt-sum", "min-min"), ("montecarlo",), trials=9_000,
             workers=2),
    ),
)


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("selftest")
    paths, _ = write_specs(SELFTEST, 7, outdir)
    workers = [min(s.workers, len(os.sched_getaffinity(0))) for s in SELFTEST.specs]
    specs = [cli.load_spec(str(p)) for p in paths]
    plain, errors, _ = worker._sweep_once(cli, specs, workers)
    tracer = tracing.Tracer()
    job = {"specs": [str(p) for p in paths], "workers": workers}
    traced, traced_errors, _, _ = worker._traced_sweep(cli, job, tracer)
    return plain, errors, traced, traced_errors, tracer, specs, workers


def test_traced_and_untraced_rows_are_identical(traced_pair):
    plain, errors, traced, traced_errors, *_ = traced_pair
    assert errors == traced_errors == [None, None]
    assert plain == traced


def test_pool_starts_count_multichunk_cells(traced_pair):
    *_, tracer, specs, workers = traced_pair
    metrics = worker.layer_metrics(tracer, 1, 0.0, specs, 0.0)
    multi_chunk = 8 if workers[1] > 1 else 0  # the 9000-trial spec: 2 points x 2 policies x 2 metrics
    assert metrics["montecarlo.pool_starts"]["value"] == multi_chunk
    assert metrics["montecarlo.mc_rate.calls"]["value"] == 8
    assert metrics["analytic.rate_pow.calls"]["value"] == 2


def test_wrappers_restore_original_objects():
    import importlib

    names = [(m, a) for m, a, _ in tracing.BOUNDARIES] + [tracing.POOL]
    targets = [(importlib.import_module(f"ris_select.{m}"), a) for m, a in names]
    originals = [getattr(mod, attr) for mod, attr in targets]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            assert all(getattr(mod, attr) is not orig for (mod, attr), orig in zip(targets, originals))
            1 / 0
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(targets, originals))


def test_metric_names_match_benchmark_json(traced_pair):
    *_, tracer, specs, _ = traced_pair
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = worker.layer_metrics(tracer, 1, 0.0, specs, 0.0)
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in declared["per_layer"])
    fake = {"sweep_s": [2.0, 1.0, 3.0], "rows": [None], "maxrss_self_kb": 1, "maxrss_children_kb": 2}
    e2e = run._end_to_end([1.0, 1.5], fake, 10, 1)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in declared["end_to_end"])
    assert e2e["sweep_s"]["value"] == 2.0 and e2e["time_to_se_s"]["value"] == 2.0
    assert math.isclose(e2e["pass_frac"]["value"], 0.9)


@pytest.mark.parametrize("trace", [False, True])
def test_worker_repeats_sweeps_to_fill_the_seconds(tmp_path, trace):
    tiny = Workload("tiny", "", specs=(
        Spec("power", 16, 0, "avg_snr_db", 0, 10, 2, ("opt-product",), ("analytic",), 1,
             metrics=("outage",)),))
    paths, _ = write_specs(tiny, 1, tmp_path)
    out = worker.sweep({"specs": [str(p) for p in paths], "workers": [1], "seconds": 0.2, "trace": trace})
    assert len(out["sweep_s"]) >= 2 and out["differing"] == [] and out["errors"] == [None]
    if trace:
        assert len(out["traced_sweep_s"]) == len(out["sweep_s"])
        assert out["layers"]["analytic.outage.calls"]["value"] == 2
