"""Measurement process: one fresh interpreter per use, started by run.py.

    python3 perfbench/worker.py setup JOB.json   # time import + load_spec
    python3 perfbench/worker.py sweep JOB.json   # time run_experiment

JOB.json names the spec files, each spec's worker count, the seconds to measure
and whether to trace.  The last line of standard output is a JSON object
with the rows, timings and (when traced) the per-layer numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

_T_START = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHUNK_TRIALS_FALLBACK = 8192


def _import_program():
    sys.path.insert(0, str(HERE.parent / "src"))
    from ris_select import cli

    return cli


def setup(job: dict) -> dict:
    """Seconds from interpreter start to specs loaded."""
    cli = _import_program()
    for path in job["specs"]:
        cli.load_spec(path)
    return {"setup_s": time.perf_counter() - _T_START}


def _sweep_once(cli, specs, workers):
    """Rows per spec, seconds inside run_experiment, error per spec.

    workers holds the worker count of each spec.
    """
    rows, errors, seconds = [], [], 0.0
    for spec, n_workers in zip(specs, workers):
        start = time.perf_counter()
        try:
            rows.append(cli.run_experiment(spec, workers=n_workers))
            errors.append(None)
        except Exception as exc:  # a failing cell is a benchmark result, not a crash
            rows.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        seconds += time.perf_counter() - start
    return rows, errors, seconds


def _traced_sweep(cli, job, tracer):
    """load_spec + run_experiment + CSV write through the traced cli names."""
    import warnings

    from scipy.integrate import IntegrationWarning

    with tracer.installed(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        specs = [cli.load_spec(p) for p in job["specs"]]
        rows, errors, seconds = _sweep_once(cli, specs, job["workers"])
        for spec, spec_rows in zip(specs, rows):
            if spec_rows is not None:
                cli._write_csv(spec_rows, spec.output)
    warned = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    return rows, errors, seconds, warned


def _differing_cells(first, other):
    """Keys of rows that differ between two sweeps of the same specs."""
    out = []
    for s_idx, (a, b) in enumerate(zip(first, other)):
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{s_idx}/*")
            continue
        for ra, rb in zip(a, b):
            if ra != rb:
                out.append(f"{s_idx}/{'/'.join(ra[:4])}")
        if len(a) != len(b):
            out.append(f"{s_idx}/row-count")
    return out


def sweep(job: dict) -> dict:
    import resource

    import numpy
    import scipy

    cli = _import_program()
    specs = [cli.load_spec(p) for p in job["specs"]]
    workers = job["workers"]
    tracing = job["trace"]

    first, errors, seconds = _sweep_once(cli, specs, workers)
    untraced, traced, differing, warned = [seconds], [], [], 0
    for spec, spec_rows in zip(specs, first):
        if spec_rows is not None:
            cli._write_csv(spec_rows, spec.output)
    tracer = None
    if tracing:
        from tracing import Tracer

        tracer = Tracer()

    def traced_round():
        nonlocal warned
        rows, _, seconds, w = _traced_sweep(cli, job, tracer)
        traced.append(seconds)
        warned += w
        return rows

    if tracing:
        differing += _differing_cells(first, traced_round())
    # fill the requested seconds with rounds of one untraced (+ one traced)
    # sweep; the round time is re-estimated after every round, so a run that
    # slows down part-way does not overrun by more than about half a round
    min_rounds, rounds = (1 if tracing else 2), 1
    while not any(e is not None for e in errors):
        per_round = (sum(untraced) + sum(traced)) / rounds
        if rounds >= min_rounds and (rounds + 0.5) * per_round > job["seconds"]:
            break
        rounds += 1
        rows, _, seconds = _sweep_once(cli, specs, workers)
        untraced.append(seconds)
        differing += _differing_cells(first, rows)
        if tracing:
            differing += _differing_cells(first, traced_round())

    out = {
        "rows": first,
        "errors": errors,
        "sweep_s": untraced,
        "traced_sweep_s": traced,
        "differing": sorted(set(differing)),
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        overhead = statistics.median(traced) - statistics.median(untraced)
        out["layers"] = layer_metrics(tracer, len(traced), warned / len(traced), specs, overhead)
        out["spans"] = tracer.spans
    return out


def _metric(value, unit, kind, basis=""):
    return {"value": value, "unit": unit, "kind": kind, "basis": basis}


def layer_metrics(tracer, n_sweeps: int, quad_warnings: float, specs, overhead_s: float) -> dict:
    """Per-layer numbers of one traced sweep (totals divided by the sweeps traced)."""
    import math

    from ris_select import montecarlo

    def stat(name):
        st = tracer.stats.get(name)
        if st is None:
            return 0.0, 0.0, 0.0
        return st.calls / n_sweeps, st.busy_s / n_sweeps, st.self_s / n_sweeps

    def span_durations(*names):
        return [s["end"] - s["start"] for s in tracer.spans if s["name"] in names]

    m = {}
    m["cli.load_spec_s"] = _metric(stat("cli.load_spec")[1], "s", "measured")
    m["cli.write_csv_s"] = _metric(stat("cli.write_csv")[1], "s", "measured")
    csv_bytes = sum(Path(s.output).stat().st_size for s in specs if Path(s.output).exists())
    m["cli.csv_bytes"] = _metric(csv_bytes, "bytes", "counted")
    m["cli.self_s"] = _metric(stat("cli.run_experiment")[2], "s", "measured",
                              "run_experiment minus its analytic and montecarlo spans")

    calls = tracer.mc_calls
    trials_total = 0
    for name in ("mc_outage", "mc_rate"):
        n_calls, busy, _ = stat(f"montecarlo.{name}")
        trials = sum(c["trials"] for c in calls if c["name"] == f"montecarlo.{name}") / n_sweeps
        trials_total += trials
        m[f"montecarlo.{name}.calls"] = _metric(n_calls, "count", "counted")
        m[f"montecarlo.{name}.busy_s"] = _metric(busy, "s", "measured")
        m[f"montecarlo.{name}.ns_per_trial"] = _metric(
            busy * 1e9 / trials if trials else 0.0, "ns", "derived",
            f"busy {busy:.4g} s / {trials:.0f} trials")
    mc_busy = stat("montecarlo.mc_outage")[1] + stat("montecarlo.mc_rate")[1]
    cells = span_durations("montecarlo.mc_outage", "montecarlo.mc_rate")
    basis = f"{len(cells)} cells over {n_sweeps} traced sweep(s)"
    m["montecarlo.cell_s.p50"] = _metric(statistics.median(cells) if cells else 0.0, "s", "measured", basis)
    m["montecarlo.cell_s.max"] = _metric(max(cells, default=0.0), "s", "measured", basis)
    m["montecarlo.trials"] = _metric(trials_total, "count", "counted")

    points = 0.0
    for c in calls:
        radius = montecarlo.coverage_radius(c["cfg"], c["policy"])
        points += c["trials"] * c["cfg"].intensity * math.pi * radius * radius
    points /= n_sweeps
    m["montecarlo.points_per_trial"] = _metric(
        points / trials_total if trials_total else 0.0, "count", "computed",
        f"lambda*pi*R^2 with R = coverage_radius; {points:.4g} points / {trials_total:.0f} trials")
    m["montecarlo.ns_per_point"] = _metric(
        mc_busy * 1e9 / points if points else 0.0, "ns", "derived",
        f"busy {mc_busy:.4g} s / {points:.4g} computed points")

    # pair each rate cell with the outage cell of the same point and policy:
    # the rate cell does the same sampling and selection plus the fading draw
    pending, extra_s, elems = {}, 0.0, 0
    for c in calls:
        key = (repr(c["cfg"]), repr(c["policy"]))
        if c["name"] == "montecarlo.mc_outage":
            pending.setdefault(key, []).append(c)
        elif pending.get(key):
            o = pending[key].pop(0)
            extra_s += c["seconds"] - o["seconds"]
            elems += c["trials"] * c["draws"] * c["cfg"].n_elements
    m["montecarlo.fading_ns_per_elem"] = _metric(
        extra_s * 1e9 / elems if elems else 0.0, "ns", "derived",
        f"(rate - outage) {extra_s / n_sweeps:.4g} s / {elems / n_sweeps:.4g} draws*N elements over paired cells")
    chunk = getattr(montecarlo, "_CHUNK_TRIALS", CHUNK_TRIALS_FALLBACK)
    fading = [2 * 8 * min(chunk, c["trials"]) * c["draws"] * c["cfg"].n_elements
              for c in calls if c["draws"]]
    m["montecarlo.fading_mb"] = _metric(
        max(fading, default=0) / 1e6, "MB", "computed",
        f"2 Rayleigh arrays x 8 B x min({chunk}, trials) x draws x N, largest rate cell")
    m["montecarlo.pool_starts"] = _metric(stat("montecarlo.pool")[0], "count", "counted")
    m["montecarlo.pool_startstop_s"] = _metric(
        stat("montecarlo.pool")[1] + stat("montecarlo.pool_startstop")[1], "s", "measured",
        "pool construction + task submission (starts the processes) + shutdown")

    for group in ("outage", "rate_pow", "rate_exp"):
        n_calls, busy, _ = stat(f"analytic.{group}")
        m[f"analytic.{group}.calls"] = _metric(n_calls, "count", "counted")
        m[f"analytic.{group}.busy_s"] = _metric(busy, "s", "measured")
    cells = span_durations("analytic.outage", "analytic.rate_pow", "analytic.rate_exp")
    basis = f"{len(cells)} cells over {n_sweeps} traced sweep(s)"
    m["analytic.cell_s.p50"] = _metric(statistics.median(cells) if cells else 0.0, "s", "measured", basis)
    m["analytic.cell_s.max"] = _metric(max(cells, default=0.0), "s", "measured", basis)
    n_calls, _, self_s = stat("analytic.rate_fading_closed")
    m["analytic.rate_fading_closed.calls"] = _metric(n_calls, "count", "counted")
    m["analytic.rate_fading_closed.self_s"] = _metric(self_s, "s", "measured", "minus specfun spans")
    n_calls, busy, _ = stat("analytic.rate_fading_quad")
    m["analytic.rate_fading_quad.calls"] = _metric(n_calls, "count", "counted")
    m["analytic.rate_fading_quad.busy_s"] = _metric(busy, "s", "measured")
    m["analytic.pdf_upsilon_opt.calls"] = _metric(
        stat("analytic.pdf_upsilon_opt")[0], "count", "counted", "rate_pow integrand evaluations")
    m["analytic.quad_warnings"] = _metric(quad_warnings, "count", "counted", "scipy IntegrationWarning")

    for group in ("specfun.genhyp", "specfun.ellip", "specfun.gamma",
                  "geometry.critical_score", "geometry.region_area"):
        n_calls, busy, _ = stat(group)
        m[f"{group}.calls"] = _metric(n_calls, "count", "counted")
        m[f"{group}.busy_s"] = _metric(busy, "s", "measured")
    m["trace.overhead_s"] = _metric(overhead_s, "s", "measured",
                                    "median traced sweep_s - median untraced sweep_s")
    return m


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[1] not in ("setup", "sweep"):
        print(__doc__, file=sys.stderr)
        return 2
    job = json.loads(Path(argv[2]).read_text())
    result = setup(job) if argv[1] == "setup" else sweep(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
