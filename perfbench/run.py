"""Benchmark runner for `ris-select run` sweeps.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout of it).  The runner writes
the workload's INI specs for the seed, times set-up in fresh interpreters,
runs the sweep in another fresh interpreter (worker.py), checks every CSV
cell against reference.json and prints every metric with its unit.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured untraced; --trace 1
reports the per-layer metrics of a traced sweep and the tracing overhead.
A result file with the run manifest goes to perfbench/out/.  The exit code
is 0 when every cell passes, 1 when a cell fails and 2 when the benchmark
cannot run (for example when the program's sources are missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS, write_specs  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
TARGET_SE = 1e-3


def _run_worker(mode: str, job_path: Path, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result.

    The worker gets its own session so that a timeout also stops the
    process-pool children it may have started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, str(job_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {mode} exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _end_to_end(setup: list[float], result: dict, attempted: int, failed: int) -> dict:
    sweep_s = statistics.median(result["sweep_s"])
    ses = [float(r[5]) for rows in result["rows"] if rows for r in rows[1:] if r[2] == "montecarlo"]
    # without Monte Carlo cells the sweep already delivers the answer: factor 1
    factor = max(((se / TARGET_SE) ** 2 for se in ses), default=1.0)
    rss_kb = max(result["maxrss_self_kb"], result["maxrss_children_kb"])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "kind": "measured",
                    "basis": f"median of {len(setup)} fresh interpreters: import ris_select + load_spec"},
        "sweep_s": {"value": sweep_s, "unit": "s", "kind": "measured",
                    "basis": f"median of {len(result['sweep_s'])} run_experiment sweeps"},
        "time_to_se_s": {"value": sweep_s * factor, "unit": "s", "kind": "derived",
                         "basis": f"sweep_s x max over {len(ses)} MC cells of (se/{TARGET_SE:g})^2 = {factor:.4g}"},
        "peak_rss_mb": {"value": rss_kb * 1024 / 1e6, "unit": "MB", "kind": "measured",
                        "basis": f"ru_maxrss self {result['maxrss_self_kb']} KiB, "
                                 f"pool children {result['maxrss_children_kb']} KiB"},
        "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio", "kind": "counted",
                      "basis": f"{attempted - failed} of {attempted} cells pass; fail_frac = {failed / attempted:.4g}"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ris_select" / "cli.py").is_file():
        print(f"cannot find the program's sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()

    workload = WORKLOADS[args.workload]
    affinity = len(os.sched_getaffinity(0))
    workers = [min(spec.workers, affinity) for spec in workload.specs]
    outdir = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spec_paths, spec_hash = write_specs(workload, args.seed, outdir)
    job_path = outdir / "job.json"
    job_path.write_text(json.dumps({
        "specs": [str(p) for p in spec_paths], "workers": workers,
        "seconds": args.seconds, "trace": bool(args.trace),
    }))

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_run_worker("setup", job_path, TIME_LIMIT_S - (time.monotonic() - started))["setup_s"])
        result = _run_worker("sweep", job_path, TIME_LIMIT_S - (time.monotonic() - started))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failures = gate.check_workload(workload, result["rows"], result["errors"], gate.load_reference())
    for cell in result["differing"]:
        failures.setdefault(cell, "differs between repeated sweeps of the same seed")
    failed = min(attempted, len(failures))

    if args.trace:
        metrics = result["layers"]
        overhead = metrics["trace.overhead_s"]["value"]
    else:
        metrics = _end_to_end(setup, result, attempted, failed)
        overhead = None

    manifest = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **_source_identity(),
        "workers": workers, "workers_requested": [spec.workers for spec in workload.specs],
        "affinity_cpus": affinity,
        "cpu_model": _cpu_model(), **result["versions"],
        "spec_sha256": spec_hash,
        "sweep_s_repeats": result["sweep_s"], "traced_sweep_s": result["traced_sweep_s"],
        "trace_overhead_s": overhead,
        "trace_scope": ("parent process only for specs with more than one worker: their chunk work "
                        "runs in pool children, which are not traced" if max(workers) > 1 else "whole sweep"),
    }
    print(f"# {workload.name}: seed {args.seed}, workers per spec {workers}, affinity {affinity}, "
          f"trace {args.trace}; {workload.why}")
    if args.trace:
        print(f"# trace scope: {manifest['trace_scope']}; overhead {overhead:.4g} s "
              f"(traced {result['traced_sweep_s']} vs untraced {result['sweep_s']})")
    for name, m in metrics.items():
        basis = f"  [{m['kind']}{'; ' + m['basis'] if m['basis'] else ''}]"
        print(f"{name:38s} {m['value']:>14.6g} {m['unit']:6s}{basis}")
    for cell, why in sorted(failures.items()):
        print(f"FAILED {cell}: {why}")

    (outdir / "result.json").write_text(json.dumps({
        "manifest": manifest, "metrics": metrics, "attempted": attempted,
        "failures": failures, "spans": result.get("spans", []),
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
