"""Regenerate reference.json, the values the correctness gate checks against.

    python3 perfbench/make_reference.py        # from the repository root

Run it again only when a workload's scenario grid changes.  It computes,
for every sweep point of every workload:

* the optimum policy's outage, as 1 - cdf_* at the SNR score cap (or the
  feedback threshold when that is lower);
* the optimum policy's rate, by an independent quadrature of the public
  rate_fading_quad against pdf_upsilon_opt / pdf_lambda_opt, with break
  points and substitutions that differ from rate_pow / rate_exp;
* for the baseline policies of Monte Carlo specs, a high-trial Monte Carlo
  estimate on a seed no benchmark run uses.

It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

from ris_select import analytic, cli, montecarlo  # noqa: E402
from ris_select.channel import PathLossModel, ez2  # noqa: E402
from ris_select.geometry import ScoreKind  # noqa: E402
from ris_select.policies import PolicyKind, SelectionPolicy  # noqa: E402
from workloads import OPTIMUM_POLICY, WORKLOADS  # noqa: E402

REFERENCE_TRIALS = 400_000
REFERENCE_SEED = 20_121_179
WORKERS = min(2, len(os.sched_getaffinity(0)))
INNER = analytic.RateQuadrature(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=400)


def _quad(f, lo, hi) -> float:
    value, _err = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=1000)
    return value


def outage_reference(cfg, threshold) -> float:
    ratio = cfg.avg_snr * ez2(cfg.n_elements) / cfg.target_snr
    cap = math.inf if threshold is None else threshold
    if cfg.model is PathLossModel.POWER_LAW:
        dist = analytic.DistCdf.from_config(cfg, ScoreKind.MIN_PRODUCT)
        return 1.0 - analytic.cdf_upsilon_opt(min(ratio ** (1.0 / cfg.eta), cap), dist)
    dist = analytic.DistCdf.from_config(cfg, ScoreKind.MIN_SUM)
    level = min(math.log(ratio) / cfg.alpha, cap)
    return 1.0 if level < 0.0 else 1.0 - analytic.cdf_lambda_opt(level, dist)


def rate_reference(cfg, threshold) -> float:
    cap = math.inf if threshold is None else threshold
    d = cfg.d
    if cfg.model is PathLossModel.POWER_LAW:
        dist = analytic.DistCdf.from_config(cfg, ScoreKind.MIN_PRODUCT)

        def f(g: float) -> float:
            try:
                y = g ** (-cfg.eta)
            except OverflowError:
                return 0.0
            return analytic.rate_fading_quad(y, cfg, INNER) * analytic.pdf_upsilon_opt(g, dist)

        d2 = d * d
        total = _quad(f, 0.0, min(d2, cap))
        if cap > d2:
            total += _quad(f, d2, min(cap, 4.0 * d2)) + (_quad(f, 4.0 * d2, cap) if cap > 4.0 * d2 else 0.0)
        return total
    dist = analytic.DistCdf.from_config(cfg, ScoreKind.MIN_SUM)
    if cap <= 2.0 * d:
        return 0.0

    def h(t: float) -> float:
        # g = 2d + t^2 removes the inverse-square-root singularity at 2d
        if t == 0.0:
            return 0.0
        g = 2.0 * d + t * t
        return analytic.rate_fading_quad(math.exp(-cfg.alpha * g), cfg, INNER) * analytic.pdf_lambda_opt(g, dist) * 2.0 * t

    t_hi = math.sqrt(cap - 2.0 * d) if math.isfinite(cap) else math.inf
    return _quad(h, 0.0, min(t_hi, 1.0)) + (_quad(h, 1.0, t_hi) if t_hi > 1.0 else 0.0)


def main() -> int:
    cells = {}
    workdir = HERE / "out" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        for s_idx, spec in enumerate(workload.specs):
            path = workdir / f"{workload.name}-{s_idx}.ini"
            path.write_text(spec.ini(1, str(workdir / "unused.csv")))
            loaded = cli.load_spec(str(path))
            optimum = OPTIMUM_POLICY[spec.model]
            for p_idx, (label, value) in enumerate(zip(spec.sweep_labels(), loaded.sweep_values())):
                cfg, threshold = loaded.config_at(value)
                for pol_idx, policy in enumerate(spec.policies):
                    for m_idx, metric in enumerate(spec.metrics):
                        key = f"{workload.name}/{s_idx}/{label}/{policy}/{metric}"
                        t0 = time.perf_counter()
                        if policy == optimum:
                            ref = outage_reference if metric == "outage" else rate_reference
                            entry = {"kind": "analytic", "value": ref(cfg, threshold)}
                        elif "montecarlo" in spec.methods:
                            pol = SelectionPolicy(PolicyKind(policy))
                            seq = np.random.SeedSequence([REFERENCE_SEED, s_idx, p_idx, pol_idx, m_idx])
                            rng = np.random.default_rng(seq)
                            if metric == "outage":
                                est = montecarlo.mc_outage(cfg, pol, REFERENCE_TRIALS, rng, workers=WORKERS)
                            else:
                                est = montecarlo.mc_rate(
                                    cfg, pol, REFERENCE_TRIALS, spec.fading_draws, rng, workers=WORKERS
                                )
                            entry = {"kind": "montecarlo", "mean": est.mean,
                                     "std_error": est.std_error, "trials": est.n_trials}
                        else:
                            continue
                        cells[key] = entry
                        print(f"{key}: {entry} ({time.perf_counter() - t0:.1f} s)", flush=True)
    out = {
        "generated_by": "perfbench/make_reference.py",
        "reference_trials": REFERENCE_TRIALS,
        "cells": cells,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
