"""Cross-validation invariant suite used by the `validate` subcommand.

Each check returns (name, passed, detail).  These are fast versions of the
package's core consistency guarantees: void-probability identities,
density/derivative agreement, normalizations, bound dominance, pathwise
policy dominance on shared realizations, and the Poisson law of the
feedback count.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, montecarlo
from .channel import NetworkConfig, PathLossModel, ez2, gamma_params, sample_z
from .geometry import ScoreKind
from .policies import OPTIMUM, PolicyKind, SelectionPolicy

Check = tuple[str, bool, str]


def _void_identity(dist: analytic.DistCdf, xi, cdf, lo: float, hi: float) -> float:
    worst = 0.0
    for t in np.linspace(lo, hi, 50):
        gap = abs((1.0 - cdf(float(t), dist)) - math.exp(-xi(float(t), dist)))
        worst = max(worst, gap)
    return worst


def _fd_check(f, pdf, x: float, h: float) -> float:
    slope = (f(x + h) - f(x - h)) / (2.0 * h)
    return abs(slope - pdf(x)) / abs(pdf(x))


def run_validation(seed: int = 1, trials: int = 4000, workers: int = 1) -> list[Check]:
    d, lam = 1.2, 0.5
    pow_cfg = NetworkConfig(d=d, intensity=lam, n_elements=16, model=PathLossModel.POWER_LAW,
                            avg_snr=10.0 ** 0.5, target_snr=10.0 ** 0.5)
    exp_cfg = NetworkConfig(d=d, intensity=lam, n_elements=16, model=PathLossModel.EXP_LAW,
                            avg_snr=10.0 ** 0.5, target_snr=10.0 ** 0.5)
    dist_p = analytic.DistCdf(ScoreKind.MIN_PRODUCT, lam, d)
    dist_s = analytic.DistCdf(ScoreKind.MIN_SUM, lam, d)
    checks: list[Check] = []

    gap = _void_identity(dist_p, analytic.xi_pow, analytic.cdf_upsilon_opt, 0.05, 6.0)
    checks.append(("void identity (product)", gap <= 1e-10, f"max gap {gap:.2e}"))
    gap = _void_identity(dist_s, analytic.xi_exp, analytic.cdf_lambda_opt, 0.05, 12.0)
    checks.append(("void identity (sum)", gap <= 1e-10, f"max gap {gap:.2e}"))

    rel = _fd_check(lambda g: analytic.cdf_upsilon_opt(g, dist_p),
                    lambda g: analytic.pdf_upsilon_opt(g, dist_p), 3.0, 1e-6)
    checks.append(("product density vs finite difference", rel <= 1e-6, f"rel {rel:.2e}"))
    rel = _fd_check(lambda g: analytic.cdf_lambda_opt(g, dist_s),
                    lambda g: analytic.pdf_lambda_opt(g, dist_s), 3.0, 1e-6)
    checks.append(("sum density vs finite difference", rel <= 1e-6, f"rel {rel:.2e}"))

    from scipy import integrate

    mass, _ = integrate.quad(lambda g: analytic.pdf_upsilon_opt(g, dist_p), 0.0, d * d)
    mass += integrate.quad(lambda g: analytic.pdf_upsilon_opt(g, dist_p), d * d, np.inf)[0]
    checks.append(("product density normalization", abs(mass - 1.0) <= 1e-5, f"mass {mass:.10f}"))
    mass = integrate.quad(
        lambda u: analytic.pdf_lambda_opt(math.sqrt(u * u + 4 * d * d), dist_s)
        * u / math.sqrt(u * u + 4 * d * d),
        0.0, np.inf)[0]
    checks.append(("sum density normalization", abs(mass - 1.0) <= 1e-5, f"mass {mass:.10f}"))

    worst = 0.0
    for n in (1, 16):
        cfg_n = NetworkConfig(d=d, intensity=lam, n_elements=n, model=PathLossModel.POWER_LAW, avg_snr=1.0)
        for cy in (1e-2, 1.0, 1e2):
            closed = analytic.rate_fading_closed(cy, cfg_n)
            quad = analytic.rate_fading_quad(cy, cfg_n)
            worst = max(worst, abs(closed - quad) / quad)
    checks.append(("closed-form rate vs quadrature", worst <= 1e-4, f"worst rel {worst:.2e}"))

    viol = 0
    for cy in np.geomspace(1e-3, 1e3, 13):
        if analytic.rate_fading_ub(float(cy), pow_cfg) < analytic.rate_fading_quad(float(cy), pow_cfg) - 1e-9:
            viol += 1
    checks.append(("Jensen bound dominates quadrature rate", viol == 0, f"{viol} violations"))

    baselines = (PolicyKind.MIN_MIN, PolicyKind.MIN_MAX, PolicyKind.MID_POINT)
    for cfg, name in ((pow_cfg, "power"), (exp_cfg, "exp")):
        opt_kind = OPTIMUM[cfg.model][1]
        radius = max(
            montecarlo.coverage_radius(cfg, SelectionPolicy(k)) for k in (opt_kind,) + baselines
        )
        opt = montecarlo.policy_scores(cfg, SelectionPolicy(opt_kind), trials, seed,
                                       window_radius_override=radius, workers=workers)
        bad = 0
        for k in baselines:
            other = montecarlo.policy_scores(cfg, SelectionPolicy(k), trials, seed,
                                             window_radius_override=radius, workers=workers)
            bad += int(np.sum(opt > other + 1e-12))
        checks.append((f"pathwise dominance ({name})", bad == 0, f"{bad} violations"))

    emp = montecarlo.mc_feedback_dist(exp_cfg, 20.0, trials, np.random.default_rng(seed), workers=workers)
    xi = analytic.xi_exp(20.0, dist_s)
    stat, dof, p = montecarlo.poisson_gof(emp, xi)
    mean_gap = abs(emp.mean() - xi) / (math.sqrt(xi / trials) + 1e-12)
    ok = p > 0.01 and mean_gap <= 3.0
    checks.append(("feedback count is Poisson (sum model)",
                   ok, f"gof p {p:.3f}, mean within {mean_gap:.2f} se"))

    n = 50_000
    z = sample_z(16, np.random.default_rng(seed + 1), size=n)
    ga = gamma_params(16)
    from scipy import stats

    ks = stats.kstest(z, "gamma", args=(ga.k, 0.0, ga.theta)).statistic
    checks.append(("gamma approximation of fading gain", ks <= 0.02, f"KS {ks:.4f}"))

    z2 = sample_z(16, np.random.default_rng(seed + 2), size=n) ** 2
    mom = abs(np.mean(z2) - ez2(16))
    se = float(np.std(z2, ddof=1)) / math.sqrt(n)
    checks.append(("second moment of fading gain", mom <= 3 * se, f"|gap| {mom:.3f} vs 3se {3*se:.3f}"))
    return checks
