"""Acceptance suite: end-to-end reproduction targets at pinned tolerances.

Each test prints one PASS/FAIL line (run with -s to see them live).  These
are the exit criteria for the package: distribution fidelity against DKW
bands, structural identities, Poisson feedback laws, outage/rate
reproduction including the headline quantitative claims, limited-feedback
plateaus, the numerical kernel, and the fading-gain approximation quality.
"""

import math
import time

import numpy as np
from scipy import stats

from ris_select import analytic
from ris_select.analytic import DistCdf
from ris_select.channel import NetworkConfig, PathLossModel, ez2, gamma_params, sample_z
from ris_select.geometry import ScoreKind
from ris_select.montecarlo import (
    coverage_radius,
    mc_distance_dist,
    mc_feedback_dist,
    mc_outage,
    mc_rate,
    poisson_gof,
    policy_scores,
)
from ris_select.policies import PolicyKind, SelectionPolicy

D = 1.2
RHO_5DB = 10.0 ** 0.5
BASELINES = (PolicyKind.MIN_MIN, PolicyKind.MIN_MAX, PolicyKind.MID_POINT)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def cfg_pow(lam, n, avg_snr=1.0, rho=RHO_5DB):
    return NetworkConfig(d=D, intensity=lam, n_elements=n, model=PathLossModel.POWER_LAW,
                         eta=4.0, avg_snr=avg_snr, target_snr=rho)


def cfg_exp(lam, n, avg_snr=1.0, rho=RHO_5DB):
    return NetworkConfig(d=D, intensity=lam, n_elements=n, model=PathLossModel.EXP_LAW,
                         alpha=1.037, avg_snr=avg_snr, target_snr=rho)


def quantile_grid(cdf, dist, n_points=20):
    levels = np.linspace(0.025, 0.975, n_points)
    hi = 4.0 * max(D * D, 2 * D)
    while cdf(hi, dist) < levels[-1]:
        hi *= 2.0
    out = []
    for p in levels:
        a, b = 0.0, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if cdf(mid, dist) < p:
                a = mid
            else:
                b = mid
        out.append(0.5 * (a + b))
    return out


def test_criterion_1_distance_distribution_fidelity():
    """Empirical optimum-score CDFs inside the 99% DKW band, < 60 s/case."""
    n_trials = 100_000
    failures = []
    worst = 0.0
    slowest = 0.0
    for lam in (0.5, 2.0):
        for model, kind, cdf in (
            ("product", PolicyKind.OPT_PRODUCT, analytic.cdf_upsilon_opt),
            ("sum", PolicyKind.OPT_SUM, analytic.cdf_lambda_opt),
        ):
            score_kind = ScoreKind.MIN_PRODUCT if model == "product" else ScoreKind.MIN_SUM
            dist = DistCdf(score_kind, lam, D)
            cfg = cfg_pow(lam, 16) if model == "product" else cfg_exp(lam, 16)
            start = time.perf_counter()
            emp = mc_distance_dist(cfg, n_trials, 1000 + int(10 * lam))
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            eps = emp.dkw_epsilon(0.99)
            for g in quantile_grid(cdf, dist):
                dev = abs(emp.cdf(g) - cdf(g, dist))
                worst = max(worst, dev)
                if dev > eps:
                    failures.append((model, lam, g, dev))
            if elapsed > 60.0:
                failures.append((model, lam, "runtime", elapsed))
    ok = not failures
    _report(1, ok, f"worst CDF deviation {worst:.4f} (band {eps:.4f}), slowest case {slowest:.1f}s")
    assert ok, failures


def test_criterion_2_void_probability_identity():
    """|1 - F(T) - exp(-mean count(T))| <= 1e-10 across both branches."""
    dist_p = DistCdf(ScoreKind.MIN_PRODUCT, 0.5, D)
    dist_s = DistCdf(ScoreKind.MIN_SUM, 0.5, D)
    worst = 0.0
    for t in np.geomspace(0.05, 20.0, 50):  # spans both sides of d^2 = 1.44
        worst = max(worst, abs((1 - analytic.cdf_upsilon_opt(float(t), dist_p))
                               - math.exp(-analytic.xi_pow(float(t), dist_p))))
    for t in np.linspace(0.2, 25.0, 50):  # spans both sides of 2d = 2.4
        worst = max(worst, abs((1 - analytic.cdf_lambda_opt(float(t), dist_s))
                               - math.exp(-analytic.xi_exp(float(t), dist_s))))
    ok = worst <= 1e-10
    _report(2, ok, f"worst identity gap {worst:.2e} (tolerance 1e-10)")
    assert ok


def test_criterion_3_poisson_feedback():
    """Feedback count is Poisson with the analytic mean (lam=0.5, T=20)."""
    n_trials = 10_000
    details = []
    ok = True
    xi_exp_val = analytic.xi_exp(20.0, DistCdf(ScoreKind.MIN_SUM, 0.5, D))
    if abs(xi_exp_val - 155.95) > 0.01:
        ok = False
    details.append(f"sum-model mean {xi_exp_val:.4f} (expect ~155.95)")
    for cfg, xi in (
        (cfg_pow(0.5, 16), analytic.xi_pow(20.0, DistCdf(ScoreKind.MIN_PRODUCT, 0.5, D))),
        (cfg_exp(0.5, 16), xi_exp_val),
    ):
        emp = mc_feedback_dist(cfg, 20.0, n_trials, 2000)
        _, _, p = poisson_gof(emp, xi)
        mean_gap = abs(emp.mean() - xi) / math.sqrt(xi / n_trials)
        if p <= 0.01 or mean_gap > 3.0:
            ok = False
        details.append(f"{cfg.model.value}: gof p={p:.3f}, mean within {mean_gap:.2f} se")
    _report(3, ok, "; ".join(details))
    assert ok


def _outage_sweep_check(cfg_fn, opt_kind, seed):
    """Reuse one score sample across the avg-snr sweep; compare to analytic."""
    n_trials = 100_000
    snr_grid_db = np.linspace(-10.0, 30.0, 9)
    bad = []
    for lam, n in ((0.5, 8), (0.5, 32), (0.1, 16), (2.0, 16)):
        cfg = cfg_fn(lam, n)
        scores = policy_scores(cfg, SelectionPolicy(opt_kind), n_trials, seed)
        for db in snr_grid_db:
            cfg_pt = cfg_fn(lam, n, avg_snr=10.0 ** (db / 10.0))
            kind = ScoreKind.MIN_PRODUCT if cfg.model is PathLossModel.POWER_LAW else ScoreKind.MIN_SUM
            dist = DistCdf(kind, lam, D)
            a = (analytic.outage_pow(cfg_pt) if cfg.model is PathLossModel.POWER_LAW
                 else analytic.outage_exp(cfg_pt))
            if a < 1e-3:
                continue
            ratio = cfg_pt.avg_snr * ez2(n) / cfg_pt.target_snr
            cap = ratio ** 0.25 if cfg.model is PathLossModel.POWER_LAW else math.log(ratio) / cfg.alpha
            p_hat = float(np.mean(~(scores < cap)))
            se = max(math.sqrt(a * (1 - a) / n_trials), 1e-12)
            if abs(p_hat - a) > 3 * se:
                bad.append((lam, n, db, a, p_hat))
        seed += 1
    return bad


def test_criterion_4_outage_reproduction():
    """Analytic vs MC outage within 3 se per sweep point; pathwise dominance;
    the 8-element vs 32-element power gap ~15x at 1e-3 outage."""
    bad = _outage_sweep_check(cfg_pow, PolicyKind.OPT_PRODUCT, seed=300)
    bad += _outage_sweep_check(cfg_exp, PolicyKind.OPT_SUM, seed=400)

    # pathwise dominance on shared realizations, zero violations allowed
    violations = 0
    for cfg, opt_kind in ((cfg_pow(0.5, 16), PolicyKind.OPT_PRODUCT),
                          (cfg_exp(0.5, 16), PolicyKind.OPT_SUM)):
        kinds = (opt_kind,) + BASELINES
        radius = max(coverage_radius(cfg, SelectionPolicy(k)) for k in kinds)
        shared = {k: policy_scores(cfg, SelectionPolicy(k), 10_000, 500,
                                   window_radius_override=radius) for k in kinds}
        for k in BASELINES:
            violations += int(np.sum(shared[opt_kind] > shared[k] + 1e-12))

    # average-snr gap between 8 and 32 elements at 1e-3 outage (power law):
    # same score distribution, so the gap is the second-moment ratio ~15.1
    s8 = policy_scores(cfg_pow(0.5, 8), SelectionPolicy(PolicyKind.OPT_PRODUCT), 100_000, 600)
    s32 = policy_scores(cfg_pow(0.5, 32), SelectionPolicy(PolicyKind.OPT_PRODUCT), 100_000, 601)
    q8, q32 = np.quantile(s8, 0.999), np.quantile(s32, 0.999)
    snr8 = RHO_5DB * q8**4 / ez2(8)
    snr32 = RHO_5DB * q32**4 / ez2(32)
    gap = snr8 / snr32
    gap_ok = 15.0 * 0.75 <= gap <= 15.0 * 1.25

    ok = not bad and violations == 0 and gap_ok
    _report(4, ok, f"{len(bad)} sweep points off, {violations} dominance violations, "
                   f"power gap {gap:.2f}x (target ~15x +/- 25%)")
    assert ok, (bad, violations, gap)


def test_criterion_5_rate_reproduction():
    """Analytic vs MC rate within max(3 se, 1%); headline rate gaps at 5 dB."""
    n_trials, m_fading = 30_000, 16
    details, ok = [], True

    cfgp = cfg_pow(0.5, 16, avg_snr=RHO_5DB)
    dist_p = DistCdf(ScoreKind.MIN_PRODUCT, 0.5, D)
    want = analytic.rate_pow(cfgp)
    radius = max(coverage_radius(cfgp, SelectionPolicy(k))
                 for k in (PolicyKind.OPT_PRODUCT, PolicyKind.MIN_MIN))
    est_opt = mc_rate(cfgp, SelectionPolicy(PolicyKind.OPT_PRODUCT), n_trials, m_fading, 700,
                      window_radius_override=radius)
    tol = max(3 * est_opt.std_error, 0.01 * want)
    if abs(est_opt.mean - want) > tol:
        ok = False
    details.append(f"power rate gap {abs(est_opt.mean - want):.4f} (tol {tol:.4f})")

    est_minmin = mc_rate(cfgp, SelectionPolicy(PolicyKind.MIN_MIN), n_trials, m_fading, 700,
                         window_radius_override=radius)
    diff = est_opt.mean - est_minmin.mean  # common random numbers
    if not 0.2 <= diff <= 0.4:
        ok = False
    details.append(f"opt vs min-min gap {diff:.3f} (expect 0.3 +/- 0.1)")

    cfge = cfg_exp(0.5, 16, avg_snr=RHO_5DB)
    dist_s = DistCdf(ScoreKind.MIN_SUM, 0.5, D)
    want_e = analytic.rate_exp(cfge)
    radius_e = max(coverage_radius(cfge, SelectionPolicy(k))
                   for k in (PolicyKind.OPT_SUM, PolicyKind.MID_POINT))
    est_opt_e = mc_rate(cfge, SelectionPolicy(PolicyKind.OPT_SUM), n_trials, m_fading, 701,
                        window_radius_override=radius_e)
    tol_e = max(3 * est_opt_e.std_error, 0.01 * want_e)
    if abs(est_opt_e.mean - want_e) > tol_e:
        ok = False
    details.append(f"exp rate gap {abs(est_opt_e.mean - want_e):.4f} (tol {tol_e:.4f})")

    est_mid = mc_rate(cfge, SelectionPolicy(PolicyKind.MID_POINT), n_trials, m_fading, 701,
                      window_radius_override=radius_e)
    diff_e = est_opt_e.mean - est_mid.mean
    if not 0.02 <= diff_e <= 0.12:
        ok = False
    details.append(f"opt vs mid-point gap {diff_e:.3f} (expect 0.07 +/- 0.05)")

    _report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_closed_form_rate_vs_quadrature():
    """Closed-form fading rate within 1e-4 of quadrature on the pinned grid."""
    worst = 0.0
    for n in (1, 8, 16, 32):
        cfg = cfg_pow(0.5, n)
        for cy in (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4):
            closed = analytic.rate_fading_closed(cy, cfg)
            quad = analytic.rate_fading_quad(cy, cfg)
            worst = max(worst, abs(closed - quad) / quad)
    ok = worst <= 1e-4
    _report(6, ok, f"worst relative deviation {worst:.2e} (tolerance 1e-4)")
    assert ok


def test_criterion_7_limited_feedback_plateaus():
    """High-snr outage equals the void probability; rate losses order as the
    feedback budget shrinks."""
    n_trials = 100_000
    details, ok = [], True
    dist_p = DistCdf(ScoreKind.MIN_PRODUCT, 0.5, D)
    dist_s = DistCdf(ScoreKind.MIN_SUM, 0.5, D)
    for t in (3.0, 5.0):
        for model, cfg, dist, xi in (
            ("power", cfg_pow(0.5, 16, avg_snr=1e3), dist_p, analytic.xi_pow(t, dist_p)),
            ("exp", cfg_exp(0.5, 16, avg_snr=1e3), dist_s, analytic.xi_exp(t, dist_s)),
        ):
            opt = PolicyKind.OPT_PRODUCT if model == "power" else PolicyKind.OPT_SUM
            est = mc_outage(cfg, SelectionPolicy(opt, feedback_threshold=t), n_trials,
                            int(800 + t))
            want = math.exp(-xi)
            se = max(math.sqrt(want * (1 - want) / n_trials), 1e-12)
            z = abs(est.mean - want) / se
            if z > 3.0:
                ok = False
            details.append(f"{model} T={t}: plateau within {z:.2f} se")

    # diminishing loss: T=inf -> 5 costs less than 5 -> 3 at intensity 0.1
    for model, cfg_fn, dist_cls, rate in (
        ("power", cfg_pow, ScoreKind.MIN_PRODUCT, analytic.rate_pow),
        ("exp", cfg_exp, ScoreKind.MIN_SUM, analytic.rate_exp),
    ):
        cfg = cfg_fn(0.1, 16, avg_snr=RHO_5DB)
        dist = DistCdf(dist_cls, 0.1, D)
        r_inf = rate(cfg)
        r5 = rate(cfg, t_threshold=5.0)
        r3 = rate(cfg, t_threshold=3.0)
        if not (r_inf - r5) < (r5 - r3):
            ok = False
        details.append(f"{model} losses {r_inf - r5:.3f} < {r5 - r3:.3f}")
    _report(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_numerical_kernel_suite():
    """Kernel vs high-precision oracles; densities vs finite differences and
    normalization; Jensen dominance with zero violations."""
    import mpmath as mp

    from ris_select.specfun import digamma, ellip_e, ellip_k, genhyp

    mp.mp.dps = 40
    ok, details = True, []

    worst = 0.0
    for m in (-1.0, 0.1, 0.5, 0.9, 0.99):
        worst = max(worst, abs(ellip_k(m) / float(mp.ellipk(m)) - 1))
        worst = max(worst, abs(ellip_e(m) / float(mp.ellipe(m)) - 1))
    if worst > 1e-12:
        ok = False
    near_one = abs(ellip_k(0.999) / float(mp.ellipk(0.999)) - 1)
    if near_one > 1e-9:
        ok = False
    details.append(f"elliptic worst rel {max(worst, near_one):.1e}")

    dg = max(abs(digamma(1.0) + 0.5772156649015329),
             abs(digamma(25.758) - 3.2292082310009614))
    if dg > 1e-12:
        ok = False
    details.append(f"digamma err {dg:.1e}")

    hy = abs(genhyp([2.0], [2.0, 3.0], 0.5) - 1.1774378937768537)
    hy = max(hy, abs(genhyp([1.0, 1.0], [2.0, 1.5, 2.0], -0.1) - 0.9834806906454448))
    if hy > 1e-12:
        ok = False
    details.append(f"hypergeometric err {hy:.1e}")

    dist_p = DistCdf(ScoreKind.MIN_PRODUCT, 0.5, D)
    dist_s = DistCdf(ScoreKind.MIN_SUM, 0.5, D)
    fd_worst = 0.0
    for g in (0.4, 0.9, 2.0, 5.0):
        h = 1e-6
        slope = -(math.exp(-analytic.xi_pow(g + h, dist_p))
                  - math.exp(-analytic.xi_pow(g - h, dist_p))) / (2 * h)
        fd_worst = max(fd_worst, abs(analytic.pdf_upsilon_opt(g, dist_p) / slope - 1))
    for g in (2.6, 3.5, 6.0):
        h = 1e-6
        slope = -(math.exp(-analytic.xi_exp(g + h, dist_s))
                  - math.exp(-analytic.xi_exp(g - h, dist_s))) / (2 * h)
        fd_worst = max(fd_worst, abs(analytic.pdf_lambda_opt(g, dist_s) / slope - 1))
    if fd_worst > 1e-6:
        ok = False
    details.append(f"density-vs-difference rel {fd_worst:.1e}")

    from scipy import integrate

    cfgp, cfge = cfg_pow(0.5, 16), cfg_exp(0.5, 16)
    norm_worst = 0.0
    mass = (integrate.quad(lambda g: analytic.pdf_upsilon_opt(g, dist_p), 0, D * D, limit=300)[0]
            + integrate.quad(lambda g: analytic.pdf_upsilon_opt(g, dist_p), D * D, np.inf, limit=300)[0])
    norm_worst = max(norm_worst, abs(mass - 1))
    mass = integrate.quad(
        lambda u: analytic.pdf_lambda_opt(math.sqrt(u * u + 4 * D * D), dist_s)
        * u / math.sqrt(u * u + 4 * D * D), 0, np.inf, limit=300)[0]
    norm_worst = max(norm_worst, abs(mass - 1))
    boundary = (D * D) ** (-4.0)
    mass = (integrate.quad(lambda y: analytic.pdf_y_pow(y, cfgp), 0, boundary, limit=300)[0]
            + integrate.quad(lambda y: analytic.pdf_y_pow(y, cfgp), boundary, np.inf, limit=300)[0])
    norm_worst = max(norm_worst, abs(mass - 1))

    def y_exp_integrand(u):
        g = math.sqrt(u * u + 4 * D * D)
        y = math.exp(-cfge.alpha * g)
        return 0.0 if y == 0.0 else analytic.pdf_y_exp(y, cfge) * cfge.alpha * y * u / g

    mass = integrate.quad(y_exp_integrand, 0, np.inf, limit=300)[0]
    norm_worst = max(norm_worst, abs(mass - 1))
    if norm_worst > 1e-5:
        ok = False
    details.append(f"normalization err {norm_worst:.1e}")

    jensen_viol = 0
    for n in (1, 16):
        cfgn = cfg_pow(0.5, n)
        for cy in np.geomspace(1e-3, 1e3, 13):
            if analytic.rate_fading_ub(float(cy), cfgn) < analytic.rate_fading_quad(float(cy), cfgn) - 1e-10:
                jensen_viol += 1
    if jensen_viol:
        ok = False
    details.append(f"{jensen_viol} Jensen violations")

    _report(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_gamma_approximation_quality():
    """KS distance between exact fading draws and the gamma surrogate <= 0.02."""
    worst, ok = 0.0, True
    for n in (8, 16, 32):
        ga = gamma_params(n)
        z = sample_z(n, np.random.default_rng(900 + n), size=100_000)
        ks = stats.kstest(z, "gamma", args=(ga.k, 0.0, ga.theta)).statistic
        worst = max(worst, ks)
        if ks > 0.02:
            ok = False
    _report(9, ok, f"worst KS distance {worst:.4f} (tolerance 0.02)")
    assert ok
