"""Closed-form distributions, outage, feedback means, and rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ris_select import analytic
from ris_select.analytic import (
    DistCdf,
    RateQuadrature,
    cdf_lambda_opt,
    cdf_upsilon_opt,
    outage_exp,
    outage_exp_fb,
    outage_pow,
    outage_pow_fb,
    pdf_lambda_opt,
    pdf_upsilon_opt,
    pdf_y_exp,
    pdf_y_pow,
    pdf_y_pow_from_upsilon,
    rate_exp,
    rate_fading_closed,
    rate_fading_quad,
    rate_fading_ub,
    rate_pow,
    xi_exp,
    xi_pow,
)
from ris_select.channel import NetworkConfig, PathLossModel, ez2
from ris_select.errors import DomainError, PoleError, SingularityError
from ris_select.geometry import ScoreKind, min_product_region_area, min_sum_region_area
from ris_select.specfun import ellip_ke_m1

LAM, D = 0.5, 1.2
DIST_P = DistCdf(ScoreKind.MIN_PRODUCT, LAM, D)
DIST_S = DistCdf(ScoreKind.MIN_SUM, LAM, D)


def pow_cfg(**kw):
    base = dict(d=D, intensity=LAM, n_elements=16, model=PathLossModel.POWER_LAW,
                eta=4.0, avg_snr=1.0, target_snr=10.0 ** 0.5)
    base.update(kw)
    return NetworkConfig(**base)


def exp_cfg(**kw):
    base = dict(d=D, intensity=LAM, n_elements=16, model=PathLossModel.EXP_LAW,
                alpha=1.037, avg_snr=1.0, target_snr=10.0 ** 0.5)
    base.update(kw)
    return NetworkConfig(**base)


class TestScoreCdfs:
    def test_product_at_zero(self):
        assert cdf_upsilon_opt(0.0, DIST_P) == 0.0

    def test_product_at_branch_point(self):
        # both branches reduce to 1 - exp(-2 lam d^2) = 1 - e^-1.44
        assert cdf_upsilon_opt(D * D, DIST_P) == pytest.approx(0.7630722413178782, rel=1e-12)
        left = cdf_upsilon_opt(D * D * (1 - 1e-10), DIST_P)
        assert left == pytest.approx(cdf_upsilon_opt(D * D, DIST_P), abs=1e-8)

    def test_product_monotone_and_limits(self):
        grid = np.linspace(0.0, 30.0, 400)
        vals = [cdf_upsilon_opt(float(g), DIST_P) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] > 1 - 1e-12

    def test_sum_below_2d(self):
        assert cdf_lambda_opt(2 * D, DIST_S) == 0.0
        assert cdf_lambda_opt(1.0, DIST_S) == 0.0

    def test_sum_frozen_value(self):
        # 1 - exp(-lam pi 3 sqrt(9 - 4 d^2)/4) at lam=.5, d=1.2
        assert cdf_lambda_opt(3.0, DIST_S) == pytest.approx(0.8800373747752459, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cdf_upsilon_opt(-0.1, DIST_P)
        with pytest.raises(ValueError):
            cdf_upsilon_opt(1.0, DIST_S)  # wrong functional

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("field", ["intensity", "d"])
    def test_non_finite_parameters(self, field, bad):
        params = dict(model=ScoreKind.MIN_PRODUCT, intensity=LAM, d=D) | {field: bad}
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            DistCdf(**params)

    @pytest.mark.parametrize(
        "fn, dist",
        [
            (xi_pow, DIST_P),
            (xi_exp, DIST_S),
            (cdf_upsilon_opt, DIST_P),
            (pdf_upsilon_opt, DIST_P),
            (cdf_lambda_opt, DIST_S),
            (pdf_lambda_opt, DIST_S),
            (lambda g, _: min_product_region_area(g, D), None),
            (lambda g, _: min_sum_region_area(g, D), None),
        ],
        ids=["xi_pow", "xi_exp", "cdf_upsilon_opt", "pdf_upsilon_opt", "cdf_lambda_opt",
             "pdf_lambda_opt", "min_product_region_area", "min_sum_region_area"],
    )
    def test_nan_score_raises(self, fn, dist):
        with pytest.raises(DomainError):
            fn(math.nan, dist)


class TestVoidIdentity:
    def test_product(self):
        for t in np.geomspace(0.05, 12.0, 50):
            gap = abs((1 - cdf_upsilon_opt(float(t), DIST_P)) - math.exp(-xi_pow(float(t), DIST_P)))
            assert gap <= 1e-10

    def test_sum(self):
        for t in np.linspace(0.1, 14.0, 50):
            gap = abs((1 - cdf_lambda_opt(float(t), DIST_S)) - math.exp(-xi_exp(float(t), DIST_S)))
            assert gap <= 1e-10


class TestScorePdfs:
    def fd(self, f, x, h=1e-6):
        return (f(x + h) - f(x - h)) / (2 * h)

    def fd_survival_pow(self, x, h=1e-6):
        # differencing survival = exp(-xi) keeps full relative precision in
        # the tail where the CDF saturates at 1
        return -self.fd(lambda g: math.exp(-xi_pow(g, DIST_P)), x, h)

    def fd_survival_exp(self, x, h=1e-6):
        return -self.fd(lambda g: math.exp(-xi_exp(g, DIST_S)), x, h)

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.2, 1.6, 3.0, 8.0])
    def test_product_pdf_matches_finite_difference(self, gamma):
        assert pdf_upsilon_opt(gamma, DIST_P) == pytest.approx(self.fd_survival_pow(gamma), rel=1e-6)

    def test_product_pdf_near_zero(self):
        slope = self.fd(lambda g: cdf_upsilon_opt(g, DIST_P), 1e-3, h=1e-7)
        assert pdf_upsilon_opt(1e-3, DIST_P) == pytest.approx(slope, rel=1e-4)

    def test_product_pdf_tail_form(self):
        # large-score tail: 2 lam K(d^4/g^2) exp(-2 lam g E(d^4/g^2))
        from ris_select.specfun import ellip_e, ellip_k

        g = 9.0
        m = (D * D / g) ** 2
        want = 2 * LAM * ellip_k(m) * math.exp(-2 * LAM * g * ellip_e(m))
        assert pdf_upsilon_opt(g, DIST_P) == pytest.approx(want, rel=1e-13)

    def test_product_pdf_normalizes(self):
        mass = integrate.quad(lambda g: pdf_upsilon_opt(g, DIST_P), 0, D * D, limit=200)[0]
        mass += integrate.quad(lambda g: pdf_upsilon_opt(g, DIST_P), D * D, np.inf, limit=200)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_product_pdf_diverges_at_branch_point(self):
        assert math.isinf(pdf_upsilon_opt(D * D, DIST_P))

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 5.0, 9.0])
    def test_sum_pdf_matches_finite_difference(self, gamma):
        assert pdf_lambda_opt(gamma, DIST_S) == pytest.approx(self.fd_survival_exp(gamma), rel=1e-6)

    def test_sum_pdf_zero_below_2d(self):
        assert pdf_lambda_opt(1.9, DIST_S) == 0.0

    def test_sum_pdf_singularity(self):
        with pytest.raises(SingularityError):
            pdf_lambda_opt(2 * D, DIST_S)

    def test_sum_pdf_normalizes_with_substitution(self):
        # u = sqrt(g^2 - 4 d^2) removes the endpoint singularity
        def integrand(u):
            g = math.sqrt(u * u + 4 * D * D)
            return pdf_lambda_opt(g, DIST_S) * u / g

        mass = integrate.quad(integrand, 0, np.inf, limit=200)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestFeedbackMeans:
    def test_pow_small_threshold(self):
        assert xi_pow(0.0, DIST_P) == 0.0
        assert xi_pow(1e-9, DIST_P) < 1e-8

    def test_pow_branch_agreement_at_d2(self):
        # both closed forms give 2 lam d^2
        t = D * D
        assert xi_pow(t, DIST_P) == pytest.approx(2 * LAM * D * D, rel=1e-12)
        assert xi_pow(t * (1 - 1e-9), DIST_P) == pytest.approx(2 * LAM * D * D, rel=1e-6)

    def test_pow_monte_carlo_value(self):
        # lam=.5, d=1.2, T=20: 2*lam*T*E(d^4/T^2)
        assert xi_pow(20.0, DIST_P) == pytest.approx(31.375171834, rel=1e-9)

    def test_exp_zero_branch(self):
        assert xi_exp(2 * D, DIST_S) == 0.0
        assert xi_exp(1.0, DIST_S) == 0.0

    def test_exp_frozen_value(self):
        assert xi_exp(20.0, DIST_S) == pytest.approx(155.94455823876696, rel=1e-12)

    def test_exp_linear_in_intensity(self):
        doubled = DistCdf(ScoreKind.MIN_SUM, 2 * LAM, D)
        assert xi_exp(7.0, doubled) == pytest.approx(2 * xi_exp(7.0, DIST_S), rel=1e-14)


class TestOutage:
    def test_pow_limits(self):
        assert outage_pow(pow_cfg(target_snr=0.0)) == 0.0
        # outage -> 1 as the target grows without bound
        assert outage_pow(pow_cfg(target_snr=1e12)) == pytest.approx(1.0, abs=1e-5)
        assert outage_pow(pow_cfg(target_snr=1e20)) == pytest.approx(1.0, abs=1e-9)

    def test_pow_closed_form_structure(self):
        cfg = pow_cfg(avg_snr=10 ** 0.5)
        level = (cfg.avg_snr * ez2(16) / cfg.target_snr) ** 0.25
        assert outage_pow(cfg) == pytest.approx(1 - cdf_upsilon_opt(level, DIST_P), rel=1e-14)

    def test_exp_high_snr(self):
        assert outage_exp(exp_cfg(avg_snr=1e9)) < 1e-6

    def test_exp_unreachable_target(self):
        # target at or above the snr achievable at the minimum sum 2d
        cfg = exp_cfg(avg_snr=1.0)
        rho_star = cfg.avg_snr * ez2(16) / math.exp(cfg.alpha * 2 * D)
        assert outage_exp(exp_cfg(target_snr=rho_star * 1.01)) == 1.0
        assert outage_exp(exp_cfg(target_snr=rho_star * 4)) == 1.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            outage_pow(exp_cfg())
        with pytest.raises(ValueError):
            outage_exp(pow_cfg())


class TestLimitedFeedbackOutage:
    def test_pow_plateau_independent_of_avg_snr(self):
        t = 3.0
        vals = {outage_pow_fb(pow_cfg(avg_snr=g), t) for g in (1e3, 1e5, 1e7)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(math.exp(-xi_pow(t, DIST_P)), rel=1e-12)

    def test_pow_reduces_to_all_feedback(self):
        cfg = pow_cfg(avg_snr=2.0)
        assert outage_pow_fb(cfg, 1e9) == pytest.approx(outage_pow(cfg), rel=1e-12)

    def test_pow_continuous_at_branch(self):
        cfg = pow_cfg(avg_snr=2.0)
        t_star = (cfg.avg_snr * ez2(16) / cfg.target_snr) ** 0.25
        below = outage_pow_fb(cfg, t_star * (1 - 1e-9))
        above = outage_pow_fb(cfg, t_star * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)

    def test_pow_monotone_in_threshold(self):
        cfg = pow_cfg(avg_snr=2.0)
        ts = np.linspace(0.5, 12.0, 40)
        vals = [outage_pow_fb(cfg, float(t)) for t in ts]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_exp_monotone_in_threshold(self):
        cfg = exp_cfg(avg_snr=10.0)
        ts = np.linspace(2.0, 12.0, 30)
        vals = [outage_exp_fb(cfg, float(t)) for t in ts]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_exp_three_branches(self):
        cfg = exp_cfg(avg_snr=10.0)
        # middle branch reproduces the all-feedback value
        assert outage_exp_fb(cfg, 1e6) == pytest.approx(outage_exp(cfg), rel=1e-12)
        # tiny threshold admits no feedback at all
        assert outage_exp_fb(cfg, 2 * D * 0.9) == pytest.approx(1.0)
        # high-gain plateau
        hi = exp_cfg(avg_snr=1e8)
        assert outage_exp_fb(hi, 5.0) == pytest.approx(math.exp(-xi_exp(5.0, DIST_S)), rel=1e-12)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: outage_pow_fb(pow_cfg(), t),
            lambda t: outage_exp_fb(exp_cfg(), t),
            lambda t: rate_pow(pow_cfg(), t_threshold=t),
            lambda t: rate_exp(exp_cfg(), t_threshold=t),
        ],
        ids=["outage_pow_fb", "outage_exp_fb", "rate_pow", "rate_exp"],
    )
    def test_threshold_must_be_positive(self, fn, threshold):
        with pytest.raises(ValueError, match="threshold must be > 0"):
            fn(threshold)


class TestFadingRate:
    def test_quad_trivial(self):
        assert rate_fading_quad(0.0, pow_cfg()) == 0.0

    def test_quad_monotone(self):
        cfg = pow_cfg()
        ys = [0.01, 0.1, 1.0, 10.0]
        vals = [rate_fading_quad(y, cfg) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 8, 16, 32])
    @pytest.mark.parametrize("cy", [1e-2, 1.0, 1e2, 1e4])
    def test_closed_matches_quadrature(self, n, cy):
        cfg = pow_cfg(n_elements=n)
        closed = rate_fading_closed(cy, cfg)
        quad = rate_fading_quad(cy, cfg)
        assert closed == pytest.approx(quad, rel=1e-4)

    def test_closed_large_argument_asymptote(self):
        # rate - [2 log2(theta) + log2(c) + 2 psi(k)/ln 2] -> 0
        from ris_select.channel import gamma_params
        from ris_select.specfun import digamma

        cfg = pow_cfg(n_elements=16)
        ga = gamma_params(16)
        c = 1e8
        asym = (2 * math.log(ga.theta) + math.log(c) + 2 * digamma(ga.k)) / math.log(2)
        assert rate_fading_closed(c, cfg) == pytest.approx(asym, abs=1e-6)

    @pytest.mark.parametrize("y", [math.nan, -1.0])
    @pytest.mark.parametrize("oracle", [rate_fading_quad, rate_fading_closed, rate_fading_ub])
    def test_oracles_refuse_nan_and_negative_y(self, oracle, y):
        with pytest.raises(DomainError, match="y must be"):
            oracle(y, pow_cfg())

    def test_closed_rejects_small_argument(self):
        with pytest.raises(DomainError):
            rate_fading_closed(1e-3, pow_cfg(avg_snr=1.0))

    def test_closed_pole_guard(self, monkeypatch):
        from ris_select import analytic as mod
        from ris_select.channel import GammaApprox

        monkeypatch.setattr(mod, "gamma_params", lambda n: GammaApprox(26.0 + 1e-9, 0.4878))
        with pytest.raises(PoleError):
            rate_fading_closed(1.0, pow_cfg())

    def test_jensen_bound_dominates(self):
        cfg = pow_cfg(n_elements=16)
        assert rate_fading_ub(0.0, cfg) == 0.0
        for y in np.geomspace(1e-3, 1e3, 15):
            assert rate_fading_ub(float(y), cfg) >= rate_fading_quad(float(y), cfg) - 1e-10

    def test_jensen_bound_n1(self):
        cfg = pow_cfg(n_elements=1, avg_snr=1.0)
        assert rate_fading_ub(1.0, cfg) == pytest.approx(1.0, rel=1e-14)


class TestTransformedDensities:
    def test_pow_direct_equals_transform(self):
        cfg = pow_cfg()
        for y in np.geomspace(1e-3, 1e3, 25):
            direct = pdf_y_pow(float(y), cfg)
            via = pdf_y_pow_from_upsilon(float(y), cfg)
            if math.isinf(direct):
                assert math.isinf(via)
            else:
                assert direct == pytest.approx(via, rel=1e-8)

    def test_pow_branch_continuity(self):
        cfg = pow_cfg()
        boundary = (D * D) ** (-cfg.eta)
        lo = pdf_y_pow(boundary * (1 - 1e-4), cfg)
        hi = pdf_y_pow(boundary * (1 + 1e-4), cfg)
        assert lo == pytest.approx(hi, rel=0.15)  # log divergence: nearby, both large

    def test_pow_matches_cdf_finite_difference(self):
        cfg = pow_cfg()

        def cdf_y(y):
            return 1.0 - cdf_upsilon_opt(y ** (-1.0 / cfg.eta), DIST_P)

        for y in (0.05, 0.4, 2.0, 50.0):
            h = y * 1e-6
            slope = (cdf_y(y + h) - cdf_y(y - h)) / (2 * h)
            assert pdf_y_pow(y, cfg) == pytest.approx(slope, rel=1e-5)

    def test_pow_normalizes(self):
        cfg = pow_cfg()
        boundary = (D * D) ** (-cfg.eta)
        mass = integrate.quad(lambda y: pdf_y_pow(y, cfg), 0, boundary, limit=300)[0]
        mass += integrate.quad(lambda y: pdf_y_pow(y, cfg), boundary, np.inf, limit=300)[0]
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_exp_support(self):
        cfg = exp_cfg()
        edge = math.exp(-2 * cfg.alpha * D)
        assert pdf_y_exp(edge * 1.01, cfg) == 0.0
        assert pdf_y_exp(0.9, cfg) == 0.0

    def test_exp_matches_cdf_finite_difference(self):
        cfg = exp_cfg()

        def cdf_y(y):
            return 1.0 - cdf_lambda_opt(math.log(1.0 / y) / cfg.alpha, DIST_S)

        edge = math.exp(-2 * cfg.alpha * D)
        for y in (0.5 * edge, 0.2 * edge, 0.05 * edge):
            h = y * 1e-6
            slope = (cdf_y(y + h) - cdf_y(y - h)) / (2 * h)
            assert pdf_y_exp(y, cfg) == pytest.approx(slope, rel=1e-5)

    def test_exp_normalizes_with_substitution(self):
        cfg = exp_cfg()

        # integrate in u = sqrt(L^2 - 4 d^2), L the sum score, removing the
        # inverse-square-root edge singularity
        def integrand(u):
            g = math.sqrt(u * u + 4 * D * D)
            y = math.exp(-cfg.alpha * g)
            if y == 0.0:
                return 0.0
            return pdf_y_exp(y, cfg) * cfg.alpha * y * u / g

        mass = integrate.quad(integrand, 0.0, np.inf, limit=300)[0]
        assert mass == pytest.approx(1.0, abs=1e-5)


def logaddexp_average_rate(log_y, weight, avg_snr, n_elements, use_upper_bound):
    """The rate engine's sum at one SNR with the inner term taken by np.logaddexp."""
    if use_upper_bound:
        nodes, fading_weight = np.array([math.log(ez2(n_elements))]), np.ones(1)
    else:
        nodes, fading_weight = analytic._fading_rule(n_elements)
    live = weight > 0.0
    log_c = log_y[live] + math.log(avg_snr)
    inner = np.logaddexp(0.0, log_c[:, None] + nodes) @ fading_weight
    return float(weight[live] @ inner) / math.log(2.0)


# relative error bound of the fading-average table, as analytic._FadingTable states it
TABLE_RTOL = 1e-13


def rule_average(n, t):
    """sum_j w_j log(1 + e^{t + x_j}) over the fading rule, by np.logaddexp."""
    nodes, weight = analytic._fading_rule(n)
    return np.logaddexp(0.0, np.asarray(t, dtype=float)[:, None] + nodes) @ weight


def softplus(x):
    x = np.array(x, dtype=float)
    out = analytic._softplus(x, np.empty_like(x))
    assert out is x  # in place
    return out


def ulps_apart(a, b):
    """Number of doubles between non-negative a and b (their bit patterns are ordered)."""
    assert np.all(a >= 0.0) and np.all(b >= 0.0)
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSoftplus:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_within_2_ulp_of_logaddexp(self, xs):
        x = np.array(xs + [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308])
        assert np.all(ulps_apart(softplus(x), np.logaddexp(0.0, x)) <= 2)

    def test_dense_sweep_within_2_ulp(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 400_001), np.geomspace(1e-320, 1e3, 20_001)])
        x = np.concatenate([x, -x])
        assert np.all(ulps_apart(softplus(x), np.logaddexp(0.0, x)) <= 2)

    def test_special_values(self):
        got = softplus([0.0, -0.0, math.inf, -math.inf, math.nan])
        assert got[0] == got[1] == math.log(2.0) == np.logaddexp(0.0, 0.0)
        assert got[2] == math.inf
        assert got[3] == 0.0
        assert math.isnan(got[4])


def _mpmath_gauss_legendre(n, digits=40):
    """Positive nodes and their weights of the n-point Gauss-Legendre rule on
    [-1, 1] at `digits` digits: Newton on P_n from the Chebyshev guesses."""
    import mpmath as mp

    with mp.workdps(digits):
        rule = []
        for k in range(n // 2):
            x = mp.cos(mp.pi * (k + mp.mpf(3) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(100):
                slope = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
                step = mp.legendre(n, x) / slope
                x -= step
                if abs(step) < mp.mpf(10) ** -(digits + 5):
                    break
            slope = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
            rule.append((x, 2 / ((1 - x * x) * slope**2)))
        return rule[::-1]


class TestGaussLegendreRule:
    """The 16-point rule is read from literals (analytic._GL_HALF)."""

    def test_nodes_within_1_ulp_and_weights_within_1e13_of_the_exact_rule(self):
        exact = _mpmath_gauss_legendre(16)
        assert len(exact) == len(analytic._GL_HALF) == 8
        for (x, w), (x_exact, w_exact) in zip(analytic._GL_HALF, exact):
            assert abs(x - x_exact) <= np.spacing(x)
            assert abs(w / w_exact - 1) <= 1e-13

    def test_within_2_ulp_of_leggauss(self):
        # on any LAPACK build; the tests may import numpy.polynomial
        x, w = np.polynomial.legendre.leggauss(16)
        half_x, half_w = np.array(analytic._GL_HALF).T
        assert np.all(ulps_apart(half_x, x[8:]) <= 2)
        assert np.all(ulps_apart(half_w, w[8:]) <= 2)

    def test_rule_on_the_unit_interval_is_exactly_symmetric(self):
        x, w = analytic._gauss_legendre()
        half_x, half_w = np.array(analytic._GL_HALF).T
        assert np.array_equal(w, w[::-1])
        assert np.array_equal(w[8:], 0.5 * half_w)
        assert np.array_equal(x[8:], 0.5 * (half_x + 1.0))
        assert np.array_equal(x[7::-1], 0.5 * (-half_x + 1.0))
        assert np.all(np.diff(x) > 0) and 0 < x[0] and x[-1] < 1
        assert not x.flags.writeable and not w.flags.writeable

    def test_horner_rows_equal_the_polyfromroots_construction(self):
        nodes = np.arange(analytic._STENCIL) - (analytic._STENCIL - 1) / 2.0
        want = np.empty((analytic._STENCIL, analytic._STENCIL))
        for j, node in enumerate(nodes):
            others = np.delete(nodes, j)
            want[:, j] = np.polynomial.polynomial.polyfromroots(others) / np.prod(node - others)
        assert np.array_equal(analytic._horner_rows(), want)


@st.composite
def table_points(draw):
    """(N, t): t anywhere in [-300, 300], on a lattice point of N's table,
    or at (or one double beside) an edge of its interpolated range."""
    n = draw(st.integers(1, 1024))
    table = analytic._fading_table(n)
    size = table.windows.shape[0] + analytic._STENCIL - 1
    edge = draw(st.sampled_from([table.low, table.high]))
    t = draw(st.one_of(
        st.floats(-300.0, 300.0),
        st.integers(0, size - 1).map(lambda i: table.origin + i * table.step),
        st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]),
    ))
    return n, t


class TestFadingTable:
    @settings(max_examples=300, deadline=None)
    @given(table_points())
    def test_matches_rule_sum(self, point):
        n, t = point
        got = analytic._fading_table(n).average(np.array([t]))
        assert got == pytest.approx(rule_average(n, [t]), rel=TABLE_RTOL, abs=0.0)

    @pytest.mark.parametrize("n", [1, 16, 1024])
    def test_whole_range_within_bound(self, n):
        # both asymptotic regions, the interpolated range in between, and
        # every lattice point (where u = -1/2 exactly)
        table = analytic._fading_table(n)
        size = table.windows.shape[0] + analytic._STENCIL - 1
        t = np.concatenate([np.linspace(table.low - 5.0, table.high + 5.0, 20_001),
                            table.origin + table.step * np.arange(size)])
        assert t.min() < table.low and t.max() > table.high
        want = rule_average(n, t)
        assert np.all(np.abs(table.average(t) / want - 1.0) <= TABLE_RTOL)

    @pytest.mark.parametrize("n", [1, 2, 16, 256, 1024])
    def test_lattice_values_match_logaddexp(self, monkeypatch, n):
        # the correlation indexes the one softplus pass right: h_i against
        # the sum over the same arguments, each by np.logaddexp, summed
        # exactly so that only the table's own rounding is measured
        args, softplus_pass = [], analytic._softplus

        def recording(x, scratch):
            args.append(x.copy())
            return softplus_pass(x, scratch)

        monkeypatch.setattr(analytic, "_softplus", recording)
        nodes, weight = analytic._fading_rule(n)
        origin, step, h = analytic._lattice_average(nodes, weight, -40.0 - nodes[-1], 40.0 - nodes[0])
        assert len(args) == 1 and step <= analytic._TABLE_STEP
        r = round((nodes[-1] - nodes[0]) / (nodes.size - 1) / step)
        assert args[0].size == h.size + r * (nodes.size - 1)
        index = np.arange(h.size)[:, None] + r * np.arange(nodes.size)
        want = [math.fsum(row) for row in np.logaddexp(0.0, args[0][index]) * weight]
        assert h == pytest.approx(want, rel=1e-15, abs=0.0)
        # and those arguments are t_i + x_j
        assert args[0][index] == pytest.approx((origin + step * np.arange(h.size))[:, None] + nodes,
                                               rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 16, 1024])
    def test_lattice_values_are_the_rules_own_sums(self, n):
        # the rule's nodes and the table's lattice are multiples of one
        # power of two, so every argument t_i + x_j is exact and each
        # lattice value is the rule's sum at t_i to the softplus's rounding
        nodes, weight = analytic._fading_rule(n)
        origin, step, h = analytic._lattice_average(nodes, weight, -40.0 - nodes[-1], 40.0 - nodes[0])
        t = (origin + step * np.arange(h.size)).astype(np.longdouble)
        want = np.logaddexp(np.longdouble(0.0), t[:, None] + nodes) @ weight.astype(np.longdouble)
        assert np.all(np.abs(h / want - 1.0) <= 1e-15)

    def test_cached_read_only(self):
        table = analytic._fading_table(16)
        assert analytic._fading_table(16) is table
        assert not table.windows.flags.writeable
        with pytest.raises(ValueError):
            table.windows.setflags(write=True)  # nor can it be made writeable

    @pytest.mark.parametrize("n", [1, 2, 16, 256, 1024])
    def test_build_costs_less_softplus_than_one_direct_call(self, monkeypatch, n):
        # so a sweep over N, which builds one table per point, never takes
        # more softplus elements than the per-(score node, fading node) sum
        counted, softplus_pass = [], analytic._softplus

        def counting(x, scratch):
            counted.append(x.size)
            return softplus_pass(x, scratch)

        nodes, weight = analytic._fading_rule(n)
        monkeypatch.setattr(analytic, "_softplus", counting)
        analytic._average_table(nodes, weight)
        g, _ = analytic._product_score_rule(DIST_P, math.inf)
        assert sum(counted) < g.size * nodes.size


class TestAverageRate:
    def test_pow_threshold_infinity_matches_all_feedback(self):
        cfg = pow_cfg(avg_snr=10 ** 0.5)
        base = rate_pow(cfg)
        assert rate_pow(cfg, t_threshold=1e9) == pytest.approx(base, rel=1e-7)

    def test_pow_monotone_in_threshold(self):
        cfg = pow_cfg(avg_snr=10 ** 0.5)
        vals = [rate_pow(cfg, t_threshold=t) for t in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_pow_small_threshold_keeps_low_score_branch_only(self):
        # T below d^2: only scores <= T < d^2 can transmit
        cfg = pow_cfg(avg_snr=10 ** 0.5)
        t = 0.7
        got = rate_pow(cfg, t_threshold=t)

        def integrand(g):
            return rate_fading_quad(g ** (-cfg.eta), cfg) * pdf_upsilon_opt(g, DIST_P)

        want = integrate.quad(integrand, 0.0, t, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-8)

    def test_exp_zero_below_2d(self):
        cfg = exp_cfg(avg_snr=10 ** 0.5)
        assert rate_exp(cfg, t_threshold=2 * D) == 0.0

    def test_exp_threshold_infinity_matches_all_feedback(self):
        cfg = exp_cfg(avg_snr=10 ** 0.5)
        base = rate_exp(cfg)
        assert rate_exp(cfg, t_threshold=200.0) == pytest.approx(base, rel=1e-9)

    def test_upper_bound_dominates(self):
        cfg = pow_cfg(avg_snr=10 ** 0.5)
        assert rate_pow(cfg, use_upper_bound=True) >= rate_pow(cfg)
        cfg_e = exp_cfg(avg_snr=10 ** 0.5)
        assert rate_exp(cfg_e, use_upper_bound=True) >= rate_exp(cfg_e)

    def test_pow_finite_down_to_tiny_lam_d2(self):
        # lam d^2 down to 1e-16: the 1e-14 tail puts the high branch at tau
        # ~ 1e9, where 1 - m = 1 - (1 + tau)^-2 must not round above 1
        for lam in 10.0 ** np.arange(-8, 1):
            for d in 10.0 ** np.arange(-4, 2):
                cfg = pow_cfg(intensity=lam, d=d)
                got = rate_pow(cfg)
                assert math.isfinite(got) and 0.0 <= got <= rate_pow(cfg, use_upper_bound=True)

    # (law, lam, d, avg_snr_db, N, threshold, value): values from adaptive
    # quadrature of rate_fading_quad (relative tolerance 1e-12) against the
    # score density (power law) or against the Exp(1) variable lam * area
    # (exponential law)
    PINNED = [
        # density spike of width ~1/(pi lam d) next to u = 0
        ("exp", 20.0, 10.0, 0, 16, None, 2.32737969359842e-07),
        # nearly all mass far out on the large-score branch
        ("power", 0.01, 0.1, 0, 16, None, 0.6818116389607267),
        # the rate bends from log-linear to zero inside one wide score panel
        ("exp", 0.01, 0.1, 60, 100, None, 17.667478426585635),
        # beyond the reach of the closed-form series
        ("power", 0.5, 1.2, 0, 1024, None, 19.520855514621665),
        ("power", 0.5, 1.2, 0, 1, None, 1.369197659274401),
        ("exp", 0.5, 1.2, 0, 1, None, 0.08766618355977851),
        # threshold below d^2
        ("power", 0.5, 1.2, 0, 16, 1.008, 4.677995066380614),
        # threshold at or below 2d admits no feedback
        ("exp", 0.5, 1.2, 0, 16, 2.4, 0.0),
        ("exp", 0.5, 1.2, 0, 16, 1.2, 0.0),
    ]

    @pytest.mark.parametrize("law, lam, d, snr_db, n, t, want", PINNED)
    def test_pinned_oracle_values(self, law, lam, d, snr_db, n, t, want):
        build = pow_cfg if law == "power" else exp_cfg
        cfg = build(d=d, intensity=lam, n_elements=n, avg_snr=10.0 ** (snr_db / 10.0))
        if law == "power":
            got = rate_pow(cfg, t_threshold=t)
        else:
            got = rate_exp(cfg, t_threshold=t)
        if want == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-10)

    def test_engine_needs_no_series_or_adaptive_quadrature(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the rate engine must not call this")

        for name in ("genhyp", "rate_fading_closed", "rate_fading_quad"):
            monkeypatch.setattr(analytic, name, boom)
        monkeypatch.setattr(integrate, "quad", boom)
        cfg, cfg_e = pow_cfg(avg_snr=10 ** 0.5), exp_cfg(avg_snr=10 ** 0.5)
        for kwargs in ({}, {"t_threshold": 3.0}, {"use_upper_bound": True}):
            assert rate_pow(cfg, **kwargs) > 0.0
            assert rate_exp(cfg_e, **kwargs) > 0.0
        assert rate_pow(cfg, t_threshold=0.7) > 0.0

    def test_engine_needs_no_logaddexp(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the rate engine must not call np.logaddexp")

        monkeypatch.setattr(np, "logaddexp", boom)
        cfg, cfg_e = pow_cfg(avg_snr=10 ** 0.5), exp_cfg(avg_snr=10 ** 0.5)
        for kwargs in ({}, {"t_threshold": 3.0}, {"use_upper_bound": True},
                       {"t_threshold": 3.0, "use_upper_bound": True}):
            assert rate_pow(cfg, **kwargs) > 0.0
            assert rate_exp(cfg_e, **kwargs) > 0.0
        assert rate_pow(cfg, t_threshold=0.7) > 0.0

    @pytest.mark.parametrize("law", ["power", "exp"])
    @pytest.mark.parametrize("lam", [0.01, 0.5, 20.0])
    @pytest.mark.parametrize("d", [0.1, 10.0])
    @pytest.mark.parametrize("n", [1, 256])
    def test_average_rate_matches_logaddexp_reference(self, monkeypatch, law, lam, d, n):
        # the (log y, weight) pairs the real rules hand to the engine, with
        # and without a threshold (both branches for the power law); the
        # fading average comes from the interpolated table, good to its
        # stated bound, and the Jensen bound's single node is still exact
        calls, engine = [], analytic._average_rates

        def recording(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(analytic, "_average_rates", recording)
        build = pow_cfg if law == "power" else exp_cfg
        cfg = build(d=d, intensity=lam, n_elements=n, avg_snr=10.0)
        for t in (None, 1.5 * d * d if law == "power" else 3.0 * d):
            for bound in (False, True):
                if law == "power":
                    rate_pow(cfg, t_threshold=t, use_upper_bound=bound)
                else:
                    rate_exp(cfg, t_threshold=t, use_upper_bound=bound)
        assert len(calls) == 4
        for log_y, weight, snrs, n_elements, bound in calls:
            assert snrs == [10.0] and n_elements == n
            want = logaddexp_average_rate(log_y, weight, 10.0, n, bound)
            assert want > 0.0
            rel = 1e-15 if bound else TABLE_RTOL
            (got,) = engine(log_y, weight, snrs, n, bound)
            assert got == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("cap", [0.3, 1.0, 1.44, 2.5, 5.0, math.inf])
    def test_score_rule_elliptic_nodes_match_scipy(self, monkeypatch, cap):
        # the complementary parameters the rule really produces, down to
        # ~1e-17 next to the branch point d^2 = 1.44
        from scipy import special

        seen = []

        def recording(p):
            seen.append(np.array(p))
            return ellip_ke_m1(p)

        monkeypatch.setattr(analytic, "ellip_ke_m1", recording)
        analytic._product_score_rule.__wrapped__(DIST_P, cap)
        p = np.concatenate(seen)
        assert p.min() < 1e-15 or cap < D * D
        got_k, got_e = ellip_ke_m1(p)
        assert got_k == pytest.approx(special.ellipkm1(p), rel=1e-13)
        assert got_e == pytest.approx(special.ellipe(1.0 - p), rel=1e-13)

    def test_score_rule_is_cached_read_only(self):
        g, weight = analytic._product_score_rule(DIST_P, math.inf)
        assert analytic._product_score_rule(DIST_P, math.inf)[0] is g
        assert not g.flags.writeable and not weight.flags.writeable

    def test_quadrature_control_validation(self):
        with pytest.raises(ValueError):
            RateQuadrature(abs_tol=0.5)
        with pytest.raises(ValueError):
            RateQuadrature(max_subdivisions=10)


# a table value may round differently in another place of a batch's matrix
# product, so a cell of a group and its one-cell call may differ by an ulp or so
SWEEP_ULPS = 4

# (law, threshold): all feedback; the power law's T < d^2 (low branch only)
# and T > d^2; the exponential law's T = 2d and T < 2d (rate 0) and T > 2d
SWEEP_CASES = [
    ("power", None), ("power", 0.7), ("power", 3.0),
    ("exp", None), ("exp", 2 * D), ("exp", 1.2), ("exp", 3.0),
]


def snr_cells(law, threshold, steps, **kw):
    build = pow_cfg if law == "power" else exp_cfg
    return [(build(avg_snr=10.0 ** (db / 10.0), **kw), threshold) for db in np.linspace(-10.0, 30.0, steps)]


def one_cell(cfg, threshold, use_upper_bound=False):
    rate = rate_pow if cfg.model is PathLossModel.POWER_LAW else rate_exp
    return rate(cfg, t_threshold=threshold, use_upper_bound=use_upper_bound)


class TestRateSweep:
    """analytic.rate_sweep, the group read behind `run`'s analytic rates."""

    @pytest.mark.parametrize("steps", [1, 2, 17])
    @pytest.mark.parametrize("law, threshold", SWEEP_CASES)
    def test_each_cell_matches_its_one_cell_call(self, law, threshold, steps):
        cells = snr_cells(law, threshold, steps)
        got = np.array(analytic.rate_sweep(cells))
        want = np.array([one_cell(cfg, t) for cfg, t in cells])
        assert got.shape == (steps,)
        assert np.all(ulps_apart(got, want) <= SWEEP_ULPS)
        if law == "exp" and threshold is not None and threshold <= 2 * D:
            assert np.all(got == 0.0)
        else:
            assert np.all(got > 0.0)

    @pytest.mark.parametrize("law", ["power", "exp"])
    def test_upper_bound_matches_its_one_cell_call(self, law):
        cells = snr_cells(law, None, 17)
        got = np.array(analytic.rate_sweep(cells, use_upper_bound=True))
        want = np.array([one_cell(cfg, t, use_upper_bound=True) for cfg, t in cells])
        assert np.all(ulps_apart(got, want) <= SWEEP_ULPS)

    def test_mixed_cells_keep_their_order(self):
        # two laws, two element counts and two thresholds, interleaved: each
        # (configuration but SNR, threshold) is its own group, and the values
        # come back in the cells' order
        cells = []
        for db in (-10.0, 0.0, 20.0):
            snr = 10.0 ** (db / 10.0)
            cells += [(pow_cfg(avg_snr=snr), None), (exp_cfg(avg_snr=snr), 3.0),
                      (pow_cfg(avg_snr=snr, n_elements=4), 0.7), (exp_cfg(avg_snr=snr), 2 * D)]
        got = np.array(analytic.rate_sweep(cells))
        want = np.array([one_cell(cfg, t) for cfg, t in cells])
        assert np.all(ulps_apart(got, want) <= SWEEP_ULPS)
        assert analytic.rate_sweep([]) == []

    def test_group_reads_its_table_once_in_capped_batches(self, monkeypatch):
        # one group of 17 SNRs: one table read, whose interpolated nodes
        # fill more than two batches and reach _interpolate at most _BATCH
        # at a time
        sizes, averages = [], []
        interpolate, average = analytic._FadingTable._interpolate, analytic._FadingTable.average

        def recording_interpolate(table, t):
            sizes.append(t.size)
            return interpolate(table, t)

        def recording_average(table, t):
            averages.append(t.size)
            return average(table, t)

        monkeypatch.setattr(analytic._FadingTable, "_interpolate", recording_interpolate)
        monkeypatch.setattr(analytic._FadingTable, "average", recording_average)
        cells = snr_cells("power", None, 17)
        got = np.array(analytic.rate_sweep(cells))
        assert len(averages) == 1
        assert sum(sizes) > 2 * analytic._BATCH and len(sizes) > 2
        assert max(sizes) <= analytic._BATCH
        sizes.clear()
        want = np.array([one_cell(cfg, t) for cfg, t in cells])
        assert max(sizes) <= analytic._BATCH
        assert np.all(ulps_apart(got, want) <= SWEEP_ULPS)

    def test_batches_cover_every_interpolated_node_once(self):
        # a read of more than two batches, against one value at a time
        table = analytic._fading_table(16)
        t = np.linspace(table.low, table.high, 2 * analytic._BATCH + 77)
        got = table.average(t.copy())
        one = np.concatenate([table.average(t[i:i + 1].copy()) for i in range(t.size)])
        assert np.all(ulps_apart(got, one) <= SWEEP_ULPS)
        assert got == pytest.approx(rule_average(16, t), rel=TABLE_RTOL, abs=0.0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_refuses_a_threshold_not_above_zero(self, threshold):
        with pytest.raises(ValueError):
            analytic.rate_sweep([(pow_cfg(), None), (pow_cfg(), threshold)])
