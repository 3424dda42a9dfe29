"""Special-function kernel against defining-integral and high-precision oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate


def _quiet_quad(f, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=400)
    return val

from ris_select.errors import DomainError, NonConvergenceError, PoleError
from ris_select.specfun import (
    digamma,
    ellip_e,
    ellip_k,
    ellip_ke_m1,
    genhyp,
    log_gamma,
)


def quad_k(m):
    """Defining-integral oracle for the complete first-kind integral."""
    return _quiet_quad(lambda t: (1.0 - m * math.sin(t) ** 2) ** -0.5, 0.0, math.pi / 2)


def quad_e(m):
    return _quiet_quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, math.pi / 2)


class TestCompleteElliptic:
    def test_k_zero(self):
        assert ellip_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_k_half_against_quadrature(self):
        assert ellip_k(0.5) == pytest.approx(quad_k(0.5), rel=1e-12)
        # frozen 50-digit value: 1.8540746773013719184
        assert ellip_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-14)

    def test_k_near_one(self):
        assert ellip_k(0.999) == pytest.approx(quad_k(0.999), rel=1e-9)
        assert ellip_k(0.999) == pytest.approx(4.841132560550297, rel=1e-13)

    @pytest.mark.parametrize("m", [-3.0, -0.5, 0.1, 0.2304, 0.7, 0.95])
    def test_k_grid_against_quadrature(self, m):
        assert ellip_k(m) == pytest.approx(quad_k(m), rel=1e-12)

    def test_k_domain(self):
        with pytest.raises(DomainError):
            ellip_k(1.0)
        with pytest.raises(DomainError):
            ellip_k(1.5)

    def test_e_trivial(self):
        assert ellip_e(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert ellip_e(1.0) == 1.0

    @pytest.mark.parametrize("m", [-2.0, -0.3, 0.25, 0.5, 0.9, 0.999])
    def test_e_grid_against_quadrature(self, m):
        assert ellip_e(m) == pytest.approx(quad_e(m), rel=1e-12)

    def test_e_quarter_frozen(self):
        assert ellip_e(0.25) == pytest.approx(1.4674622093394272, rel=1e-14)

    def test_e_domain(self):
        with pytest.raises(DomainError):
            ellip_e(1.0 + 1e-12)

    def test_legendre_relation(self):
        for m in np.arange(0.1, 0.95, 0.1):
            lhs = (
                ellip_e(m) * ellip_k(1 - m)
                + ellip_e(1 - m) * ellip_k(m)
                - ellip_k(m) * ellip_k(1 - m)
            )
            assert abs(lhs - math.pi / 2) < 1e-10


class TestArrayAgm:
    # complementary parameters p = 1 - m: log-spaced down to 1e-300, where
    # K ~ 346, plus a linear grid on (0, 1]
    P = np.concatenate([np.geomspace(1e-300, 1.0, 121), np.linspace(0.0, 1.0, 41)[1:]])

    def test_against_mpmath(self):
        import mpmath as mp

        got_k, got_e = ellip_ke_m1(self.P)
        with mp.workdps(400):
            want_k = np.array([float(mp.ellipk(1 - mp.mpf(p))) for p in self.P])
            want_e = np.array([float(mp.ellipe(1 - mp.mpf(p))) for p in self.P])
        assert np.max(np.abs(got_k / want_k - 1.0)) <= 1e-15
        assert np.max(np.abs(got_e / want_e - 1.0)) <= 1e-13

    def test_endpoints_and_shape(self):
        got_k, got_e = ellip_ke_m1(np.array([[0.0], [1.0]]))
        assert got_k.shape == got_e.shape == (2, 1)
        assert got_k[0, 0] == math.inf and got_e[0, 0] == 1.0
        assert got_k[1, 0] == pytest.approx(math.pi / 2, rel=1e-16)
        assert got_e[1, 0] == pytest.approx(math.pi / 2, rel=1e-16)

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 1e-15, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ellip_ke_m1(np.array([0.5, bad]))


class TestGoldenBits:
    """K and E as float.hex.  The scalar functions and ellip_ke_m1 share one
    AGM loop; these values pin every bit of what it returns."""

    # m -> (K(m), E(m)); negative m takes the imaginary-modulus transform
    SCALAR = {
        -12.5: ("0x1.7b0bd571e6751p-1", "0x1.fd3812fcc38abp+1"),
        -1.0: ("0x1.4f9f94f9f50afp+0", "0x1.e8fc3dbc10116p+0"),
        0.0: ("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
        0.3: ("0x1.b6c17578e32c4p+0", "0x1.720350547fad5p+0"),
        0.9: ("0x1.49feec2073f57p+1", "0x1.1ad2845269402p+0"),
        0.999999: ("0x1.0968de9d703d6p+3", "0x1.0000416199972p+0"),
    }
    # p -> (K(1 - p), E(1 - p)) from ellip_ke_m1
    ARRAY = {
        0.0: ("inf", "0x1.0000000000000p+0"),
        1e-12: ("0x1.e6752f96f4eadp+3", "0x1.0000000008150p+0"),
        1e-3: ("0x1.35d51da9ca834p+2", "0x1.008e43d3a3f12p+0"),
        0.25: ("0x1.1408b469a95fbp+1", "0x1.3607c49007bbbp+0"),
        0.5: ("0x1.daa4a35759e4ap+0", "0x1.59c3cc21a46c7p+0"),
        1.0: ("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    }

    def test_scalar(self):
        got = {m: (ellip_k(m).hex(), ellip_e(m).hex()) for m in self.SCALAR}
        assert got == self.SCALAR
        assert ellip_e(1.0) == 1.0

    def test_array(self):
        k, e = ellip_ke_m1(np.array(list(self.ARRAY)))
        got = {p: (float(a).hex(), float(b).hex()) for p, a, b in zip(self.ARRAY, k, e)}
        assert got == self.ARRAY


class TestDigamma:
    def test_euler_mascheroni(self):
        # psi(1) = -euler_gamma = -0.57721566490153286061 (50-digit oracle)
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_recurrence(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)
        x = 7.31
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)

    def test_gamma_shape_value(self):
        # frozen oracle: psi(25.758) = 3.229208231000961399
        assert digamma(25.758) == pytest.approx(3.2292082310009614, abs=1e-12)

    def test_negative_arguments(self):
        # reflection check: psi(1-x) - psi(x) = pi * cot(pi x)
        for x in (0.25, 0.8, 2.3):
            lhs = digamma(1.0 - x) - digamma(x)
            assert lhs == pytest.approx(math.pi / math.tan(math.pi * x), rel=1e-11)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                digamma(x)

    def test_log_gamma(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        with pytest.raises(PoleError):
            log_gamma(-2.0)


class TestGenhyp:
    def test_z_zero(self):
        assert genhyp([1.3, 4.0], [2.2], 0.0) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=5.0),
        b=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_z_zero_any_params(self, a, b):
        assert genhyp([a], [b, b + 1.0], 0.0) == 1.0

    def test_cancelling_parameter(self):
        # 1F2(a; a, b; z) = 0F1(; b; z); oracle 0F1(;3;0.5) = 1.1774378937768537062
        got = genhyp([2.0], [2.0, 3.0], 0.5)
        assert got == pytest.approx(1.1774378937768537, rel=1e-13)

    def test_2f3_frozen(self):
        # 50-digit summation oracle: 0.98348069064544479067
        got = genhyp([1.0, 1.0], [2.0, 1.5, 2.0], -0.1)
        assert got == pytest.approx(0.9834806906454448, rel=1e-13)

    @pytest.mark.parametrize("c", [1e-2, 0.1], ids=lambda c: f"c{c}")
    @pytest.mark.parametrize("n", [1, 16, 64, 256], ids=lambda n: f"N{n}")
    @pytest.mark.parametrize("series", ["2F3", "1F2a", "1F2b"])
    def test_large_negative_argument_with_negative_denominators(self, series, n, c):
        # the three series of the production rate formula near its cutoff
        # avg_snr*y = c, where most of them cancel far beyond double
        # precision and take the exact pass; 60-digit oracle
        k = n * math.pi**2 / (16 - math.pi**2)
        theta = (16 - math.pi**2) / (4 * math.pi)
        z = -1.0 / (4 * theta * theta * c)
        a, b = {
            "2F3": ([1.0, 1.0], [2.0, (3 - k) / 2, (4 - k) / 2]),
            "1F2a": ([k / 2], [0.5, k / 2 + 1]),
            "1F2b": ([(k + 1) / 2], [1.5, (k + 3) / 2]),
        }[series]
        import mpmath as mp

        with mp.workdps(60):
            want = float(mp.hyper(a, b, mp.mpf(z)))
        assert genhyp(a, b, z) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_exact_pass_carries_32_digits(self):
        # terms reach 6.3e16 times the sum: a 28-digit pass would be off by
        # 1.6e-11, the 32-digit one is off by 4.6e-15
        import mpmath as mp

        with mp.workdps(60):
            want = float(mp.hyper([1], [0.5, 3], -400))
        assert genhyp([1.0], [0.5, 3.0], -400.0) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_cancellation_beyond_the_exact_pass(self):
        # terms reach 2.8e23 around a sum of -2.8e-3: 32 digits leave about
        # six of them, short of the 1e-12 the guard asks for
        with pytest.raises(NonConvergenceError, match="series cancellation"):
            genhyp([1.0], [0.5, 3.0], -1000.0)

    def test_partial_sums_bracket_limit(self):
        # alternating z: once terms decrease monotonically, consecutive
        # partial sums straddle the full sum
        a, b, z = [1.0], [2.0, 3.0], -2.0
        limit = genhyp(a, b, z)
        term, partial = 1.0, 1.0
        sums = [partial]
        for n in range(40):
            term *= (a[0] + n) * z / ((b[0] + n) * (b[1] + n) * (n + 1))
            partial += term
            sums.append(partial)
        for lo, hi in zip(sums[5:], sums[6:]):
            assert min(lo, hi) - 1e-15 <= limit <= max(lo, hi) + 1e-15

    def test_pole_parameters(self):
        with pytest.raises(PoleError):
            genhyp([1.0], [-2.0, 1.0], 0.5)
        with pytest.raises(PoleError):
            genhyp([1.0], [-3.0 + 5e-9, 1.0], 0.5)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError, match="overflowed"):
            genhyp([5.0, 5.0, 5.0], [0.5], 40.0)
        # geometric series 1F0(1;;z): terms z^n stay above 1e-14 past 800 terms
        with pytest.raises(NonConvergenceError, match="800 terms"):
            genhyp([1.0], [], 0.999)
