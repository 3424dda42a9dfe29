"""Cascaded fading gain: moments, gamma approximation, averaged SNR and its score cap."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from ris_select.channel import (
    GammaApprox,
    NetworkConfig,
    PathLossModel,
    ez2,
    gamma_params,
    sample_z,
    sample_z_prefixes,
    snr_score_cap,
)

PI2 = math.pi**2


def _prefixes(n_elements, rng, shape) -> dict:
    """{N: Z} of sample_z_prefixes, each Z copied out of the accumulator."""
    return {n: z.copy() for n, z in sample_z_prefixes(n_elements, rng, np.empty(shape))}


class TestSampleZ:
    def test_single_element_mean(self):
        z = sample_z(1, np.random.default_rng(11), size=200_000)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - math.pi / 4) < 3 * se

    def test_sixteen_element_mean(self):
        z = sample_z(16, np.random.default_rng(12), size=200_000)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 4 * math.pi) < 3 * se

    def test_determinism(self):
        a = sample_z(8, np.random.default_rng(5))
        b = sample_z(8, np.random.default_rng(5))
        assert a == b
        assert isinstance(a, float)

    def test_shape(self):
        z = sample_z(4, np.random.default_rng(0), size=(3, 7))
        assert z.shape == (3, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_z(0, np.random.default_rng(0))

    def test_one_term_matches_the_product_of_reference_exponentials(self):
        # a term sqrt(E1 E2) with each E = -log(1 - U) of a float32 uniform
        # U, formed in float32, against the same product of double-precision
        # ziggurat exponentials
        term = sample_z(1, np.random.default_rng(31), size=200_000)
        ref = np.random.default_rng(32).standard_exponential((2, 200_000))
        assert stats.ks_2samp(term, np.sqrt(ref[0] * ref[1])).pvalue > 0.01

    def test_smaller_counts_are_partial_sums_of_one_draw(self):
        out = np.full((5, 3), np.nan)  # overwritten, not added to
        steps = list(sample_z_prefixes([16, 4, 9, 4], np.random.default_rng(6), out))
        assert [n for n, _ in steps] == [4, 9, 16]
        assert all(z is out for _, z in steps)
        z = _prefixes([16, 4, 9], np.random.default_rng(6), (5, 3))
        for n in (4, 9, 16):
            assert np.array_equal(z[n], sample_z(n, np.random.default_rng(6), size=(5, 3)))
        assert np.array_equal(out, z[16])
        with pytest.raises(ValueError):  # refused at the call, before any step
            sample_z_prefixes([0, 3], np.random.default_rng(0), np.empty(2))

    def test_a_strided_accumulator_gets_the_same_draw(self):
        # the Monte Carlo blocks accumulate into columns of one wider array
        wide = np.zeros((4, 9))
        for _ in sample_z_prefixes([5], np.random.default_rng(2), wide[:, 3:7]):
            pass
        assert np.array_equal(wide[:, 3:7], _prefixes([5], np.random.default_rng(2), (4, 4))[5])
        assert not wide[:, :3].any() and not wide[:, 7:].any()


def _words(random_raw):
    """A stand-in Generator whose bit generator hands out random_raw(size)."""
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


def _lattice_exponentials(q):
    """The kernel's E = -log(1 - U) at U = q 2^-24, one per entry of q.

    Both exponentials of an entry read the same U (the words' 32-bit halves,
    low first, are q << 8 twice over), so the term sqrt(E E) is E itself: a
    correctly rounded square root of a correctly rounded square.
    """
    halves = np.concatenate([q, q]).astype(np.uint64) << 8
    words = halves[0::2] | halves[1::2] << 32
    return _prefixes([1], _words(lambda size: words), q.shape)[1]


class TestFloat32Kernel:
    """One 64-bit generator word per entry and element: its two halves give
    float32 uniforms U = (k >> 8) 2^-24 and E = -log(1 - U)."""

    def test_uniforms_are_numpys_float32_uniforms(self):
        z = _prefixes([3], np.random.default_rng(8), (5, 7))[3]
        ref, want = np.random.default_rng(8), np.zeros((5, 7))
        for _ in range(3):
            log_pair = np.log(1 - ref.random((2, 5, 7), dtype=np.float32))
            want += np.sqrt(log_pair[0] * log_pair[1])
        assert np.array_equal(z, want)

    def test_zero_words_give_zero_exponentials(self):
        with np.errstate(all="raise"):
            z = _prefixes([4], _words(lambda size: np.zeros(size, np.uint64)), (3,))[4]
        assert np.array_equal(z, np.zeros(3))

    def test_all_ones_words_give_the_largest_exponential(self):
        # U = 1 - 2^-24, so every E is 24 log 2 = 16.6355 and so is every term
        ones = _words(lambda size: np.full(size, 2**64 - 1, np.uint64))
        with np.errstate(all="raise"):
            z = _prefixes([4], ones, (3,))[4]
        np.testing.assert_allclose(z, 4 * 24 * math.log(2), rtol=1e-6)

    def test_big_endian_words_give_the_same_draw(self):
        bits = np.random.PCG64(9)
        big = _words(lambda size: bits.random_raw(size).astype(">u8"))
        z = _prefixes([3], big, (4, 5))[3]
        assert np.array_equal(z, _prefixes([3], np.random.default_rng(9), (4, 5))[3])

    def test_every_uniform_is_exact(self):
        # all 2^24 uniforms: the kernel scales k = word half >> 8 as int32,
        # and must give exactly U = k 2^-24, so E = -log(1 - U) is numpy's
        # float32 log at that U (squared and rooted as the kernel does)
        for start in range(0, 2**24, 2**21):
            q = np.arange(start, start + 2**21, dtype=np.uint32)
            u = (q * 2.0**-24).astype(np.float32)  # exact in float64 and float32
            log = np.log(np.float32(1) - u)
            want = np.sqrt(log * log).astype(np.float64)
            assert np.array_equal(_lattice_exponentials(q), want)

    def test_exact_moments_over_the_whole_lattice(self):
        # every float32 uniform once: E[E] = 1 - 5.5e-7 and E[sqrt E] =
        # (sqrt(pi)/2)(1 - 1.4e-7), so for N = 1 E[ab] = E[sqrt E]^2 and
        # E[(ab)^2] = E[E]^2 are off by -2.9e-7 and -1.1e-6 relative
        sum_e = sum_root = 0.0
        for start in range(0, 2**24, 2**21):
            e = _lattice_exponentials(np.arange(start, start + 2**21, dtype=np.uint32))
            sum_e += e.sum()
            sum_root += np.sqrt(e.astype(np.float32)).sum(dtype=np.float64)
        mean_e, mean_root = sum_e / 2**24, sum_root / 2**24
        assert abs(mean_root**2 - math.pi / 4) < 5e-7
        assert abs(mean_e**2 - 1.0) < 2e-6


class TestMoments:
    def test_ez2_exact_values(self):
        assert ez2(1) == 1.0
        assert ez2(16) == pytest.approx(16 + 15 * PI2, rel=1e-15)   # 164.0440660
        assert ez2(32) == pytest.approx(32 + 62 * PI2, rel=1e-15)   # 643.9154729

    @pytest.mark.parametrize("n", [16, 32])
    def test_ez2_against_monte_carlo(self, n):
        z = sample_z(n, np.random.default_rng(n), size=200_000)
        z2 = z * z
        se = z2.std(ddof=1) / math.sqrt(z2.size)
        assert abs(z2.mean() - ez2(n)) < 3 * se

    def test_gamma_params_formulas(self):
        for n in (1, 8, 16, 32):
            ga = gamma_params(n)
            assert ga.k * ga.theta == pytest.approx(n * math.pi / 4, rel=1e-13)
            assert ga.k * ga.theta**2 == pytest.approx(n * (16 - PI2) / 16, rel=1e-13)
        assert gamma_params(1).k == pytest.approx(PI2 / (16 - PI2), rel=1e-13)  # ~1.6106
        assert gamma_params(16).k == pytest.approx(25.759132158696361, rel=1e-13)

    def test_theta_independent_of_n(self):
        thetas = {gamma_params(n).theta for n in (1, 4, 16, 64)}
        assert len(thetas) == 1

    def test_moment_match_against_samples(self):
        n = 16
        ga = gamma_params(n)
        z = sample_z(n, np.random.default_rng(77), size=200_000)
        se_mean = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - ga.k * ga.theta) < 3 * se_mean
        var = z.var(ddof=1)
        se_var = math.sqrt(2.0 / (z.size - 1)) * var  # near-normal sample
        assert abs(var - ga.k * ga.theta**2) < 3 * se_var

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_gamma_approximation_two_sample_ks(self, n):
        rng = np.random.default_rng(1000 + n)
        ga = gamma_params(n)
        z = sample_z(n, rng, size=50_000)
        g = rng.gamma(ga.k, ga.theta, size=50_000)
        assert stats.ks_2samp(z, g).statistic <= 0.02

    def test_gamma_approx_validation(self):
        with pytest.raises(ValueError):
            GammaApprox(k=0.0, theta=1.0)


class TestMeanSnr:
    """The fading-averaged SNR avg_snr * E[Z^2] / G meets the target exactly
    at the score snr_score_cap, with G = score^eta or exp(alpha * score)."""

    def cfg(self, **kw):
        base = dict(d=1.2, intensity=0.5, n_elements=16, model=PathLossModel.POWER_LAW)
        base.update(kw)
        return NetworkConfig(**base)

    def test_identity(self):
        for avg_snr, target in ((2.5, 0.3), (2.5, 17.0), (1e-3, 4.0)):
            cfg = self.cfg(avg_snr=avg_snr, target_snr=target)
            assert snr_score_cap(cfg) ** 4 == pytest.approx(avg_snr * ez2(16) / target, rel=1e-15)

    def test_unit_cases(self):
        assert snr_score_cap(self.cfg(n_elements=1, avg_snr=1.0, target_snr=1.0)) == 1.0
        cfg = self.cfg(n_elements=16, avg_snr=1.0, target_snr=1.0)
        assert snr_score_cap(cfg) == pytest.approx(164.04406601634038 ** 0.25, rel=1e-12)
        assert snr_score_cap(self.cfg(target_snr=0.0)) == math.inf

    def test_vanishes_for_huge_pathloss(self):
        # no score is small enough: 0 under the power law, -inf once the
        # exponential-law ratio underflows
        assert snr_score_cap(self.cfg(avg_snr=1e-300, target_snr=1e300)) == 0.0
        cfg_e = self.cfg(model=PathLossModel.EXP_LAW, avg_snr=1e-300, target_snr=1e300)
        assert snr_score_cap(cfg_e) == -math.inf

    def test_pathloss_product(self):
        cfg_e = self.cfg(model=PathLossModel.EXP_LAW, alpha=1.037, avg_snr=3.0, target_snr=2.0)
        assert math.exp(1.037 * snr_score_cap(cfg_e)) == pytest.approx(3.0 * ez2(16) / 2.0, rel=1e-13)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.cfg(d=-1.0)
        with pytest.raises(ValueError):
            self.cfg(eta=1.5)  # power law needs eta > 2
        with pytest.raises(ValueError):
            self.cfg(model=PathLossModel.EXP_LAW, alpha=0.0)
        with pytest.raises(ValueError):
            self.cfg(n_elements=0)
        with pytest.raises(ValueError):
            self.cfg(avg_snr=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("d", math.nan), ("d", math.inf), ("intensity", math.nan), ("intensity", math.inf),
         ("avg_snr", math.nan), ("avg_snr", math.inf), ("target_snr", math.nan),
         ("eta", math.nan), ("eta", math.inf), ("alpha", math.nan), ("alpha", math.inf)],
    )
    def test_non_finite_values_rejected(self, field, value):
        model = PathLossModel.EXP_LAW if field == "alpha" else PathLossModel.POWER_LAW
        with pytest.raises(ValueError, match=field):
            self.cfg(model=model, **{field: value})

    def test_infinite_target_is_a_target_no_node_meets(self):
        assert snr_score_cap(self.cfg(target_snr=math.inf)) == 0.0
