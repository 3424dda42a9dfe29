"""Geometry: PPP sampling (montecarlo._sample_slices), the two score
functionals, region areas, windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ris_select import montecarlo
from ris_select.errors import DomainError, UnsupportedRegionError
from ris_select.geometry import (
    ScoreKind,
    critical_score,
    enclosing_radius,
    min_max_region_area,
    min_min_region_area,
    min_product_region_area,
    min_sum_region_area,
    score,
)

D = 1.2
PRODUCT, SUM = ScoreKind.MIN_PRODUCT, ScoreKind.MIN_SUM

coord = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def sample_batch(lam, d, radius, n, rng):
    """(counts, ds, dd) of n trials: every slice montecarlo._sample_slices yields, joined."""
    _, _, counts, ds, dd = zip(*montecarlo._sample_slices(lam, d, radius, n, rng))
    return np.concatenate(counts), np.concatenate(ds), np.concatenate(dd)


def scores(kind, points, d=D):
    """score() of each (x, y) row of points, from np.hypot distances to (-d, 0) and (d, 0)."""
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return score(kind, np.hypot(x + d, y), np.hypot(x - d, y))


def product_area_oracle(gamma, d):
    """Polar quadrature of the sublevel-set area, independent of elliptic forms.

    For each angle the radii with score <= gamma satisfy
    (r^2)^2 - 2 d^2 cos(2t) r^2 + d^4 - gamma^2 <= 0.
    """

    def radial_extent(t):
        disc = gamma * gamma - d**4 * math.sin(2 * t) ** 2
        if disc < 0.0:
            return 0.0
        root = math.sqrt(disc)
        u_hi = d * d * math.cos(2 * t) + root
        u_lo = d * d * math.cos(2 * t) - root
        return 0.5 * (max(u_hi, 0.0) - max(u_lo, 0.0))

    val, _ = integrate.quad(radial_extent, -math.pi, math.pi, limit=400,
                            epsabs=1e-11, epsrel=1e-11)
    return val


def disc_pair_area_oracle(c, d, union):
    """Polar quadrature of the area of the union (or of the lens) of the two
    radius-c discs about the anchors, independent of the closed forms.

    On the ray at angle t the disc about (+-d, 0) covers the radii r >= 0
    between the roots +-d cos(t) -+ sqrt(c^2 - d^2 sin(t)^2), and a covered
    span [a, b] adds (b^2 - a^2) / 2.  Both regions are symmetric about both
    axes, so the quadrant t in [0, pi/2] holds a quarter of the area.
    """

    def covered(t):
        disc = c * c - (d * math.sin(t)) ** 2
        if disc <= 0.0:
            return 0.0
        q, u = math.sqrt(disc), d * math.cos(t)
        (a1, b1), (a2, b2) = spans = [(max(x - q, 0.0), max(x + q, 0.0)) for x in (u, -u)]
        lo, hi = max(a1, a2), min(b1, b2)
        if not union:
            spans = [(lo, max(lo, hi))]
        elif lo <= hi:  # the spans overlap
            spans = [(min(a1, a2), max(b1, b2))]
        return sum(0.5 * (b * b - a * a) for a, b in spans)

    # below c = d the discs are apart, and a ray meets them up to |sin t| = c / d
    kinks = [math.asin(c / d)] if c < d else None
    val, _ = integrate.quad(covered, 0.0, 0.5 * math.pi, points=kinks, limit=400,
                            epsabs=1e-13, epsrel=1e-12)
    return 4.0 * val


class TestSamplePpp:
    def test_mean_count(self):
        rng = np.random.default_rng(101)
        counts = np.concatenate([sample_batch(0.5, 1.2, 20.0, 1000, rng)[0] for _ in range(10)])
        expected = 0.5 * math.pi * 400.0  # 200 pi ~ 628.3
        se = math.sqrt(expected / 10_000)
        assert abs(counts.mean() - expected) < 3 * se

    def test_mostly_empty_when_tiny(self):
        radius = math.sqrt(0.01 / (0.5 * math.pi))  # intensity*pi*r^2 = 0.01
        counts, ds, dd = sample_batch(0.5, 1.2, radius, 10_000, np.random.default_rng(7))
        assert np.mean(counts == 0) >= 0.989 - 3 * math.sqrt(0.011 * 0.989 / 10_000)
        assert ds.size == dd.size == counts.sum()

    def test_determinism(self):
        a = sample_batch(1.0, 1.2, 5.0, 20, np.random.default_rng(42))
        b = sample_batch(1.0, 1.2, 5.0, 20, np.random.default_rng(42))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_points_inside_window(self):
        d = 1.2
        _, ds, dd = sample_batch(2.0, d, 3.0, 50, np.random.default_rng(3))
        radius2 = 0.5 * (ds * ds + dd * dd) - d * d  # parallelogram law
        assert ds.size > 0 and np.all(radius2 <= 9.0 * (1.0 + 1e-12))

    def test_distances_within_2_ulp_of_hypot(self):
        # the sampler's draws replayed in one shot, not in its blocks: the
        # Poisson counts, then consecutive (u, v) pairs mapped to [-1, 1]^2,
        # keeping those in the unit disc in order, measured with np.hypot
        d, radius, n = 1.2, 5.0, 2000
        counts, ds, dd = sample_batch(1.0, d, radius, n, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        assert np.array_equal(counts, rng.poisson(1.0 * math.pi * radius * radius, n))
        u, v = 2.0 * rng.random((2 * ds.size, 2)).T - 1.0
        inside = u * u + v * v <= 1.0
        assert inside.sum() >= ds.size
        x, y = radius * u[inside][: ds.size], radius * v[inside][: ds.size]
        for got, want in ((ds, np.hypot(x + d, y)), (dd, np.hypot(x - d, y))):
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_points_do_not_depend_on_block_size(self, monkeypatch):
        want = sample_batch(1.0, 1.2, 5.0, 300, np.random.default_rng(4))
        monkeypatch.setattr(montecarlo, "_SAMPLE_BLOCK", 97)  # many short blocks
        got = sample_batch(1.0, 1.2, 5.0, 300, np.random.default_rng(4))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_uniform_on_the_disc(self):
        # 1.3e6 points: r^2 / R^2 is U(0, 1) and the polar angle, folded to
        # [0, pi] (the distances keep y^2 only), is uniform, each by a
        # Kolmogorov-Smirnov test at alpha = 1e-6, which a correct sampler
        # fails on one seed in a million
        d, radius = 1.2, 5.0
        _, ds, dd = sample_batch(1.0, d, radius, 1 << 14, np.random.default_rng(2))
        assert ds.size >= 1_000_000
        s2, d2 = ds * ds, dd * dd
        r2 = 0.5 * (s2 + d2) - d * d  # parallelogram law
        x = (s2 - d2) / (4.0 * d)
        angle = np.arctan2(np.sqrt(np.maximum(r2 - x * x, 0.0)), x)
        for sample in (r2 / (radius * radius), angle / math.pi):
            assert stats.kstest(sample, "uniform").pvalue > 1e-6

    def test_validation(self):
        # refused before drawing: the stream is left untouched
        rng = np.random.default_rng(0)
        for lam in (math.nan, math.inf, 1e9):
            with pytest.raises(UnsupportedRegionError):
                sample_batch(lam, 1.2, 50.0, 8192, rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestScoreFunctionals:
    def test_product_hand_values(self):
        # law of cosines: both hop distances from (0, 1) are sqrt(1.44 + 1)
        assert scores(PRODUCT, [[0.0, 0.0], [1.2, 0.0], [0.0, 1.0]]) == pytest.approx([1.44, 0.0, 2.44])

    def test_sum_hand_values(self):
        # 2 * sqrt(1.44 + 2.56) = 4
        assert scores(SUM, [[0.0, 0.0], [0.5, 0.0], [0.0, 1.6]]) == pytest.approx([2.4, 2.4, 4.0])

    @settings(max_examples=60, deadline=None)
    @given(x=coord, y=coord)
    def test_sum_lower_bound(self, x, y):
        assert scores(SUM, [x, y])[0] >= 2 * D - 1e-12

    def test_sum_equality_on_segment_only(self):
        assert scores(SUM, [0.7, 0.0])[0] == pytest.approx(2.4, abs=1e-14)
        assert scores(SUM, [0.7, 0.01])[0] > 2.4

    @settings(max_examples=60, deadline=None)
    @given(x=coord, y=coord)
    def test_reflection_invariance(self, x, y):
        for kind in (PRODUCT, SUM):
            got = scores(kind, [[x, y], [x, -y], [-x, y]])
            assert got[1:] == pytest.approx([got[0]] * 2, rel=1e-12)


class TestRegionAreas:
    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.43, 1.44, 1.5, 3.0, 12.0])
    def test_product_area_against_polar_oracle(self, gamma):
        got = min_product_region_area(gamma, 1.2)
        assert got == pytest.approx(product_area_oracle(gamma, 1.2), rel=1e-8)

    def test_product_area_branch_continuity(self):
        d = 1.2
        left = min_product_region_area(d * d * (1 - 1e-9), d)
        right = min_product_region_area(d * d, d)
        assert right == pytest.approx(2 * d * d, rel=1e-12)
        assert left == pytest.approx(right, rel=1e-6)

    def test_product_area_asymptote(self):
        # far field: the region approaches the disc of squared radius gamma
        assert min_product_region_area(1e6, 1.2) == pytest.approx(math.pi * 1e6, rel=1e-4)

    def test_sum_area(self):
        d = 1.2
        assert min_sum_region_area(2 * d, d) == 0.0
        assert min_sum_region_area(1.0, d) == 0.0
        # ellipse semi-axes a = gamma/2, b = sqrt((gamma/2)^2 - d^2)
        gamma = 4.0
        a, b = gamma / 2, math.sqrt((gamma / 2) ** 2 - d * d)
        assert min_sum_region_area(gamma, d) == pytest.approx(math.pi * a * b, rel=1e-12)

    @pytest.mark.parametrize("c", [0.3, 0.6, 1.2, 1.2 * (1 + 1e-4), 1.5, 3.0, 1.2e3])
    def test_lens_and_union_areas_against_polar_oracle(self, c):
        # c below d, at d, just above d, and far above it
        d = 1.2
        lens, union = min_max_region_area(c, d), min_min_region_area(c, d)
        assert lens == pytest.approx(disc_pair_area_oracle(c, d, union=False), rel=1e-9, abs=1e-15)
        assert union == pytest.approx(disc_pair_area_oracle(c, d, union=True), rel=1e-9)
        if c <= d:  # the discs meet in one point at most
            assert lens == 0.0
            assert union == 2.0 * math.pi * c * c

    @pytest.mark.parametrize("gap", [1e-4, 1e-8])
    def test_lens_just_above_d_against_mpmath(self, gap):
        # 2 c^2 acos(d/c) - 2 d sqrt(c^2 - d^2) cancels here: 3.2e-10 off at
        # gap 1e-4 and 0.28 at 1e-8
        import mpmath as mp

        c = D * (1.0 + gap)
        with mp.workdps(60):
            cm, dm = mp.mpf(c), mp.mpf(D)
            want = 2 * cm * cm * mp.acos(dm / cm) - 2 * dm * mp.sqrt(cm * cm - dm * dm)
        assert min_max_region_area(c, D) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_lens_and_union_areas_at_the_edges(self):
        for area in (min_max_region_area, min_min_region_area):
            assert area(0.0, D) == 0.0
            assert area(math.inf, D) == math.inf
            for bad in (-1.0, math.nan):
                with pytest.raises(DomainError):
                    area(bad, D)

    def test_enclosing_radius_contains_region(self):
        d = 1.2
        for kind, gamma in [(ScoreKind.MIN_PRODUCT, 2.5), (ScoreKind.MIN_SUM, 5.0)]:
            radius = enclosing_radius(kind, gamma, d)
            theta = np.linspace(0.0, 2 * math.pi, 721)
            pts = np.column_stack((np.cos(theta), np.sin(theta))) * radius * 1.0001
            assert np.all(scores(kind, pts, d) > gamma)


class TestWindowRule:
    @pytest.mark.parametrize("kind", [ScoreKind.MIN_PRODUCT, ScoreKind.MIN_SUM])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_critical_score_hits_target(self, kind, eps):
        lam, d = 0.5, 1.2
        gamma = critical_score(kind, lam, d, eps)
        area = min_product_region_area(gamma, d) if kind is ScoreKind.MIN_PRODUCT else min_sum_region_area(gamma, d)
        assert math.exp(-lam * area) == pytest.approx(eps, rel=1e-6)

    @pytest.mark.parametrize("lam, d", [(1e4, 1e-3), (10.0, 0.1)])
    @pytest.mark.parametrize("eps", [0.975, 0.5])
    def test_product_level_below_one_is_relatively_accurate(self, lam, d, eps):
        # the bisection stops at a tolerance relative to the level, so a
        # level far below 1 is as accurate as one above it
        gamma = critical_score(PRODUCT, lam, d, eps)
        assert gamma < 0.05
        cdf = -math.expm1(-lam * min_product_region_area(gamma, d))
        assert cdf == pytest.approx(1.0 - eps, rel=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_score(ScoreKind.MIN_SUM, 0.0, 1.2)
        with pytest.raises(ValueError):
            critical_score(ScoreKind.MIN_SUM, 1.0, 1.2, eps=2.0)

    @pytest.mark.parametrize("kind", [PRODUCT, SUM])
    @pytest.mark.parametrize("lam, d", [(math.nan, 1.2), (math.inf, 1.2), (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_parameters(self, kind, lam, d):
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            critical_score(kind, lam, d)
