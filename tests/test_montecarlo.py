"""Monte Carlo estimators: reproducibility, merging, and analytic agreement."""

import math
import os
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_select import analytic, montecarlo
from ris_select.analytic import DistCdf
from ris_select.channel import NetworkConfig, PathLossModel
from ris_select.errors import UnsupportedRegionError, WindowTooSmallError
from ris_select.geometry import ScoreKind
from ris_select.montecarlo import (
    EmpiricalDist,
    Estimate,
    coverage_radius,
    mc_distance_dist,
    mc_feedback_dist,
    mc_outage,
    mc_rate,
    mc_sweep,
    poisson_gof,
    policy_scores,
)
from ris_select.policies import PolicyKind, SelectionPolicy

LAM, D = 0.5, 1.2
DIST_P = DistCdf(ScoreKind.MIN_PRODUCT, LAM, D)
DIST_S = DistCdf(ScoreKind.MIN_SUM, LAM, D)


def pow_cfg(**kw):
    base = dict(d=D, intensity=LAM, n_elements=16, model=PathLossModel.POWER_LAW,
                eta=4.0, avg_snr=10.0 ** 0.5, target_snr=10.0 ** 0.5)
    base.update(kw)
    return NetworkConfig(**base)


def exp_cfg(**kw):
    base = dict(d=D, intensity=LAM, n_elements=16, model=PathLossModel.EXP_LAW,
                alpha=1.037, avg_snr=10.0 ** 0.5, target_snr=10.0 ** 0.5)
    base.update(kw)
    return NetworkConfig(**base)


class TestBasics:
    def test_estimate_moments(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        est = Estimate.from_moments(4, data.mean(), ((data - data.mean()) ** 2).sum())
        assert est.mean == pytest.approx(2.5)
        assert est.std_error == pytest.approx(data.std(ddof=1) / 2.0)

    def test_empirical_dist(self):
        emp = EmpiricalDist(np.array([3.0, 1.0, 2.0, math.inf]))
        assert emp.cdf(2.5) == 0.5
        assert emp.cdf(1e9) == 0.75
        assert emp.dkw_epsilon(0.99) == pytest.approx(math.sqrt(math.log(200.0) / 8.0))

    def test_seed_reproducibility(self):
        a = mc_outage(pow_cfg(), SelectionPolicy(PolicyKind.OPT_PRODUCT), 2000, 5)
        b = mc_outage(pow_cfg(), SelectionPolicy(PolicyKind.OPT_PRODUCT), 2000, 5)
        assert a == b

    def test_estimate_independent_of_worker_count(self):
        cfg = pow_cfg()
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT)
        one = mc_outage(cfg, pol, 20_000, 3, workers=1)
        two = mc_outage(cfg, pol, 20_000, 3, workers=2)
        assert one == two

    def test_scores_independent_of_worker_count(self):
        cfg = exp_cfg()
        pol = SelectionPolicy(PolicyKind.OPT_SUM)
        s1 = policy_scores(cfg, pol, 20_000, 9, workers=1)
        s2 = policy_scores(cfg, pol, 20_000, 9, workers=2)
        assert np.array_equal(s1, s2)

    def test_independent_seeds_agree_within_combined_se(self):
        cfg = pow_cfg()
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT)
        a = mc_outage(cfg, pol, 20_000, 101)
        b = mc_outage(cfg, pol, 20_000, 202)
        combined = math.sqrt(a.std_error**2 + b.std_error**2)
        assert abs(a.mean - b.mean) <= 3 * combined

    def test_worker_cap_env_var(self, monkeypatch):
        from ris_select.montecarlo import default_workers

        monkeypatch.setenv("RIS_SELECT_THREADS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("RIS_SELECT_THREADS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("RIS_SELECT_THREADS", "garbage")
        assert default_workers() == 1
        monkeypatch.delenv("RIS_SELECT_THREADS")
        assert default_workers() == 1


    def test_pool_size_capped_by_chunks_and_cpus(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording_pool(sizes, []))
        monkeypatch.setenv("RIS_SELECT_THREADS", "10000")
        workers = montecarlo.default_workers()
        n_trials = 3 * montecarlo._CHUNK_TRIALS + 1  # three full chunks and a 1-trial tail
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        want = mc_outage(cfg, pol, n_trials, 8)
        assert mc_outage(cfg, pol, n_trials, 8, workers=workers) == want
        assert all(size <= min(3, len(os.sched_getaffinity(0))) - 1 for size in sizes)

        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        sizes.clear()
        assert mc_outage(cfg, pol, n_trials, 8, workers=workers) == want
        with montecarlo.shared_pool(workers, n_trials) as pool:
            assert mc_sweep([(cfg, pol)], n_trials, None, 8, pool=pool) == [(want, None)]
        assert sizes == [2, 2]  # the tail is no share: two children and this process

    @pytest.mark.parametrize("n_trials", [montecarlo._CHUNK_TRIALS + 1, 10_000,
                                          montecarlo._CHUNK_TRIALS + montecarlo._MIN_SHARE - 1])
    def test_no_child_for_less_than_half_a_chunk(self, monkeypatch, n_trials):
        sizes = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording_pool(sizes, []))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        want = mc_outage(cfg, pol, n_trials, 8)
        assert mc_outage(cfg, pol, n_trials, 8, workers=2) == want
        with montecarlo.shared_pool(2, n_trials) as pool:
            assert pool is None
        assert sizes == []

    def test_this_process_runs_its_share_of_the_chunks(self, monkeypatch):
        mapped = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording_pool([], mapped))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        # five chunks; a tail of fewer than _MIN_SHARE trials is no share
        for tail, shares in ((1, ((2, 2), (3, 2), (5, 3), (9, 3))),
                             (montecarlo._MIN_SHARE, ((2, 2), (3, 3), (5, 4), (9, 4)))):
            n_trials = 4 * montecarlo._CHUNK_TRIALS + tail
            want = mc_outage(cfg, pol, n_trials, 8)
            for workers, pool_chunks in shares:
                mapped.clear()
                assert mc_outage(cfg, pol, n_trials, 8, workers=workers) == want
                # this process runs the first ceil(shares / processes) chunks and
                # a small tail; the children run the rest
                assert mapped == [pool_chunks], (tail, workers)


def _recording_pool(sizes, mapped):
    """Stand-in for ProcessPoolExecutor that runs the chunks in this process,
    recording each pool's size and the number of chunks it is given."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            mapped.append(len(tasks))
            return map(fn, tasks)

    return RecordingPool


class TestMomentMerge:
    def test_merge_is_free_of_cancellation(self):
        # large, nearly equal values: the sum-of-squares form total_sq - n*mean^2
        # loses every digit here, and so does a merge over one-double means
        rng = np.random.default_rng(3)
        chunks = [1e8 + rng.uniform(0.0, 1e-3, size) for size in (8192, 8192, 5000)]
        n, shift, offset, m2 = reduce(montecarlo._merge_moments, map(montecarlo._moments, chunks))
        est = Estimate.from_moments(n, shift + offset, m2)
        values = np.concatenate(chunks)
        # x - values[0] is exact here (Sterbenz), so this reference is free of
        # the mean's rounding, which puts np.std of the raw values off by up
        # to a few 1e-9 on some seeds (5e-10 on this one)
        want = (values - values[0]).std(ddof=1) / math.sqrt(values.size)
        assert est.std_error == pytest.approx(want, rel=1e-12)
        assert est.std_error == pytest.approx(values.std(ddof=1) / math.sqrt(values.size), rel=1e-9)
        assert est.mean == pytest.approx(values.mean(), rel=1e-15)
        total = values.sum()
        old_var = max(0.0, ((values * values).sum() - total * total / values.size) / (values.size - 1))
        assert abs(math.sqrt(old_var / values.size) / want - 1.0) > 1e-3  # the formula replaced

    def test_merge_matches_one_pass_moments(self):
        rng = np.random.default_rng(4)
        values = rng.normal(3.0, 2.0, (2, 3, 1000))
        merged = montecarlo._merge_moments(
            montecarlo._moments(values[..., :300]), montecarlo._moments(values[..., 300:])
        )
        whole = montecarlo._moments(values)
        assert merged[0] == whole[0]
        np.testing.assert_allclose(merged[1] + merged[2], whole[1] + whole[2], rtol=1e-14)
        np.testing.assert_allclose(merged[3], whole[3], rtol=1e-12)


class TestSweepKernel:
    def test_cells_equal_one_cell_calls_on_the_group_window(self):
        cells = [
            (pow_cfg(avg_snr=snr, n_elements=n), SelectionPolicy(kind, feedback_threshold=t))
            for snr, n in ((1.0, 2), (10.0, 7))
            for kind, t in ((PolicyKind.OPT_PRODUCT, None), (PolicyKind.OPT_PRODUCT, 2.0),
                            (PolicyKind.MIN_MAX, None))
        ]
        radius = max(coverage_radius(cfg, pol) for cfg, pol in cells)
        n_trials = montecarlo._CHUNK_TRIALS + 1
        got = mc_sweep(cells, n_trials, 3, 23)
        for (cfg, pol), pair in zip(cells, got):
            assert [pair] == mc_sweep([(cfg, pol)], n_trials, 3, 23, window_radius_override=radius)
        assert mc_sweep(cells, n_trials, None, 23) == [(outage, None) for outage, _ in got]

    def test_one_arg_min_per_criterion(self, monkeypatch):
        # five thresholds of the optimum policy mask one pick, so a feedback
        # sweep with a baseline takes two arg-mins per chunk, not six
        calls = []
        original = montecarlo._segment_argmin

        def counting(crit, seg):
            calls.append(crit.size)
            return original(crit, seg)

        monkeypatch.setattr(montecarlo, "_segment_argmin", counting)
        cfg = exp_cfg()
        cells = [(cfg, SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=t))
                 for t in (3.0, 4.5, 6.0, 7.5, 9.0)] + [(cfg, SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = montecarlo._CHUNK_TRIALS + 1
        mc_sweep(cells, n_trials, 2, 29)
        assert len(calls) == 2 * montecarlo._n_chunks(n_trials)

    def test_one_window_solve_per_policy(self, monkeypatch):
        # the window radius depends on the policy and the shared geometry,
        # not on the SNR or N: three points of two policies solve it twice
        calls = []
        original = montecarlo.coverage_radius

        def counting(cfg, policy, *args):
            calls.append(policy)
            return original(cfg, policy, *args)

        monkeypatch.setattr(montecarlo, "coverage_radius", counting)
        cells = [(pow_cfg(avg_snr=snr), SelectionPolicy(kind))
                 for snr in (0.1, 1.0, 10.0) for kind in (PolicyKind.OPT_PRODUCT, PolicyKind.MIN_MIN)]
        mc_sweep(cells, 100, 2, 5)
        assert sorted(p.kind.value for p in calls) == ["min-min", "opt-product"]

    def test_rates_average_each_trials_draws(self):
        # draws-major z2 (draw, trial) against a per-trial reference; the
        # row adds sum in another order than a per-trial mean
        rng = np.random.default_rng(6)
        snr, z2 = rng.exponential(10.0, 500), rng.exponential(5.0, (8, 500))
        want = [np.mean(np.log2(1.0 + s * z2[:, trial])) for trial, s in enumerate(snr)]
        np.testing.assert_allclose(montecarlo._rates(snr, z2), want, rtol=1e-14)

    def test_cells_must_share_geometry(self):
        pol = SelectionPolicy(PolicyKind.MIN_MIN)
        with pytest.raises(ValueError, match="share"):
            mc_sweep([(pow_cfg(), pol), (pow_cfg(intensity=2 * LAM), pol)], 100, None, 1)
        with pytest.raises(ValueError, match="at least one"):
            mc_sweep([], 100, None, 1)

    def test_chunk_memory_is_bounded_in_elements(self):
        # the fading of a chunk is accumulated element by element, so a
        # full chunk at N = 1024, 8 draws stays far below the 2 x 0.5 GB
        # that holding every element's draws would take
        cfg, pol = pow_cfg(n_elements=1024), SelectionPolicy(PolicyKind.OPT_PRODUCT)
        radius = coverage_radius(cfg, pol)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            n, *_ = montecarlo._chunk_cells(((cfg, pol),), 8, radius, montecarlo._CHUNK_TRIALS, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == montecarlo._CHUNK_TRIALS
        assert peak < 64e6


def _lexsort_argmin(crit, counts):
    """Reference selection: stable sort by (segment, criterion), take each
    non-empty segment's first element."""
    seg = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((crit, seg))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return order[starts[counts > 0]]


_CRITERION = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, math.inf]),  # exact ties and filtered-out nodes
    st.floats(min_value=0.0, max_value=1e6),
)


class TestSelectionKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_CRITERION, max_size=6), max_size=12))
    def test_segment_argmin_matches_lexsort(self, segments):
        counts = np.array([len(seg) for seg in segments], dtype=np.int64)
        crit = np.array([c for seg in segments for c in seg], dtype=float)
        got = montecarlo._segment_argmin(crit, montecarlo._segments(counts))
        assert np.array_equal(got, _lexsort_argmin(crit, counts))

    def test_ties_empty_and_filtered_segments(self):
        inf = math.inf
        counts = np.array([3, 0, 2, 4, 0, 1])
        crit = np.array([2.0, 1.0, 1.0, inf, inf, 5.0, 3.0, 3.0, inf, inf])
        got = montecarlo._segment_argmin(crit, montecarlo._segments(counts))
        assert got.tolist() == [1, 3, 6, 9]
        assert np.array_equal(got, _lexsort_argmin(crit, counts))


class TestWindowOverride:
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("estimator", ["scores", "outage", "rate", "feedback"])
    def test_non_positive_override_rejected(self, estimator, radius):
        with pytest.raises(ValueError, match="must be > 0"):
            _estimate(estimator, radius)

    @pytest.mark.parametrize("estimator", ["scores", "outage", "rate"])
    def test_override_below_coverage_rejected(self, estimator):
        needed = coverage_radius(pow_cfg(), SelectionPolicy(PolicyKind.MIN_MAX))
        with pytest.raises(WindowTooSmallError):
            _estimate(estimator, 0.9 * needed)
        _estimate(estimator, needed)  # the coverage radius itself is accepted


def _estimate(estimator, radius):
    cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MAX)
    if estimator == "scores":
        return policy_scores(cfg, pol, 200, 1, window_radius_override=radius)
    if estimator == "outage":
        return mc_outage(cfg, pol, 200, 1, window_radius_override=radius)
    if estimator == "feedback":
        return mc_feedback_dist(cfg, 3.0, 200, 1, window_radius_override=radius)
    return mc_rate(cfg, pol, 200, 2, 1, window_radius_override=radius)


def _union_area(c, d):
    """Area of the union of two radius-c discs whose centres are 2d apart."""
    if c <= d:
        return 2.0 * math.pi * c * c
    lens = 2.0 * c * c * math.acos(2.0 * d / (2.0 * c)) - d * math.sqrt(4.0 * c * c - 4.0 * d * d)
    return 2.0 * math.pi * c * c - lens


class TestMinMinWindow:
    @pytest.mark.parametrize("lam, d, eps", [(0.5, 1.2, 1e-6), (0.01, 1.2, 1e-6), (0.5, 30.0, 1e-9),
                                             (2.0, 0.1, 0.5), (50.0, 1.2, 1e-3)])
    def test_union_of_anchor_discs_holds_the_winner_with_prob_1_minus_eps(self, lam, d, eps):
        radius = coverage_radius(pow_cfg(intensity=lam, d=d), SelectionPolicy(PolicyKind.MIN_MIN), eps)
        need = math.log(1.0 / eps)
        assert lam * _union_area(radius - d, d) == pytest.approx(need, rel=1e-12)
        assert radius <= d + math.sqrt(need / (lam * math.pi))  # the one-disc bound it replaces

    def test_no_winner_beyond_the_window(self):
        # 1e5 trials in a window 1.5 times as wide: the min-min winner never
        # lies beyond the eps = 1e-6 window, and its distance to the nearer
        # anchor exceeds the eps = 0.05 level in a binomial(1e5, 0.05) count
        policy = SelectionPolicy(PolicyKind.MIN_MIN)
        radius = coverage_radius(pow_cfg(), policy)
        level = coverage_radius(pow_cfg(), policy, 0.05) - D
        rng = np.random.default_rng(17)
        farthest, beyond_level, n = 0.0, 0, 100_000
        for _ in range(10):
            counts, ds, dd = montecarlo._sample_batch(LAM, D, 1.5 * radius, n // 10, rng)
            seg = montecarlo._segments(counts)
            assert seg.nonempty.all()
            best = montecarlo._segment_argmin(np.minimum(ds, dd), seg)
            r2 = 0.5 * (ds[best] ** 2 + dd[best] ** 2) - D * D  # parallelogram law
            farthest = max(farthest, float(r2.max()))
            beyond_level += int(np.sum(np.minimum(ds, dd)[best] > level))
        assert farthest <= radius * radius
        assert abs(beyond_level - 0.05 * n) <= 4 * math.sqrt(n * 0.05 * 0.95)


class TestDistanceDist:
    def test_sum_scores_bounded_below(self):
        emp = mc_distance_dist(exp_cfg(), 2000, 1)
        assert np.all(emp.values >= 2 * D - 1e-12)

    def test_product_within_dkw_band(self):
        emp = mc_distance_dist(pow_cfg(), 20_000, 2)
        eps = emp.dkw_epsilon(0.99)
        for g in np.linspace(0.2, 6.0, 20):
            assert abs(emp.cdf(float(g)) - analytic.cdf_upsilon_opt(float(g), DIST_P)) <= eps

    def test_sum_within_dkw_band(self):
        emp = mc_distance_dist(exp_cfg(), 20_000, 4)
        eps = emp.dkw_epsilon(0.99)
        for g in np.linspace(2.5, 7.0, 20):
            assert abs(emp.cdf(float(g)) - analytic.cdf_lambda_opt(float(g), DIST_S)) <= eps

    def test_uniform_sum_scores_match_ellipse_area_fraction(self):
        # single-node sanity for the sum functional: uniform points on a disc
        # land inside {ds + dd <= g} with probability area(g)/disc area
        tau = 5.0
        _, ds, dd = montecarlo._sample_batch(2.0, D, tau, 1, np.random.default_rng(8))
        score = ds + dd
        n = score.size
        eps = math.sqrt(math.log(2 / 0.01) / (2 * n))
        from ris_select.geometry import min_sum_region_area

        for g in (3.0, 4.0, 6.0, 9.0):
            frac = float(np.mean(score <= g))
            want = min_sum_region_area(g, D) / (math.pi * tau * tau)
            assert abs(frac - want) <= eps


class TestOutage:
    def test_zero_target_never_outages(self):
        est = mc_outage(pow_cfg(target_snr=0.0), SelectionPolicy(PolicyKind.OPT_PRODUCT), 2000, 6)
        assert est.mean == 0.0

    @pytest.mark.parametrize("model", ["pow", "exp"])
    def test_matches_analytic(self, model):
        if model == "pow":
            cfg = pow_cfg(avg_snr=10.0 ** 0.5)
            want = analytic.outage_pow(cfg)
            pol = SelectionPolicy(PolicyKind.OPT_PRODUCT)
        else:
            cfg = exp_cfg(avg_snr=10.0)
            want = analytic.outage_exp(cfg)
            pol = SelectionPolicy(PolicyKind.OPT_SUM)
        est = mc_outage(cfg, pol, 40_000, 12)
        se = max(math.sqrt(want * (1 - want) / est.n_trials), 1e-9)
        assert abs(est.mean - want) <= 3 * se

    def test_shared_realization_dominance(self):
        cfg = pow_cfg()
        kinds = [PolicyKind.OPT_PRODUCT, PolicyKind.MIN_MIN, PolicyKind.MIN_MAX, PolicyKind.MID_POINT]
        radius = max(coverage_radius(cfg, SelectionPolicy(k)) for k in kinds)
        scores = {
            k: policy_scores(cfg, SelectionPolicy(k), 5000, 77, window_radius_override=radius)
            for k in kinds
        }
        for k in kinds[1:]:
            assert np.all(scores[PolicyKind.OPT_PRODUCT] <= scores[k] + 1e-12)

    def test_feedback_policy_model_pairing(self):
        with pytest.raises(ValueError, match="applies to opt-sum under the exp model"):
            mc_outage(exp_cfg(), SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=2.0), 1000, 0)

    def test_limited_feedback_plateau(self):
        cfg = pow_cfg(avg_snr=1e3)
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=3.0)
        est = mc_outage(cfg, pol, 40_000, 21)
        want = math.exp(-analytic.xi_pow(3.0, DIST_P))
        se = math.sqrt(want * (1 - want) / est.n_trials)
        assert abs(est.mean - want) <= 3 * se


class TestRate:
    def test_vanishing_snr(self):
        est = mc_rate(pow_cfg(avg_snr=1e-300), SelectionPolicy(PolicyKind.OPT_PRODUCT), 1000, 2, 3)
        assert est.mean < 1e-250

    def test_matches_analytic_within_budget(self):
        cfg = pow_cfg(avg_snr=10.0 ** 0.5)
        want = analytic.rate_pow(cfg)
        est = mc_rate(cfg, SelectionPolicy(PolicyKind.OPT_PRODUCT), 20_000, 16, 31)
        assert abs(est.mean - want) <= max(3 * est.std_error, 0.01 * want)

    def test_pathwise_rate_dominance_exp(self):
        cfg = exp_cfg()
        radius = max(
            coverage_radius(cfg, SelectionPolicy(PolicyKind.OPT_SUM)),
            coverage_radius(cfg, SelectionPolicy(PolicyKind.MID_POINT)),
        )
        opt = mc_rate(cfg, SelectionPolicy(PolicyKind.OPT_SUM), 5000, 4, 13,
                      window_radius_override=radius)
        mid = mc_rate(cfg, SelectionPolicy(PolicyKind.MID_POINT), 5000, 4, 13,
                      window_radius_override=radius)
        assert opt.mean >= mid.mean  # exact under common random numbers

    def test_small_threshold_rate_matches_analytic_convention(self):
        # threshold below d^2: only the petal region transmits; the analytic
        # integral and the simulator must share the no-transmission rule
        cfg = pow_cfg(avg_snr=10.0 ** 0.5)
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=0.7)
        want = analytic.rate_pow(cfg, t_threshold=0.7)
        est = mc_rate(cfg, pol, 30_000, 16, 41)
        assert abs(est.mean - want) <= max(3 * est.std_error, 0.01 * want)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_rate(pow_cfg(), SelectionPolicy(PolicyKind.OPT_PRODUCT), 1000, 0, 1)

    def test_oversized_window_refused_before_sampling(self):
        # the coverage radius is ~328 here: 7.2e8 expected points per trial
        cfg = pow_cfg(intensity=2130.0, d=328.0)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRegionError, match="budget"):
                mc_rate(cfg, SelectionPolicy(PolicyKind.OPT_PRODUCT), 10_000, 8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("threshold", [None, 3.0])
    def test_one_pass_equals_separate_estimators(self, threshold):
        cfg = pow_cfg()
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=threshold)
        n_trials = montecarlo._CHUNK_TRIALS + 5
        [(outage, rate)] = mc_sweep([(cfg, pol)], n_trials, 3, 17)
        assert outage == mc_outage(cfg, pol, n_trials, 17)
        assert rate == mc_rate(cfg, pol, n_trials, 3, 17)
        assert mc_sweep([(cfg, pol)], n_trials, None, 17) == [(outage, None)]


class TestFeedbackDist:
    def test_counts_zero_below_2d(self):
        emp = mc_feedback_dist(exp_cfg(), 2.0, 2000, 14)
        assert np.all(emp.values == 0)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmallError):
            mc_feedback_dist(exp_cfg(), 20.0, 100, 0, window_radius_override=5.0)

    def test_mean_and_variance_match_poisson(self):
        cfg = exp_cfg()
        emp = mc_feedback_dist(cfg, 20.0, 3000, 15)
        xi = analytic.xi_exp(20.0, DIST_S)
        se_mean = math.sqrt(xi / emp.n)
        assert abs(emp.mean() - xi) <= 3 * se_mean
        var = float(emp.values.var(ddof=1))
        se_var = math.sqrt(2.0 / (emp.n - 1)) * xi  # normal-approx variance of s^2
        assert abs(var - xi) <= 3 * se_var

    def test_gof_accepts_true_poisson(self):
        rng = np.random.default_rng(1)
        emp = EmpiricalDist(rng.poisson(31.4, 4000).astype(float))
        _, _, p = poisson_gof(emp, 31.4)
        assert p > 0.01

    def test_gof_rejects_shifted(self):
        rng = np.random.default_rng(2)
        emp = EmpiricalDist(rng.poisson(40.0, 4000).astype(float))
        _, _, p = poisson_gof(emp, 31.4)
        assert p < 1e-6

    def test_gof_refuses_too_few_bins(self):
        # mean 0.002 over 1000 samples: only the zero bin reaches the expected count
        emp = EmpiricalDist(np.random.default_rng(3).poisson(0.002, 1000).astype(float))
        with pytest.raises(ValueError, match="too few bins"):
            poisson_gof(emp, 0.002)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold must be > 0"):
            mc_feedback_dist(exp_cfg(), threshold, 100, 0)

    def test_infinite_threshold_refused_by_point_budget(self):
        with pytest.raises(UnsupportedRegionError, match="budget"):
            mc_feedback_dist(exp_cfg(), math.inf, 100, 0)
