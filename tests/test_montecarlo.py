"""Monte Carlo estimators: reproducibility, merging, and analytic agreement."""

import math
import os
import sys
import threading
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_select import analytic, montecarlo
from ris_select.analytic import DistCdf
from ris_select.channel import NetworkConfig, PathLossModel, ez2, sample_z_prefixes, snr_score_cap
from ris_select.errors import UnsupportedRegionError
from ris_select.geometry import ScoreKind, min_min_region_area
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
from ris_select.policies import OPTIMUM, PolicyKind, SelectionPolicy

from share_rounds import record_rounds

LAM, D = 0.5, 1.2
DIST_P = DistCdf(ScoreKind.MIN_PRODUCT, LAM, D)
DIST_S = DistCdf(ScoreKind.MIN_SUM, LAM, D)


def sample_batch(lam, d, radius, n, rng):
    """(counts, ds, dd) of n trials: the nodes montecarlo._nearest_first
    visits within the given distance of the anchors' midpoint, in trial order."""
    seen = []

    def visit(trials, live, s, ds, dd):
        inside = s <= radius * radius
        seen.append((trials[inside], ds[inside], dd[inside]))
        return radius * radius

    montecarlo._nearest_first(lam, d, rng, visit, radius * radius, np.empty((0, n)))
    trials, ds, dd = map(np.concatenate, zip(*seen))
    order = np.argsort(trials, kind="stable")
    return np.bincount(trials, minlength=n), ds[order], dd[order]


def replayed_arrivals(lam, d, n, rng, rounds, block=10_007):
    """(s, ds, dd) of the first `rounds` arrivals of each of n trials, round
    by round, with no trial stopping: round k adds the k-th n unit
    exponentials of the stream jumped ahead to lam pi s, and takes its
    directions from the k-th n pairs of the stream, mapped to [-1, 1]^2,
    that fall in the unit disc, drawn `block` pairs at a time."""
    gaps = np.random.Generator(rng.bit_generator.jumped()).standard_exponential((rounds, n))
    u = v = np.empty(0)
    total = np.zeros(n)
    for gap in gaps:
        while u.size < n:
            pairs = 2.0 * rng.random((block, 2)) - 1.0
            inside = pairs[:, 0] ** 2 + pairs[:, 1] ** 2 <= 1.0
            u, v = np.concatenate((u, pairs[inside, 0])), np.concatenate((v, pairs[inside, 1]))
        a, b, u, v = u[:n], v[:n], u[n:], v[n:]
        total += gap
        s = total * (1.0 / (lam * math.pi))
        scale = np.sqrt(s / (a * a + b * b))
        x, y2 = a * scale, np.square(b * scale)
        yield s, np.sqrt(np.square(x + d) + y2), np.sqrt(np.square(x - d) + y2)


def fading_powers(sizes, m, n, rng, threads) -> dict:
    """{N: Z^2} of every step of montecarlo._fading_power, each copied out."""
    return {size: z2.copy() for size, z2 in montecarlo._fading_power(sizes, m, n, rng, threads)}


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


def _snr_cells(points, **kw):
    """An avg-SNR sweep over -10..30 dB, point-major, of the four power-law policies."""
    kinds = (PolicyKind.OPT_PRODUCT, PolicyKind.MIN_MIN, PolicyKind.MIN_MAX, PolicyKind.MID_POINT)
    return [(pow_cfg(avg_snr=10.0 ** (db / 10.0), **kw), SelectionPolicy(kind))
            for db in np.linspace(-10.0, 30.0, points) for kind in kinds]


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

    def test_scores_independent_of_worker_count(self, monkeypatch):
        # chunks that draw no fading only sample the geometry, and they run in
        # turn on this thread at any worker count
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg = exp_cfg()
        pols = [SelectionPolicy(PolicyKind.OPT_SUM), SelectionPolicy(PolicyKind.MIN_MIN),
                SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=4.0)]
        for n_trials in (20_000, 2 * montecarlo._CHUNK_TRIALS + 1):
            s1 = policy_scores(cfg, pols, n_trials, 9, workers=1)
            s2 = policy_scores(cfg, pols, n_trials, 9, workers=2)
            assert len(s1) == len(s2) == len(pols)
            assert all(np.array_equal(a, b) for a, b in zip(s1, s2))
            assert mc_outage(cfg, pols[1], n_trials, 9, workers=4) == mc_outage(cfg, pols[1], n_trials, 9)
            assert np.array_equal(mc_feedback_dist(cfg, 4.0, n_trials, 9, workers=4).values,
                                  mc_feedback_dist(cfg, 4.0, n_trials, 9).values)
        assert set(rounds) == {("chunks", 0, 0)}

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
        # the team of chunk threads, this one included
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setenv("RIS_SELECT_THREADS", "10000")
        workers = montecarlo.default_workers()
        n_trials = 3 * montecarlo._CHUNK_TRIALS + 1  # three full chunks and a 1-trial tail
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        want = mc_rate(cfg, pol, n_trials, 1, 8)
        rounds.clear()
        assert mc_rate(cfg, pol, n_trials, 1, 8, workers=workers) == want
        assert all(threads <= min(3, len(os.sched_getaffinity(0))) - 1 for _, threads, _ in rounds)

        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        rounds.clear()
        assert mc_rate(cfg, pol, n_trials, 1, 8, workers=workers) == want
        assert mc_sweep([(cfg, pol)], n_trials, 1, 8, workers=workers)[0][1] == want
        # the tail is no share: two other threads and this one
        assert [r for r in rounds if r[0] == "chunks"] == [("chunks", 2, 2), ("chunks", 2, 2)]

    @pytest.mark.parametrize("n_trials", [montecarlo._CHUNK_TRIALS + 1, 10_000,
                                          montecarlo._CHUNK_TRIALS + montecarlo._MIN_SHARE - 1])
    def test_no_child_for_less_than_half_a_chunk(self, monkeypatch, n_trials):
        # no thread is started for a last chunk of fewer than _MIN_SHARE trials
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        want = mc_rate(cfg, pol, n_trials, 1, 8)
        rounds.clear()
        assert mc_rate(cfg, pol, n_trials, 1, 8, workers=2) == want
        assert [r for r in rounds if r[0] == "chunks"] == [("chunks", 0, 0)]

    def test_this_process_runs_its_share_of_the_chunks(self, monkeypatch):
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg, pol = pow_cfg(), SelectionPolicy(PolicyKind.MIN_MIN)
        # five chunks; a tail of fewer than _MIN_SHARE trials is no share
        for tail, shares in ((1, ((2, 2), (3, 2), (5, 3), (9, 3))),
                             (montecarlo._MIN_SHARE, ((2, 2), (3, 3), (5, 4), (9, 4)))):
            n_trials = 4 * montecarlo._CHUNK_TRIALS + tail
            want = mc_rate(cfg, pol, n_trials, 1, 8)
            for workers, moved in shares:
                rounds.clear()
                assert mc_rate(cfg, pol, n_trials, 1, 8, workers=workers) == want
                # this thread runs the first ceil(shares / team) chunks and a
                # small tail; the other threads run the rest
                assert [r[2] for r in rounds if r[0] == "chunks"] == [moved], (tail, workers)

    def test_more_chunk_threads_than_cores_change_no_value(self, monkeypatch):
        # four chunks on four threads, with thread switches forced often:
        # each chunk writes only arrays of its own
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cells = [(exp_cfg(n_elements=4), SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=4.0)),
                 (exp_cfg(n_elements=9), SelectionPolicy(PolicyKind.MIN_MAX))]
        n_trials = 4 * montecarlo._CHUNK_TRIALS + 1
        want = mc_sweep(cells, n_trials, 2, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mc_sweep(cells, n_trials, 2, 8, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert rounds[-1] == ("chunks", 3, 3)

    @pytest.mark.parametrize("shares, mapped, mine", [(4, [2, 3], [0, 1, 4]), (5, [2, 3, 4], [0, 1])])
    def test_caller_runs_its_head_and_what_is_no_share_before_it_waits(self, shares, mapped, mine):
        # the other threads' tasks wait until this thread has run all of its
        # own, so it runs them before it joins the others
        caller, log, others, own_done = threading.get_ident(), [], {}, threading.Event()

        def run(task):
            if threading.get_ident() == caller:
                log.append(task)
                if len(log) == len(mine):
                    own_done.set()
            else:
                assert own_done.wait(timeout=60)
                others.setdefault(threading.get_ident(), []).append(task)
            return -task

        assert montecarlo._share(run, list(range(5)), 3, shares) == [0, -1, -2, -3, -4]
        assert log == mine
        # two other threads, each running every other task of the rest in turn
        assert sorted(others.values()) == [mapped[0::2], mapped[1::2]]


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
        # each cell's result is the same in a sweep of that cell alone
        n_trials = montecarlo._CHUNK_TRIALS + 1
        got = mc_sweep(cells, n_trials, 3, 23)
        for cell, pair in zip(cells, got):
            assert pair == mc_sweep([cell], n_trials, 3, 23)[0]
        assert mc_sweep(cells, n_trials, None, 23) == [(outage, None) for outage, _ in got]

    def test_one_arg_min_per_criterion(self, monkeypatch):
        # five thresholds of the optimum policy mask one pick, the running
        # minimum of its criterion, so a feedback sweep with a baseline runs
        # the sampler once per chunk, each trial keeping one minimum per
        # criterion, not six passes
        calls = []
        nearest_first = montecarlo._nearest_first

        def counting(*args):
            calls.append(args[-1].shape)  # live: one column per trial
            return nearest_first(*args)

        monkeypatch.setattr(montecarlo, "_nearest_first", counting)
        cfg = exp_cfg()
        cells = [(cfg, SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=t))
                 for t in (3.0, 4.5, 6.0, 7.5, 9.0)] + [(cfg, SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = montecarlo._CHUNK_TRIALS + 1
        mc_sweep(cells, n_trials, 2, 29)
        criteria = len(montecarlo._KINDS)
        assert calls == [(criteria, size) for size in montecarlo._chunk_sizes(n_trials)]

    def test_estimators_solve_no_window(self, monkeypatch):
        # no estimator sizes a window or inverts a sublevel area: the
        # sampler's stopping rule needs neither, so the Monte Carlo check of
        # the analytic outage does not read the areas that outage integrates
        def refuse(*args):
            raise AssertionError("an estimator solved a window")

        monkeypatch.setattr(montecarlo, "coverage_radius", refuse)
        monkeypatch.setattr(montecarlo, "critical_score", refuse)
        for cfg, optimum in ((pow_cfg(), PolicyKind.OPT_PRODUCT), (exp_cfg(), PolicyKind.OPT_SUM)):
            cells = [(cfg, SelectionPolicy(kind)) for kind in PolicyKind]
            cells.append((cfg, SelectionPolicy(optimum, feedback_threshold=3.0)))
            assert len(mc_sweep(cells, 300, 2, 5)) == len(cells)
            assert len(policy_scores(cfg, [policy for _, policy in cells], 300, 5)) == len(cells)
            assert mc_feedback_dist(cfg, 3.0, 300, 5).n == 300
            assert mc_distance_dist(cfg, 300, 5).n == 300

    def test_rates_average_each_trials_draws(self):
        # draws-major z2 (draw, trial) against a per-trial reference; the
        # row adds sum in another order than a per-trial mean
        rng = np.random.default_rng(6)
        snr, z2 = rng.exponential(10.0, 500), rng.exponential(5.0, (8, 500))
        want = [np.mean(np.log2(1.0 + s * z2[:, trial])) for trial, s in enumerate(snr)]
        np.testing.assert_allclose(montecarlo._rates(snr, z2, np.empty((2, 500))), want, rtol=1e-14)

    @pytest.mark.parametrize("trials", [1, 2, 500, montecarlo._CHUNK_TRIALS])
    @pytest.mark.parametrize("draws", [1, 2, 8])
    def test_rates_are_numpys_mean_over_draws_bit_for_bit(self, draws, trials):
        # the recorded GOLDEN digests rest on this identity: the rows summed
        # one at a time in a (2, trials) scratch, and a single trial's
        # column summed as numpy sums it
        rng = np.random.default_rng(draws * trials)
        snr, z2 = rng.exponential(10.0, trials), rng.exponential(5.0, (draws, trials))
        want = np.log1p(z2 * snr).mean(axis=0) / math.log(2.0)
        assert np.array_equal(montecarlo._rates(snr, z2, np.empty((2, trials))), want)

    def test_cells_must_share_geometry(self):
        pol = SelectionPolicy(PolicyKind.MIN_MIN)
        with pytest.raises(ValueError, match="share"):
            mc_sweep([(pow_cfg(), pol), (pow_cfg(intensity=2 * LAM), pol)], 100, None, 1)
        with pytest.raises(ValueError, match="at least one"):
            mc_sweep([], 100, None, 1)
        with pytest.raises(ValueError, match="at least one"):
            policy_scores(pow_cfg(), [], 100, 1)

    def test_chunk_memory_is_bounded_in_elements(self):
        # the fading of a chunk is accumulated element by element, so a
        # full chunk at N = 1024, 8 draws stays far below the 2 x 0.5 GB
        # that holding every element's draws would take
        cfg, pol = pow_cfg(n_elements=1024), SelectionPolicy(PolicyKind.OPT_PRODUCT)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            n, *_ = montecarlo._chunk_cells(((cfg, pol),), 8, 1, montecarlo._CHUNK_TRIALS, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == montecarlo._CHUNK_TRIALS
        assert peak < 64e6

    def test_chunk_memory_does_not_grow_with_element_counts(self):
        # one chunk of an N sweep over 21 counts from 1 to 64 against one of
        # two counts: a (draws, trials) Z^2 array per count held 16.6 MiB
        # against 2.3 MiB; one Z array and one Z^2 scratch serve every count
        pol = SelectionPolicy(PolicyKind.OPT_PRODUCT)
        peaks = []
        for counts in ((1, 64), sorted({round(x) for x in np.linspace(1, 64, 21)})):
            cells = tuple((pow_cfg(n_elements=n), pol) for n in counts)
            rng = np.random.default_rng(5)
            tracemalloc.start()
            try:
                montecarlo._chunk_cells(cells, 8, 1, montecarlo._CHUNK_TRIALS, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(cells) == 21
        assert peaks[1] <= 1.5 * peaks[0]

    def test_each_count_is_reduced_before_more_elements_are_drawn(self, monkeypatch):
        events = []
        prefixes, rates = montecarlo.sample_z_prefixes, montecarlo._rates

        def recording_prefixes(sizes, stream, out):
            for size, z in prefixes(sizes, stream, out):
                events.append(size)
                yield size, z

        monkeypatch.setattr(montecarlo, "sample_z_prefixes", recording_prefixes)
        monkeypatch.setattr(montecarlo, "_rates", lambda *args: events.append("rate") or rates(*args))
        cells = tuple((pow_cfg(n_elements=n), SelectionPolicy(PolicyKind.OPT_PRODUCT)) for n in (16, 4, 9))
        n = montecarlo._FADING_BLOCK + 5  # two blocks
        montecarlo._chunk_cells(cells, 2, 1, n, np.random.default_rng(3))
        assert events == [4, 4, "rate", 9, 9, "rate", 16, 16, "rate"]

    def test_chunk_memory_does_not_grow_with_cells(self):
        # one chunk of a 101-point SNR sweep of four policies (404 cells)
        # against a 9-point one (36 cells): stacking every cell's rows for
        # one reduction held 130 MiB against 16 MiB
        peaks = []
        for points in (9, 101):
            cells = _snr_cells(points)
            tracemalloc.start()
            try:
                mc_sweep(cells, montecarlo._CHUNK_TRIALS, 8, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_chunk_memory_does_not_grow_with_points(self):
        # one chunk of the same 36 cells at ~6 and ~100 arrivals per trial:
        # sampling and picking a chunk as a whole held 48 MiB against 8 MiB
        peaks = []
        for intensity in (LAM, 20.0):
            cells = _snr_cells(9, intensity=intensity)
            tracemalloc.start()
            try:
                mc_sweep(cells, montecarlo._CHUNK_TRIALS, 8, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize(
        ("cells", "m_fading"),
        [
            pytest.param(_snr_cells(5)[:7], None, id="outage"),
            pytest.param(_snr_cells(5)[:7], 4, id="outage-rate"),
            pytest.param(_snr_cells(2)[:2], 4, id="whole-groups"),
            # the thresholds share one rate key, and min-min another
            pytest.param([(exp_cfg(), SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=t))
                          for t in np.linspace(2.5, 12.0, 3)]
                         + [(exp_cfg(), SelectionPolicy(PolicyKind.MIN_MIN))], 4, id="thresholds"),
            # two element counts, a repeated SNR, the optimum with and without a threshold, a baseline
            pytest.param([(pow_cfg(n_elements=n, avg_snr=snr), SelectionPolicy(kind, feedback_threshold=t))
                          for n in (4, 16) for snr in (1.0, 10.0, 1.0)
                          for kind, t in ((PolicyKind.OPT_PRODUCT, 3.0), (PolicyKind.MIN_MIN, None),
                                          (PolicyKind.OPT_PRODUCT, None))], 4, id="elements-snrs"),
        ],
    )
    def test_grouped_reduction_equals_one_stacked_reduction(self, cells, m_fading):
        cells = tuple(cells)
        n = montecarlo._FADING_BLOCK + 904
        got = montecarlo._chunk_cells(cells, m_fading, 1, n, np.random.default_rng(31))
        want = _stacked_moments(cells, m_fading, n, np.random.default_rng(31))
        assert got[0] == want[0] == n
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == (len(cells), 1 if m_fading is None else 2)
            assert np.array_equal(a, b)


def _stacked_moments(cells, m_fading, n, rng):
    """What _chunk_cells returns, from every cell's rows stacked in one
    array and reduced by one _moments call, with a rate formed per cell."""
    picks = montecarlo._picks(cells[0][0], dict.fromkeys(pol.kind for _, pol in cells), n, rng)
    if m_fading is not None:
        z2 = fading_powers({cfg.n_elements for cfg, _ in cells}, m_fading, n, rng, 1)
    values = np.empty((len(cells), 1 if m_fading is None else 2, n))
    for row, (cfg, pol) in zip(values, cells):
        chosen = montecarlo._threshold(picks[pol.kind], pol)
        row[0] = ~(chosen < snr_score_cap(cfg))
        if m_fading is not None:
            gain = montecarlo._path_gain(cfg, picks[pol.kind])
            rate = montecarlo._rates(cfg.avg_snr * gain, z2[cfg.n_elements], np.empty((2, n)))
            row[1] = np.where(np.isfinite(chosen), rate, 0.0)
    return montecarlo._moments(values)


class TestFadingBlocks:
    @pytest.mark.parametrize("n", [1, 16])
    def test_blocked_draws_have_the_exact_moments(self, n):
        # 25 draws of 8192 trials: 204,800 draws in two blocks on two threads
        z2 = fading_powers({n}, 25, montecarlo._CHUNK_TRIALS, np.random.default_rng(40 + n), 2)[n]
        z = np.sqrt(z2)
        for values, want in ((z, n * math.pi / 4), (z2, ez2(n))):
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - want) < 3 * se

    def test_each_block_reads_its_own_stream(self):
        block = montecarlo._FADING_BLOCK
        n = block + 7  # one full block and a 7-trial one
        z2 = fading_powers({4, 16}, 3, n, np.random.default_rng(3), 1)
        streams = np.random.default_rng(3).spawn(2)
        for stream, cols in zip(streams, (slice(0, block), slice(block, n))):
            for size, z in sample_z_prefixes([4, 16], stream, np.empty((3, cols.stop - cols.start))):
                assert np.array_equal(z2[size][:, cols], z * z)

    def test_prefix_property_holds_across_a_block_boundary(self):
        n = montecarlo._FADING_BLOCK + 100
        both = fading_powers({4, 16}, 3, n, np.random.default_rng(8), 2)
        for size in (4, 16):
            alone = fading_powers({size}, 3, n, np.random.default_rng(8), 2)[size]
            assert np.array_equal(both[size], alone)
        assert np.all(both[16] > both[4])

    def test_more_threads_than_cores_change_no_value(self):
        # four blocks on four threads, with thread switches forced often:
        # each thread writes its own columns of the shared arrays
        n = 4 * montecarlo._FADING_BLOCK
        want = fading_powers({2, 5}, 2, n, np.random.default_rng(12), 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = fading_powers({2, 5}, 2, n, np.random.default_rng(12), 4)
        finally:
            sys.setswitchinterval(interval)
        for size in (2, 5):
            assert np.array_equal(got[size], want[size])

    @pytest.mark.parametrize("n", [montecarlo._CHUNK_TRIALS, montecarlo._FADING_BLOCK + 1234])
    def test_chunk_moments_independent_of_fading_threads(self, n):
        cells = ((pow_cfg(n_elements=4), SelectionPolicy(PolicyKind.OPT_PRODUCT)),
                 (pow_cfg(n_elements=16), SelectionPolicy(PolicyKind.MIN_MAX)))
        one, two = (montecarlo._chunk_cells(cells, 8, threads, n, np.random.default_rng(21))
                    for threads in (1, 2))
        assert one[0] == two[0] == n
        for a, b in zip(one[1:], two[1:]):
            assert np.array_equal(a, b)

    def test_fading_threads_stop_when_a_reduction_raises(self, monkeypatch):
        # a round joins its threads before it returns, so none is left
        # running while the reductions between rounds run, or raise
        def failing(*args):
            raise RuntimeError("reduction failed")

        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(montecarlo, "_rates", failing)
        cells = ((pow_cfg(n_elements=4), SelectionPolicy(PolicyKind.OPT_PRODUCT)),
                 (pow_cfg(n_elements=9), SelectionPolicy(PolicyKind.OPT_PRODUCT)))
        before = threading.active_count()
        try:
            montecarlo._chunk_cells(cells, 2, 2, 2 * montecarlo._FADING_BLOCK, np.random.default_rng(4))
        except RuntimeError:
            # the traceback still holds the chunk's frame and its suspended
            # fading generator, which holds no thread
            assert rounds == [("blocks", 1, 1)]
            assert threading.active_count() == before
        else:
            pytest.fail("the reduction did not raise")

    def test_a_worker_error_reaches_the_caller_after_every_thread_joined(self):
        done = []

        def run(task):
            if task == 1:
                raise RuntimeError("worker failed")
            time.sleep(0.2 * (task == 2))
            done.append(task)
            return task

        before = threading.active_count()
        # this thread runs task 0; two other threads run tasks 1 (which
        # fails at once) and 2 (which takes longest)
        with pytest.raises(RuntimeError, match="worker failed"):
            montecarlo._share(run, [0, 1, 2], 3, 3)
        assert sorted(done) == [0, 2]
        assert threading.active_count() == before

    def test_the_lowest_failed_task_raises_its_error(self):
        # task 2 fails first, task 1 later: the error of task 1 leaves
        def run(task):
            time.sleep(0.2 * (task == 1))
            if task:
                raise RuntimeError(f"task {task} failed")

        with pytest.raises(RuntimeError, match="task 1 failed"):
            montecarlo._share(run, [0, 1, 2], 3, 3)

    def test_the_caller_error_leaves_after_the_worker_thread_joined(self):
        done = []

        def run(task):
            if task == 0:
                raise RuntimeError("caller failed")
            time.sleep(0.2)
            done.append(task)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller failed"):
            montecarlo._share(run, [0, 1], 2, 2)
        assert done == [1]
        assert threading.active_count() == before

    def test_fading_threads_capped_by_cpus_and_blocks(self, monkeypatch):
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setenv("RIS_SELECT_THREADS", "1000000")
        workers = montecarlo.default_workers()
        cells = [(exp_cfg(n_elements=64), SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = montecarlo._CHUNK_TRIALS + 1  # this thread runs both chunks
        want = mc_sweep(cells, n_trials, 2, 8)
        rounds.clear()
        assert mc_sweep(cells, n_trials, 2, 8, workers=workers) == want
        extra = min(len(os.sched_getaffinity(0)), 2) - 1
        assert all(threads <= extra and moved <= extra for _, threads, moved in rounds)

        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        rounds.clear()
        assert mc_sweep(cells, n_trials, 2, 8, workers=workers) == want
        # the full chunk's second block goes to one other thread; the
        # 1-trial tail is one block, drawn on this thread
        assert rounds == [("blocks", 1, 1), ("blocks", 0, 0), ("chunks", 0, 0)]

    def test_no_fading_threads_beside_chunk_threads(self, monkeypatch):
        rounds = record_rounds(monkeypatch.setattr)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cells = [(exp_cfg(n_elements=64), SelectionPolicy(PolicyKind.MIN_MIN))]
        # this thread runs every chunk, and the full one's fading on two
        mc_sweep(cells, montecarlo._CHUNK_TRIALS + 1, 2, 8, workers=2)
        assert rounds == [("blocks", 1, 1), ("blocks", 0, 0), ("chunks", 0, 0)]
        n_trials = 2 * montecarlo._CHUNK_TRIALS + 1
        want = mc_sweep(cells, n_trials, 2, 8)
        rounds.clear()
        assert mc_sweep(cells, n_trials, 2, 8, workers=2) == want
        # one other thread runs the second chunk, and no chunk starts a
        # thread for its fading blocks
        assert rounds[-1] == ("chunks", 1, 1)
        assert rounds[:-1] == [("blocks", 0, 0)] * 3


def _lexsort_argmin(crit, counts):
    """Stable sort by (segment, criterion), then each non-empty segment's
    first element: the index of its first minimum."""
    seg = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((crit, seg))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return order[starts[counts > 0]]


def _reference_picks(cfg, threshold, n, seed, rounds=400):
    """Per-trial picks of every policy kind, the optimum's pick under
    threshold and the count of nodes scoring <= threshold, each over the
    trial's first `rounds` arrivals (replayed_arrivals)."""
    score_of = {PolicyKind.OPT_PRODUCT: 0, PolicyKind.OPT_SUM: 1}[OPTIMUM[cfg.model][1]]
    best, picks = np.full((6, n), np.inf), np.full((6, n), np.inf)
    count = np.zeros(n, np.intp)
    for s, ds, dd in replayed_arrivals(cfg.intensity, cfg.d, n, np.random.default_rng(seed), rounds):
        scores = (ds * dd, ds + dd)[score_of]
        below = scores <= threshold
        count += below
        crit = np.stack((ds * dd, ds + dd, np.minimum(ds, dd), np.maximum(ds, dd), s,
                         np.where(below, scores, np.inf)))
        lower = crit < best
        picks = np.where(lower, scores, picks)
        best = np.where(lower, crit, best)
    return dict(zip(montecarlo._KINDS, picks)), picks[5], count


def _geometry_outputs(lam, threshold, n, seed):
    """Picks of every policy kind at intensity lam, and policy_scores and
    mc_feedback_dist counts of the optimum under threshold."""
    cfg = pow_cfg(intensity=lam)
    picks = montecarlo._picks(cfg, list(PolicyKind), n, np.random.default_rng(seed))
    [scores] = policy_scores(cfg, [SelectionPolicy(PolicyKind.OPT_PRODUCT, threshold)], n, seed)
    counts = mc_feedback_dist(cfg, threshold, n, seed).values
    return [*picks.values(), scores, counts]


class TestArrivals:
    @pytest.mark.parametrize("cfg, threshold", [(pow_cfg(), 3.0), (exp_cfg(intensity=2.0, d=0.6), 1.45)],
                             ids=["power", "exp"])
    def test_stopped_picks_equal_picks_over_400_arrivals(self, monkeypatch, cfg, threshold):
        # 20,000 trials in one chunk: every criterion's pick, the optimum's
        # under a feedback threshold and the feedback count equal their
        # values over the same trial's first 400 arrivals, none of which
        # the sampler reached
        n, seed = 20_000, 7
        rounds, nearest_first = [], montecarlo._nearest_first

        def counting(lam, d, rng, visit, inner, live):
            return nearest_first(lam, d, rng, lambda *args: rounds.append(1) or visit(*args), inner, live)

        monkeypatch.setattr(montecarlo, "_nearest_first", counting)
        picks = montecarlo._picks(cfg, list(PolicyKind), n, np.random.default_rng(seed))
        assert len(rounds) < 400
        rounds.clear()
        counts = montecarlo._chunk_feedback_counts(cfg, threshold, n, np.random.default_rng(seed))
        assert len(rounds) < 400
        optimum = SelectionPolicy(OPTIMUM[cfg.model][1], feedback_threshold=threshold)
        want, want_thresholded, want_counts = _reference_picks(cfg, threshold, n, seed)
        for kind in PolicyKind:
            assert np.array_equal(picks[kind], want[kind]), kind
        assert np.array_equal(montecarlo._threshold(picks[optimum.kind], optimum), want_thresholded)
        assert np.isinf(want_thresholded).any() and np.isfinite(want_thresholded).any()
        assert np.array_equal(counts, want_counts)
        assert want_counts.max() > 1

    def test_one_policy_call_equals_a_four_policy_call(self):
        # the stopping rule reads every criterion, whichever policies are
        # asked for, so a policy's per-trial picks do not depend on the others
        for cfg, optimum in ((pow_cfg(), PolicyKind.OPT_PRODUCT), (exp_cfg(), PolicyKind.OPT_SUM)):
            pols = [SelectionPolicy(kind) for kind in (optimum, PolicyKind.MIN_MIN, PolicyKind.MIN_MAX,
                                                        PolicyKind.MID_POINT)]
            n_trials = montecarlo._CHUNK_TRIALS + 100
            four = policy_scores(cfg, pols, n_trials, 19)
            for pol, want in zip(pols, four):
                [got] = policy_scores(cfg, [pol], n_trials, 19)
                assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(
        block=st.sampled_from([1, 97, 4096]),
        lam=st.sampled_from([0.02, LAM, 4.0]),
        threshold=st.sampled_from([0.3, 1.44, 3.0]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(block=1, lam=LAM, threshold=3.0, n=300, seed=4)
    def test_outputs_do_not_depend_on_the_pair_block(self, block, lam, threshold, n, seed):
        want = _geometry_outputs(lam, threshold, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_PAIR_BLOCK", block)
            got = _geometry_outputs(lam, threshold, n, seed)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestMinMinWindow:
    @pytest.mark.parametrize("lam, d, eps", [(0.5, 1.2, 1e-6), (0.01, 1.2, 1e-6), (0.5, 30.0, 1e-9),
                                             (2.0, 0.1, 0.5), (50.0, 1.2, 1e-3)])
    def test_union_of_anchor_discs_holds_the_winner_with_prob_1_minus_eps(self, lam, d, eps):
        radius = coverage_radius(pow_cfg(intensity=lam, d=d), SelectionPolicy(PolicyKind.MIN_MIN), eps)
        need = math.log(1.0 / eps)
        # the union's area is checked against a polar quadrature in test_geometry
        assert lam * min_min_region_area(radius - d, d) == pytest.approx(need, rel=1e-12)
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
            counts, ds, dd = sample_batch(LAM, D, 1.5 * radius, n // 10, rng)
            assert (counts > 0).all()
            best = _lexsort_argmin(np.minimum(ds, dd), counts)
            r2 = 0.5 * (ds[best] ** 2 + dd[best] ** 2) - D * D  # parallelogram law
            farthest = max(farthest, float(r2.max()))
            beyond_level += int(np.sum(np.minimum(ds, dd)[best] > level))
        assert farthest <= radius * radius
        assert abs(beyond_level - 0.05 * n) <= 4 * math.sqrt(n * 0.05 * 0.95)


# coverage_radius as float.hex at three (intensity, d) pairs, for every policy
# kind and for opt-product under a threshold of a quarter of its eps-level.  A
# radius one ulp off moves every Monte Carlo stream sampled in its window, so
# the comparison is exact.
WINDOW_BITS = {
    (0.5, 1.2): {
        "opt-product": "0x1.9aae132012823p+1", "opt-sum": "0x1.8b72d14ef9ac6p+1",
        "min-min": "0x1.c33d8b76bf0b0p+1", "min-max": "0x1.ceeb13c18a779p+1",
        "mid-point": "0x1.7b9b3b96d221ap+1", "opt-product@T": "0x1.e952ab3ee422ep+0",
    },
    (1e-3, 30.0): {
        "opt-product": "0x1.2465ec7b08919p+6", "opt-sum": "0x1.172878a7572a8p+6",
        "min-min": "0x1.43176a78056d4p+6", "min-max": "0x1.4950ad43b0d8cp+6",
        "mid-point": "0x1.09420da35508fp+6", "opt-product@T": "0x1.66be414eb3577p+5",
    },
    (50.0, 0.05): {
        "opt-product": "0x1.34004b67cb6cdp-2", "opt-sum": "0x1.31d9ca1705ef4p-2",
        "min-min": "0x1.4434bf287e752p-2", "min-max": "0x1.4dfbea3566408p-2",
        "mid-point": "0x1.2faf62df0e815p-2", "opt-product@T": "0x1.4083818637f84p-3",
    },
}
WINDOW_THRESHOLD = {
    (0.5, 1.2): "0x1.1b548aef1679fp+1",
    (1e-3, 30.0): "0x1.15b8ac0d1f13ep+10",
    (50.0, 0.05): "0x1.685344ce00a98p-6",
}


@pytest.mark.parametrize("lam, d", list(WINDOW_BITS))
def test_window_radii_are_bit_exact(lam, d):
    cfg = NetworkConfig(d=d, intensity=lam, n_elements=16, model=PathLossModel.POWER_LAW)
    got = {kind.value: coverage_radius(cfg, SelectionPolicy(kind)).hex() for kind in PolicyKind}
    threshold = float.fromhex(WINDOW_THRESHOLD[lam, d])
    got["opt-product@T"] = coverage_radius(cfg, SelectionPolicy(PolicyKind.OPT_PRODUCT, threshold)).hex()
    assert got == WINDOW_BITS[lam, d]


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
        _, ds, dd = sample_batch(2.0, D, tau, 1, np.random.default_rng(8))
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
        # one call: each array, in input order and a repeated policy
        # included, is that policy's pick on one sample
        cfg = pow_cfg()
        kinds = [PolicyKind.OPT_PRODUCT, PolicyKind.MID_POINT, PolicyKind.MIN_MAX, PolicyKind.MIN_MIN]
        pols = [SelectionPolicy(k) for k in kinds] + [
            SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=2.0), SelectionPolicy(PolicyKind.MID_POINT)]
        opt, *others = scores = policy_scores(cfg, pols, 5000, 77)
        for other in others:
            assert np.all(opt <= other + 1e-12)
        [stream] = np.random.default_rng(77).spawn(1)  # the stream of a one-chunk estimate
        picks = montecarlo._picks(cfg, kinds, 5000, stream)
        assert len(scores) == len(pols)
        for got, pol in zip(scores, pols):
            assert np.array_equal(got, montecarlo._threshold(picks[pol.kind], pol))
        assert np.array_equal(scores[1], scores[-1])

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
        cells = [(cfg, SelectionPolicy(PolicyKind.OPT_SUM)), (cfg, SelectionPolicy(PolicyKind.MID_POINT))]
        (_, opt), (_, mid) = mc_sweep(cells, 5000, 4, 13)
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
        # no trial stops within d = 328 of the midpoint: 7.2e8 arrivals per trial
        cfg = pow_cfg(intensity=2130.0, d=328.0)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRegionError, match="budget"):
                mc_rate(cfg, SelectionPolicy(PolicyKind.OPT_PRODUCT), 10_000, 8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n_trials", [montecarlo._CHUNK_TRIALS, 2 * montecarlo._CHUNK_TRIALS + 1])
    def test_fading_draws_beyond_the_budget_refused_before_drawing(self, n_trials):
        draws = montecarlo._FADING_BUDGET // montecarlo._CHUNK_TRIALS + 1
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRegionError, match="budget"):
                mc_rate(pow_cfg(), SelectionPolicy(PolicyKind.OPT_PRODUCT), n_trials, draws, 1)
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

    def test_chunk_counts_equal_an_independent_count(self):
        # ~2 nodes per trial within radius 3, which holds the sum <= 4
        # ellipse: many trials hold no node there
        cfg, radius, threshold, n = exp_cfg(intensity=0.07), 3.0, 4.0, 500
        got = montecarlo._chunk_feedback_counts(cfg, threshold, n, np.random.default_rng(9))
        counts, ds, dd = sample_batch(cfg.intensity, cfg.d, radius, n, np.random.default_rng(9))
        assert (counts == 0).any()
        trial = np.repeat(np.arange(n), counts)
        want = np.bincount(trial[ds + dd <= threshold], minlength=n)
        assert 0 < want.sum() < counts.sum()
        assert np.array_equal(got, want)

    def test_infinite_threshold_refused_by_point_budget(self):
        with pytest.raises(UnsupportedRegionError, match="budget"):
            mc_feedback_dist(exp_cfg(), math.inf, 100, 0)
