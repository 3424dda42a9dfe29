"""Monte Carlo estimators: reproducibility, merging, and analytic agreement."""

import math
import os
import pickle
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

LAM, D = 0.5, 1.2
DIST_P = DistCdf(ScoreKind.MIN_PRODUCT, LAM, D)
DIST_S = DistCdf(ScoreKind.MIN_SUM, LAM, D)


def sample_batch(lam, d, radius, n, rng):
    """(counts, ds, dd) of n trials: every slice montecarlo._sample_slices yields, joined."""
    _, _, counts, ds, dd = zip(*montecarlo._sample_slices(lam, d, radius, n, rng))
    return np.concatenate(counts), np.concatenate(ds), np.concatenate(dd)


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

    def test_scores_independent_of_worker_count(self):
        # at two workers a pool child unpickles the policy tuple and runs
        # the second chunk, also at two full chunks and a 1-trial tail
        cfg = exp_cfg()
        pols = [SelectionPolicy(PolicyKind.OPT_SUM), SelectionPolicy(PolicyKind.MIN_MIN),
                SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=4.0)]
        for n_trials in (20_000, 2 * montecarlo._CHUNK_TRIALS + 1):
            s1 = policy_scores(cfg, pols, n_trials, 9, workers=1)
            s2 = policy_scores(cfg, pols, n_trials, 9, workers=2)
            assert len(s1) == len(s2) == len(pols)
            assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

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

    @pytest.mark.parametrize("shares, mapped, mine", [(4, [2, 3], [0, 1, 4]), (5, [2, 3, 4], [0, 1])])
    def test_caller_runs_its_head_and_what_is_no_share_before_it_waits(self, shares, mapped, mine):
        log = []

        class LoggingExecutor:
            def map(self, fn, tasks):
                log.append(("mapped", list(tasks)))

                def results():
                    log.append("wait")
                    yield from (fn(task) for task in tasks)
                return results()

        def run(task):
            log.append(task)
            return -task

        assert montecarlo._caller_runs(LoggingExecutor(), 3, run, list(range(5)), shares) == [0, -1, -2, -3, -4]
        assert log == [("mapped", mapped), *mine, "wait", *mapped]


def _recording_pool(sizes, mapped):
    """Stand-in for ProcessPoolExecutor (or _ThreadTeam) that runs the chunks
    (or fading blocks) in this thread, recording each pool's size and the
    number of tasks it is given."""

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
        # each cell's result is the same in a two-cell sweep beside the
        # cell that needs the group's widest window
        widest = max(cells, key=lambda cell: coverage_radius(*cell))
        n_trials = montecarlo._CHUNK_TRIALS + 1
        got = mc_sweep(cells, n_trials, 3, 23)
        for cell, pair in zip(cells, got):
            assert pair == mc_sweep([cell, widest], n_trials, 3, 23)[0]
        assert mc_sweep(cells, n_trials, None, 23) == [(outage, None) for outage, _ in got]

    def test_one_arg_min_per_criterion(self, monkeypatch):
        # five thresholds of the optimum policy mask one pick, and that pick
        # is the segment minimum, so a feedback sweep with a baseline takes
        # one arg-min per slice that holds a point, the baseline's, not six
        calls, nonempty = [], []
        argmin, slices = montecarlo._segment_argmin, montecarlo._sample_slices

        def counting(crit, seg):
            calls.append(crit.size)
            return argmin(crit, seg)

        def recording(*args):
            for item in slices(*args):
                nonempty.append(item[2].sum() > 0)  # item[2] is the slice's counts
                yield item

        monkeypatch.setattr(montecarlo, "_segment_argmin", counting)
        monkeypatch.setattr(montecarlo, "_sample_slices", recording)
        cfg = exp_cfg()
        cells = [(cfg, SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=t))
                 for t in (3.0, 4.5, 6.0, 7.5, 9.0)] + [(cfg, SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = montecarlo._CHUNK_TRIALS + 1
        mc_sweep(cells, n_trials, 2, 29)
        assert len(nonempty) > len(montecarlo._chunk_sizes(n_trials))  # the full chunk comes in many slices
        assert len(calls) == sum(nonempty)

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
        radius = coverage_radius(cfg, pol)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            n, *_ = montecarlo._chunk_cells(((cfg, pol),), 8, 1, radius, montecarlo._CHUNK_TRIALS, rng)
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
        radius = coverage_radius(pow_cfg(), pol)
        peaks = []
        for counts in ((1, 64), sorted({round(x) for x in np.linspace(1, 64, 21)})):
            cells = tuple((pow_cfg(n_elements=n), pol) for n in counts)
            rng = np.random.default_rng(5)
            tracemalloc.start()
            try:
                montecarlo._chunk_cells(cells, 8, 1, radius, montecarlo._CHUNK_TRIALS, rng)
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
        radius = coverage_radius(*cells[0])
        n = montecarlo._FADING_BLOCK + 5  # two blocks
        montecarlo._chunk_cells(cells, 2, 1, radius, n, np.random.default_rng(3))
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
        # one chunk of the same 36 cells at ~20 and ~147 points per trial:
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
        radius = max(coverage_radius(cfg, pol) for cfg, pol in cells)
        n = montecarlo._FADING_BLOCK + 904
        got = montecarlo._chunk_cells(cells, m_fading, 1, radius, n, np.random.default_rng(31))
        want = _stacked_moments(cells, m_fading, radius, n, np.random.default_rng(31))
        assert got[0] == want[0] == n
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == (len(cells), 1 if m_fading is None else 2)
            assert np.array_equal(a, b)


def _stacked_moments(cells, m_fading, radius, n, rng):
    """What _chunk_cells returns, from every cell's rows stacked in one
    array and reduced by one _moments call, with a rate formed per cell."""
    geometry = cells[0][0]
    slices = montecarlo._sample_slices(geometry.intensity, geometry.d, radius, n, rng)
    picks = montecarlo._picks({pol.kind for _, pol in cells}, OPTIMUM[geometry.model][0], slices, n)
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

    def test_chunk_tasks_carry_seeds_not_generators(self):
        # a task reaches a pool process pickled; before numpy 2.0 an
        # unpickled Generator spawned from fresh entropy, so tasks carry
        # seed sequences and each process builds its own Generator
        def pickling_pool(tasks):
            for task in tasks:
                assert not any(isinstance(item, np.random.Generator) for item in task)
            return [montecarlo._run_chunk(pickle.loads(pickle.dumps(task))) for task in tasks]

        cells = [(exp_cfg(n_elements=16), SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = 2 * montecarlo._CHUNK_TRIALS + 1
        assert mc_sweep(cells, n_trials, 2, 8, pool=pickling_pool) == mc_sweep(cells, n_trials, 2, 8)

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
        radius = max(coverage_radius(cfg, pol) for cfg, pol in cells)
        one, two = (montecarlo._chunk_cells(cells, 8, threads, radius, n, np.random.default_rng(21))
                    for threads in (1, 2))
        assert one[0] == two[0] == n
        for a, b in zip(one[1:], two[1:]):
            assert np.array_equal(a, b)

    def test_fading_threads_stop_when_a_reduction_raises(self, monkeypatch):
        # a round joins its threads before it returns, so none is left
        # running while the reductions between rounds run, or raise
        rounds = []

        class RecordingThreads(montecarlo._ThreadTeam):
            def map(self, fn, tasks):
                rounds.append(len(tasks))
                return super().map(fn, tasks)

        def failing(*args):
            raise RuntimeError("reduction failed")

        monkeypatch.setattr(montecarlo, "_ThreadTeam", RecordingThreads)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(montecarlo, "_rates", failing)
        cells = ((pow_cfg(n_elements=4), SelectionPolicy(PolicyKind.OPT_PRODUCT)),
                 (pow_cfg(n_elements=9), SelectionPolicy(PolicyKind.OPT_PRODUCT)))
        radius = coverage_radius(*cells[0])
        before = threading.active_count()
        try:
            montecarlo._chunk_cells(cells, 2, 2, radius, 2 * montecarlo._FADING_BLOCK, np.random.default_rng(4))
        except RuntimeError:
            # the traceback still holds the chunk's frame and its suspended
            # fading generator, which holds no thread
            assert rounds == [1]
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
        # this thread runs task 0; two team threads run tasks 1 (which
        # fails at once) and 2 (which takes longest)
        with pytest.raises(RuntimeError, match="worker failed"):
            montecarlo._caller_runs(montecarlo._ThreadTeam(max_workers=2), 3, run, [0, 1, 2], 3)
        assert sorted(done) == [0, 2]
        assert threading.active_count() == before

    def test_the_caller_error_leaves_after_the_worker_thread_joined(self):
        done = []

        def run(task):
            if task == 0:
                raise RuntimeError("caller failed")
            time.sleep(0.2)
            done.append(task)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller failed"):
            montecarlo._caller_runs(montecarlo._ThreadTeam(max_workers=1), 2, run, [0, 1], 2)
        assert done == [1]
        assert threading.active_count() == before

    def test_fading_threads_capped_by_cpus_and_blocks(self, monkeypatch):
        sizes, mapped = [], []
        monkeypatch.setattr(montecarlo, "_ThreadTeam", _recording_pool(sizes, mapped))
        monkeypatch.setenv("RIS_SELECT_THREADS", "1000000")
        workers = montecarlo.default_workers()
        cells = [(exp_cfg(n_elements=64), SelectionPolicy(PolicyKind.MIN_MIN))]
        n_trials = montecarlo._CHUNK_TRIALS + 1  # one process runs both chunks
        want = mc_sweep(cells, n_trials, 2, 8)
        assert mc_sweep(cells, n_trials, 2, 8, workers=workers) == want
        # a team of one thread draws its blocks with no _ThreadTeam
        extra = min(len(os.sched_getaffinity(0)), 2) - 1
        assert all(size <= extra for size in sizes)
        assert all(count <= extra for count in mapped)

        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        sizes.clear()
        mapped.clear()
        assert mc_sweep(cells, n_trials, 2, 8, workers=workers) == want
        # the full chunk's second block goes to one other thread; the
        # 1-trial tail is one block, drawn with no _ThreadTeam
        assert sizes == [1]
        assert mapped == [1]

    def test_no_fading_threads_beside_a_process_pool(self, monkeypatch):
        threads, processes = [], []
        monkeypatch.setattr(montecarlo, "_ThreadTeam", _recording_pool([], threads))
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording_pool(processes, []))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        cells = [(exp_cfg(n_elements=64), SelectionPolicy(PolicyKind.MIN_MIN))]
        # the stand-in sees the threads of one process running every chunk
        mc_sweep(cells, montecarlo._CHUNK_TRIALS + 1, 2, 8, workers=2)
        assert processes == [] and threads == [1]
        threads.clear()
        n_trials = 2 * montecarlo._CHUNK_TRIALS + 1
        assert mc_sweep(cells, n_trials, 2, 8, workers=2) == mc_sweep(cells, n_trials, 2, 8)
        assert processes == [1]
        assert threads == []  # no chunk builds a thread pool for its fading blocks


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


class _CountingRng:
    """The two Generator methods the sampler calls, counting blocks of pairs
    and the pairs in each."""

    def __init__(self, seed):
        self.rng, self.blocks, self.pairs = np.random.default_rng(seed), 0, []

    def poisson(self, mean, size):
        return self.rng.poisson(mean, size)

    def random(self, out):
        self.blocks += 1
        self.pairs.append(len(out))
        return self.rng.random(out=out)


def _geometry_outputs(lam, radius, threshold, n, seed):
    """Picks of every policy kind in the given window, and policy_scores and
    mc_feedback_dist counts of the optimum under threshold, at intensity lam."""
    kinds = list(PolicyKind)
    slices = montecarlo._sample_slices(lam, D, radius, n, np.random.default_rng(seed))
    picks = montecarlo._picks(kinds, ScoreKind.MIN_PRODUCT, slices, n)
    cfg = pow_cfg(intensity=lam)
    [scores] = policy_scores(cfg, [SelectionPolicy(PolicyKind.OPT_PRODUCT, threshold)], n, seed)
    counts = mc_feedback_dist(cfg, threshold, n, seed).values
    return [*picks.values(), scores, counts]


# (slice points, intensity, window radius, feedback threshold, trials) at
# which the sampler yields each slice shape the slicing must not show in
SLICE_SHAPES = {
    "one trial per slice": (1e-9, LAM, 3.0, 3.0, 300),
    "slices ending inside a pair block": (40.0, LAM, 3.0, 3.0, 600),
    "slices of empty trials only": (0.5, 0.02, 1.3, 0.3, 400),
}


def _slice_shape(name):
    slice_points, lam, radius, threshold, n = SLICE_SHAPES[name]
    return example(slice_points=slice_points, block=montecarlo._SAMPLE_BLOCK, lam=lam, radius=radius,
                   threshold=threshold, n=n, seed=4)


class TestSlices:
    @pytest.mark.parametrize("shape", SLICE_SHAPES)
    def test_the_slice_shapes_occur(self, shape):
        slice_points, lam, radius, _, n = SLICE_SHAPES[shape]
        rng = _CountingRng(4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_SLICE_POINTS", slice_points)
            items = list(montecarlo._sample_slices(lam, D, radius, n, rng))
        assert [item[0] for item in items[1:]] == [item[1] for item in items[:-1]]
        assert items[0][0] == 0 and items[-1][1] == n
        sizes = [item[1] - item[0] for item in items]
        points = [int(item[2].sum()) for item in items]
        if shape == "one trial per slice":
            assert set(sizes) == {1}
        elif shape == "slices ending inside a pair block":
            assert 0 < rng.blocks < sum(p > 0 for p in points)  # some block serves two slices
        else:
            assert points.count(0) > len(points) // 2

    def test_a_one_trial_batch_draws_only_the_pairs_it_needs(self):
        # a chunk's last block holds about twice the points still missing,
        # not _SAMPLE_BLOCK pairs, and the points are those a full block gives
        radius = 3.0
        rng = _CountingRng(4)
        [(_, _, counts, ds, dd)] = montecarlo._sample_slices(LAM, D, radius, 1, rng)
        assert 0 < counts[0] < sum(rng.pairs) < montecarlo._SAMPLE_BLOCK
        ref = np.random.default_rng(4)
        assert np.array_equal(ref.poisson(LAM * math.pi * radius * radius, 1), counts)
        block = ref.random((montecarlo._SAMPLE_BLOCK, 2))
        block *= 2.0
        block -= 1.0
        u, v = block.T
        take = np.flatnonzero(u * u + v * v <= 1.0)[: counts[0]]
        x, y2 = u[take] * radius, np.square(v[take] * radius)
        assert np.array_equal(ds, np.sqrt(np.square(x + D) + y2))
        assert np.array_equal(dd, np.sqrt(np.square(x - D) + y2))

    @settings(max_examples=40, deadline=None)
    @given(
        slice_points=st.one_of(st.sampled_from([1e-9, 0.5, 40.0]), st.floats(1e-3, 3e4)),
        block=st.sampled_from([97, montecarlo._SAMPLE_BLOCK]),
        lam=st.sampled_from([0.02, LAM, 4.0]),
        radius=st.floats(0.3, 6.0),
        threshold=st.sampled_from([0.3, 1.44, 3.0]),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @_slice_shape("one trial per slice")
    @_slice_shape("slices ending inside a pair block")
    @_slice_shape("slices of empty trials only")
    def test_outputs_do_not_depend_on_the_slice_size(self, slice_points, block, lam, radius, threshold, n, seed):
        want = _geometry_outputs(lam, radius, threshold, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_SLICE_POINTS", slice_points)
            patch.setattr(montecarlo, "_SAMPLE_BLOCK", block)
            got = _geometry_outputs(lam, radius, threshold, n, seed)
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
            seg = montecarlo._segments(counts)
            assert seg.nonempty.all()
            best = montecarlo._segment_argmin(np.minimum(ds, dd), seg)
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
        # included, is that policy's pick on one sample drawn in the widest
        # window any of the policies needs
        cfg = pow_cfg()
        kinds = [PolicyKind.OPT_PRODUCT, PolicyKind.MID_POINT, PolicyKind.MIN_MAX, PolicyKind.MIN_MIN]
        pols = [SelectionPolicy(k) for k in kinds] + [
            SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=2.0), SelectionPolicy(PolicyKind.MID_POINT)]
        opt, *others = scores = policy_scores(cfg, pols, 5000, 77)
        for other in others:
            assert np.all(opt <= other + 1e-12)
        radius = max(coverage_radius(cfg, pol) for pol in pols)
        [stream] = np.random.default_rng(77).spawn(1)  # the stream of a one-chunk estimate
        slices = montecarlo._sample_slices(LAM, D, radius, 5000, stream)
        picks = montecarlo._picks(kinds, ScoreKind.MIN_PRODUCT, slices, 5000)
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

    def test_chunk_counts_equal_an_independent_count(self, monkeypatch):
        # one-trial slices at ~2 points per trial: many slices hold no point
        monkeypatch.setattr(montecarlo, "_SLICE_POINTS", 1)
        cfg, radius, threshold, n = exp_cfg(intensity=0.07), 3.0, 4.0, 500
        got = montecarlo._chunk_feedback_counts(cfg, threshold, radius, n, np.random.default_rng(9))
        counts, ds, dd = sample_batch(cfg.intensity, cfg.d, radius, n, np.random.default_rng(9))
        assert (counts == 0).any()
        trial = np.repeat(np.arange(n), counts)
        want = np.bincount(trial[ds + dd <= threshold], minlength=n)
        assert 0 < want.sum() < counts.sum()
        assert np.array_equal(got, want)

    def test_infinite_threshold_refused_by_point_budget(self):
        with pytest.raises(UnsupportedRegionError, match="budget"):
            mc_feedback_dist(exp_cfg(), math.inf, 100, 0)
