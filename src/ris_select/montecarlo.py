"""Brute-force estimators for every analytic quantity.

Each estimator draws realizations of the point process (``_sample_slices``,
the package's one sampler) inside a finite window sized so the probability
that the infinite process' winner falls outside is below a configurable
epsilon, then evaluates the metric exactly on the sample.  The sampler
draws each trial's Poisson count first and then takes points by rejection
from the window's bounding square, so it needs no trigonometry.  It yields
a chunk's trials in consecutive slices of about 10,000 expected points,
and each slice is selected before the next is drawn, so a chunk's
geometry traces about 1.5 MiB at any number of points per trial and each
slice's passes run in a 2 MiB L2 cache.  The points do not depend on the
slice size.  A chunk that would hold more points, or more fading draws,
than its budget allows is refused with UnsupportedRegionError before
anything is drawn.  Trials are processed in fixed-size chunks (8192
trials), each with its own stream spawned from the caller's seed, so
results are identical regardless of how many worker processes execute
the chunks.  Chunk results merge as (count, mean, sum of squared
deviations) with the pairwise update of Chan, Golub & LeVeque (1979),
never as raw sums of squares.

Outage and rate come from one kernel, ``mc_sweep``, that estimates many
(config, policy) cells at once when they share their geometry (intensity,
d and path-loss model).  Per chunk it samples the point process once, in
the largest window any cell needs.  Per slice it forms the model's score
array and the layout of trials in the point arrays once, and takes one
segmented arg-min (linear in the number of points) per distinct baseline
criterion, not per cell.  The optimum policy's criterion is the score
itself, so its pick is the segment minimum and needs no arg-min, and a
feedback threshold filters on that same score, so a threshold is a mask on
the unthresholded pick and a whole threshold sweep shares one pick.  It
then draws the fading of every trial into one Z array, draws-major (one
row per draw, one column per trial) and accumulated element by element, so
one draw serves every cell and the gain for N elements is the partial sum
of the gain for more.  It draws up to one wanted N at a time, in ascending
order, and reduces that N's cells before it draws further elements, so a
sweep over N holds one Z array (and one Z^2 scratch) at any number of
element counts.  The fading comes in fixed blocks of 4096 trials, each
drawn from a stream of its own spawned from the chunk's stream.  Path gain
and rate are formed once per distinct (policy, law parameter, SNR, N).
Every cell thus reads the same realizations (common random numbers), and
each equals what any sweep of its group with the same seed and widest
window returns for it.  ``mc_outage`` and ``mc_rate`` are the one-cell
case, and ``policy_scores`` shares one sample among policies in the same
way.

Chunks run in the calling process, or in a pool in which the calling
process is one of the workers; a sweep can open one such pool
(``shared_pool``) and pass it to every kernel call.  When one process runs
the whole estimate, the fading blocks of a chunk run on threads, the
calling thread included, as numpy releases the GIL while it fills and
transforms those arrays; in a pool each process draws its blocks in turn.
Processes and threads share the work by one rule (``_caller_runs``), and
since the chunk and block layout alone fixes the streams, neither changes
a result.  The fading threads are a ``_ThreadTeam`` on ``threading``
(which ``numpy.random`` loads anyway) that starts its threads for one
round and joins them before the round returns or raises.
``ProcessPoolExecutor`` is imported only when a run starts a process pool,
so a run in one process, on one thread or more, loads neither
``concurrent.futures`` nor ``multiprocessing``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import NetworkConfig, PathLossModel, sample_z_prefixes, snr_score_cap
from .errors import UnsupportedRegionError
from .geometry import (ScoreKind, _solve_increasing, critical_score, enclosing_radius,
                       min_max_region_area, min_min_region_area, score)
from .policies import OPTIMUM, OPTIMUM_SCORE, PolicyKind, SelectionPolicy, check_feedback_policy

_CHUNK_TRIALS = 8192
# Fewest trials worth a pool process of their own; a smaller last chunk
# runs in the calling process.
_MIN_SHARE = _CHUNK_TRIALS // 2
# Trials per fading block: each block of a chunk draws its fading from a
# stream of its own, so the blocks may run on any number of threads.
_FADING_BLOCK = _CHUNK_TRIALS // 2
_WINDOW_EPS = 1e-6
# Most points one chunk may expect to sample.  A chunk's memory does not
# grow with it (see _SLICE_POINTS), so this caps the work: sampling and four
# policies' selection take about 65 ns per point at 147 points per trial
# and more, so about 1.1 s per chunk at the budget.
_POINT_BUDGET = 1 << 24
# Candidate pairs the sampler draws at a time (256 KiB of doubles), or
# fewer for the last points of a batch (see _pairs_wanted).
_SAMPLE_BLOCK = 1 << 14
# Points one slice of a chunk is expected to hold.  A slice samples at
# about 32 bytes per point (x, y^2, a distance array and the indices of the
# accepted pairs) beside 0.7 MiB of fixed size: the trials' counts, a block
# of candidate pairs, the three buffers of its acceptance test (allocated
# once per chunk) and the accepted indices.  Measured at 20 and 147
# points per trial, it selects at about 42 (both distance arrays, the score,
# one criterion buffer, the repeated segment minima and a mask).  So a
# slice's arrays fit in a 2 MiB L2 cache.  Slices of 10,000 and 20,000
# points timed fastest of 2,500 to 200,000 (15 ms per 8192-trial chunk, 22
# ms for the chunk as one slice), and the smaller holds less.
_SLICE_POINTS = 10_000
# Most fading draws (per trial, times trials) one chunk may hold: at 16 to 32
# bytes each, at most 128 MiB.  Z takes 8, the Z^2 scratch of a chunk of
# more than one element count 8, and the element a block is drawing 16 per
# draw of the block's trials (its words and its float32 pair), so 8 on one
# thread and 16 when a chunk's two blocks draw at once on two.
_FADING_BUDGET = 1 << 22


def __getattr__(name: str):
    """ProcessPoolExecutor, imported from concurrent.futures on first access
    (PEP 562), so that a run which starts no process pool never loads it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _process_pool():
    """The process pool class the module attribute holds now, which a caller
    (a test, a tracer) may have replaced."""
    return globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: sample mean, standard error, trial count."""

    mean: float
    std_error: float
    n_trials: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")

    @classmethod
    def from_moments(cls, n: int, mean: float, m2: float) -> "Estimate":
        """From the count, the mean and the sum of squared deviations M2."""
        var = m2 / (n - 1) if n > 1 else 0.0
        return cls(mean=mean, std_error=math.sqrt(var / n), n_trials=n)


def _moments(values: np.ndarray) -> tuple:
    """(n, shift, offset, M2) of values along the last axis.

    The mean is shift + offset: shift is the rounded mean and offset the
    mean of the deviations from it, which keeps the digits that rounding
    the mean to one double loses.  M2 is the sum of squared deviations
    from the mean.
    """
    shift = values.mean(axis=-1)
    dev = values - shift[..., None]
    offset = dev.mean(axis=-1)
    dev -= offset[..., None]
    return values.shape[-1], shift, offset, np.square(dev, out=dev).sum(axis=-1)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Pairwise update of two ``_moments`` tuples (Chan, Golub & LeVeque 1979).

    The result keeps a's shift.  The difference of the two means is taken
    shift to shift plus offset to offset, so it stays accurate when the
    means are large and close, where a difference of rounded means is not.
    """
    na, shift, offset_a, m2_a = a
    nb, shift_b, offset_b, m2_b = b
    n = na + nb
    delta = (shift_b - shift) + (offset_b - offset_a)
    return n, shift, offset_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


@dataclass
class EmpiricalDist:
    """Sorted sample with empirical-CDF queries and DKW confidence bands."""

    values: np.ndarray
    _sorted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        self.values = arr
        self._sorted = np.sort(arr)

    @property
    def n(self) -> int:
        return self.values.size

    def cdf(self, x) -> np.ndarray | float:
        out = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right") / self.n
        return float(out) if np.ndim(x) == 0 else out

    def dkw_epsilon(self, confidence: float = 0.99) -> float:
        """Half-width of the distribution-free CDF confidence band."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * self.n))

    def mean(self) -> float:
        return float(self.values.mean())

    def std_error(self) -> float:
        if self.n < 2:
            return 0.0
        return float(self.values.std(ddof=1) / math.sqrt(self.n))


def coverage_radius(cfg: NetworkConfig, policy: SelectionPolicy, eps: float = _WINDOW_EPS) -> float:
    """Window radius so the policy's true winner escapes with prob <= eps.

    Optimum policies and min-min use the exact void probability of the
    region where their criterion is below its eps-quantile level; min-max
    and mid-point use conservative disc bounds on that region.  A feedback
    threshold can only shrink the region that matters.
    """
    lam, d = cfg.intensity, cfg.d
    need = math.log(1.0 / eps) / lam
    kind = policy.kind
    if kind in OPTIMUM_SCORE:
        score_kind = OPTIMUM_SCORE[kind]
        gamma = critical_score(score_kind, lam, d, eps)
        if policy.feedback_threshold is not None:
            gamma = min(gamma, policy.feedback_threshold)
        return max(enclosing_radius(score_kind, gamma, d), 0.5 * d)
    if kind is PolicyKind.MID_POINT:
        return math.sqrt(need / math.pi)
    if kind is PolicyKind.MIN_MIN:
        # {min distance <= c} is the union of two radius-c anchor discs, of
        # area >= pi c^2; it lies in the origin disc of radius d + c.  Bisect
        # for the c at which it holds a point with probability 1 - eps, down
        # to adjacent doubles.
        lo, hi = 0.0, math.sqrt(need / math.pi)
        mid = 0.5 * hi
        while lo < mid < hi:
            if min_min_region_area(mid, d) < need:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return d + hi
    # MIN_MAX: {max distance <= c} is the lens of two radius-c anchor discs,
    # contained in the origin disc of radius sqrt(c^2 - d^2).  The lens at
    # c >= 2d + sqrt(need) has area >= (2 pi / 3 - 1) c^2 >= need.
    c = _solve_increasing(lambda c: min_max_region_area(c, d), need, d, d + math.sqrt(need) + d)
    return math.sqrt(c * c - d * d)


# ---------------------------------------------------------------------------
# Chunk kernels (top level so worker processes can unpickle them)
# ---------------------------------------------------------------------------

def _sample_slices(lam: float, d: float, radius: float, n: int, rng: np.random.Generator):
    """Realizations of n trials, yielded as (t0, t1, counts, ds, dd) per slice.

    The Poisson(lam pi radius^2) point counts of all n trials come first,
    then the points, uniform on the disc, in trial order.  Each point is the
    next pair (u, v) of the stream, mapped to [-1, 1]^2, that falls in the
    unit disc, times radius: rejection from the bounding square, with no
    trigonometry.  Trials [t0, t1) of a slice are expected to hold about
    _SLICE_POINTS points; counts are theirs, and ds, dd the anchor
    distances of their points, concatenated in trial order.  Pairs are
    drawn _SAMPLE_BLOCK at a time, or fewer when the batch needs fewer
    points (see _pairs_wanted), and the accepted pairs a slice does not
    take are kept for the next, so every point is the same at any slice or
    block size and no block is drawn beyond the last point.  A batch
    expected to hold more than _POINT_BUDGET points is refused before
    anything is drawn.  The distances are sqrt((x +- d)^2 + y^2) with y^2
    formed once: within 2 ulp of np.hypot, at a fraction of its cost.
    """
    mean = lam * math.pi * radius * radius
    if not mean * n <= _POINT_BUDGET:
        raise UnsupportedRegionError(
            f"{mean:.3g} expected points per trial: {n} trials exceed the Monte Carlo "
            f"budget of {_POINT_BUDGET} points per chunk"
        )
    counts = rng.poisson(mean, n)
    step = max(1, math.floor(_SLICE_POINTS / mean)) if mean * n > _SLICE_POINTS else n
    left = int(counts.sum())  # points the batch has yet to take, this slice's included
    size = _pairs_wanted(left)
    block, r2, v2, accept = np.empty((size, 2)), np.empty(size), np.empty(size), np.empty(size, bool)
    inside = np.empty(0, np.intp)  # accepted pairs of the current block, taken up to `used`
    used = 0
    for t0 in range(0, n, step):
        t1 = min(t0 + step, n)
        need = int(counts[t0:t1].sum())
        x, y2 = np.empty(need), np.empty(need)
        filled = 0
        while filled < need:
            if used == inside.size:
                size = _pairs_wanted(left - filled)  # no more than the buffers hold
                pairs = block[:size]
                rng.random(out=pairs)
                pairs *= 2.0
                pairs -= 1.0
                u, v = pairs.T
                np.multiply(u, u, out=r2[:size])
                r2[:size] += np.multiply(v, v, out=v2[:size])
                inside = np.flatnonzero(np.less_equal(r2[:size], 1.0, out=accept[:size]))
                used = 0
            take = inside[used : used + need - filled]
            end = filled + take.size
            x[filled:end] = u[take]
            y2[filled:end] = v[take]
            filled, used = end, used + take.size
        left -= need
        x *= radius
        y2 *= radius
        np.square(y2, out=y2)
        ds, dd = np.add(x, d), np.subtract(x, d, out=x)
        for dist in (ds, dd):
            np.square(dist, out=dist)
            dist += y2
            np.sqrt(dist, out=dist)
        yield t0, t1, counts[t0:t1], ds, dd


def _pairs_wanted(points: int) -> int:
    """Candidate pairs to draw at once for this many more points: a full
    block, or about twice the points (a pair is accepted with probability
    pi/4) and 64 more, so that the last block of a batch seldom needs
    another after it."""
    return min(_SAMPLE_BLOCK, 64 + 2 * points)


class _Segments(NamedTuple):
    """Where each trial's points sit in a chunk's concatenated point arrays."""

    nonempty: np.ndarray  # trials with at least one point
    starts: np.ndarray  # index of the first point of each non-empty trial
    lengths: np.ndarray  # point count of each non-empty trial


def _segments(counts: np.ndarray) -> _Segments:
    nonempty = counts > 0
    return _Segments(nonempty, (np.cumsum(counts) - counts)[nonempty], counts[nonempty])


def _segment_argmin(crit: np.ndarray, seg: _Segments) -> np.ndarray:
    """Index of the first minimum of crit in each non-empty segment.

    crit is the concatenation of the segments and holds no NaN.  Ties go to
    the lowest index, and a segment that is all +inf yields its first
    element, as a stable sort by (segment, crit) would.  Every segment holds
    a point equal to its minimum, so the first such point at or after a
    segment's start is that segment's.
    """
    segmin = np.minimum.reduceat(crit, seg.starts)
    hits = np.flatnonzero(crit == np.repeat(segmin, seg.lengths))
    return hits[np.searchsorted(hits, seg.starts)]


def _criterion_values(kind: PolicyKind, ds: np.ndarray, dd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """What policy kind minimises; the baselines' criteria are written into out."""
    if kind in OPTIMUM_SCORE:
        return score(OPTIMUM_SCORE[kind], ds, dd)
    if kind is PolicyKind.MIN_MIN:
        return np.minimum(ds, dd, out=out)
    if kind is PolicyKind.MIN_MAX:
        return np.maximum(ds, dd, out=out)
    # MID_POINT: squared distance to origin, monotone equivalent to distance
    np.multiply(ds, ds, out=out)
    out += dd * dd
    out *= 0.5
    return out


def _picks(kinds, score_kind: ScoreKind, slices, n: int) -> dict:
    """Per-trial score (of kind score_kind) of the node each policy kind picks.

    slices are ``_sample_slices`` items covering trials 0..n-1; each is
    picked on its own and written into one (n,) array per kind.  No
    feedback threshold applies here (see _threshold).  One score array and
    one segment layout serve every kind of a slice.  An optimum policy whose
    criterion is the score itself takes the segment minimum, the very score
    its first arg-min would pick; every other kind takes one arg-min, and
    the baselines share one criterion buffer.  +inf marks trials with no
    node.
    """
    out = {kind: np.full(n, np.inf) for kind in kinds}
    baselines = any(kind not in OPTIMUM_SCORE for kind in kinds)
    for t0, t1, counts, ds, dd in slices:
        seg = _segments(counts)
        if not seg.starts.size:  # no trial of the slice holds a point
            continue
        scores = score(score_kind, ds, dd)
        crit_buffer = np.empty_like(scores) if baselines else None
        for kind, column in out.items():
            picked = column[t0:t1]
            if OPTIMUM_SCORE.get(kind) is score_kind:
                picked[seg.nonempty] = np.minimum.reduceat(scores, seg.starts)
            else:
                crit = _criterion_values(kind, ds, dd, crit_buffer)
                picked[seg.nonempty] = scores[_segment_argmin(crit, seg)]
    return out


def _threshold(picked: np.ndarray, policy: SelectionPolicy) -> np.ndarray:
    """The pick of policy.kind under the policy's feedback threshold T.

    Only the optimum policy of the model takes a threshold (see
    policies.check_feedback_policy), and it filters on the very score it
    minimises: the pick among the nodes with score <= T is the unfiltered
    pick when that is <= T, and no node (+inf) otherwise.
    """
    t = policy.feedback_threshold
    return picked if t is None else np.where(picked <= t, picked, np.inf)


def _chunk_scores(cfg: NetworkConfig, policies: tuple, radius: float, n: int, rng) -> list:
    """Per-trial model score of the node each policy selects (+inf when none)."""
    slices = _sample_slices(cfg.intensity, cfg.d, radius, n, rng)
    picks = _picks(dict.fromkeys(policy.kind for policy in policies), OPTIMUM[cfg.model][0], slices, n)
    return [_threshold(picks[policy.kind], policy) for policy in policies]


def _chunk_feedback_counts(
    cfg: NetworkConfig, threshold: float, radius: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial number of nodes whose model score is <= threshold."""
    score_kind = OPTIMUM[cfg.model][0]
    out = np.zeros(n, np.intp)
    for t0, t1, counts, ds, dd in _sample_slices(cfg.intensity, cfg.d, radius, n, rng):
        seg = _segments(counts)
        below = score(score_kind, ds, dd) <= threshold
        out[t0:t1][seg.nonempty] = np.add.reduceat(below, seg.starts)
    return out


def _path_gain(cfg: NetworkConfig, picked: np.ndarray) -> np.ndarray:
    """1/G at each pick: score^-eta or exp(-alpha score); 1 where there is none."""
    s = np.where(np.isfinite(picked), picked, 1.0)
    if cfg.model is PathLossModel.POWER_LAW:
        return s ** (-cfg.eta)
    return np.exp(-cfg.alpha * s)


def _rates(snr: np.ndarray, z2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-trial log2(1 + snr Z^2) averaged over the fading draws in z2.

    z2 holds Z^2 draws-major, one row per draw and one column per trial.
    The draws are summed row by row in out, a (2, trials) scratch, which is
    the order in which numpy's mean over axis 0 sums rows, so the rate is
    np.log1p(z2 * snr).mean(axis=0) / log(2) bit for bit.  numpy sums a
    single column pairwise instead, so one trial's rate is that mean itself.
    """
    if z2.shape[1] == 1:
        return np.log1p(z2 * snr).mean(axis=0) / math.log(2.0)
    rate, term = out
    np.log1p(np.multiply(z2[0], snr, out=rate), out=rate)
    for draw in z2[1:]:
        rate += np.log1p(np.multiply(draw, snr, out=term), out=term)
    rate /= len(z2)
    rate /= math.log(2.0)
    return rate


def _fading_power(sizes, m: int, n: int, rng: np.random.Generator, threads: int):
    """Z^2 of m draws for each of n trials, for every N in sizes.

    Yields (N, Z^2) in ascending N, Z^2 an (m, n) array that holds until
    the next step.  One (m, n) Z array serves every N.  Its columns come in
    blocks of _FADING_BLOCK trials, and block b accumulates its own columns
    with ``sample_z_prefixes`` from the b-th stream spawned from rng, so the
    block layout alone fixes every value.  Each step is one round in which
    every block draws its elements up to the next N.  The blocks run as
    shares (see _caller_runs) on at most ``threads`` threads, this one
    included: a round starts the others and joins them before it returns
    or raises (see _ThreadTeam), so no thread is alive between rounds.  On
    one thread they are drawn here in turn, with no team.  Z^2 is formed in
    one reused (m, n) array for every N but the largest, and in Z itself
    for that.
    """
    sizes = sorted(set(sizes))
    starts = range(0, n, _FADING_BLOCK)
    z = np.empty((m, n))
    blocks = [sample_z_prefixes(sizes, stream, z[:, start : start + _FADING_BLOCK])
              for start, stream in zip(starts, rng.spawn(len(starts)))]
    scratch = np.empty_like(z) if len(sizes) > 1 else None
    threads = _team(threads, len(blocks))
    team = _ThreadTeam(max_workers=threads - 1) if threads > 1 else None
    for size in sizes:
        _caller_runs(team, threads, next, blocks, len(blocks))
        yield size, np.square(z, out=z if size == sizes[-1] else scratch)


def _chunk_cells(cells, m_fading, threads, radius, n, rng) -> tuple:
    """``_moments`` of every cell's per-trial outage (and rate) in one chunk.

    One point-process sample serves all cells.  It is drawn and picked a
    slice at a time (see _sample_slices), and each distinct policy kind
    takes one pick per slice (the segment minimum for the model's optimum,
    an arg-min for any other kind); feedback thresholds are masks on that
    pick.  A slice's points are dropped once picked.  The fading is drawn
    after the selection, from streams spawned from the chunk's stream, for
    every trial (selected or not) and once for all cells, so neither the
    policies nor the other cells change what a cell reads.  It is drawn one
    element count at a time (see _fading_power, which runs it on up to
    ``threads`` threads), and each count's cells are reduced before any
    further element is drawn.  The cells are grouped by N, then by (policy
    kind, eta, alpha), then by avg_snr, in order of first appearance: each
    middle group forms one path gain, and each inner group one rate in one
    reused (2, trials) scratch (see _rates), which a cell with a threshold
    masks to 0 where its pick is filtered out.  Each cell's rows are reduced
    as soon as they are formed, in one reused buffer, and numpy reduces
    each row on its own, so the moments are those of one reduction of every
    row.  At 8192 trials and 8 draws on one thread, a chunk of four policies
    traces 1.6 MiB at its peak for 36 cells of one element count and 1.7
    MiB for 404; a second count adds the (draws, trials) Z^2 scratch, 0.5
    MiB, and further counts add nothing (2.5 MiB for 21 counts).
    """
    geometry = cells[0][0]
    slices = _sample_slices(geometry.intensity, geometry.d, radius, n, rng)
    kinds = dict.fromkeys(policy.kind for _, policy in cells)
    picks = _picks(kinds, OPTIMUM[geometry.model][0], slices, n)
    row = np.empty((1 if m_fading is None else 2, n))
    shift, offset, m2 = (np.empty((len(cells), len(row))) for _ in range(3))

    def reduce_cell(i, rate=None):
        cfg, policy = cells[i]
        chosen = _threshold(picks[policy.kind], policy)
        row[0] = ~(chosen < snr_score_cap(cfg))
        if rate is not None:
            row[1] = np.where(np.isfinite(chosen), rate, 0.0)
        _, shift[i], offset[i], m2[i] = _moments(row)

    if m_fading is None:
        for i in range(len(cells)):
            reduce_cell(i)
        return n, shift, offset, m2
    groups = {}  # N -> (kind, eta, alpha) -> avg_snr -> indices of the cells
    for i, (cfg, policy) in enumerate(cells):
        by_law = groups.setdefault(cfg.n_elements, {})
        by_law.setdefault((policy.kind, cfg.eta, cfg.alpha), {}).setdefault(cfg.avg_snr, []).append(i)
    scratch = np.empty((2, n))
    for size, z2 in _fading_power(groups, m_fading, n, rng, threads):
        for (kind, _, _), by_snr in groups[size].items():
            first, *_ = by_snr.values()
            gain = _path_gain(cells[first[0]][0], picks[kind])
            for avg_snr, members in by_snr.items():
                rate = _rates(avg_snr * gain, z2, scratch)
                for i in members:
                    reduce_cell(i, rate)
    return n, shift, offset, m2


def _run_chunk(task) -> object:
    kernel, payload, radius, n, (bit_generator, seed) = task
    return kernel(*payload, radius, n, np.random.Generator(bit_generator(seed)))


def _chunk_sizes(n_trials: int) -> list:
    """Trial counts of an estimate's chunks: full chunks, then what is left."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    full, rest = divmod(n_trials, _CHUNK_TRIALS)
    return [_CHUNK_TRIALS] * full + [rest] * (rest > 0)


def _cpus() -> int:
    """CPUs this process may run on; no pool of processes or threads is larger."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _shares(sizes: list) -> int:
    """How many chunks of these trial counts are worth a pool process of
    their own: all but a last chunk of fewer than _MIN_SHARE trials."""
    return len(sizes) - (sizes[-1] < _MIN_SHARE)


def _team(workers: int, shares: int) -> int:
    """Workers worth running this many shares, this one included: no more
    than workers, usable CPUs or shares."""
    return max(1, min(workers, _cpus(), shares))


def _caller_runs(executor, team: int, run: Callable, tasks: list, shares: int) -> list:
    """[run(task) for task in tasks], with this thread one of team workers.

    Of the first ``shares`` tasks, this thread runs the first ceil(shares /
    team) while the executor's team - 1 workers share the rest.  This thread
    then runs the tasks that are no share (a small last chunk, see _shares),
    and only then waits on the executor.  So 8193 trials run in one process,
    and 2 x 8192 + 1 trials at two workers make one child run the second
    chunk.  A team of one is this thread alone, with no executor (None).
    When this thread's own tasks raise, it still waits on the executor
    before the error leaves, and what the workers raised is dropped.
    """
    head = -(-shares // team)
    rest = executor.map(run, tasks[head:shares]) if team > 1 else []
    try:
        mine = [run(task) for task in tasks[:head] + tasks[shares:]]
    except BaseException:
        with suppress(Exception):
            list(rest)
        raise
    # list(rest) waits on the executor and raises what its workers raised
    return mine[:head] + list(rest) + mine[head:]


class _ThreadTeam:
    """Threads beside the calling one, for one round of tasks at a time.

    ``map`` starts at most max_workers threads at once, each running every
    max_workers-th task, and returns an iterator.  Reading it joins every
    thread, then yields the results in task order, or raises the error of
    the first thread that met one.  _caller_runs reads it also when its own
    tasks raise, so no thread outlives its round.  The team holds no
    thread between rounds and needs no shutdown.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def map(self, fn: Callable, tasks: list):
        results, errors = [None] * len(tasks), {}
        count = min(self.max_workers, len(tasks))

        def work(first):
            try:
                for i in range(first, len(tasks), count):
                    results[i] = fn(tasks[i])
            except BaseException as error:
                errors[first] = error

        threads = [threading.Thread(target=work, args=(first,)) for first in range(count)]
        for thread in threads:
            thread.start()
        return self._joined(threads, results, errors)

    @staticmethod
    def _joined(threads: list, results: list, errors: dict):
        for thread in threads:
            thread.join()
        if errors:
            raise errors[min(errors)]
        yield from results


@contextmanager
def shared_pool(workers: int, n_trials: int):
    """Chunk runner for many estimator calls of n_trials each, or None.

    The runner is a process pool with this process as one of its workers
    (see _caller_runs); n_trials fixes which chunks are shares.  Yields
    None when the calls would run their chunks in this process anyway.
    """
    shares = _shares(_chunk_sizes(n_trials))
    processes = _team(workers, shares)
    if processes < 2:
        yield None
        return
    with _process_pool()(max_workers=processes - 1) as executor:
        yield lambda tasks: _caller_runs(executor, processes, _run_chunk, tasks, shares)


def _map_chunks(kernel, payload, radius, n_trials, rng, workers, pool=None, threaded=False):
    """kernel(*payload, radius, n, stream) for each chunk, in chunk order.

    A ``threaded`` kernel takes one more payload item, the threads it may
    run on: ``workers`` when this process runs every chunk, and 1 when pool
    processes keep the other CPUs busy.
    """
    sizes = _chunk_sizes(n_trials)
    # a task carries its stream's seed, not a Generator: before numpy 2.0 an
    # unpickled Generator lost its SeedSequence, and so what it spawns
    bit_generator = np.random.default_rng(rng).bit_generator  # a Generator is used as it is
    seeds = [(type(bit_generator), seed) for seed in bit_generator.seed_seq.spawn(len(sizes))]

    def tasks(threads):
        head = payload + (threads,) if threaded else payload
        return [(kernel, head, radius, sz, seed) for sz, seed in zip(sizes, seeds)]

    if pool is not None and len(sizes) > 1:
        return pool(tasks(1))
    with shared_pool(workers, n_trials) as own:
        if own is not None:
            return own(tasks(1))
    return [_run_chunk(t) for t in tasks(workers)]


def default_workers() -> int:
    """Worker cap from the RIS_SELECT_THREADS environment variable (>= 1)."""
    raw = os.environ.get("RIS_SELECT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------

def policy_scores(cfg: NetworkConfig, policies, n_trials: int, rng, workers: int = 1) -> list[np.ndarray]:
    """Model score of the node each policy selects, per trial (+inf when none).

    Returns one array per policy, in order.  Every policy reads the same
    realizations (common random numbers), sampled in the widest window any
    of them needs, so pathwise comparisons between them are exact.
    """
    policies = tuple(policies)
    if not policies:
        raise ValueError("policy_scores needs at least one policy")
    for policy in policies:
        check_feedback_policy(policy, cfg.model)
    radius = _shared_radius(cfg, policies)
    chunks = _map_chunks(_chunk_scores, (cfg, policies), radius, n_trials, rng, workers)
    return [np.concatenate(scores) for scores in zip(*chunks)]


def _shared_radius(cfg: NetworkConfig, policies) -> float:
    """The widest window any of the policies needs on cfg's geometry, in
    which they all read one sample.  The window depends on the policy and
    the geometry only, so it is solved once per distinct policy."""
    return max(coverage_radius(cfg, policy) for policy in dict.fromkeys(policies))


def sample_key(cfg: NetworkConfig) -> tuple:
    """(intensity, d, path-loss model): what a point-process sample and its
    scores depend on.  Cells with equal keys can read one sample (mc_sweep)."""
    return cfg.intensity, cfg.d, cfg.model


def mc_distance_dist(cfg: NetworkConfig, n_trials: int, rng, workers: int = 1) -> EmpiricalDist:
    """Empirical distribution of the optimum score of cfg.model (min product or min sum)."""
    [scores] = policy_scores(cfg, [SelectionPolicy(OPTIMUM[cfg.model][1])], n_trials, rng, workers)
    return EmpiricalDist(scores)


def mc_sweep(
    cells,
    n_trials: int,
    fading_draws_per_trial: int | None,
    rng,
    workers: int = 1,
    pool: Callable[[list], list] | None = None,
) -> list[tuple[Estimate, Estimate | None]]:
    """Outage and, when fading draws are asked for, rate of every cell.

    cells is a sequence of (NetworkConfig, SelectionPolicy) pairs that share
    their sample_key (intensity, d and path-loss model); they may differ in
    everything else (SNRs, element count, policy, feedback threshold).  All
    cells read the same realizations, sampled in the widest window any of
    them needs, so each cell's result is the same in any sweep of its group
    with the same widest window.
    Returns one (outage, rate) pair per cell, in order; rate is None when
    fading_draws_per_trial is None.  ``pool`` (see ``shared_pool``) runs
    the chunks in place of a pool of this call's own.  When this process
    runs every chunk, workers also caps the threads that draw the fading.
    """
    if not cells:
        raise ValueError("mc_sweep needs at least one cell")
    if fading_draws_per_trial is not None and fading_draws_per_trial < 1:
        raise ValueError(f"fading_draws_per_trial must be >= 1, got {fading_draws_per_trial}")
    m_fading = None if fading_draws_per_trial is None else int(fading_draws_per_trial)
    if m_fading is not None and m_fading * min(n_trials, _CHUNK_TRIALS) > _FADING_BUDGET:
        raise UnsupportedRegionError(
            f"{m_fading} fading draws per trial exceed the Monte Carlo budget of {_FADING_BUDGET} draws per chunk")
    geometry = cells[0][0]
    for cfg, policy in cells:
        if sample_key(cfg) != sample_key(geometry):
            raise ValueError("cells of one sweep must share intensity, d and path-loss model")
        check_feedback_policy(policy, cfg.model)
    radius = _shared_radius(geometry, (policy for _, policy in cells))
    payload = (tuple(cells), m_fading)
    chunks = _map_chunks(_chunk_cells, payload, radius, n_trials, rng, workers, pool, threaded=True)
    n, shift, offset, m2 = functools.reduce(_merge_moments, chunks)
    out = []
    for mean, sq in zip(shift + offset, m2):
        outage = Estimate.from_moments(n, float(mean[0]), float(sq[0]))
        rate = None if m_fading is None else Estimate.from_moments(n, float(mean[1]), float(sq[1]))
        out.append((outage, rate))
    return out


def mc_outage(
    cfg: NetworkConfig,
    policy: SelectionPolicy,
    n_trials: int,
    rng,
    workers: int = 1,
) -> Estimate:
    """Fraction of realizations whose fading-averaged SNR is <= target.

    Randomness is over node locations only (the SNR is already averaged
    over fading); an empty selection counts as an outage.
    """
    [(outage, _)] = mc_sweep([(cfg, policy)], n_trials, None, rng, workers)
    return outage


def mc_rate(
    cfg: NetworkConfig,
    policy: SelectionPolicy,
    n_trials: int,
    fading_draws_per_trial: int,
    rng,
    workers: int = 1,
) -> Estimate:
    """Joint average of log2(1 + snr) over node locations and fading draws.

    Fading is drawn from the cascaded Rayleigh law itself, not the gamma
    surrogate, so agreement with the analytic rate also validates that
    approximation.  The draws take their exponentials from float32
    uniforms (``channel.sample_z_prefixes``), which moves E[Z] and E[Z^2]
    by at most 1.1e-6 relative.
    """
    if fading_draws_per_trial is None:
        raise ValueError("fading_draws_per_trial must be >= 1, got None")
    [(_, rate)] = mc_sweep([(cfg, policy)], n_trials, fading_draws_per_trial, rng, workers)
    return rate


def mc_feedback_dist(
    cfg: NetworkConfig,
    threshold: float,
    n_trials: int,
    rng,
    workers: int = 1,
) -> EmpiricalDist:
    """Distribution of the number of nodes whose model score is <= threshold.

    The window is the smallest origin-centred disc containing the whole
    threshold region, so counts are exact.
    """
    if not threshold > 0.0:  # NaN included; +inf is refused by the point budget
        raise ValueError(f"threshold must be > 0, got {threshold}")
    radius = enclosing_radius(OPTIMUM[cfg.model][0], threshold, cfg.d)
    chunks = _map_chunks(_chunk_feedback_counts, (cfg, threshold), radius, n_trials, rng, workers)
    return EmpiricalDist(np.concatenate(chunks))


def poisson_gof(dist: EmpiricalDist, mean: float, min_expected: float = 5.0):
    """Chi-square goodness of fit of integer samples against Poisson(mean).

    Bins with expected count below ``min_expected`` are merged into their
    neighbours.  Returns (statistic, dof, p_value).
    """
    from scipy import stats  # imported here so that `ris-select run` never loads scipy

    if mean <= 0.0:
        raise ValueError(f"mean must be > 0, got {mean}")
    samples = dist.values.astype(int)
    n = samples.size
    lo = max(0, int(samples.min()) - 1)
    hi = int(samples.max()) + 1
    ks = np.arange(lo, hi + 1)
    pmf = stats.poisson.pmf(ks, mean)
    # open-ended tails so probabilities sum to one
    probs = pmf.copy()
    probs[0] = stats.poisson.cdf(lo, mean)
    probs[-1] = stats.poisson.sf(hi - 1, mean)
    observed = np.bincount(samples - lo, minlength=ks.size).astype(float)

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, p in zip(observed, probs):
        acc_o += o
        acc_e += p * n
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and merged_exp:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    obs = np.asarray(merged_obs)
    exp = np.asarray(merged_exp)
    if obs.size < 2:
        raise ValueError("too few bins with sufficient expected count for a chi-square test")
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    return stat, dof, float(stats.chi2.sf(stat, dof))
