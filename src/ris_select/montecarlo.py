"""Brute-force estimators for every analytic quantity.

Each estimator runs the package's one sampler, ``_nearest_first``, which
gives each trial's nodes in increasing distance r from the anchors'
midpoint: lambda pi r_k^2 is the k-th arrival of a unit-rate Poisson
process (Haenggi 2012, ch. 2).  The spacings are unit exponentials from
the chunk's stream jumped ahead, and each direction comes from the next
point that rejection from the square puts in the unit disc, with no
trigonometry.  Round k takes the k-th arrival of every trial still
running.  A trial stops once the bound at its next
arrival exceeds the best so far of every criterion: a node at distance r
has ds dd >= r^2 - d^2, ds + dd >= 2r, min(ds, dd) >= r - d and max(ds,
dd) >= sqrt(r^2 + d^2), and mid-point's criterion is r itself.  A feedback
count stops past ``enclosing_radius(T)``.  So every pick is the pick over
the infinite process: no window truncates it, and no estimator reads a
sublevel area (``critical_score``) or a window radius
(``coverage_radius``, which remains for the benchmark's point count
alone).  The stopping rule reads every criterion whichever policies are
asked for, and each arrival is fixed by the stream, its trial and its
index, so a cell's estimate is the same whichever cells share its call.
A chunk that must draw more arrivals, or fading draws, than its budget
allows is refused with UnsupportedRegionError before anything is drawn.
Trials are processed in fixed-size chunks (8192 trials), each with its own
stream spawned from the caller's seed, so results are identical regardless
of how many threads run the chunks.  Chunk results merge as
(count, mean, sum of squared deviations) with the pairwise update of Chan,
Golub & LeVeque (1979), never as raw sums of squares.

Outage and rate come from one kernel, ``mc_sweep``, that estimates many
(config, policy) cells at once when they share their geometry (intensity,
d and path-loss model).  Per chunk it runs the sampler once, keeping the
pick of every policy kind.  The optimum policy's criterion is its score,
and a feedback threshold filters on that same score, so a threshold is a
mask on the unthresholded pick and a whole threshold sweep shares one
pick.  It then draws the fading of every trial into one Z array,
draws-major (one row per draw, one column per trial) and accumulated
element by element, so one draw serves every cell and the gain for N
elements is the partial sum of the gain for more.  It draws up to one
wanted N at a time, in ascending order, and reduces that N's cells before
it draws further elements, so a sweep over N holds one Z array (and one
Z^2 scratch) at any number of element counts.  The fading comes in fixed
blocks of 4096 trials, each drawn from a stream of its own spawned from
the chunk's stream.  Path gain and rate are formed once per distinct
(policy, law parameter, SNR, N).  Every cell thus reads the same
realizations (common random numbers).  ``mc_outage`` and ``mc_rate`` are
the one-cell case, and ``policy_scores`` shares one sample among policies
in the same way.

Chunks that draw fading run on up to ``workers`` threads, the calling
thread included; when the calling thread runs every chunk, the fading
blocks of each chunk run on such threads instead.  numpy releases the GIL
while it fills an array from a stream or runs a ufunc over one, so the
threads overlap in most of the fading work.  The sampler's small calls
hold the GIL far more, so chunks that draw no fading run in turn on the
calling thread.  One rule (``_share``) splits chunks and blocks alike, and
since the chunk and block layout alone fixes the streams, it changes no
result.
The threads come from ``threading`` (which ``numpy.random`` loads anyway):
``_share`` starts them for one round of tasks and joins them before it
returns or raises, so no thread outlives its round, and a run loads
neither ``concurrent.futures`` nor ``multiprocessing``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .channel import NetworkConfig, PathLossModel, sample_z_prefixes, snr_score_cap
from .errors import UnsupportedRegionError
from .geometry import (_solve_increasing, critical_score, enclosing_radius, min_max_region_area,
                       min_min_region_area, score)
from .policies import OPTIMUM, OPTIMUM_SCORE, PolicyKind, SelectionPolicy, check_feedback_policy

_CHUNK_TRIALS = 8192
# Fewest trials worth a thread of their own; a smaller last chunk runs on
# the calling thread.
_MIN_SHARE = _CHUNK_TRIALS // 2
# Trials per fading block: each block of a chunk draws its fading from a
# stream of its own, so the blocks may run on any number of threads.
_FADING_BLOCK = _CHUNK_TRIALS // 2
# Window escape probability of coverage_radius, which no estimator calls.
_WINDOW_EPS = 1e-6
# Most arrivals one chunk may expect to draw (see _nearest_first): picking
# takes about 55 ns per arrival at 500 arrivals per trial, so about 0.9 s
# per chunk at the budget.
_POINT_BUDGET = 1 << 24
# Candidate pairs the sampler draws at a time (64 KiB of doubles).
_PAIR_BLOCK = 1 << 12
# Most fading draws (per trial, times trials) one chunk may hold: at 16 to 32
# bytes each, at most 128 MiB.  Z takes 8, the Z^2 scratch of a chunk of
# more than one element count 8, and the element a block is drawing 16 per
# draw of the block's trials (its words and its float32 pair), so 8 on one
# thread and 16 when a chunk's two blocks draw at once on two.
_FADING_BUDGET = 1 << 22


# Kept only because perfbench's tracer and tests/test_tracer_names.py look the name up; nothing here uses it.
def __getattr__(name: str):
    """ProcessPoolExecutor, imported from concurrent.futures on first access
    (PEP 562)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


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

    No estimator samples in a window; the benchmark's worker (perfbench)
    reads this to report points per trial.  Optimum policies and min-min
    use the exact void probability of the region where their criterion is
    below its eps-quantile level; min-max and mid-point use conservative
    disc bounds on that region.  A feedback threshold can only shrink the
    region that matters.
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
# Chunk kernels
# ---------------------------------------------------------------------------

def _disc_points(rng: np.random.Generator, n: int):
    """Points uniform on the unit disc, n at a time, as rows u and v.

    Each point is the next pair (u, v) of the stream, mapped to [-1, 1]^2,
    that falls in the disc: rejection from the bounding square.  Pairs are
    drawn _PAIR_BLOCK at a time, and the accepted pairs a yield does not
    take are left to the next, so every point is the same at any block size.
    Every yield fills the same (2, n) array.
    """
    points, left = np.empty((2, n)), np.empty((2, 0))
    pairs, r2 = np.empty((_PAIR_BLOCK, 2)), np.empty(_PAIR_BLOCK)
    a, b = pairs.T
    while True:
        filled = min(n, left.shape[1])
        points[:, :filled], left = left[:, :filled], left[:, filled:]
        while filled < n:
            rng.random(out=pairs)
            pairs *= 2.0
            pairs -= 1.0
            np.multiply(a, a, out=r2)
            r2 += b * b
            inside = np.flatnonzero(r2 <= 1.0)
            take, rest = inside[: n - filled], inside[n - filled :]
            for row, values in zip(points, (a, b)):
                row[filled : filled + take.size] = values[take]
            filled += take.size
            left = np.stack((a[rest], b[rest]))
        yield points


def _nearest_first(lam: float, d: float, rng: np.random.Generator, visit: Callable, inner: float,
                   live: np.ndarray) -> None:
    """Runs visit over the nodes of live.shape[1] trials in increasing distance
    from the anchors' midpoint.

    Round k visits the k-th node (arrival) of every trial still running:
    visit(trials, live, s, ds, dd) gets those trials' indices, their columns
    of live (per-trial state it updates in place), the squared distances s
    of their k-th arrivals from the midpoint and the distances ds, dd to
    the anchors at (-d, 0) and (d, 0).  It returns the squared distance
    beyond which no further node can change what it records, per trial or
    one for all, and a trial stops at its first arrival beyond it.  Every
    trial's first arrival is visited.

    lam pi s_k is the k-th arrival of a unit-rate Poisson process, a sum of
    k unit exponentials (Haenggi 2012, ch. 2): numpy's ziggurat on the
    chunk's stream jumped ahead (2.1e38 draws on, for PCG64).  A direction
    is (u, v) / |(u, v)| for the next point of _disc_points: no
    trigonometry, and no transcendental ufunc, whose last bits vary with
    numpy's SIMD level.  Round k takes the k-th n exponentials and points,
    the i-th for trial i, whether or not trial i still runs, so an arrival
    depends on the stream, its trial and its index alone.  A chunk that
    must draw more than _POINT_BUDGET arrivals on average before its trials
    can stop (all pass the squared distance inner) is refused before
    anything is drawn.  The distances are sqrt((x +- d)^2 + y^2): within 2
    ulp of np.hypot, at a fraction of its cost.
    """
    n = live.shape[1]
    arrivals = lam * math.pi * inner + 1.0  # per trial, the one beyond inner included
    if not arrivals * n <= _POINT_BUDGET:
        raise UnsupportedRegionError(
            f"{arrivals:.3g} arrivals per trial: {n} trials exceed the Monte Carlo "
            f"budget of {_POINT_BUDGET} arrivals per chunk"
        )
    per_area = 1.0 / (lam * math.pi)
    spacings = np.random.Generator(rng.bit_generator.jumped())
    trials, total, reach = np.arange(n), np.zeros(n), math.inf
    work = np.empty((3, n))  # a round's spacings (then scales), squared distances and ds
    for points in _disc_points(rng, n):
        gaps, s, ds = work
        spacings.standard_exponential(out=gaps)
        m = trials.size
        if m < n:  # in place, a row at a time, so no row is held twice
            for row in (gaps, *points):
                row[:m] = row[trials]
        u, v = points[:, :m]
        total += gaps[:m]
        s = np.multiply(total, per_area, out=s[:m])
        go = s <= reach
        if not go.all():
            keep = np.flatnonzero(go)
            m = keep.size
            if not m:
                return
            for row in (trials, total, s, u, v, *live):
                row[:m] = row[keep]
            trials, total, s, u, v, live = (a[..., :m] for a in (trials, total, s, u, v, live))
        scale = np.square(u, out=gaps[:m])
        scale += v * v
        np.sqrt(np.divide(s, scale, out=scale), out=scale)
        x = np.multiply(u, scale, out=u)
        y2 = np.square(np.multiply(v, scale, out=v), out=v)
        ds, dd = np.add(x, d, out=ds[:m]), np.subtract(x, d, out=x)
        for dist in (ds, dd):
            np.square(dist, out=dist)
            dist += y2
            np.sqrt(dist, out=dist)
        reach = visit(trials, live, s, ds, dd)


# The policy kinds in the row order of _picks, and the criterion each
# minimises as a ufunc of (ds, dd).  Mid-point minimises the distance to the
# anchors' midpoint (None: the arrival's own s), and so picks the first arrival.
_KINDS = (PolicyKind.OPT_PRODUCT, PolicyKind.OPT_SUM, PolicyKind.MIN_MIN, PolicyKind.MIN_MAX,
          PolicyKind.MID_POINT)
_CRITERIA = (np.multiply, np.add, np.minimum, np.maximum, None)


def _picks(cfg: NetworkConfig, kinds, n: int, rng: np.random.Generator) -> dict:
    """Per-trial model score of the node each of the (distinct) policy kinds
    picks from n trials.

    The nodes are ``_nearest_first``'s.  Five criteria keep their running
    minima whichever kinds are asked for: the distance product and sum,
    min(ds, dd), max(ds, dd) and the squared distance s from the midpoint;
    each asked-for kind keeps the model score at its criterion's minimum,
    the first of equal minima.  A node at distance r from the midpoint has
    ds dd >= r^2 - d^2, ds + dd >= 2r, min(ds, dd) >= r - d and max(ds, dd)
    >= sqrt(r^2 + d^2) (the triangle inequality and ds^2 + dd^2 = 2 (r^2 +
    d^2)), so a trial stops at its first node beyond max(P + d^2, S^2 / 4,
    (m + d)^2, M^2 - d^2), where P, S, m and M are the first four running
    minima: no node beyond it can lower any of them.  Each pick is then
    the pick over all of the trial's nodes, and no trial stops within d of
    the midpoint.  No feedback threshold applies here (see _threshold); a
    trial no node reaches keeps +inf.
    """
    d2 = cfg.d * cfg.d
    score_kind = OPTIMUM[cfg.model][0]
    wanted = {_KINDS.index(kind): i for i, kind in enumerate(kinds)}  # criterion row -> row of picked
    picked, work = [np.full(n, np.inf) for _ in wanted], np.empty(n)

    def visit(trials, mins, s, ds, dd):
        scores, crit = score(score_kind, ds, dd), work[: s.size]
        for row, criterion in enumerate(_CRITERIA):
            value = s if criterion is None else criterion(ds, dd, out=crit)
            if row in wanted:
                lower = np.flatnonzero(value < mins[row])
                picked[wanted[row]][trials[lower]] = scores[lower]
            np.minimum(mins[row], value, out=mins[row])
        product, total, near, far, _ = mins
        reach = np.add(product, d2)
        np.maximum(reach, np.multiply(np.square(total, out=crit), 0.25, out=crit), out=reach)
        np.maximum(reach, np.square(np.add(near, cfg.d, out=crit), out=crit), out=reach)
        return np.maximum(reach, np.subtract(np.square(far, out=crit), d2, out=crit), out=reach)

    _nearest_first(cfg.intensity, cfg.d, rng, visit, d2, np.full((len(_KINDS), n), np.inf))
    return dict(zip(kinds, picked))


def _threshold(picked: np.ndarray, policy: SelectionPolicy) -> np.ndarray:
    """The pick of policy.kind under the policy's feedback threshold T.

    Only the optimum policy of the model takes a threshold (see
    policies.check_feedback_policy), and it filters on the very score it
    minimises: the pick among the nodes with score <= T is the unfiltered
    pick when that is <= T, and no node (+inf) otherwise.
    """
    t = policy.feedback_threshold
    return picked if t is None else np.where(picked <= t, picked, np.inf)


def _chunk_scores(cfg: NetworkConfig, policies: tuple, n: int, rng) -> list:
    """Per-trial model score of the node each policy selects (+inf when none)."""
    picks = _picks(cfg, dict.fromkeys(policy.kind for policy in policies), n, rng)
    return [_threshold(picks[policy.kind], policy) for policy in policies]


def _chunk_feedback_counts(cfg: NetworkConfig, threshold: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-trial number of nodes whose model score is <= threshold.

    No node beyond enclosing_radius(threshold) scores <= threshold, so each
    trial stops at its first arrival beyond it and every count is exact.
    """
    score_kind = OPTIMUM[cfg.model][0]
    reach = enclosing_radius(score_kind, threshold, cfg.d) ** 2
    counts = np.zeros(n, np.intp)

    def visit(trials, live, s, ds, dd):
        counts[trials] += score(score_kind, ds, dd) <= threshold
        return reach

    _nearest_first(cfg.intensity, cfg.d, rng, visit, reach, np.empty((0, n)))
    return counts


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
    every block draws its elements up to the next N.  The blocks of a round
    run as shares (see _share) on at most ``threads`` threads, this one
    included, and the round joins every thread it started before it returns
    or raises, so no thread is alive between rounds; on one thread they are
    drawn here in turn.  Z^2 is formed in one reused (m, n) array for every
    N but the largest, and in Z itself for that.
    """
    sizes = sorted(set(sizes))
    starts = range(0, n, _FADING_BLOCK)
    z = np.empty((m, n))
    blocks = [sample_z_prefixes(sizes, stream, z[:, start : start + _FADING_BLOCK])
              for start, stream in zip(starts, rng.spawn(len(starts)))]
    scratch = np.empty_like(z) if len(sizes) > 1 else None
    threads = _team(threads, len(blocks))
    for size in sizes:
        _share(next, blocks, threads, len(blocks))
        yield size, np.square(z, out=z if size == sizes[-1] else scratch)


def _chunk_cells(cells, m_fading, threads, n, rng) -> tuple:
    """``_moments`` of every cell's per-trial outage (and rate) in one chunk.

    One pass of the sampler serves all cells: _picks keeps every policy
    kind's pick, and feedback thresholds are masks on the optimum's pick.
    The fading is drawn after the selection, from streams spawned from the
    chunk's stream, for every trial (selected or not) and once for all
    cells, so neither the policies nor the other cells change what a cell
    reads.  It is drawn one element count at a time (see _fading_power,
    which runs it on up to ``threads`` threads), and each count's cells are
    reduced before any further element is drawn.  The cells are grouped by
    N, then by (policy kind, eta, alpha), then by avg_snr, in order of first
    appearance: each middle group forms one path gain, and each inner group
    one rate in one reused (2, trials) scratch (see _rates), which a cell
    with a threshold masks to 0 where its pick is filtered out.  Each
    cell's rows are reduced as soon as they are formed, in one reused
    buffer, and numpy reduces each row on its own, so the moments are
    those of one reduction of every row.  At 8192 trials the sampler
    traces 1.4-1.5 MiB at its peak; the fading adds the (draws, trials) Z^2
    scratch for a second element count (0.5 MiB at 8 draws), no more.
    """
    picks = _picks(cells[0][0], dict.fromkeys(policy.kind for _, policy in cells), n, rng)
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


def _chunk_sizes(n_trials: int) -> list:
    """Trial counts of an estimate's chunks: full chunks, then what is left."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    full, rest = divmod(n_trials, _CHUNK_TRIALS)
    return [_CHUNK_TRIALS] * full + [rest] * (rest > 0)


def _cpus() -> int:
    """CPUs this process may run on; no team of threads is larger."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _shares(sizes: list) -> int:
    """How many chunks of these trial counts are worth a thread of their
    own: all but a last chunk of fewer than _MIN_SHARE trials."""
    return len(sizes) - (sizes[-1] < _MIN_SHARE)


def _team(workers: int, shares: int) -> int:
    """Threads worth running this many shares, this one included: no more
    than workers, usable CPUs or shares."""
    return max(1, min(workers, _cpus(), shares))


def _share(run: Callable, tasks: list, team: int, shares: int) -> list:
    """[run(task) for task in tasks], on team threads, this one included.

    Of the first ``shares`` tasks, this thread runs the first ceil(shares /
    team), then the tasks that are no share (a small last chunk, see
    _shares), while team - 1 threads that it starts share the rest, each
    running every (team - 1)-th.  So 8193 trials run on this thread alone,
    and 2 x 8192 + 1 trials at two workers make one other thread run the
    second chunk.  Every thread is joined before this returns or raises.
    An error of this thread's own tasks leaves as it is; otherwise the
    error of the lowest task that failed is raised.
    """
    head = -(-shares // team)
    rest = range(head, shares)
    count = min(team - 1, len(rest))
    results, errors = [None] * len(tasks), {}

    def work(indices):
        for i in indices:
            try:
                results[i] = run(tasks[i])
            except BaseException as error:
                errors[i] = error
                return

    threads = [threading.Thread(target=work, args=(rest[k::count],)) for k in range(count)]
    for thread in threads:
        thread.start()
    try:
        for i in [*range(head), *range(shares, len(tasks))]:
            results[i] = run(tasks[i])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _map_chunks(kernel, payload, n_trials, rng, workers, threaded=False):
    """kernel(*payload, n, stream) for each chunk, in chunk order.

    A ``threaded`` kernel draws fading.  Its chunks run as shares (see
    _share) on up to ``workers`` threads, and it takes one more payload
    item, the threads it may draw its fading on: ``workers`` when this
    thread runs every chunk, and 1 when other chunk threads keep the other
    CPUs busy.  The chunks of other kernels only sample the geometry, and
    they run in turn on this thread: the sampler makes about a hundred
    numpy calls per round, many on arrays too short for numpy to release
    the GIL, and on two threads its chunks ran slower than on one
    (BENCH_thread_chunks.json).
    """
    sizes = _chunk_sizes(n_trials)
    streams = np.random.default_rng(rng).spawn(len(sizes))  # a Generator is used as it is
    shares = _shares(sizes) if threaded else 0
    team = _team(workers, shares)
    if threaded:
        payload += (workers if team == 1 else 1,)
    return _share(lambda task: kernel(*payload, *task), list(zip(sizes, streams)), team, shares)


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
    realizations (common random numbers), so pathwise comparisons between
    them are exact, and each array is the same in any call with that seed.
    """
    policies = tuple(policies)
    if not policies:
        raise ValueError("policy_scores needs at least one policy")
    for policy in policies:
        check_feedback_policy(policy, cfg.model)
    chunks = _map_chunks(_chunk_scores, (cfg, policies), n_trials, rng, workers)
    return [np.concatenate(scores) for scores in zip(*chunks)]


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
) -> list[tuple[Estimate, Estimate | None]]:
    """Outage and, when fading draws are asked for, rate of every cell.

    cells is a sequence of (NetworkConfig, SelectionPolicy) pairs that share
    their sample_key (intensity, d and path-loss model); they may differ in
    everything else (SNRs, element count, policy, feedback threshold).  All
    cells read the same realizations, and each cell's result is the same in
    any sweep of its group with that seed.
    Returns one (outage, rate) pair per cell, in order; rate is None when
    fading_draws_per_trial is None.  workers caps the threads that run the
    chunks, or, when this thread runs every chunk, those that draw its
    fading; with no fading draws every chunk runs on this thread.
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
    payload = (tuple(cells), m_fading)
    workers = 1 if m_fading is None else workers
    chunks = _map_chunks(_chunk_cells, payload, n_trials, rng, workers, threaded=True)
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

    Each trial counts its nodes up to the smallest origin-centred disc
    containing the whole threshold region, so counts are exact.
    """
    if not threshold > 0.0:  # NaN included; +inf is refused by the arrival budget
        raise ValueError(f"threshold must be > 0, got {threshold}")
    chunks = _map_chunks(_chunk_feedback_counts, (cfg, threshold), n_trials, rng, workers)
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
