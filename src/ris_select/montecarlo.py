"""Brute-force estimators for every analytic quantity.

Each estimator draws realizations of the point process (``_sample_batch``,
the package's one sampler) inside a finite window sized so the probability
that the infinite process' winner falls outside is below a configurable
epsilon, then evaluates the metric exactly on the sample.  The sampler
draws each trial's Poisson count first and then takes points by rejection
from the window's bounding square, so it needs no trigonometry.  A chunk expected
to hold more points than a fixed budget is refused with
UnsupportedRegionError before anything is drawn.  Trials are processed in
fixed-size chunks (8192 trials), each with its own stream spawned from the
caller's seed, so results are identical regardless of how many worker
processes execute the chunks.
Chunk results merge as (count, mean, sum of squared deviations) with the
pairwise update of Chan, Golub & LeVeque (1979), never as raw sums of
squares.

Outage and rate come from one kernel, ``mc_sweep``, that estimates many
(config, policy) cells at once when they share their geometry (intensity,
d and path-loss model).  Per chunk it samples the point process once, in
the largest window any cell needs.  It forms the model's score array and
the layout of trials in the point arrays once, and takes one segmented
arg-min (linear in the number of points) per distinct criterion, not per
cell: an optimum policy's criterion is the score itself, and a feedback
threshold filters on that same score, so a threshold is a mask on the
unthresholded pick and a whole threshold sweep shares one arg-min.  It
then draws the fading of every trial from the same stream, draws-major
(one row per draw, one column per trial) and accumulated element by
element, so one draw serves every cell and the gain for N elements is the
partial sum of the gain for more.  Path gain and rate are
formed once per distinct (policy, law parameter, SNR, N).  Every cell
thus reads the same realizations (common random numbers), and each
equals what a one-cell ``mc_sweep`` returns for it with the same seed and
the group's window radius.  ``mc_outage`` and ``mc_rate`` are that
one-cell case.

Chunks run in the calling process, or in a pool in which the calling
process is one of the workers.  A last chunk of less than half the chunk
size is no share for a child of its own: the pool has min(workers, usable
CPUs, chunks of at least half the chunk size) processes, the calling
process runs the first share of those chunks and the small tail, and the
children run the rest.  So 8193 trials run in one process, and 2 x 8192 + 1
trials fork one child that runs the second chunk.  A sweep can open one
such pool (``shared_pool``) and pass it to every kernel call.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import NetworkConfig, PathLossModel, sample_z_prefixes, snr_score_cap
from .errors import UnsupportedRegionError, WindowTooSmallError
from .geometry import ScoreKind, critical_score, enclosing_radius, score
from .policies import OPTIMUM, PolicyKind, SelectionPolicy, check_feedback_policy

_CHUNK_TRIALS = 8192
# Fewest trials worth a pool process of their own; a smaller last chunk
# runs in the calling process.
_MIN_SHARE = _CHUNK_TRIALS // 2
_WINDOW_EPS = 1e-6
# Most points one chunk may expect to sample.  Sampling holds 24 bytes per
# point (x, y^2 and a distance array; a block of candidate pairs is fixed
# size) and selection about 48 at its peak, so this caps a chunk near 0.8 GB.
_POINT_BUDGET = 1 << 24
# Candidate pairs the sampler draws at a time (256 KiB of doubles).
_SAMPLE_BLOCK = 1 << 14
_OPTIMUM_SCORE = {optimum: kind for kind, optimum in OPTIMUM.values()}


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


def _as_seed_source(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _lens_area(c: float, d: float) -> float:
    """Area common to the two radius-c discs about the anchors (centres 2d apart)."""
    if c <= d:
        return 0.0
    return 2.0 * c * c * math.acos(d / c) - 2.0 * d * math.sqrt(c * c - d * d)


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
    if kind in _OPTIMUM_SCORE:
        score_kind = _OPTIMUM_SCORE[kind]
        gamma = critical_score(score_kind, lam, d, eps)
        if policy.feedback_threshold is not None:
            gamma = min(gamma, policy.feedback_threshold)
        return max(enclosing_radius(score_kind, gamma, d), 0.5 * d)
    if kind is PolicyKind.MID_POINT:
        return math.sqrt(need / math.pi)
    if kind is PolicyKind.MIN_MIN:
        # {min distance <= c} is the union of two radius-c anchor discs, of
        # area 2 pi c^2 - lens(c) >= pi c^2; it lies in the origin disc of
        # radius d + c.  Bisect for the c at which it holds a point with
        # probability 1 - eps, down to adjacent doubles.
        lo, hi = 0.0, math.sqrt(need / math.pi)
        mid = 0.5 * hi
        while lo < mid < hi:
            if 2.0 * math.pi * mid * mid - _lens_area(mid, d) < need:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return d + hi
    # MIN_MAX: {max distance <= c} is the lens of two radius-c anchor discs,
    # contained in the origin disc of radius sqrt(c^2 - d^2)
    lo, hi = d, d + math.sqrt(need) + d
    while _lens_area(hi, d) < need:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _lens_area(mid, d) < need:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * hi:
            break
    return math.sqrt(hi * hi - d * d)


# ---------------------------------------------------------------------------
# Chunk kernels (top level so worker processes can unpickle them)
# ---------------------------------------------------------------------------

def _sample_batch(lam: float, d: float, radius: float, n: int, rng: np.random.Generator):
    """Vectorized batch of n realizations: anchor distances plus segment map.

    The Poisson(lam pi radius^2) point counts come first, then the points,
    uniform on the disc, in trial order.  Each point is the next pair
    (u, v) of the stream, mapped to [-1, 1]^2, that falls in the unit disc,
    times radius: rejection from the bounding square, with no trigonometry.
    Pairs are drawn _SAMPLE_BLOCK at a time, and since a pair is two
    consecutive doubles the points do not depend on the block size.  A
    batch expected to hold more than _POINT_BUDGET points is refused before
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
    total = int(counts.sum())
    x, y2 = np.empty(total), np.empty(total)
    filled = 0
    while filled < total:
        uv = rng.random((_SAMPLE_BLOCK, 2))
        uv *= 2.0
        uv -= 1.0
        u, v = uv.T
        inside = np.flatnonzero(u * u + v * v <= 1.0)[: total - filled]
        end = filled + inside.size
        x[filled:end] = u[inside]
        y2[filled:end] = v[inside]
        filled = end
    x *= radius
    y2 *= radius
    np.square(y2, out=y2)
    ds, dd = np.add(x, d), np.subtract(x, d, out=x)
    for dist in (ds, dd):
        np.square(dist, out=dist)
        dist += y2
        np.sqrt(dist, out=dist)
    return counts, ds, dd


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


def _criterion_values(kind: PolicyKind, ds: np.ndarray, dd: np.ndarray) -> np.ndarray:
    if kind in _OPTIMUM_SCORE:
        return score(_OPTIMUM_SCORE[kind], ds, dd)
    if kind is PolicyKind.MIN_MIN:
        return np.minimum(ds, dd)
    if kind is PolicyKind.MIN_MAX:
        return np.maximum(ds, dd)
    # MID_POINT: squared distance to origin, monotone equivalent to distance
    return 0.5 * (ds * ds + dd * dd)


def _picks(kinds, score_kind: ScoreKind, counts: np.ndarray, ds: np.ndarray, dd: np.ndarray) -> dict:
    """Per-trial score (of kind score_kind) of the node each policy kind picks.

    No feedback threshold applies here (see _threshold).  One score array
    and one segment layout serve every kind, and each kind takes one
    arg-min; an optimum policy's criterion is the score itself when its
    kind is score_kind.  +inf marks trials with no node.
    """
    seg = _segments(counts)
    scores = score(score_kind, ds, dd)
    out = {}
    for kind in kinds:
        crit = scores if _OPTIMUM_SCORE.get(kind) is score_kind else _criterion_values(kind, ds, dd)
        picked = np.full(counts.size, np.inf)
        picked[seg.nonempty] = scores[_segment_argmin(crit, seg)]
        out[kind] = picked
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


def _select(
    policy: SelectionPolicy,
    score_kind: ScoreKind,
    counts: np.ndarray,
    ds: np.ndarray,
    dd: np.ndarray,
) -> np.ndarray:
    """Per-trial score (of kind score_kind) of the node the policy selects.

    Ties go to the earlier node in sampling order; +inf marks trials with no
    candidate (empty realization, or everything filtered out by the
    feedback threshold).
    """
    return _threshold(_picks([policy.kind], score_kind, counts, ds, dd)[policy.kind], policy)


def _chunk_scores(cfg: NetworkConfig, policy: SelectionPolicy, radius: float, n: int, rng) -> np.ndarray:
    counts, ds, dd = _sample_batch(cfg.intensity, cfg.d, radius, n, rng)
    return _select(policy, OPTIMUM[cfg.model][0], counts, ds, dd)


def _chunk_feedback_counts(
    cfg: NetworkConfig, threshold: float, radius: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial number of nodes whose model score is <= threshold."""
    counts, ds, dd = _sample_batch(cfg.intensity, cfg.d, radius, n, rng)
    trial = np.repeat(np.arange(n), counts)
    return np.bincount(trial[score(OPTIMUM[cfg.model][0], ds, dd) <= threshold], minlength=n)


def _path_gain(cfg: NetworkConfig, picked: np.ndarray) -> np.ndarray:
    """1/G at each pick: score^-eta or exp(-alpha score); 1 where there is none."""
    s = np.where(np.isfinite(picked), picked, 1.0)
    if cfg.model is PathLossModel.POWER_LAW:
        return s ** (-cfg.eta)
    return np.exp(-cfg.alpha * s)


def _rates(snr: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Per-trial log2(1 + snr Z^2) averaged over the fading draws in z2.

    z2 holds Z^2 draws-major, one row per draw and one column per trial,
    so the average is a few contiguous row adds.
    """
    inst = z2 * snr
    return np.log1p(inst, out=inst).mean(axis=0) / math.log(2.0)


def _chunk_cells(cells, m_fading, radius, n, rng) -> tuple:
    """``_moments`` of every cell's per-trial outage (and rate) in one chunk.

    One point-process sample serves all cells, and each distinct policy
    kind takes one arg-min; feedback thresholds are masks on that pick.  The
    fading is drawn after the selection, from the same stream, for every
    trial (selected or not) and once for all cells, so neither the policies
    nor the other cells change what a cell reads.  The path gain is formed
    once per (policy kind, eta, alpha) and the rate once per (policy kind,
    eta, alpha, avg_snr, N); a cell with a threshold masks that rate to 0
    where its pick is filtered out.
    """
    geometry = cells[0][0]
    counts, ds, dd = _sample_batch(geometry.intensity, geometry.d, radius, n, rng)
    kinds = dict.fromkeys(policy.kind for _, policy in cells)
    picks = _picks(kinds, OPTIMUM[geometry.model][0], counts, ds, dd)
    if m_fading is not None:
        z = sample_z_prefixes({cfg.n_elements for cfg, _ in cells}, rng, (m_fading, n))
        z2 = {size: gain * gain for size, gain in z.items()}
    gains, rates = {}, {}
    values = np.empty((len(cells), 1 if m_fading is None else 2, n))
    for row, (cfg, policy) in zip(values, cells):
        picked = picks[policy.kind]
        chosen = _threshold(picked, policy)
        row[0] = ~(chosen < snr_score_cap(cfg))
        if m_fading is None:
            continue
        gain_key = (policy.kind, cfg.eta, cfg.alpha)
        rate_key = gain_key + (cfg.avg_snr, cfg.n_elements)
        if rate_key not in rates:
            if gain_key not in gains:
                gains[gain_key] = _path_gain(cfg, picked)
            rates[rate_key] = _rates(cfg.avg_snr * gains[gain_key], z2[cfg.n_elements])
        row[1] = np.where(np.isfinite(chosen), rates[rate_key], 0.0)
    return _moments(values)


def _run_chunk(task) -> object:
    kernel, payload, radius, n, rng = task
    return kernel(*payload, radius, n, rng)


def _n_chunks(n_trials: int) -> int:
    return (n_trials + _CHUNK_TRIALS - 1) // _CHUNK_TRIALS


def _processes(workers: int, n_trials: int) -> int:
    """Processes worth running chunks in, this one included: no more than
    workers, usable CPUs, or chunks of at least _MIN_SHARE trials."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    full, tail = divmod(n_trials, _CHUNK_TRIALS)
    return max(1, min(workers, full + (tail >= _MIN_SHARE), cpus))


def _caller_runs(executor: ProcessPoolExecutor, processes: int, tasks: list) -> list:
    """Every task's result, in order, with this process as one of the workers.

    A last task of fewer than _MIN_SHARE trials runs in this process.  Of
    the others, this process runs the first ceil(count / processes) while
    the executor's processes - 1 workers share the rest, so two full chunks
    and a 1-trial tail make one child run the second chunk.
    """
    small_tail = tasks[-1][3] < _MIN_SHARE  # a task's trial count is its item 3
    shared = tasks[:-1] if small_tail else tasks
    head = -(-len(shared) // processes)
    rest = executor.map(_run_chunk, shared[head:])
    mine = [_run_chunk(task) for task in shared[:head]]
    tail = [_run_chunk(tasks[-1])] if small_tail else []
    return mine + list(rest) + tail


@contextmanager
def shared_pool(workers: int, n_trials: int):
    """Chunk runner for many estimator calls of n_trials each, or None.

    The runner is a process pool with this process as one of its workers,
    so it starts ``_processes(workers, n_trials)`` - 1 children.  Yields
    None when the calls would run their chunks in this process anyway.
    """
    processes = _processes(workers, n_trials)
    if processes < 2:
        yield None
        return
    with ProcessPoolExecutor(max_workers=processes - 1) as executor:
        yield functools.partial(_caller_runs, executor, processes)


def _map_chunks(kernel, payload, radius, n_trials, rng, workers, pool=None):
    """kernel(*payload, radius, n, stream) for each chunk, in chunk order."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    source = _as_seed_source(rng)
    n_chunks = _n_chunks(n_trials)
    streams = source.spawn(n_chunks)
    sizes = [_CHUNK_TRIALS] * (n_chunks - 1) + [n_trials - _CHUNK_TRIALS * (n_chunks - 1)]
    tasks = [(kernel, payload, radius, sz, st) for sz, st in zip(sizes, streams)]
    if pool is not None and n_chunks > 1:
        return pool(tasks)
    with shared_pool(workers, n_trials) as own:
        if own is not None:
            return own(tasks)
    return [_run_chunk(t) for t in tasks]


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

def policy_scores(
    cfg: NetworkConfig,
    policy: SelectionPolicy,
    n_trials: int,
    rng,
    window_radius_override: float | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Model score of the selected node for each trial (+inf when none).

    Passing the same rng seed and the same window radius to several calls
    gives common random numbers: every policy then sees identical
    realizations, making pathwise comparisons exact.
    """
    check_feedback_policy(policy, cfg.model)
    radius = _window(coverage_radius(cfg, policy), window_radius_override)
    return np.concatenate(_map_chunks(_chunk_scores, (cfg, policy), radius, n_trials, rng, workers))


def _window(needed: float, override: float | None) -> float:
    """The radius an estimator needs, or the override if it is at least that."""
    if override is None:
        return needed
    if not override > 0.0:
        raise ValueError(f"window_radius_override must be > 0, got {override}")
    if override < needed * (1.0 - 1e-12):
        raise WindowTooSmallError(f"window radius {override} is below the radius {needed} the estimate needs")
    return override


def mc_distance_dist(cfg: NetworkConfig, n_trials: int, rng, workers: int = 1) -> EmpiricalDist:
    """Empirical distribution of the optimum score of cfg.model (min product or min sum)."""
    policy = SelectionPolicy(OPTIMUM[cfg.model][1])
    return EmpiricalDist(policy_scores(cfg, policy, n_trials, rng, workers=workers))


def mc_sweep(
    cells,
    n_trials: int,
    fading_draws_per_trial: int | None,
    rng,
    window_radius_override: float | None = None,
    workers: int = 1,
    pool: Callable[[list], list] | None = None,
) -> list[tuple[Estimate, Estimate | None]]:
    """Outage and, when fading draws are asked for, rate of every cell.

    cells is a sequence of (NetworkConfig, SelectionPolicy) pairs that share
    intensity, d and path-loss model; they may differ in everything else
    (SNRs, element count, policy, feedback threshold).  All cells read the
    same realizations, sampled in the largest window any of them needs, or
    in window_radius_override, which must cover every cell.  Returns one
    (outage, rate) pair per cell, in order; rate is None when
    fading_draws_per_trial is None.  ``pool`` (see ``shared_pool``) runs
    the chunks in place of a pool of this call's own.
    """
    if not cells:
        raise ValueError("mc_sweep needs at least one cell")
    if fading_draws_per_trial is not None and fading_draws_per_trial < 1:
        raise ValueError(f"fading_draws_per_trial must be >= 1, got {fading_draws_per_trial}")
    geometry = cells[0][0]
    for cfg, policy in cells:
        if (cfg.intensity, cfg.d, cfg.model) != (geometry.intensity, geometry.d, geometry.model):
            raise ValueError("cells of one sweep must share intensity, d and path-loss model")
        check_feedback_policy(policy, cfg.model)
    # the window depends on the policy and the shared geometry only
    policies = dict.fromkeys(policy for _, policy in cells)
    radius = max(_window(coverage_radius(geometry, policy), window_radius_override) for policy in policies)
    m_fading = None if fading_draws_per_trial is None else int(fading_draws_per_trial)
    payload = (tuple(cells), m_fading)
    chunks = _map_chunks(_chunk_cells, payload, radius, n_trials, rng, workers, pool)
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
    window_radius_override: float | None = None,
    workers: int = 1,
) -> Estimate:
    """Fraction of realizations whose fading-averaged SNR is <= target.

    Randomness is over node locations only (the SNR is already averaged
    over fading); an empty selection counts as an outage.
    """
    [(outage, _)] = mc_sweep([(cfg, policy)], n_trials, None, rng, window_radius_override, workers)
    return outage


def mc_rate(
    cfg: NetworkConfig,
    policy: SelectionPolicy,
    n_trials: int,
    fading_draws_per_trial: int,
    rng,
    window_radius_override: float | None = None,
    workers: int = 1,
) -> Estimate:
    """Joint average of log2(1 + snr) over node locations and exact fading.

    Fading uses the exact cascaded Rayleigh draw, not the gamma surrogate,
    so agreement with the analytic rate also validates that approximation.
    """
    if fading_draws_per_trial is None:
        raise ValueError("fading_draws_per_trial must be >= 1, got None")
    [(_, rate)] = mc_sweep(
        [(cfg, policy)], n_trials, fading_draws_per_trial, rng, window_radius_override, workers
    )
    return rate


def mc_feedback_dist(
    cfg: NetworkConfig,
    threshold: float,
    n_trials: int,
    rng,
    window_radius_override: float | None = None,
    workers: int = 1,
) -> EmpiricalDist:
    """Distribution of the number of nodes whose model score is <= threshold.

    The window must contain the whole threshold region so counts are exact;
    an explicitly passed radius that does not is an error.
    """
    if not threshold > 0.0:  # NaN included; +inf is refused by the point budget
        raise ValueError(f"threshold must be > 0, got {threshold}")
    radius = _window(enclosing_radius(OPTIMUM[cfg.model][0], threshold, cfg.d), window_radius_override)
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
