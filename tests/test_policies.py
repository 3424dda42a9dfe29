"""Selection policies and the feedback filter, as the Monte Carlo engine
applies them: montecarlo._picks, montecarlo._threshold and
montecarlo._chunk_feedback_counts, on given nodes (given_nodes) or sampled ones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_select import montecarlo
from ris_select.channel import NetworkConfig, PathLossModel
from ris_select.geometry import ScoreKind, score
from ris_select.montecarlo import _chunk_feedback_counts, _picks, _threshold, mc_feedback_dist
from ris_select.policies import OPTIMUM, PolicyKind, SelectionPolicy, check_feedback_policy

ALL_KINDS = list(PolicyKind)
PRODUCT, SUM = ScoreKind.MIN_PRODUCT, ScoreKind.MIN_SUM


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


def given_nodes(counts, ds, dd):
    """Stand-in for montecarlo._nearest_first that visits the given nodes
    (trials of the given node counts, concatenated) in storage order and
    never stops a trial early.  _picks reads a node's squared distance s
    from the midpoint only as the mid-point criterion, which any increasing
    function of s serves: ds^2 + dd^2 = 2 (s + d^2) is passed in its place."""
    starts = np.cumsum(counts) - counts

    def nearest_first(lam, d, rng, visit, inner, live):
        for k in range(counts.max(initial=0)):
            trials = np.flatnonzero(counts > k)
            at = starts[trials] + k
            columns = live[:, trials]
            visit(trials, columns, ds[at] ** 2 + dd[at] ** 2, ds[at], dd[at])
            live[:, trials] = columns

    return nearest_first


def _select(policy, kind, counts, ds, dd):
    """Per-trial score (of the given kind) of the node the policy picks from
    trials of the given point counts, +inf where there is none: the engine's
    pick (_picks, on the given nodes) under the policy's threshold."""
    model = next(model for model, (score_kind, _) in OPTIMUM.items() if score_kind is kind)
    cfg = NetworkConfig(d=1.2, intensity=1.0, n_elements=1, model=model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_nearest_first", given_nodes(counts, ds, dd))
        picks = _picks(cfg, [policy.kind], counts.size, None)
    return _threshold(picks[policy.kind], policy)


def anchor_distances(points, d=1.2):
    """np.hypot distances of each (x, y) row of points to the anchors (-d, 0) and (d, 0)."""
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return np.hypot(x + d, y), np.hypot(x - d, y)


def select(policy, points, kind=PRODUCT):
    """Score (of the given kind) of the node the policy picks from one trial's points."""
    ds, dd = anchor_distances(points)
    return _select(policy, kind, np.array([ds.size]), ds, dd)[0]


def argmin_oracle(policy, kind, counts, ds, dd):
    """Per-trial np.argmin reference for _select (first minimum wins)."""
    criterion = {
        PolicyKind.OPT_PRODUCT: ds * dd, PolicyKind.OPT_SUM: ds + dd,
        PolicyKind.MIN_MIN: np.minimum(ds, dd), PolicyKind.MIN_MAX: np.maximum(ds, dd),
        PolicyKind.MID_POINT: ds * ds + dd * dd,
    }[policy.kind]
    score = ds * dd if kind is PRODUCT else ds + dd
    out = np.full(counts.size, np.inf)
    for trial, (lo, hi) in enumerate(zip(np.cumsum(counts) - counts, np.cumsum(counts))):
        keep = np.arange(lo, hi)
        if policy.feedback_threshold is not None:
            keep = keep[score[keep] <= policy.feedback_threshold]
        if keep.size:
            out[trial] = score[keep[np.argmin(criterion[keep])]]
    return out


def feedback_counts(model, threshold, points_per_trial, monkeypatch):
    """_chunk_feedback_counts on the given trials in place of sampled ones."""
    counts = np.array([len(p) for p in points_per_trial])
    pts = [xy for p in points_per_trial for xy in p]
    monkeypatch.setattr(montecarlo, "_nearest_first", given_nodes(counts, *anchor_distances(pts)))
    cfg = NetworkConfig(d=1.2, intensity=1.0, n_elements=1, model=model)
    return _chunk_feedback_counts(cfg, threshold, counts.size, None)


class TestSelect:
    def test_singleton_selected_by_all(self):
        for kind in ALL_KINDS:
            assert select(SelectionPolicy(kind), [[0.0, 0.0]]) == pytest.approx(1.44)

    def test_opt_sum_hand_case(self):
        # the sum score at (0, 0.1), ~2.4083, beats (1.2, 0.5)'s sqrt(5.76+0.25)+0.5 ~ 2.952
        got = select(SelectionPolicy(PolicyKind.OPT_SUM), [[1.2, 0.5], [0.0, 0.1]], SUM)
        assert got == score(SUM, *anchor_distances([0.0, 0.1]))[0]

    def test_empty_returns_none(self):
        counts, ds, dd = np.array([0, 2, 0]), np.array([1.0, 2.0]), np.array([3.0, 1.0])
        for kind in ALL_KINDS:
            assert select(SelectionPolicy(kind), np.empty((0, 2))) == math.inf
            assert _select(SelectionPolicy(kind), PRODUCT, counts, ds, dd)[[0, 2]].tolist() == [math.inf] * 2

    def test_tie_break_uses_storage_order(self):
        # (ds, dd) pairs that tie on each criterion but differ in the returned score
        ties = {
            PolicyKind.OPT_PRODUCT: ([1.0, 2.0], [6.0, 3.0], SUM, [7.0, 5.0]),
            PolicyKind.OPT_SUM: ([1.0, 2.0], [4.0, 3.0], PRODUCT, [4.0, 6.0]),
            PolicyKind.MIN_MIN: ([1.0, 1.0], [3.0, 5.0], PRODUCT, [3.0, 5.0]),
            PolicyKind.MIN_MAX: ([3.0, 3.0], [1.0, 2.0], PRODUCT, [3.0, 6.0]),
            PolicyKind.MID_POINT: ([1.0, 5.0], [7.0, 5.0], PRODUCT, [7.0, 25.0]),
        }
        for kind, (ds, dd, score_kind, scores) in ties.items():
            ds, dd = np.array(ds), np.array(dd)
            policy = SelectionPolicy(kind)
            assert _select(policy, score_kind, np.array([2]), ds, dd)[0] == scores[0]
            assert _select(policy, score_kind, np.array([2]), ds[::-1], dd[::-1])[0] == scores[1]

    def test_reflection_invariance_up_to_ties(self):
        pts = np.random.default_rng(2).normal(0.0, 2.0, (40, 2))
        for kind in ALL_KINDS:
            assert select(SelectionPolicy(kind), pts) == select(SelectionPolicy(kind), pts * [1.0, -1.0])

    def test_min_min_semantics(self):
        # closest node to either anchor wins, not closest to both
        got = select(SelectionPolicy(PolicyKind.MIN_MIN), [[-1.3, 0.0], [0.0, 0.4]])
        assert got == score(PRODUCT, *anchor_distances([-1.3, 0.0]))[0]

    def test_threshold_only_for_optimum_policies(self):
        with pytest.raises(ValueError):
            SelectionPolicy(PolicyKind.MIN_MIN, feedback_threshold=2.0)
        with pytest.raises(ValueError):
            SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=-1.0)
        with pytest.raises(ValueError, match="must be > 0"):
            SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=math.nan)

    @pytest.mark.parametrize("model", list(PathLossModel))
    def test_threshold_only_for_the_models_own_optimum(self, model):
        optimum = OPTIMUM[model][1]
        other = next(kind for _, kind in OPTIMUM.values() if kind is not optimum)
        check_feedback_policy(SelectionPolicy(optimum, feedback_threshold=2.0), model)
        for kind in PolicyKind:  # no threshold: every policy goes
            check_feedback_policy(SelectionPolicy(kind), model)
        with pytest.raises(ValueError, match=f"applies to {optimum.value} under the {model.value} model, "
                                             f"not to {other.value}"):
            check_feedback_policy(SelectionPolicy(other, feedback_threshold=2.0), model)

    def test_threshold_filters_candidates(self):
        pol = SelectionPolicy(PolicyKind.OPT_SUM, feedback_threshold=2.5)
        assert select(pol, [[0.0, 1.6]], SUM) == math.inf  # sum score 4 > 2.5
        assert select(pol, [[0.0, 1.6], [0.0, 0.1]], SUM) == score(SUM, *anchor_distances([0.0, 0.1]))[0]

    def test_selection_stable_when_winner_feeds_back(self):
        counts, ds, dd = sample_batch(0.5, 1.2, 6.0, 500, np.random.default_rng(9))
        full = _select(SelectionPolicy(PolicyKind.OPT_PRODUCT), PRODUCT, counts, ds, dd)
        fb = _select(SelectionPolicy(PolicyKind.OPT_PRODUCT, feedback_threshold=3.0), PRODUCT, counts, ds, dd)
        assert np.any(full <= 3.0) and np.any(np.isfinite(full) & (full > 3.0))
        assert np.array_equal(fb, np.where(full <= 3.0, full, np.inf))

    @pytest.mark.parametrize("threshold", [None, 2.0])
    def test_matches_per_trial_argmin(self, threshold):
        counts, ds, dd = sample_batch(0.5, 1.2, 4.0, 300, np.random.default_rng(5))
        for model, (kind, optimum) in OPTIMUM.items():
            for policy_kind in ALL_KINDS if threshold is None else [optimum]:
                policy = SelectionPolicy(policy_kind, feedback_threshold=threshold)
                got = _select(policy, kind, counts, ds, dd)
                assert np.array_equal(got, argmin_oracle(policy, kind, counts, ds, dd)), (model, policy)


# coarse coordinates, so that scores tie and thresholds can fall on a score
_COORD = st.one_of(st.sampled_from([-2.4, -1.2, 0.0, 0.6, 1.2, 3.0]), st.floats(-8.0, 8.0))
_TRIALS = st.lists(st.lists(st.tuples(_COORD, _COORD), max_size=5), min_size=1, max_size=8)


class TestThresholdMask:
    @settings(max_examples=300, deadline=None)
    @given(_TRIALS, st.one_of(st.sampled_from([1.44, 2.4, 3.6]), st.floats(0.05, 60.0)),
           st.sampled_from(list(OPTIMUM.values())))
    def test_masked_pick_equals_filtered_argmin(self, trials, threshold, model_optimum):
        # a threshold filters on the score the optimum policy minimises, so
        # its pick is the unfiltered pick masked by score <= T
        kind, optimum = model_optimum
        counts = np.array([len(t) for t in trials])
        ds, dd = anchor_distances([xy for t in trials for xy in t])
        full = _select(SelectionPolicy(optimum), kind, counts, ds, dd)
        masked = np.where(full <= threshold, full, np.inf)
        policy = SelectionPolicy(optimum, feedback_threshold=threshold)
        assert np.array_equal(masked, _select(policy, kind, counts, ds, dd))
        assert np.array_equal(masked, argmin_oracle(policy, kind, counts, ds, dd))


class TestDominance:
    @pytest.mark.parametrize("model", [PathLossModel.POWER_LAW, PathLossModel.EXP_LAW])
    def test_optimum_beats_all_policies_pathwise(self, model):
        # the mean SNR falls as the model score grows, so the optimum's is the best
        kind, optimum = OPTIMUM[model]
        counts, ds, dd = sample_batch(0.5, 1.2, 8.0, 200, np.random.default_rng(31))
        best = _select(SelectionPolicy(optimum), kind, counts, ds, dd)
        for policy_kind in ALL_KINDS:
            assert np.all(best <= _select(SelectionPolicy(policy_kind), kind, counts, ds, dd))


class TestFeedbackFilter:
    def test_exp_below_2d_always_empty(self):
        cfg = NetworkConfig(d=1.2, intensity=1.0, n_elements=1, model=PathLossModel.EXP_LAW)
        counts = _chunk_feedback_counts(cfg, 2.3, 20, np.random.default_rng(17))
        assert counts.tolist() == [0] * 20

    def test_infinite_threshold_is_identity(self, monkeypatch):
        # an infinite threshold counts every node the sampler visits; here it
        # stops every trial at radius 5, and the first arrival lies beyond
        # that with probability exp(-25 pi)
        cfg = NetworkConfig(d=1.2, intensity=1.0, n_elements=1, model=PathLossModel.POWER_LAW)
        nearest_first = montecarlo._nearest_first
        monkeypatch.setattr(montecarlo, "_nearest_first", lambda lam, d, rng, visit, inner, live: nearest_first(
            lam, d, rng, lambda *args: np.minimum(visit(*args), 25.0), 25.0, live))
        got = _chunk_feedback_counts(cfg, math.inf, 20, np.random.default_rng(18))
        assert np.array_equal(got, sample_batch(1.0, 1.2, 5.0, 20, np.random.default_rng(18))[0])

    def test_removes_point_above_threshold(self, monkeypatch):
        # the sum score at (0, 1) is 2 sqrt(2.44) ~ 3.124
        assert feedback_counts(PathLossModel.EXP_LAW, 3.0, [[[0.0, 1.0]]], monkeypatch).tolist() == [0]
        assert feedback_counts(PathLossModel.EXP_LAW, 3.2, [[[0.0, 1.0]]], monkeypatch).tolist() == [1]

    def test_counts(self, monkeypatch):
        trials = [[], [[0.0, 0.0], [3.0, 3.0]], [], [[0.5, 0.0]]]
        assert feedback_counts(PathLossModel.EXP_LAW, 5.0, trials, monkeypatch).tolist() == [0, 1, 0, 1]
        assert feedback_counts(PathLossModel.POWER_LAW, math.inf, trials, monkeypatch).tolist() == [0, 2, 0, 1]

    def test_retained_scores_never_exceed_threshold(self, monkeypatch):
        pts = np.random.default_rng(23).uniform(-6.0, 6.0, (60, 2))
        trials = [pts[:25], pts[25:], []]
        for threshold in (1.0, 3.0, 8.0):
            for model, (kind, _) in OPTIMUM.items():
                want = [int(np.sum(score(kind, *anchor_distances(p)) <= threshold)) for p in trials]
                assert feedback_counts(model, threshold, trials, monkeypatch).tolist() == want

    def test_validation(self):
        cfg = NetworkConfig(d=1.2, intensity=1.0, n_elements=1, model=PathLossModel.EXP_LAW)
        with pytest.raises(ValueError):
            mc_feedback_dist(cfg, 0.0, 10, 1)
