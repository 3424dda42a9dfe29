"""Selection policies: which node gets to relay.

Five rules are supported.  The two optimum rules minimize the score that
actually drives the SNR of their path-loss model (distance product for the
power law, distance sum for the exponential law); min-min, min-max and
mid-point are conventional heuristics used as baselines.  OPTIMUM is the one
table of that pairing: path-loss model -> (score kind, optimum policy), and
OPTIMUM_SCORE its inverse: optimum policy -> the score it minimises.  The
rules are applied, vectorized over slices of a chunk's trials, by the
Monte Carlo engine (montecarlo._picks).

A policy may carry a feedback threshold T: only nodes whose score is <= T
report to the source, and selection happens among those.  An empty
candidate set is a valid outcome (no transmission), not an error.  The
threshold filters on the model's own score, so under a given path-loss
model only that model's optimum policy may carry one
(check_feedback_policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .channel import PathLossModel
from .geometry import ScoreKind


class PolicyKind(Enum):
    OPT_PRODUCT = "opt-product"
    OPT_SUM = "opt-sum"
    MIN_MIN = "min-min"
    MIN_MAX = "min-max"
    MID_POINT = "mid-point"


OPTIMUM = {
    PathLossModel.POWER_LAW: (ScoreKind.MIN_PRODUCT, PolicyKind.OPT_PRODUCT),
    PathLossModel.EXP_LAW: (ScoreKind.MIN_SUM, PolicyKind.OPT_SUM),
}
OPTIMUM_SCORE = {optimum: kind for kind, optimum in OPTIMUM.values()}


@dataclass(frozen=True)
class SelectionPolicy:
    kind: PolicyKind
    feedback_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.feedback_threshold is not None:
            if not self.feedback_threshold > 0.0:  # NaN included; +inf is every node
                raise ValueError(f"feedback_threshold must be > 0, got {self.feedback_threshold}")
            if self.kind not in OPTIMUM_SCORE:
                raise ValueError(f"feedback thresholds apply only to optimum policies, got {self.kind.value}")


def check_feedback_policy(policy: SelectionPolicy, model: PathLossModel) -> None:
    """Refuse a feedback threshold on any policy but the model's own optimum."""
    optimum = OPTIMUM[model][1]
    if policy.feedback_threshold is not None and policy.kind is not optimum:
        raise ValueError(
            f"a feedback threshold applies to {optimum.value} under the {model.value} model, "
            f"not to {policy.kind.value}"
        )
