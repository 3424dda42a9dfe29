"""Selection policies: which node gets to relay.

Five rules are supported.  The two optimum rules minimize the score that
actually drives the SNR of their path-loss model (distance product for the
power law, distance sum for the exponential law); min-min, min-max and
mid-point are conventional heuristics used as baselines.  OPTIMUM is the one
table of that pairing: path-loss model -> (score kind, optimum policy).  The
rules are applied, vectorized over whole chunks of trials, by the Monte
Carlo engine (montecarlo._select).

A policy may carry a feedback threshold T: only nodes whose score is <= T
report to the source, and selection happens among those.  An empty
candidate set is a valid outcome (no transmission), not an error.
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


@dataclass(frozen=True)
class SelectionPolicy:
    kind: PolicyKind
    feedback_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.feedback_threshold is not None:
            if not self.feedback_threshold > 0.0:  # NaN included; +inf is every node
                raise ValueError(f"feedback_threshold must be > 0, got {self.feedback_threshold}")
            if self.kind not in {optimum for _, optimum in OPTIMUM.values()}:
                raise ValueError(f"feedback thresholds apply only to optimum policies, got {self.kind}")
