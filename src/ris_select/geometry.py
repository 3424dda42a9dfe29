"""Plane geometry for two-anchor selection over a planar Poisson process.

The transmitter and receiver sit at (-d, 0) and (d, 0).  Every candidate
node is scored either by the product or by the sum of its distances to the
two anchors (``score`` is the one place that choice is evaluated); the
sublevel sets of those scores (a Cassini oval and an ellipse with the
anchors as foci) drive all the analytic results, so their areas, enclosing
radii and void-probability levels live here too.  Sampling the point
process is the Monte Carlo engine's job (montecarlo._sample_batch).
Everything here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .specfun import ellip_e, ellip_k


class ScoreKind(Enum):
    """Which two-anchor distance functional a scalar score refers to."""

    MIN_PRODUCT = "min-product"
    MIN_SUM = "min-sum"


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class AnchorPair:
    """Transmitter/receiver pair at (-d, 0) and (d, 0), half-separation d > 0."""

    d: float

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise ValueError(f"half separation d must be > 0, got {self.d}")

    @property
    def source(self) -> Point2:
        return Point2(-self.d, 0.0)

    @property
    def destination(self) -> Point2:
        return Point2(self.d, 0.0)


def _as_xy(p) -> tuple[np.ndarray, np.ndarray, bool]:
    if isinstance(p, Point2):
        return np.asarray(p.x), np.asarray(p.y), True
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1 and arr.shape == (2,):
        return arr[0], arr[1], True
    return arr[..., 0], arr[..., 1], False


def anchor_distances(p, anchors: AnchorPair):
    """Distances from a point (or array of points) to the two anchors."""
    x, y, scalar = _as_xy(p)
    ds = np.hypot(x + anchors.d, y)
    dd = np.hypot(x - anchors.d, y)
    if scalar:
        return float(ds), float(dd)
    return ds, dd


def score(kind: ScoreKind, ds, dd):
    """Score of the given kind from the distances to the two anchors."""
    return ds * dd if kind is ScoreKind.MIN_PRODUCT else ds + dd


def s_pow(p, anchors: AnchorPair):
    """Product of the distances to the two anchors (units^2)."""
    return score(ScoreKind.MIN_PRODUCT, *anchor_distances(p, anchors))


def s_exp(p, anchors: AnchorPair):
    """Sum of the distances to the two anchors (units); always >= 2d."""
    return score(ScoreKind.MIN_SUM, *anchor_distances(p, anchors))


def min_product_region_area(gamma: float, d: float) -> float:
    """Area of the Cassini sublevel region {X : s_pow(X) <= gamma}.

    Below gamma = d^2 the region is a pair of petals around the anchors,
    above it a single oval; the two closed forms meet continuously at
    gamma = d^2 with value 2*d^2.
    """
    if gamma < 0.0:
        raise DomainError(f"score must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    if math.isinf(gamma):
        return math.inf
    d2 = d * d
    if gamma < d2:
        u = (gamma / d2) ** 2
        coef = gamma * gamma - d2 * d2
        return (2.0 / d2) * (d2 * d2 * ellip_e(u) + coef * ellip_k(u))
    m = (d2 / gamma) ** 2
    return 2.0 * gamma * ellip_e(m)


def min_sum_region_area(gamma: float, d: float) -> float:
    """Area of the elliptical sublevel region {X : s_exp(X) <= gamma}.

    Zero for gamma <= 2d; otherwise pi * gamma * sqrt(gamma^2 - 4 d^2) / 4
    (semi-axes gamma/2 and sqrt(gamma^2 - 4 d^2)/2).
    """
    if gamma < 0.0:
        raise DomainError(f"score must be >= 0, got {gamma}")
    if gamma <= 2.0 * d:
        return 0.0
    if math.isinf(gamma):
        return math.inf
    return 0.25 * math.pi * gamma * math.sqrt(gamma * gamma - 4.0 * d * d)


def enclosing_radius(kind: ScoreKind, gamma: float, d: float) -> float:
    """Radius of the smallest origin-centered disc containing {score <= gamma}."""
    if gamma <= 0.0:
        return 0.0
    if kind is ScoreKind.MIN_PRODUCT:
        return math.sqrt(gamma + d * d)
    return 0.5 * gamma


def _solve_increasing(f, target: float, lo: float, hi: float) -> float:
    """Bisection for f(x) = target with f nondecreasing on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo >= target:
        return lo
    while fhi < target:
        lo, hi = hi, 2.0 * hi
        fhi = f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


def critical_score(kind: ScoreKind, intensity: float, d: float, eps: float = 1e-6) -> float:
    """Score level gamma* with void probability exp(-lambda*area) equal to eps.

    A node with score <= gamma* exists with probability 1 - eps, so a window
    containing the whole sublevel region {score <= gamma*} also contains the
    best-scoring node of the infinite process with that probability.
    """
    if intensity <= 0.0:
        raise ValueError(f"intensity must be > 0, got {intensity}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    area_req = math.log(1.0 / eps) / intensity
    if kind is ScoreKind.MIN_SUM:
        b = (4.0 * area_req / math.pi) ** 2
        return math.sqrt(2.0 * d * d + math.sqrt(4.0 * d**4 + b))
    hi = max(d * d, 0.5 * area_req) + 1.0
    return _solve_increasing(lambda g: min_product_region_area(g, d), area_req, 0.0, hi)
