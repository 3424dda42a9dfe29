"""Plane geometry for two-anchor selection over a planar Poisson process.

The transmitter and receiver sit at (-d, 0) and (d, 0).  Every candidate
node is scored either by the product or by the sum of its distances ds, dd
to the two anchors (``score`` is the one place that choice is evaluated);
the sublevel sets of those scores (a Cassini oval and an ellipse with the
anchors as foci) drive all the analytic results, so their areas, enclosing
radii and void-probability levels live here too.  So do the areas of the
min-max and min-min sublevel sets (the lens and the union of two anchor
discs), which sized those baselines' Monte Carlo windows.  Node positions
never reach this module: montecarlo._nearest_first samples them in order
of distance from the anchors' midpoint and forms their distances in one
pass.  Everything here is pure.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError
from .specfun import ellip_e, ellip_k


class ScoreKind(Enum):
    """Which two-anchor distance functional a scalar score refers to."""

    MIN_PRODUCT = "min-product"
    MIN_SUM = "min-sum"


def score(kind: ScoreKind, ds, dd):
    """Score of the given kind from the distances to the two anchors."""
    return ds * dd if kind is ScoreKind.MIN_PRODUCT else ds + dd


def min_product_region_area(gamma: float, d: float) -> float:
    """Area of the Cassini sublevel region {X : ds * dd <= gamma}.

    Below gamma = d^2 the region is a pair of petals around the anchors,
    above it a single oval; the two closed forms meet continuously at
    gamma = d^2 with value 2*d^2.
    """
    if not gamma >= 0.0:
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
    """Area of the elliptical sublevel region {X : ds + dd <= gamma}.

    Zero for gamma <= 2d; otherwise pi * gamma * sqrt(gamma^2 - 4 d^2) / 4
    (semi-axes gamma/2 and sqrt(gamma^2 - 4 d^2)/2).
    """
    if not gamma >= 0.0:
        raise DomainError(f"score must be >= 0, got {gamma}")
    if gamma <= 2.0 * d:
        return 0.0
    if math.isinf(gamma):
        return math.inf
    return 0.25 * math.pi * gamma * math.sqrt(gamma * gamma - 4.0 * d * d)


def min_max_region_area(c: float, d: float) -> float:
    """Area of the lens {X : max(ds, dd) <= c} that the radius-c anchor discs share.

    With h = sqrt(c^2 - d^2) the half-chord and x = 2 atan2(h, d) the angle
    of each disc's arc, the lens is c^2 x - 2 d h = c^2 (x - sin x).  Below
    x = 1 that difference cancels, so it is summed as a series there.
    """
    if not c >= 0.0:
        raise DomainError(f"distance must be >= 0, got {c}")
    if c <= d:
        return 0.0
    if math.isinf(c):
        return math.inf
    half_chord = math.sqrt((c - d) * (c + d))  # a product, so it does not cancel near c = d
    x = 2.0 * math.atan2(half_chord, d)
    if x >= 1.0:
        return c * c * x - 2.0 * d * half_chord
    term, total, k = x**3 / 6.0, 0.0, 3
    while total + term != total:  # x - sin x = x^3/3! - x^5/5! + ...
        total += term
        term *= -x * x / ((k + 1) * (k + 2))
        k += 2
    return c * c * total


def min_min_region_area(c: float, d: float) -> float:
    """Area of the union {X : min(ds, dd) <= c} of the radius-c anchor discs: 2 pi c^2 less their lens."""
    lens = min_max_region_area(c, d)
    return math.inf if math.isinf(c) else 2.0 * math.pi * c * c - lens


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
        if hi - lo <= 1e-12 * hi:
            break
    return hi


def critical_score(kind: ScoreKind, intensity: float, d: float, eps: float = 1e-6) -> float:
    """Score level gamma* with void probability exp(-lambda*area) equal to eps.

    A node with score <= gamma* exists with probability 1 - eps, so a window
    containing the whole sublevel region {score <= gamma*} also contains the
    best-scoring node of the infinite process with that probability.
    """
    if not 0.0 < intensity < math.inf:
        raise ValueError(f"intensity must be > 0 and finite, got {intensity}")
    if not 0.0 < d < math.inf:
        raise ValueError(f"d must be > 0 and finite, got {d}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    area_req = math.log(1.0 / eps) / intensity
    if kind is ScoreKind.MIN_SUM:
        b = (4.0 * area_req / math.pi) ** 2
        return math.sqrt(2.0 * d * d + math.sqrt(4.0 * d**4 + b))
    hi = max(d * d, 0.5 * area_req) + 1.0
    return _solve_increasing(lambda g: min_product_region_area(g, d), area_req, 0.0, hi)
