"""Closed-form distributions, outage probabilities, feedback means, and
average-rate integrals for optimum two-anchor selection over a planar
Poisson process.

Everything rests on the void probability of the score sublevel regions:
the best product ds*dd and best sum ds+dd of any node's anchor distances,
Y and L, satisfy

    P(Y > g) = exp(-lambda * area{ds * dd <= g})
    P(L > g) = exp(-lambda * area{ds + dd <= g})

which simultaneously gives the score CDFs and the Poisson mean of the
number of nodes below a feedback threshold.  Densities are the analytic
derivatives of those CDFs.  Rates average log2(1 + snr) over the gamma
approximation of the fading gain.  For one fixed path loss this average
has the paper's closed form (log/digamma/hypergeometric terms,
rate_fading_closed) and its defining integral by adaptive quadrature
(rate_fading_quad); both are kept as oracles for each other, for
`validate` and for the tests.

The average rate over the point process (rate_pow, rate_exp, rate_sweep)
uses neither.
It is one fixed tensor-product rule evaluated with numpy: score panels
(tanh-sinh next to the log singularity at d^2, Gauss-Legendre on geometric
panels elsewhere), cached per score law and cap, times the score density,
times a trapezoid rule in the log of the fading gain, which converges
geometrically for every number of elements.  The path loss enters only
through its logarithm, so no score overflows and no small-argument switch
is needed.  The fading average h(t) = E log(1 + e^t Z^2) depends on t =
log(avg_snr * y) and the element count only, so it is tabulated once per
count on a lattice in t (one softplus pass and one correlation, since the
fading nodes lie on a lattice in log Z^2) and read at each score node.
rate_sweep makes one read for all the cells of a call, whatever their law,
element count or threshold: 1024 (cell, score node) values at a time, each
gathering its lattice values from its own count's table, take one matrix
product and a Horner pass (~45 ns per value).  A warm 17-point sweep of
rate and outage, 160 (exponential law) to 832 (power law) score nodes per
cell, takes about 0.4 and 0.7 ms over the SNR and 1.0 ms over N.  The
engine needs numpy only: K and E come from the array AGM kernel
specfun.ellip_ke_m1, and scipy is imported only inside the quadrature
oracle, so `ris-select run` never loads it.

All quantities are strictly linear-scale; dB conversion belongs to the CLI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import NetworkConfig, PathLossModel, ez2, gamma_params, snr_score_cap
from .errors import DomainError, PoleError, QuadratureError, SingularityError
from .geometry import (
    ScoreKind,
    critical_score,
    min_product_region_area,
    min_sum_region_area,
)
from .policies import OPTIMUM
from .specfun import digamma, ellip_e, ellip_ke_m1, ellip_k, genhyp, log_gamma

_LN2 = math.log(2.0)

# Below this value of avg_snr * y the closed-form rate loses too
# many digits to cancellation; integrate the defining form instead.
RATE_CLOSED_FORM_CUTOFF = 1.0e-2


@dataclass(frozen=True)
class DistCdf:
    """Parameters of an optimum-score distribution (which functional, the
    node density, and the anchor half-separation)."""

    model: ScoreKind
    intensity: float
    d: float

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.intensity < math.inf:
            raise ValueError(f"intensity must be > 0 and finite, got {self.intensity}")
        if not 0.0 < self.d < math.inf:
            raise ValueError(f"d must be > 0 and finite, got {self.d}")

    @classmethod
    def from_config(cls, cfg: NetworkConfig, model: ScoreKind) -> "DistCdf":
        return cls(model=model, intensity=cfg.intensity, d=cfg.d)


@dataclass(frozen=True)
class RateQuadrature:
    """Tolerances for the adaptive quadrature of rate_fading_quad."""

    abs_tol: float = 1.0e-8
    rel_tol: float = 1.0e-8
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_tol <= 1.0e-2:
            raise ValueError(f"abs_tol must be in (0, 1e-2], got {self.abs_tol}")
        if not 0.0 < self.rel_tol <= 1.0e-2:
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if self.max_subdivisions < 50:
            raise ValueError(f"max_subdivisions must be >= 50, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = RateQuadrature()


def _quad(f, lo, hi, q: RateQuadrature) -> float:
    from scipy import integrate  # imported here so that `ris-select run` never loads scipy

    value, err = integrate.quad(f, lo, hi, epsabs=q.abs_tol, epsrel=q.rel_tol, limit=q.max_subdivisions)
    if err > 100.0 * max(q.abs_tol, q.rel_tol * abs(value)):
        raise QuadratureError(f"quadrature error estimate {err} too large for value {value}")
    return value


def _require(dist: DistCdf, model: ScoreKind) -> None:
    if dist.model is not model:
        raise ValueError(f"distribution parameterized for {dist.model}, needs {model}")


def _optimum_dist(cfg: NetworkConfig) -> DistCdf:
    """Distribution of the score the optimum policy of cfg.model minimises."""
    return DistCdf.from_config(cfg, OPTIMUM[cfg.model][0])


def _threshold_cap(cfg: NetworkConfig, model: PathLossModel, threshold: float | None) -> float:
    """Score cap of an optimum-law formula: T, or +inf without one; refuses the other law and T <= 0."""
    if cfg.model is not model:
        raise ValueError(f"this formula needs a {model.value}-law configuration, got {cfg.model.value}")
    if threshold is None:
        return math.inf
    if not threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    return threshold


# ---------------------------------------------------------------------------
# Feedback means (Poisson intensities of the sublevel regions)
# ---------------------------------------------------------------------------

def xi_pow(threshold: float, dist: DistCdf) -> float:
    """Mean number of nodes with distance product <= threshold.

    Two closed-form branches meet continuously at threshold = d^2 where
    both equal 2 * lambda * d^2.
    """
    _require(dist, ScoreKind.MIN_PRODUCT)
    if not threshold >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    return dist.intensity * min_product_region_area(threshold, dist.d)


def xi_exp(threshold: float, dist: DistCdf) -> float:
    """Mean number of nodes with distance sum <= threshold.

    Zero for threshold <= 2d; lambda * pi * T * sqrt(T^2 - 4 d^2) / 4 above.
    """
    _require(dist, ScoreKind.MIN_SUM)
    if not threshold >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    return dist.intensity * min_sum_region_area(threshold, dist.d)


# ---------------------------------------------------------------------------
# Optimum-score distributions
# ---------------------------------------------------------------------------

def cdf_upsilon_opt(gamma: float, dist: DistCdf) -> float:
    """CDF of the smallest distance product over the process: 1 - e^{-xi}."""
    _require(dist, ScoreKind.MIN_PRODUCT)
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return -math.expm1(-dist.intensity * min_product_region_area(gamma, dist.d))


def pdf_upsilon_opt(gamma: float, dist: DistCdf) -> float:
    """Density of the smallest distance product.

    Analytic derivative of the CDF:

        (2 lam g / d^2) K(g^2/d^4) e^{-xi(g)}   for g <  d^2
        2 lam K(d^4/g^2) e^{-xi(g)}             for g >= d^2

    with a logarithmic divergence at g = d^2 (returned as inf there).
    """
    _require(dist, ScoreKind.MIN_PRODUCT)
    if not gamma > 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    lam, d = dist.intensity, dist.d
    d2 = d * d
    if gamma < d2:
        u = (gamma / d2) ** 2
        slope = (2.0 * lam * gamma / d2) * ellip_k(u)
    else:
        m = (d2 / gamma) ** 2
        if m >= 1.0:
            return math.inf
        slope = 2.0 * lam * ellip_k(m)
    return slope * math.exp(-lam * min_product_region_area(gamma, d))


def cdf_lambda_opt(gamma: float, dist: DistCdf) -> float:
    """CDF of the smallest distance sum: 0 below 2d, 1 - e^{-xi} above."""
    _require(dist, ScoreKind.MIN_SUM)
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return -math.expm1(-dist.intensity * min_sum_region_area(gamma, dist.d))


def pdf_lambda_opt(gamma: float, dist: DistCdf) -> float:
    """Density of the smallest distance sum.

        pi lam (g^2 - 2 d^2) / (2 sqrt(g^2 - 4 d^2)) * e^{-xi(g)},  g > 2d

    Zero below 2d; the inverse-square-root singularity exactly at 2d is
    reported as an error rather than an infinity.
    """
    _require(dist, ScoreKind.MIN_SUM)
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    lam, d = dist.intensity, dist.d
    if gamma == 2.0 * d:
        raise SingularityError(f"density of the minimum sum diverges at gamma = 2d = {gamma}")
    if gamma < 2.0 * d:
        return 0.0
    root = math.sqrt(gamma * gamma - 4.0 * d * d)
    slope = math.pi * lam * (gamma * gamma - 2.0 * d * d) / (2.0 * root)
    return slope * math.exp(-lam * min_sum_region_area(gamma, d))


# ---------------------------------------------------------------------------
# Outage probabilities
# ---------------------------------------------------------------------------

def _outage(cfg: NetworkConfig, model: PathLossModel, threshold: float | None) -> float:
    """1 - F(min(cap, T)) for the optimum policy of the given path-loss law.

    F is the CDF of the optimum score and cap = snr_score_cap(cfg): an outage
    happens when the best node misses the SNR target or, with feedback
    limited to scores <= T, when no node feeds back.  A cap below every
    possible score (an exponential-law target out of reach) gives 1.
    """
    level = min(snr_score_cap(cfg), _threshold_cap(cfg, model, threshold))
    cdf = cdf_upsilon_opt if model is PathLossModel.POWER_LAW else cdf_lambda_opt
    return 1.0 - cdf(max(level, 0.0), _optimum_dist(cfg))


def outage_pow(cfg: NetworkConfig) -> float:
    """Outage of the optimum product-score policy under the power law."""
    return _outage(cfg, PathLossModel.POWER_LAW, None)


def outage_exp(cfg: NetworkConfig) -> float:
    """Outage of the optimum sum-score policy under the exponential law."""
    return _outage(cfg, PathLossModel.EXP_LAW, None)


def outage_pow_fb(cfg: NetworkConfig, threshold: float) -> float:
    """Outage with feedback limited to nodes with product score <= threshold."""
    return _outage(cfg, PathLossModel.POWER_LAW, threshold)


def outage_exp_fb(cfg: NetworkConfig, threshold: float) -> float:
    """Outage with feedback limited to nodes with sum score <= threshold."""
    return _outage(cfg, PathLossModel.EXP_LAW, threshold)


# ---------------------------------------------------------------------------
# Fading-averaged rate for a fixed inverse path loss y
# ---------------------------------------------------------------------------

def rate_fading_quad(y: float, cfg: NetworkConfig, q: RateQuadrature = DEFAULT_QUADRATURE) -> float:
    """E[log2(1 + avg_snr * y * Z^2)] with Z gamma-approximated, by quadrature.

    This is the defining integral of the fading-averaged rate and serves as
    the in-repo oracle for the closed form.
    """
    if not y >= 0.0:
        raise DomainError(f"y must be >= 0, got {y}")
    c = cfg.avg_snr * y
    if c == 0.0:
        return 0.0
    ga = gamma_params(cfg.n_elements)
    k, theta = ga.k, ga.theta
    log_norm = -log_gamma(k) - k * math.log(theta)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return math.log1p(c * x * x) * math.exp((k - 1.0) * math.log(x) - x / theta + log_norm)

    mode = k * theta
    value = _quad(integrand, 0.0, mode, q) + _quad(integrand, mode, math.inf, q)
    return value / _LN2


def rate_fading_closed(y: float, cfg: NetworkConfig) -> float:
    """Closed form for E[log2(1 + avg_snr * y * Z^2)] under the gamma model.

    Combines log and digamma terms with one 2F3 and two 1F2 series; the
    trigonometric csc/sec prefactors have poles whenever the gamma shape k
    sits on an integer, and the whole expression suffers catastrophic
    cancellation once avg_snr * y drops below RATE_CLOSED_FORM_CUTOFF, so
    both situations are rejected (use rate_fading_quad there).
    """
    if not y > 0.0:
        raise DomainError(f"y must be > 0, got {y}")
    c = cfg.avg_snr * y
    if c < RATE_CLOSED_FORM_CUTOFF:
        raise DomainError(
            f"closed form unreliable for avg_snr*y = {c} < {RATE_CLOSED_FORM_CUTOFF}; "
            "use rate_fading_quad"
        )
    ga = gamma_params(cfg.n_elements)
    k, theta = ga.k, ga.theta
    if abs(k - round(k)) < 1e-6 and round(k) >= 1:
        raise PoleError(f"rate closed form has poles at integer shape values, got k={k}")

    x = 1.0 / (4.0 * theta * theta * c)
    half = 0.5 * math.pi * k

    bracket = 2.0 * math.log(theta) + math.log(c) + 2.0 * digamma(k)
    bracket += genhyp([1.0, 1.0], [2.0, 0.5 * (3.0 - k), 0.5 * (4.0 - k)], -x) / (
        theta * theta * c * (k - 1.0) * (k - 2.0)
    )
    log_pref = math.log(math.pi) - 0.5 * k * math.log(c) - k * math.log(theta) - log_gamma(k + 1.0)
    pref = math.exp(log_pref)
    term_a = (1.0 / math.sin(half)) * genhyp([0.5 * k], [0.5, 0.5 * k + 1.0], -x)
    term_b = (
        k
        / math.cos(half)
        / (math.sqrt(c) * theta * (1.0 + k))
        * genhyp([0.5 * (k + 1.0)], [1.5, 0.5 * (k + 3.0)], -x)
    )
    bracket += pref * (term_a - term_b)
    return bracket / _LN2


def rate_fading_ub(y: float, cfg: NetworkConfig) -> float:
    """Jensen upper bound log2(1 + avg_snr * y * E[Z^2]) on the rate."""
    if not y >= 0.0:
        raise DomainError(f"y must be >= 0, got {y}")
    return math.log1p(cfg.avg_snr * y * ez2(cfg.n_elements)) / _LN2


# ---------------------------------------------------------------------------
# Densities of the inverse path loss Y of the selected node
# ---------------------------------------------------------------------------

def pdf_y_pow(y: float, cfg: NetworkConfig) -> float:
    """Density of Y = (best distance product)^(-eta), written directly in y.

    Piecewise via the substitution g = y^(-1/eta):

        0 < y <= d^(-2 eta):  (2 lam / eta) e^{-2 lam g E(d^4/g^2)}
                              * y^(-1-1/eta) K(d^4 y^(2/eta))
        y >= d^(-2 eta):      (2 lam / (d^2 eta)) y^(-1-2/eta)
                              * K(g^2/d^4) e^{-xi(g)}

    Must agree with pdf_y_pow_from_upsilon (change of variables applied to
    the score density) everywhere.
    """
    if cfg.model is not PathLossModel.POWER_LAW:
        raise ValueError("pdf_y_pow requires a power-law configuration")
    if y <= 0.0:
        raise DomainError(f"y must be > 0, got {y}")
    lam, d, eta = cfg.intensity, cfg.d, cfg.eta
    d2 = d * d
    boundary = d2 ** (-eta)  # y value where the score crosses d^2
    if y <= boundary:
        m = d2 * d2 * y ** (2.0 / eta)
        if m >= 1.0:
            return math.inf
        g = y ** (-1.0 / eta)
        return (
            (2.0 * lam / eta)
            * math.exp(-2.0 * lam * g * ellip_e(m))
            * y ** (-1.0 - 1.0 / eta)
            * ellip_k(m)
        )
    u = y ** (-2.0 / eta) / (d2 * d2)
    g = y ** (-1.0 / eta)
    return (
        (2.0 * lam / (d2 * eta))
        * y ** (-1.0 - 2.0 / eta)
        * ellip_k(u)
        * math.exp(-lam * min_product_region_area(g, d))
    )


def pdf_y_pow_from_upsilon(y: float, cfg: NetworkConfig) -> float:
    """Same density obtained by transforming the score density directly."""
    if y <= 0.0:
        raise DomainError(f"y must be > 0, got {y}")
    g = y ** (-1.0 / cfg.eta)
    return pdf_upsilon_opt(g, _optimum_dist(cfg)) * g / (cfg.eta * y)


def pdf_y_exp(y: float, cfg: NetworkConfig) -> float:
    """Density of Y = exp(-alpha * best distance sum).

    Supported on (0, e^{-2 alpha d}] with an integrable inverse-square-root
    singularity at the upper endpoint (returned as inf exactly there);
    zero above it.
    """
    if cfg.model is not PathLossModel.EXP_LAW:
        raise ValueError("pdf_y_exp requires an exponential-law configuration")
    if y <= 0.0:
        raise DomainError(f"y must be > 0, got {y}")
    alpha, d = cfg.alpha, cfg.d
    level = math.log(1.0 / y) / alpha
    if level < 2.0 * d:
        return 0.0
    if level == 2.0 * d:
        return math.inf
    return pdf_lambda_opt(level, _optimum_dist(cfg)) / (alpha * y)


# ---------------------------------------------------------------------------
# Average rate over the point process: fixed-rule tensor-product quadrature
# ---------------------------------------------------------------------------

_TS_NODES = 64
_TS_HALF_WIDTH = 3.2  # tanh-sinh parameter range [-3.2, 3.2]: end nodes ~1e-17 from the ends
_HALVINGS = 40  # geometric panels halving down towards g = 0, and at most this many towards u = 0
_FADING_STEP = 0.25  # trapezoid step in the standardized log fading gain
_FADING_PRUNE = 45.0  # drop fading nodes whose weight is below e^-45 of the largest
_TABLE_STEP = 0.06  # largest lattice step of the fading-average table, in t = log(avg_snr * y)
_TABLE_EDGE = 37.0  # softplus(x) is e^x below -37 and x above 37 to within e^-37 < 2^-53 relative
# The fading nodes (log Z^2) and the table's lattice points are multiples of
# this: their sums below 2^11 in magnitude are exact, so the table's
# arguments t_i + x_j carry no rounding.
_LATTICE_ULP = 2.0**-42
_STENCIL = 10  # lattice values per local interpolant of the table (degree 9)
_BATCH = 1024  # most values per matrix product of a table read (see _interpolate)
_TAIL_EPS = 1.0e-14  # survival probability beyond which the score is truncated


# The positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and
# their weights, the doubles np.polynomial.legendre.leggauss(16) returns
# (numpy 2.4.6, OpenBLAS 0.3.31): nodes within 1 ulp of the exact rule,
# weights within 1e-13 relative.  As literals, a run needs neither
# numpy.polynomial nor its eigenvalue solver, the run's only LAPACK call.
_GL_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.array(_GL_HALF).T
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _tanh_sinh() -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh nodes and weights on [0, 1].

    Nodes are the logistic 1 / (1 + e^{-pi sinh(s)}), so the ones near 0
    keep full relative precision; an endpoint singularity placed at 0 is
    resolved to ~1e-17.
    """
    s = np.linspace(-_TS_HALF_WIDTH, _TS_HALF_WIDTH, _TS_NODES)
    u = math.pi * np.sinh(s)
    x = 1.0 / (1.0 + np.exp(-u))
    w = (s[1] - s[0]) * math.pi * np.cosh(s) * x / (1.0 + np.exp(u))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on each [edges[i], edges[i+1]]."""
    x, w = _gauss_legendre()
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * x).ravel(), (width * w).ravel()


def _halvings(top: float, count: int = _HALVINGS) -> np.ndarray:
    """Panel edges 0, top/2^count, ..., top/2, top."""
    return top * np.concatenate([[0.0], 2.0 ** -np.arange(count, -1, -1)])


@functools.lru_cache(maxsize=64)
def _fading_rule(n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for E[f(log Z^2)] over the gamma-approximated gain Z.

    Trapezoid rule in w = log(Z / theta), whose density exp(k w - e^w) /
    Gamma(k) is entire; log(1 + c Z^2) is analytic in the strip |Im w| <
    pi/2 for every c > 0, so the rule converges geometrically for any shape
    k.  Returns the nodes as log Z^2 and weights summing to 1.  The nodes
    are points of the fading table's lattice (r table steps apart, from a
    multiple of _LATTICE_ULP; see _table_step), so the table sums over the
    rule's own nodes with exact arguments.
    """
    ga = gamma_params(n_elements)
    k = ga.k
    r, step = _table_step(2.0 * _FADING_STEP / math.sqrt(k))
    reach = math.ceil((_FADING_PRUNE / math.sqrt(k) + 10.0) / _FADING_STEP)
    centre = round(2.0 * (math.log(ga.theta) + math.log(k)) / _LATTICE_ULP) * _LATTICE_ULP
    nodes = centre + r * step * np.arange(-reach, reach + 1)
    w = 0.5 * nodes - math.log(ga.theta)
    log_weight = k * w - np.exp(w)
    keep = log_weight >= log_weight.max() - _FADING_PRUNE
    weight = np.exp(log_weight[keep] - log_weight.max())
    nodes = nodes[keep]
    weight /= weight.sum()
    nodes.flags.writeable = weight.flags.writeable = False
    return nodes, weight


def _softplus(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite x with log(1 + e^x) = max(x, 0) + log1p(e^-|x|) and return it.

    The same stable form np.logaddexp(0, x) evaluates, but as whole-array
    ufunc passes, so exp runs vectorised instead of one element at a time;
    within 2 ulp of np.logaddexp.  scratch has x's shape and is clobbered.
    """
    np.copysign(x, -1.0, out=scratch)  # -|x|
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    np.maximum(x, 0.0, out=x)
    x += scratch
    return x


@functools.cache
def _horner_rows() -> np.ndarray:
    """Row k maps ten values v_j at u_j = j - 4.5 to the coefficient of u^k
    of the degree-9 polynomial through them.

    Column j holds the coefficients of the Lagrange basis polynomial of
    u_j.  Its roots are half-integers, so np.poly forms them exactly (as
    numpy.polynomial's polyfromroots does) and the division rounds once
    (np.linalg.inv of the Vandermonde matrix, condition ~1e7, is off by up
    to 4e-14).
    """
    nodes = np.arange(_STENCIL) - (_STENCIL - 1) / 2.0
    rows = np.empty((_STENCIL, _STENCIL))
    for j, node in enumerate(nodes):
        others = np.delete(nodes, j)
        rows[:, j] = np.poly(others)[::-1] / np.prod(node - others)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class _FadingTable:
    """h(t) = sum_j w_j log(1 + e^{t + x_j}) for a law given as nodes x_j =
    log Z^2 on a lattice and weights w_j summing to 1.

    Below `low` every argument t + x_j is under -37 and h = e^t E[Z^2];
    above `high` every one is over 37 and h = t + E[log Z^2]; both hold to
    double precision.  In between, h is the ratio q(t) = h(t) /
    log(1 + e^t E[Z^2]) times that softplus.  q is bounded and tends to 1
    as t -> -inf, so an absolute error in q is a relative error in h; it is
    interpolated by the degree-9 polynomial through the ten lattice values
    around t.  h and q are analytic in |Im t| < pi and the lattice step is
    at most 0.06, so the interpolant is exact to rounding: h is within 1e-13
    relative of the rule sum for every t and N = 1..1024 (2e-14 at most in
    a scan).  What is left is the nodes' own rounding: the table sums over
    an exact lattice, the rule's nodes lie on theirs to ~1e-14.  Tables are
    read by _fading_averages, any number of them at once.
    """

    origin: float  # t of the first lattice value
    step: float
    windows: np.ndarray  # the ten q values from each lattice point on, read-only
    low: float
    high: float
    ez2: float  # E[Z^2] and E[log Z^2] under the law
    e_log: float


def _fading_averages(reads) -> np.ndarray:
    """h at every t of each (table, t) read, concatenated in read order.

    Each read sets its values outside its table's range from the
    asymptotes, and takes the lattice offset of each value inside it.  The
    values inside every read's range then go _BATCH at a time through
    _interpolate, whichever tables they come from, each gathering its ten
    lattice values from its own table.  A sweep over N thus makes one
    matrix product per _BATCH values, not one per element count, and
    copies no table.  How a value rounds can depend on its place in a
    batch, by an ulp or so.
    """
    h = np.empty(sum(t.size for _, t in reads))
    inside, offsets, shifted = [], [], []
    tables, ends = [], []  # each run of reads of one table, and where its interpolated values end
    start = end = 0
    for table, t in reads:
        part = h[start:start + t.size]
        start += t.size
        np.add(t, table.e_log, out=part)
        below = t < table.low
        part[below] = np.exp(t[below]) * table.ez2
        inside.append(~below & (t <= table.high))
        t = t[inside[-1]]
        offsets.append((t - table.origin) / table.step)
        t += math.log(table.ez2)
        shifted.append(t)
        end += t.size
        if tables and tables[-1] is table:
            ends[-1] = end
        else:
            tables.append(table)
            ends.append(end)
    offsets = np.concatenate(offsets)
    scaled = np.concatenate(shifted)  # log(1 + e^t E[Z^2]), then h = q times that
    _softplus(scaled, np.empty_like(scaled))
    v = np.empty((min(scaled.size, _BATCH), _STENCIL))
    j = 0
    for start in range(0, scaled.size, _BATCH):
        stop = min(start + _BATCH, scaled.size)
        u = offsets[start:stop]
        cell = np.floor(u)
        u -= cell
        u -= 0.5  # in [-1/2, 1/2) between the stencil's middle nodes
        index = cell.astype(np.intp) - (_STENCIL // 2 - 1)
        at = start
        while at < stop:  # the batch's runs, each gathered from its table
            while ends[j] <= at:
                j += 1
            run_end = min(ends[j], stop)
            v[at - start:run_end - start] = tables[j].windows[index[at - start:run_end - start]]
            at = run_end
        scaled[start:stop] *= _interpolate(v[:stop - start], u)
    h[np.concatenate(inside)] = scaled
    return h


def _interpolate(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The degree-9 polynomial through each row of v (its values at u_j = j
    - 4.5), at that row's u."""
    # row k of c holds every node's coefficient of u^k: one (10 x 10) by
    # (10 x n) product and Horner over its rows take 18 us at n = 850,
    # against 43 us for one matrix-vector product per power.  The first
    # such product maps the BLAS library's buffers (+0.28 MiB VmRSS; a
    # warm analytic sweep's peak RSS rose 35.05 -> 35.28 MiB).  n is at
    # most _BATCH = 1024: a read costs 45 ns per node at n = 1024, 70 at
    # 2700 and 4096, and 470 at 16384 on OpenBLAS's threads; at 2048 a
    # process ran at 36 or at 70, as v and c (160 KiB each) came from
    # reused or from fresh pages, and 1024 keeps them under glibc's
    # 128 KiB mmap threshold (Xeon, AVX-512, OpenBLAS 0.3.31)
    c = _horner_rows() @ v.T
    q = c[-1]
    for row in c[-2::-1]:
        q *= u
        q += row
    return q


def _table_step(node_step: float) -> tuple[int, float]:
    """(r, step): step is node_step / r rounded down to a multiple of
    _LATTICE_ULP, r the least integer that makes it at most _TABLE_STEP."""
    r = math.ceil(node_step / _TABLE_STEP)
    return r, math.floor(node_step / r / _LATTICE_ULP) * _LATTICE_ULP


def _lattice_average(
    nodes: np.ndarray, weight: np.ndarray, low: float, high: float
) -> tuple[float, float, np.ndarray]:
    """(origin, step, h): h[i] = sum_j weight_j softplus(origin + i step + nodes_j).

    nodes are an ascending lattice of step Delta; the t lattice has step
    Delta / r, r the least integer that makes it at most _TABLE_STEP, and
    spans [low, high] with five more points on each side.  Every argument
    t_i + x_j is then a point of one lattice of step Delta / r, so one
    softplus pass S over it gives h at every t_i: h[i] = sum_j weight_j
    S[i + r j], one correlation of S's residue class i mod r with the
    weights.  No 2-D array and no FFT.
    """
    r, step = _table_step((nodes[-1] - nodes[0]) / (nodes.size - 1))
    first = math.floor(low / step) - _STENCIL // 2
    size = math.ceil(high / step) + _STENCIL // 2 - first + 1
    x = nodes[0] + step * np.arange(first, first + size + r * (nodes.size - 1))
    s = _softplus(x, np.empty_like(x))
    h = np.empty(size)
    for c in range(r):
        h[c::r] = np.correlate(s[c::r], weight, "valid")
    return first * step, step, h


def _average_table(nodes: np.ndarray, weight: np.ndarray) -> _FadingTable:
    """The fading-average table of the law (nodes on a lattice in log Z^2, weights summing to 1)."""
    low, high = -_TABLE_EDGE - nodes[-1], _TABLE_EDGE - nodes[0]
    origin, step, h = _lattice_average(nodes, weight, low, high)
    ez2 = float(weight @ np.exp(nodes))
    t = origin + step * np.arange(h.size) + math.log(ez2)
    ratio = h / _softplus(t, np.empty_like(t))
    ratio.flags.writeable = False
    windows = np.lib.stride_tricks.sliding_window_view(ratio, _STENCIL)
    return _FadingTable(origin, step, windows, low, high, ez2, float(weight @ nodes))


@functools.lru_cache(maxsize=64)
def _fading_table(n_elements: int) -> _FadingTable:
    """The fading-average table of the gamma-approximated gain, built on first use."""
    return _average_table(*_fading_rule(n_elements))


def _average_rates(groups, use_upper_bound: bool) -> list[list[float]]:
    """For each (log_y, weight, avg_snrs, n_elements) group, sum_i weight_i
    * E[log2(1 + s * e^{log_y_i} * Z^2)] over the fading rule at each s in
    avg_snrs.

    The inner average is read at every group's (SNR, score node) pairs, t =
    log(s) + log_y_i, in one _fading_averages call, whatever the groups'
    element counts, so a sweep costs a few array passes over all its pairs.
    The Jensen bound replaces the fading rule by the single node E[Z^2]:
    one softplus per pair, no table.
    """
    ts = [(log_y + np.array([[math.log(s)] for s in snrs])).ravel() for log_y, _, snrs, _ in groups]
    if not ts:
        return []
    if use_upper_bound:
        t = np.concatenate([t + math.log(ez2(n)) for t, (*_, n) in zip(ts, groups)])
        inner = _softplus(t, np.empty_like(t))
    else:
        inner = _fading_averages([(_fading_table(n), t) for t, (*_, n) in zip(ts, groups)])
    rates, start = [], 0
    for t, (log_y, weight, snrs, _) in zip(ts, groups):
        rows = inner[start:start + t.size].reshape(len(snrs), log_y.size)
        rates.append([float(weight @ row) / _LN2 for row in rows])
        start += t.size
    return rates


@functools.lru_cache(maxsize=64)
def _product_score_rule(dist: DistCdf, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g and weights w (density of the best product score included)
    with sum_i w_i f(g_i) ~ integral of f against that density up to cap.

    Geometric panels around d^2: tanh-sinh on [d^2/2, d^2] and [d^2, 2 d^2],
    which absorbs the log singularity of K at d^2, and Gauss-Legendre on 40
    halvings down from min(cap, d^2/2) (then on to 0) and on the octaves
    above 2 d^2 (up to the 1e-14 tail).  Each node carries its offset
    tau = |g/d^2 - 1| from the branch point, so 1 - m reaches K without
    cancellation.  The rule depends on neither the SNR nor the element
    count, so it is built once per (dist, cap) and returned read-only.
    """
    lam, d2 = dist.intensity, dist.d * dist.d
    rel_cap = cap / d2
    x, w = _tanh_sinh()
    # low branch g = d^2 (1 - tau), tau in (0, 1]
    g_rel, g_w = _gl_panels(_halvings(min(rel_cap, 0.5)))
    tau = 1.0 - g_rel
    if rel_cap > 0.5:
        tau_lo = max(0.0, 1.0 - rel_cap)
        ts_tau = tau_lo + (0.5 - tau_lo) * x
        g_rel, tau = np.concatenate([g_rel, 1.0 - ts_tau]), np.concatenate([tau, ts_tau])
        g_w = np.concatenate([g_w, (0.5 - tau_lo) * w])
    one_minus_m = tau * (2.0 - tau)
    k_low, e_low = ellip_ke_m1(one_minus_m)
    xi_low = 2.0 * lam * d2 * (e_low - one_minus_m * k_low)
    g, weight = [d2 * g_rel], [d2 * g_w * 2.0 * lam * g_rel * k_low * np.exp(-xi_low)]
    # high branch g = d^2 (1 + tau), tau > 0
    if rel_cap > 1.0:
        tail = max(critical_score(ScoreKind.MIN_PRODUCT, lam, dist.d, _TAIL_EPS), 2.0 * d2) / d2
        top = min(rel_cap, tail)
        ts_hi = min(top, 2.0) - 1.0
        octaves = 2.0 ** np.arange(1, math.ceil(math.log2(top)) + 1)
        g_rel, g_w = _gl_panels(np.minimum(octaves, top))
        tau = np.concatenate([ts_hi * x, g_rel - 1.0])
        tau_w = np.concatenate([ts_hi * w, g_w])
        # 1 - m = 1 - (1 + tau)^-2, formed so that it cannot round above 1
        k_high, e_high = ellip_ke_m1(-np.expm1(-2.0 * np.log1p(tau)))
        xi_high = 2.0 * lam * d2 * (1.0 + tau) * e_high
        g.append(d2 * (1.0 + tau))
        weight.append(d2 * tau_w * 2.0 * lam * k_high * np.exp(-xi_high))
    g, weight = np.concatenate(g), np.concatenate(weight)
    g.flags.writeable = weight.flags.writeable = False
    return g, weight


@functools.lru_cache(maxsize=64)
def _sum_score_rule(dist: DistCdf, alpha: float, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g and weights w (density of the best sum score included) with
    sum_i w_i f(g_i) ~ integral of f against that density up to cap > 2d.

    The density's inverse-square-root singularity at 2d is removed by the
    substitution u = sqrt(g^2 - 4 d^2), after which the integrand is smooth
    at u = 0.  Gauss-Legendre panels halve from the truncation point U =
    min(cap, 1e-14 tail) until the first panel [0, U / 2^k] is at most an
    eighth of the integrand's smallest length scale there (k at most 40):
    the density's decay width 2 / (pi lam d), the spike it becomes when lam
    d is large; the anchor offset d, over which g = sqrt(u^2 + 4 d^2)
    bends; and 1 / alpha.  The rule depends on neither the SNR nor the
    element count, so it is built once per (dist, alpha, cap) and returned
    read-only.
    """
    d, lam = dist.d, dist.intensity
    g_tail = critical_score(ScoreKind.MIN_SUM, lam, d, _TAIL_EPS)
    u_top = min(math.sqrt((g_tail - 2.0 * d) * (g_tail + 2.0 * d)),
                math.sqrt((cap - 2.0 * d) * (cap + 2.0 * d)))
    floor = min(2.0 / (math.pi * lam * d), d, 1.0 / alpha) / 8.0
    count = min(_HALVINGS, max(0, math.ceil(math.log2(u_top / floor))))
    # panels no wider than 4 / alpha: log(1 + e^{-alpha g} ...) has complex
    # singularities pi / alpha off the real axis where the rate bends over;
    # the two edge sets are merged by hand, since np.union1d loads numpy.ma
    edges = np.sort(np.concatenate([_halvings(u_top, count), np.arange(0.0, u_top, 4.0 / alpha)]))
    u, u_w = _gl_panels(edges[np.concatenate([[True], edges[1:] != edges[:-1]])])
    g = np.sqrt(u * u + 4.0 * d * d)
    weight = u_w * math.pi * lam * (u * u + 2.0 * d * d) / (2.0 * g) * np.exp(-0.25 * math.pi * lam * g * u)
    g.flags.writeable = weight.flags.writeable = False
    return g, weight


def _score_nodes(cfg: NetworkConfig, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """log y and weight at the nodes of positive weight of the optimum score
    rule of cfg's law up to cap: log y = -eta log g under the power law,
    -alpha g under the other."""
    if cfg.model is PathLossModel.POWER_LAW:
        g, weight = _product_score_rule(_optimum_dist(cfg), cap)
        log_y = -cfg.eta * np.log(g)
    else:
        g, weight = _sum_score_rule(_optimum_dist(cfg), cfg.alpha, cap)
        log_y = -cfg.alpha * g
    live = weight > 0.0
    return log_y[live], weight[live]


def _rates(cells, use_upper_bound: bool) -> list[float]:
    """The average rate of each (cfg, law, threshold) cell, in order.

    Cells whose configurations differ only in avg_snr and n_elements and
    that share their threshold share one score rule and one set of log y;
    those that also share n_elements form a group over their SNRs.  Every
    group's pairs go through one table read (_average_rates).
    """
    rules = {}
    for i, (cfg, law, threshold) in enumerate(cells):
        cap = _threshold_cap(cfg, law, threshold)
        key = (tuple({**vars(cfg), "avg_snr": None, "n_elements": None}.values()), cap)
        rules.setdefault(key, {}).setdefault(cfg.n_elements, []).append(i)
    groups, members = [], []
    for (_, cap), by_count in rules.items():
        cfg = cells[next(iter(by_count.values()))[0]][0]
        if cfg.model is PathLossModel.EXP_LAW and cap <= 2.0 * cfg.d:
            continue  # no sum score is <= cap: no node feeds back, rate 0
        nodes = _score_nodes(cfg, cap)
        for n_elements, group in by_count.items():
            groups.append((*nodes, [cells[i][0].avg_snr for i in group], n_elements))
            members.append(group)
    out = [0.0] * len(cells)
    for group, rates in zip(members, _average_rates(groups, use_upper_bound)):
        for i, rate in zip(group, rates):
            out[i] = rate
    return out


def rate_sweep(cells, use_upper_bound: bool = False) -> list[float]:
    """rate_pow or rate_exp, by each configuration's law, at every (cfg,
    threshold) cell, in order.

    The analytic counterpart of montecarlo.mc_sweep: the cells of a sweep
    over avg_snr share one score rule, and every cell of the call, whatever
    its law, element count or threshold, goes through one read of the
    fading tables, so a sweep costs little more than its score nodes' table
    values.  Each value is the one-cell call's to within a few ulp, since a
    table value's rounding can depend on its place in a batch.
    """
    return _rates([(cfg, cfg.model, threshold) for cfg, threshold in cells], use_upper_bound)


def rate_pow(
    cfg: NetworkConfig,
    t_threshold: float | None = None,
    use_upper_bound: bool = False,
) -> float:
    """Average rate of the (optionally feedback-limited) product policy.

    Integrates the fading-averaged rate against the density of the best
    product score g, with the inverse path loss entering only as log(y) =
    -eta log g.  A feedback threshold T truncates the score at T (no
    transmission beyond it), which for T < d^2 simply empties the
    large-score branch.  The one-cell case of rate_sweep.
    """
    return _rates([(cfg, PathLossModel.POWER_LAW, t_threshold)], use_upper_bound)[0]


def rate_exp(
    cfg: NetworkConfig,
    t_threshold: float | None = None,
    use_upper_bound: bool = False,
) -> float:
    """Average rate of the (optionally feedback-limited) sum policy.

    Integrates the fading-averaged rate against the density of the best sum
    score g, with log(y) = -alpha g.  A threshold T <= 2d admits no
    feedback at all and yields rate 0.  The one-cell case of rate_sweep.
    """
    return _rates([(cfg, PathLossModel.EXP_LAW, t_threshold)], use_upper_bound)[0]
