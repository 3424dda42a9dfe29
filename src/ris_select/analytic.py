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

The average rate over the point process (rate_pow, rate_exp) uses neither.
It is one fixed tensor-product rule evaluated with numpy: score panels
(tanh-sinh next to the log singularity at d^2, Gauss-Legendre on geometric
panels elsewhere), times the score density, times a trapezoid rule in the
log of the fading gain, which converges geometrically for every number of
elements.  The path loss enters only through its logarithm, so no score
overflows and no small-argument switch is needed.  The inner term
log(1 + e^x) is a softplus, max(x, 0) + log1p(e^-|x|), computed in place
in two reused block buffers: it is nearly all of the engine's work, and
np.logaddexp evaluates the same form one element at a time, where np.exp
over a whole block is vectorised.  The engine needs numpy
only: K and E come from the array AGM kernel specfun.ellip_ke_m1, and
scipy is imported only inside the quadrature oracle, so `ris-select run`
never loads it.

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


def _quad(f, lo, hi, q: RateQuadrature, points=None) -> float:
    from scipy import integrate  # imported here so that `ris-select run` never loads scipy

    kwargs = dict(epsabs=q.abs_tol, epsrel=q.rel_tol, limit=q.max_subdivisions)
    if points is not None and not (math.isinf(lo) or math.isinf(hi)):
        kwargs["points"] = points
    value, err = integrate.quad(f, lo, hi, **kwargs)
    if err > 100.0 * max(q.abs_tol, q.rel_tol * abs(value)):
        raise QuadratureError(f"quadrature error estimate {err} too large for value {value}")
    return value


def _require(dist: DistCdf, model: ScoreKind) -> None:
    if dist.model is not model:
        raise ValueError(f"distribution parameterized for {dist.model}, needs {model}")


def _optimum_dist(cfg: NetworkConfig) -> DistCdf:
    """Distribution of the score the optimum policy of cfg.model minimises."""
    return DistCdf.from_config(cfg, OPTIMUM[cfg.model][0])


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
    if cfg.model is not model:
        raise ValueError(f"this outage needs a {model.value}-law configuration, got {cfg.model.value}")
    level = snr_score_cap(cfg)
    if threshold is not None:
        if not threshold > 0.0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        level = min(level, threshold)
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

_GL_NODES = 16
_TS_NODES = 64
_TS_HALF_WIDTH = 3.2  # tanh-sinh parameter range [-3.2, 3.2]: end nodes ~1e-17 from the ends
_HALVINGS = 40  # geometric panels halving down towards g = 0 or u = 0
_FADING_STEP = 0.25  # trapezoid step in the standardized log fading gain
_FADING_PRUNE = 45.0  # drop fading nodes whose weight is below e^-45 of the largest
_BLOCK = 16_384  # largest (score node x fading node) block evaluated at once
_TAIL_EPS = 1.0e-14  # survival probability beyond which the score is truncated


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
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


def _halvings(top: float) -> np.ndarray:
    """Panel edges 0, top/2^40, ..., top/2, top."""
    return top * np.concatenate([[0.0], 2.0 ** -np.arange(_HALVINGS, -1, -1)])


@functools.lru_cache(maxsize=64)
def _fading_rule(n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for E[f(log Z^2)] over the gamma-approximated gain Z.

    Trapezoid rule in w = log(Z / theta), whose density exp(k w - e^w) /
    Gamma(k) is entire; log(1 + c Z^2) is analytic in the strip |Im w| <
    pi/2 for every c > 0, so the rule converges geometrically for any shape
    k.  Returns the nodes as log Z^2 and weights summing to 1.
    """
    ga = gamma_params(n_elements)
    k = ga.k
    h = _FADING_STEP / math.sqrt(k)
    reach = math.ceil((_FADING_PRUNE / math.sqrt(k) + 10.0) / _FADING_STEP)
    w = math.log(k) + h * np.arange(-reach, reach + 1)
    log_weight = k * w - np.exp(w)
    keep = log_weight >= log_weight.max() - _FADING_PRUNE
    weight = np.exp(log_weight[keep] - log_weight.max())
    nodes = 2.0 * (math.log(ga.theta) + w[keep])
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


def _average_rate(
    log_y: np.ndarray, weight: np.ndarray, cfg: NetworkConfig, use_upper_bound: bool
) -> float:
    """sum_i weight_i * E[log2(1 + avg_snr * e^{log_y_i} * Z^2)] over the fading rule.

    The inner term log(1 + e^x), x = log c + log Z^2, is a softplus computed
    in place, block by block, in two buffers allocated once per call: it
    is nearly all of the engine's work, and np.logaddexp takes it one
    element at a time.  The Jensen bound replaces the fading rule by the
    single node E[Z^2].
    """
    if use_upper_bound:
        nodes, fading_weight = np.array([math.log(ez2(cfg.n_elements))]), np.ones(1)
    else:
        nodes, fading_weight = _fading_rule(cfg.n_elements)
    live = weight > 0.0
    log_c, weight = log_y[live] + math.log(cfg.avg_snr), weight[live]
    rows = max(1, min(_BLOCK // nodes.size, log_c.size))
    block, scratch = np.empty((rows, nodes.size)), np.empty((rows, nodes.size))
    total = 0.0
    for i in range(0, log_c.size, rows):
        x, s = block[: log_c.size - i], scratch[: log_c.size - i]
        np.add(log_c[i : i + rows, None], nodes, out=x)
        total += float(weight[i : i + rows] @ (_softplus(x, s) @ fading_weight))
    return total / _LN2


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
    large-score branch.
    """
    if cfg.model is not PathLossModel.POWER_LAW:
        raise ValueError("rate_pow requires a power-law configuration")
    if t_threshold is not None and not t_threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {t_threshold}")
    cap = math.inf if t_threshold is None else t_threshold
    g, weight = _product_score_rule(_optimum_dist(cfg), cap)
    return _average_rate(-cfg.eta * np.log(g), weight, cfg, use_upper_bound)


def rate_exp(
    cfg: NetworkConfig,
    t_threshold: float | None = None,
    use_upper_bound: bool = False,
) -> float:
    """Average rate of the (optionally feedback-limited) sum policy.

    The score density has an inverse-square-root singularity at 2d, removed
    by the substitution u = sqrt(g^2 - 4 d^2); Gauss-Legendre panels halve
    from the truncation point U down to u = 0, which resolves the spike of
    width ~1/(pi lam d) that the density becomes when lam d is large.  A
    threshold T <= 2d admits no feedback at all and yields rate 0.
    """
    if cfg.model is not PathLossModel.EXP_LAW:
        raise ValueError("rate_exp requires an exponential-law configuration")
    if t_threshold is not None and not t_threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {t_threshold}")
    d, lam = cfg.d, cfg.intensity
    if t_threshold is not None and t_threshold <= 2.0 * d:
        return 0.0
    g_tail = critical_score(ScoreKind.MIN_SUM, lam, d, _TAIL_EPS)
    u_top = math.sqrt((g_tail - 2.0 * d) * (g_tail + 2.0 * d))
    if t_threshold is not None:
        u_top = min(u_top, math.sqrt((t_threshold - 2.0 * d) * (t_threshold + 2.0 * d)))
    # panels no wider than 4 / alpha: log(1 + e^{-alpha g} ...) has complex
    # singularities pi / alpha off the real axis where the rate bends over;
    # the two edge sets are merged by hand, since np.union1d loads numpy.ma
    edges = np.sort(np.concatenate([_halvings(u_top), np.arange(0.0, u_top, 4.0 / cfg.alpha)]))
    u, u_w = _gl_panels(edges[np.concatenate([[True], edges[1:] != edges[:-1]])])
    g = np.sqrt(u * u + 4.0 * d * d)
    weight = u_w * math.pi * lam * (u * u + 2.0 * d * d) / (2.0 * g) * np.exp(-0.25 * math.pi * lam * g * u)
    return _average_rate(-cfg.alpha * g, weight, cfg, use_upper_bound)
