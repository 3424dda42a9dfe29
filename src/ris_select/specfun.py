"""Special-function kernel.

Complete elliptic integrals, digamma, log-gamma, and the generalized
hypergeometric series, in plain float arithmetic, plus one numpy array
kernel, ellip_ke_m1, that returns both complete elliptic integrals over an
array of complementary parameters in one AGM pass (the rate engine's K and
E).  Nothing holds state, so all functions are safe to call concurrently.

Elliptic integrals use the *parameter* convention throughout: the argument
``m`` multiplies ``sin^2 t`` inside the defining integrals,

    K(m) = int_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt
    E(m) = int_0^{pi/2} (1 - m sin^2 t)^(1/2)  dt

(i.e. ``m = k^2`` relative to the modulus convention).  Both are evaluated
with the arithmetic-geometric mean.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError

_EPS = sys.float_info.epsilon
_SERIES_REL_TOL = 1.0e-14
_SERIES_MAX_TERMS = 800


def ellip_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    Defined for m < 1; diverges as m -> 1-.  Negative m is handled through
    the imaginary-modulus transformation K(m) = K(m/(m-1)) / sqrt(1-m).
    """
    if not m < 1.0:
        raise DomainError(f"ellip_k requires m < 1, got {m}")
    if m < 0.0:
        return ellip_k(m / (m - 1.0)) / math.sqrt(1.0 - m)
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(64):
        if abs(a - b) <= 4.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def ellip_e(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter convention.

    Defined for m <= 1 with E(1) = 1.  Negative m uses
    E(m) = sqrt(1-m) * E(m/(m-1)).
    """
    if m > 1.0:
        raise DomainError(f"ellip_e requires m <= 1, got {m}")
    if m == 1.0:
        return 1.0
    if m < 0.0:
        return math.sqrt(1.0 - m) * ellip_e(m / (m - 1.0))
    # AGM with the classical deficit sum: E = K * (1 - sum 2^(n-1) c_n^2).
    a, b = 1.0, math.sqrt(1.0 - m)
    s = 0.5 * m
    weight = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        weight *= 2.0
        s += weight * c * c
        if abs(c) <= 2.0 * _EPS * a:
            break
    k_complete = math.pi / (a + b)
    return k_complete * (1.0 - s)


def ellip_ke_m1(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(1 - p) and E(1 - p) for an array of complementary parameters p in [0, 1].

    One arithmetic-geometric mean pass per element (Abramowitz & Stegun
    17.6) with the recurrence and deficit sum of ellip_e.  The pass starts
    at b = sqrt(p), so K keeps full relative precision as m = 1 - p -> 1
    when p is known without cancellation.  E loses about log(1/p) ulps there
    to the deficit sum.  p = 0 gives K = inf and E = 1.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("ellip_ke_m1 requires 0 <= p <= 1")
    pole = p == 0.0
    a, b = np.ones_like(p), np.sqrt(np.where(pole, 1.0, p))
    s = 0.5 * (1.0 - p)
    weight = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        s += weight * c * c
        if np.all(np.abs(c) <= 2.0 * _EPS * a):
            break
    k_complete = np.where(pole, np.inf, math.pi / (a + b))
    return k_complete, np.where(pole, 1.0, k_complete * (1.0 - s))


def digamma(x: float) -> float:
    """Digamma function psi(x) for real x excluding the poles at 0, -1, -2...

    Uses the reflection formula for x < 1/2, upward recurrence into the
    asymptotic region, and the Bernoulli-number expansion there.
    """
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma has a pole at {x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    shift = 0.0
    while x < 12.0:
        shift -= 1.0 / x
        x += 1.0
    v = 1.0 / (x * x)
    tail = v * (
        1.0 / 12.0
        - v * (1.0 / 120.0 - v * (1.0 / 252.0 - v * (1.0 / 240.0 - v * (1.0 / 132.0 - v * (691.0 / 32760.0 - v / 12.0)))))
    )
    return shift + math.log(x) - 0.5 / x - tail


def log_gamma(x: float) -> float:
    """log |Gamma(x)| with a pole error at the non-positive integers."""
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"log_gamma has a pole at {x}")
    return math.lgamma(x)


# --- double-double helpers -------------------------------------------------
# Alternating hypergeometric series can pass through term magnitudes many
# orders above their limit before converging; summing those in plain doubles
# voids the result.  The fallback below carries each term as an unevaluated
# pair of doubles (~31 significant digits, fixed precision).

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    e += xl + yl
    h = s + e
    return h, e - (h - s)


def _dd_mul_scalar(xh: float, xl: float, s: float) -> tuple[float, float]:
    p, e = _two_prod(xh, s)
    e += xl * s
    h = p + e
    return h, e - (h - p)


def _dd_div_scalar(xh: float, xl: float, s: float) -> tuple[float, float]:
    q1 = xh / s
    p, e = _two_prod(q1, s)
    rh, rl = _dd_add(xh, xl, -p, -e)
    q2 = (rh + rl) / s
    return _two_sum(q1, q2)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    h = p + e
    return h, e - (h - p)


def _dd_div(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    q1 = xh / yh
    th, tl = _dd_mul_scalar(yh, yl, q1)
    rh, rl = _dd_add(xh, xl, -th, -tl)
    q2 = (rh + rl) / yh
    th, tl = _dd_mul_scalar(yh, yl, q2)
    rh, rl = _dd_add(rh, rl, -th, -tl)
    q3 = (rh + rl) / yh
    h, l = _two_sum(q1, q2)
    l += q3
    h2 = h + l
    return h2, l - (h2 - h)


def _genhyp_sum(a, b, z, floor_n: int, use_dd: bool):
    """One summation pass; returns (value, max |term| seen) or raises.

    In the double-double pass every shifted parameter a_i + n and b_j + n is
    kept as an exact sum-of-two-doubles pair: rounding those factors to
    single doubles leaves a coherent error across the whole tail of the
    series, which the cancellation amplifies right back to double precision.
    """
    term = (1.0, 0.0)
    total = (1.0, 0.0)
    max_term = 1.0
    small_streak = 0
    for n in range(_SERIES_MAX_TERMS):
        if use_dd:
            th, tl = _dd_mul_scalar(*term, z)
            for ai in a:
                th, tl = _dd_mul(th, tl, *_two_sum(ai, float(n)))
            for bj in b:
                th, tl = _dd_div(th, tl, *_two_sum(bj, float(n)))
            th, tl = _dd_div_scalar(th, tl, n + 1.0)
        else:
            th = term[0] * z
            for ai in a:
                th *= ai + n
            for bj in b:
                th /= bj + n
            th /= n + 1.0
            tl = 0.0
        term = (th, tl)
        if not math.isfinite(th):
            raise NonConvergenceError("hypergeometric term overflowed")
        total = _dd_add(*total, th, tl) if use_dd else (total[0] + th, 0.0)
        max_term = max(max_term, abs(th))
        if abs(th) <= _SERIES_REL_TOL * abs(total[0]) and n >= floor_n:
            small_streak += 1
            if small_streak >= 3:
                return total[0] + total[1], max_term
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"hypergeometric series did not converge within {_SERIES_MAX_TERMS} terms"
    )


def genhyp(p_params: Sequence[float], q_params: Sequence[float], z: float) -> float:
    """Generalized hypergeometric series pFq(a_1..a_p; b_1..b_q; z).

    Direct term-by-term summation with the ratio recurrence

        t_{n+1} = t_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1).

    Truncates once the running term has stayed below 1e-14 * |partial sum|
    for three consecutive terms, but never before the index has passed every
    negative denominator parameter (those cause a transient dip-and-regrowth
    in the term magnitudes that must not trigger early truncation).  A series
    that has not truncated after 800 terms, or whose terms overflow, raises
    NonConvergenceError.  When the terms grow so far above the limit that
    plain double summation would lose the answer, the pass is redone in
    compensated double-double arithmetic.

    Denominator parameters within 1e-8 of a non-positive integer are
    rejected as poles rather than regularized.
    """
    a = [float(v) for v in p_params]
    b = [float(v) for v in q_params]
    for bj in b:
        nearest = round(bj)
        if nearest <= 0 and abs(bj - nearest) <= 1e-8:
            raise PoleError(f"denominator parameter {bj} is (nearly) a non-positive integer")
    if z == 0.0:
        return 1.0

    floor_n = 0
    for bj in b:
        if bj < 0.0:
            floor_n = max(floor_n, int(math.ceil(-bj)) + 2)

    value, max_term = _genhyp_sum(a, b, z, floor_n, use_dd=False)
    if max_term * 4.0 * _EPS > 1e-13 * max(abs(value), sys.float_info.min):
        value, max_term = _genhyp_sum(a, b, z, floor_n, use_dd=True)
        if max_term * 1e-31 > 1e-12 * abs(value):
            raise NonConvergenceError(
                "series cancellation exceeds double-double precision"
            )
    return value
