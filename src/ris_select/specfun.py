"""Special-function kernel.

Complete elliptic integrals, digamma, log-gamma, and the generalized
hypergeometric series, in plain float arithmetic (genhyp redoes a cancelling
series in 32-digit stdlib decimal arithmetic), plus one numpy array
kernel, ellip_ke_m1, that returns both complete elliptic integrals over an
array of complementary parameters in one AGM pass (the rate engine's K and
E).  Nothing holds state, so all functions are safe to call concurrently.

Elliptic integrals use the *parameter* convention throughout: the argument
``m`` multiplies ``sin^2 t`` inside the defining integrals,

    K(m) = int_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt
    E(m) = int_0^{pi/2} (1 - m sin^2 t)^(1/2)  dt

(i.e. ``m = k^2`` relative to the modulus convention).  One
arithmetic-geometric-mean loop, _agm, evaluates both, on floats and arrays.
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


def _agm(b, s, sqrt, converged):
    """K and the deficit sum s of the arithmetic-geometric mean from (1, b).

    One pass of Abramowitz & Stegun 17.6: K(m) = pi / (a_n + b_n) with
    b = sqrt(1 - m), and E(m) = K(m) * (1 - s) when s enters as m / 2 (the
    sum gains 2^(n-1) c_n^2 each step).  b and s are floats, with sqrt =
    math.sqrt and converged = bool, or arrays, with np.sqrt and np.all.
    """
    a, weight = 1.0, 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), sqrt(a * b)
        weight *= 2.0
        s += weight * c * c
        if converged(abs(c) <= 2.0 * _EPS * a):
            break
    return math.pi / (a + b), s


def ellip_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    Defined for m < 1; diverges as m -> 1-.  Negative m is handled through
    the imaginary-modulus transformation K(m) = K(m/(m-1)) / sqrt(1-m).
    """
    if not m < 1.0:
        raise DomainError(f"ellip_k requires m < 1, got {m}")
    if m < 0.0:
        return ellip_k(m / (m - 1.0)) / math.sqrt(1.0 - m)
    return _agm(math.sqrt(1.0 - m), 0.0, math.sqrt, bool)[0]


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
    k_complete, s = _agm(math.sqrt(1.0 - m), 0.5 * m, math.sqrt, bool)
    return k_complete * (1.0 - s)


def ellip_ke_m1(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(1 - p) and E(1 - p) for an array of complementary parameters p in [0, 1].

    The same AGM pass as ellip_k and ellip_e (_agm), run on the whole array
    until every element has converged.  The pass starts at b = sqrt(p), so
    K keeps full relative precision as m = 1 - p -> 1 when p is known
    without cancellation.  E loses about log(1/p) ulps there to the deficit
    sum.  p = 0 gives K = inf and E = 1.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("ellip_ke_m1 requires 0 <= p <= 1")
    pole = p == 0.0
    k_complete, s = _agm(np.sqrt(np.where(pole, 1.0, p)), 0.5 * (1.0 - p), np.sqrt, np.all)
    k_complete = np.where(pole, np.inf, k_complete)
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


def _genhyp_sum(a, b, z, floor_n: int, num):
    """One summation pass in the number type num; returns (value, max |term|
    seen) or raises.

    num is float for the plain pass and decimal.Decimal, under a 32-digit
    context, for the exact pass.  Converting a float to Decimal is exact, so
    the shifted parameters a_i + n and b_j + n carry 32 significant digits:
    rounding them to doubles would leave a coherent error across the whole
    tail of the series, which the cancellation amplifies right back to
    double precision.
    """
    a = [num(v) for v in a]
    b = [num(v) for v in b]
    z = num(z)
    tol = num(_SERIES_REL_TOL)
    term = total = max_term = num(1)
    small_streak = 0
    for n in range(_SERIES_MAX_TERMS):
        term *= z
        for ai in a:
            term *= ai + n
        for bj in b:
            term /= bj + n
        term /= n + 1
        if not math.isfinite(term):
            raise NonConvergenceError("hypergeometric term overflowed")
        total += term
        size = abs(term)
        max_term = max(max_term, size)
        if size <= tol * abs(total) and n >= floor_n:
            small_streak += 1
            if small_streak >= 3:
                return float(total), float(max_term)
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
    plain double summation would lose the answer, the same loop is run again
    in 32-digit decimal arithmetic (the exact pass), and a cancellation
    beyond even that precision raises NonConvergenceError.

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

    value, max_term = _genhyp_sum(a, b, z, floor_n, float)
    if max_term * 4.0 * _EPS > 1e-13 * max(abs(value), sys.float_info.min):
        import decimal  # imported here so that `ris-select run` never loads it

        with decimal.localcontext(decimal.Context(prec=32)):
            value, max_term = _genhyp_sum(a, b, z, floor_n, decimal.Decimal)
        if max_term * 1e-31 > 1e-12 * abs(value):
            raise NonConvergenceError(
                "series cancellation exceeds the 32-digit exact pass"
            )
    return value
