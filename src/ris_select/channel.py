"""Cascaded Rayleigh fading and network configuration.

Each surface has N elements; with ideal phase alignment the end-to-end
amplitude gain is Z = sum_n a_n * b_n where a_n, b_n are independent
Rayleigh amplitudes with scale 1/sqrt(2), i.e. E[a^2] = 1 (unit-variance
complex Gaussian channels).  Only the link actually selected carries a
fading draw, so no per-node fading state is kept anywhere.  The score at
which the fading-averaged SNR meets the target, snr_score_cap, serves both
the closed forms and the Monte Carlo estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_PI2 = math.pi * math.pi


class PathLossModel(Enum):
    POWER_LAW = "power"
    EXP_LAW = "exp"


@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched gamma approximation (shape k, scale theta) of Z."""

    k: float
    theta: float

    def __post_init__(self) -> None:
        if self.k <= 0.0 or self.theta <= 0.0:
            raise ValueError(f"shape and scale must be > 0, got k={self.k}, theta={self.theta}")


@dataclass
class NetworkConfig:
    """Scenario parameters, all in linear scale.

    d               half the TX-RX separation (units)
    intensity       node density (nodes/units^2)
    n_elements      reflecting elements per surface
    model           path-loss law: power d^eta or exponential exp(alpha*d)
    eta             power-law exponent (> 2)
    alpha           exponential-law rate (1/units)
    avg_snr         transmit SNR gamma-bar (linear)
    target_snr      outage threshold rho (linear)
    """

    d: float
    intensity: float
    n_elements: int
    model: PathLossModel
    eta: float = 4.0
    alpha: float = 1.037
    avg_snr: float = 1.0
    target_snr: float = 10.0 ** 0.5

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.d < math.inf:
            raise ValueError(f"d must be > 0 and finite, got {self.d}")
        if not 0.0 < self.intensity < math.inf:
            raise ValueError(f"intensity must be > 0 and finite, got {self.intensity}")
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements}")
        self.n_elements = int(self.n_elements)
        if self.model is PathLossModel.POWER_LAW and not 2.0 < self.eta < math.inf:
            raise ValueError(f"power law requires eta > 2 and finite, got {self.eta}")
        if self.model is PathLossModel.EXP_LAW and not 0.0 < self.alpha < math.inf:
            raise ValueError(f"exponential law requires alpha > 0 and finite, got {self.alpha}")
        if not 0.0 < self.avg_snr < math.inf:
            raise ValueError(f"avg_snr must be > 0 and finite, got {self.avg_snr}")
        if not self.target_snr >= 0.0:  # +inf is a target no node meets
            raise ValueError(f"target_snr must be >= 0, got {self.target_snr}")


def sample_z(n_elements: int, rng: np.random.Generator, size=None):
    """Draw the aligned fading gain Z = sum of N Rayleigh-product terms.

    Returns a float when ``size`` is None, otherwise an array of that shape.
    """
    z = np.empty(() if size is None else tuple(np.atleast_1d(size)))
    for _ in sample_z_prefixes([n_elements], rng, z):
        pass
    return float(z) if size is None else z


def sample_z_prefixes(n_elements, rng: np.random.Generator, out: np.ndarray):
    """Z over the first N elements of one draw, for every N in n_elements.

    Returns an iterator of (N, Z) in ascending N, Z being ``out`` itself:
    it is overwritten with Z over the first N elements, and each next step
    adds the elements up to the next N to it in place.  So the Z of a
    smaller N is bit for bit the partial sum of the Z of a larger one, and
    the same stream gives the same Z_N whichever other element counts are
    asked for with it.

    Elements are drawn one at a time: two unit exponentials E1, E2 per
    element and entry of ``out``, with a*b = sqrt(E1*E2) (a Rayleigh
    amplitude of scale 1/sqrt(2) is sqrt(E)).  One 64-bit word of
    ``rng.bit_generator.random_raw`` per entry gives both: its two 32-bit
    halves k, low half first, each give the float32 uniform U = (k >> 8)
    2^-24, the same bits as ``rng.random(dtype=np.float32)`` on PCG64.  E
    is -log(1 - U): 1 - U is exact and in [2^-24, 1], so E lies in
    [0, 24 log 2] and is never inf or NaN, and the two logs' signs cancel
    in their product.  The term is formed in float32, Z is summed in
    float64.  Over all 2^24 values of U, E[E] = 1 - 5.5e-7 and E[sqrt E]
    = (sqrt(pi)/2)(1 - 1.4e-7), so E[a*b] is off by -2.9e-7 relative and
    E[(a*b)^2] by -1.1e-6.  Beside ``out``, memory is two float32 arrays
    of its shape and one word per entry, whatever N, while an element is
    drawn, and nothing between two steps.
    """
    wanted = sorted({int(n) for n in n_elements})
    if not wanted or wanted[0] < 1:
        raise ValueError(f"element counts must be >= 1, got {wanted}")
    return _z_prefixes(wanted, rng, out)


def _z_prefixes(wanted: list, rng: np.random.Generator, z: np.ndarray):
    z[...] = 0.0
    n = 0
    for size in wanted:
        for n in range(n + 1, size + 1):
            z += _element_terms(rng, z.shape)
        yield size, z


def _element_terms(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """One element's terms a*b, as doubles, one per entry of shape (see
    sample_z_prefixes); its buffers are freed once the caller drops it."""
    pair = np.empty((2,) + shape, np.float32)
    # as little-endian words, so the low half comes first on any host
    raw = rng.bit_generator.random_raw(math.prod(shape)).astype("<u8", copy=False)
    k = raw.view("<u4").reshape(pair.shape)
    np.right_shift(k, 8, out=k)
    # k < 2^24 reads the same as int32, which numpy converts to float32
    # faster than uint32; either way U = k 2^-24 is exact
    np.multiply(k.view(np.int32), np.float32(2**-24), out=pair, dtype=np.float32)
    np.subtract(1, pair, out=pair)
    np.log(pair, out=pair)  # -E1 and -E2
    term = pair[0, ...]  # the first half, a view also when shape is ()
    np.multiply(term, pair[1], out=term)
    # the words are spent, and their memory takes the terms as doubles: the
    # caller's z may be a block's columns of a wider array, where numpy adds
    # float32 to float64 at half the speed at which it adds float64
    wide = raw.view(np.float64).reshape(shape)
    np.copyto(wide, np.sqrt(term, out=term))
    return wide


def ez2(n_elements: int) -> float:
    """Exact second moment E[Z^2] = N + N(N-1) pi^2 / 16."""
    n = float(n_elements)
    if n < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    return n + n * (n - 1.0) * _PI2 / 16.0


def gamma_params(n_elements: int) -> GammaApprox:
    """Gamma shape/scale matching the mean N*pi/4 and variance N(16-pi^2)/16.

    k = N pi^2 / (16 - pi^2) grows linearly with N; theta = (16 - pi^2)/(4 pi)
    does not depend on N.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    k = n_elements * _PI2 / (16.0 - _PI2)
    theta = (16.0 - _PI2) / (4.0 * math.pi)
    return GammaApprox(k=k, theta=theta)


def snr_score_cap(cfg: NetworkConfig) -> float:
    """Score below which the fading-averaged SNR exceeds the target.

    That SNR is avg_snr * E[Z^2] / G, with path loss G = score^eta (power
    law) or exp(alpha * score) (exponential law), so a node meets the target
    exactly when its score is below this cap: +inf for a zero target, and
    -inf when the exponential-law ratio underflows to zero.
    """
    if cfg.target_snr == 0.0:
        return math.inf
    ratio = cfg.avg_snr * ez2(cfg.n_elements) / cfg.target_snr
    if cfg.model is PathLossModel.POWER_LAW:
        return ratio ** (1.0 / cfg.eta)
    return math.log(ratio) / cfg.alpha if ratio > 0 else -math.inf
