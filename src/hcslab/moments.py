"""Closed-form field moments of the hybrid coherent state.

The hybrid coherent state (HCS) is the normalized superposition

    N * [ sqrt(eps) |alpha>  +  sqrt(1 - eps) e^{i phi} a^dag |alpha> ],

which interpolates between a coherent state (eps = 1) and a single-photon-added
coherent state (eps = 0).  Every expectation value <a^dag^n a^m> reduces to a
polynomial in alpha and alpha*, so this module evaluates moments exactly (up to
double rounding) with no Fock-space truncation.  The brute-force counterpart in
:mod:`hcslab.fock` recomputes everything numerically and never touches these
formulas.

Centered moments need no raw moment.  As a^dag|alpha> = D(alpha)(|1> + alpha*|0>),
the HCS is the displaced qubit N D(alpha)[c0|0> + c1|1>] with c1 = sqrt(1-eps)
e^{i phi} and c0 = sqrt(eps) + c1 alpha*.  With beta = N^2 c0* c1 and
p = N^2 |c1|^2 (so <a> = alpha + beta), every centered moment is two terms,

    <:(a^dag - <a^dag>)^r (a - <a>)^s:> = (1-r-s) (-beta*)^r (-beta)^s + r s (-beta*)^(r-1) (-beta)^(s-1) p,

each bounded for any alpha since |beta|^2 = p (1 - p) <= 1/4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, partial

TWO_PI = 2.0 * math.pi

#: Largest accepted n + m for :func:`moment`.  Keeps the polynomial evaluation
#: comfortably inside double range for |alpha| <= 8.
MAX_MOMENT_ORDER = 24


def _finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class HcsParams:
    """State triple (epsilon, phi, alpha).

    epsilon weights the coherent branch against the photon-added branch,
    phi is the relative phase between the two branches (stored in [0, 2*pi)),
    alpha is the complex coherent amplitude.
    """

    epsilon: float
    phi: float
    alpha: complex

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "phi", phi % TWO_PI)
        object.__setattr__(self, "alpha", _finite_complex(self.alpha, "alpha"))

    @property
    def alpha_abs(self) -> float:
        return abs(self.alpha)

    @property
    def alpha_arg(self) -> float:
        return cmath.phase(self.alpha)


def _check_key(n: int, m: int) -> None:
    if n < 0 or m < 0 or n != int(n) or m != int(m):
        raise ValueError(f"moment orders must be non-negative integers, got ({n}, {m})")
    if n + m > MAX_MOMENT_ORDER:
        raise ValueError(
            f"moment order n + m = {n + m} exceeds the cap {MAX_MOMENT_ORDER}; "
            "higher orders risk double-precision loss"
        )


def _inverse_norm_squared(params: HcsParams) -> float:
    """1/N^2 = 1 + 2 sqrt(eps(1-eps)) Re[alpha e^{-i phi}] + (1-eps)|alpha|^2."""
    eps = params.epsilon
    cross = (params.alpha * cmath.exp(-1j * params.phi)).real
    value = 1.0 + 2.0 * math.sqrt(eps * (1.0 - eps)) * cross + (1.0 - eps) * abs(params.alpha) ** 2
    if value <= 0.0:
        # mathematically bounded below by 1 - eps > 0; only a rounding corner
        # at eps ~ 1 with destructively interfering alpha could land here
        raise ValueError(f"state norm underflow for {params}")
    return value


def normalization(params: HcsParams) -> float:
    """Normalization constant N of the superposition, always positive."""
    return 1.0 / math.sqrt(_inverse_norm_squared(params))


def moment(params: HcsParams, n: int, m: int) -> complex:
    """<a^dag^n a^m> of the normalized state.

    The raw closed form carries a prefactor alpha*^(n-1) alpha^(m-1) that is
    singular when written literally for n = 0, m = 0 or alpha = 0.  Here the
    prefactor is distributed into the bracket, which leaves a plain polynomial:
    every term with a negative residual power has an integer coefficient of
    zero and is skipped, so alpha = 0 is a regular point.
    """
    _check_key(n, m)
    eps = params.epsilon
    a = params.alpha
    ac = a.conjugate()
    root = math.sqrt(eps * (1.0 - eps))
    eip = cmath.exp(1j * params.phi)

    total = eps * ac**n * a**m

    cross_plus = ac ** (n + 1) * a**m
    if m > 0:
        cross_plus += m * ac**n * a ** (m - 1)
    cross_minus = ac**n * a ** (m + 1)
    if n > 0:
        cross_minus += n * ac ** (n - 1) * a**m
    total += root * (eip * cross_plus + eip.conjugate() * cross_minus)

    added = (n + m + 1) * ac**n * a**m + ac ** (n + 1) * a ** (m + 1)
    if n > 0 and m > 0:
        added += (n * m) * ac ** (n - 1) * a ** (m - 1)
    total += (1.0 - eps) * added

    return total / _inverse_norm_squared(params)


def mean_a(params: HcsParams) -> complex:
    """<a> from its dedicated closed form; equals moment(params, 0, 1) to rounding."""
    eps = params.epsilon
    a = params.alpha
    root = math.sqrt(eps * (1.0 - eps))
    eip = cmath.exp(1j * params.phi)
    aa = abs(a) ** 2
    total = eps * a + root * (eip * (1.0 + aa) + eip.conjugate() * a * a)
    total += (1.0 - eps) * a * (2.0 + aa)
    return total / _inverse_norm_squared(params)


def mean_number(params: HcsParams) -> float:
    """<a^dag a> from its dedicated closed form; agrees with moment(params, 1, 1)."""
    eps = params.epsilon
    aa = abs(params.alpha) ** 2
    cross = (params.alpha * cmath.exp(-1j * params.phi)).real
    value = (
        (1.0 - eps)
        + (3.0 - 2.0 * eps) * aa
        + (1.0 - eps) * aa * aa
        + 2.0 * math.sqrt(eps * (1.0 - eps)) * (1.0 + aa) * cross
    )
    return value / _inverse_norm_squared(params)


class MomentCache(dict):
    """(n, m) -> moment memo of one provider: a hit is one dict lookup, a miss calls ``compute(n, m)``."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(*key)
        return value


class ClosedFormMoments:
    """Moment provider of :mod:`hcslab.witnesses` over a fixed state: raw moments from
    :func:`moment`, cached per (n, m), and centered moments from the displaced-qubit form."""

    def __init__(self, params: HcsParams):
        self.params = params
        self._raw = MomentCache(partial(moment, params))

    def moment(self, n: int, m: int) -> complex:
        return self._raw[n, m]

    def mean_a(self) -> complex:
        return self.moment(0, 1)

    @cached_property
    def _qubit(self) -> tuple[complex, float]:
        """(beta, p) of the module docstring, with c0* c1 and |c1|^2 expanded to skip rounding sqrt(1-eps)^2."""
        eps = self.params.epsilon
        inverse = _inverse_norm_squared(self.params)
        beta = math.sqrt(eps * (1.0 - eps)) * cmath.exp(1j * self.params.phi) + (1.0 - eps) * self.params.alpha
        return beta / inverse, (1.0 - eps) / inverse

    def centered_moment(self, r: int, s: int) -> complex:
        """<:(a^dag - <a^dag>)^r (a - <a>)^s:> by the displaced-qubit form of the module docstring."""
        if r < 0 or s < 0:
            raise ValueError(f"centered moment orders must be non-negative, got ({r}, {s})")
        beta, p = self._qubit
        down, up = -beta, -beta.conjugate()
        value = (1 - r - s) * up**r * down**s
        if r and s:
            value += r * s * p * up ** (r - 1) * down ** (s - 1)
        return value
