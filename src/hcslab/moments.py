"""Closed-form field moments of the hybrid coherent state.

The hybrid coherent state (HCS) is the normalized superposition

    N * [ sqrt(eps) |alpha>  +  sqrt(1 - eps) e^{i phi} a^dag |alpha> ],

which interpolates between a coherent state (eps = 1) and a single-photon-added
coherent state (eps = 0).  As a^dag|alpha> = D(alpha)(|1> + alpha*|0>), the HCS
is the displaced qubit N D(alpha)[c0|0> + c1|1>] with c1 = sqrt(1-eps) e^{i phi}
and c0 = sqrt(eps) + c1 alpha*.  With beta = N^2 c0* c1 and p = N^2 |c1|^2, and
D^dag a D = a + alpha, every moment is a qubit expectation with at most four
terms, evaluated exactly (up to double rounding) with no Fock-space truncation.
Raw moments take the displacement u = alpha,

    <a^dag^n a^m> = <q|(a^dag + u*)^n (a + u)^m|q>
                  = u*^n u^m + m beta u*^n u^(m-1) + n beta* u*^(n-1) u^m + n m p u*^(n-1) u^(m-1),

so <a> = alpha + beta.  Centered moments take u = -beta, where the cross
terms fold into the first and two terms are left,

    <:(a^dag - <a^dag>)^r (a - <a>)^s:> = (1-r-s) (-beta*)^r (-beta)^s + r s (-beta*)^(r-1) (-beta)^(s-1) p,

each bounded for any alpha since |beta|^2 = p (1 - p) <= 1/4.  The brute-force
counterpart in :mod:`hcslab.fock` recomputes everything numerically and never
touches these formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Largest accepted n + m for :func:`moment`.  The closed forms are verified
#: against a 60-digit reference for |alpha| <= 12, where this cap keeps every
#: term comfortably inside double range.
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


def _qubit(params: HcsParams) -> tuple[complex, float]:
    """(beta, p) of the module docstring, with c0* c1 and |c1|^2 expanded to skip rounding sqrt(1-eps)^2."""
    eps = params.epsilon
    inverse = _inverse_norm_squared(params)
    beta = math.sqrt(eps * (1.0 - eps)) * cmath.exp(1j * params.phi) + (1.0 - eps) * params.alpha
    return beta / inverse, (1.0 - eps) / inverse


def _raw_moment(alpha: complex, beta: complex, p: float, n: int, m: int) -> complex:
    """<a^dag^n a^m> by the four-term displaced-qubit form of the module docstring.

    Each term is a coefficient times alpha*^j alpha^k, and the two cross terms
    are summed before the rest, so swapping (n, m) conjugates every operation:
    moment(m, n) is exactly conj(moment(n, m)) and <a^dag^k a^k> is exactly real.
    """
    _check_key(n, m)
    ac = alpha.conjugate()
    value = ac**n * alpha**m
    cross = 0.0
    if m:
        cross = (m * beta) * (ac**n * alpha ** (m - 1))
    if n:
        cross += (n * beta.conjugate()) * (ac ** (n - 1) * alpha**m)
    if n and m:
        value += (n * m * p) * (ac ** (n - 1) * alpha ** (m - 1))
    return value + cross


def moment(params: HcsParams, n: int, m: int) -> complex:
    """<a^dag^n a^m> of the normalized state, from the displaced qubit."""
    return _raw_moment(params.alpha, *_qubit(params), n, m)


def mean_a(params: HcsParams) -> complex:
    """<a> = moment(params, 0, 1)."""
    return moment(params, 0, 1)


def mean_number(params: HcsParams) -> float:
    """<a^dag a> = moment(params, 1, 1), exactly real."""
    return moment(params, 1, 1).real


class ClosedFormMoments:
    """Moment provider of :mod:`hcslab.witnesses` over a fixed state: raw and centered
    moments, both from one (beta, p) computed at construction."""

    def __init__(self, params: HcsParams):
        self.params = params
        self._beta, self._p = _qubit(params)

    def moment(self, n: int, m: int) -> complex:
        return _raw_moment(self.params.alpha, self._beta, self._p, n, m)

    def centered_moment(self, r: int, s: int) -> complex:
        """<:(a^dag - <a^dag>)^r (a - <a>)^s:> by the two-term form of the module docstring:
        the four-term raw form at u = -beta."""
        if r < 0 or s < 0:
            raise ValueError(f"centered moment orders must be non-negative, got ({r}, {s})")
        down, up = -self._beta, -self._beta.conjugate()
        value = (1 - r - s) * up**r * down**s
        if r and s:
            value += r * s * self._p * up ** (r - 1) * down ** (s - 1)
        return value
