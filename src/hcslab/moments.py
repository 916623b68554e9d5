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

so <a> = alpha + beta.  The witnesses need two real polynomials in p, |alpha|^2,
R = Re(beta alpha*) and b = 2 Re(beta e^{-i psi}): centering the quadrature at
u = -beta leaves <:(dX_psi)^k:> = (C/2)^(k/2) [(1-k)(-b)^k + k(k-1) p (-b)^(k-2)],
and <a^dag^k a^k> = |alpha|^(2k-2) (|alpha|^2 + 2kR + k^2 p) gives the ratio form
g^(k) = x^(k-1) y, x = |alpha|^2 / M, y = (|alpha|^2 + 2kR + k^2 p) / M, with
M = |alpha|^2 + 2R + p = <a^dag a>.  As |beta|^2 = p (1 - p), |b| <= 1 and p <= 1
bound every quadrature term for any alpha; g is finite wherever M > 0 (all but
the vacuum) and exactly 1 at eps = 1.  Arithmetic operators alone evaluate every
form, so a provider holds one state or a numpy array of amplitudes (a sweep
curve).  :mod:`hcslab.fock` recomputes everything without these formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .witnesses import VacuumStateError

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


def _inverse_norm_squared(eps: float, phi: float, alpha):
    """1/N^2 = 1 + 2 sqrt(eps(1-eps)) Re[alpha e^{-i phi}] + (1-eps)|alpha|^2."""
    cross = (alpha * cmath.exp(-1j * phi)).real
    value = 1.0 + 2.0 * math.sqrt(eps * (1.0 - eps)) * cross + (1.0 - eps) * abs(alpha) ** 2
    if np.any(value <= 0.0):
        # mathematically bounded below by 1 - eps > 0; only a rounding corner
        # at eps ~ 1 with destructively interfering alpha could land here
        raise ValueError(f"state norm underflow for eps={eps!r}, phi={phi!r}")
    return value


def normalization(params: HcsParams) -> float:
    """Normalization constant N of the superposition, always positive."""
    return 1.0 / math.sqrt(_inverse_norm_squared(params.epsilon, params.phi, params.alpha))


def _qubit(eps: float, phi: float, alpha) -> tuple:
    """(beta, p) of the module docstring, with c0* c1 and |c1|^2 expanded to skip rounding sqrt(1-eps)^2."""
    inverse = _inverse_norm_squared(eps, phi, alpha)
    beta = math.sqrt(eps * (1.0 - eps)) * cmath.exp(1j * phi) + (1.0 - eps) * alpha
    return beta / inverse, (1.0 - eps) / inverse


def _raw_moment(alpha, beta, p, n: int, m: int):
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
    return _raw_moment(params.alpha, *_qubit(params.epsilon, params.phi, params.alpha), n, m)


def mean_a(params: HcsParams) -> complex:
    """<a> = moment(params, 0, 1)."""
    return moment(params, 0, 1)


def mean_number(params: HcsParams) -> float:
    """<a^dag a> = moment(params, 1, 1), exactly real."""
    return moment(params, 1, 1).real


class ClosedFormMoments:
    """Moment provider of :mod:`hcslab.witnesses` from the (beta, p) taken at construction.

    ``alpha``, a numpy array of amplitudes, replaces ``params.alpha`` to hold a
    whole sweep curve at that epsilon and phi; every method then returns arrays.
    """

    def __init__(self, params: HcsParams, alpha=None):
        self.params = params
        self.alpha = params.alpha if alpha is None else alpha
        self.beta, self.p = _qubit(params.epsilon, params.phi, self.alpha)

    def moment(self, n: int, m: int):
        return _raw_moment(self.alpha, self.beta, self.p, n, m)

    def quadrature_moment(self, psi: float, k: int):
        """<:(da^dag e^{i psi} + da e^{-i psi})^k:> = (1-k)(-b)^k + k(k-1) p (-b)^(k-2), b = 2 Re(beta e^{-i psi})."""
        minus_b = -2.0 * (self.beta * cmath.exp(-1j * psi)).real
        return (1 - k) * minus_b**k + k * (k - 1) * self.p * minus_b ** max(k - 2, 0)

    def antibunching_ratio(self, k: int):
        """g^(k) = x^(k-1) y with M = moment(1, 1); at eps = 1, M is the rounded |alpha|^2 itself, so g = 1."""
        ac = self.alpha.conjugate()
        alpha_sq, r = (ac * self.alpha).real, (self.beta * ac).real
        occupation = self.moment(1, 1).real
        if np.any(occupation <= 0.0):
            raise VacuumStateError(f"g^({k}) is undefined for the vacuum: <a^dag a> = 0")
        return (alpha_sq / occupation) ** (k - 1) * ((alpha_sq + 2 * k * r + k * k * self.p) / occupation)
