"""Higher-order squeezing and antibunching witnesses.

Everything here works on a *moment provider*: any object exposing, for one
fixed state, the two real quantities ``quadrature_moment(psi, k)`` =
<:(da^dag e^{i psi} + da e^{-i psi})^k:> with da = a - <a>, and
``antibunching_ratio(k)`` = <a^dag^k a^k> / <a^dag a>^k.  The closed-form
engine evaluates them as real polynomials of its displaced qubit, the Fock
oracle as sums over its ladder stacks, so each witness has two independent
routes.  A witness only checks the order and assembles its result
elementwise, so a provider holding a sweep curve yields arrays from the same code.

The 2n-order quadrature variance splits as

    <(dX_psi)^2n> = S_psi^(2n) + (2n-1)!! (C/2)^n,

where the second term is the coherent-state benchmark and S_psi^(2n) < 0
witnesses 2n-order squeezing.  S is a weighted sum of normally ordered central
moments <:(dX_psi)^k:>.  The n-th order antibunching ratio is
g^(n+1) = <a^dag^(n+1) a^(n+1)> / <a^dag a>^(n+1), with g < 1 the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

MAX_CENTRAL_ORDER = 12
MAX_SQUEEZING_ORDER = 5


class MomentProvider(Protocol):
    def quadrature_moment(self, psi: float, k: int): ...

    def antibunching_ratio(self, k: int): ...


class VacuumStateError(ValueError):
    """Raised when a witness is undefined because <a^dag a> vanishes."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature angle psi and the commutator constant C.

    The pair X_psi, X_{psi+pi/2} obeys [X_psi, X_{psi+pi/2}] = iC; the field
    quadrature X_psi = sqrt(C/2) (a^dag e^{i psi} + a e^{-i psi}) realizes it.
    """

    psi: float = 0.0
    commutator_c: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.psi):
            raise ValueError(f"psi must be finite, got {self.psi!r}")
        if not (math.isfinite(self.commutator_c) and self.commutator_c > 0.0):
            raise ValueError(f"commutator constant must be positive, got {self.commutator_c!r}")


@dataclass(frozen=True)
class SqueezingResult:
    order_2n: int
    s_value: float
    total_variance: float
    cs_benchmark: float
    squeezed: bool


@dataclass(frozen=True)
class AntibunchingResult:
    order_n: int
    g_value: float
    antibunched: bool


def double_factorial(k: int) -> int:
    """k!! over the odd integers; k in {-1, 0} maps to 1."""
    if k < -1 or (k > 0 and k % 2 == 0):
        raise ValueError(f"double factorial expects an odd k or k in {{-1, 0}}, got {k}")
    return math.prod(range(k, 0, -2))


def normally_ordered_central_moment(provider: MomentProvider, quad: QuadratureSpec, k: int):
    """<:(dX_psi)^k:> = (C/2)^(k/2) <:(da^dag e^{i psi} + da e^{-i psi})^k:>, from the provider."""
    if not 1 <= k <= MAX_CENTRAL_ORDER:
        raise ValueError(f"central moment order must lie in [1, {MAX_CENTRAL_ORDER}], got {k}")
    return (quad.commutator_c / 2.0) ** (k / 2.0) * provider.quadrature_moment(quad.psi, k)


def hm_squeezing(provider: MomentProvider, quad: QuadratureSpec, n: int) -> SqueezingResult:
    """Hong-Mandel 2n-order squeezing witness S_psi^(2n).

    S = sum_{m=0}^{n-1} (2n)! / ((2m+2)! (n-m-1)!) (C/4)^(n-m-1) <:(dX)^(2m+2):>,
    with the combinatorial weights taken in exact integer arithmetic.  The sum
    is plain: every term is bounded (see :mod:`hcslab.moments`).
    """
    if not 1 <= n <= MAX_SQUEEZING_ORDER:
        raise ValueError(f"squeezing order must lie in [1, {MAX_SQUEEZING_ORDER}], got {n}")
    c = quad.commutator_c
    s_value = sum(
        math.factorial(2 * n) // (math.factorial(2 * m + 2) * math.factorial(n - m - 1))
        * (c / 4.0) ** (n - m - 1)
        * normally_ordered_central_moment(provider, quad, 2 * m + 2)
        for m in range(n)
    )
    benchmark = double_factorial(2 * n - 1) * (c / 2.0) ** n
    return SqueezingResult(
        order_2n=2 * n,
        s_value=s_value,
        total_variance=s_value + benchmark,
        cs_benchmark=benchmark,
        squeezed=s_value < 0.0,
    )


def hoa_g(provider: MomentProvider, n: int) -> AntibunchingResult:
    """Antibunching ratio g^(n+1), n >= 1; g >= 0 holds exactly, so a rounding residue below 0 reads 0.

    The provider raises VacuumStateError where the ratio is undefined.
    """
    if n < 1:
        raise ValueError(f"antibunching order must be >= 1, got {n}")
    g_value = np.maximum(provider.antibunching_ratio(n + 1), 0.0)
    return AntibunchingResult(order_n=n, g_value=g_value, antibunched=g_value < 1.0)
