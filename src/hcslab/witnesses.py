"""Higher-order squeezing and antibunching witnesses.

Everything here works on a *moment provider*: any object exposing, for one
fixed state, ``moment(n, m)`` = <a^dag^n a^m> and ``centered_moment(r, s)`` =
<:(a^dag - <a^dag>)^r (a - <a>)^s:>.  The closed-form engine computes centered
moments from the displaced-qubit form of :mod:`hcslab.moments`, the Fock oracle
from its ladder stacks, so each witness has two fully independent routes.

The 2n-order quadrature variance splits as

    <(dX_psi)^2n> = S_psi^(2n) + (2n-1)!! (C/2)^n,

where the second term is the coherent-state benchmark and S_psi^(2n) < 0
witnesses 2n-order squeezing.  S is a weighted sum of normally ordered central
moments <:(dX_psi)^k:>.  The n-th order antibunching ratio is
g^(n+1) = <a^dag^(n+1) a^(n+1)> / <a^dag a>^(n+1), with g < 1 the witness.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from math import comb, fsum
from typing import Protocol

#: Provably real quantities may carry at most this much imaginary residue;
#: larger residues indicate a bug (or a broken provider), not data.
IMAG_RESIDUE_TOL = 1e-10

MAX_CENTRAL_ORDER = 12
MAX_SQUEEZING_ORDER = 5


class MomentProvider(Protocol):
    def moment(self, n: int, m: int) -> complex: ...

    def centered_moment(self, r: int, s: int) -> complex: ...


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
    if k in (-1, 0):
        return 1
    if k < 0 or k % 2 == 0:
        raise ValueError(f"double factorial expects an odd k or k in {{-1, 0}}, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"{what} should be real, got imaginary residue {value.imag:.3e}")
    return value.real


def normally_ordered_central_moment(provider: MomentProvider, quad: QuadratureSpec, k: int) -> float:
    """<:(dX_psi)^k:> = (C/2)^(k/2) sum_l C(k, l) e^{i(k-2l) psi} <:(a^dag - <a^dag>)^(k-l) (a - <a>)^l:>.

    This is the double-binomial expansion of the quadrature power over the raw
    moments, regrouped as one binomial sum of the provider's centered moments
    so that the huge mutually cancelling terms of the raw expansion never appear.
    """
    if not 1 <= k <= MAX_CENTRAL_ORDER:
        raise ValueError(f"central moment order must lie in [1, {MAX_CENTRAL_ORDER}], got {k}")
    centered = provider.centered_moment
    res: list[float] = []
    ims: list[float] = []
    for l in range(k + 1):
        term = comb(k, l) * cmath.exp(1j * (k - 2 * l) * quad.psi) * centered(k - l, l)
        res.append(term.real)
        ims.append(term.imag)
    scale = (quad.commutator_c / 2.0) ** (k / 2.0)
    total = complex(fsum(res) * scale, fsum(ims) * scale)
    return _real_part(total, f"<:(dX)^{k}:>")


def hm_squeezing(provider: MomentProvider, quad: QuadratureSpec, n: int) -> SqueezingResult:
    """Hong-Mandel 2n-order squeezing witness S_psi^(2n).

    S = sum_{m=0}^{n-1} (2n)! / ((2m+2)! (n-m-1)!) (C/4)^(n-m-1) <:(dX)^(2m+2):>,
    with the combinatorial weights taken in exact integer arithmetic.
    """
    if not 1 <= n <= MAX_SQUEEZING_ORDER:
        raise ValueError(f"squeezing order must lie in [1, {MAX_SQUEEZING_ORDER}], got {n}")
    c = quad.commutator_c
    terms = []
    for m in range(n):
        weight = math.factorial(2 * n) // (math.factorial(2 * m + 2) * math.factorial(n - m - 1))
        terms.append(weight * (c / 4.0) ** (n - m - 1) * normally_ordered_central_moment(provider, quad, 2 * m + 2))
    s_value = fsum(terms)
    benchmark = double_factorial(2 * n - 1) * (c / 2.0) ** n
    return SqueezingResult(
        order_2n=2 * n,
        s_value=s_value,
        total_variance=s_value + benchmark,
        cs_benchmark=benchmark,
        squeezed=s_value < 0.0,
    )


def hoa_g(provider: MomentProvider, n: int) -> AntibunchingResult:
    """Antibunching ratio g^(n+1); n = 1 is ordinary antibunching, n >= 2 higher order."""
    if n < 1:
        raise ValueError(f"antibunching order must be >= 1, got {n}")
    occupation = _real_part(complex(provider.moment(1, 1)), "<a^dag a>")
    if occupation <= 0.0:
        raise VacuumStateError("g^(n+1) is undefined for the vacuum: <a^dag a> = 0")
    numerator = _real_part(complex(provider.moment(n + 1, n + 1)), f"<a^dag^{n + 1} a^{n + 1}>")
    if numerator < -IMAG_RESIDUE_TOL:
        raise ValueError(f"<a^dag^{n + 1} a^{n + 1}> should be non-negative, got {numerator:.3e}")
    denominator = occupation ** (n + 1)
    if denominator < sys.float_info.min:  # a coherent state within ~1e-13 of the vacuum at n = 11
        raise VacuumStateError(f"g^({n + 1}) is undefined in double precision: <a^dag a>^{n + 1} underflows")
    g_value = max(0.0, numerator) / denominator
    return AntibunchingResult(order_n=n, g_value=g_value, antibunched=g_value < 1.0)
