"""Brute-force truncated-Fock oracle.

States are plain amplitude vectors over |0> .. |dim-1>.  All quantities are
computed numerically — moments by ladder application, quadrature powers by
repeated matrix-free application of X - <X> to the state — so the results are
exact up to truncation and rounding and serve as ground truth for the closed
forms in :mod:`hcslab.moments`.  Nothing here evaluates a closed-form moment.

Moments pair entries of a ladder stack [(a - shift)^k psi for k <= K] in one
vdot, <(a - shift)^r psi | (a - shift)^s psi> = <(a^dag - shift*)^r (a - shift)^s>:
shift 0 gives the raw moments, shift <a> (the vector's own numeric mean) the
normally ordered centered moments.  The witnesses' two real quantities are sums
and ratios of these: see :class:`FockMoments`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammainc, gammaln

from .moments import HcsParams
from .witnesses import QuadratureSpec, VacuumStateError

DEFAULT_TAIL_TOL = 1e-12

#: Probability mass allowed in the top `order` slots before a powered
#: quadrature is considered truncation-unsafe (each application of X spreads
#: support up by one level).
QUADRATURE_EDGE_TOL = 1e-10

NORMALIZATION_TOL = 1e-6

#: Smallest basis dimension :func:`choose_truncation` returns.
MIN_DIM = 16


class TruncationError(RuntimeError):
    """The truncated basis is too small for the requested construction."""


def _real_part(value: complex, what: str) -> float:
    """The real part of a provably real quantity; an imaginary residue above 1e-10 means a bug, not data."""
    if abs(value.imag) > 1e-10:
        raise ValueError(f"{what} should be real, got imaginary residue {value.imag:.3e}")
    return value.real


@dataclass(frozen=True)
class TruncationPolicy:
    """Maximum acceptable truncated probability mass."""

    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0.0):
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol!r}")


@dataclass(frozen=True)
class FockVector:
    """Immutable amplitude vector over the truncated Fock basis."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amps must be a non-empty 1-d array")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amps must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _poisson_tail(mean: float, k: int) -> float:
    """P(N > k) for N ~ Poisson(mean)."""
    if mean == 0.0:
        return 0.0
    # Poisson survival function through the regularized lower incomplete gamma
    return float(gammainc(k + 1, mean))


def choose_truncation(alpha, policy: TruncationPolicy | None = None, headroom: int = 0) -> int:
    """Pick a basis dimension adequate for a coherent amplitude alpha.

    Starts from the larger of MIN_DIM and |alpha|^2 + 10 sqrt(|alpha|^2 + 1) plus
    caller headroom (largest ladder power used + 2 protects powered-quadrature
    spreading) and grows until the Poisson tail beyond dim - 2 is below the policy tolerance.
    Monotone nondecreasing in |alpha|.
    """
    if policy is None:
        policy = TruncationPolicy()
    if headroom < 0:
        raise ValueError("headroom must be non-negative")
    mu = abs(complex(alpha)) ** 2
    dim = max(MIN_DIM, math.ceil(mu + 10.0 * math.sqrt(mu + 1.0)) + headroom)
    while _poisson_tail(mu, dim - 2) >= policy.tail_tol:
        dim += 1
    return dim


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) of |alpha>, built in log space:
    alpha^n, n! and e^{|alpha|^2/2} overflow doubles long before the amplitudes do."""
    if alpha == 0:
        return np.eye(1, dim, dtype=np.complex128)[0]
    n = np.arange(dim)
    return np.exp(n * cmath.log(alpha) - 0.5 * (gammaln(n + 1) + abs(alpha) ** 2))


def _normalized_or_flag(raw: np.ndarray, tail_tol: float, what: str) -> FockVector:
    total = float(np.sum(np.abs(raw) ** 2))
    if total <= 0.0:
        raise ValueError(f"{what}: zero-norm construction")
    if abs(raw[-1]) ** 2 / total >= tail_tol:
        raise TruncationError(
            f"{what}: truncation inadequate, top-level mass "
            f"{abs(raw[-1]) ** 2 / total:.3e} exceeds the tolerance {tail_tol:.3e}"
        )
    return FockVector(raw / math.sqrt(total))


def build_coherent(alpha, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Coherent state |alpha> in a dim-dimensional basis, renormalized within it."""
    alpha = complex(alpha)
    return _normalized_or_flag(_coherent_amplitudes(alpha, dim), tail_tol, f"coherent alpha={alpha}")


def _hcs_raw(params: HcsParams, dim: int) -> np.ndarray:
    """Unnormalized sqrt(eps)|alpha> + sqrt(1-eps) e^{i phi} a^dag |alpha> amplitudes."""
    coherent = _coherent_amplitudes(params.alpha, dim)
    added = np.zeros(dim, dtype=np.complex128)
    added[1:] = np.sqrt(np.arange(1, dim)) * coherent[:-1]
    eps = params.epsilon
    return math.sqrt(eps) * coherent + math.sqrt(1.0 - eps) * cmath.exp(1j * params.phi) * added


def build_hcs(params: HcsParams, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Hybrid coherent state built amplitude-wise and normalized numerically."""
    return _normalized_or_flag(_hcs_raw(params, dim), tail_tol, f"hcs {params}")


def _ladder_moment(state: FockVector, stack: list[np.ndarray], shift: complex, n: int, m: int) -> complex:
    """<(a - shift)^n psi | (a - shift)^m psi>, extending ``stack`` = [psi, (a - shift) psi, ...] as needed;
    entries keep the full dimension, each lowering zero-filling the top slot."""
    if n < 0 or m < 0:
        raise ValueError(f"moment orders must be non-negative, got ({n}, {m})")
    top = max(n, m)
    if top >= state.dim:
        raise ValueError(f"ladder power {top} exhausts the truncated basis (dim {state.dim})")
    while len(stack) <= top:
        v = stack[-1]
        stack.append(np.append(np.sqrt(np.arange(1.0, v.size)) * v[1:], 0.0) - shift * v)
    return complex(np.vdot(stack[n], stack[m]))


def numeric_moment(state: FockVector, n: int, m: int) -> complex:
    """<a^dag^n a^m> = <a^n psi | a^m psi>, exact for the stored vector."""
    return _ladder_moment(state, [state.amps], 0.0, n, m)


def _apply_quadrature(v: np.ndarray, scale: float, phase: complex) -> np.ndarray:
    """One application of X = scale * (a^dag e^{i psi} + a e^{-i psi})."""
    out = np.zeros_like(v)
    roots = np.sqrt(np.arange(1.0, v.size))
    out[:-1] = phase.conjugate() * (roots * v[1:])
    out[1:] += phase * (roots * v[:-1])
    return scale * out


def quadrature_central_moment(state: FockVector, quad: QuadratureSpec, order: int) -> float:
    """<(dX_psi)^order> by repeated application of X - <X> to the state.

    Every application spreads support up by one level, so the top `order`
    slots of the state must be essentially empty for the result to be trusted.
    """
    if order not in (2, 4, 6, 8, 10):
        raise ValueError(f"order must be one of 2, 4, 6, 8, 10, got {order}")
    edge = state.amps[max(0, state.dim - order) :]
    edge_mass = float(np.sum(np.abs(edge) ** 2))
    if edge_mass >= QUADRATURE_EDGE_TOL:
        raise TruncationError(
            f"quadrature power {order}: probability mass {edge_mass:.3e} in the top "
            f"{order} levels would spread past the truncation"
        )
    scale = math.sqrt(quad.commutator_c / 2.0)
    phase = cmath.exp(1j * quad.psi)
    mean_a_num = numeric_moment(state, 0, 1)
    x_mean = 2.0 * scale * (mean_a_num * phase.conjugate()).real
    v = state.amps
    for _ in range(order):
        v = _apply_quadrature(v, scale, phase) - x_mean * v
    return _real_part(complex(np.vdot(state.amps, v)), f"<(dX)^{order}>")


def fidelity(u: FockVector, v: FockVector) -> float:
    """|<u|v>|^2 for unit-normalized inputs; the shorter vector is zero-padded."""
    for name, state in (("u", u), ("v", v)):
        if abs(state.norm() - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"fidelity expects normalized states, |{name}| = {state.norm()!r}")
    size = min(u.dim, v.dim)
    overlap = np.vdot(u.amps[:size], v.amps[:size])
    return min(1.0, float(abs(overlap) ** 2))


class FockMoments:
    """Moment provider over one stored vector: every quantity pairs entries of its two ladder stacks."""

    def __init__(self, state: FockVector):
        self.state = state
        self._lowered, self._centered = [state.amps], [state.amps]

    @cached_property
    def _mean(self) -> complex:
        """The numeric <a>, the shift of the centered stack; taken on first use, so building never raises."""
        return _ladder_moment(self.state, self._lowered, 0.0, 0, 1)

    def moment(self, n: int, m: int) -> complex:
        return _ladder_moment(self.state, self._lowered, 0.0, n, m)

    def quadrature_moment(self, psi: float, k: int) -> float:
        """<:(da^dag e^{i psi} + da e^{-i psi})^k:> = sum_l C(k, l) e^{i(k-2l) psi} <:da^dag^(k-l) da^l:>."""
        centered = [_ladder_moment(self.state, self._centered, self._mean, k - l, l) for l in range(k + 1)]
        total = sum(math.comb(k, l) * cmath.exp(1j * (k - 2 * l) * psi) * c for l, c in enumerate(centered))
        return _real_part(total, f"<:(dX)^{k}:>")

    def antibunching_ratio(self, k: int) -> float:
        """g^(k) = <a^dag^k a^k> / <a^dag a>^k; VacuumStateError where the denominator vanishes or underflows."""
        denominator = self.moment(1, 1).real ** k
        if denominator < sys.float_info.min:  # also a coherent state within ~1e-13 of the vacuum at k = 12
            raise VacuumStateError(f"g^({k}) is undefined in double precision: <a^dag a>^{k} underflows")
        return self.moment(k, k).real / denominator
