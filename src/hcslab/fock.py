"""Brute-force truncated-Fock oracle.

States are plain amplitude vectors over |0> .. |dim-1>.  All quantities are
computed numerically — moments from Gram products of ladder stacks, quadrature
powers by repeated matrix-free application of X - <X> to the state — so the
results are exact up to truncation and rounding and serve as ground truth for the
closed forms in :mod:`hcslab.moments`.  Nothing here evaluates a closed-form moment.
It needs numpy alone.  No basis exceeds MAX_DIM levels: a larger amplitude or
dimension raises ValueError before anything is allocated.

A ladder stack [(a - shift)^k psi for k <= K] pairs with itself in one Gram product,
G[r, s] = <(a - shift)^r psi | (a - shift)^s psi> = <(a^dag - shift*)^r (a - shift)^s>:
shift 0 gives the raw moments, shift <a> (the vector's own numeric mean) the
normally ordered centered moments.  :class:`FockMoments` takes both for a batch of
states of one dimension at once; the witnesses' two real quantities are sums and
ratios of their entries.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import HcsParams
from .witnesses import MAX_CENTRAL_ORDER, QuadratureSpec, VacuumStateError

DEFAULT_TAIL_TOL = 1e-12

#: Probability mass allowed in the top `order` slots before a powered
#: quadrature is considered truncation-unsafe (each application of X spreads
#: support up by one level).
QUADRATURE_EDGE_TOL = 1e-10

NORMALIZATION_TOL = 1e-6

#: Smallest basis dimension :func:`choose_truncation` returns.
MIN_DIM = 16

#: Largest basis dimension any state is built in; choose_truncation reaches it near |alpha| = 57.
MAX_DIM = 4096

#: ln n! for n < MAX_DIM, each entry the exact sum of the rounded ln k, rounded once (math.lgamma is off by
#: up to 3 ulps, a plain cumsum by 16): whole steps of 2^-30 sum exactly, and the remainders lose ~1e-18.
_STEPS, _REMAINDERS = np.divmod(np.log(np.arange(1.0, MAX_DIM)), 2.0**-30)
_LOG_FACTORIAL = np.append(0.0, np.cumsum(_STEPS) * 2.0**-30 + np.cumsum(_REMAINDERS))


class TruncationError(RuntimeError):
    """The truncated basis is too small for the requested construction."""


def _real_part(value, what: str):
    """The real part of a provably real quantity (or array); an imaginary residue above 1e-10 means a bug."""
    residue = np.abs(value.imag).max(initial=0.0)
    if residue > 1e-10:
        raise ValueError(f"{what} should be real, got imaginary residue {residue:.3e}")
    return np.real(value)


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
    """P(N > k) for N ~ Poisson(mean): the pmf summed from k + 1 upward or, below the mean, where those terms
    grow from values that can underflow, one minus the sum from k downward; each stops at a term < 1e-17 of it."""
    if mean == 0.0:
        return 0.0
    below = k + 1 < mean
    j, step = (k, -1) if below else (k + 1, 1)
    term, total = math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)), 0.0
    while term > 1e-17 * total:
        total += term
        term *= j / mean if below else mean / (j + 1)
        j += step
    return 1.0 - total if below else total


def choose_truncation(alpha, policy: TruncationPolicy | None = None, headroom: int = 0) -> int:
    """Pick a basis dimension adequate for a coherent amplitude alpha.

    Starts from the larger of MIN_DIM and |alpha|^2 + 10 sqrt(|alpha|^2 + 1) plus
    caller headroom (largest ladder power used + 2 protects powered-quadrature
    spreading) and grows until the Poisson tail beyond dim - 2 is below the policy tolerance.
    Monotone nondecreasing in |alpha|.  Raises ValueError where that would exceed MAX_DIM, for
    |alpha| >= sqrt(MAX_DIM) (also inf and nan) without squaring it: 1e200 ** 2 overflows.
    """
    if policy is None:
        policy = TruncationPolicy()
    if headroom < 0:
        raise ValueError("headroom must be non-negative")
    alpha_abs = abs(complex(alpha))
    mu = alpha_abs**2 if alpha_abs < math.sqrt(MAX_DIM) else float(MAX_DIM)
    dim = max(MIN_DIM, math.ceil(mu + 10.0 * math.sqrt(mu + 1.0)) + headroom)
    while dim <= MAX_DIM and _poisson_tail(mu, dim - 2) >= policy.tail_tol:
        dim += 1
    if dim > MAX_DIM:
        raise ValueError(f"|alpha| = {alpha_abs:g} needs a basis above MAX_DIM = {MAX_DIM} levels")
    return dim


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) of |alpha>, built in log space:
    alpha^n, n! and e^{|alpha|^2/2} overflow doubles long before the amplitudes do."""
    if dim > MAX_DIM:
        raise ValueError(f"basis dimension {dim} exceeds MAX_DIM = {MAX_DIM}")
    if alpha == 0:
        return np.eye(1, dim, dtype=np.complex128)[0]
    n = np.arange(dim)
    return np.exp(n * cmath.log(alpha) - 0.5 * (_LOG_FACTORIAL[:dim] + abs(alpha) ** 2))


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


def _ladder_gram(amps: np.ndarray, powers: int, shift=None) -> np.ndarray:
    """G[..., n, m] = <(a - shift)^n psi | (a - shift)^m psi>, n, m < powers, for an (..., dim) batch with one
    shift per state (None: unshifted); each lowering of the stack zero-fills the top slot."""
    roots = np.sqrt(np.arange(1.0, amps.shape[-1]))
    stack = np.zeros((powers,) + amps.shape, dtype=np.complex128)
    stack[0] = amps
    for k in range(1, powers):
        stack[k, ..., :-1] = roots * stack[k - 1, ..., 1:]
        if shift is not None:
            stack[k] -= shift[..., None] * stack[k - 1]
    return np.moveaxis(_vdot(stack[:, None], stack[None, :]), (0, 1), (-2, -1))


def _vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|y> over the last axis of two batches, summed as np.vdot sums one pair."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def numeric_moment(state: FockVector, n: int, m: int) -> complex:
    """<a^dag^n a^m> = <a^n psi | a^m psi>, exact for the stored vector."""
    return FockMoments(state).moment(n, m)


def quadrature_central_moment(state, quad: QuadratureSpec, order):
    """<(dX_psi)^order> by repeated application of X - <X> to the state.

    ``state`` is a FockVector or an (S, dim) stack of amplitude vectors; ``order`` is one even order, or a
    sequence of them read off one chain of applications up to the largest: one value per state, stacked per
    order for a sequence.  Every application spreads support up by one level, so the top `order` slots of
    each state must be essentially empty for the result to be trusted.
    """
    orders = (order,) if np.ndim(order) == 0 else tuple(order)
    if any(k not in (2, 4, 6, 8, 10) for k in orders):
        raise ValueError(f"order must be one of 2, 4, 6, 8, 10, got {order}")
    amps = state.amps if isinstance(state, FockVector) else np.asarray(state, dtype=np.complex128)
    top = max(orders)
    edge_mass = np.max(np.sum(np.abs(amps[..., max(0, amps.shape[-1] - top) :]) ** 2, axis=-1))
    if edge_mass >= QUADRATURE_EDGE_TOL:
        raise TruncationError(f"quadrature power {top}: probability mass {edge_mass:.3e} in the top {top} levels "
                              "would spread past the truncation")  # fmt: skip
    scale = math.sqrt(quad.commutator_c / 2.0)
    phase = cmath.exp(1j * quad.psi)
    roots = np.sqrt(np.arange(1.0, amps.shape[-1]))
    x_mean = (2.0 * scale * (_vdot(amps[..., :-1], roots * amps[..., 1:]) * phase.conjugate()).real)[..., None]
    v, values = amps, {}
    for k in range(1, top + 1):  # v <- (X - <X>) v, X = scale * (a^dag e^{i psi} + a e^{-i psi})
        xv = np.zeros_like(v)
        xv[..., :-1] = phase.conjugate() * (roots * v[..., 1:])
        xv[..., 1:] += phase * (roots * v[..., :-1])
        v = scale * xv - x_mean * v
        if k in orders:
            values[k] = _real_part(_vdot(amps, v), f"<(dX)^{k}>")
    return values[order] if np.ndim(order) == 0 else np.array([values[k] for k in orders])


def fidelity(u: FockVector, v: FockVector) -> float:
    """|<u|v>|^2 for unit-normalized inputs; the shorter vector is zero-padded."""
    for name, state in (("u", u), ("v", v)):
        if abs(state.norm() - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"fidelity expects normalized states, |{name}| = {state.norm()!r}")
    size = min(u.dim, v.dim)
    overlap = np.vdot(u.amps[:size], v.amps[:size])
    return min(1.0, float(abs(overlap) ** 2))


class FockMoments:
    """Moment provider over a FockVector (scalar quantities) or an (S, dim) batch of one dimension (arrays
    of S), reading the Gram products of the stacks [a^k psi] and [(a - <a>)^k psi], k <= MAX_CENTRAL_ORDER."""

    def __init__(self, states):
        self.amps = states.amps if isinstance(states, FockVector) else np.asarray(states, dtype=np.complex128)

    @cached_property
    def _raw(self) -> np.ndarray:
        """<a^dag^n a^m> at [..., n, m]."""
        return _ladder_gram(self.amps, MAX_CENTRAL_ORDER + 1)

    @cached_property
    def _centered(self) -> np.ndarray:
        """<:da^dag^n da^m:> at [..., n, m], da = a - <a> (numeric); taken on first use, so building never raises."""
        return _ladder_gram(self.amps, MAX_CENTRAL_ORDER + 1, shift=self._raw[..., 0, 1])

    def moment(self, n: int, m: int):
        if n < 0 or m < 0:
            raise ValueError(f"moment orders must be non-negative, got ({n}, {m})")
        top = max(n, m)
        if top >= self.amps.shape[-1]:
            raise ValueError(f"ladder power {top} exhausts the truncated basis (dim {self.amps.shape[-1]})")
        return (self._raw if top <= MAX_CENTRAL_ORDER else _ladder_gram(self.amps, top + 1))[..., n, m]

    def quadrature_moment(self, psi: float, k: int):
        """<:(da^dag e^{i psi} + da e^{-i psi})^k:> = sum_l C(k, l) e^{i(k-2l) psi} <:da^dag^(k-l) da^l:>."""
        weights = np.array([math.comb(k, l) * cmath.exp(1j * (k - 2 * l) * psi) for l in range(k + 1)])
        # contiguous, so that each state's sum runs as a batch of one runs it
        terms = np.ascontiguousarray(self._centered[..., range(k, -1, -1), range(k + 1)])
        return _real_part(_vdot(weights.conj(), terms), f"<:(dX)^{k}:>")

    def antibunching_ratio(self, k: int):
        """g^(k) = <a^dag^k a^k> / <a^dag a>^k; VacuumStateError where a denominator vanishes or underflows."""
        denominator = self.moment(1, 1).real ** k
        if np.any(denominator < sys.float_info.min):  # also a coherent state within ~1e-13 of the vacuum at k = 12
            raise VacuumStateError(f"g^({k}) is undefined in double precision: <a^dag a>^{k} underflows")
        return self.moment(k, k).real / denominator
