"""Heralded optical generation of the hybrid coherent state.

A single photon and vacuum enter a balanced splitter; the photon picks up a
phase theta in arm b, couples to a coherent mode a through a weak cross-Kerr
medium (phase phi_xpm per photon pair), and is recombined on a variable
splitter with transmissivity t and reflectivity r.  A click at detector D1
projects mode a onto

    c1 |alpha>  +  c2 a^dag |alpha>,
    c1 = t e^{i theta} - r,        c2 = -i t e^{i theta} phi_xpm alpha,

which is a hybrid coherent state with
    epsilon = |c1|^2 / (|c1|^2 + |c2|^2),   phi = arg(c2) - arg(c1).

The photon never leaves the dual-rail subspace {|10>_bc, |01>_bc}, so the
joint system is simulated exactly as a (dim x 2) array: a truncated Fock mode
times the two rails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncationPolicy, _coherent_amplitudes, _normalized_or_flag, choose_truncation
from .moments import HcsParams, _finite_complex

KERR_MODES = ("linearized", "exact")

BS_UNITARITY_TOL = 1e-12


class DegenerateBranchError(ValueError):
    """Both superposition branches vanish: no amplitude ever reaches D1."""


@dataclass(frozen=True)
class HeraldingParams:
    """Interferometer and Kerr settings for one heralding run.

    `linearized` replaces the Kerr unitary by 1 - i phi_xpm n_a n_b, the weak
    cross-phase-modulation limit valid for phi_xpm << 1; `exact` applies
    e^{-i phi_xpm n_a n_b} itself.
    """

    t_bs2: float
    r_bs2: float
    theta: float
    phi_xpm: float
    alpha: complex
    kerr_mode: str = "linearized"

    def __post_init__(self):
        for name in ("t_bs2", "r_bs2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.t_bs2**2 + self.r_bs2**2 - 1.0) > BS_UNITARITY_TOL:
            raise ValueError(
                f"t^2 + r^2 must equal 1, got {self.t_bs2**2 + self.r_bs2**2!r}"
            )
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not (math.isfinite(self.phi_xpm) and self.phi_xpm >= 0.0):
            raise ValueError(f"phi_xpm must be non-negative, got {self.phi_xpm!r}")
        if self.kerr_mode not in KERR_MODES:
            raise ValueError(f"kerr_mode must be one of {KERR_MODES}, got {self.kerr_mode!r}")
        object.__setattr__(self, "alpha", _finite_complex(self.alpha, "alpha"))

    @classmethod
    def from_transmissivity(cls, t: float, **kwargs) -> "HeraldingParams":
        """Build with r fixed by unitarity, r = sqrt(1 - t^2)."""
        return cls(t_bs2=t, r_bs2=math.sqrt(max(0.0, 1.0 - t * t)), **kwargs)


@dataclass(frozen=True)
class HeraldOutcome:
    state_a: FockVector
    success_prob: float
    mapped: HcsParams


def branch_coefficients(hp: HeraldingParams) -> tuple[complex, complex]:
    """Superposition amplitudes (c1, c2) of the D1-heralded state."""
    through = hp.t_bs2 * cmath.exp(1j * hp.theta)
    return through - hp.r_bs2, -1j * through * hp.phi_xpm * hp.alpha


def map_to_hcs(hp: HeraldingParams) -> HcsParams:
    """The (epsilon, phi, alpha) realized by a D1 click; pure arithmetic."""
    c1, c2 = branch_coefficients(hp)
    w1, w2 = abs(c1) ** 2, abs(c2) ** 2
    if w1 + w2 == 0.0:
        raise DegenerateBranchError("c1 = c2 = 0: the chosen settings send no amplitude to D1")
    epsilon = w1 / (w1 + w2)
    phi = cmath.phase(c2) - cmath.phase(c1)
    return HcsParams(epsilon=epsilon, phi=phi, alpha=hp.alpha)


def _d1_rail(hp: HeraldingParams, dim: int) -> np.ndarray:
    """Mode-a amplitude vector on the D1 rail, before projection.

    Rail b (photon in the Kerr arm) carries e^{i theta} and the
    photon-number-dependent Kerr factor; rail c carries the bare i/sqrt(2).
    The D1 and D2 rails together carry norm 1 up to truncation in `exact`
    mode only: the linearized Kerr operator is not unitary.
    """
    coherent = _coherent_amplitudes(hp.alpha, dim)
    levels = np.arange(dim)
    if hp.kerr_mode == "exact":
        kerr = np.exp(-1j * hp.phi_xpm * levels)
    else:
        kerr = 1.0 - 1j * hp.phi_xpm * levels
    rail_b = (cmath.exp(1j * hp.theta) / math.sqrt(2.0)) * (kerr * coherent)
    rail_c = (1j / math.sqrt(2.0)) * coherent
    # variable splitter: |10>_bc -> t|10> + ir|01>, |01>_bc -> ir|10> + t|01>
    return hp.t_bs2 * rail_b + 1j * hp.r_bs2 * rail_c


def simulate_herald(hp: HeraldingParams, policy: TruncationPolicy | None = None) -> HeraldOutcome:
    """Run the interferometer and project on a D1 click.

    Returns the normalized heralded mode-a state, the click probability, and
    the (epsilon, phi, alpha) this outcome realizes.  In `exact` mode the
    probability is the true Born weight; in `linearized` mode it is the
    squared norm of the projected branch of the non-unitary weak-XPM map,
    which is only approximate (it can stray above 1 by O(phi_xpm^2) and is
    clamped).
    """
    if policy is None:
        policy = TruncationPolicy()
    dim = choose_truncation(hp.alpha, policy, headroom=3)  # first: rejects the |alpha| that overflow map_to_hcs
    mapped = map_to_hcs(hp)  # raises on the degenerate branch case
    d1 = _d1_rail(hp, dim)
    weight = float(np.sum(np.abs(d1) ** 2))
    if weight <= 0.0:
        raise DegenerateBranchError("no amplitude reached D1")
    state_a = _normalized_or_flag(d1, policy.tail_tol, "heralded state")
    return HeraldOutcome(state_a=state_a, success_prob=min(1.0, weight), mapped=mapped)
