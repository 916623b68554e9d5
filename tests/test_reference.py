"""Closed-form moments and squeezing witnesses against a 60-digit truncated-Fock reference.

The reference shares no code with hcslab.  It builds the state vector with
mpmath at 60 significant digits and obtains every <(dX_psi)^2n>, n = 1..5,
from one chain v_k = (X_psi - <X_psi>)^k psi as <v_n|v_n> / <psi|psi>, and
every raw moment <a^dag^n a^m>, n + m <= 12, from one lowering stack
w_k = a^k psi as <w_n|w_m> / <psi|psi>.  At that precision neither loses
anything measurable to cancellation, so they settle which double-precision
route is right at large |alpha|.
"""

import cmath
import math

import mpmath
import pytest

from hcslab.moments import ClosedFormMoments, HcsParams, moment
from hcslab.witnesses import QuadratureSpec, double_factorial, hm_squeezing

DIGITS = 60
MAX_N = 5
MAX_MOMENT_SUM = 12


def reference_state(params: HcsParams):
    """(unnormalized amplitudes, sqrt(n) for n <= dim) of the state; call inside mpmath.workdps(DIGITS)."""
    mu = abs(params.alpha) ** 2
    # 25 standard deviations past the mean photon number: the dropped
    # Poisson tail is below 1e-90 for every |alpha| used here
    dim = int(mu + 25.0 * math.sqrt(mu + 1.0)) + 20
    roots = [mpmath.sqrt(n) for n in range(dim + 1)]
    alpha = mpmath.mpc(params.alpha.real, params.alpha.imag)
    coherent = [mpmath.mpc(1)]  # unnormalized alpha^n / sqrt(n!)
    for n in range(1, dim):
        coherent.append(coherent[-1] * alpha / roots[n])
    eps = mpmath.mpf(params.epsilon)
    added = mpmath.sqrt(1 - eps) * mpmath.expj(mpmath.mpf(params.phi))
    psi_vec = [mpmath.sqrt(eps) * coherent[0]] + [
        mpmath.sqrt(eps) * coherent[n] + added * roots[n] * coherent[n - 1] for n in range(1, dim)
    ]
    return psi_vec, roots


def reference_moments(params: HcsParams) -> dict[tuple[int, int], complex]:
    """<a^dag^n a^m> for n + m <= MAX_MOMENT_SUM, from the mpmath lowering stack."""
    with mpmath.workdps(DIGITS):
        psi_vec, roots = reference_state(params)
        norm_sq = mpmath.fsum(abs(z) ** 2 for z in psi_vec)
        stack = [psi_vec]
        for _ in range(MAX_MOMENT_SUM):
            stack.append([roots[n + 1] * z for n, z in enumerate(stack[-1][1:])])
        return {
            (n, m): complex(mpmath.fsum(mpmath.conj(u) * w for u, w in zip(stack[n], stack[m])) / norm_sq)
            for n in range(MAX_MOMENT_SUM + 1)
            for m in range(MAX_MOMENT_SUM + 1 - n)
        }


def reference_squeezing(params: HcsParams, psi: float) -> list[float]:
    """S_psi^(2n) for n = 1..MAX_N with C = 1, from the mpmath chain."""
    with mpmath.workdps(DIGITS):
        psi_vec, roots = reference_state(params)
        dim = len(psi_vec)
        down = mpmath.expj(-mpmath.mpf(psi)) / mpmath.sqrt(2)  # X = (a^dag e^{i psi} + a e^{-i psi}) / sqrt(2)
        up = mpmath.conj(down)

        def apply_x(v):
            out = [down * roots[n + 1] * v[n + 1] for n in range(dim - 1)] + [mpmath.mpc(0)]
            for n in range(1, dim):
                out[n] += up * roots[n] * v[n - 1]
            return out

        norm_sq = mpmath.fsum(abs(z) ** 2 for z in psi_vec)
        x_mean = mpmath.re(mpmath.fsum(mpmath.conj(u) * w for u, w in zip(psi_vec, apply_x(psi_vec)))) / norm_sq
        chain = [psi_vec]
        for _ in range(MAX_N):
            chain.append([w - x_mean * u for u, w in zip(chain[-1], apply_x(chain[-1]))])
        return [
            float(mpmath.fsum(abs(z) ** 2 for z in chain[n]) / norm_sq - mpmath.mpf(double_factorial(2 * n - 1)) / 2**n)
            for n in range(1, MAX_N + 1)
        ]


REFERENCE_CASES = [
    # the figure 2a point where the 2n = 6 value used to be 2.6e-11 off
    (HcsParams(0.5, 0.0, 4.0), 0.0),
    (HcsParams(0.37, 1.1, 8.0 * cmath.exp(0.4j)), 0.7),
    (HcsParams(0.63, 5.2, 8.0 * cmath.exp(-2.5j)), 2.0),
    (HcsParams(0.81, 2.3, 12.0 * cmath.exp(-1.3j)), 2.9),
    (HcsParams(0.05, 4.0, 12.0 * cmath.exp(2.2j)), 1.9),
]
REFERENCE_IDS = ["figure-2a-alpha4", "alpha8-a", "alpha8-b", "alpha12-a", "alpha12-b"]


@pytest.mark.parametrize("params,psi", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_closed_form_squeezing_matches_reference(params, psi):
    provider = ClosedFormMoments(params)
    quad = QuadratureSpec(psi)
    for n, expected in zip(range(1, MAX_N + 1), reference_squeezing(params, psi)):
        assert hm_squeezing(provider, quad, n).s_value == pytest.approx(expected, abs=1e-12), f"2n={2 * n}"


@pytest.mark.parametrize("params", [params for params, _ in REFERENCE_CASES], ids=REFERENCE_IDS)
def test_closed_form_moments_match_reference(params):
    for (n, m), expected in reference_moments(params).items():
        assert abs(moment(params, n, m) - expected) <= 1e-13 * abs(expected), (n, m)
