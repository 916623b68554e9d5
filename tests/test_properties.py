"""Hypothesis property tests over the documented domain of the closed forms."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcslab.fock import FockMoments, build_coherent, build_hcs, choose_truncation, fidelity
from hcslab.heralding import HeraldingParams, simulate_herald
from hcslab.moments import MAX_MOMENT_ORDER, ClosedFormMoments, HcsParams, moment
from hcslab.validation import MOMENT_TOTAL_ORDER, WITNESS_TOL
from hcslab.witnesses import (
    MAX_SQUEEZING_ORDER,
    QuadratureSpec,
    VacuumStateError,
    hm_squeezing,
    hoa_g,
    normally_ordered_central_moment,
)

#: Largest |alpha| at which the closed forms are pinned against a 60-digit reference.
ALPHA_DOMAIN = 12.0
#: Largest |alpha| at which the Fock oracle is compared with the closed forms.
ORACLE_ALPHA = 8.0
#: Largest centered order k compared; above it the Fock centered route drifts past WITNESS_TOL at large |alpha|.
CENTERED_ORDER = 6
#: Largest antibunching order a sweep accepts: g^(n+1) needs moment(n+1, n+1).
MAX_ANTIBUNCHING_ORDER = MAX_MOMENT_ORDER // 2 - 1

angles = st.floats(0.0, 2.0 * math.pi)


def amplitudes(max_abs, min_abs=0.0):
    return st.builds(lambda r, theta: r * cmath.exp(1j * theta), st.floats(min_abs, max_abs), angles)


def states(max_abs=ALPHA_DOMAIN):
    return st.builds(HcsParams, st.floats(0.0, 1.0), angles, amplitudes(max_abs))


def raw_orders(total):
    return [(n, m) for n in range(total + 1) for m in range(total + 1 - n)]


@given(states(ORACLE_ALPHA), angles, angles)
def test_phase_covariance(params, t, psi):
    # rotating phi, alpha and the quadrature angle together is a phase-space rotation
    rotated = HcsParams(params.epsilon, params.phi + t, params.alpha * cmath.exp(1j * t))
    for n, m in raw_orders(MOMENT_TOTAL_ORDER):
        expected = cmath.exp(1j * (m - n) * t) * moment(params, n, m)
        assert abs(moment(rotated, n, m) - expected) <= 1e-10 * max(1.0, abs(expected)), (n, m)
    base, turned = ClosedFormMoments(params), ClosedFormMoments(rotated)
    for order in range(1, MAX_SQUEEZING_ORDER + 1):
        s_base = hm_squeezing(base, QuadratureSpec(psi), order).s_value
        s_turned = hm_squeezing(turned, QuadratureSpec(psi + t), order).s_value
        assert abs(s_base - s_turned) <= 1e-10, order


@given(amplitudes(ALPHA_DOMAIN), angles, angles)
def test_coherent_limit(alpha, phi, psi):
    params = HcsParams(1.0, phi, alpha)
    for n, m in raw_orders(MOMENT_TOTAL_ORDER):
        assert moment(params, n, m) == alpha.conjugate() ** n * alpha**m, (n, m)
    provider = ClosedFormMoments(params)
    for order in range(1, MAX_SQUEEZING_ORDER + 1):
        assert hm_squeezing(provider, QuadratureSpec(psi), order).s_value == 0.0
    for order in range(1, MAX_ANTIBUNCHING_ORDER + 1):
        if moment(params, 1, 1).real == 0.0:  # the vacuum, or a |alpha|^2 below the double range
            with pytest.raises(VacuumStateError):
                hoa_g(provider, order)
            continue
        g = hoa_g(provider, order)
        assert g.g_value == 1.0 and not g.antibunched, order


@given(states())
def test_antibunching_ratio_is_non_negative(params):
    provider = ClosedFormMoments(params)
    for order in range(1, MAX_ANTIBUNCHING_ORDER + 1):
        try:
            g = hoa_g(provider, order)
        except VacuumStateError:
            continue
        assert g.g_value >= 0.0 and g.antibunched == (g.g_value < 1.0)


@given(states(4.0), states(4.0))
def test_fidelity_is_at_most_one(first, second):
    dim = choose_truncation(max(first.alpha_abs, second.alpha_abs), headroom=3)
    u, v = build_hcs(first, dim), build_hcs(second, dim)
    for x, y in ((u, v), (u, u), (u, build_coherent(second.alpha, dim))):
        assert 0.0 <= fidelity(x, y) <= 1.0
    assert fidelity(u, u) >= 1.0 - 1e-12


@given(st.floats(0.0, 1.0), angles, st.floats(0.002, 0.1), amplitudes(4.0, min_abs=0.05))
def test_herald_round_trip(t, theta, xpm, alpha):
    # a D1 click under the linearized Kerr map heralds exactly the state map_to_hcs predicts;
    # xpm > 0 and |alpha| > 0 keep the photon-added branch, so no draw is degenerate
    outcome = simulate_herald(HeraldingParams.from_transmissivity(t, theta=theta, phi_xpm=xpm, alpha=alpha))
    model = build_hcs(outcome.mapped, outcome.state_a.dim)
    assert 1.0 - 1e-9 <= fidelity(outcome.state_a, model) <= 1.0
    assert 0.0 < outcome.success_prob <= 1.0


@given(states(ORACLE_ALPHA))
def test_closed_form_matches_oracle(params):
    closed = ClosedFormMoments(params)
    oracle = FockMoments(build_hcs(params, choose_truncation(params.alpha, headroom=MOMENT_TOTAL_ORDER + 2)))
    for n, m in raw_orders(MOMENT_TOTAL_ORDER):
        reference = oracle.moment(n, m)
        assert abs(closed.moment(n, m) - reference) <= 1e-10 * max(1.0, abs(reference)), (n, m)
    # k + 1 angles distinct modulo pi pin every centered moment <:da^dag^(k-l) da^l:> of order k
    for k in range(1, CENTERED_ORDER + 1):
        for quad in (QuadratureSpec(math.pi * j / (k + 1)) for j in range(k + 1)):
            closed_value = normally_ordered_central_moment(closed, quad, k)
            assert abs(closed_value - normally_ordered_central_moment(oracle, quad, k)) <= WITNESS_TOL, (k, quad)


@given(states(), angles)
def test_squeezing_depends_on_psi_through_b_squared(params, psi):
    # S is even in b = 2 Re(beta e^{-i psi}), which psi + pi negates and 2 arg(beta) - psi keeps
    provider = ClosedFormMoments(params)
    mirrored = 2.0 * cmath.phase(provider.beta) - psi
    for order in range(1, MAX_SQUEEZING_ORDER + 1):
        s_value = hm_squeezing(provider, QuadratureSpec(psi), order).s_value
        for other in (psi + math.pi, mirrored):
            assert abs(hm_squeezing(provider, QuadratureSpec(other), order).s_value - s_value) <= 1e-12, (order, other)
