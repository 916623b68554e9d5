import cmath
import math
from math import comb

import numpy as np
import pytest

from hcslab.fock import FockMoments, build_hcs, choose_truncation, quadrature_central_moment
from hcslab.moments import ClosedFormMoments, HcsParams
from hcslab.witnesses import (
    QuadratureSpec,
    VacuumStateError,
    double_factorial,
    hm_squeezing,
    hoa_g,
    normally_ordered_central_moment,
)

Q0 = QuadratureSpec(0.0)
Q90 = QuadratureSpec(math.pi / 2)


def direct_expansion_nocm(provider, quad, k):
    """Reference route: the raw double-binomial expansion over uncentered moments."""
    mean = complex(provider.moment(0, 1))
    meanc = mean.conjugate()
    total = 0j
    for p in range(k + 1):
        operator_part = sum(
            comb(k - p, l)
            * complex(provider.moment(k - p - l, l))
            * cmath.exp(1j * (k - p - 2 * l) * quad.psi)
            for l in range(k - p + 1)
        )
        mean_part = sum(
            comb(p, j) * meanc ** (p - j) * mean**j * cmath.exp(1j * (p - 2 * j) * quad.psi)
            for j in range(p + 1)
        )
        total += comb(k, p) * (-1) ** p * operator_part * mean_part
    return (total * (quad.commutator_c / 2.0) ** (k / 2.0)).real


class BrokenProvider:
    """Deliberately non-Hermitian moments, to exercise the residue guard."""

    def moment(self, n, m):
        return 1.0 + 0.5j

    def centered_moment(self, r, s):
        return 1.0 + 0.5j


class TestDoubleFactorial:
    @pytest.mark.parametrize("k,expected", [(-1, 1), (0, 1), (1, 1), (3, 3), (5, 15), (7, 105)])
    def test_values(self, k, expected):
        assert double_factorial(k) == expected

    @pytest.mark.parametrize("k", [2, 4, -3])
    def test_rejects_even_or_negative(self, k):
        with pytest.raises(ValueError):
            double_factorial(k)


class TestNormallyOrderedCentralMoment:
    def test_coherent_state_vanishes_exactly(self):
        provider = ClosedFormMoments(HcsParams(1.0, 0.0, 0.8 + 0.3j))
        for k in (1, 2, 3, 4, 5, 6):
            assert normally_ordered_central_moment(provider, Q0, k) == 0.0

    def test_even_mixture_at_zero_alpha(self):
        # (|0> + |1>)/sqrt(2): <:X^2:> and <X>^2 both equal one half
        provider = ClosedFormMoments(HcsParams(0.5, 0.0, 0.0))
        assert normally_ordered_central_moment(provider, Q0, 2) == pytest.approx(0.0, abs=1e-14)

    def test_two_level_second_order(self):
        # (1 - eps)(1 - 2 eps cos^2(phi - psi)) at eps = 3/4, alpha = 0
        provider = ClosedFormMoments(HcsParams(0.75, 0.0, 0.0))
        assert normally_ordered_central_moment(provider, Q0, 2) == pytest.approx(-0.125, abs=1e-14)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = HcsParams(
                rng.uniform(0, 1),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            )
            provider = ClosedFormMoments(params)
            quad = QuadratureSpec(rng.uniform(0, 2 * math.pi))
            for k in (1, 2, 3, 4, 6):
                stable = normally_ordered_central_moment(provider, quad, k)
                raw = direct_expansion_nocm(provider, quad, k)
                assert stable == pytest.approx(raw, abs=1e-9)

    def test_rejects_out_of_range_order(self):
        provider = ClosedFormMoments(HcsParams(0.5, 0.0, 1.0))
        for k in (0, 13):
            with pytest.raises(ValueError):
                normally_ordered_central_moment(provider, Q0, k)

    def test_imaginary_residue_guard(self):
        with pytest.raises(ValueError, match="residue"):
            normally_ordered_central_moment(BrokenProvider(), Q0, 3)


class TestHmSqueezing:
    def test_coherent_state_all_orders_zero(self):
        provider = ClosedFormMoments(HcsParams(1.0, 0.0, 2.0))
        result = hm_squeezing(provider, Q0, 3)
        assert result.s_value == 0.0
        assert result.cs_benchmark == pytest.approx(15 / 8)
        assert result.total_variance == pytest.approx(15 / 8)
        assert not result.squeezed

    def test_two_level_second_order(self):
        result = hm_squeezing(ClosedFormMoments(HcsParams(0.75, 0.0, 0.0)), Q0, 1)
        assert result.s_value == pytest.approx(-0.125, abs=1e-14)
        assert result.squeezed

    def test_two_level_fourth_order(self):
        # <:dX^4:> + 3 (C/4) * 4!/(2!1!) weighted term: 9/64 - 24/64
        result = hm_squeezing(ClosedFormMoments(HcsParams(0.75, 0.0, 0.0)), Q0, 2)
        assert result.s_value == pytest.approx(-0.234375, abs=1e-14)
        assert result.squeezed

    def test_huge_alpha_leading_order(self):
        # at real alpha = A >> 1 and eps = 1/2, beta ~ 1/A and p ~ 1/A^2, so
        # <:dX^2:> ~ -1/A^2 dominates: S^(2n) ~ -(2n)! / (2 (n-1)!) 4^(1-n) / A^2
        big = 1e6
        provider = ClosedFormMoments(HcsParams(0.5, 0.0, big))
        for n in range(1, 6):
            leading = -math.factorial(2 * n) / (2 * math.factorial(n - 1)) / 4 ** (n - 1) / big**2
            assert hm_squeezing(provider, Q0, n).s_value == pytest.approx(leading, rel=1e-5)

    def test_identity_total_variance(self):
        result = hm_squeezing(ClosedFormMoments(HcsParams(0.3, 1.1, 1.7)), Q90, 3)
        assert result.total_variance == result.s_value + result.cs_benchmark

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            hm_squeezing(ClosedFormMoments(HcsParams(0.5, 0.0, 1.0)), Q0, 6)

    @pytest.mark.parametrize("psi", [0.0, math.pi / 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_provider_equivalence(self, psi, n):
        params = HcsParams(0.4, 0.9, 1.5 + 0.6j)
        state = build_hcs(params, choose_truncation(params.alpha, headroom=8))
        quad = QuadratureSpec(psi)
        closed = hm_squeezing(ClosedFormMoments(params), quad, n).s_value
        oracle = hm_squeezing(FockMoments(state), quad, n).s_value
        assert closed == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("commutator_c", [1.0, 2.0])
    def test_variance_reconstruction_any_commutator(self, commutator_c):
        # S + (2n-1)!!(C/2)^n reproduces the direct <(dX)^2n> for C != 1 too
        params = HcsParams(0.6, 0.4, 1.2)
        state = build_hcs(params, choose_truncation(params.alpha, headroom=8))
        for n in (1, 2, 3):
            quad = QuadratureSpec(0.7, commutator_c)
            result = hm_squeezing(ClosedFormMoments(params), quad, n)
            direct = quadrature_central_moment(state, quad, 2 * n)
            assert result.total_variance == pytest.approx(direct, abs=1e-9)

    def test_quadrature_exclusivity(self):
        for eps in (0.25, 0.5, 0.75):
            for alpha in (0.3, 1.0, 2.0):
                for phi in (0.0, math.pi / 3):
                    provider = ClosedFormMoments(HcsParams(eps, phi, alpha))
                    for n in (1, 2, 3):
                        s0 = hm_squeezing(provider, Q0, n).s_value
                        s90 = hm_squeezing(provider, Q90, n).s_value
                        assert not (s0 < -1e-10 and s90 < -1e-10)

    def test_phase_rotation_covariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            eps, phi = rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
            alpha = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            chi, psi = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            base = ClosedFormMoments(HcsParams(eps, phi, alpha))
            rotated = ClosedFormMoments(HcsParams(eps, phi + chi, alpha * cmath.exp(1j * chi)))
            for n in (1, 2, 3):
                s1 = hm_squeezing(base, QuadratureSpec(psi), n).s_value
                s2 = hm_squeezing(rotated, QuadratureSpec(psi + chi), n).s_value
                assert s1 == pytest.approx(s2, abs=1e-10)


class TestHoaG:
    def test_coherent_state_is_unity(self):
        result = hoa_g(ClosedFormMoments(HcsParams(1.0, 0.0, 1.3)), 2)
        assert result.g_value == pytest.approx(1.0, abs=1e-12)
        assert not result.antibunched

    def test_single_photon_fully_antibunched(self):
        result = hoa_g(ClosedFormMoments(HcsParams(0.0, 0.0, 0.0)), 1)
        assert result.g_value == 0.0
        assert result.antibunched

    def test_photon_added_ratio(self):
        # 5 / 2.5^2, both factors brute-forced on the truncated basis
        result = hoa_g(ClosedFormMoments(HcsParams(0.0, 0.0, 1.0)), 1)
        assert result.g_value == pytest.approx(0.8, abs=1e-9)

    def test_vacuum_signalled(self):
        with pytest.raises(VacuumStateError):
            hoa_g(ClosedFormMoments(HcsParams(1.0, 0.0, 0.0)), 1)

    def test_underflowing_denominator_signalled_as_vacuum(self):
        # <a^dag a>^12 = 1e-336 underflows; the ratio used to divide by zero
        with pytest.raises(VacuumStateError):
            hoa_g(ClosedFormMoments(HcsParams(1.0, 0.0, 1e-14)), 11)
        assert hoa_g(ClosedFormMoments(HcsParams(1.0, 0.0, 1e-12)), 11).g_value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            hoa_g(ClosedFormMoments(HcsParams(0.5, 0.0, 1.0)), 0)

    def test_provider_equivalence(self):
        params = HcsParams(0.35, 2.2, 0.9 - 0.7j)
        state = build_hcs(params, choose_truncation(params.alpha, headroom=10))
        for n in (1, 2, 3):
            closed = hoa_g(ClosedFormMoments(params), n).g_value
            oracle = hoa_g(FockMoments(state), n).g_value
            assert closed == pytest.approx(oracle, abs=1e-9)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            eps, phi = rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
            alpha = rng.uniform(0.1, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            chi = rng.uniform(0, 2 * math.pi)
            base = ClosedFormMoments(HcsParams(eps, phi, alpha))
            rotated = ClosedFormMoments(HcsParams(eps, phi + chi, alpha * cmath.exp(1j * chi)))
            for n in (1, 2, 3):
                assert hoa_g(base, n).g_value == pytest.approx(hoa_g(rotated, n).g_value, abs=1e-10)
