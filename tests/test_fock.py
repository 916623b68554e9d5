import cmath
import math

import mpmath
import numpy as np
import pytest

from hcslab.fock import (
    MAX_DIM,
    MIN_DIM,
    FockMoments,
    FockVector,
    TruncationError,
    TruncationPolicy,
    _coherent_amplitudes,
    _hcs_raw,
    _poisson_tail,
    build_coherent,
    build_hcs,
    choose_truncation,
    fidelity,
    numeric_moment,
    quadrature_central_moment,
)
from hcslab.moments import HcsParams, normalization
from hcslab.witnesses import QuadratureSpec


def _poisson_tail_reference(mean, k):
    # one minus the lower pmf sum from zero: a double-precision cross-check for small means;
    # the mpmath tail below is the precision reference
    term, cdf = math.exp(-mean), math.exp(-mean)
    for j in range(1, k + 1):
        term *= mean / j
        cdf += term
    return 1.0 - cdf


def _mp_poisson_tail(mean, k):
    """P(N > k) for N ~ Poisson(mean) at 40 digits: the regularized lower incomplete gamma P(k + 1, mean)."""
    with mpmath.workdps(40):
        return mpmath.gammainc(k + 1, 0, mean, regularized=True)


class TestPoissonTail:
    @pytest.mark.parametrize("mean", [0.25, 1.0, 4.0, 30.0, 144.0, 900.0])
    def test_matches_high_precision_on_both_sides_of_the_mean(self, mean):
        # at mean 900 a sum upward from k + 1 = 6 would start from an underflowed term; the tail there is 1
        spread = math.sqrt(mean + 1.0)
        for k in {0, 5, int(mean / 2), int(mean), int(mean) + 1, int(mean + 3 * spread), int(mean + 10 * spread) + 14}:
            reference = float(_mp_poisson_tail(mean, k))
            assert _poisson_tail(mean, k) == pytest.approx(reference, rel=1e-11, abs=0.0), k


class TestChooseTruncation:
    def test_floor_applies_at_zero(self):
        assert choose_truncation(0.0) == 16

    def test_tail_below_tolerance(self):
        dim = choose_truncation(2.0)
        assert dim >= 16
        assert _poisson_tail_reference(4.0, dim - 2) < 1e-12

    def test_monotone_in_amplitude(self):
        dims = [choose_truncation(a) for a in (0.0, 1.0, 2.0, 3.5, 5.0)]
        assert dims == sorted(dims)
        assert dims[-1] > dims[1]

    def test_headroom_adds(self):
        assert choose_truncation(2.0, headroom=8) >= choose_truncation(2.0) + 8

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 3.0, 12.0, 30.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-25])
    @pytest.mark.parametrize("headroom", [0, 14])
    def test_smallest_dim_from_the_start_guess_with_tail_below_tolerance(self, alpha, tol, headroom):
        mu = alpha**2
        start = max(MIN_DIM, math.ceil(mu + 10.0 * math.sqrt(mu + 1.0)) + headroom)
        dim = choose_truncation(alpha, TruncationPolicy(tol), headroom)
        # a tail within 1e-9 relative of the tolerance may fall on either side of it in double precision
        assert dim >= start
        assert _mp_poisson_tail(mu, dim - 2) < tol * (1.0 + 1e-9)
        if dim > start:
            assert _mp_poisson_tail(mu, dim - 3) >= tol * (1.0 - 1e-9)

    def test_covers_the_largest_documented_bases(self):
        # validate --alpha-abs 30 --truncation-tol 1e-25 sizes with headroom 14
        assert choose_truncation(30.0, TruncationPolicy(1e-25), headroom=14) <= MAX_DIM
        assert choose_truncation(40.0) <= MAX_DIM

    @pytest.mark.parametrize("alpha", [60.0, 64.0, 1e4, 1e200, float("inf"), float("nan")])
    def test_rejects_amplitudes_beyond_max_dim(self, alpha):
        # 1e200 ** 2 overflows a double: the bound must act before |alpha| is squared
        with pytest.raises(ValueError, match="MAX_DIM"):
            choose_truncation(alpha)


class TestBuildCoherent:
    def test_vacuum(self):
        state = build_coherent(0.0, 16)
        assert state.amps[0] == 1.0
        assert np.all(state.amps[1:] == 0)

    def test_amplitude_ratio(self):
        state = build_coherent(1.0, 32)
        assert state.amps[1] / state.amps[0] == pytest.approx(1.0)

    def test_mean_photon_number(self):
        state = build_coherent(2.0, 40)
        assert numeric_moment(state, 1, 1) == pytest.approx(4.0, abs=1e-10)

    def test_flags_inadequate_truncation(self):
        with pytest.raises(TruncationError):
            build_coherent(3.0, 4)

    def test_unit_norm(self):
        assert build_coherent(1.5 - 0.5j, 40).norm() == pytest.approx(1.0, abs=1e-14)

    def test_large_amplitude_is_finite(self):
        # alpha^n / sqrt(n!) and e^{-|alpha|^2/2} overflow and underflow doubles here
        state = build_coherent(40, choose_truncation(40))
        assert np.all(np.isfinite(state.amps))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert numeric_moment(state, 1, 1) == pytest.approx(1600.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [12.0 * cmath.exp(0.7j), 40.0, 40.0 * cmath.exp(-2.0j)])
    def test_amplitudes_match_high_precision(self, alpha):
        dim = choose_truncation(alpha)
        with mpmath.workdps(40):
            a = mpmath.mpc(complex(alpha).real, complex(alpha).imag)
            amp, reference = mpmath.exp(-abs(a) ** 2 / 2), []
            for n in range(dim):
                reference.append(complex(amp))
                amp *= a / mpmath.sqrt(n + 1)
        assert np.max(np.abs(_coherent_amplitudes(complex(alpha), dim) - np.array(reference))) <= 1e-13

    @pytest.mark.parametrize("build", [build_coherent, lambda alpha, dim: build_hcs(HcsParams(0.5, 0.0, alpha), dim)])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_rejects_dim_beyond_max_dim(self, build, alpha):
        with pytest.raises(ValueError, match="MAX_DIM"):
            build(alpha, MAX_DIM + 1)


class TestBuildHcs:
    def test_coherent_branch(self):
        state = build_hcs(HcsParams(1.0, 0.0, 1.0), 32)
        reference = build_coherent(1.0, 32)
        assert np.allclose(state.amps, reference.amps, atol=1e-15)

    def test_zero_alpha_even_mixture(self):
        state = build_hcs(HcsParams(0.5, 0.0, 0.0), 16)
        assert state.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert state.amps[1] == pytest.approx(1 / math.sqrt(2))
        assert np.all(state.amps[2:] == 0)

    def test_photon_added_has_no_vacuum_term(self):
        # a^dag|alpha> never populates |0>, so eps = 0 pins amps[0] to zero
        state = build_hcs(HcsParams(0.0, 0.0, 1.0), 32)
        assert state.amps[0] == 0

    @pytest.mark.parametrize(
        "params",
        [
            HcsParams(0.5, 0.0, 1.0),
            HcsParams(0.25, math.pi / 3, 2.0),
            HcsParams(0.9, 2.0, 1.0 + 1.0j),
        ],
    )
    def test_raw_norm_matches_closed_form_constant(self, params):
        dim = choose_truncation(params.alpha, headroom=2)
        raw_norm = float(np.linalg.norm(_hcs_raw(params, dim)))
        assert raw_norm == pytest.approx(1.0 / normalization(params), rel=1e-9)


class TestNumericMoment:
    def test_vacuum_occupation(self):
        assert numeric_moment(build_coherent(0.0, 16), 1, 1) == 0

    def test_two_level_fourth_moment_vanishes(self):
        state = build_hcs(HcsParams(0.5, 0.0, 0.0), 16)
        assert numeric_moment(state, 2, 2) == 0

    def test_photon_added_fourth_moment(self):
        state = build_hcs(HcsParams(0.0, 0.0, 1.0), 32)
        assert numeric_moment(state, 2, 2) == pytest.approx(5.0, abs=1e-9)

    def test_normalized_states_have_unit_zeroth_moment(self):
        # the photon addition uses one ladder power, so the rule asks for headroom 3
        for params in (HcsParams(0.3, 1.0, 1.5), HcsParams(0.8, 0.0, 2.5 + 1j)):
            state = build_hcs(params, choose_truncation(params.alpha, headroom=3))
            assert numeric_moment(state, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_hermiticity(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=24) + 1j * rng.normal(size=24)
        state = FockVector(amps / np.linalg.norm(amps))
        for n, m in [(0, 1), (1, 2), (3, 3), (4, 1)]:
            left = numeric_moment(state, n, m)
            right = numeric_moment(state, m, n)
            assert left == pytest.approx(right.conjugate(), abs=1e-12)

    def test_rejects_ladder_powers_beyond_dim(self):
        state = build_coherent(0.0, 16)
        with pytest.raises(ValueError):
            numeric_moment(state, 16, 0)

    def test_truncation_convergence(self):
        # doubling the dimension moves no moment by more than 1e-10 relative
        for alpha in (1.0, 2.5, 4.0):
            params = HcsParams(0.4, 0.6, alpha)
            dim = choose_truncation(alpha, headroom=14)
            small, big = build_hcs(params, dim), build_hcs(params, 2 * dim)
            for n in range(0, 13, 3):
                for m in range(0, 13 - n, 2):
                    a, b = numeric_moment(small, n, m), numeric_moment(big, n, m)
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


class TestQuadratureCentralMoment:
    def test_coherent_variance(self):
        state = build_coherent(1.0, 32)
        assert quadrature_central_moment(state, QuadratureSpec(0.0), 2) == pytest.approx(0.5, abs=1e-10)

    def test_coherent_fourth_moment(self):
        state = build_coherent(1.0, 32)
        assert quadrature_central_moment(state, QuadratureSpec(0.0), 4) == pytest.approx(0.75, abs=1e-10)

    def test_two_level_variance(self):
        state = build_hcs(HcsParams(0.75, 0.0, 0.0), 16)
        assert quadrature_central_moment(state, QuadratureSpec(0.0), 2) == pytest.approx(0.375, abs=1e-12)

    def test_two_level_fourth_moment(self):
        # hand computation over the {|0>, |1>} block: 33/64
        state = build_hcs(HcsParams(0.75, 0.0, 0.0), 16)
        assert quadrature_central_moment(state, QuadratureSpec(0.0), 4) == pytest.approx(0.515625, abs=1e-12)

    def test_rejects_odd_or_large_order(self):
        state = build_coherent(1.0, 32)
        for order in (1, 3, 12, 0):
            with pytest.raises(ValueError):
                quadrature_central_moment(state, QuadratureSpec(0.0), order)

    def test_flags_support_near_truncation_edge(self):
        amps = np.ones(16) / 4.0
        with pytest.raises(TruncationError):
            quadrature_central_moment(FockVector(amps), QuadratureSpec(0.0), 6)


class TestFidelity:
    def test_self_overlap(self):
        state = build_coherent(1.3, 40)
        assert fidelity(state, state) == 1.0

    def test_orthogonal_states(self):
        zero = np.zeros(16), np.zeros(16)
        vac, one = zero[0].copy(), zero[1].copy()
        vac[0], one[1] = 1.0, 1.0
        assert fidelity(FockVector(vac), FockVector(one)) == 0.0

    def test_hybrid_overlap_with_coherent(self):
        # |<alpha|HCS>|^2 = N^2 (sqrt(eps) + sqrt(1-eps) alpha*)^2 = 0.8 here
        state = build_hcs(HcsParams(0.5, 0.0, 1.0), 40)
        assert fidelity(state, build_coherent(1.0, 40)) == pytest.approx(0.8, abs=1e-12)

    def test_zero_pads_shorter_vector(self):
        a = build_coherent(1.0, 32)
        b = build_coherent(1.0, 48)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_input(self):
        bad = FockVector(np.ones(4))
        with pytest.raises(ValueError):
            fidelity(bad, bad)


class TestFockMoments:
    def test_provider_interface(self):
        state = build_hcs(HcsParams(0.4, 0.2, 1.1), 40)
        provider = FockMoments(state)
        assert provider.moment(1, 1) == numeric_moment(state, 1, 1)
        assert provider.moment(0, 1) == numeric_moment(state, 0, 1)

    def test_immutable_amplitudes(self):
        state = build_coherent(1.0, 16)
        with pytest.raises(ValueError):
            state.amps[0] = 0.0
