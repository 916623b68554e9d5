import cmath
import math

import numpy as np
import pytest

from hcslab.fock import FockMoments, build_hcs, choose_truncation, numeric_moment
from hcslab.moments import (
    MAX_MOMENT_ORDER,
    ClosedFormMoments,
    HcsParams,
    mean_a,
    mean_number,
    moment,
    normalization,
)
from hcslab.validation import WITNESS_TOL

SAMPLE_PARAMS = [
    HcsParams(0.0, 0.0, 1.0),
    HcsParams(0.25, math.pi / 2, 1.0),
    HcsParams(0.5, 0.0, 0.0),
    HcsParams(0.5, 1.3, 2.0 - 0.5j),
    HcsParams(0.75, math.pi, 0.3 + 1.1j),
    HcsParams(1.0, 0.4, 2.5),
]


class TestHcsParams:
    def test_phi_normalized_into_period(self):
        assert HcsParams(0.5, -math.pi / 2, 1.0).phi == pytest.approx(3 * math.pi / 2)
        assert HcsParams(0.5, 2 * math.pi, 1.0).phi == 0.0

    @pytest.mark.parametrize("eps", [-0.1, 1.1, math.nan, math.inf])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            HcsParams(eps, 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [complex("inf"), complex(0, math.nan)])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError):
            HcsParams(0.5, 0.0, alpha)

    def test_polar_accessors(self):
        p = HcsParams(0.5, 0.0, 1.0 + 1.0j)
        assert p.alpha_abs == pytest.approx(math.sqrt(2))
        assert p.alpha_arg == pytest.approx(math.pi / 4)


class TestNormalization:
    def test_coherent_branch_is_unity(self):
        assert normalization(HcsParams(1.0, 0.7, 2.0 - 1.0j)) == 1.0

    def test_photon_added_branch(self):
        assert normalization(HcsParams(0.0, 0.0, 1.0)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_even_mixture(self):
        # direct arithmetic: bracket = 1 + 2*0.5*1 + 0.5 = 2.5
        assert normalization(HcsParams(0.5, 0.0, 1.0)) == pytest.approx(2.5**-0.5, abs=1e-15)

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_positive_and_finite(self, params):
        value = normalization(params)
        assert value > 0.0 and math.isfinite(value)


class TestMoment:
    def test_coherent_moments_factorize(self):
        assert moment(HcsParams(1.0, 0.0, 2.0), 2, 3) == 32 + 0j

    def test_zero_alpha_single_photon_mixture(self):
        # state (|0> + |1>)/sqrt(2): mean photon number one half
        assert moment(HcsParams(0.5, 0.0, 0.0), 1, 1) == pytest.approx(0.5)

    def test_photon_added_fourth_moment(self):
        # brute force on the truncated basis gives 5.0 for eps=0, alpha=1
        assert moment(HcsParams(0.0, 0.0, 1.0), 2, 2) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_zeroth_moment_is_one(self, params):
        assert moment(params, 0, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_conjugation_symmetry(self, params):
        for n, m in [(0, 1), (1, 2), (2, 2), (3, 1), (5, 2), (0, 4)]:
            assert moment(params, n, m) == pytest.approx(moment(params, m, n).conjugate(), abs=1e-12)

    def test_conjugation_symmetry_is_exact(self):
        # the diagonal must be exactly real: hoa_g rejects any imaginary
        # residue above 1e-10, and <a^dag^12 a^12> is ~1e13 at |alpha| = 12
        rng = np.random.default_rng(7)
        states = [HcsParams(0.0, 0.0, 12.0), HcsParams(1.0, 0.3, 12.0j), HcsParams(0.5, 2.0, 0.0)]
        for _ in range(30):
            alpha = rng.uniform(0, 12) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            states.append(HcsParams(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi), alpha))
        for params in states:
            for n in range(13):
                for m in range(13 - n):
                    assert moment(params, m, n) == moment(params, n, m).conjugate(), (params, n, m)
                if 2 * n <= 12:
                    assert moment(params, n, n).imag == 0.0, (params, n)

    def test_coherent_limit_is_exact(self):
        alpha = 1.7 - 0.9j
        for n, m in [(0, 0), (1, 0), (2, 3), (4, 4)]:
            assert moment(HcsParams(1.0, 0.3, alpha), n, m) == alpha.conjugate() ** n * alpha**m

    def test_photon_added_limit_matches_oracle(self):
        params = HcsParams(0.0, 0.0, 1.2 + 0.4j)
        state = build_hcs(params, 48)
        for n, m in [(1, 1), (2, 2), (3, 2), (0, 3)]:
            assert moment(params, n, m) == pytest.approx(numeric_moment(state, n, m), abs=1e-10)

    def test_phase_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            eps, phi = rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
            alpha = rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            chi = rng.uniform(0, 2 * math.pi)
            rotated = HcsParams(eps, phi + chi, alpha * cmath.exp(1j * chi))
            for n, m in [(0, 1), (1, 1), (2, 3), (4, 2), (6, 6)]:
                expected = cmath.exp(1j * (m - n) * chi) * moment(HcsParams(eps, phi, alpha), n, m)
                got = moment(rotated, n, m)
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_rejects_orders_beyond_cap(self):
        params = HcsParams(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            moment(params, MAX_MOMENT_ORDER, 1)
        with pytest.raises(ValueError):
            moment(params, -1, 0)


class TestMeanA:
    def test_coherent_eigenvalue(self):
        assert mean_a(HcsParams(1.0, 0.0, 1.5)) == 1.5 + 0j

    def test_zero_alpha_mixture(self):
        assert mean_a(HcsParams(0.5, 0.0, 0.0)) == pytest.approx(0.5)

    def test_matches_oracle(self):
        params = HcsParams(0.25, math.pi / 2, 1.0)
        state = build_hcs(params, 32)
        assert mean_a(params) == pytest.approx(numeric_moment(state, 0, 1), abs=1e-10)

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_equals_first_moment(self, params):
        assert mean_a(params) == pytest.approx(moment(params, 0, 1), abs=1e-14)


class TestMeanNumber:
    def test_single_photon(self):
        assert mean_number(HcsParams(0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_coherent(self):
        assert mean_number(HcsParams(1.0, 0.0, 2.0)) == pytest.approx(4.0)

    def test_photon_added(self):
        # (1 + 3|a|^2 + |a|^4) / (1 + |a|^2) at alpha = 1
        assert mean_number(HcsParams(0.0, 0.0, 1.0)) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_agrees_with_occupation_moment(self, params):
        expected = moment(params, 1, 1).real
        got = mean_number(params)
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-300)


class TestClosedFormMoments:
    def test_matches_function(self):
        provider = ClosedFormMoments(HcsParams(0.3, 0.9, 1.4 - 0.2j))
        assert provider.moment(2, 3) == moment(provider.params, 2, 3)


class TestCenteredMoments:
    def test_matches_fock_oracle_on_random_states(self):
        # the Fock route applies (a - <a>) up to max(r, s) times in double
        # precision; above r + s = 6 it drifts past WITNESS_TOL at large |alpha|
        rng = np.random.default_rng(11)
        for _ in range(12):
            params = HcsParams(
                rng.uniform(0, 1),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            )
            closed = ClosedFormMoments(params)
            oracle = FockMoments(build_hcs(params, choose_truncation(params.alpha, headroom=8)))
            for r in range(7):
                for s in range(7 - r):
                    assert abs(closed.centered_moment(r, s) - oracle.centered_moment(r, s)) <= WITNESS_TOL, (
                        params,
                        r,
                        s,
                    )

    @pytest.mark.parametrize("params", SAMPLE_PARAMS)
    def test_low_orders_and_hermiticity(self, params):
        provider = ClosedFormMoments(params)
        assert provider.centered_moment(0, 0) == 1.0
        assert provider.centered_moment(1, 0) == 0.0 and provider.centered_moment(0, 1) == 0.0
        # <:|da|^2:> = <a^dag a> - |<a>|^2
        assert provider.centered_moment(1, 1).real == pytest.approx(
            mean_number(params) - abs(mean_a(params)) ** 2, abs=1e-12
        )
        for r in range(5):
            for s in range(5):
                expected = provider.centered_moment(r, s).conjugate()
                assert provider.centered_moment(s, r) == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_bounded_at_huge_alpha(self):
        # |beta|^2 <= 1/4 keeps every term small however large |alpha| is
        provider = ClosedFormMoments(HcsParams(0.5, 0.3, 1e6))
        for r in range(7):
            for s in range(max(0, 2 - r), 7 - r):
                assert abs(provider.centered_moment(r, s)) < 1e-5

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            ClosedFormMoments(HcsParams(0.5, 0.0, 1.0)).centered_moment(-1, 2)
