import cmath
import math

import numpy as np
import pytest

from hcslab.fock import build_coherent, build_hcs, fidelity
from hcslab.moments import HcsParams
from hcslab.heralding import (
    MAX_PHI_XPM,
    DegenerateBranchError,
    HeraldingParams,
    _d1_rail,
    branch_coefficients,
    map_to_hcs,
    simulate_herald,
)

BALANCED = 1.0 / math.sqrt(2.0)


def balanced_params(**kwargs):
    defaults = dict(t_bs2=BALANCED, r_bs2=BALANCED, theta=0.0, phi_xpm=0.01, alpha=1.0)
    defaults.update(kwargs)
    return HeraldingParams(**defaults)


class TestHeraldingParams:
    def test_rejects_non_unitary_splitter(self):
        with pytest.raises(ValueError):
            HeraldingParams(t_bs2=0.9, r_bs2=0.9, theta=0.0, phi_xpm=0.01, alpha=1.0)

    def test_rejects_negative_kerr_phase(self):
        with pytest.raises(ValueError):
            balanced_params(phi_xpm=-0.1)

    def test_kerr_phase_domain_is_one_turn(self):
        assert balanced_params(phi_xpm=MAX_PHI_XPM).phi_xpm == 2.0 * math.pi
        for phi_xpm in (math.nextafter(MAX_PHI_XPM, 7.0), 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match="phi_xpm"):
                balanced_params(phi_xpm=phi_xpm)

    def test_rejects_unknown_kerr_mode(self):
        with pytest.raises(ValueError):
            balanced_params(kerr_mode="approximate")

    def test_from_transmissivity(self):
        hp = HeraldingParams.from_transmissivity(0.8, theta=0.1, phi_xpm=0.01, alpha=1.0)
        assert hp.r_bs2 == pytest.approx(0.6)


class TestBranchCoefficients:
    def test_balanced_splitter_cancels_coherent_branch(self):
        c1, c2 = branch_coefficients(balanced_params())
        assert c1 == 0j
        assert c2 == pytest.approx(-1j * BALANCED * 0.01)

    def test_general_point(self):
        hp = HeraldingParams(0.8, 0.6, math.pi / 2, 0.05, 2.0)
        c1, c2 = branch_coefficients(hp)
        assert c1 == pytest.approx(-0.6 + 0.8j)
        assert c2 == pytest.approx(-1j * 0.8j * 0.05 * 2.0)


class TestMapToHcs:
    def test_balanced_gives_pure_photon_added(self):
        assert map_to_hcs(balanced_params()).epsilon == 0.0

    def test_no_kerr_gives_pure_coherent(self):
        hp = HeraldingParams(1.0, 0.0, 0.0, 0.0, 1.0)
        assert map_to_hcs(hp).epsilon == 1.0

    def test_weights_and_phase(self):
        hp = HeraldingParams(0.8, 0.6, math.pi / 2, 0.05, 2.0)
        mapped = map_to_hcs(hp)
        c1, c2 = branch_coefficients(hp)
        w1, w2 = abs(c1) ** 2, abs(c2) ** 2
        assert mapped.epsilon == pytest.approx(w1 / (w1 + w2), abs=1e-15)
        assert mapped.phi == pytest.approx((cmath.phase(c2) - cmath.phase(c1)) % (2 * math.pi))
        assert mapped.alpha == 2.0 + 0j

    def test_degenerate_branches_signalled(self):
        with pytest.raises(DegenerateBranchError):
            map_to_hcs(balanced_params(phi_xpm=0.0))


class TestSimulateHerald:
    def test_balanced_heralds_photon_added_state(self):
        outcome = simulate_herald(balanced_params())
        assert outcome.mapped.epsilon == 0.0
        model = build_hcs(outcome.mapped, outcome.state_a.dim)
        assert fidelity(outcome.state_a, model) >= 1 - 1e-9
        # phi is a global phase when only one branch survives
        assert fidelity(outcome.state_a, build_hcs(HcsParams(0.0, 0.0, 1.0), outcome.state_a.dim)) >= 1 - 1e-9

    def test_no_kerr_heralds_coherent_state(self):
        hp = HeraldingParams(0.8, 0.6, 1.2, 0.0, 1.5, kerr_mode="exact")
        outcome = simulate_herald(hp)
        assert outcome.mapped.epsilon == 1.0
        assert fidelity(outcome.state_a, build_coherent(1.5, outcome.state_a.dim)) >= 1 - 1e-12

    def test_exact_vs_linearized_pinned_point(self):
        exact = simulate_herald(HeraldingParams(0.8, 0.6, math.pi / 4, 0.01, 1.5, "exact"))
        linear = simulate_herald(HeraldingParams(0.8, 0.6, math.pi / 4, 0.01, 1.5, "linearized"))
        assert fidelity(exact.state_a, linear.state_a) >= 0.999

    def test_weak_kerr_convergence_is_monotone(self):
        infidelities = []
        for xpm in (0.1, 0.05, 0.02, 0.01):
            exact = simulate_herald(balanced_params(phi_xpm=xpm, alpha=2.0, kerr_mode="exact"))
            linear = simulate_herald(balanced_params(phi_xpm=xpm, alpha=2.0, kerr_mode="linearized"))
            infidelities.append(1.0 - fidelity(exact.state_a, linear.state_a))
        assert all(a > b for a, b in zip(infidelities, infidelities[1:]))
        assert infidelities[-1] < 1e-3

    def test_linearized_roundtrip_random_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            hp = HeraldingParams.from_transmissivity(
                rng.uniform(0.2, 0.98),
                theta=rng.uniform(0, 2 * math.pi),
                phi_xpm=rng.uniform(0.002, 0.1),
                alpha=rng.uniform(0.2, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            )
            outcome = simulate_herald(hp)
            model = build_hcs(outcome.mapped, outcome.state_a.dim)
            assert fidelity(outcome.state_a, model) >= 1 - 1e-9

    def test_joint_state_unitary_before_projection(self):
        hp = HeraldingParams(0.8, 0.6, 1.1, 0.07, 1.7 + 0.4j, "exact")
        # the D2 rail i r b + t c is, up to a phase, the D1 rail t' b + i r' c
        # with t' = r, r' = t and theta advanced by pi
        mirror = HeraldingParams(0.6, 0.8, 1.1 + math.pi, 0.07, 1.7 + 0.4j, "exact")
        total = sum(float(np.sum(np.abs(_d1_rail(h, 48)) ** 2)) for h in (hp, mirror))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_success_probability_in_unit_interval_and_continuous(self):
        base = dict(theta=0.9, phi_xpm=0.05, alpha=1.4)
        hp = HeraldingParams.from_transmissivity(0.75, kerr_mode="exact", **base)
        p0 = simulate_herald(hp).success_prob
        assert 0.0 <= p0 <= 1.0
        step = 1e-4
        wiggles = [
            HeraldingParams.from_transmissivity(0.75, kerr_mode="exact", theta=0.9 + step, phi_xpm=0.05, alpha=1.4),
            HeraldingParams.from_transmissivity(0.75, kerr_mode="exact", theta=0.9, phi_xpm=0.05 + step, alpha=1.4),
            HeraldingParams.from_transmissivity(0.75, kerr_mode="exact", theta=0.9, phi_xpm=0.05, alpha=1.4 + step),
            HeraldingParams.from_transmissivity(0.75 + step, kerr_mode="exact", **base),
        ]
        for wiggled in wiggles:
            assert abs(simulate_herald(wiggled).success_prob - p0) < 1e-3

    def test_degenerate_settings_raise(self):
        with pytest.raises(DegenerateBranchError):
            simulate_herald(balanced_params(phi_xpm=0.0))
