"""run_validation batches the oracle by basis dimension: the report must not depend on the batching."""

import numpy as np
import pytest

from hcslab import fock, validation
from hcslab.fock import choose_truncation
from hcslab.validation import run_validation

GRID = dict(epsilons=(0.3, 1.0), phis=(0.7, 2.5), alpha_abs=(0.0, 0.5, 2.0, 3.5), alpha_args=(0.0, 1.1))


def _per_state_loop(epsilons, phis, alpha_abs, alpha_args, **kwargs):
    """The report as a loop over the states finds it: one run per state, the first worst kept."""
    checks = None
    for eps in epsilons:
        for phi in phis:
            for arg in alpha_args:
                for aa in alpha_abs:
                    report = run_validation((eps,), (phi,), (aa,), (arg,), **kwargs)
                    checks = checks or report.checks
                    checks = [new if new.worst > old.worst else old for old, new in zip(checks, report.checks)]
    return checks


@pytest.fixture
def fock_batches(monkeypatch):
    """The shape of every amplitude stack run_validation hands to FockMoments."""
    shapes = []

    def recording(states):
        shapes.append(np.shape(states))
        return fock.FockMoments(states)

    monkeypatch.setattr(validation, "FockMoments", recording)
    return shapes


def test_batched_report_matches_a_per_state_loop():
    assert len({choose_truncation(aa, headroom=validation.MOMENT_TOTAL_ORDER + 2) for aa in GRID["alpha_abs"]}) == 4
    report = run_validation(**GRID)
    assert report.passed
    loop = _per_state_loop(**GRID)
    assert [c.name for c in report.checks] == [c.name for c in loop]
    assert [c.detail for c in report.checks] == [c.detail for c in loop]
    assert [c.worst for c in report.checks] == pytest.approx([c.worst for c in loop], rel=1e-12)


def test_one_batch_per_dimension(fock_batches):
    run_validation(**dict(GRID, epsilons=(0.3, 0.6)))
    assert sorted(fock_batches) == sorted((8, choose_truncation(aa, headroom=14)) for aa in GRID["alpha_abs"])


def test_forced_dimension_runs_the_grid_as_one_batch(fock_batches):
    report = run_validation(**dict(GRID, epsilons=(0.3, 0.6)), force_dim=64)
    assert report.passed
    assert fock_batches == [(32, 64)]


def test_vacuum_is_dropped_from_the_ratio_only(fock_batches):
    # at epsilon 1 and alpha 0 the ratio is undefined: the 4 vacuum states leave only the g batch
    report = run_validation((0.3, 1.0), (0.7, 2.5), (0.0,), (0.0,))
    assert report.passed
    assert fock_batches == [(4, 24), (2, 24)]


def test_truncation_failure_keeps_the_states_built_before_it():
    # |alpha| 2 fails the tight tolerance; the |alpha| 0.5 state before it is still compared
    report = run_validation((0.0,), (0.0,), (0.5, 2.0), (0.0,), tail_tol=1e-25)
    assert report.truncation_failure is not None and not report.passed
    assert all("|a|=0.5 " in c.detail for c in report.checks if c.worst > 0.0)
    assert any(c.worst > 0.0 for c in report.checks)
