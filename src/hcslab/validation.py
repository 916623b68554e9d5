"""Closed-form versus brute-force cross-validation over a parameter grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fock import FockMoments, TruncationError, TruncationPolicy, build_hcs, choose_truncation, quadrature_central_moment
from .moments import ClosedFormMoments, HcsParams
from .witnesses import QuadratureSpec, VacuumStateError, hm_squeezing, hoa_g

DEFAULT_EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PHIS = (0.0, math.pi / 4.0, math.pi / 2.0, math.pi)
DEFAULT_ALPHA_ABS = (0.0, 0.5, 1.0, 2.0, 3.0)
DEFAULT_ALPHA_ARGS = (0.0, math.pi / 3.0)

MOMENT_TOTAL_ORDER = 12
SQUEEZING_ORDERS = (1, 2, 3)
ANTIBUNCHING_ORDERS = (1, 2, 3)
QUAD_PSIS = (0.0, math.pi / 2.0)

MOMENT_RTOL = 1e-9
MOMENT_ATOL = 1e-12
WITNESS_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    worst: float  # worst error normalized by its tolerance; <= 1 passes
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= 1.0


@dataclass
class ValidationReport:
    grid_size: int
    checks: list[CheckResult] = field(default_factory=list)
    truncation_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.truncation_failure is None and all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"validation grid: {self.grid_size} states"]
        if self.truncation_failure is not None:
            lines.append(f"TRUNCATION-INADEQUATE: {self.truncation_failure}")
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  worst={c.worst:9.3e} x tol  {status}  {c.detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _Worst:
    def __init__(self):
        self.value = 0.0
        self.where = ""

    def update(self, value: float, where: str) -> None:
        if value > self.value:
            self.value = value
            self.where = where

    def result(self, name: str) -> CheckResult:
        return CheckResult(name=name, worst=self.value, detail=self.where and f"at {self.where}")


def _grid(epsilons, phis, alpha_abs, alpha_args):
    for eps in epsilons:
        for phi in phis:
            for arg in alpha_args:
                for aa in alpha_abs:
                    yield HcsParams(eps, phi, aa * complex(math.cos(arg), math.sin(arg)))


def run_validation(
    epsilons=DEFAULT_EPSILONS,
    phis=DEFAULT_PHIS,
    alpha_abs=DEFAULT_ALPHA_ABS,
    alpha_args=DEFAULT_ALPHA_ARGS,
    tail_tol: float = 1e-12,
    force_dim: int | None = None,
) -> ValidationReport:
    """Compare every closed-form quantity against the Fock oracle on the grid.

    force_dim overrides the automatic truncation choice (debugging aid); an
    inadequate dimension surfaces as a distinct truncation failure, never as a
    numeric mismatch.
    """
    policy = TruncationPolicy(tail_tol=tail_tol)
    params_list = list(_grid(epsilons, phis, alpha_abs, alpha_args))
    report = ValidationReport(grid_size=len(params_list))

    moments_worst = _Worst()
    squeezing_worst = _Worst()
    antibunching_worst = _Worst()
    reconstruction_worst = _Worst()

    try:
        for params in params_list:
            where = (
                f"eps={params.epsilon:g} phi={params.phi:g} "
                f"|a|={params.alpha_abs:g} arg={params.alpha_arg:g}"
            )
            dim = force_dim if force_dim is not None else choose_truncation(
                params.alpha, policy, headroom=MOMENT_TOTAL_ORDER + 2
            )
            state = build_hcs(params, dim, tail_tol)
            closed = ClosedFormMoments(params)
            oracle = FockMoments(state)

            for n in range(MOMENT_TOTAL_ORDER + 1):
                for m in range(MOMENT_TOTAL_ORDER + 1 - n):
                    reference = oracle.moment(n, m)
                    err = abs(closed.moment(n, m) - reference)
                    tol = max(MOMENT_ATOL, MOMENT_RTOL * abs(reference))
                    moments_worst.update(err / tol, f"{where} (n={n},m={m})")

            for psi in QUAD_PSIS:
                quad = QuadratureSpec(psi=psi)
                for order in SQUEEZING_ORDERS:
                    s_closed = hm_squeezing(closed, quad, order)
                    s_oracle = hm_squeezing(oracle, quad, order)
                    squeezing_worst.update(
                        abs(s_closed.s_value - s_oracle.s_value) / WITNESS_TOL,
                        f"{where} (2n={2 * order}, psi={psi:g})",
                    )
                    direct = quadrature_central_moment(state, quad, 2 * order)
                    reconstruction_worst.update(
                        abs(s_closed.total_variance - direct) / RECONSTRUCTION_TOL,
                        f"{where} (2n={2 * order}, psi={psi:g})",
                    )

            for order in ANTIBUNCHING_ORDERS:
                try:
                    g_closed = hoa_g(closed, order)
                    g_oracle = hoa_g(oracle, order)
                except VacuumStateError:
                    continue  # pure vacuum point: ratio undefined on both routes
                antibunching_worst.update(
                    abs(g_closed.g_value - g_oracle.g_value) / WITNESS_TOL,
                    f"{where} (n={order})",
                )
    except TruncationError as exc:
        report.truncation_failure = str(exc)

    report.checks = [
        moments_worst.result(f"moments (n+m <= {MOMENT_TOTAL_ORDER})"),
        squeezing_worst.result("squeezing S (closed vs oracle)"),
        antibunching_worst.result("antibunching g (closed vs oracle)"),
        reconstruction_worst.result("variance reconstruction (S + benchmark)"),
    ]
    return report
