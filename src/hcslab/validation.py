"""Closed-form versus brute-force cross-validation over a parameter grid, read in batches: the closed forms
per (epsilon, phi), the Fock oracle per basis dimension.  A check's worst entry is its first maximum in grid
order, state before case, as a loop over the states finds it."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fock import FockMoments, TruncationError, TruncationPolicy, build_hcs, choose_truncation
from .fock import quadrature_central_moment
from .moments import ClosedFormMoments, HcsParams, _raw_moment
from .witnesses import QuadratureSpec, hm_squeezing, hoa_g

DEFAULT_EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PHIS = (0.0, math.pi / 4.0, math.pi / 2.0, math.pi)
DEFAULT_ALPHA_ABS = (0.0, 0.5, 1.0, 2.0, 3.0)
DEFAULT_ALPHA_ARGS = (0.0, math.pi / 3.0)

MOMENT_TOTAL_ORDER = 12
SQUEEZING_ORDERS = (1, 2, 3)
ANTIBUNCHING_ORDERS = (1, 2, 3)
QUAD_PSIS = (0.0, math.pi / 2.0)

#: (n, m) of the moments compared: both routes' <a^dag^n a^m> tables are Hermitian, so n <= m covers them.
MOMENT_ORDERS = tuple((n, m) for n in range(MOMENT_TOTAL_ORDER + 1) for m in range(n, MOMENT_TOTAL_ORDER + 1 - n))
SQUEEZING_CASES = tuple((psi, order) for psi in QUAD_PSIS for order in SQUEEZING_ORDERS)
_SQUEEZING_LABELS = tuple(f"(2n={2 * order}, psi={psi:g})" for psi, order in SQUEEZING_CASES)
#: (name, case labels) of each check in report order; the rows of a reading follow it.
CHECKS = (
    (f"moments (n+m <= {MOMENT_TOTAL_ORDER})", tuple(f"(n={n},m={m})" for n, m in MOMENT_ORDERS)),
    ("squeezing S (closed vs oracle)", _SQUEEZING_LABELS),
    ("antibunching g (closed vs oracle)", tuple(f"(n={n})" for n in ANTIBUNCHING_ORDERS)),
    ("variance reconstruction (S + benchmark)", _SQUEEZING_LABELS),
)

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


def _witnesses(provider, keep: np.ndarray, subset) -> np.ndarray:
    """Rows S per (psi, order), g per order, total variance per (psi, order); g is NaN where ``keep`` is
    False, and read from ``subset(keep)``, the provider without those states, where it drops any."""
    squeezing = [hm_squeezing(provider, QuadratureSpec(psi=psi), order) for psi, order in SQUEEZING_CASES]
    g = np.full((len(ANTIBUNCHING_ORDERS), keep.size), np.nan)
    if keep.any():
        g_provider = provider if keep.all() else subset(keep)
        for row, order in enumerate(ANTIBUNCHING_ORDERS):
            g[row, keep] = hoa_g(g_provider, order).g_value
    return np.vstack([[r.s_value for r in squeezing], g, [r.total_variance for r in squeezing]])


def _worst(name: str, labels: tuple[str, ...], errors: np.ndarray, params_list: list[HcsParams]) -> CheckResult:
    """The first maximum of a (case, state) error array in grid order; a NaN error counts as the worst."""
    if not errors.size:
        return CheckResult(name=name, worst=0.0)
    state, case = divmod(int(np.argmax(errors.T)), len(labels))
    worst, p = float(errors[case, state]), params_list[state]
    where = f"at eps={p.epsilon:g} phi={p.phi:g} |a|={p.alpha_abs:g} arg={p.alpha_arg:g} {labels[case]}"
    return CheckResult(name=name, worst=worst, detail=where if worst else "")


def run_validation(
    epsilons=DEFAULT_EPSILONS,
    phis=DEFAULT_PHIS,
    alpha_abs=DEFAULT_ALPHA_ABS,
    alpha_args=DEFAULT_ALPHA_ARGS,
    tail_tol: float = 1e-12,
    force_dim: int | None = None,
) -> ValidationReport:
    """Compare every closed-form quantity against the Fock oracle on the grid.

    g is compared relative to max(1, |g|), and skipped where it is undefined (the vacuum).  force_dim
    overrides the automatic truncation choice (debugging aid); an inadequate dimension surfaces as a distinct
    truncation failure, never as a numeric mismatch, and the states built before it are still compared.
    """
    policy = TruncationPolicy(tail_tol=tail_tol)
    params_list = [HcsParams(eps, phi, aa * complex(math.cos(arg), math.sin(arg)))
                   for eps in epsilons for phi in phis for arg in alpha_args for aa in alpha_abs]  # fmt: skip
    report = ValidationReport(grid_size=len(params_list))
    states = []
    try:
        for params in params_list:
            dim = force_dim if force_dim is not None else choose_truncation(
                params.alpha, policy, headroom=MOMENT_TOTAL_ORDER + 2
            )
            states.append(build_hcs(params, dim, tail_tol))
    except TruncationError as exc:
        report.truncation_failure = str(exc)

    built, moments, block = len(states), len(MOMENT_ORDERS), max(1, len(alpha_args) * len(alpha_abs))
    closed, oracle = np.full((2, sum(len(labels) for _, labels in CHECKS), len(params_list)), np.nan, complex)
    qubits = []  # (alpha, beta, p) of each (epsilon, phi), whose states are one block of the grid
    for start in range(0, built, block):
        part = slice(start, min(start + block, built))
        params, alphas = params_list[start], np.array([p.alpha for p in params_list[part]])
        provider = ClosedFormMoments(params, alphas)
        keep = provider.moment(1, 1).real > 0.0  # the closed ratio refuses <a^dag a> = 0
        closed[moments:, part] = _witnesses(provider, keep, lambda k: ClosedFormMoments(params, alphas[k]))
        qubits.append((alphas, provider.beta, provider.p))
    if qubits:
        alpha, beta, p = map(np.concatenate, zip(*qubits))
        closed[:moments, :built] = [_raw_moment(alpha, beta, p, n, m) for n, m in MOMENT_ORDERS]

    groups: dict[int, list[int]] = {}
    for index, state in enumerate(states):
        groups.setdefault(state.dim, []).append(index)
    try:
        for group in groups.values():
            stack = np.array([states[i].amps for i in group])
            provider = FockMoments(stack)
            # the oracle's ratio refuses an underflowing <a^dag a>^(n+1), the vacuum among them
            keep = provider.moment(1, 1).real ** (max(ANTIBUNCHING_ORDERS) + 1) >= sys.float_info.min
            witnesses = _witnesses(provider, keep, lambda k: FockMoments(stack[k]))[: -len(SQUEEZING_CASES)]
            orders = [2 * order for order in SQUEEZING_ORDERS]  # the direct powers take the total variance's rows
            powers = [quadrature_central_moment(stack, QuadratureSpec(psi=psi), orders) for psi in QUAD_PSIS]
            oracle[:, group] = np.vstack([[provider.moment(n, m) for n, m in MOMENT_ORDERS], witnesses, *powers])
    except TruncationError as exc:
        report.truncation_failure = report.truncation_failure or str(exc)

    bounds = np.cumsum([len(labels) for _, labels in CHECKS])[:-1]
    (moment_gap, s_gap, g_gap, variance_gap), (moment_size, _, g_size, _) = (
        np.split(np.abs(values), bounds) for values in (closed - oracle, oracle)
    )
    errors = (
        moment_gap / np.maximum(MOMENT_ATOL, MOMENT_RTOL * moment_size),
        s_gap / WITNESS_TOL,
        np.fmax(g_gap / (WITNESS_TOL * np.maximum(1.0, g_size)), 0.0),  # NaN, g undefined on a route, reads 0
        variance_gap / RECONSTRUCTION_TOL,
    )
    checked = ~np.isnan(oracle[0])  # states never built, or in a group that raised, are not compared
    report.checks = [_worst(name, labels, np.where(checked, error, 0.0), params_list)
                     for (name, labels), error in zip(CHECKS, errors)]  # fmt: skip
    return report
