"""Parameter sweeps over the closed-form engine, emitted as CSV figure data."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

from .moments import MAX_MOMENT_ORDER, ClosedFormMoments, HcsParams
from .witnesses import MAX_SQUEEZING_ORDER, QuadratureSpec, VacuumStateError, hm_squeezing, hoa_g

CSV_HEADER = "witness,order,epsilon,phi,psi,alpha_abs,alpha_arg,value,flag"

WITNESSES = ("squeezing", "antibunching")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a witness family evaluated over (epsilon, order, |alpha|)."""

    witness: str
    epsilon_list: tuple[float, ...]
    orders: tuple[int, ...]
    phi: float = 0.0
    psi: float = 0.0
    alpha_abs_min: float = 0.0
    alpha_abs_max: float = 4.0
    alpha_steps: int = 81
    alpha_arg: float = 0.0

    def __post_init__(self):
        if self.witness not in WITNESSES:
            raise ValueError(f"witness must be one of {WITNESSES}, got {self.witness!r}")
        if not self.epsilon_list:
            raise ValueError("epsilon list must be non-empty")
        for eps in self.epsilon_list:
            if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
                raise ValueError(f"epsilon values must lie in [0, 1], got {eps!r}")
        if not self.orders or any(o < 1 or o != int(o) for o in self.orders):
            raise ValueError(f"orders must be a non-empty list of positive integers, got {self.orders!r}")
        # g^(n+1) needs <a^dag^(n+1) a^(n+1)>, a moment of total order 2(n + 1)
        cap = MAX_SQUEEZING_ORDER if self.witness == "squeezing" else MAX_MOMENT_ORDER // 2 - 1
        if max(self.orders) > cap:
            raise ValueError(f"{self.witness} orders must not exceed {cap}, got {max(self.orders)}")
        if not 0.0 <= self.alpha_abs_min <= self.alpha_abs_max:
            raise ValueError(
                f"need 0 <= alpha_abs_min <= alpha_abs_max, got "
                f"[{self.alpha_abs_min!r}, {self.alpha_abs_max!r}]"
            )
        if self.alpha_steps < 2:
            raise ValueError(f"alpha_steps must be at least 2, got {self.alpha_steps!r}")
        for name in ("phi", "psi", "alpha_arg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def alpha_values(self) -> list[float]:
        span = self.alpha_abs_max - self.alpha_abs_min
        return [self.alpha_abs_min + span * i / (self.alpha_steps - 1) for i in range(self.alpha_steps)]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def iter_rows(spec: SweepSpec):
    """Grid rows in deterministic order: epsilon outer, order middle, |alpha| inner.

    Antibunching at the exact vacuum (epsilon = 1, alpha = 0) has no defined
    ratio; those grid points are skipped with a warning.  Every other point
    yields exactly one row.
    """
    phase = cmath.exp(1j * spec.alpha_arg)
    quad = QuadratureSpec(psi=spec.psi)
    alphas = spec.alpha_values()
    for eps in spec.epsilon_list:
        providers = [ClosedFormMoments(HcsParams(eps, spec.phi, a * phase)) for a in alphas]
        for order in spec.orders:
            for alpha_abs, provider in zip(alphas, providers):
                if spec.witness == "squeezing":
                    result = hm_squeezing(provider, quad, order)
                    value, flag = result.s_value, int(result.squeezed)
                else:
                    try:
                        result = hoa_g(provider, order)
                    except VacuumStateError:
                        print(
                            f"skipping vacuum point (epsilon={eps}, |alpha|={alpha_abs}): "
                            "antibunching ratio undefined",
                            file=sys.stderr,
                        )
                        continue
                    value, flag = result.g_value, int(result.antibunched)
                yield (
                    spec.witness,
                    order,
                    eps,
                    spec.phi,
                    spec.psi,
                    alpha_abs,
                    spec.alpha_arg,
                    value,
                    flag,
                )


def write_sweeps(specs: list[SweepSpec], out) -> int:
    """Write one header plus the rows of each spec in order; returns the row count.

    `out` is a path or an open text file.  Output is UTF-8 with LF endings and
    17-significant-digit floats, so identical invocations are byte-identical.
    """
    if hasattr(out, "write"):
        return _write_to(specs, out)
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        return _write_to(specs, handle)


def _write_to(specs, handle) -> int:
    handle.write(CSV_HEADER + "\n")
    count = 0
    for spec in specs:
        for row in iter_rows(spec):
            handle.write(",".join(_fmt(x) for x in row) + "\n")
            count += 1
    return count


_FULL_AXIS = dict(alpha_abs_min=0.0, alpha_abs_max=4.0, alpha_steps=81)
# antibunching axis stays off |alpha| = 0 so that the epsilon = 1 curve has no
# undefined vacuum point; 60 steps of 0.05
_POSITIVE_AXIS = dict(alpha_abs_min=0.05, alpha_abs_max=3.0, alpha_steps=60)


def figure_sweeps(name: str) -> list[SweepSpec]:
    """Canned sweep presets behind the figure subcommand.

    2a: squeezing orders 1..3 at epsilon 0.5;  2b: the same in both
    quadratures (psi = 0 and pi/2);  3: 4th-order squeezing across epsilon;
    4: antibunching orders 1..3 at epsilon 0.5 plus the epsilon scan at
    order 2.
    """
    base = SweepSpec("squeezing", (0.5,), (1, 2, 3), **_FULL_AXIS)
    figures = {
        "2a": [base],
        "2b": [base, replace(base, psi=math.pi / 2.0)],
        "3": [SweepSpec("squeezing", (0.0, 0.25, 0.5, 0.75), (2,), **_FULL_AXIS)],
        "4": [
            SweepSpec("antibunching", (0.5,), (1, 2, 3), **_POSITIVE_AXIS),
            SweepSpec("antibunching", (0.0, 0.5, 1.0), (2,), **_POSITIVE_AXIS),
        ],
    }
    if name not in figures:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(figures)}")
    return figures[name]
