"""Seeded workloads of the hcslab benchmark.

Each workload turns (seed, block number) into a block of invocations, runs
one invocation with its wall time measured, and checks an invocation's output
outside the timed region.  Within a sweep block every order occurs equally
often, so each block has the same mix of orders and each order is still
uniform.  The sweep and validate workloads drive ``hcslab.cli.main``
in-process with a generated argv; the herald workload calls the library.
Every name of hcslab is looked up through its module at call time, so the
wrappers that the traced pass installs are the ones that run.

Every timed invocation must succeed, so each workload draws |alpha| from a
range where hcslab agrees with its own Fock oracle: [0, 0.8] for the sweeps
and {0} plus (0.5, 2] for validate.  Outside it three known defects make
invocations fail.  The ``witnesses._real_part`` guard applies an absolute
1e-10 to imaginary residues that grow like |alpha|^(2n): it stops squeezing
curves of order 5 from |alpha| ~ 1.4 and order 4 from ~ 2.3, and
antibunching curves of order 4 and up before |alpha| = 4.  Closed-form S^(8) and S^(10) also drift past
WITNESS_TOL from the oracle at |alpha| ~ 1.2 (order 5) and ~ 2 (order 4).
And validate compares g with the absolute WITNESS_TOL, which g misses where
it is large: near eps ~ 0.9-1 and |alpha| ~ 0.1-0.4, when the one-photon
amplitude sqrt(eps) alpha + sqrt(1 - eps) e^(i phi) nearly cancels.  At the
sweeps' bound the worst residue is 6% of the guard and the worst oracle
difference 9% of WITNESS_TOL; in validate's range every check stays under 11%
of its tolerance.  The traced pass runs the same workloads over
0 < |alpha| <= CENSUS_ALPHA_MAX, the CLI's default sweep axis, outside the
timed region, and reports the share that fails there as
``census.failed_ratio``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hcslab
from hcslab import cli, fock, heralding
from hcslab.moments import HcsParams
from hcslab.sweep import CSV_HEADER
from hcslab.validation import WITNESS_TOL
from hcslab.witnesses import QuadratureSpec, double_factorial

PACKAGE_DIR = Path(hcslab.__file__).resolve().parent
TWO_PI = 2.0 * math.pi
SWEEP_ALPHA_MAX = 0.8
VALIDATE_ALPHA = (0.5, 2.0)
CENSUS_ALPHA_MAX = 4.0  # the CLI's default |alpha| axis is [0, 4]
G_RTOL = 1e-9
PARAM_ATOL = 1e-12  # parameter columns are echoed inputs or grid points
ROWS_CHECKED = 4  # rows of each curve recomputed with the Fock oracle
FIDELITY_FLOOR = 1.0 - 1e-9


@dataclass
class Outcome:
    """What one invocation did.  ``payload`` is its output text."""

    wall_s: float
    rc: int | None  # exit code; None when an exception escaped
    exc_class: str = ""
    layer: str = ""  # hcslab module that raised exc_class
    payload: str = ""
    items_written: int = 0

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.exc_class


def raising_layer(exc: BaseException) -> str:
    """The hcslab module of the innermost frame that the exception passed through."""
    layer = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename).resolve()
        if path.parent == PACKAGE_DIR:
            layer = path.stem
    return layer


def _draw_alpha(rng: random.Random, alpha_min: float, alpha_max: float) -> float:
    """|alpha| uniform on (alpha_min, alpha_max]."""
    return alpha_max - (alpha_max - alpha_min) * rng.random()


def _deck(rng: random.Random, values: range, size: int) -> list[int]:
    """`size` draws uniform on `values`, balanced so every value appears equally often."""
    deck = (list(values) * (size // len(values) + 1))[:size]
    rng.shuffle(deck)
    return deck


def _cli_call(argv: list[str], out_path: Path | None) -> Outcome:
    """Run cli.main in-process; stdout and stderr are captured outside the timer."""
    stdout, stderr = io.StringIO(), io.StringIO()
    outcome = Outcome(wall_s=0.0, rc=None)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            outcome.rc = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            outcome.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the installed CLI would exit 1 with a traceback
            outcome.exc_class, outcome.layer = type(exc).__name__, raising_layer(exc)
        outcome.wall_s = time.perf_counter() - start
    if out_path is None:
        outcome.payload = stdout.getvalue()
    elif out_path.exists():
        outcome.payload = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return outcome


class SweepWorkload:
    """One ``hcslab sweep`` curve per invocation; one item is one CSV row."""

    def __init__(self, name: str, witness: str, max_order: int, steps: int, coherent_every: int | None):
        self.name = name
        self.witness = witness
        self.max_order = max_order
        self.steps = steps
        self.coherent_every = coherent_every  # every n-th curve uses eps = 1
        self.block_size = 5 * max_order
        self.alpha_max = SWEEP_ALPHA_MAX

    def make_block(self, seed: int, block: int, size: int) -> list[dict]:
        rng = random.Random(f"{seed}/{block}")
        invocations = []
        for i, order in enumerate(_deck(rng, range(1, self.max_order + 1), size)):
            coherent = self.coherent_every and (i + 1) % self.coherent_every == 0
            inv = {
                "epsilon": 1.0 if coherent else rng.random(),
                "order": order,
                "phi": rng.uniform(0.0, TWO_PI),
                "alpha_arg": rng.uniform(0.0, TWO_PI),
            }
            if self.witness == "squeezing":
                inv["psi"] = rng.uniform(0.0, TWO_PI)
            invocations.append(inv)
        return invocations

    def call(self, inv: dict, workdir: Path) -> Outcome:
        out = workdir / "sweep.csv"
        argv = [
            "sweep", "--witness", self.witness,
            "--epsilon", repr(inv["epsilon"]),
            "--orders", str(inv["order"]),
            "--phi", repr(inv["phi"]),
            "--alpha-arg", repr(inv["alpha_arg"]),
            "--alpha-min", "0", "--alpha-max", repr(self.alpha_max),
            "--alpha-steps", str(self.steps),
            "--out", str(out),
        ]  # fmt: skip
        if "psi" in inv:
            argv += ["--psi", repr(inv["psi"])]
        outcome = _cli_call(argv, out)
        outcome.items_written = max(0, outcome.payload.count("\n") - 1)
        return outcome

    def expected_alphas(self, inv: dict) -> list[float]:
        alphas = [self.alpha_max * i / (self.steps - 1) for i in range(self.steps)]
        if self.witness == "antibunching" and inv["epsilon"] == 1.0:
            return alphas[1:]  # the vacuum point is skipped: g is undefined there
        return alphas

    def check(self, inv: dict, outcome: Outcome, rng: random.Random) -> list[str]:
        lines = outcome.payload.split("\n")
        if lines[0] != CSV_HEADER:
            return [f"header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:] if line]
        alphas = self.expected_alphas(inv)
        if len(rows) != len(alphas):
            return [f"{len(rows)} rows, expected {len(alphas)}"]
        problems = [p for row, alpha in zip(rows, alphas) if (p := self._row_mismatch(inv, row, alpha))]
        if problems:
            return problems
        for row in rng.sample(rows, min(ROWS_CHECKED, len(rows))):
            try:
                problem = self._oracle_mismatch(inv, row)
            except (ValueError, fock.TruncationError) as exc:
                problem = f"oracle could not check row {row!r}: {exc}"
            if problem:
                problems.append(problem)
        return problems

    def _row_mismatch(self, inv: dict, row: list[str], alpha: float) -> str:
        """Check that a row echoes its invocation and that its flag matches its value."""
        threshold = 0.0 if self.witness == "squeezing" else 1.0
        expected = (inv["epsilon"], inv["phi"], inv.get("psi", 0.0), alpha, inv["alpha_arg"])
        try:
            if len(row) != 9 or row[0] != self.witness or int(row[1]) != inv["order"]:
                return f"row {row!r} does not match the invocation"
            if not all(math.isclose(float(got), want, abs_tol=PARAM_ATOL) for got, want in zip(row[2:7], expected)):
                return f"row {row!r} has wrong parameter columns"
            if not math.isfinite(float(row[7])) or int(row[8]) != int(float(row[7]) < threshold):
                return f"row {row!r} has a flag that contradicts its value"
        except ValueError:
            return f"row {row!r} does not parse"
        return ""

    def _oracle_mismatch(self, inv: dict, row: list[str]) -> str:
        """Recompute one row with the truncated-Fock oracle."""
        n, value, alpha_abs = inv["order"], float(row[7]), float(row[5])
        alpha = alpha_abs * complex(math.cos(inv["alpha_arg"]), math.sin(inv["alpha_arg"]))
        params = HcsParams(inv["epsilon"], inv["phi"], alpha)
        if self.witness == "squeezing":
            # S from the direct quadrature power <(dX)^2n> minus the coherent
            # benchmark: this route shares no code with the witness assembly
            # that both moment providers go through.
            state = fock.build_hcs(params, fock.choose_truncation(params.alpha, headroom=2 * n + 2))
            quad = QuadratureSpec(psi=inv["psi"])
            reference = fock.quadrature_central_moment(state, quad, 2 * n) - double_factorial(2 * n - 1) * (
                quad.commutator_c / 2.0
            ) ** n
            if abs(value - reference) > WITNESS_TOL:
                return f"S^({2 * n}) at |alpha|={alpha_abs!r}: {value!r}, oracle {reference!r}"
            return ""
        oracle = fock.FockMoments(fock.build_hcs(params, fock.choose_truncation(params.alpha, headroom=2 * n + 4)))
        reference = oracle.moment(n + 1, n + 1).real / oracle.moment(1, 1).real ** (n + 1)
        if not math.isclose(value, reference, rel_tol=G_RTOL):
            return f"g^({n + 1}) at |alpha|={alpha_abs!r}: {value!r}, oracle {reference!r}"
        return ""


class ValidateWorkload:
    """One ``hcslab validate`` over a 40-state grid per invocation; one item is one state."""

    name = "validate"
    block_size = 4
    alpha_min, alpha_max = VALIDATE_ALPHA

    def make_block(self, seed: int, block: int, size: int) -> list[dict]:
        """Each grid draws one |alpha| in each quarter of the range, so every grid has a like truncation cost."""
        rng = random.Random(f"{seed}/{block}")
        quarter = (self.alpha_max - self.alpha_min) / 4.0
        return [
            {
                "epsilon": [rng.random(), float(i % 2)],
                "phi": [rng.uniform(0.0, TWO_PI) for _ in range(2)],
                "alpha_abs": [0.0]
                + [_draw_alpha(rng, self.alpha_min + k * quarter, self.alpha_min + (k + 1) * quarter) for k in range(4)],
                "alpha_arg": [rng.uniform(0.0, TWO_PI) for _ in range(2)],
            }
            for i in range(size)
        ]

    def call(self, inv: dict, workdir: Path) -> Outcome:
        argv = ["validate"]
        for key in ("epsilon", "phi", "alpha_abs", "alpha_arg"):
            argv += ["--" + key.replace("_", "-"), ",".join(repr(x) for x in inv[key])]
        outcome = _cli_call(argv, None)
        head = outcome.payload.split("\n", 1)[0].split()
        if head[:2] == ["validation", "grid:"]:
            outcome.items_written = int(head[2])
        return outcome

    def check(self, inv: dict, outcome: Outcome, rng: random.Random) -> list[str]:
        lines = outcome.payload.rstrip("\n").split("\n")
        grid = math.prod(len(v) for v in inv.values())
        problems = []
        if lines[0] != f"validation grid: {grid} states":
            problems.append(f"first line {lines[0]!r}")
        if lines[-1] != "overall: PASS":
            problems.append(f"last line {lines[-1]!r}")
        return problems


class HeraldWorkload:
    """The library work behind ``hcslab herald``, RUNS_PER_CALL settings per invocation; one item per run.

    One run takes a fraction of a millisecond, so an invocation batches
    several: its per-item time then measures the library, not scheduler noise.
    """

    name = "herald"
    block_size = 4
    alpha_min, alpha_max = 0.0, CENSUS_ALPHA_MAX  # no herald run fails on the whole axis
    RUNS_PER_CALL = 250

    def make_block(self, seed: int, block: int, size: int) -> list[dict]:
        rng = random.Random(f"{seed}/{block}")
        return [
            {
                "runs": [
                    {
                        "t": rng.random(),
                        "theta": rng.uniform(0.0, TWO_PI),
                        "phi_xpm": rng.uniform(0.001, 0.1),
                        "alpha_abs": _draw_alpha(rng, self.alpha_min, self.alpha_max),
                        "alpha_arg": rng.uniform(0.0, TWO_PI),
                    }
                    for _ in range(self.RUNS_PER_CALL)
                ]
            }
            for _ in range(size)
        ]

    def call(self, inv: dict, workdir: Path) -> Outcome:
        settings = [
            (run, run["alpha_abs"] * complex(math.cos(run["alpha_arg"]), math.sin(run["alpha_arg"])))
            for run in inv["runs"]
        ]
        policy = fock.TruncationPolicy()
        outcome = Outcome(wall_s=0.0, rc=None)
        rows = []
        start = time.perf_counter()
        try:
            for run, alpha in settings:
                outcomes = {
                    mode: heralding.simulate_herald(
                        heralding.HeraldingParams.from_transmissivity(
                            run["t"], theta=run["theta"], phi_xpm=run["phi_xpm"], alpha=alpha, kerr_mode=mode
                        ),
                        policy,
                    )
                    for mode in ("linearized", "exact")
                }
                linear = outcomes["linearized"]
                model = fock.build_hcs(linear.mapped, linear.state_a.dim, policy.tail_tol)
                fid_model = fock.fidelity(linear.state_a, model)
                fid_modes = fock.fidelity(outcomes["exact"].state_a, linear.state_a)
                rows.append((linear.mapped.epsilon, linear.mapped.phi, fid_model, fid_modes, linear.success_prob))
            outcome.rc = 0
        except Exception as exc:
            outcome.exc_class, outcome.layer = type(exc).__name__, raising_layer(exc)
        outcome.wall_s = time.perf_counter() - start
        outcome.payload = "".join(",".join(repr(x) for x in row) + "\n" for row in rows)
        outcome.items_written = len(rows)
        return outcome

    def check(self, inv: dict, outcome: Outcome, rng: random.Random) -> list[str]:
        lines = outcome.payload.splitlines()
        if len(lines) != len(inv["runs"]):
            return [f"{len(lines)} results for {len(inv['runs'])} runs"]
        problems = []
        for line in lines:
            epsilon, _, fid_model, _, success_prob = (float(x) for x in line.split(","))
            if not fid_model >= FIDELITY_FLOOR:
                problems.append(f"round-trip fidelity {fid_model!r} below {FIDELITY_FLOOR!r}")
            if not 0.0 <= success_prob <= 1.0:
                problems.append(f"success probability {success_prob!r} outside [0, 1]")
            if not 0.0 <= epsilon <= 1.0:
                problems.append(f"mapped epsilon {epsilon!r} outside [0, 1]")
        return problems


# The orders stop at the caps of the code at the time the benchmark was
# defined: MAX_SQUEEZING_ORDER = 5, and 11, the largest n whose
# <a^dag^(n+1) a^(n+1)> fits MAX_MOMENT_ORDER = 24.  They are fixed here so
# that raising a cap does not change the workload.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-squeezing", "squeezing", max_order=5, steps=81, coherent_every=None),
        SweepWorkload("sweep-antibunching", "antibunching", max_order=11, steps=401, coherent_every=5),
        ValidateWorkload(),
        HeraldWorkload(),
    )
}


def census(workload):
    """The same workload over 0 < |alpha| <= CENSUS_ALPHA_MAX, where the known defects fail some invocations."""
    wide = copy.copy(workload)
    wide.alpha_min, wide.alpha_max = 0.0, CENSUS_ALPHA_MAX
    return wide
