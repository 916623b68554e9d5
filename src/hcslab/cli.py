"""Command-line front end: sweeps, validation, heralding runs, figure data.

Exit codes: 0 success, 2 invalid arguments, 3 validation tolerance breach
(including truncation inadequacy), 4 I/O failure.  Option precedence is
command line > config file (key=value lines) > built-in defaults.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import validation
from .fock import TruncationError, TruncationPolicy, build_hcs, fidelity
from .heralding import KERR_MODES, DegenerateBranchError, HeraldingParams, simulate_herald
from .sweep import SweepSpec, figure_sweeps, write_sweeps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            config[key.strip()] = value.strip()
    return config


class _Options:
    """Merged view of CLI args, config file entries (keys: the subcommand's flags), and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(args.config) if getattr(args, "config", None) else {}
        known = {dest.replace("_", "-") for dest in vars(args)} - {"command", "handler", "config", "name"}
        unknown = sorted(set(self.config) - known)
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(unknown)}; expected one of {', '.join(sorted(known))}")

    def get(self, key: str, default, parse):
        cli_value = getattr(self.args, key.replace("-", "_"), None)
        if cli_value is not None:
            return cli_value
        if key in self.config:
            return parse(self.config[key])
        return default


def _add_common(parser: argparse.ArgumentParser, oracle: bool) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    if oracle:
        parser.add_argument("--truncation-tol", type=float, help="oracle tail tolerance (default 1e-12)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcslab",
        description="Higher-order nonclassicality witnesses for hybrid coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a witness over an (epsilon, order, |alpha|) grid")
    sweep.add_argument("--witness", choices=("squeezing", "antibunching"))
    sweep.add_argument("--epsilon", type=_float_list, help="comma-separated mixing weights")
    sweep.add_argument("--orders", type=_int_list, help="comma-separated witness orders")
    sweep.add_argument("--phi", type=float, help="relative phase of the state")
    sweep.add_argument("--psi", type=float, help="quadrature angle")
    sweep.add_argument("--alpha-min", type=float)
    sweep.add_argument("--alpha-max", type=float)
    sweep.add_argument("--alpha-steps", type=int)
    sweep.add_argument("--alpha-arg", type=float, help="argument of alpha along the sweep ray")
    sweep.add_argument("--out", help="output CSV path (default: standard output)")
    _add_common(sweep, oracle=False)
    sweep.set_defaults(handler=_cmd_sweep)

    figure = sub.add_parser("figure", help="canned sweep presets emitting standard figure data")
    figure.add_argument("name", choices=("2a", "2b", "3", "4"))
    figure.add_argument("--out", help="output CSV path (default: figure_<name>.csv)")
    _add_common(figure, oracle=False)
    figure.set_defaults(handler=_cmd_figure)

    validate = sub.add_parser("validate", help="cross-check the closed forms against the Fock oracle")
    validate.add_argument("--epsilon", type=_float_list)
    validate.add_argument("--phi", type=_float_list)
    validate.add_argument("--alpha-abs", type=_float_list)
    validate.add_argument("--alpha-arg", type=_float_list)
    validate.add_argument("--force-dim", type=int, help="override the automatic truncation (debugging)")
    _add_common(validate, oracle=True)
    validate.set_defaults(handler=_cmd_validate)

    herald = sub.add_parser("herald", help="simulate the heralded generation scheme")
    herald.add_argument("--t", type=float, help="BS2 transmissivity (default 1/sqrt(2))")
    herald.add_argument("--r", type=float, help="BS2 reflectivity (default sqrt(1 - t^2))")
    herald.add_argument("--theta", type=float, help="arm-b phase")
    herald.add_argument("--xpm", type=float, help="cross-Kerr phase per photon pair")
    herald.add_argument("--alpha-abs", type=float)
    herald.add_argument("--alpha-arg", type=float)
    herald.add_argument("--kerr-mode", choices=("linearized", "exact"))
    herald.add_argument("--out", help="CSV file to append the outcome to")
    _add_common(herald, oracle=True)
    herald.set_defaults(handler=_cmd_herald)

    return parser


def _cmd_sweep(opt: _Options) -> int:
    try:
        spec = SweepSpec(
            witness=opt.get("witness", "squeezing", str),
            epsilon_list=opt.get("epsilon", (0.5,), _float_list),
            orders=opt.get("orders", (1, 2, 3), _int_list),
            phi=opt.get("phi", 0.0, float),
            psi=opt.get("psi", 0.0, float),
            alpha_abs_min=opt.get("alpha-min", 0.0, float),
            alpha_abs_max=opt.get("alpha-max", 4.0, float),
            alpha_steps=opt.get("alpha-steps", 81, int),
            alpha_arg=opt.get("alpha-arg", 0.0, float),
        )
    except ValueError as exc:
        print(f"hcslab sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = opt.get("out", None, str)
    try:
        write_sweeps([spec], sys.stdout if out is None else out)
    except OSError as exc:
        print(f"hcslab sweep: cannot write {out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_figure(opt: _Options) -> int:
    specs = figure_sweeps(opt.args.name)
    out = opt.get("out", f"figure_{opt.args.name}.csv", str)
    try:
        rows = write_sweeps(specs, out)
    except OSError as exc:
        print(f"hcslab figure: cannot write {out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {rows} rows to {out}")
    return EXIT_OK


def _cmd_validate(opt: _Options) -> int:
    try:
        report = validation.run_validation(
            epsilons=opt.get("epsilon", validation.DEFAULT_EPSILONS, _float_list),
            phis=opt.get("phi", validation.DEFAULT_PHIS, _float_list),
            alpha_abs=opt.get("alpha-abs", validation.DEFAULT_ALPHA_ABS, _float_list),
            alpha_args=opt.get("alpha-arg", validation.DEFAULT_ALPHA_ARGS, _float_list),
            tail_tol=opt.get("truncation-tol", 1e-12, float),
            force_dim=opt.get("force-dim", None, int),
        )
    except ValueError as exc:
        print(f"hcslab validate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_herald(opt: _Options) -> int:
    try:
        t = opt.get("t", None, float)
        r = opt.get("r", None, float)
        if t is None and r is None:
            t = r = math.sqrt(0.5)  # exactly balanced by default
        elif r is None:
            r = math.sqrt(max(0.0, 1.0 - t * t))
        elif t is None:
            t = math.sqrt(max(0.0, 1.0 - r * r))
        theta = opt.get("theta", 0.0, float)
        xpm = opt.get("xpm", 0.01, float)
        alpha_abs = opt.get("alpha-abs", 1.0, float)
        alpha_arg = opt.get("alpha-arg", 0.0, float)
        kerr_mode = opt.get("kerr-mode", "linearized", str)
        if kerr_mode not in KERR_MODES:
            raise ValueError(f"kerr-mode must be one of {KERR_MODES}, got {kerr_mode!r}")
        tail_tol = opt.get("truncation-tol", 1e-12, float)
        alpha = alpha_abs * complex(math.cos(alpha_arg), math.sin(alpha_arg))
        policy = TruncationPolicy(tail_tol=tail_tol)
        runs = {
            mode: simulate_herald(
                HeraldingParams(t_bs2=t, r_bs2=r, theta=theta, phi_xpm=xpm, alpha=alpha, kerr_mode=mode),
                policy,
            )
            for mode in KERR_MODES
        }
        chosen = runs[kerr_mode]
        model = build_hcs(chosen.mapped, chosen.state_a.dim, tail_tol)
    except TruncationError as exc:
        print(f"hcslab herald: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateBranchError as exc:
        print(f"hcslab herald: degenerate settings: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"hcslab herald: {exc}", file=sys.stderr)
        return EXIT_USAGE

    mapped = chosen.mapped
    fid_model = fidelity(runs["linearized"].state_a, model)
    fid_modes = fidelity(runs["exact"].state_a, runs["linearized"].state_a)

    print(f"settings: t={t:.12g} r={r:.12g} theta={theta:.12g} xpm={xpm:.12g} alpha={alpha:.12g}")
    print(f"mapped state: epsilon={mapped.epsilon:.12g} phi={mapped.phi:.12g}")
    print(f"fidelity linearized vs closed-form state: {fid_model:.15g}")
    print(f"fidelity exact vs linearized: {fid_modes:.15g}")
    print(f"success probability ({kerr_mode}): {chosen.success_prob:.15g}")

    out = opt.get("out", None, str)
    if out is not None:
        header = (
            "t_bs2,r_bs2,theta,phi_xpm,alpha_abs,alpha_arg,kerr_mode,"
            "epsilon,phi,fidelity_model,fidelity_exact_vs_linearized,success_prob"
        )
        row = ",".join(
            [format(x, ".17g") for x in (t, r, theta, xpm, alpha_abs, alpha_arg)]
            + [kerr_mode]
            + [
                format(x, ".17g")
                for x in (mapped.epsilon, mapped.phi, fid_model, fid_modes, chosen.success_prob)
            ]
        )
        try:
            fresh = not os.path.exists(out) or os.path.getsize(out) == 0
            with open(out, "a", encoding="utf-8", newline="\n") as handle:
                handle.write((header + "\n" if fresh else "") + row + "\n")
        except OSError as exc:
            print(f"hcslab herald: cannot write {out!r}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    # argparse leaves each parser as ~300 objects of cyclic garbage; a collection while it is alive would move it
    # toward the oldest generation, so a process calling main repeatedly would run full collections far more often
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
    finally:
        if enabled:
            gc.enable()
    try:
        opt = _Options(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"hcslab {args.command}: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hcslab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.handler(opt)


if __name__ == "__main__":
    sys.exit(main())
