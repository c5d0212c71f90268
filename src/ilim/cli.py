"""Command-line entry points.

Subcommands: simulate (one paired run), sweep (viscosity sweep + report),
criteria (evaluate stored snapshot trajectories), corrector-check
(scaling report), shear-verify (exact-series oracle suite).

Exit codes: 0 success, 1 usage/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import error_series
from .correctors import verify_corrector_scalings
from .criteria import MSchedule, evaluate_criteria, write_criteria_csv
from .harness import (
    _CONFIG_SCHEMA,
    SweepConfig,
    _check_distinct,
    emit_report,
    emit_shear_report,
    parse_config,
    run_sweep,
    shear_limit_study,
)
from .snapshots import load_trajectory, save_trajectory
from .solvers import run_simulation

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _config_flag(p, flag, name, **kwargs):
    """Add `flag` to override SweepConfig field `name`.  Its text is parsed
    by the config schema's parser, so a bad value is a usage error with the
    same cause as in the config."""
    parse = next(fn for _, _, field, fn in _CONFIG_SCHEMA if field == name)

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"{flag} {text}: {exc}") from None

    p.add_argument(flag, dest=name, type=convert, **kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ilim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_schedule_flags(p):
        _config_flag(p, "--M-form", "m_form",
                     help="viscosity schedule M_nu(t): constant or power (c*nu^a)")
        _config_flag(p, "--M-c", "m_c", help="schedule constant c")
        _config_flag(p, "--M-a", "m_a", help="schedule power a")

    def add_layer_flags(p):
        _config_flag(p, "--C", "layer_c", metavar="C", help="layer constant C > 1")
        _config_flag(p, "--r", "r", help="condition norm index (>=1 or 'inf')")

    def add_du1dy_flag(p):
        p.add_argument("--use-du1dy", action="store_true", default=None,
                       help="use -d(u1)/dy instead of full vorticity")

    def add_run_flags(p):
        p.add_argument("--config", metavar="FILE", help="INI config file")
        _config_flag(p, "--nu", "nu_values", metavar="NU",
                     help="viscosity (comma list for sweeps)")
        _config_flag(p, "--nx", "nx", help="streamwise points")
        _config_flag(p, "--ny", "ny", help="wall-normal points")
        _config_flag(p, "--T", "t_final", help="final time")
        _config_flag(p, "--dt", "dt", help="time step")
        _config_flag(p, "--preset", "preset", help="initial data preset name")

    p_sim = sub.add_parser("simulate", help="one paired NS/Euler run")
    add_run_flags(p_sim)
    p_sim.add_argument("--out", metavar="DIR",
                       help="write ns/ and euler/ snapshot trajectories here")

    p_sweep = sub.add_parser("sweep", help="viscosity sweep with report")
    add_run_flags(p_sweep)
    add_schedule_flags(p_sweep)
    add_layer_flags(p_sweep)
    add_du1dy_flag(p_sweep)
    # not a config override: the worker count never reaches the report
    p_sweep.add_argument("--jobs", dest="workers", metavar="JOBS", type=int,
                         help="worker processes")
    p_sweep.add_argument("--out", metavar="DIR", default="report",
                         help="report directory (default: report)")

    p_crit = sub.add_parser("criteria",
                            help="evaluate criteria on stored snapshots")
    p_crit.add_argument("snapshots", metavar="DIR",
                        help="directory containing ns/ and euler/ trajectories")
    add_schedule_flags(p_crit)
    add_layer_flags(p_crit)
    add_du1dy_flag(p_crit)
    p_crit.add_argument("--out", metavar="FILE",
                        help="criteria CSV path (default: DIR/criteria.csv)")

    p_corr = sub.add_parser("corrector-check",
                            help="corrector norm-scaling report")
    p_corr.add_argument("--p", default="1,2,inf",
                        help="comma list of norm indices (default 1,2,inf)")
    p_corr.add_argument("--samples", type=int, default=9,
                        help="number of alpha*tau samples")
    p_corr.add_argument("--min", dest="at_min", type=float, default=1e-4)
    p_corr.add_argument("--max", dest="at_max", type=float, default=1e-1)
    p_corr.add_argument("--out", metavar="DIR", default="corrector-report",
                        help="report directory")

    # No --use-du1dy: in the exact shear pair omega is -d(u1)/dy already.
    p_shear = sub.add_parser("shear-verify",
                             help="exact shear-series inviscid-limit study")
    _config_flag(p_shear, "--nu", "nu_values", metavar="NU",
                 help="comma list of viscosities")
    _config_flag(p_shear, "--T", "t_final")
    _config_flag(p_shear, "--ny", "ny")
    add_schedule_flags(p_shear)
    add_layer_flags(p_shear)
    p_shear.add_argument("--out", metavar="DIR", default="shear-report",
                         help="report directory")
    return parser


def _load_config(args) -> SweepConfig:
    """The --config file, else the SweepConfig defaults, with every given
    flag applied.  Each value was checked as its config row was parsed;
    the library checks the rules that join several keys as a run is set up."""
    if getattr(args, "config", None) is not None:
        cfg = parse_config(args.config)
    elif args.command == "sweep":
        raise _UsageError(
            "usage: ilim sweep --config FILE [overrides]\n"
            "error: sweep requires --config"
        )
    else:
        cfg = SweepConfig()
    for _, _, name, _ in _CONFIG_SCHEMA:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def _cmd_simulate(args) -> int:
    if args.nu_values is not None and len(args.nu_values) > 1:
        raise ValueError(f"--nu: simulate runs one nu, got {len(args.nu_values)}")
    cfg = _load_config(args)
    if args.config is not None and len(cfg.nu_values) > 1:
        raise ValueError(f"[sweep] nu: simulate runs one nu, got {len(cfg.nu_values)}")
    sim = cfg.simulation_config(cfg.nu_values[0])
    pair = run_simulation(sim)
    series = error_series(pair.ns, pair.euler)
    print(f"paired run: nu={sim.nu!r} t_final={sim.t_final!r} "
          f"grid={sim.nx}x{sim.ny}")
    print(f"final time {pair.ns.states[-1].t!r}: "
          f"sup |u - ubar|_L2^2 = {series.sup_value!r}")
    if args.out is not None:
        out = Path(args.out)
        save_trajectory(pair.ns, out / "ns")
        save_trajectory(pair.euler, out / "euler")
        print(f"wrote {out / 'ns'} and {out / 'euler'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg, jobs=args.workers)
    names = emit_report(result, args.out)
    for rec in result.records:
        if rec.ok:
            print(f"nu={rec.nu!r}: ok sup_error_sq={rec.sup_err_sq!r}")
        else:
            print(f"nu={rec.nu!r}: failed ({rec.message})")
    if result.fit is not None:
        print(f"fitted error exponent: {result.fit.exponent!r}")
    print(f"report: {len(names)} files in {args.out}")
    return 0


def _cmd_criteria(args) -> int:
    cfg = _load_config(args)
    root = Path(args.snapshots)
    ns = load_trajectory(root / "ns")
    euler = load_trajectory(root / "euler")
    report = evaluate_criteria(ns, euler, cfg.schedule(), cfg.layer_spec())
    out = Path(args.out) if args.out is not None else root / "criteria.csv"
    write_criteria_csv(out, (report,))
    print(f"criteria: {'pass' if report.all_pass else 'FAIL'} "
          f"({report.times.size} times, nu={report.nu!r})")
    print(f"wrote {out}")
    return 0


def _cmd_corrector_check(args) -> int:
    p_values = [float(tok) for tok in args.p.replace(",", " ").split()]
    if not p_values:
        raise ValueError("empty p list")
    _check_distinct(p_values, "--p repeats p")
    for flag, value in (("--min", args.at_min), ("--max", args.at_max)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{flag} must be positive and finite, got {value!r}")
    if not args.at_min < args.at_max:
        raise ValueError("need --min < --max")
    at = np.geomspace(args.at_min, args.at_max, args.samples)
    reports = [verify_corrector_scalings(p, at) for p in p_values]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for p, report in zip(p_values, reports):
        tag = "inf" if np.isinf(p) else f"{p:g}"
        path = out / f"scaling_p{tag}.csv"
        report.write_csv(path)
        dev = max(abs(row.fitted_exponent - row.expected_exponent)
                  for row in report.rows)
        worst = max(worst, dev)
        print(f"p={tag}: max |fit - expected| = {dev!r} -> {path}")
    print(f"worst deviation over p: {worst!r}")
    return 0


def _cmd_shear_verify(args) -> int:
    # only the flags given, so shear_limit_study's signature holds the defaults
    given = {name: v for name, v in vars(args).items() if v is not None}
    study = {name: given[name] for name in ("nu_values", "t_final", "ny", "layer_c")
             if name in given}
    schedule = {key: given[f"m_{key}"] for key in ("form", "c", "a")
                if f"m_{key}" in given}
    if schedule:
        study["schedule"] = MSchedule(**schedule)
    if "r" in given:
        study["r_values"] = (given["r"],)
    result = shear_limit_study(**study)
    names = emit_shear_report(result, args.out)
    for s in result.series:
        print(f"nu={s.nu!r}: sup_error_sq={s.sup_value!r}")
    if result.fit is not None:
        print(f"fitted error exponent: {result.fit.exponent!r}")
    for nu, ok in result.holdout_bound_ok.items():
        print(f"held-out bound nu={nu!r}: {'ok' if ok else 'VIOLATED'}")
    print(f"report: {len(names)} files in {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "criteria": _cmd_criteria,
    "corrector-check": _cmd_corrector_check,
    "shear-verify": _cmd_shear_verify,
}


def cli_dispatch(argv) -> int:
    """Parse argv and run a subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
