"""Command-line surface: sweep, simulate, analyze, security, presets.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error,
3 numerical certification failure.  Every option is a flag of its command,
declared once.  A flat ``key = value`` config file (--config) or a bundled
preset (--preset) is read as those same flags: each key is a flag name
with - written as _, and a key that is not a flag of the command exits 1.
Flags given on the command line win over the file.  The bundled presets
reproduce the reference figure conditions.
"""

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from .channel import ChannelParams
from .errors import PnrchanError, ValidationError
from .montecarlo import (
    calibrate_params,
    empirical_distributions,
    plugin_mi,
    run_experiment,
)
from .receivers import DEFAULT_TAIL_TOL
from .recordio import (
    parse_config,
    read_shot_records,
    render_gnuplot_script,
    render_table,
    write_shot_records,
    write_text_atomic,
)
from .sweeps import (
    SECURITY_SCENARIOS,
    STRATEGIES,
    SweepSpec,
    run_security,
    run_sweep,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1).

    Flags must be spelled out in full, so that a config key names exactly
    one flag.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.required_actions = []

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.required:
            self.required_actions.append(action)
        return action

    def error(self, message):
        raise ValidationError(message)


def _parse_grid(text):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad grid spec {text!r}: {exc}") from exc
        if count < 1:
            raise ValidationError("grid count must be >= 1")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ValidationError(f"bad grid list {text!r}: {exc}") from exc


def _parse_float_list(text):
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ValidationError(f"bad number list {text!r}: {exc}") from exc


def _parse_name_list(text):
    return tuple(v.strip().lower() for v in text.split(",") if v.strip())


def _preset_files():
    root = resources.files("pnrchan").joinpath("presets")
    return sorted(
        (entry for entry in root.iterdir() if entry.name.endswith(".cfg")),
        key=lambda entry: entry.name,
    )


def _load_preset(name):
    for entry in _preset_files():
        if entry.name == f"{name}.cfg":
            with resources.as_file(entry) as path:
                return parse_config(path)
    known = ", ".join(e.name[:-4] for e in _preset_files())
    raise ValidationError(f"unknown preset {name!r}; available: {known}")


# every bundled preset is a sweep or a security table
_PRESET_COMMANDS = ("sweep", "security")
_CONFIG_COMMANDS = (*_PRESET_COMMANDS, "simulate")


def _add_sources(parser, command):
    """--preset and --config: files whose keys are this command's own flags."""
    group = parser.add_mutually_exclusive_group()
    if command in _PRESET_COMMANDS:
        group.add_argument("--preset", help="bundled preset name (see 'pnrchan presets')")
    group.add_argument("--config", help="flat key = value file; each key is one of "
                                        "this command's flags with - written as _")


def _splice_sources(argv):
    """Replace --preset/--config by the flags their file stands for.

    Each ``key = value`` becomes ``--key=value`` right after the command name,
    so flags given on the command line come later and win.  The ``=`` form
    keeps values such as ``-1:5:2`` from reading as flags.  Returns the new
    argv and, for each spliced flag, where it came from.
    """
    if not argv or argv[0] not in _CONFIG_COMMANDS:
        return argv, {}
    command = argv[0]
    pre = _Parser(add_help=False)
    _add_sources(pre, command)
    ns, rest = pre.parse_known_args(argv[1:])
    preset = getattr(ns, "preset", None)
    if preset:
        source, cfg = f"preset {preset}", _load_preset(preset)
    elif ns.config:
        source, cfg = ns.config, parse_config(ns.config)
    else:
        return argv, {}
    wanted = cfg.pop("command", None)
    if wanted and wanted != command:
        raise ValidationError(f"{source} is for the {wanted!r} command, not {command!r}")
    cfg.pop("description", None)
    origins = {}
    for key, value in cfg.items():
        if key in ("preset", "config"):
            raise ValidationError(f"{source}: key {key!r} cannot name another file")
        origins[f"--{key.replace('_', '-')}={value}"] = f"key {key!r} in {source}"
    return [command, *origins, *rest], origins


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(ns):
    spec = SweepSpec(
        mode=ns.mode,
        signal_mean=ns.signal_mean,
        grid=_parse_grid(ns.grid),
        strategies=ns.strategies,
        visibilities=ns.xi,
        lo_mean=ns.lo_mean,
        fixed_loss_db=ns.loss_db,
        security=ns.security,
        eve_lo_mean=ns.eve_lo_mean,
        tail_tol=ns.tail_tol,
    )
    columns, rows = run_sweep(spec)
    preamble = [("command", "sweep"), ("mode", spec.mode),
                ("signal_mean", f"{spec.signal_mean:.12g}")]
    if spec.lo_mean is not None:
        preamble.append(("lo_mean", f"{spec.lo_mean:.12g}"))
    if spec.fixed_loss_db:
        preamble.append(("loss_db", f"{spec.fixed_loss_db:.12g}"))
    preamble.append(("xi", ",".join(f"{v:g}" for v in spec.visibilities)))
    preamble.append(("strategies", ",".join(spec.strategies)))
    if spec.security:
        preamble.append(("security", ",".join(spec.security)))
    if spec.eve_lo_mean is not None:
        preamble.append(("eve_lo_mean", f"{spec.eve_lo_mean:.12g}"))
    preamble.append(("grid", ns.grid))
    preamble.append(("tail_tol", f"{spec.tail_tol:g}"))
    write_text_atomic(ns.output, render_table(__version__, preamble, columns, rows))
    _maybe_write_gnuplot(ns, columns, f"pnrchan sweep ({spec.mode})")
    return 0


def _maybe_write_gnuplot(ns, columns, title):
    if ns.gnuplot_script:
        write_text_atomic(ns.gnuplot_script,
                          render_gnuplot_script(ns.output, columns, title))


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------

def _cmd_security(ns):
    spec = SweepSpec(
        mode="loss",
        signal_mean=ns.signal_mean,
        grid=_parse_grid(ns.grid),
        strategies=("wf", "bds"),
        visibilities=(ns.xi,),
        lo_mean=ns.lo_mean,
        security=tuple(SECURITY_SCENARIOS),
        eve_lo_mean=ns.eve_lo_mean,
        tail_tol=ns.tail_tol,
    )
    columns, rows = run_security(spec)
    preamble = [
        ("command", "security"),
        ("signal_mean", f"{spec.signal_mean:.12g}"),
        ("lo_mean", f"{spec.lo_mean:.12g}"),
        ("xi_bob", f"{spec.visibilities[0]:.12g}"),
        ("xi_eve", "1"),
        ("eve_lo_mean", "bob" if spec.eve_lo_mean is None else f"{spec.eve_lo_mean:.12g}"),
        ("grid", ns.grid),
        ("tail_tol", f"{spec.tail_tol:g}"),
    ]
    write_text_atomic(ns.output, render_table(__version__, preamble, columns, rows))
    _maybe_write_gnuplot(ns, columns, "pnrchan security")
    return 0


# ---------------------------------------------------------------------------
# simulate / analyze
# ---------------------------------------------------------------------------

def _print_run_summary(run):
    emp = empirical_distributions(run)
    report = plugin_mi(emp)
    for k, (mean_n, mean_m) in enumerate(emp.arm_means):
        print(f"symbol {k}: shots={emp.shots[k]} mean_n={mean_n:.6g} mean_m={mean_m:.6g}")
    for name in ("wf", "hl", "bds"):
        est = getattr(report, name)
        print(f"plugin_mi[{name}] = {est.value:.6f} bits "
              f"(miller_madow_bias = {est.miller_madow_bias:.2e})")


def _cmd_simulate(ns):
    params = ChannelParams.from_means(ns.signal_mean, ns.lo_mean, visibility=ns.xi)
    run = run_experiment(params, ns.shots, ns.seed)
    write_shot_records(ns.output, run)
    print(f"wrote {2 * ns.shots} shots to {ns.output} (seed={ns.seed})")
    _print_run_summary(run)
    return 0


def _empirical_payload(emp):
    """JSON-friendly view of the empirical laws, on the observed outcomes only."""
    wf0, wf1 = emp.wf.tolist()
    hl0, hl1 = emp.hl.tolist()
    bds0, bds1 = emp.bds.tolist()
    return {
        "wf_cells": [[n, m, f0, f1] for (n, m), f0, f1 in zip(emp.cells.tolist(), wf0, wf1)],
        "wf_cell_format": ["n", "m", "freq_symbol0", "freq_symbol1"],
        "hl": {"deltas": emp.deltas.tolist(), "symbol0": hl0, "symbol1": hl1},
        "bds": {"symbol0": bds0, "symbol1": bds1},
    }


def _cmd_analyze(ns):
    run = read_shot_records(ns.input)
    emp = empirical_distributions(run)
    report = plugin_mi(emp)
    payload = {
        "shots": {"symbol0": emp.shots[0], "symbol1": emp.shots[1]},
        "arm_means": {
            f"symbol{k}": {"n": mean_n, "m": mean_m}
            for k, (mean_n, mean_m) in enumerate(emp.arm_means.tolist())
        },
        "priors": list(report.priors),
        "plugin_mi": {
            name: {
                "value": getattr(report, name).value,
                "miller_madow_bias": getattr(report, name).miller_madow_bias,
            }
            for name in ("wf", "hl", "bds")
        },
        "empirical": _empirical_payload(emp),
        "calibration": None,
    }
    if ns.known_lo_mean is not None or ns.known_signal_mean is not None:
        cal = calibrate_params(
            emp,
            known_lo_mean=ns.known_lo_mean,
            known_signal_mean=ns.known_signal_mean,
        )
        payload["calibration"] = {
            "signal_mean": cal.signal_mean,
            "lo_mean": cal.lo_mean,
            "xi": cal.xi,
            "xi_raw": cal.xi_raw,
            "xi_stderr": cal.xi_stderr,
            "clamped": cal.clamped,
        }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if ns.output:
        write_text_atomic(ns.output, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _cmd_presets(_ns):
    for entry in _preset_files():
        with resources.as_file(entry) as path:
            cfg = parse_config(path)
        name = entry.name[:-4]
        command = cfg.get("command", "?")
        description = cfg.get("description", "")
        print(f"{name:<8} {command:<9} {description}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="pnrchan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pnrchan {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    tail_tol_help = f"truncation tail tolerance (default {DEFAULT_TAIL_TOL:g})"

    sweep = subs.add_parser("sweep", help="MI sweep over LO energy or signal loss")
    _add_sources(sweep, "sweep")
    sweep.add_argument("--mode", choices=("lo", "loss"), required=True)
    sweep.add_argument("--signal-mean", type=float, required=True,
                       help="signal mean photon number at the receiver (lo mode) "
                            "or at zero loss (loss mode)")
    sweep.add_argument("--lo-mean", type=float,
                       help="fixed LO mean photon number (loss mode)")
    sweep.add_argument("--loss-db", type=float, default=0.0,
                       help="channel attenuation in dB behind the fixed signal mean "
                            "(lo mode; sets Eve's share under --security)")
    sweep.add_argument("--xi", type=_parse_float_list, default=(1.0,),
                       help="visibility, or comma list for a band")
    sweep.add_argument("--grid", required=True, help="start:stop:count or comma list")
    sweep.add_argument("--strategies", type=_parse_name_list, default=("wf", "hl", "bds"),
                       help=f"comma subset of {','.join(STRATEGIES)}")
    sweep.add_argument("--security", type=_parse_name_list, default=(),
                       help=f"comma subset of {','.join(SECURITY_SCENARIOS)}")
    sweep.add_argument("--eve-lo-mean", type=float)
    sweep.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL, help=tail_tol_help)
    sweep.add_argument("--gnuplot-script", help="also write a gnuplot script for the table")
    sweep.add_argument("-o", "--output", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    security = subs.add_parser("security", help="wiretap security figures vs loss")
    _add_sources(security, "security")
    security.add_argument("--signal-mean", type=float, required=True,
                          help="signal mean photon number at zero loss")
    security.add_argument("--lo-mean", type=float, required=True,
                          help="LO mean photon number")
    security.add_argument("--xi", type=float, default=1.0,
                          help="honest receiver visibility")
    security.add_argument("--grid", required=True,
                          help="loss grid in dB (start:stop:count or list)")
    security.add_argument("--eve-lo-mean", type=float)
    security.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                          help=tail_tol_help)
    security.add_argument("--gnuplot-script",
                          help="also write a gnuplot script for the table")
    security.add_argument("-o", "--output", required=True)
    security.set_defaults(func=_cmd_security)

    simulate = subs.add_parser("simulate", help="generate a Monte Carlo shot file")
    _add_sources(simulate, "simulate")
    simulate.add_argument("--signal-mean", type=float, required=True,
                          help="signal mean photon number at the receiver")
    simulate.add_argument("--lo-mean", type=float, required=True,
                          help="LO mean photon number")
    simulate.add_argument("--xi", type=float, default=1.0, help="interference visibility")
    simulate.add_argument("--shots", type=int, required=True, help="shots per symbol")
    simulate.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    simulate.add_argument("-o", "--output", required=True)
    simulate.set_defaults(func=_cmd_simulate)

    analyze = subs.add_parser("analyze", help="estimate MI and parameters from shots")
    analyze.add_argument("input", help="shot-record CSV file")
    analyze.add_argument("--known-lo-mean", type=float)
    analyze.add_argument("--known-signal-mean", type=float)
    analyze.add_argument("-o", "--output", help="write the JSON report here")
    analyze.set_defaults(func=_cmd_analyze)

    presets = subs.add_parser("presets", help="list bundled figure presets")
    presets.set_defaults(func=_cmd_presets)

    return parser


def _unknown_args(argv):
    """The arguments no flag of the command takes, or [] if argv does not parse.

    argparse stops at a missing required argument before it reports unknown
    ones, so this parses again with a parser whose commands require none.
    """
    parser = build_parser()
    for command in parser.commands.values():
        for action in command.required_actions:
            action.required = False
    try:
        return parser.parse_known_args(argv)[1]
    except ValidationError:
        return []


def _out_of_memory(ns):
    """The out-of-memory message, naming what the command can shrink."""
    command = getattr(ns, "command", None)
    if command == "simulate":
        return "out of memory; use fewer --shots"
    if command == "analyze":
        return f"out of memory on the shot file {ns.input}"
    if command in ("sweep", "security"):
        return "out of memory; use a smaller --grid or a looser --tail-tol"
    return "out of memory"


def main(argv=None) -> int:
    parser = build_parser()
    ns = None
    try:
        argv, origins = _splice_sources(sys.argv[1:] if argv is None else list(argv))
        try:
            ns, unknown = parser.parse_known_args(argv)
            problem = ""
        except ValidationError as exc:
            unknown, problem = _unknown_args(argv), f"; {exc}"
            if not unknown:
                raise
        if unknown:
            parser.error("unrecognized arguments: "
                         + " ".join(origins.get(arg, arg) for arg in unknown) + problem)
        return ns.func(ns)
    except PnrchanError as exc:
        print(f"pnrchan: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"pnrchan: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"pnrchan: error: {_out_of_memory(ns)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
