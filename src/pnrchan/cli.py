"""Command-line surface: sweep, simulate, analyze, security, presets.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error,
3 numerical certification failure.  Every option is a flag of its command,
declared once.  Each key of a flat ``key = value`` config file (--config)
or bundled preset (--preset) is one of those flags, named by its dest (the
flag with - written as _), and its value becomes the flag's default: a
flag given on the command line wins, and a key that is not a flag of the
command exits 1.  The bundled presets reproduce the reference figure
conditions.
"""

import argparse
import gc
import json
import sys
from functools import partial
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
    run_security,
    run_sweep,
)

__all__ = ["main"]


class _FileValue(str):
    """A value of a --config or --preset key, set as its flag's default;
    ``origin`` names the key and file."""

    def __new__(cls, value, origin):
        self = super().__new__(cls, value)
        self.origin = origin
        return self


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1).

    Flags must be spelled out in full.  A default that a config key or
    preset gives (a ``_FileValue``) is refused under that key and file
    instead of the flag.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def _get_value(self, action, arg_string):
        if not isinstance(arg_string, _FileValue):
            return super()._get_value(action, arg_string)
        try:
            value = super()._get_value(action, str(arg_string))
            self._check_value(action, value)  # argparse checks no default's choice
        except argparse.ArgumentError as exc:
            # without an action, the error prints as its message alone
            raise argparse.ArgumentError(None, f"{arg_string.origin}: {exc.message}") from None
        return value

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
    except ValueError as exc:  # argparse names the flag, not this function
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}") from exc


def _parse_int_at_least(least, text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value}")
    return value


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


def _set_file_defaults(argv, parser):
    """Make each key of the --preset or --config file in argv its flag's default.

    argparse converts a string default only when the command line does not
    give the flag, so a flag given there wins and its key is never parsed;
    a flag the file gives is no longer required.  Returns, for each key
    that is not a flag of the command, where it came from.
    """
    if not argv or argv[0] not in _CONFIG_COMMANDS:
        return []
    command = argv[0]
    pre = _Parser(add_help=False)
    _add_sources(pre, command)
    ns = pre.parse_known_args(argv[1:])[0]
    preset = getattr(ns, "preset", None)
    if preset:
        source, cfg = f"preset {preset}", _load_preset(preset)
    elif ns.config:
        source, cfg = ns.config, parse_config(ns.config)
    else:
        return []
    wanted = cfg.pop("command", None)
    if wanted and wanted != command:
        raise ValidationError(f"{source} is for the {wanted!r} command, not {command!r}")
    cfg.pop("description", None)
    # every flag's dest is its key; -h takes no value, so help is not a key
    actions = {action.dest: action for action in parser.commands[command]._actions
               if action.nargs != 0}
    unknown = []
    for key, value in cfg.items():
        if key in ("preset", "config"):
            raise ValidationError(f"{source}: key {key!r} cannot name another file")
        origin = f"key {key!r} in {source}"
        if key in actions:
            actions[key].default, actions[key].required = _FileValue(value, origin), False
        else:
            unknown.append(origin)
    return unknown


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(ns):
    columns, rows = run_sweep(ns.mode, ns.signal_mean, _parse_grid(ns.grid), ns.strategies, ns.xi,
                              ns.lo_mean, ns.loss_db, ns.security, ns.eve_lo_mean, ns.tail_tol)
    preamble = [("command", "sweep"), ("mode", ns.mode), ("signal_mean", ns.signal_mean),
                ("lo_mean", ns.lo_mean), ("loss_db", ns.loss_db or None), ("xi", ns.xi),
                ("strategies", ns.strategies), ("security", ns.security),
                ("eve_lo_mean", ns.eve_lo_mean), ("grid", ns.grid), ("tail_tol", ns.tail_tol)]
    return _write_table(ns, preamble, columns, rows, f"pnrchan sweep ({ns.mode})")


def _write_table(ns, preamble, columns, rows, title):
    write_text_atomic(ns.output, render_table(__version__, preamble, columns, rows))
    if ns.gnuplot_script:
        write_text_atomic(ns.gnuplot_script, render_gnuplot_script(ns.output, columns, title))
    return 0


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------

def _cmd_security(ns):
    columns, rows = run_security(ns.signal_mean, ns.lo_mean, _parse_grid(ns.grid), ns.xi,
                                 ns.eve_lo_mean, ns.tail_tol)
    preamble = [("command", "security"), ("signal_mean", ns.signal_mean),
                ("lo_mean", ns.lo_mean), ("xi_bob", ns.xi), ("xi_eve", "1"),
                ("eve_lo_mean", "bob" if ns.eve_lo_mean is None else ns.eve_lo_mean),
                ("grid", ns.grid), ("tail_tol", ns.tail_tol)]
    return _write_table(ns, preamble, columns, rows, "pnrchan security")


# ---------------------------------------------------------------------------
# simulate / analyze
# ---------------------------------------------------------------------------

def _print_run_summary(tally):
    emp = empirical_distributions(tally)
    report = plugin_mi(emp)
    for k, (mean_n, mean_m) in enumerate(emp.arm_means):
        print(f"symbol {k}: shots={emp.shots[k]} mean_n={mean_n:.6g} mean_m={mean_m:.6g}")
    for name in ("wf", "hl", "bds"):
        est = getattr(report, name)
        print(f"plugin_mi[{name}] = {est.value:.6f} bits "
              f"(miller_madow_bias = {est.miller_madow_bias:.2e})")


def _cmd_simulate(ns):
    params = ChannelParams.from_means(ns.signal_mean, ns.lo_mean, visibility=ns.xi)
    tally = write_shot_records(ns.output, run_experiment(params, ns.shots, ns.seed))
    print(f"wrote {2 * ns.shots} shots to {ns.output} (seed={ns.seed})")
    _print_run_summary(tally)
    return 0


# stands in the payload for text spliced into its JSON (see _json_pieces)
_SPLICED = "\0"
# one wf_cells row, n, m, freq_symbol0, freq_symbol1, as json.dumps writes it
# with indent=2 at the depth of payload["empirical"]["wf_cells"]
_CELL_JSON = "      [\n        %d,\n        %d,\n        %r,\n        %r\n      ]"
_CELL_ROWS = 4096  # wf_cells rows formatted at once


def _empirical_payload(emp):
    """JSON-friendly view of the empirical laws, on the observed outcomes
    only; the text of ``wf_cells`` comes from ``_cells_json``."""
    hl0, hl1 = emp.hl.tolist()
    bds0, bds1 = emp.bds.tolist()
    return {
        "wf_cells": _SPLICED,
        "wf_cell_format": ["n", "m", "freq_symbol0", "freq_symbol1"],
        "hl": {"deltas": emp.deltas.tolist(), "symbol0": hl0, "symbol1": hl1},
        "bds": {"symbol0": bds0, "symbol1": bds1},
    }


def _cells_json(emp):
    """The JSON of the wf_cells rows, [n, m, freq_symbol0, freq_symbol1] for
    each observed cell, made from the arrays ``_CELL_ROWS`` rows at a time
    (``_CELL_JSON``; a float's ``repr`` is its JSON), so no list of the rows
    is built.  A run has a cell, so the list is never empty."""
    wf = emp.wf
    separator = "[\n"
    for at in range(0, len(emp.cells), _CELL_ROWS):
        cells = emp.cells[at:at + _CELL_ROWS]
        values = [None] * (4 * len(cells))
        values[0::4], values[1::4] = cells.T.tolist()
        values[2::4], values[3::4] = wf[:, at:at + _CELL_ROWS].tolist()
        yield separator + ",\n".join([_CELL_JSON] * len(cells)) % tuple(values)
        separator = ",\n"
    yield "\n    ]"


def _cmd_analyze(ns):
    emp = empirical_distributions(read_shot_records(ns.input))
    report = plugin_mi(emp)
    payload = {
        "shots": {"symbol0": emp.shots[0], "symbol1": emp.shots[1]},
        "arm_means": {
            f"symbol{k}": {"n": mean_n, "m": mean_m}
            for k, (mean_n, mean_m) in enumerate(emp.arm_means.tolist())
        },
        "priors": list(report.priors),
        "plugin_mi": {name: getattr(report, name)._asdict() for name in ("wf", "hl", "bds")},
        "empirical": _empirical_payload(emp),
        "calibration": None,
    }
    if ns.known_lo_mean is not None or ns.known_signal_mean is not None:
        payload["calibration"] = calibrate_params(
            emp, known_lo_mean=ns.known_lo_mean, known_signal_mean=ns.known_signal_mean)._asdict()
    pieces = _json_pieces(payload, _cells_json(emp))
    if ns.output:
        write_text_atomic(ns.output, pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def _json_pieces(payload, spliced):
    """The text of ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``,
    with the pieces of ``spliced`` in place of the JSON of ``_SPLICED``.
    Only the spliced text grows with the cells, so the rest is encoded whole."""
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).partition(json.dumps(_SPLICED))
    yield head
    yield from spliced
    yield tail + "\n"


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
    simulate.add_argument("--shots", type=partial(_parse_int_at_least, 1), required=True,
                          help="shots per symbol")
    simulate.add_argument("--seed", type=partial(_parse_int_at_least, 0), default=0,
                          help="RNG seed (default 0)")
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

    argparse stops at a missing required argument or a refused value before
    it reports unknown ones, so this parses again with a parser whose flags
    are all optional, take any value and hold no file's defaults.
    """
    parser = build_parser()
    for command in parser.commands.values():
        for action in command._actions:
            action.required, action.type, action.choices = False, None, None
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
    """Run one command; return its exit code.

    With ``argv`` None this is the program's entry point, reading
    ``sys.argv``, and it first moves every object alive so far (the
    import-time heap, most of it numpy's) to the collector's permanent
    generation: the full collections during the command and at interpreter
    exit then skip them, while everything the command allocates is
    collected as usual.  ``main(argv)`` with a list, as a test or library
    caller uses it, leaves the collector alone.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    ns = None
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        unknown = _set_file_defaults(argv, parser)  # the file's keys that are not flags
        try:
            ns, extra = parser.parse_known_args(argv)
            problem = ""
        except ValidationError as exc:
            extra, problem = _unknown_args(argv), f"; {exc}"
            if not unknown + extra:
                raise
        unknown += extra
        if unknown:
            parser.error("unrecognized arguments: " + " ".join(unknown) + problem)
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
