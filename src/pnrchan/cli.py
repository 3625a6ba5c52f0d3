"""Command-line surface: sweep, simulate, analyze, security, presets.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error,
3 numerical certification failure.  All parameters can come from flags or
from a flat ``key = value`` config file (flags win); the bundled presets
reproduce the reference figure conditions.
"""

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from .channel import ChannelParams, transmissivity_to_loss_db
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
    SecuritySpec,
    SweepSpec,
    resolve_workers,
    run_security,
    run_sweep,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

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
        return tuple(float(v) for v in str(text).split(",") if v.strip())
    except ValueError as exc:
        raise ValidationError(f"bad number list {text!r}: {exc}") from exc


def _parse_name_list(text):
    return tuple(v.strip().lower() for v in str(text).split(",") if v.strip())


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


def _gather_config(ns):
    if getattr(ns, "preset", None) and getattr(ns, "config", None):
        raise ValidationError("--preset and --config are mutually exclusive")
    if getattr(ns, "preset", None):
        return _load_preset(ns.preset)
    if getattr(ns, "config", None):
        return parse_config(ns.config)
    return {}


def _opt(ns, cfg, key, cast=float, default=None):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cast(cfg[key])
    return default


def _expect_command(cfg, command):
    wanted = cfg.get("command")
    if wanted and wanted != command:
        raise ValidationError(
            f"this configuration is for the {wanted!r} command, not {command!r}"
        )


def _resolve_signal_mean(ns, cfg, context):
    """Accept either a mean photon number or an amplitude specification."""
    signal_mean = _opt(ns, cfg, "signal_mean")
    alpha = _opt(ns, cfg, "alpha")
    if signal_mean is not None and alpha is not None:
        raise ValidationError("give either --signal-mean or --alpha, not both")
    if signal_mean is None and alpha is None:
        raise ValidationError(f"{context} needs --signal-mean or --alpha")
    if alpha is not None:
        return float(alpha) ** 2
    return float(signal_mean)


def _resolve_loss_db(ns, cfg, default=0.0):
    """Accept attenuation either as dB or as a transmissivity."""
    loss_db = _opt(ns, cfg, "loss_db")
    transmissivity = _opt(ns, cfg, "transmissivity")
    if loss_db is not None and transmissivity is not None:
        raise ValidationError("give either --loss-db or --transmissivity, not both")
    if transmissivity is not None:
        return transmissivity_to_loss_db(transmissivity)
    return default if loss_db is None else float(loss_db)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(ns):
    cfg = _gather_config(ns)
    _expect_command(cfg, "sweep")
    mode = _opt(ns, cfg, "mode", cast=str)
    if mode is None:
        raise ValidationError("sweep needs --mode lo|loss")
    signal_mean = _resolve_signal_mean(ns, cfg, "sweep")
    lo_mean = _opt(ns, cfg, "lo_mean")
    grid_text = _opt(ns, cfg, "grid", cast=str)
    if grid_text is None:
        raise ValidationError("sweep needs --grid")
    visibilities = _opt(ns, cfg, "xi", cast=_parse_float_list, default=(1.0,))
    strategies = _opt(ns, cfg, "strategies", cast=_parse_name_list,
                      default=("wf", "hl", "bds"))
    security = _opt(ns, cfg, "security", cast=_parse_name_list, default=())
    spec = SweepSpec(
        mode=mode,
        signal_mean=signal_mean,
        grid=_parse_grid(grid_text),
        strategies=strategies,
        visibilities=visibilities,
        lo_mean=lo_mean,
        fixed_loss_db=_resolve_loss_db(ns, cfg),
        security=security,
        eve_lo_mean=_opt(ns, cfg, "eve_lo_mean"),
        tail_tol=_opt(ns, cfg, "tail_tol", default=DEFAULT_TAIL_TOL),
    )
    columns, rows = run_sweep(spec, workers=resolve_workers(ns.workers))
    preamble = [("command", "sweep"), ("mode", spec.mode),
                ("signal_mean", f"{spec.signal_mean:.12g}")]
    if spec.lo_mean is not None:
        preamble.append(("lo_mean", f"{spec.lo_mean:.12g}"))
    if spec.mode == "lo" and spec.fixed_loss_db:
        preamble.append(("loss_db", f"{spec.fixed_loss_db:.12g}"))
    preamble.append(("xi", ",".join(f"{v:g}" for v in spec.visibilities)))
    preamble.append(("strategies", ",".join(spec.strategies)))
    if spec.security:
        preamble.append(("security", ",".join(spec.security)))
    if spec.eve_lo_mean is not None:
        preamble.append(("eve_lo_mean", f"{spec.eve_lo_mean:.12g}"))
    preamble.append(("grid", grid_text))
    preamble.append(("tail_tol", f"{spec.tail_tol:g}"))
    write_text_atomic(ns.output, render_table(__version__, preamble, columns, rows))
    _maybe_write_gnuplot(ns, columns, f"pnrchan sweep ({spec.mode})")
    return 0


def _maybe_write_gnuplot(ns, columns, title):
    path = getattr(ns, "gnuplot_script", None)
    if path:
        write_text_atomic(path, render_gnuplot_script(ns.output, columns, title))


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------

def _cmd_security(ns):
    cfg = _gather_config(ns)
    _expect_command(cfg, "security")
    grid_text = _opt(ns, cfg, "grid", cast=str)
    if grid_text is None:
        raise ValidationError("security needs --grid (loss values in dB)")
    lo_mean = _opt(ns, cfg, "lo_mean")
    if lo_mean is None:
        raise ValidationError("security needs --lo-mean")
    spec = SecuritySpec(
        signal_mean=_resolve_signal_mean(ns, cfg, "security"),
        lo_mean=lo_mean,
        visibility=_opt(ns, cfg, "xi", default=1.0),
        grid=_parse_grid(grid_text),
        eve_lo_mean=_opt(ns, cfg, "eve_lo_mean"),
        tail_tol=_opt(ns, cfg, "tail_tol", default=DEFAULT_TAIL_TOL),
    )
    columns, rows = run_security(spec, workers=resolve_workers(ns.workers))
    preamble = [
        ("command", "security"),
        ("signal_mean", f"{spec.signal_mean:.12g}"),
        ("lo_mean", f"{spec.lo_mean:.12g}"),
        ("xi_bob", f"{spec.visibility:.12g}"),
        ("xi_eve", "1"),
        ("eve_lo_mean", "bob" if spec.eve_lo_mean is None else f"{spec.eve_lo_mean:.12g}"),
        ("grid", grid_text),
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
    cfg = _gather_config(ns)
    _expect_command(cfg, "simulate")
    signal_mean = _resolve_signal_mean(ns, cfg, "simulate")
    lo_mean = _opt(ns, cfg, "lo_mean")
    if lo_mean is None:
        raise ValidationError("simulate needs --lo-mean")
    shots = _opt(ns, cfg, "shots", cast=int)
    if shots is None:
        raise ValidationError("simulate needs --shots")
    params = ChannelParams.from_means(
        signal_mean,
        lo_mean,
        visibility=_opt(ns, cfg, "xi", default=1.0),
        loss_db=_resolve_loss_db(ns, cfg),
    )
    seed = _opt(ns, cfg, "seed", cast=int, default=0)
    run = run_experiment(params, shots, seed)
    write_shot_records(ns.output, run)
    print(f"wrote {2 * shots} shots to {ns.output} (seed={seed})")
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

def _add_common(sub):
    sub.add_argument("--preset", help="bundled preset name (see 'pnrchan presets')")
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--tail-tol", dest="tail_tol", type=float,
                     help=f"truncation tail tolerance (default {DEFAULT_TAIL_TOL:g})")


def _add_channel_args(sub):
    sub.add_argument("--signal-mean", dest="signal_mean", type=float,
                     help="signal mean photon number")
    sub.add_argument("--alpha", type=float, help="source amplitude (alternative)")
    sub.add_argument("--lo-mean", dest="lo_mean", type=float,
                     help="LO mean photon number")
    sub.add_argument("--loss-db", dest="loss_db", type=float,
                     help="channel attenuation in dB")
    sub.add_argument("--transmissivity", type=float,
                     help="channel transmissivity (alternative to --loss-db)")


def build_parser():
    parser = _Parser(prog="pnrchan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pnrchan {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="MI sweep over LO energy or signal loss")
    _add_common(sweep)
    _add_channel_args(sweep)
    sweep.add_argument("--mode", choices=("lo", "loss"))
    sweep.add_argument("--xi", type=_parse_float_list,
                       help="visibility, or comma list for a band")
    sweep.add_argument("--grid", help="start:stop:count or comma list")
    sweep.add_argument("--strategies", type=_parse_name_list,
                       help=f"comma subset of {','.join(STRATEGIES)}")
    sweep.add_argument("--security", type=_parse_name_list,
                       help=f"comma subset of {','.join(SECURITY_SCENARIOS)}")
    sweep.add_argument("--eve-lo-mean", dest="eve_lo_mean", type=float)
    sweep.add_argument("--workers", type=int)
    sweep.add_argument("--gnuplot-script", dest="gnuplot_script",
                       help="also write a gnuplot script for the table")
    sweep.add_argument("-o", "--output", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    security = subs.add_parser("security", help="wiretap security figures vs loss")
    _add_common(security)
    _add_channel_args(security)
    security.add_argument("--xi", type=float, help="honest receiver visibility")
    security.add_argument("--grid", help="loss grid in dB (start:stop:count or list)")
    security.add_argument("--eve-lo-mean", dest="eve_lo_mean", type=float)
    security.add_argument("--workers", type=int)
    security.add_argument("--gnuplot-script", dest="gnuplot_script",
                          help="also write a gnuplot script for the table")
    security.add_argument("-o", "--output", required=True)
    security.set_defaults(func=_cmd_security)

    simulate = subs.add_parser("simulate", help="generate a Monte Carlo shot file")
    _add_common(simulate)
    _add_channel_args(simulate)
    simulate.add_argument("--xi", type=float, help="interference visibility")
    simulate.add_argument("--shots", type=int, help="shots per symbol")
    simulate.add_argument("--seed", type=int, help="RNG seed (default 0)")
    simulate.add_argument("-o", "--output", required=True)
    simulate.set_defaults(func=_cmd_simulate)

    analyze = subs.add_parser("analyze", help="estimate MI and parameters from shots")
    analyze.add_argument("input", help="shot-record CSV file")
    analyze.add_argument("--known-lo-mean", dest="known_lo_mean", type=float)
    analyze.add_argument("--known-signal-mean", dest="known_signal_mean", type=float)
    analyze.add_argument("-o", "--output", help="write the JSON report here")
    analyze.set_defaults(func=_cmd_analyze)

    presets = subs.add_parser("presets", help="list bundled figure presets")
    presets.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except PnrchanError as exc:
        print(f"pnrchan: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"pnrchan: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("pnrchan: error: out of memory; use a smaller grid, fewer shots "
              "or a looser --tail-tol", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
