import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnrchan
from pnrchan import (ChannelParams, SecurityReport, ValidationError, calibrate_from_means,
                     calibrate_params, coherent_overlap, empirical_distributions, mi_report,
                     mutual_information, plugin_mi, run_experiment, security_report_for,
                     shannon_entropy, skellam_pmf_grid)
from pnrchan import channel, information, montecarlo, receivers, recordio, security, sweeps
from pnrchan.errors import PnrchanError
from pnrchan.sweeps import run_security, run_sweep

PUBLIC_NAMES = [
    "CalibrationError", "CalibrationResult", "ChannelParams", "MiReport", "NumericsError",
    "PnrchanError", "SecurityReport", "ValidationError",
    "binary_entropy", "calibrate_from_means", "calibrate_params", "channel",
    "coherent_overlap", "detection_rates", "empirical_distributions", "errors",
    "eve_params", "homodyne_mean", "information", "loss_db_to_transmissivity",
    "mi_bds", "mi_hl", "mi_homodyne", "mi_report", "mi_wf", "montecarlo",
    "mutual_information", "plugin_mi", "receivers", "run_experiment", "security",
    "security_report_for", "shannon_entropy", "skellam_pmf_grid",
    "transmissivity_to_loss_db",
]


def run_fresh(code):
    """The stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    src = str(Path(pnrchan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_are_pinned():
    # a fresh interpreter: other tests import submodules such as pnrchan.cli,
    # which would add their names to the package namespace
    out = run_fresh("import pnrchan; "
                    "print(' '.join(sorted(n for n in dir(pnrchan) if not n.startswith('_'))))")
    assert out.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_cli_import_leaves_dataclasses_out():
    # the records are tuples: no generated methods are
    # compiled when a CLI process starts
    assert run_fresh("import sys, pnrchan.cli; print('dataclasses' in sys.modules)") == "False\n"


# each public record and one of its fields
RECORD_FIELDS = {
    "ChannelParams": "alpha", "MiReport": "i_wf", "SecurityReport": "k_dr",
    "EmpiricalDistributions": "cells", "PluginMiReport": "wf", "PluginEstimate": "value",
    "CalibrationResult": "xi",
}


def public_records():
    params = ChannelParams(alpha=2.0, transmissivity=0.5, lo_amplitude=3.0, visibility=0.9)
    run = run_experiment(params, 200, seed=1)
    emp = empirical_distributions(run)
    report = plugin_mi(emp)
    return {
        "ChannelParams": params, "MiReport": mi_report(params),
        "SecurityReport": security_report_for(params), "EmpiricalDistributions": emp,
        "PluginMiReport": report, "PluginEstimate": report.wf,
        "CalibrationResult": calibrate_params(emp, known_lo_mean=9.0),
    }


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_each_public_record_is_immutable(name):
    record, field = public_records()[name], RECORD_FIELDS[name]
    assert type(record).__name__ == name
    value = getattr(record, field)
    for change in (lambda: setattr(record, field, None), lambda: delattr(record, field),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(record, field) is value and not hasattr(record, "extra")


def test_security_report_fields_are_the_security_table_columns():
    columns, _ = run_security(3.2, 12.15, (0.0, 3.0))
    assert columns == ["loss_db", "transmissivity", "signal_mean",
                       *SecurityReport._fields[:-1], "trunc_err"]
    assert SecurityReport._fields[-1] == "error_bound"


CHANNEL = {"alpha": 1.5, "transmissivity": 0.5, "lo_amplitude": 2.0}
SWEEP = {"mode": "lo", "signal_mean": 2.0, "grid": (1.0, 2.0, 4.0)}


@pytest.mark.parametrize("record, fields, change", [
    (ChannelParams, CHANNEL, {"alpha": -1.0}),
    (ChannelParams, CHANNEL, {"alpha": math.nan}),
    (ChannelParams, CHANNEL, {"transmissivity": 0.0}),
    (ChannelParams, CHANNEL, {"lo_amplitude": math.inf}),
    (ChannelParams, CHANNEL, {"visibility": 1.5}),
    (ChannelParams, CHANNEL, {"priors": (1.0,)}),
    (ChannelParams, CHANNEL, {"priors": (0.6, 0.6)}),
])
def test_replace_validates_as_the_constructor_does(record, fields, change):
    with pytest.raises(ValidationError) as built:
        record(**{**fields, **change})
    with pytest.raises(ValidationError) as replaced:
        record(**fields)._replace(**change)
    assert str(replaced.value) == str(built.value)


PAPER_POINT = ChannelParams.from_means(3.07, 12.17, visibility=0.94)


LOSSY_POINT = ChannelParams.from_means(3.07, 12.17, visibility=0.94, loss_db=3.0)
# Bob's and Eve's posteriors at LOSSY_POINT, as security_report_for builds them
LOSSY_POSTERIORS = tuple(information._receiver_figures(p, 1e-10)[0]
                         for p in (LOSSY_POINT, channel.eve_params(LOSSY_POINT)))


def block(symbols, n, m):
    return (np.array(symbols, dtype=np.uint8), np.array(n, dtype=np.int32),
            np.array(m, dtype=np.int32))


# each library call that is refused where its input is used, and the
# argument its message names
PROBES = {
    "coherent_overlap": (lambda: coherent_overlap(math.nan), "amplitude_sq"),
    "shannon_entropy": (lambda: shannon_entropy([math.nan, 1.0]), "distribution"),
    "mutual_information": (lambda: mutual_information([[0.5, 0.5], [0.2, 0.8]],
                                                      priors=(math.nan, 0.5)), "priors"),
    "calibrate_from_means": (lambda: calibrate_from_means((math.nan, 1), (1, 2),
                                                          known_lo_mean=12), "arm means"),
    "calibrate_from_means(inf)": (lambda: calibrate_from_means((math.inf, 1), (1, 2),
                                                               known_lo_mean=12), "arm means"),
    "run_experiment": (lambda: run_experiment(PAPER_POINT, 2.5, 1), "shots_per_symbol"),
    "empirical_distributions": (lambda: empirical_distributions([1, 2, 3]), "shots"),
    # a tuple, but not of blocks; a NamedTuple, though a tuple, is a record
    "empirical_distributions(tuple)": (lambda: empirical_distributions((1, 2)), "shots"),
    "empirical_distributions(emp)": (lambda: empirical_distributions(
        empirical_distributions(run_experiment(PAPER_POINT, 5, 1))), "shots"),
    "mi_report": (lambda: mi_report(PAPER_POINT, tail_tol=math.nan), "tail_tol"),
    "skellam_pmf_grid": (lambda: skellam_pmf_grid(3.0, 2.0, math.inf), "tail_tol"),
    "run_sweep": (lambda: run_sweep(**SWEEP, tail_tol=math.nan), "tail_tol"),
    # a sweep's own values, checked before its first point
    "run_sweep(mode)": (lambda: run_sweep(**{**SWEEP, "mode": "energy"}),
                        "mode must be 'lo' or 'loss', got 'energy'"),
    "run_sweep(signal_mean)": (lambda: run_sweep(**{**SWEEP, "signal_mean": -2.0}),
                               "signal_mean must be finite and >= 0, got -2.0"),
    "run_sweep(no strategies)": (lambda: run_sweep(**SWEEP, strategies=()),
                                 "strategies must not be empty"),
    "run_sweep(strategies)": (lambda: run_sweep(**SWEEP, strategies=("wf", "pnr")),
                              "unknown strategy 'pnr'"),
    "run_sweep(security)": (lambda: run_sweep(**SWEEP, security=("ia-xx",)),
                            "unknown security scenario 'ia-xx'"),
    "run_sweep(visibilities)": (lambda: run_sweep(**SWEEP, visibilities=()),
                                "need at least one visibility"),
    # a repeat would write its columns twice
    "run_sweep(strategy twice)": (lambda: run_sweep(**SWEEP, strategies=("wf", "hl", "wf")),
                                  "strategy 'wf' is given twice"),
    "run_sweep(visibility twice)": (lambda: run_sweep(**SWEEP, visibilities=(0.9, 0.8, 0.9)),
                                    "visibility 0.9 is given twice"),
    "run_sweep(security twice)": (lambda: run_sweep(**SWEEP, security=("ia-dr", "ia-dr")),
                                  "security scenario 'ia-dr' is given twice"),
    "run_sweep(lo_mean)": (lambda: run_sweep(**{**SWEEP, "mode": "loss"}),
                           "loss mode needs a fixed lo_mean"),
    "run_sweep(grid)": (lambda: run_sweep(**{**SWEEP, "grid": (1.0, 3.0, 2.0)}),
                        "grid must be strictly monotone"),
    "run_sweep(grid repeats rising)": (lambda: run_sweep(**{**SWEEP, "grid": (1.0, 2.0, 2.0)}),
                                       "grid must be strictly monotone"),
    "run_sweep(grid repeats falling)": (lambda: run_sweep(**{**SWEEP, "grid": (2.0, 1.0, 1.0)}),
                                        "grid must be strictly monotone"),
    "run_sweep(grid falls, then rises)": (
        lambda: run_sweep(**{**SWEEP, "grid": (3.0, 2.0, 2.5)}), "grid must be strictly monotone"),
    "run_security(grid)": (lambda: run_security(3.2, 12.15, (0.0, 3.0, 1.0)),
                           "grid must be strictly monotone"),
    "run_security(signal_mean)": (lambda: run_security(math.nan, 12.15, (0.0,)),
                                  "signal_mean must be finite and >= 0, got nan"),
    "run_security(eve_lo_mean)": (lambda: run_security(3.2, 12.15, (0.0,), eve_lo_mean=-1.0),
                                  "eve_lo_mean must be finite and >= 0, got -1.0"),
    **{f"calibrate_from_means(shots_per_symbol={shots!r})": (
        lambda shots=shots: calibrate_from_means((1, 2), (2, 1), known_lo_mean=1,
                                                 shots_per_symbol=shots),
        "shots_per_symbol") for shots in (math.nan, -5, math.inf, 0, 2.5)},
    "plugin_mi": (lambda: plugin_mi([1, 2]), "emp"),
    "calibrate_params": (lambda: calibrate_params([1]), "emp"),
    "ShotTally.add(empty)": (lambda: montecarlo.ShotTally().add(*block([], [], [])), "block"),
    "ShotTally.add(symbol 2)": (lambda: montecarlo.ShotTally().add(*block([2], [1], [1])),
                                "symbols"),
    # the rates are checked by the window that uses them
    "skellam_window(nan)": (lambda: receivers.skellam_window(math.nan, 2.0), "rates"),
    "skellam_window(inf)": (lambda: receivers.skellam_window(2.0, math.inf), "rates"),
    "skellam_window(-1)": (lambda: receivers.skellam_window(-1.0, 2.0), "rates"),
    "poisson_window(nan)": (lambda: receivers.poisson_window(math.nan), "rates"),
    "poisson_pmf(inf)": (lambda: receivers.poisson_pmf(math.inf, 2.0), "counts"),
    "mi_bob_eve(priors)": (lambda: security.mi_bob_eve((math.nan, 0.5), *LOSSY_POSTERIORS),
                           "priors"),
}


@pytest.mark.parametrize("probe", PROBES)
def test_each_probe_is_refused_by_the_argument_it_names(probe):
    call, argument = PROBES[probe]
    with pytest.raises(ValidationError, match=argument):
        call()


@pytest.mark.parametrize("record", [ChannelParams])
def test_validated_records_show_their_fields_as_parameters(record):
    parameters = inspect.signature(record).parameters
    assert list(parameters) == list(record._fields)
    assert {name: p.default for name, p in parameters.items()
            if p.default is not p.empty} == record._field_defaults


def test_records_keep_their_repr():
    assert repr(ChannelParams(alpha=1.0)) == (
        "ChannelParams(alpha=1.0, transmissivity=1.0, lo_amplitude=0.0, visibility=1.0, "
        "priors=(0.5, 0.5))")


def test_the_modules_export_fifty_names():
    # an export added to any module fails here until it is counted
    modules = [importlib.import_module(f"pnrchan.{m.name}")
               for m in pkgutil.iter_modules(pnrchan.__path__)]
    assert len(modules) == 9
    assert sum(len(getattr(m, "__all__", ())) for m in modules) == 50
    assert sweeps.__all__ == ["STRATEGIES", "SECURITY_SCENARIOS", "run_sweep", "run_security"]
    assert "run_from_columns" in montecarlo.__all__ and "ExperimentRun" not in montecarlo.__all__


SHOTS = montecarlo._CHUNK + 5  # a block and a short one per symbol, or in columns three


@pytest.mark.parametrize("make, blocks", [
    (lambda: run_experiment(PAPER_POINT, SHOTS, seed=3), 4),
    # int64 columns, narrowed as each block is made
    (lambda: montecarlo.run_from_columns(np.arange(2 * SHOTS) % 2, np.arange(2 * SHOTS) % 9,
                                         np.arange(2 * SHOTS) % 5), 3),
])
def test_a_run_is_a_tuple_of_block_makers(make, blocks):
    run = make()
    assert type(run) is tuple and len(run) == blocks and all(callable(block) for block in run)
    made = [block() for block in run]
    assert sum(len(symbols) for symbols, _, _ in made) == 2 * SHOTS
    for symbols, n, m in made:
        assert len(symbols) == len(n) == len(m)
        assert (symbols.dtype, n.dtype, m.dtype) == (np.uint8, np.int32, np.int32)


class TestOneWayIntoATally:
    """A shot tally is fed only by ``ShotTally.add``, which takes a block's
    columns: the packed (n, m, symbol) key is built, merged and unpacked in
    ``montecarlo`` alone, and the file formats never see it."""

    def test_recordio_holds_no_block_tally(self):
        assert not hasattr(recordio, "block_tally")
        assert not hasattr(recordio, "_block_tally")

    def test_block_tally_is_not_exported(self):
        assert "block_tally" not in montecarlo.__all__
        assert not hasattr(montecarlo, "block_tally")


# One valid call of each exported callable that takes a number: the callable
# and its positional arguments, every default that is a number given.
NUMERIC_CALLS = {
    "ChannelParams": lambda: (ChannelParams, (1.5, 0.5, 2.0, 0.9, (0.5, 0.5))),
    "detection_rates": lambda: (channel.detection_rates, (PAPER_POINT, 1)),
    "eve_params": lambda: (channel.eve_params, (LOSSY_POINT, 2.0)),
    "coherent_overlap": lambda: (coherent_overlap, (1.0,)),
    "loss_db_to_transmissivity": lambda: (channel.loss_db_to_transmissivity, (3.0,)),
    "transmissivity_to_loss_db": lambda: (channel.transmissivity_to_loss_db, (0.5,)),
    "shannon_entropy": lambda: (shannon_entropy, ([0.25, 0.75],)),
    "binary_entropy": lambda: (information.binary_entropy, (0.25,)),
    "mutual_information": lambda: (mutual_information, ([[0.5, 0.5], [0.2, 0.8]], (0.5, 0.5))),
    "mi_wf": lambda: (information.mi_wf, (PAPER_POINT, 1e-10)),
    "mi_hl": lambda: (information.mi_hl, (PAPER_POINT, 1e-10)),
    "mi_bds": lambda: (information.mi_bds, (PAPER_POINT, 1e-10)),
    "mi_report": lambda: (mi_report, (PAPER_POINT, 1e-10)),
    "certified_error_bound": lambda: (information.certified_error_bound, (PAPER_POINT, 1e-10)),
    "run_experiment": lambda: (run_experiment, (PAPER_POINT, 20, 1)),
    "run_from_columns": lambda: (montecarlo.run_from_columns,
                                 (np.array([0, 1]), np.array([3, 1]), np.array([1, 2]))),
    "calibrate_params": lambda: (calibrate_params, (
        empirical_distributions(run_experiment(PAPER_POINT, 50, 1)), 12.17, None)),
    "calibrate_from_means": lambda: (calibrate_from_means, ((1.0, 2.0), (2.0, 1.0), 1.0, None,
                                                           100)),
    "poisson_logpmf": lambda: (receivers.poisson_logpmf, (2, 3.0)),
    "poisson_pmf": lambda: (receivers.poisson_pmf, (2, 3.0)),
    "poisson_window": lambda: (receivers.poisson_window, (3.0, 1e-10)),
    "skellam_window": lambda: (receivers.skellam_window, (3.0, 2.0, 1e-10)),
    "skellam_pmf_grid": lambda: (skellam_pmf_grid, (3.0, 2.0, 1e-10)),
    "homodyne_mean": lambda: (receivers.homodyne_mean, (PAPER_POINT, 1)),
    "mi_bob_eve": lambda: (security.mi_bob_eve, ((0.5, 0.5), *LOSSY_POSTERIORS)),
    "security_report_for": lambda: (security_report_for, (LOSSY_POINT, 2.0, 1e-10)),
    "run_sweep": lambda: (run_sweep, ("lo", 2.0, (1.0, 2.0), ("wf",), (0.9,), None, 1.0, (),
                                      4.0, 1e-10)),
    "run_security": lambda: (run_security, (3.2, 12.15, (0.0, 3.0), 0.94, 4.0, 1e-10)),
    "render_table": lambda: (recordio.render_table, ("v", [("x", 0.5)], ["a"], [[1.5]])),
}
# exported callables that take no number, each with what it takes instead
NO_NUMBER = {
    "PnrchanError": "a message", "ValidationError": "a message",
    "CalibrationError": "a message", "NumericsError": "a message",
    "MiReport": "figures a function computed", "SecurityReport": "figures a function computed",
    "EmpiricalDistributions": "a tally's laws", "PluginEstimate": "figures a function computed",
    "PluginMiReport": "figures a function computed",
    "CalibrationResult": "figures a function computed",
    "ShotTally": "nothing", "mi_homodyne": "a ChannelParams",
    "holevo_chi_wf": "Bob's posteriors and Eve's ChannelParams",
    "holevo_chi_bds": "Bob's posteriors and Eve's ChannelParams",
    "empirical_distributions": "a tally or a run", "plugin_mi": "empirical laws",
    "main": "command-line words", "write_text_atomic": "a path and text",
    "write_shot_records": "a path and a run", "read_shot_records": "a path",
    "parse_config": "a path",
}
# (callable, argument index) of arguments that are laws the package built,
# not numbers a caller picks: the posteriors of information._receiver_figures,
# certified where they are built
LAWS = {("mi_bob_eve", 1), ("mi_bob_eve", 2)}
BAD_NUMBERS = (math.nan, math.inf, -math.inf, -1)
# (callable, argument index, substituted value): why it is accepted
ACCEPTED = {
    ("coherent_overlap", 0, math.inf): "the overlap of ever brighter states falls to 0",
    ("render_table", 3, -1): "a table prints any finite cell",
}


def exported_callables():
    modules = [importlib.import_module(f"pnrchan.{m.name}")
               for m in pkgutil.iter_modules(pnrchan.__path__)]
    names = {n for n in PUBLIC_NAMES if callable(getattr(pnrchan, n))}
    names.update(n for m in modules for n in getattr(m, "__all__", ())
                 if callable(getattr(m, n)) and not isinstance(getattr(m, n), dict))
    return names


def with_first_number(value, bad):
    """``value`` with its first number, or a sequence's first, made ``bad``;
    None if it holds no number.  A record is not a sequence of numbers."""
    if isinstance(value, bool) or value is None or hasattr(value, "_fields"):
        return None
    if isinstance(value, (int, float)):
        return bad
    if isinstance(value, np.ndarray):
        changed = value.astype(np.result_type(value, bad))
        changed.flat[0] = bad
        return changed
    if isinstance(value, (tuple, list)) and value:
        first = with_first_number(value[0], bad)
        return None if first is None else type(value)([first, *value[1:]])
    return None


def finite(value):
    """Whether every number in a returned value is finite."""
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    if isinstance(value, (float, int, np.ndarray, np.number)):
        return bool(np.all(np.isfinite(value)))
    return True


def test_every_exported_callable_is_in_the_numeric_contract():
    assert exported_callables() == set(NUMERIC_CALLS) | set(NO_NUMBER)
    assert not set(NUMERIC_CALLS) & set(NO_NUMBER)


@pytest.mark.parametrize("name", NUMERIC_CALLS)
def test_a_number_out_of_range_is_refused_or_listed(name):
    """NaN, +-inf and -1 in each numeric argument in turn: a PnrchanError, or
    finite values for an input listed in ACCEPTED."""
    function, args = NUMERIC_CALLS[name]()
    assert finite(function(*args))
    substituted = 0
    for at, value in enumerate(args):
        for bad in BAD_NUMBERS:
            changed = with_first_number(value, bad)
            if changed is None or (name, at) in LAWS:
                continue
            substituted += 1
            call = args[:at] + (changed,) + args[at + 1:]
            if (name, at, bad) in ACCEPTED:
                assert finite(function(*call)), (at, bad)
            else:
                with pytest.raises(PnrchanError):
                    function(*call)
    assert substituted
