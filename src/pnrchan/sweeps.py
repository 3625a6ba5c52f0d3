"""Parameter-sweep drivers behind the CLI.

A sweep walks a strictly monotone grid (LO energy or signal loss), computes
the requested information figures per point, and returns rows in grid order.
The security table is a column layout of a loss sweep.
"""

import math

from .channel import ChannelParams, loss_db_to_transmissivity
from .errors import ValidationError
from .information import _receiver_figures, mi_homodyne
from .receivers import DEFAULT_TAIL_TOL
from .recordio import _echo
from .security import SecurityReport, security_report_for

__all__ = [
    "STRATEGIES",
    "SECURITY_SCENARIOS",
    "run_sweep",
    "run_security",
]

STRATEGIES = ("wf", "hl", "bds", "hom")
# the SecurityReport fields a sweep appends for each --security scenario, in
# column order; run_security lays every field out in declaration order
SECURITY_SCENARIOS = {
    "ia-dr": ("i_ae_wf", "delta_ia_dr", "k_dr"),
    "ia-rr": ("i_be_wf", "delta_ia_rr", "k_rr"),
    "ca-rr": ("chi_be_wf", "chi_be_bds", "delta_ca_wf", "delta_ca_bds",
              "k_ca_wf", "k_ca_bds"),
}
# the security table: the loss sweep of wf and bds with every scenario, Bob's
# two figures named as SecurityReport names them
_SECURITY_NAMES = {"i_wf": "i_ab_wf", "i_bds": "i_ab_bds"}
_SECURITY_COLUMNS = ("loss_db", "transmissivity", "signal_mean",
                     *(name for name in SecurityReport._fields if name != "error_bound"),
                     "trunc_err")


def _check_mean(name, value):
    if value is not None and not (value >= 0.0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _sweep(mode, signal_mean, grid, strategies, visibilities, lo_mean, fixed_loss_db,
           security, eve_lo_mean, tail_tol):
    """Check a sweep's values, then evaluate it: (columns, rows) in grid order."""
    if mode not in ("lo", "loss"):
        raise ValidationError(f"mode must be 'lo' or 'loss', got {mode!r}")
    _check_mean("signal_mean", signal_mean)
    _check_mean("lo_mean", lo_mean)
    _check_mean("eve_lo_mean", eve_lo_mean)
    if not strategies:
        raise ValidationError("strategies must not be empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValidationError(f"unknown strategy {s!r}")
    for s in security:
        if s not in SECURITY_SCENARIOS:
            raise ValidationError(f"unknown security scenario {s!r}")
    if not visibilities:
        raise ValidationError("need at least one visibility")
    for kind, values in (("strategy", strategies), ("visibility", visibilities),
                         ("security scenario", security)):
        for at, value in enumerate(values):
            if value in values[:at]:  # a repeat would write its columns twice
                raise ValidationError(f"{kind} {value!r} is given twice")
    if security and len(visibilities) != 1:
        raise ValidationError("security columns need a single visibility")
    if mode == "loss" and lo_mean is None:
        raise ValidationError("loss mode needs a fixed lo_mean")
    if mode == "loss" and fixed_loss_db:
        raise ValidationError("loss mode sweeps the loss; fixed_loss_db is for lo mode")
    if len(grid) == 0:
        raise ValidationError("grid must not be empty")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValidationError("grid must be strictly monotone")

    scenario_columns = [c for name, cols in SECURITY_SCENARIOS.items() if name in security
                        for c in cols]
    columns = ["lo_mean"] if mode == "lo" else ["loss_db", "transmissivity", "signal_mean"]
    for xi in visibilities:
        tag = f"[xi={_echo(xi)}]" if len(visibilities) > 1 else ""
        columns.extend(f"i_{s}{tag}" for s in strategies)
    columns += scenario_columns + ["trunc_err"]
    eve_lo = None if eve_lo_mean is None else eve_lo_mean ** 0.5

    def bob_params(value, xi):
        if mode == "lo":
            return ChannelParams.from_means(signal_mean, value, visibility=xi,
                                            loss_db=fixed_loss_db)
        return ChannelParams(
            alpha=signal_mean ** 0.5,
            transmissivity=loss_db_to_transmissivity(value),
            lo_amplitude=lo_mean ** 0.5,
            visibility=xi,
        )

    def row(value):
        if mode == "lo":
            cells = [value]
        else:
            t = loss_db_to_transmissivity(value)
            cells = [value, t, signal_mean * t]
        bound = 0.0
        report = None
        for xi in visibilities:
            bob = bob_params(value, xi)
            if security:
                # a single visibility: the report carries Bob's figures as well
                report = security_report_for(bob, eve_lo, tail_tol)
                i_diff, i_sign, err = report.i_ab_wf, report.i_ab_bds, report.error_bound
            else:
                _, i_diff, i_sign, err = _receiver_figures(bob, tail_tol)
            figures = {"wf": i_diff, "hl": i_diff, "bds": i_sign}
            cells += [mi_homodyne(bob) if s == "hom" else figures[s] for s in strategies]
            bound = max(bound, err)
        cells += [getattr(report, c) for c in scenario_columns]
        cells.append(bound)
        return cells

    return columns, [row(value) for value in grid]


def run_sweep(mode, signal_mean, grid, strategies=("wf", "hl", "bds"), visibilities=(1.0,),
              lo_mean=None, fixed_loss_db=0.0, security=(), eve_lo_mean=None,
              tail_tol=DEFAULT_TAIL_TOL):
    """A mutual-information sweep over LO energy or signal loss; returns
    (columns, rows) in grid order.

    ``grid`` is strictly monotone.  In ``lo`` mode the grid is the LO mean
    photon number and ``signal_mean`` is the signal mean at the receiver.
    In ``loss`` mode the grid is the attenuation in dB, ``signal_mean`` is
    the zero-loss reference, and ``lo_mean`` stays fixed.  ``strategies``
    name :data:`STRATEGIES`, and each visibility of ``visibilities`` gets
    their columns.  Under ``security`` (names of :data:`SECURITY_SCENARIOS`,
    with a single visibility) the eavesdropper collects the fraction of the
    signal the channel loses (the grid's attenuation in ``loss`` mode,
    ``fixed_loss_db`` in ``lo`` mode) and reads it with Bob's LO unless
    ``eve_lo_mean`` is given.  ``tail_tol`` is checked by the first window
    it sizes (:func:`~pnrchan.receivers.skellam_window`).
    """
    return _sweep(mode, signal_mean, grid, strategies, visibilities, lo_mean, fixed_loss_db,
                  security, eve_lo_mean, tail_tol)


def run_security(signal_mean, lo_mean, grid, xi=1.0, eve_lo_mean=None,
                 tail_tol=DEFAULT_TAIL_TOL):
    """The security table: the loss sweep (:func:`run_sweep`) of wf and bds
    with every security scenario at the one visibility ``xi``; returns
    (columns, rows) in grid order.  The columns are loss_db, transmissivity
    and signal_mean, the SecurityReport fields in declaration order (Bob's
    figures as i_ab_wf and i_ab_bds), and trunc_err.
    """
    # _sweep, not run_sweep, so that a traced run counts each point once
    columns, rows = _sweep("loss", signal_mean, grid, ("wf", "bds"), (xi,), lo_mean, 0.0,
                           tuple(SECURITY_SCENARIOS), eve_lo_mean, tail_tol)
    names = [_SECURITY_NAMES.get(c, c) for c in columns]
    order = [names.index(c) for c in _SECURITY_COLUMNS]
    return list(_SECURITY_COLUMNS), [[row[i] for i in order] for row in rows]
