"""Parameter-sweep drivers behind the CLI.

A sweep walks a strictly monotone grid (LO energy or signal loss), computes
the requested information figures per point, and returns rows in grid order.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

from .channel import ChannelParams, loss_db_to_transmissivity
from .errors import ValidationError
from .information import _receiver_figures, mi_homodyne
from .receivers import DEFAULT_TAIL_TOL
from .security import SecurityReport, security_report_for

__all__ = [
    "STRATEGIES",
    "SECURITY_SCENARIOS",
    "SweepSpec",
    "SecuritySpec",
    "sweep_columns",
    "security_columns",
    "run_sweep",
    "run_security",
]

STRATEGIES = ("wf", "hl", "bds", "hom")
# the SecurityReport fields a sweep appends for each --security scenario, in
# column order; the security table prints every field in declaration order
SECURITY_SCENARIOS = {
    "ia-dr": ("i_ae_wf", "delta_ia_dr", "k_dr"),
    "ia-rr": ("i_be_wf", "delta_ia_rr", "k_rr"),
    "ca-rr": ("chi_be_wf", "chi_be_bds", "delta_ca_wf", "delta_ca_bds",
              "k_ca_wf", "k_ca_bds"),
}
_REPORT_COLUMNS = tuple(f.name for f in fields(SecurityReport) if f.name != "error_bound")


def _check_tail_tol(tail_tol):
    # zero and negative tolerances are left to the window certification,
    # which reports them as numerical failures
    if not math.isfinite(tail_tol):
        raise ValidationError(f"tail_tol must be finite, got {tail_tol}")


def _check_mean(name, value):
    if value is not None and not (value >= 0.0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _eve_lo_amplitude(eve_lo_mean):
    return None if eve_lo_mean is None else eve_lo_mean ** 0.5


def _check_grid(grid):
    if len(grid) == 0:
        raise ValidationError("grid must not be empty")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValidationError("grid must be strictly monotone")


@dataclass(frozen=True)
class SweepSpec:
    """A mutual-information sweep over LO energy or signal loss.

    In ``lo`` mode the grid is the LO mean photon number and ``signal_mean``
    is the signal mean at the receiver.  In ``loss`` mode the grid is the
    attenuation in dB, ``signal_mean`` is the zero-loss reference, and
    ``lo_mean`` stays fixed.
    """

    mode: str
    signal_mean: float
    grid: tuple
    strategies: tuple = ("wf", "hl", "bds")
    visibilities: tuple = (1.0,)
    lo_mean: Optional[float] = None
    fixed_loss_db: float = 0.0
    security: tuple = ()
    eve_lo_mean: Optional[float] = None
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.mode not in ("lo", "loss"):
            raise ValidationError(f"mode must be 'lo' or 'loss', got {self.mode!r}")
        _check_mean("signal_mean", self.signal_mean)
        _check_mean("lo_mean", self.lo_mean)
        _check_mean("eve_lo_mean", self.eve_lo_mean)
        if not self.strategies:
            raise ValidationError("strategies must not be empty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValidationError(f"unknown strategy {s!r}")
        for s in self.security:
            if s not in SECURITY_SCENARIOS:
                raise ValidationError(f"unknown security scenario {s!r}")
        if not self.visibilities:
            raise ValidationError("need at least one visibility")
        if self.security and len(self.visibilities) != 1:
            raise ValidationError("security columns need a single visibility")
        if self.mode == "loss" and self.lo_mean is None:
            raise ValidationError("loss mode needs a fixed lo_mean")
        if self.mode == "loss" and self.fixed_loss_db:
            raise ValidationError("loss mode sweeps the loss; fixed_loss_db is for lo mode")
        _check_grid(self.grid)
        _check_tail_tol(self.tail_tol)


def _security_columns(spec):
    return [c for name, cols in SECURITY_SCENARIOS.items() if name in spec.security
            for c in cols]


def sweep_columns(spec: SweepSpec):
    cols = ["lo_mean"] if spec.mode == "lo" else ["loss_db", "transmissivity", "signal_mean"]
    for xi in spec.visibilities:
        tag = f"[xi={xi:g}]" if len(spec.visibilities) > 1 else ""
        cols.extend(f"i_{s}{tag}" for s in spec.strategies)
    return cols + _security_columns(spec) + ["trunc_err"]


def _bob_params(spec: SweepSpec, value, xi):
    if spec.mode == "lo":
        return ChannelParams.from_means(
            spec.signal_mean, value, visibility=xi, loss_db=spec.fixed_loss_db
        )
    t = loss_db_to_transmissivity(value)
    return ChannelParams(
        alpha=spec.signal_mean ** 0.5,
        transmissivity=t,
        lo_amplitude=spec.lo_mean ** 0.5,
        visibility=xi,
    )


def _sweep_row(spec, value):
    if spec.mode == "lo":
        cells = [value]
    else:
        t = loss_db_to_transmissivity(value)
        cells = [value, t, spec.signal_mean * t]
    bound = 0.0
    report = None
    for xi in spec.visibilities:
        bob = _bob_params(spec, value, xi)
        if spec.security:
            # a single visibility: the report carries Bob's figures as well
            report = security_report_for(bob, _eve_lo_amplitude(spec.eve_lo_mean),
                                         spec.tail_tol)
            i_diff, i_sign, err = report.i_ab_wf, report.i_ab_bds, report.error_bound
        else:
            _, i_diff, i_sign, err = _receiver_figures(bob, spec.tail_tol)
        figures = {"wf": i_diff, "hl": i_diff, "bds": i_sign}
        cells += [mi_homodyne(bob) if s == "hom" else figures[s] for s in spec.strategies]
        bound = max(bound, err)
    cells += [getattr(report, c) for c in _security_columns(spec)]
    cells.append(bound)
    return cells


@dataclass(frozen=True)
class SecuritySpec:
    """A wiretap security sweep over signal loss.

    ``signal_mean`` is the source mean photon number (received mean at zero
    loss); the grid is the attenuation in dB of the honest arm, with the
    eavesdropper collecting the complementary fraction.
    """

    signal_mean: float
    lo_mean: float
    visibility: float
    grid: tuple
    eve_lo_mean: Optional[float] = None
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        _check_mean("signal_mean", self.signal_mean)
        _check_mean("lo_mean", self.lo_mean)
        _check_mean("eve_lo_mean", self.eve_lo_mean)
        _check_grid(self.grid)
        _check_tail_tol(self.tail_tol)


def security_columns():
    return ["loss_db", "transmissivity", "signal_mean", *_REPORT_COLUMNS, "trunc_err"]


def _security_row(spec, loss_db):
    t = loss_db_to_transmissivity(loss_db)
    bob = ChannelParams(
        alpha=spec.signal_mean ** 0.5,
        transmissivity=t,
        lo_amplitude=spec.lo_mean ** 0.5,
        visibility=spec.visibility,
    )
    rep = security_report_for(bob, _eve_lo_amplitude(spec.eve_lo_mean), spec.tail_tol)
    return [loss_db, t, spec.signal_mean * t,
            *(getattr(rep, c) for c in _REPORT_COLUMNS), rep.error_bound]


def run_sweep(spec: SweepSpec):
    """Evaluate a MI sweep; returns (columns, rows) in grid order."""
    return sweep_columns(spec), [_sweep_row(spec, value) for value in spec.grid]


def run_security(spec: SecuritySpec):
    """Evaluate a security sweep; returns (columns, rows) in grid order."""
    return security_columns(), [_security_row(spec, loss_db) for loss_db in spec.grid]
