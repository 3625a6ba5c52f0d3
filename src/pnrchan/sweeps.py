"""Parameter-sweep drivers behind the CLI.

A sweep walks a strictly monotone grid (LO energy or signal loss), computes
the requested information figures per point, and returns rows in grid order.
The security table is a column layout of a loss sweep.
"""

import math
from functools import wraps
from typing import NamedTuple, Optional

from .channel import ChannelParams, loss_db_to_transmissivity
from .errors import ValidationError
from .information import _receiver_figures, mi_homodyne
from .receivers import DEFAULT_TAIL_TOL
from .security import SecurityReport, security_report_for

__all__ = [
    "STRATEGIES",
    "SECURITY_SCENARIOS",
    "SweepSpec",
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


class _SweepFields(NamedTuple):
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


class SweepSpec(_SweepFields):
    """A mutual-information sweep over LO energy or signal loss.

    In ``lo`` mode the grid is the LO mean photon number and ``signal_mean``
    is the signal mean at the receiver.  In ``loss`` mode the grid is the
    attenuation in dB, ``signal_mean`` is the zero-loss reference, and
    ``lo_mean`` stays fixed.  Under ``security`` the eavesdropper collects
    the fraction of the signal the channel loses (the grid's attenuation in
    ``loss`` mode, ``fixed_loss_db`` in ``lo`` mode) and reads it with Bob's
    LO unless ``eve_lo_mean`` is given.  An immutable record; ``_replace``
    validates the new fields as the constructor does.  ``tail_tol`` is
    checked by the first window it sizes (:func:`~pnrchan.receivers.skellam_window`).
    """

    __slots__ = ()

    @wraps(_SweepFields.__new__)  # so inspect.signature and help show the fields
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def _check(self):
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
        if len(self.grid) == 0:
            raise ValidationError("grid must not be empty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValidationError("grid must be strictly monotone")


def _security_columns(spec):
    return [c for name, cols in SECURITY_SCENARIOS.items() if name in spec.security
            for c in cols]


def _sweep_columns(spec: SweepSpec):
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
            eve_lo = None if spec.eve_lo_mean is None else spec.eve_lo_mean ** 0.5
            report = security_report_for(bob, eve_lo, spec.tail_tol)
            i_diff, i_sign, err = report.i_ab_wf, report.i_ab_bds, report.error_bound
        else:
            _, i_diff, i_sign, err = _receiver_figures(bob, spec.tail_tol)
        figures = {"wf": i_diff, "hl": i_diff, "bds": i_sign}
        cells += [mi_homodyne(bob) if s == "hom" else figures[s] for s in spec.strategies]
        bound = max(bound, err)
    cells += [getattr(report, c) for c in _security_columns(spec)]
    cells.append(bound)
    return cells


def run_sweep(spec: SweepSpec):
    """Evaluate a MI sweep; returns (columns, rows) in grid order."""
    return _sweep_columns(spec), [_sweep_row(spec, value) for value in spec.grid]


def run_security(signal_mean, lo_mean, grid, xi=1.0, eve_lo_mean=None,
                 tail_tol=DEFAULT_TAIL_TOL):
    """The security table: the loss sweep (:class:`SweepSpec`) of wf and bds
    with every security scenario at the one visibility ``xi``; returns
    (columns, rows) in grid order.  The columns are loss_db, transmissivity
    and signal_mean, the SecurityReport fields in declaration order (Bob's
    figures as i_ab_wf and i_ab_bds), and trunc_err.
    """
    spec = SweepSpec(mode="loss", signal_mean=signal_mean, grid=grid, strategies=("wf", "bds"),
                     visibilities=(xi,), lo_mean=lo_mean, security=tuple(SECURITY_SCENARIOS),
                     eve_lo_mean=eve_lo_mean, tail_tol=tail_tol)
    names = [_SECURITY_NAMES.get(c, c) for c in _sweep_columns(spec)]
    order = [names.index(c) for c in _SECURITY_COLUMNS]
    rows = [_sweep_row(spec, value) for value in spec.grid]
    return list(_SECURITY_COLUMNS), [[row[i] for i in order] for row in rows]
