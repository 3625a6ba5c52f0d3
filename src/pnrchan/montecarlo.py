"""Monte Carlo shot generation and empirical estimation.

Shot generation mirrors the experimental acquisitions: equal numbers of
pulses per symbol, one integer count pair per pulse.  Reproducibility rests
on numpy's counter-based Philox generator with one substream per chunk of
``_CHUNK`` shots, keyed by (seed, symbol, chunk index).  The chunk size is
part of the stream: the counts depend only on (params, shots, seed), not on
how many threads draw the chunks or in which order they finish, but a
different ``_CHUNK`` would give different counts.

A run is a plain tuple of blocks: ``run[i]()`` makes block ``i``, its
symbols (uint8) and its two arm counts (int32, each at most ``MAX_COUNT``).
Every estimate comes from tallies of the distinct (n, m, symbol) cells,
which add exactly across blocks: no column of a whole run is ever built.
"""

import math
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelParams, detection_rates
from .errors import CalibrationError, ValidationError
from .information import mutual_information

__all__ = [
    "EmpiricalDistributions",
    "ShotTally",
    "PluginEstimate",
    "PluginMiReport",
    "CalibrationResult",
    "run_experiment",
    "run_from_columns",
    "empirical_distributions",
    "plugin_mi",
    "calibrate_params",
    "calibrate_from_means",
]

_LN2 = math.log(2.0)
_CHUNK = 1 << 16
_DRAW_PIECE = 1 << 14  # counts drawn at once; unlike _CHUNK, not part of the stream
# the int32 maximum: every count the package makes is held in an int32 column,
# and the tally key (n << 32) | (m << 1) | symbol then fits in an int64
MAX_COUNT = (1 << 31) - 1


def _block_bounds(symbols, n, m, unit="block"):
    """The least and greatest n and m of a ``unit`` of shots, refused unless its
    columns are integer arrays of one nonzero length with symbols 0 or 1 and
    counts in [0, MAX_COUNT]: two reductions a column, no temporary."""
    if not all(isinstance(column, np.ndarray) and np.issubdtype(column.dtype, np.integer)
               for column in (symbols, n, m)):
        raise ValidationError("symbols and counts must be integer arrays")
    if not (len(symbols) == len(n) == len(m)):
        raise ValidationError("symbol and count columns must have equal length")
    if len(symbols) == 0:
        raise ValidationError(f"a {unit} must contain at least one shot")
    if symbols.max() > 1 or symbols.min() < 0:
        raise ValidationError("symbols must be 0 or 1")
    bounds = int(n.min()), int(n.max()), int(m.min()), int(m.max())
    if min(bounds) < 0 or max(bounds) > MAX_COUNT:
        raise ValidationError(f"counts must lie in [0, {MAX_COUNT}]")
    return bounds


def run_from_columns(symbols, n, m) -> tuple:
    """A run of columns already in memory: the symbols and the two arm
    counts, integer arrays of any dtype, checked whole (``_block_bounds``)
    and then sliced into a tuple of blocks of at most ``_CHUNK`` rows."""
    _block_bounds(symbols, n, m, unit="run")
    starts = (*range(0, len(symbols), _CHUNK), len(symbols))
    return tuple(partial(_slice, symbols, n, m, a, b) for a, b in zip(starts, starts[1:]))


def _check_run(run, name, expected="a run (a tuple of blocks)"):
    """Refuse ``run`` unless it is a plain tuple of block makers: a NamedTuple,
    such as an ``EmpiricalDistributions``, is a tuple but not a run."""
    if type(run) is not tuple or not all(callable(block) for block in run):
        raise ValidationError(f"{name} must be {expected}, got {type(run).__name__}")


def _slice(symbols, n, m, start, stop):
    return (symbols[start:stop].astype(np.uint8, copy=False),
            n[start:stop].astype(np.int32, copy=False),
            m[start:stop].astype(np.int32, copy=False))


def _draw(seed, symbol, index, rates, size):
    """Chunk ``index`` of ``symbol``'s shots: ``size`` n counts and then ``size``
    m counts from the Philox substream keyed by (seed, symbol, index), each
    arm drawn ``_DRAW_PIECE`` counts at a time into its int32 column.  The
    draws continue one stream, so the counts do not depend on the piece size."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, symbol, index))))
    counts = [np.empty(size, dtype=np.int32) for _ in rates]
    for mu, column in zip(rates, counts):
        for at in range(0, size, _DRAW_PIECE):
            drawn = gen.poisson(mu, min(_DRAW_PIECE, size - at))
            top = int(drawn.max())  # checked before the narrowing: a wrapped count can look legal
            if top > MAX_COUNT:
                raise ValidationError(f"drew a count of {top}, above the count limit {MAX_COUNT}")
            column[at:at + len(drawn)] = drawn
    return (np.full(size, symbol, dtype=np.uint8), *counts)


def run_experiment(params: ChannelParams, shots_per_symbol: int, seed: int) -> tuple:
    """Plan a balanced run: ``shots_per_symbol`` pulses for each symbol.

    The run is a tuple of blocks, ``2 * shots_per_symbol`` shots in all.
    Deterministic for fixed (params, shots_per_symbol, seed); the record
    order is all symbol-0 shots followed by all symbol-1 shots.  Block ``i``
    is a chunk of at most ``_CHUNK`` shots of one symbol, drawn when it is
    made from its own Philox substream, n counts first (``_draw``); so the
    counts do not depend on which blocks are made, on how many threads make
    them or in which order.  ``write_shot_records`` draws the blocks
    concurrently and formats, writes and tallies each in block order.
    Nothing is drawn here: the means are checked, and a block that draws a
    count above ``MAX_COUNT`` raises ``ValidationError``.
    """
    if not isinstance(shots_per_symbol, (int, np.integer)) or shots_per_symbol < 1:
        raise ValidationError(f"shots_per_symbol must be an integer >= 1, "
                              f"got {shots_per_symbol!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    seed = int(seed)
    rates = [detection_rates(params, symbol) for symbol in (0, 1)]
    if not all(math.isfinite(mu) for pair in rates for mu in pair):  # the means overflow them
        raise ValidationError(f"arm means must be finite, got {rates[0]} for symbol 0 and "
                              f"{rates[1]} for symbol 1; lower the means")
    for mu in (mu for pair in rates for mu in pair):
        # refused before any draw: a count 40 standard deviations out is never drawn
        if not mu + 40.0 * math.sqrt(mu) <= MAX_COUNT:
            raise ValidationError(f"arm mean {mu:.6g} is too large to record: mean + "
                                  f"40 sqrt(mean) must be at most the count limit {MAX_COUNT}")
    sizes = [min(_CHUNK, shots_per_symbol - start) for start in range(0, shots_per_symbol, _CHUNK)]
    return tuple(partial(_draw, seed, symbol, index, rates[symbol], size)
                 for symbol in (0, 1) for index, size in enumerate(sizes))


def _run_starts(keys):
    """Where each run of equal values starts in a sorted, nonempty array."""
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _block_tally(symbols, n, m):
    """The distinct (n, m, symbol) cells of one block of shots and how often
    each occurs: int64 keys (n << 32) | (m << 1) | symbol, ascending, and
    their int64 tallies.

    One sort of one key per shot does it.  Offset by the block's smallest n
    and m (``_block_bounds``, which checks the block), the key
    ((n - n0) << b | (m - m0)) << 1 | symbol, with ``b`` the bit length of
    the block's m range, is built in the narrowest unsigned type that holds
    its largest value: uint16 for counts that span a few bits, whatever
    their size, at most uint64 for counts up to ``MAX_COUNT``.  Its runs
    give the distinct keys, which alone are widened back to the common key.
    """
    low_n, high_n, low_m, high_m = _block_bounds(symbols, n, m)
    b = (high_m - low_m).bit_length()
    dtype = np.min_scalar_type(((high_n - low_n) << b | ((1 << b) - 1)) << 1 | 1)
    key, low = np.empty(len(n), dtype=dtype), np.empty(len(m), dtype=dtype)
    np.subtract(n, low_n, out=key, casting="unsafe")  # differences in the counts' dtype, narrowed
    np.subtract(m, low_m, out=low, casting="unsafe")
    key <<= b
    key |= low
    key <<= 1
    np.bitwise_or(key, symbols, out=key, casting="unsafe")  # symbols of any integer type
    key.sort()
    starts = _run_starts(key)
    keys = key[starts].astype(np.int64)
    tally = np.diff(starts, append=len(key))
    cell_n = (keys >> (b + 1)) + low_n
    cell_m = ((keys >> 1) & ((1 << b) - 1)) + low_m
    return (cell_n << 32) | (cell_m << 1) | (keys & 1), tally


class ShotTally:
    """The tallies of blocks of shots summed into one, as the blocks come.

    ``add`` tallies a block (``_block_tally``) and keeps that tally pending,
    never the block's columns, which the caller may reuse; once the pending
    tallies hold at least as many cells as the reduced tally, all are
    concatenated and re-reduced: a stable sort of the keys and a sum over
    each run.  Each re-reduce thus sorts at most twice the pending cells, so
    the cells sorted over a run are at most twice those of its block
    tallies, and memory stays a few times the support plus a block.
    """

    def __init__(self):
        self._keys = np.empty(0, dtype=np.int64)
        self._tally = np.empty(0, dtype=np.int64)
        self._pending = []
        self._pending_cells = 0

    def add(self, symbols, n, m):
        """Tally one block of shots, checked by ``_block_bounds``."""
        self._pending.append(_block_tally(symbols, n, m))
        self._pending_cells += len(self._pending[-1][0])
        if self._pending_cells >= len(self._keys):
            self._reduce()

    def _reduce(self):
        keys = np.concatenate([self._keys, *(k for k, _ in self._pending)])
        tally = np.concatenate([self._tally, *(t for _, t in self._pending)])
        self._pending, self._pending_cells = [], 0
        if len(keys):
            order = np.argsort(keys, kind="stable")
            keys, tally = keys[order], tally[order]
            starts = _run_starts(keys)
            keys, tally = keys[starts], np.add.reduceat(tally, starts)
        self._keys, self._tally = keys, tally

    def reduced(self):
        """The distinct keys, ascending, and their tallies."""
        if self._pending:
            self._reduce()
        return self._keys, self._tally


class EmpiricalDistributions(NamedTuple):
    """The observed count-pair law of a run, and the readout laws it gives.

    ``cells`` holds the distinct observed (n, m) pairs in row-major order,
    ``counts[k]`` how often symbol ``k`` gave each pair, and ``shots`` the
    per-symbol totals.  Everything else aggregates these cells: ``wf[k]`` is
    the count-pair law, ``hl[k]`` the difference law on the observed
    ``deltas``, ``bds[k]`` the binary sign law, whose two outcomes share the
    difference-zero counts evenly (the analytic convention), and
    ``arm_means[k]`` the mean (n, m) of symbol ``k``.
    """

    cells: np.ndarray
    counts: np.ndarray
    shots: tuple

    def _per_shot(self, sums):
        return sums / np.array(self.shots, dtype=float)[:, None]

    @property
    def wf(self):
        return self._per_shot(self.counts)

    def _differences(self):
        return np.unique(self.cells[:, 0] - self.cells[:, 1], return_inverse=True)

    @property
    def deltas(self):
        return self._differences()[0]

    @property
    def hl(self):
        deltas, column = self._differences()
        return self._per_shot(np.array(
            [np.bincount(column, weights=c, minlength=len(deltas)) for c in self.counts]))

    @property
    def bds(self):
        delta = self.cells[:, 0] - self.cells[:, 1]
        below = self._per_shot(self.counts[:, delta < 0].sum(axis=1, keepdims=True)
                               + 0.5 * self.counts[:, delta == 0].sum(axis=1, keepdims=True))
        return np.hstack([below, 1.0 - below])

    @property
    def arm_means(self):
        return self._per_shot(self.counts @ self.cells)


def empirical_distributions(shots) -> EmpiricalDistributions:
    """Count each symbol's observed (n, m) pairs.

    ``shots`` is the ``ShotTally`` that ``write_shot_records`` or
    ``read_shot_records`` returns, or a run, whose blocks are made and
    tallied here one after another.  Memory is that of the tally and a
    block, whatever the length of the run.
    """
    if not isinstance(shots, ShotTally):
        _check_run(shots, "shots", "a ShotTally or a run (a tuple of blocks)")
        tally = ShotTally()
        for block in shots:
            tally.add(*block())
        shots = tally
    keys, tally = shots.reduced()
    pairs, column = np.unique(keys >> 1, return_inverse=True)
    counts = np.zeros((2, len(pairs)), dtype=np.int64)
    counts[keys & 1, column] = tally
    per_symbol = tuple(int(s) for s in counts.sum(axis=1))
    for k in (0, 1):
        if per_symbol[k] == 0:
            raise ValidationError(f"run contains no shots for symbol {k}")
    return EmpiricalDistributions(cells=np.column_stack([pairs >> 31, pairs & MAX_COUNT]),
                                  counts=counts, shots=per_symbol)


class PluginEstimate(NamedTuple):
    """Plug-in MI with its Miller-Madow bias estimate (reported, not applied)."""

    value: float
    miller_madow_bias: float


class PluginMiReport(NamedTuple):
    wf: PluginEstimate
    hl: PluginEstimate
    bds: PluginEstimate
    priors: tuple


def _check_empirical(emp):
    if not isinstance(emp, EmpiricalDistributions):
        raise ValidationError(f"emp must be an EmpiricalDistributions, "
                              f"got {type(emp).__name__}")


def _miller_madow(mixture, total_shots):
    support = int(np.count_nonzero(mixture))
    return max(support - 1, 0) / (2.0 * total_shots * _LN2)


def plugin_mi(emp: EmpiricalDistributions) -> PluginMiReport:
    """Plug-in MI of all three readouts from the empirical law.

    The priors are the observed symbol frequencies.  The Miller-Madow
    first-order bias (K - 1) / (2 N ln 2), with K the observed support of
    the outcome mixture, is attached as metadata for each strategy; the
    reported values stay uncorrected.
    """
    _check_empirical(emp)
    total = sum(emp.shots)
    priors = (emp.shots[0] / total, emp.shots[1] / total)
    out = {}
    for name, conds in (("wf", emp.wf), ("hl", emp.hl), ("bds", emp.bds)):
        mixture = priors[0] * conds[0] + priors[1] * conds[1]
        out[name] = PluginEstimate(
            value=mutual_information(conds, priors),
            miller_madow_bias=_miller_madow(mixture, total),
        )
    return PluginMiReport(wf=out["wf"], hl=out["hl"], bds=out["bds"], priors=priors)


class CalibrationResult(NamedTuple):
    """Channel parameters inferred from per-symbol arm means.

    ``xi_raw`` is the unclamped visibility estimate; ``clamped`` flags a raw
    value above 1.  ``xi_stderr`` is a first-order propagation of Poisson
    counting noise, with the covariance of the total and cross terms (None
    when shot counts are unknown or an arm is dark).
    """

    signal_mean: float
    lo_mean: float
    xi: float
    xi_raw: float
    xi_stderr: Optional[float]
    clamped: bool


def calibrate_from_means(means_symbol0, means_symbol1, known_lo_mean=None,
                         known_signal_mean=None, shots_per_symbol=None) -> CalibrationResult:
    """Solve the rate equations given per-symbol arm means.

    The two observable means per symbol determine only the total rate
    S = T*alpha^2 + z^2 and the cross term xi*sqrt(T*alpha^2*z^2), so exactly
    one of ``known_lo_mean`` (z^2) or ``known_signal_mean`` (T*alpha^2) must
    be supplied to separate the remaining unknowns.  ``shots_per_symbol``,
    None (unknown) or an integer >= 1, sets ``xi_stderr``.
    """
    if (known_lo_mean is None) == (known_signal_mean is None):
        raise ValidationError(
            "exactly one of known_lo_mean or known_signal_mean is required"
        )
    label, known = (("lo_mean", known_lo_mean) if known_lo_mean is not None
                    else ("signal_mean", known_signal_mean))
    if not (math.isfinite(known) and known >= 0.0):
        raise ValidationError(f"known_{label} must be a finite mean >= 0, got {known!r}")
    if shots_per_symbol is not None and (not isinstance(shots_per_symbol, (int, np.integer))
                                         or shots_per_symbol < 1):
        raise ValidationError(f"shots_per_symbol must be None or an integer >= 1, "
                              f"got {shots_per_symbol!r}")
    t0, r0 = means_symbol0
    t1, r1 = means_symbol1
    if not all(0.0 <= mean < math.inf for mean in (t0, r0, t1, r1)):
        raise ValidationError(f"arm means must be >= 0 and finite, got {means_symbol0} for "
                              f"symbol 0 and {means_symbol1} for symbol 1")
    total = 0.5 * (t0 + r0 + t1 + r1)
    cross = 0.25 * (abs(t1 - r1) + abs(t0 - r0))
    known = float(known)
    unknown = total - known
    if unknown < 0.0:
        raise CalibrationError(
            f"inconsistent system: total rate {total:.6g} is below the known "
            f"{label}, leaving a negative {'signal' if label == 'lo_mean' else 'LO'} "
            f"mean {unknown:.6g}"
        )
    signal_mean, lo_mean = (unknown, known) if label == "lo_mean" else (known, unknown)
    denom_sq = signal_mean * lo_mean
    if denom_sq <= 0.0:
        if cross > 1e-9 * max(total, 1.0):
            raise CalibrationError(
                f"inconsistent system: cross term {cross:.6g} with a dark arm "
                f"(signal_mean={signal_mean:.6g}, lo_mean={lo_mean:.6g})"
            )
        xi_raw = 0.0
    else:
        xi_raw = cross / math.sqrt(denom_sq)
    clamped = xi_raw > 1.0
    xi = min(xi_raw, 1.0)
    stderr = None
    if shots_per_symbol is not None and denom_sq > 0.0:
        # var(total) = total / 2N, var(cross) = total / 8N and cov(total, cross)
        # = cross / 2N, through dxi/dcross = 1 / sqrt(s z) and dxi/dtotal =
        # -xi / 2u; that covariance is positive semidefinite, so only rounding
        # takes the sum below zero
        n = shots_per_symbol
        var_xi = (total / (8.0 * n * denom_sq) + xi * xi * total / (8.0 * n * unknown ** 2)
                  - xi * cross / (2.0 * n * unknown * math.sqrt(denom_sq)))
        stderr = math.sqrt(max(var_xi, 0.0))
    return CalibrationResult(
        signal_mean=signal_mean, lo_mean=lo_mean, xi=xi,
        xi_raw=xi_raw, xi_stderr=stderr, clamped=clamped,
    )


def calibrate_params(emp: EmpiricalDistributions, known_lo_mean=None,
                     known_signal_mean=None) -> CalibrationResult:
    """Infer channel parameters from the per-symbol arm means of an empirical law."""
    _check_empirical(emp)
    return calibrate_from_means(
        *emp.arm_means.tolist(),
        known_lo_mean=known_lo_mean,
        known_signal_mean=known_signal_mean,
        shots_per_symbol=min(emp.shots),
    )
