"""Monte Carlo shot generation and empirical estimation.

Shot generation mirrors the experimental acquisitions: equal numbers of
pulses per symbol, one integer count pair per pulse.  Reproducibility rests
on numpy's counter-based Philox generator with one substream per chunk of
``_CHUNK`` shots, keyed by (seed, symbol, chunk index).  The chunk size is
part of the stream: the counts depend only on (params, shots, seed), not on
how many threads draw the chunks or in which order they finish, but a
different ``_CHUNK`` would give different counts.
"""

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .channel import ChannelParams, detection_rates
from .errors import CalibrationError, ValidationError
from .information import mutual_information

__all__ = [
    "ExperimentRun",
    "EmpiricalDistributions",
    "PluginEstimate",
    "PluginMiReport",
    "CalibrationResult",
    "run_experiment",
    "empirical_distributions",
    "plugin_mi",
    "calibrate_params",
    "calibrate_from_means",
]

_LN2 = math.log(2.0)
_CHUNK = 1 << 16
# the int32 maximum: every count the package makes is held in an int32 column,
# and empirical_distributions' key ((n << b) | m) << 1 | symbol, b the bit
# length of the largest m, then takes at most 63 bits and never wraps.
MAX_COUNT = (1 << 31) - 1


def _outside(column, top):
    """Whether an integer column holds a value below 0 or above ``top``: one
    or two reductions, with no temporary the size of the column."""
    return column.max() > top or (column.dtype.kind == "i" and column.min() < 0)


@dataclass(frozen=True)
class ExperimentRun:
    """A column-wise batch of shot records: one symbol and two arm counts per pulse."""

    symbols: np.ndarray
    n: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        if not (len(self.symbols) == len(self.n) == len(self.m)):
            raise ValidationError("symbol and count columns must have equal length")
        if len(self.symbols) == 0:
            raise ValidationError("a run must contain at least one shot")
        if not all(isinstance(column, np.ndarray) and np.issubdtype(column.dtype, np.integer)
                   for column in (self.symbols, self.n, self.m)):
            raise ValidationError("symbols and counts must be integer arrays")
        if _outside(self.symbols, 1):
            raise ValidationError("symbols must be 0 or 1")
        if _outside(self.n, MAX_COUNT) or _outside(self.m, MAX_COUNT):
            raise ValidationError(f"counts must lie in [0, {MAX_COUNT}]")

    def __len__(self):
        return len(self.symbols)


def _worker_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_jobs(jobs, deliver=None):
    """Call every job, on this thread and up to ``_worker_count() - 1`` more,
    one thread per job at most.

    Jobs are claimed in order.  With ``deliver``, each job's result is passed
    to it strictly in job order: a thread whose job is done waits until every
    earlier result has been delivered, then delivers its own, so at most one
    finished result per thread is held.  The first exception, from a job or
    from ``deliver``, stops the claiming of further jobs and the delivery of
    further results, wakes every waiting thread, and is raised here once
    every thread has finished the job in hand.
    """
    pending = enumerate(jobs)
    turn = threading.Condition()
    errors = []
    delivered = 0

    def hand_off(index, result):
        nonlocal delivered
        with turn:
            while delivered < index and not errors:
                turn.wait()
            if errors:
                return
        deliver(result)  # alone: every later result waits for the count below
        with turn:
            delivered += 1
            turn.notify_all()

    def work():
        try:
            while True:
                with turn:
                    index, job = (None, None) if errors else next(pending, (None, None))
                if job is None:
                    return
                if deliver is None:
                    job()
                else:
                    hand_off(index, job())
        except BaseException as exc:
            with turn:
                errors.append(exc)
                turn.notify_all()

    threads = [threading.Thread(target=work)
               for _ in range(min(_worker_count(), len(jobs)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def run_experiment(params: ChannelParams, shots_per_symbol: int, seed: int) -> ExperimentRun:
    """Generate a balanced run: ``shots_per_symbol`` pulses for each symbol.

    Deterministic for fixed (params, shots_per_symbol, seed); the record
    order is all symbol-0 shots followed by all symbol-1 shots.  Each chunk
    of ``_CHUNK`` shots draws its n counts and then its m counts from its own
    Philox substream into its slices of the two int32 columns, so the chunks
    run concurrently on a thread per usable CPU (numpy's Poisson fill
    releases the GIL) and the result does not depend on the thread count.
    A chunk that holds a count above ``MAX_COUNT`` raises ``ValidationError``.
    """
    if shots_per_symbol < 1:
        raise ValidationError("shots_per_symbol must be >= 1")
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
    n = np.empty(2 * shots_per_symbol, dtype=np.int32)
    m = np.empty(2 * shots_per_symbol, dtype=np.int32)

    def draw(symbol, index):
        size = min(_CHUNK, shots_per_symbol - index * _CHUNK)
        start = symbol * shots_per_symbol + index * _CHUNK
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, symbol, index))))
        for column, mu in zip((n, m), rates[symbol]):
            counts = gen.poisson(mu, size)
            top = int(counts.max())  # checked before the store: a wrapped count can look legal
            if top > MAX_COUNT:
                raise ValidationError(f"drew a count of {top}, above the count limit {MAX_COUNT}")
            column[start:start + size] = counts

    chunks = -(-shots_per_symbol // _CHUNK)
    jobs = [partial(draw, symbol, index) for symbol in (0, 1) for index in range(chunks)]
    _run_jobs(jobs)
    symbols = np.zeros(2 * shots_per_symbol, dtype=np.uint8)
    symbols[shots_per_symbol:] = 1
    return ExperimentRun(symbols=symbols, n=n, m=m)


@dataclass(frozen=True)
class EmpiricalDistributions:
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


def empirical_distributions(run: ExperimentRun) -> EmpiricalDistributions:
    """Count each symbol's observed (n, m) pairs: one sort of one key per shot.

    The key ((n << b) | m) << 1 | symbol, with ``b`` the bit length of the
    largest m, is built in one fresh array of the narrowest unsigned type
    that holds its largest value (uint16 for counts of a few bits, at most
    uint64 for counts up to ``MAX_COUNT``) and sorted in place; its runs give
    the distinct keys and their tallies.  Memory is O(shots) whatever the
    counts are.
    """
    top_n, top_m = int(run.n.max()), int(run.m.max())
    b = top_m.bit_length()
    dtype = np.min_scalar_type((top_n << b | top_m) << 1 | 1)
    key = run.n.astype(dtype)
    key <<= b
    np.bitwise_or(key, run.m, out=key, dtype=dtype, casting="unsafe")
    key <<= 1
    np.bitwise_or(key, run.symbols, out=key, dtype=dtype, casting="unsafe")
    key.sort()
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = key[starts]
    tally = np.diff(starts, append=len(key))
    # signed cells: the differences n - m of unsigned ones would wrap
    pairs, column = np.unique((keys >> 1).astype(np.int64), return_inverse=True)
    counts = np.zeros((2, len(pairs)), dtype=np.int64)
    counts[keys & 1, column] = tally
    shots = tuple(int(s) for s in counts.sum(axis=1))
    for k in (0, 1):
        if shots[k] == 0:
            raise ValidationError(f"run contains no shots for symbol {k}")
    return EmpiricalDistributions(cells=np.column_stack([pairs >> b, pairs & ((1 << b) - 1)]),
                                  counts=counts, shots=shots)


@dataclass(frozen=True)
class PluginEstimate:
    """Plug-in MI with its Miller-Madow bias estimate (reported, not applied)."""

    value: float
    miller_madow_bias: float


@dataclass(frozen=True)
class PluginMiReport:
    wf: PluginEstimate
    hl: PluginEstimate
    bds: PluginEstimate
    priors: tuple


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


@dataclass(frozen=True)
class CalibrationResult:
    """Channel parameters inferred from per-symbol arm means.

    ``xi_raw`` is the unclamped visibility estimate; ``clamped`` flags a raw
    value above 1.  ``xi_stderr`` is a first-order propagation of Poisson
    counting noise (None when shot counts are unknown).
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
    be supplied to separate the remaining unknowns.
    """
    if (known_lo_mean is None) == (known_signal_mean is None):
        raise ValidationError(
            "exactly one of known_lo_mean or known_signal_mean is required"
        )
    for label, known in (("known_lo_mean", known_lo_mean),
                         ("known_signal_mean", known_signal_mean)):
        if known is not None and not (math.isfinite(known) and known >= 0.0):
            raise ValidationError(f"{label} must be a finite mean >= 0, got {known!r}")
    t0, r0 = means_symbol0
    t1, r1 = means_symbol1
    if min(t0, r0, t1, r1) < 0.0:
        raise ValidationError("arm means must be >= 0")
    total = 0.5 * (t0 + r0 + t1 + r1)
    cross = 0.25 * (abs(t1 - r1) + abs(t0 - r0))
    if known_lo_mean is not None:
        lo_mean = float(known_lo_mean)
        signal_mean = total - lo_mean
        known_label = "lo_mean"
    else:
        signal_mean = float(known_signal_mean)
        lo_mean = total - signal_mean
        known_label = "signal_mean"
    unknown = signal_mean if known_label == "lo_mean" else lo_mean
    if unknown < 0.0:
        raise CalibrationError(
            f"inconsistent system: total rate {total:.6g} is below the known "
            f"{known_label}, leaving a negative {('signal' if known_label == 'lo_mean' else 'LO')} "
            f"mean {unknown:.6g}"
        )
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
    if shots_per_symbol:
        var_total = total / (2.0 * shots_per_symbol)
        var_cross = total / (8.0 * shots_per_symbol)
        if denom_sq > 0.0:
            var_xi = var_cross / denom_sq + (xi * xi / (4.0 * unknown * unknown)) * var_total
            stderr = math.sqrt(var_xi)
    return CalibrationResult(
        signal_mean=signal_mean, lo_mean=lo_mean, xi=xi,
        xi_raw=xi_raw, xi_stderr=stderr, clamped=clamped,
    )


def calibrate_params(emp: EmpiricalDistributions, known_lo_mean=None,
                     known_signal_mean=None) -> CalibrationResult:
    """Infer channel parameters from the per-symbol arm means of an empirical law."""
    return calibrate_from_means(
        *emp.arm_means.tolist(),
        known_lo_mean=known_lo_mean,
        known_signal_mean=known_signal_mean,
        shots_per_symbol=min(emp.shots),
    )
