"""Certified count laws of the hybrid receiver.

Both detector arms count Poisson photons.  Every readout strategy is computed
from the law of the count difference Delta = n - m, which is Skellam.  Its
pmf P(d) solves the three-term recurrence

    mu_t P(d - 1) - mu_r P(d + 1) = d P(d),

and is its minimal solution, so it is evaluated by Miller's backward scheme
(Gautschi, "Computational aspects of three-term recurrence relations", SIAM
Review 1967): the ratios P(d) / P(d - 1) run backward from beyond the window,
every term positive, and the bins are cumulative products outward from the
mode, normalized to unit mass.  The raw count pair carries no more
information than its difference (see :mod:`pnrchan.information`), and the
sign readout is an aggregation of the difference law, so no count-pair grid
is ever built.  The macroscopic-LO Gaussian limit of the standardized
difference serves as the ideal-homodyne reference.

Every law carries an explicit truncation window and a certified tail mass.
Windows default to mean + 12*sigma + 30 and grow until the certificate
(Poisson upper tail per arm, Chernoff bound for the difference) falls below
the requested tolerance; failure to certify raises
:class:`~pnrchan.errors.NumericsError`.  The module needs numpy alone.
"""

import math
from decimal import Context, Decimal

import numpy as np

from .channel import ChannelParams
from .errors import NumericsError, ValidationError

__all__ = [
    "DEFAULT_TAIL_TOL",
    "poisson_logpmf",
    "poisson_pmf",
    "poisson_window",
    "skellam_window",
    "skellam_pmf_grid",
    "homodyne_mean",
]

DEFAULT_TAIL_TOL = 1e-10

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_WINDOW_GROWTH_STEPS = 60
_UNIT_ROUNDOFF = 2.0 ** -53
_DECIMAL = Context(prec=34)
# stirlerr(n) = ln(n!) - (n ln n - n + ln sqrt(2 pi n)) for n = 1..15, each
# the double nearest the 50-digit value; formed in double, the difference
# would lose about 40 ulp to cancellation (Loader 2000 tabulates it likewise)
_STIRLERR_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


# ---------------------------------------------------------------------------
# Poisson pmf, log domain, saddle-point style (no factorial is ever formed)
# ---------------------------------------------------------------------------

def _stirlerr(n):
    """log(n!) - Stirling approximation, for a float array of integers n >= 1."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < 16.0
    if small.any():
        out[small] = _STIRLERR_SMALL[n[small].astype(int) - 1]
    big = ~small
    if big.any():
        nb = n[big]
        nn = nb * nb
        s0, s1, s2, s3, s4 = (
            1.0 / 12.0,
            1.0 / 360.0,
            1.0 / 1260.0,
            1.0 / 1680.0,
            1.0 / 1188.0,
        )
        out[big] = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / nb
    return out


def _bd0(x, mu):
    """Deviance term x*log(x/mu) + mu - x, stable for x near mu (x > 0)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = np.abs(x - mu) < 0.1 * (x + mu)
    if near.any():
        xn = x[near]
        v = (xn - mu) / (xn + mu)
        s = (xn - mu) * v
        ej = 2.0 * xn * v
        v2 = v * v
        term = np.ones_like(v)
        for j in range(1, 40):
            term = term * v2
            inc = ej * term / (2 * j + 1)
            s_new = s + inc
            if np.array_equal(s_new, s):
                break
            s = s_new
        out[near] = s
    far = ~near
    if far.any():
        xf = x[far]
        with np.errstate(over="ignore"):
            ratio = xf / mu
        # a subnormal mu can overflow the quotient; its log is then a difference
        log_ratio = np.where(np.isfinite(ratio), np.log(ratio), np.log(xf) - math.log(mu))
        out[far] = xf * log_ratio + mu - xf
    return out


def poisson_logpmf(n, mu):
    """log of the Poisson pmf, vectorized over counts ``n``.

    Evaluated through the Stirling-error/deviance decomposition so that no
    factorial or power ever overflows and the result stays accurate to a few
    ulp even for counts of order 1e6.
    """
    if mu < 0.0 or not math.isfinite(mu):
        raise ValidationError(f"Poisson rate must be finite and >= 0, got {mu}")
    n_arr = np.asarray(n)
    if n_arr.ndim == 0:
        return float(poisson_logpmf(n_arr.reshape(1), mu)[0])
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.integer):
        if np.any(n_arr < 0) or np.any(n_arr != np.floor(n_arr)):
            raise ValidationError("counts must be nonnegative integers")
    nf = n_arr.astype(float)
    out = np.full(nf.shape, -np.inf)
    if mu == 0.0:
        out[nf == 0] = 0.0
        return out
    zero = nf == 0
    out[zero] = -mu
    pos = ~zero
    if pos.any():
        npos = nf[pos]
        out[pos] = -_stirlerr(npos) - _bd0(npos, mu) - (
            _LN_SQRT_2PI + 0.5 * np.log(npos)
        )
    return out


def poisson_pmf(n, mu):
    """Poisson pmf exp(-mu) mu^n / n!, exponentiated from the log form."""
    return np.exp(poisson_logpmf(n, mu))


def _poisson_upper_tail(n, mu):
    """Upper bound on P(N > n) for N ~ Poisson(mu) and x = n + 1 > mu.

    The tail is P(x) S with S = 1 + sum_j prod_{i <= j} mu / (x + i).  S is
    summed forward over a block of growing length L until the geometric
    remainder, the last term times rho / (1 - rho) with rho = mu / (x + L + 1)
    above every later ratio, is below 2^-53 of the sum; the remainder is
    kept, so no mass is dropped.  ln P(x) = -(x ln(x/mu) + mu - x)
    - stirlerr(x) - ln sqrt(2 pi x) is formed in 34-digit decimal arithmetic:
    in double, a few ulp of the deviance's terms, which are of order x,
    would turn into a relative error of up to 1e-12 after the exponential.
    What rounding is left, at most 2^-53 (64 + 4 / (1 - mu / (x + 1))) of the
    result, is added to it.  A tail below the double range reads 0.
    """
    x = n + 1
    length = 32
    while True:
        terms = np.cumprod(mu / np.arange(x + 1.0, x + 1.0 + length))
        rho = mu / (x + 1.0 + length)
        rest = float(terms[-1]) * rho / (1.0 - rho)
        total = 1.0 + float(terms.sum())
        if rest <= _UNIT_ROUNDOFF * total:
            break
        length *= 4
    small = float(_stirlerr(np.array([x]))[0]) + _LN_SQRT_2PI + 0.5 * math.log(x)
    ctx, xd, md = _DECIMAL, Decimal(x), Decimal(mu)
    deviance = ctx.add(ctx.multiply(xd, ctx.ln(ctx.divide(xd, md))), ctx.subtract(md, xd))
    log_tail = ctx.subtract(Decimal(math.log(total + rest) - small), deviance)
    slack = _UNIT_ROUNDOFF * (64.0 + 4.0 / (1.0 - mu / (x + 1.0)))
    return float(ctx.exp(log_tail)) * (1.0 + slack)


def poisson_window(mu, tail_tol=DEFAULT_TAIL_TOL):
    """Smallest rule-based count window [0, n_max] with certified tail.

    Returns ``(n_max, tail_bound)`` where ``tail_bound`` bounds P(N > n_max)
    from above (see :func:`_poisson_upper_tail`).  The base rule
    mu + 12*sqrt(mu) + 30 is grown geometrically if the certificate misses
    ``tail_tol``.
    """
    if tail_tol <= 0.0:
        raise NumericsError(
            "a zero tail tolerance cannot be certified on an infinite alphabet"
        )
    if mu == 0.0:
        return 0, 0.0
    n_max = int(math.ceil(mu + 12.0 * math.sqrt(mu) + 30.0))
    for _ in range(_WINDOW_GROWTH_STEPS):
        bound = _poisson_upper_tail(n_max, mu)
        if bound <= tail_tol:
            return n_max, bound
        n_max = int(math.ceil(n_max * 1.5)) + 10
    raise NumericsError(
        f"cannot certify Poisson tail below {tail_tol:g} for rate {mu:g}"
    )


# ---------------------------------------------------------------------------
# Skellam law of the count difference
# ---------------------------------------------------------------------------

def _skellam_chernoff_upper(mu_t, mu_r, d):
    """Chernoff bound on P(Delta >= d), valid for d above the mean.

    The optimal tilt is u = root / (2*mu_t).  mu_t*(u - 1) is taken as
    root/2 - mu_t, so a subnormal mu_t, for which u overflows, gives no
    inf - inf: ln u = log1p(u - 1) is then +inf and the bound its correctly
    rounded value, 0.  For moderate u, log1p is as accurate as log(u).
    """
    root = d + math.sqrt(d * d + 4.0 * mu_t * mu_r)
    excess = 0.5 * root - mu_t
    if excess <= 0.0:
        return 1.0
    log_u = math.log1p(excess / mu_t)
    expo = excess + mu_r * (2.0 * mu_t / root - 1.0) - d * log_u
    return math.exp(expo)


def _skellam_tail_bound(mu_t, mu_r, lo, hi):
    """Certified bound on the Skellam mass outside [lo, hi]."""
    upper = _skellam_chernoff_upper(mu_t, mu_r, hi + 1)
    lower = _skellam_chernoff_upper(mu_r, mu_t, -(lo - 1))
    return upper + lower


def skellam_window(mu_t, mu_r, tail_tol=DEFAULT_TAIL_TOL):
    """Integer window [lo, hi] around the difference mean with certified tail.

    Returns ``(lo, hi, tail_bound)``.  Both rates must be positive; the
    one-sided degenerate cases are handled by the callers.
    """
    if tail_tol <= 0.0:
        raise NumericsError(
            "a zero tail tolerance cannot be certified on an infinite alphabet"
        )
    mean = mu_t - mu_r
    sig = math.sqrt(mu_t + mu_r)
    half = int(math.ceil(12.0 * sig + 30.0))
    lo = int(math.floor(mean)) - half
    hi = int(math.ceil(mean)) + half
    for _ in range(_WINDOW_GROWTH_STEPS):
        bound = _skellam_tail_bound(mu_t, mu_r, lo, hi)
        if bound <= tail_tol:
            return lo, hi, bound
        half = int(math.ceil(half * 1.5)) + 10
        lo = int(math.floor(mean)) - half
        hi = int(math.ceil(mean)) + half
    raise NumericsError(
        f"cannot certify Skellam tail below {tail_tol:g} for rates "
        f"({mu_t:g}, {mu_r:g})"
    )


def _recurrence_start(mu_t, mu_r, edge):
    """Where the backward recurrence starts, beyond the window edge ``edge``.

    The first index, in steps of about one standard deviation, past which
    the Chernoff tail is below 2^-53 of the tail past the edge, so less than
    2^-53 of the mass lies beyond the padded range.  On the side of the
    larger rate mu_t, a start value R = 0 is wrong by 100 %, and that error
    reaches R_d shrunk by (mu_r / mu_t)^(s - d + 1) P(s) P(s + 1) /
    (P(d - 1) P(d)), where s is the start: about the square of the mass
    ratio between the start and the window, so every ratio in the window is
    exact to rounding.  The other side starts from the mirror identity
    instead (see :func:`_skellam_pmf_recurrence`).
    """
    target = _UNIT_ROUNDOFF * _skellam_chernoff_upper(mu_t, mu_r, edge + 1)
    step = int(math.ceil(math.sqrt(mu_t + mu_r))) + 8
    start = edge + step
    while _skellam_chernoff_upper(mu_t, mu_r, start + 1) > target:
        start += step
    return start


def _backward_ratios(mu_t, mu_r, first, last, start=0.0):
    """Ratios P(d) / P(d - 1) for d = first..last (first >= 1), in order.

    R_d = mu_t / (d + mu_r R_{d+1}), run backward from R_{last+1} = ``start``.
    The terms are positive and each step shrinks the inherited error by
    mu_r R_{d+1} / (d + mu_r R_{d+1}) < 1, so nothing cancels or overflows.
    With the arms swapped the same ratios give P(-d) / P(-d + 1).
    """
    ratios = []
    r = start
    for d in range(last, first - 1, -1):
        r = mu_t / (d + mu_r * r)
        ratios.append(r)
    return np.array(ratios[::-1])


def _skellam_pmf_recurrence(mu_t, mu_r, lo, hi):
    """Skellam pmf on the integers [lo, hi], for mu_t >= mu_r > 0.

    The ratios come from :func:`_backward_ratios`: for d > 0 on the rates as
    given, for d < 0 on the rates swapped.  The negative side does not start
    from 0: with the mode far above 0 its recurrence shrinks errors too slowly
    there (by 1 - d / (mu_t R) a step).  It starts from
    P(-s-1) / P(-s) = (mu_r / mu_t) R_{s+1}, which the positive side gives to
    rounding, because P(-d) = (mu_r / mu_t)^d P(d).  The bins are cumulative
    products of the ratios outward from the mode (where the ratio falls
    below 1), so every factor is at most 1 and the work and the error grow
    with the window, not with its distance from 0.  The law over the padded
    range of :func:`_recurrence_start` is scaled to unit ``math.fsum`` mass,
    and the window is cut from it.  Both sides run the same arithmetic, so
    equal rates give an exactly symmetric law.
    """
    top = _recurrence_start(mu_t, mu_r, hi)
    bottom = -_recurrence_start(mu_r, mu_t, -lo)
    up = _backward_ratios(mu_t, mu_r, max(bottom, 0) + 1, max(top, 1 - bottom))
    above = int(np.count_nonzero(up >= 1.0))  # ratios up to the mode
    down = 1.0 / up[:above][::-1]
    if bottom < 0:
        start = mu_r / mu_t * float(up[-bottom])
        down = np.concatenate((down, _backward_ratios(mu_r, mu_t, 1, -bottom, start)))
    law = np.concatenate(
        (np.cumprod(down)[::-1], [1.0], np.cumprod(up[above:]))
    )
    law /= math.fsum(law)
    return law[lo - bottom:hi - bottom + 1]


def skellam_pmf_grid(mu_t, mu_r, tail_tol=DEFAULT_TAIL_TOL):
    """Skellam pmf of the count difference over a certified window.

    Returns ``(deltas, probs, tail_bound)``.  The law is computed with the
    larger rate on the n arm and reversed otherwise, so the law for
    ``(mu_r, mu_t)`` is the exact mirror of the law for ``(mu_t, mu_r)``.
    A dark arm collapses it to the one-sided Poisson law; otherwise it comes
    from the three-term recurrence (:func:`_skellam_pmf_recurrence`).
    """
    if mu_t < 0.0 or mu_r < 0.0:
        raise ValidationError("rates must be >= 0")
    if mu_t < mu_r:
        deltas, probs, bound = skellam_pmf_grid(mu_r, mu_t, tail_tol)
        return -deltas[::-1], probs[::-1].copy(), bound
    if mu_t == 0.0:
        return np.array([0]), np.array([1.0]), 0.0
    if mu_r == 0.0:
        n_max, bound = poisson_window(mu_t, tail_tol)
        deltas = np.arange(0, n_max + 1)
        return deltas, poisson_pmf(deltas, mu_t), bound
    lo, hi, bound = skellam_window(mu_t, mu_r, tail_tol)
    return np.arange(lo, hi + 1), _skellam_pmf_recurrence(mu_t, mu_r, lo, hi), bound


# ---------------------------------------------------------------------------
# Ideal-homodyne limit
# ---------------------------------------------------------------------------

def homodyne_mean(params: ChannelParams, symbol: int) -> float:
    """Mean of the macroscopic-LO limit of the standardized difference Delta / z.

    In that limit the law is Gaussian with mean +-2*xi*sqrt(T)*alpha and unit
    variance; it serves as the ideal-homodyne reference curve.
    """
    if symbol not in (0, 1):
        raise ValidationError(f"symbol must be 0 or 1, got {symbol}")
    sign = 1.0 if symbol == 1 else -1.0
    return sign * 2.0 * params.visibility * math.sqrt(params.signal_mean)
