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

A dark arm is no special case: its difference is the other arm's count,
whose recurrence ratios mu / d are exact, so the same code gives the
Poisson law.

Every law carries an explicit truncation window and a certified tail mass.
Windows default to mean -+ (12*sigma + 30) and grow until the certificate,
the Chernoff bounds of the difference law's two tails, falls below the
requested tolerance; failure to certify raises
:class:`~pnrchan.errors.NumericsError`.  The Poisson evaluators
(:func:`poisson_logpmf`, :func:`poisson_pmf`, :func:`poisson_window`) are
references for the count-pair oracle of the test suite and on no runtime
path.  The module needs numpy alone.
"""

import math

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

# the widest window: 24 sigma + 60 bins at an LO mean of 1.9e9, where a
# one-point sweep peaks at about 85 MB of RSS and a security row at 140 MB
_MAX_WINDOW_BINS = 1 << 20
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_WINDOW_GROWTH_STEPS = 60
_UNIT_ROUNDOFF = 2.0 ** -53
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
# Reference Poisson pmf, log domain, saddle-point style (no factorial is
# ever formed); no runtime path calls it
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

    A reference evaluator, not on the runtime path, which builds every law
    by :func:`skellam_pmf_grid`.  Evaluated through the Stirling-error/deviance decomposition so that no
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
    """Poisson pmf exp(-mu) mu^n / n!, exponentiated from the log form.

    A reference evaluator like :func:`poisson_logpmf`.
    """
    return np.exp(poisson_logpmf(n, mu))


def poisson_window(mu, tail_tol=DEFAULT_TAIL_TOL):
    """Count window [0, n_max] of a Poisson(mu) arm with certified tail.

    Returns ``(n_max, tail_bound)``: the window of :func:`skellam_window`
    for the rates ``(mu, 0)``, whose difference is the count itself.  A
    reference for the count-pair oracle of the test suite; no runtime path
    builds a per-arm window.
    """
    _, n_max, bound = skellam_window(mu, 0.0, tail_tol)
    return n_max, bound


# ---------------------------------------------------------------------------
# Skellam law of the count difference
# ---------------------------------------------------------------------------

def _deviances(v):
    """phi(1 + v) and v - log1p(v) = (1 + v) phi(1 / (1 + v)), for 0 < v < 1/2.

    phi(x) = x ln x - x + 1.  Both are summed from their alternating series,
    the sums over k >= 2 of (-v)^k / (k (k - 1)) and of (-v)^k / k, to a few
    ulp; formed from logarithms they would lose the digits that cancel.
    """
    phi_u = phi_r = 0.0
    power, k = v * v, 2
    while abs(power) > _UNIT_ROUNDOFF * phi_r:
        phi_u += power / (k * (k - 1))
        phi_r += power / k
        power *= -v
        k += 1
    return phi_u, phi_r


def _skellam_chernoff_upper(mu_t, mu_r, d):
    """Chernoff bound on P(Delta >= d) for an integer d, rounded up.

    For a tilt u = 1 + v > 1, P(Delta >= d) <= exp(E) with
    E = mu_t (u - 1) + mu_r (1/u - 1) - d ln u, least where
    2 mu_t u = d + sqrt(d^2 + 4 mu_t mu_r); any u gives a bound, so E is
    taken at the u actually formed.  Near u = 1 the terms of that form are
    of the size of the rates and cancel (at a mean of 1e18 the bound lost
    every digit), so there it is taken in the deviance form

        E = -mu_t phi(u) - mu_r phi(1/u) + (mu_t u - mu_r/u - d) ln u,

    with phi from :func:`_deviances` and mu_t - mu_r - d summed exactly; the
    last factor is zero at the optimum.  For v >= 1/2 no term of the first
    form exceeds a small multiple of |E|.  The exponent is raised by
    2^-53 (64 S + 4), S the sum of the terms' magnitudes, which covers
    their rounding and that of exp.  A bound below the double range reads 0.
    """
    if mu_t == 0.0:  # Delta = -m <= 0
        return 0.0 if d > 0 else 1.0
    disc = math.sqrt(d * d + 4.0 * mu_t * mu_r)
    # 2 mu_t u, in the form that does not cancel for d < 0
    root = d + disc if d >= 0 else 4.0 * mu_t * mu_r / (disc - d)
    excess = 0.5 * root - mu_t  # mu_t v
    if excess <= 0.0:
        return 1.0
    v = excess / mu_t
    if v < 0.5:
        phi_u, phi_r = _deviances(v)
        log_u = math.log1p(v)
        d_hi = float(d)
        gap = math.fsum((mu_t, -mu_r, -d_hi, float(int(d_hi) - d)))
        terms = (-mu_t * phi_u, -mu_r * phi_r / (1.0 + v), gap * log_u,
                 v * (mu_t + mu_r / (1.0 + v)) * log_u)
    else:
        # a subnormal mu_t can overflow v; ln(excess / mu_t) < ln u
        log_u = math.log1p(v) if v < math.inf else math.log(excess) - math.log(mu_t)
        terms = (excess, -mu_r / (1.0 + 1.0 / v), -d * log_u)
    size = sum(abs(t) for t in terms)
    return math.exp(math.fsum(terms) + _UNIT_ROUNDOFF * (64.0 * size + 4.0))


def skellam_window(mu_t, mu_r, tail_tol=DEFAULT_TAIL_TOL):
    """Integer window [lo, hi] around the difference mean with certified tail.

    Returns ``(lo, hi, tail_bound)``.  The base rule mean -+ (12*sigma + 30)
    is grown geometrically until the Chernoff bounds of the two tails
    (:func:`_skellam_chernoff_upper`) sum to at most ``tail_tol``.  A dark
    arm bounds the difference by 0 on its side: the window ends there, and
    that side has no tail.  A window of more than ``_MAX_WINDOW_BINS`` bins
    is refused with a ValidationError before any bound is formed.
    """
    if tail_tol <= 0.0:  # an infinite alphabet leaves every window a tail
        raise NumericsError(
            f"tail tolerance {tail_tol:g} cannot be certified on an infinite "
            "alphabet; it must be > 0"
        )
    mean = mu_t - mu_r
    # a window is wider than its half-width, so a wider one is refused below
    half = int(math.ceil(min(12.0 * math.sqrt(mu_t + mu_r) + 30.0, _MAX_WINDOW_BINS)))
    for _ in range(_WINDOW_GROWTH_STEPS):
        lo = int(math.floor(mean)) - half if mu_r > 0.0 else 0
        hi = int(math.ceil(mean)) + half if mu_t > 0.0 else 0
        if hi - lo + 1 > _MAX_WINDOW_BINS:
            raise ValidationError(f"rates ({mu_t:g}, {mu_r:g}) need a window of more than "
                                  f"{_MAX_WINDOW_BINS} bins, the limit; lower the means")
        bound = (_skellam_chernoff_upper(mu_t, mu_r, hi + 1)
                 + _skellam_chernoff_upper(mu_r, mu_t, 1 - lo))
        if bound <= tail_tol:
            return lo, hi, bound
        half = int(math.ceil(half * 1.5)) + 10
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
    """Skellam pmf on the integers [lo, hi], for mu_t >= mu_r >= 0.

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
    equal rates give an exactly symmetric law.  A dark reflected arm
    (mu_r = 0) ends the law at 0, and its ratios mu_t / d are exact: the
    same products give the Poisson law.
    """
    top = _recurrence_start(mu_t, mu_r, hi)
    bottom = -_recurrence_start(mu_r, mu_t, -lo) if mu_r > 0.0 else 0
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
    Every rate pair, a dark arm included, goes through one window
    (:func:`skellam_window`) and the three-term recurrence
    (:func:`_skellam_pmf_recurrence`).
    """
    if not (0.0 <= mu_t < math.inf and 0.0 <= mu_r < math.inf):
        raise ValidationError(f"rates must be finite and >= 0, got ({mu_t:g}, {mu_r:g})")
    if mu_t < mu_r:
        deltas, probs, bound = skellam_pmf_grid(mu_r, mu_t, tail_tol)
        return -deltas[::-1], probs[::-1].copy(), bound
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
