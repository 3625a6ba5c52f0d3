"""Certified count laws of the hybrid receiver.

Both detector arms count Poisson photons.  Every readout strategy is computed
from the law of the count difference Delta = n - m, which is Skellam and is
evaluated here through the exponentially scaled modified Bessel function of
the first kind in log domain.  The raw count pair carries no more
information than its difference (see :mod:`pnrchan.information`), and the
sign readout is an aggregation of the difference law, so no count-pair grid
is ever built.  The macroscopic-LO Gaussian limit of the standardized
difference serves as the ideal-homodyne reference.

Every law carries an explicit truncation window and a certified tail mass.
Windows default to mean + 12*sigma + 30 and grow until the certificate
(Poisson survival function per arm, Chernoff bound for the difference)
falls below the requested tolerance; failure to certify raises
:class:`~pnrchan.errors.NumericsError`.
"""

import math

import numpy as np
from scipy.special import gammaln, ive, pdtrc

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


# ---------------------------------------------------------------------------
# Poisson pmf, log domain, saddle-point style (no factorial is ever formed)
# ---------------------------------------------------------------------------

def _stirlerr(n):
    """log(n!) - Stirling approximation, for float array n >= 1."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < 16.0
    if small.any():
        ns = n[small]
        out[small] = gammaln(ns + 1.0) - (
            ns * np.log(ns) - ns + 0.5 * np.log(2.0 * np.pi * ns)
        )
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
        out[far] = xf * np.log(xf / mu) + mu - xf
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


def poisson_window(mu, tail_tol=DEFAULT_TAIL_TOL):
    """Smallest rule-based count window [0, n_max] with certified tail.

    Returns ``(n_max, tail_bound)`` where ``tail_bound = P(N > n_max)`` from
    the Poisson survival function.  The base rule mu + 12*sqrt(mu) + 30 is
    grown geometrically if the certificate misses ``tail_tol``.
    """
    if tail_tol <= 0.0:
        raise NumericsError(
            "a zero tail tolerance cannot be certified on an infinite alphabet"
        )
    if mu == 0.0:
        return 0, 0.0
    n_max = int(math.ceil(mu + 12.0 * math.sqrt(mu) + 30.0))
    for _ in range(_WINDOW_GROWTH_STEPS):
        bound = float(pdtrc(n_max, mu))
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


def _log_ive_series(v, x, log_half_x):
    """log(I_v(x) * exp(-x)) by the ascending series, for scalar integer v >= 0.

    Used where the scaled Bessel underflows, which only happens for order far
    above the argument; there the series peaks at small index and a short
    log-domain sum is accurate to a few ulp.  The result can be far below
    log(double tiny) and must stay finite: the pmf prefactor it combines with
    can be just as far above zero at extreme rate ratios.  ``log_half_x`` is
    ln(x/2), passed in because x itself may have underflowed to 0.
    """
    mstar = 0.5 * (-(v + 1.0) + math.sqrt((v + 1.0) ** 2 + x * x))
    n_terms = 2 * int(math.ceil(mstar)) + 30
    m = np.arange(n_terms + 1, dtype=float)
    t = (2.0 * m + v) * log_half_x - gammaln(m + 1.0) - gammaln(m + v + 1.0)
    tm = t.max()
    return float(tm + math.log(np.exp(t - tm).sum()) - x)


def _skellam_pmf_bessel(mu_t, mu_r, deltas):
    """Closed-form Skellam pmf on an integer grid, both rates positive.

    The Bessel argument x = 2*sqrt(mu_t*mu_r) underflows to 0 when the rate
    product does; the series fallback then works from ln(x/2) taken as
    (ln mu_t + ln mu_r) / 2, which stays finite for any positive rates.
    """
    x = 2.0 * math.sqrt(mu_t * mu_r)
    log_t, log_r = math.log(mu_t), math.log(mu_r)
    log_half_x = 0.5 * (log_t + log_r)
    base = -((math.sqrt(mu_t) - math.sqrt(mu_r)) ** 2)
    half_log_ratio = 0.5 * (log_t - log_r)
    logp = base + deltas * half_log_ratio
    scaled = ive(np.abs(deltas).astype(float), x)
    probs = np.zeros(len(deltas))
    ok = scaled > 0.0
    probs[ok] = np.exp(logp[ok] + np.log(scaled[ok]))
    for i in np.nonzero(~ok)[0]:
        # base = -(mu_t + mu_r) + x, so the scaled series slots in directly
        log_iv = _log_ive_series(abs(int(deltas[i])), x, log_half_x)
        lp = base + deltas[i] * half_log_ratio + log_iv
        if lp > -745.0:
            probs[i] = math.exp(lp)
    return probs


def skellam_pmf_grid(mu_t, mu_r, tail_tol=DEFAULT_TAIL_TOL):
    """Skellam pmf of the count difference over a certified window.

    Returns ``(deltas, probs, tail_bound)``.  Degenerate rates collapse to the
    one-sided Poisson law; otherwise the exponentially scaled Bessel closed
    form is used, with a log-domain series fallback where it underflows.
    """
    if mu_t < 0.0 or mu_r < 0.0:
        raise ValidationError("rates must be >= 0")
    if mu_t == 0.0 and mu_r == 0.0:
        return np.array([0]), np.array([1.0]), 0.0
    if mu_r == 0.0:
        n_max, bound = poisson_window(mu_t, tail_tol)
        deltas = np.arange(0, n_max + 1)
        return deltas, poisson_pmf(deltas, mu_t), bound
    if mu_t == 0.0:
        m_max, bound = poisson_window(mu_r, tail_tol)
        deltas = np.arange(-m_max, 1)
        return deltas, poisson_pmf(-deltas, mu_r), bound
    lo, hi, bound = skellam_window(mu_t, mu_r, tail_tol)
    deltas = np.arange(lo, hi + 1)
    return deltas, _skellam_pmf_bessel(mu_t, mu_r, deltas), bound


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
