"""Shannon entropies and the mutual information of the readouts.

All informations are in bits per channel use, with an explicit error bound.
Every analytic figure is the mean of :func:`_information` over one
posterior per readout, built from symbol 1's law alone (symbol 0's is its
mirror): a certified count-difference law with the slope of
:func:`_llr_slope` (:func:`_posterior`), or for the ideal homodyne a unit
Gaussian on fixed trapezoid nodes (:func:`_homodyne_information`).  For
phase-shift keying the count pair carries exactly the information of its
difference: the pair is equivalent to (sum, difference), and the law of the
sum given the difference does not depend on the symbol.  The count-pair
grid and the padded mirror laws are oracles of the test suite, with a
numerical check of that factorization; :func:`mutual_information` and
:func:`shannon_entropy` serve the plug-in estimates of sampled laws.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, detection_rates
from .errors import NumericsError, ValidationError
from .receivers import (
    _LN_SQRT_2PI,
    DEFAULT_TAIL_TOL,
    homodyne_mean,
    skellam_pmf_grid,
)

__all__ = [
    "MiReport",
    "shannon_entropy",
    "binary_entropy",
    "mutual_information",
    "mi_wf",
    "mi_hl",
    "mi_bds",
    "mi_homodyne",
    "mi_report",
    "certified_error_bound",
]

_LN2 = math.log(2.0)
_HOMODYNE_QUAD_TOL = 1e-9
_HOMODYNE_STEP = 1.0 / 16.0
_HOMODYNE_HALF_WIDTH = 12.0


def _xlogx(p):
    """p ln p elementwise for an array p >= 0, with 0 ln 0 = 0."""
    return p * np.log(p, out=np.zeros_like(p), where=p > 0.0)


def _softplus(x, out=None):
    """softplus(x) = ln(1 + e^x) elementwise, as max(x, 0) + log1p(exp(-|x|)).

    Formed with numpy's vectorized ``exp`` and ``log1p``: its own ufunc for
    ln(e^a + e^b) is a scalar loop, about 7 times slower.  Exact at +-inf
    (inf and 0) and without a warning anywhere.  With ``out`` given the
    result is formed in it, and ``x``, a float64 array, serves as scratch:
    it is left holding max(x, 0).  Without it ``x`` is not touched.
    """
    if out is None:
        x = np.array(x, dtype=float)
        out = np.empty_like(x)
    # not copysign(x, -1): its loop is code no other step pages in (64 KiB of RSS)
    np.negative(np.abs(x, out=out), out=out)
    np.log1p(np.exp(out, out=out), out=out)
    return np.add(out, np.maximum(x, 0.0, out=x), out=out)


def shannon_entropy(dist) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0*log(0) = 0.

    Accepts any array-like of nonnegative weights summing to at most 1 (a
    truncated distribution is fine; the missing tail simply contributes no
    entropy here -- see :func:`truncation_error_bound` for the certified
    correction).
    """
    p = np.asarray(dist, dtype=float)
    if p.size == 0:
        raise ValidationError("empty distribution")
    if not np.all(p >= 0.0):
        raise ValidationError("distribution entries must be >= 0")
    if p.sum() > 1.0 + 1e-9:
        raise ValidationError(f"distribution mass {p.sum()} exceeds 1")
    return float(-_xlogx(p).sum() / _LN2) + 0.0  # a point mass sums to -0.0


def binary_entropy(p: float) -> float:
    """Entropy of a coin with bias p, in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability must lie in [0, 1], got {p}")
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0) / _LN2


def mutual_information(conditionals, priors=(0.5, 0.5)) -> float:
    """MI of a symbol -> outcome channel from its conditional distributions.

    ``conditionals`` is a sequence of same-shape arrays p(outcome | symbol);
    the mixture is formed with ``priors`` on the identical outcome grid.
    Conditionals that all equal the first give exactly 0: their mixture is
    that law, though ``q * p`` rounds where ``p`` is subnormal.
    """
    ps = [np.asarray(p, dtype=float) for p in conditionals]
    if len(ps) != len(priors):
        raise ValidationError("need one conditional per prior")
    if not (all(q >= 0.0 for q in priors) and abs(math.fsum(priors) - 1.0) <= 1e-12):
        raise ValidationError(f"priors must be finite, nonnegative and sum to 1, got {priors}")
    h_cond = sum(q * shannon_entropy(p) for q, p in zip(priors, ps))
    if all(np.array_equal(p, ps[0]) for p in ps[1:]):
        return 0.0
    mix = sum(q * p for q, p in zip(priors, ps))
    return shannon_entropy(mix) - h_cond


def truncation_error_bound(tail_mass: float, alphabet_size: int) -> float:
    """Certified entropy error (bits) from discarding ``tail_mass``.

    Standard continuity bound: mass eps missing from a law supported on K
    outcomes shifts the entropy by at most eps*log2(K) + h2(eps).
    """
    eps = min(max(tail_mass, 0.0), 0.5)
    if eps == 0.0:
        return 0.0
    k = max(int(alphabet_size), 2)
    return eps * math.log2(k) + binary_entropy(eps)


# ---------------------------------------------------------------------------
# One posterior per readout, from the symbol-1 difference law
# ---------------------------------------------------------------------------

def _llr_slope(params: ChannelParams) -> float:
    """L = ln(mu_t / mu_r), the symbol log-likelihood ratio per unit of Delta.

    The symbol laws are mirrors, so p(Delta | 1) / p(Delta | 0) is exactly
    exp(L * Delta).  L is 0 when the two laws coincide and +inf when symbol 1
    leaves the reflected arm dark (one-sided laws).
    """
    mu_t, mu_r = detection_rates(params, 1)
    if mu_t == mu_r:
        return 0.0
    if mu_r == 0.0:
        return math.inf
    gap = (mu_t - mu_r) / mu_r  # the difference is exact where the rates are close
    return math.log1p(gap) if gap < math.inf else math.log(mu_t) - math.log(mu_r)


def _sign_split(deltas, p1) -> float:
    """P(sign outcome -1 | symbol 1): the negative differences and half of
    the Delta = 0 mass (the fair tie split)."""
    return float(p1[deltas < 0].sum() + 0.5 * p1[deltas == 0].sum())


def _posterior(outcomes, p1, slope):
    """``(weights, llr)`` of one readout: p(o | 1) and ``slope * o`` (0 at
    o = 0) over the outcomes o with mass.

    Symbol 0's law is the mirror p(o | 0) = p(-o | 1), so outcome o stands
    for the joint entries (1, o) and (0, -o) of weights q1 p(o | 1) and
    q0 p(o | 1), both of log-likelihood ratio ``slope * o`` toward the sent
    symbol.
    """
    keep = p1 > 0.0
    outcomes, weights = outcomes[keep], p1[keep]
    llr = np.zeros(len(weights))
    nonzero = outcomes != 0
    llr[nonzero] = slope * outcomes[nonzero]
    return weights, llr


def _information(priors, posterior) -> float:
    """I(K; outcome) in bits: the mean over the joint law of ln(post_k / q_k).

    An entry of ratio x toward its sent symbol k has
    ln(post_k / q_k) = -log1p(q_(1-k) expm1(-x)), good to a few ulp
    relative; where expm1 overflows, softplus(-c_k) - softplus(-c_k - x),
    with c_k = ln(q_k / q_(1-k)), takes over.  An entry of infinite ratio
    names its symbol: ln(1 / q_k).  Exactly 0 when a prior or every ratio is.
    """
    weights, llr = posterior
    q0, q1 = priors
    if q0 == 0.0 or q1 == 0.0 or not llr.any():
        return 0.0
    with np.errstate(over="ignore"):
        shrink = np.expm1(-llr)
    huge = np.isinf(shrink)

    def mean_density(q, other):
        density = -np.log1p(other * shrink)
        if huge.any():
            c = math.log(q / other)
            density[huge] = _softplus(-c) - _softplus(-c - llr[huge])
        return float(weights @ density)

    if q0 == q1:  # both symbols' entries have the same density
        return mean_density(q1, q0) / _LN2
    return (q1 * mean_density(q1, q0) + q0 * mean_density(q0, q1)) / _LN2


def _receiver_figures(params: ChannelParams, tail_tol):
    """Build one receiver's law and derive its posteriors and figures from it.

    Returns ``((difference, sign), i_diff, i_sign, error_bound)``; I_WF is
    i_diff.  The sign readout is the same mirror law on the outcomes -1, +1:
    symbol 1 gives -1 with probability b = :func:`_sign_split` (exactly 1/2
    when the symbol laws coincide), so its slope is ln((1 - b) / b).  Both
    symbols' laws miss the certified tail of the law they share, on the
    mirrored window's alphabet, so the MI bound is twice the entropy bound.
    """
    deltas, p1, tail = skellam_pmf_grid(*detection_rates(params, 1), tail_tol)
    slope = _llr_slope(params)
    b = _sign_split(deltas, p1) if slope else 0.5
    posteriors = (_posterior(deltas, p1, slope),
                  _posterior(np.array((-1, 1)), np.array((b, 1.0 - b)),
                             math.inf if b == 0.0 else math.log((1.0 - b) / b)))
    lo, hi = int(deltas[0]), int(deltas[-1])
    return (posteriors, *(_information(params.priors, p) for p in posteriors),
            2.0 * truncation_error_bound(tail, max(hi, -lo) - min(lo, -hi) + 1))


def mi_wf(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the raw count pair (n, m), in bits.

    Evaluated on the difference alphabet: (n, m) is equivalent to
    (n + m, n - m), and p(n + m | n - m) is the same for both symbols, so the
    difference is a sufficient statistic and I(K; n, m) = I(K; n - m).
    """
    return _receiver_figures(params, tail_tol)[1]


def mi_hl(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the count difference Delta = n - m, in bits."""
    return _receiver_figures(params, tail_tol)[1]


def mi_bds(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the sign readout, in bits.

    Aggregated from the same certified difference law as :func:`mi_hl`; for
    equal priors this equals 1 - h2(p_err) of the induced binary symmetric
    channel.
    """
    return _receiver_figures(params, tail_tol)[2]


# ---------------------------------------------------------------------------
# Ideal homodyne reference
# ---------------------------------------------------------------------------

def _homodyne_information(params: ChannelParams):
    """I(K; Y) in bits of the ideal homodyne channel, with its error.

    Y given symbol 1 is N(a, 1), a = :func:`homodyne_mean`, and symbol 0's
    law is its mirror, so :func:`_information` takes symbol 1's law alone:
    at the offset t the ratio is x = 2a(a + t).  The nodes are t = -12 ... 12
    in steps of 1/16, whatever a, with trapezoid weights h phi(t).  For this
    Gaussian-decaying integrand the rule converges exponentially in 1/h
    (Trefethen & Weideman, SIAM Review 2014), so the gap to the rule on every
    other node bounds the fine rule's error.  The error adds the law off the
    nodes and the rounding of the weighted sums.
    """
    a = homodyne_mean(params, 1)
    half = round(_HOMODYNE_HALF_WIDTH / _HOMODYNE_STEP)
    t = _HOMODYNE_STEP * np.arange(-half, half + 1)
    w = _HOMODYNE_STEP * np.exp(-0.5 * t * t - _LN_SQRT_2PI)
    w[[0, -1]] *= 0.5
    with np.errstate(over="ignore"):  # an infinite ratio names its symbol
        x = 2.0 * a * (a + t)
    fine = _information(params.priors, (w, x))
    coarse = _information(params.priors, (2.0 * w[::2], x[::2]))
    # ln(post_k / q_k) lies in [0, ln(1 / q_k)] where x >= 0, so their mean
    # over k is at most 1 bit, and in [x, 0) where x < 0, which off the nodes
    # happens only for t < -max(a, 12): there |x| <= 2a|t|, and the
    # integral of |t| phi(t) over t < -m is phi(m)
    m = max(a, _HOMODYNE_HALF_WIDTH)
    tail = (math.erfc(_HOMODYNE_HALF_WIDTH / math.sqrt(2.0))
            + 2.0 * a * math.exp(-0.5 * m * m - _LN_SQRT_2PI) / _LN2)
    # each sum is off by at most gamma_n sum w |ln(post_k / q_k)|; the
    # negative terms enter that sum twice, and each is at most |x|
    neg = x < 0.0
    magnitude = fine + 2.0 * float(w[neg] @ -x[neg]) / _LN2
    rounding = (len(w) + 8) * np.finfo(float).eps * magnitude
    return fine, abs(fine - coarse) + tail + rounding


def mi_homodyne(params: ChannelParams) -> float:
    """MI of the macroscopic-LO Gaussian reference channel, in bits, from
    :func:`_homodyne_information`, whose error must stay within
    ``_HOMODYNE_QUAD_TOL``."""
    bits, err = _homodyne_information(params)
    if err > _HOMODYNE_QUAD_TOL:
        raise NumericsError(
            f"homodyne quadrature error {err:.2e} bits exceeds tolerance"
        )
    return bits


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

class MiReport(NamedTuple):
    """The MI figures for one parameter set and their certified bound.

    ``i_wf`` is also I_HL: the difference is a sufficient statistic.
    """

    i_wf: float
    i_bds: float
    i_homodyne: float
    error_bound: float


def certified_error_bound(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """Certified bound (bits) on the MI truncation error for these windows."""
    return _receiver_figures(params, tail_tol)[3]


def mi_report(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> MiReport:
    """Every MI figure and its certified bound, from one difference law."""
    _, i_diff, i_sign, bound = _receiver_figures(params, tail_tol)
    return MiReport(
        i_wf=i_diff,
        i_bds=i_sign,
        i_homodyne=mi_homodyne(params),
        error_bound=bound,
    )
