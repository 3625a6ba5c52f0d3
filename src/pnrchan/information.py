"""Shannon entropies and the mutual information of the three readouts.

All informations are in bits per channel use.  The symbol <-> outcome mutual
information is H(mixture) - sum_k q_k H(conditional_k), evaluated over
certified truncation windows; the certified window tails are propagated into
an explicit error bound instead of being silently dropped.

Every readout is computed from one certified law: the mirrored
count-difference conditionals of :func:`_hl_conditionals`.  For phase-shift
keying the raw-count readout carries exactly the information of the
difference readout: the count pair is equivalent to the (sum, difference)
pair and the sum factor of the joint law does not depend on the encoded
symbol, so the difference is a sufficient statistic.  The count-pair grid is
kept out of the package; the test suite holds it as an independent oracle,
together with a numerical check of that factorization.
"""

import math
from dataclasses import dataclass

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
    if np.any(p < 0.0):
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


def _mi_error_bound(tails, priors, alphabet_size) -> float:
    """Bound on the MI truncation error from per-conditional window tails."""
    mix_tail = sum(q * t for q, t in zip(priors, tails))
    bound = truncation_error_bound(mix_tail, alphabet_size)
    for q, t in zip(priors, tails):
        bound += q * truncation_error_bound(t, alphabet_size)
    return bound


# ---------------------------------------------------------------------------
# Count-difference law and the readouts derived from it
# ---------------------------------------------------------------------------

def _hl_conditionals(params: ChannelParams, tail_tol):
    """Difference-law conditionals for both symbols on a common window.

    Returns ``(deltas, p0, p1, tail)``.  The symbol-0 law is the exact mirror
    of the symbol-1 law, so it is obtained by reversal rather than recomputed.
    """
    deltas1, p1, tail = skellam_pmf_grid(*detection_rates(params, 1), tail_tol)
    lo1, hi1 = int(deltas1[0]), int(deltas1[-1])
    lo, hi = min(lo1, -hi1), max(hi1, -lo1)
    size = hi - lo + 1
    full1 = np.zeros(size)
    full1[lo1 - lo:hi1 - lo + 1] = p1
    full0 = full1[::-1].copy()
    return np.arange(lo, hi + 1), full0, full1, tail


def _sign_law(law):
    """The two-outcome sign law of each symbol, from a difference law.

    Outcome 0 collects the negative differences and half of the Delta = 0
    mass (the fair tie split); outcome 1 has the complementary probability.
    Returns one array ``[P(0 | k), P(1 | k)]`` per symbol k.
    """
    deltas, p0, p1, _ = law
    neg, zero = deltas < 0, deltas == 0
    splits = (float(p[neg].sum() + 0.5 * p[zero].sum()) for p in (p0, p1))
    return tuple(np.array([b, 1.0 - b]) for b in splits)


def _law_error_bound(priors, law) -> float:
    """Certified MI truncation bound (bits) for the window of ``law``.

    Both conditionals miss the certified tail of the one difference law
    they share, on the alphabet of its window.
    """
    deltas, _, _, tail = law
    return _mi_error_bound((tail, tail), priors, len(deltas))


def _receiver_figures(params: ChannelParams, tail_tol):
    """Build one receiver's difference law and derive its figures from it.

    Returns ``(law, i_diff, i_sign, error_bound)``: the
    :func:`_hl_conditionals` tuple, the MI of the difference readout (which
    is also I_WF), the MI of the sign readout and the certified bound.
    """
    law = _hl_conditionals(params, tail_tol)
    return (
        law,
        mutual_information(law[1:3], params.priors),
        mutual_information(_sign_law(law), params.priors),
        _law_error_bound(params.priors, law),
    )


def mi_wf(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the raw count pair (n, m), in bits.

    Evaluated on the difference alphabet: (n, m) is equivalent to
    (n + m, n - m), and p(n + m | n - m) is the same for both symbols, so the
    difference is a sufficient statistic and I(K; n, m) = I(K; n - m).
    """
    return mutual_information(_hl_conditionals(params, tail_tol)[1:3], params.priors)


def mi_hl(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the count difference Delta = n - m, in bits."""
    return mutual_information(_hl_conditionals(params, tail_tol)[1:3], params.priors)


def mi_bds(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """MI of the symbol vs the sign readout, in bits.

    Aggregated from the same certified difference law as :func:`mi_hl`; for
    equal priors this equals 1 - h2(p_err) of the induced binary symmetric
    channel.
    """
    return mutual_information(_sign_law(_hl_conditionals(params, tail_tol)),
                              params.priors)


# ---------------------------------------------------------------------------
# Ideal homodyne reference
# ---------------------------------------------------------------------------

def _homodyne_mixture_entropy(a0, a1, q0, q1):
    """Differential entropy (bits) of q0 N(a0, 1) + q1 N(a1, 1), with its error.

    Composite trapezoid rule of step 1/16 over [min(a) - 12, max(a) + 12]; for
    this analytic, Gaussian-decaying integrand the rule converges
    exponentially in 1/h (Trefethen & Weideman, SIAM Review 2014), so the gap
    to the rule of step 1/8, about that coarse rule's own error, bounds the
    error of the fine one.  The returned error adds the mass outside the
    interval and the rounding of the sums.
    """
    left = min(a0, a1) - _HOMODYNE_HALF_WIDTH
    # an even number of steps, so that every other node gives the coarse rule
    steps = 2 * math.ceil(0.5 * (max(a0, a1) + _HOMODYNE_HALF_WIDTH - left)
                          / _HOMODYNE_STEP)
    y = left + _HOMODYNE_STEP * np.arange(steps + 1)
    p = (q0 * np.exp(-0.5 * (y - a0) ** 2)
         + q1 * np.exp(-0.5 * (y - a1) ** 2)) * math.exp(-_LN_SQRT_2PI)
    f = -_xlogx(p)
    ends = 0.5 * (f[0] + f[-1])
    fine = _HOMODYNE_STEP * (f.sum() - ends)
    coarse = 2.0 * _HOMODYNE_STEP * (f[::2].sum() - ends)
    # outside the interval the density is at most phi(d), d >= t the distance
    # to the nearer mean, and -x ln x increases on [0, 1/e]: each side adds
    # at most the integral of phi(d) (d^2/2 + ln sqrt(2*pi)) over d > t
    t = _HOMODYNE_HALF_WIDTH
    tail = (t * math.exp(-0.5 * t * t - _LN_SQRT_2PI)
            + (1.0 + 2.0 * _LN_SQRT_2PI) * 0.5 * math.erfc(t / math.sqrt(2.0)))
    rounding = (steps + 4) * np.finfo(float).eps * fine
    return fine / _LN2, (abs(fine - coarse) + tail + rounding) / _LN2


def mi_homodyne(params: ChannelParams) -> float:
    """MI of the macroscopic-LO Gaussian reference channel, in bits.

    Both conditionals are unit-variance Gaussians, so
    MI = h(Y) - (1/2)log2(2*pi*e); h(Y) comes from
    :func:`_homodyne_mixture_entropy`, whose error must stay within
    ``_HOMODYNE_QUAD_TOL``.
    """
    q0, q1 = params.priors
    h_mix_bits, err = _homodyne_mixture_entropy(
        homodyne_mean(params, 0), homodyne_mean(params, 1), q0, q1
    )
    if err > _HOMODYNE_QUAD_TOL:
        raise NumericsError(
            f"homodyne quadrature error {err:.2e} bits exceeds tolerance"
        )
    return h_mix_bits - 0.5 * math.log2(2.0 * math.pi * math.e)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiReport:
    """The MI figures for one parameter set and their certified bound.

    ``i_wf`` is also I_HL: the difference is a sufficient statistic.
    """

    i_wf: float
    i_bds: float
    i_homodyne: float
    error_bound: float


def certified_error_bound(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """Certified bound (bits) on the MI truncation error for these windows."""
    return _law_error_bound(params.priors, _hl_conditionals(params, tail_tol))


def mi_report(params: ChannelParams, tail_tol=DEFAULT_TAIL_TOL) -> MiReport:
    """Every MI figure and its certified bound, from one difference law."""
    _, i_diff, i_sign, bound = _receiver_figures(params, tail_tol)
    return MiReport(
        i_wf=i_diff,
        i_bds=i_sign,
        i_homodyne=mi_homodyne(params),
        error_bound=bound,
    )
