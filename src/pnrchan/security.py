"""Wiretap-channel security figures for the lossy BPSK link.

The eavesdropper receives exactly the beam fraction lost in transmission
(pure-loss wiretap model) and reads it with an ideal version of the honest
receiver.  All key figures come from one :class:`SecurityReport`.
Individual-attack key rates compare the honest MI with the eavesdropper's MI
in direct (Alice-side) or reverse (Bob-side) reconciliation; collective
attacks replace the eavesdropper's MI with the Holevo information of her
quantum ensemble.  Each channel point builds the certified count-difference
law of each receiver once, and every figure is an expectation over the
posteriors of those two laws (see
:func:`~pnrchan.information._receiver_figures`).

Eve's states span a two-dimensional subspace (two opposite coherent
amplitudes), so every von Neumann entropy reduces to the binary entropy of a
Gram-matrix eigenvalue.  The test suite checks that closed form against a
truncated number-basis diagonalization.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ChannelParams, eve_params
from .information import _receiver_figures, _xlogx
from .receivers import DEFAULT_TAIL_TOL

__all__ = [
    "SecurityReport",
    "mi_bob_eve",
    "holevo_chi_wf",
    "holevo_chi_bds",
    "security_report_for",
]

_LN2 = math.log(2.0)
_K_DEFINED_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Individual attacks
# ---------------------------------------------------------------------------

_FIRST_NODES = 33
_REFINE_TOL = 1e-14
_BLOCK = 1 << 15  # cells per kernel block: 256 KiB of float64


def _finite(posterior):
    """A posterior without its entries of infinite ratio, which name the
    symbol: they add only softplus(-inf) = 0 terms, and leave Eve pure."""
    weights, llr = posterior
    keep = np.isfinite(llr)
    return weights[keep], llr[keep]


def _softplus(x):
    return np.logaddexp(0.0, x)


def _eve_mean_softplus(args, eve_weights, eve_llr):
    """G(y) = sum_e e1(e) softplus(y - L_E e) at every y in ``args``.

    Evaluated in blocks of at most ``_BLOCK`` cells, each filled in place
    in one scratch array, so memory stays O(w).
    """
    out = np.empty(len(args))
    rows = max(1, _BLOCK // max(1, len(eve_llr)))
    scratch = np.empty((min(rows, len(args)), len(eve_llr)))
    for i in range(0, len(args), rows):
        chunk = args[i:i + rows]
        block = scratch[:len(chunk)]
        np.subtract(chunk[:, None], eve_llr, out=block)
        np.logaddexp(0.0, block, out=block)
        out[i:i + rows] = block @ eve_weights
    return out


def _chebyshev_nodes(mid, half, n):
    """The n + 1 Chebyshev points of the second kind on [mid - half, mid + half]."""
    return mid + half * np.cos(np.pi * np.arange(n + 1) / n)


def _barycentric(x, nodes, values):
    """Polynomial interpolant through ``values`` at Chebyshev ``nodes``, at ``x``."""
    weights = np.ones(len(nodes))
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    out = np.empty(len(x))
    rows = max(1, _BLOCK // len(nodes))
    scratch = np.empty((min(rows, len(x)), len(nodes)))
    for i in range(0, len(x), rows):
        chunk = x[i:i + rows]
        terms = scratch[:len(chunk)]
        np.subtract(chunk[:, None], nodes, out=terms)
        hit = terms == 0.0
        terms[hit] = 1.0
        np.divide(weights, terms, out=terms)
        block = (terms @ values) / terms.sum(axis=1)
        on_node = hit.any(axis=1)
        block[on_node] = values[hit[on_node].argmax(axis=1)]
        out[i:i + rows] = block
    return out


def _weighted_eve_mean_softplus(args, weights, eve_weights, eve_llr):
    """sum_i weights_i G(args_i), interpolating G where that is cheaper.

    G is analytic, and Eve's law smooths it further, so it is sampled on
    nested Chebyshev levels (n -> 2n intervals reuses every value) and
    interpolated barycentrically at Bob's arguments.  Each refinement
    measures the coarser interpolant's error at the new nodes, weights each
    miss by Bob's mass nearest that node, and stops when that estimate is
    below ``_REFINE_TOL`` nats; the finer interpolant is then used.  A level
    is only computed while it holds at most a third as many nodes as there
    are arguments, so a refinement that fails costs at most a third of the
    direct sum it falls back to, and small windows go direct at once.
    """
    lo, hi = float(args.min()), float(args.max())
    n = _FIRST_NODES - 1
    if hi > lo and 3 * (2 * n + 1) <= len(args):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        theta = np.arccos(np.clip((args - mid) / half, -1.0, 1.0))
        values = _eve_mean_softplus(_chebyshev_nodes(mid, half, n), eve_weights, eve_llr)
        while 3 * (2 * n + 1) <= len(args):
            n *= 2
            nodes = _chebyshev_nodes(mid, half, n)
            fresh = _eve_mean_softplus(nodes[1::2], eve_weights, eve_llr)
            miss = np.abs(_barycentric(nodes[1::2], nodes[::2], values) - fresh)
            # new node j sits at theta = (2j + 1) pi / n, mid-cell in theta
            nearest = np.minimum((theta * (n / (2.0 * math.pi))).astype(int), n // 2 - 1)
            estimate = float(miss @ np.bincount(nearest, weights=weights, minlength=n // 2))
            merged = np.empty(n + 1)
            merged[::2], merged[1::2] = values, fresh
            values = merged
            if estimate <= _REFINE_TOL:
                return float(weights @ _barycentric(args, nodes, values))
    return float(weights @ _eve_mean_softplus(args, eve_weights, eve_llr))


def mi_bob_eve(priors, bob_posteriors, eve_posteriors) -> float:
    """I(B;E) between the two receivers' outcomes, marginalized over symbols.

    Of the receivers' posteriors (see ``information._receiver_figures``)
    the difference readout's is used: the count pair says nothing more about
    the other receiver.  B and E are independent given the symbol K, so

        I(B;E) = H(K) - H(K|B) - H(K|E) + H(K|B,E),

    four terms of at most one bit each.  The posterior log-odds of K given
    (b, e) is c + x_B(b) + x_E(e), with c = ln(q1/q0) and each receiver's
    log-likelihood ratios x, so with the mirror laws every conditional
    entropy is a sum of softplus terms over symbol 1 alone.  H(K|B) and
    H(K|E) cost O(w).  The only coupling, H(K|B,E), is Bob's average of
    G(+-c - x_B(b)) for one function G of Eve's law, evaluated by
    :func:`_weighted_eve_mean_softplus` in O(N w) time and O(N + w) memory
    for N Chebyshev nodes.  Nothing of size w_B x w_E is built.  It is
    exactly 0 when either receiver's laws coincide or a prior is 0.
    """
    q0, q1 = priors
    bob, eve = bob_posteriors[0], eve_posteriors[0]
    if not bob[1].any() or not eve[1].any() or q0 == 0.0 or q1 == 0.0:
        return 0.0
    c = math.log(q1 / q0)
    bob_weights, bob_llr = _finite(bob)
    eve_weights, eve_llr = _finite(eve)
    if c == 0.0:
        args, weights = -bob_llr, bob_weights
    else:
        args = np.concatenate((-c - bob_llr, c - bob_llr))
        weights = np.concatenate((q1 * bob_weights, q0 * bob_weights))
    h_k = -(q0 * math.log(q0) + q1 * math.log(q1))
    h_k_e = float(np.dot((q1, q0),
                         _eve_mean_softplus(np.array((-c, c)), eve_weights, eve_llr)))
    if len(args) == 0:
        return (h_k - h_k_e) / _LN2
    h_k_b = float(weights @ _softplus(args))
    h_k_be = _weighted_eve_mean_softplus(args, weights, eve_weights, eve_llr)
    return (h_k - h_k_b - h_k_e + h_k_be) / _LN2


# ---------------------------------------------------------------------------
# Collective attacks (Holevo information, reverse reconciliation)
# ---------------------------------------------------------------------------

def _rank_two_entropy(log_odds, amplitude_sq):
    """Entropy (nats) of w0|-beta><-beta| + w1|+beta><+beta|, vectorized.

    ``log_odds`` is t = ln(w1 / w0).  With c = <-beta|+beta> = exp(-2 beta^2)
    the eigenvalues are (1 +- sqrt(1 - x)) / 2, x = 4 w0 w1 (1 - c^2) and
    4 w0 w1 = 1 / cosh^2(t / 2); the smaller is x / (2 (1 + sqrt(1 - x))),
    1 - c^2 is -expm1(-4 beta^2) and the larger one's term a log1p, so
    nothing cancels.  At infinite t, cosh overflows and the entropy is 0.
    """
    with np.errstate(over="ignore"):
        x = -math.expm1(-4.0 * amplitude_sq) / np.cosh(0.5 * np.asarray(log_odds)) ** 2
    small = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    return -_xlogx(small) - (1.0 - small) * np.log1p(-small)


def _holevo_chi(posterior, eve: ChannelParams) -> float:
    """chi(B;E) = S(E) - S(E|B), in bits, for one of Bob's readouts.

    Eve's state given an entry of ``posterior`` (ratio x, sent symbol k) is
    the rank-two mixture at log-odds c_k + x, c_1 = -c_0 = ln(q1/q0); S(E)
    is its entropy at c_1.  chi is exactly 0 when Bob's laws coincide or a
    prior is 0, where a truncated law would leave S(E) times its tail.
    """
    q0, q1 = eve.priors
    if q0 == 0.0 or q1 == 0.0 or not posterior[1].any():
        return 0.0
    weights, llr = _finite(posterior)
    c = math.log(q1 / q0)

    def held(c_k):
        return float(weights @ _rank_two_entropy(c_k + llr, eve.signal_mean))

    s_cond = held(c) if c == 0.0 else q1 * held(c) + q0 * held(-c)
    return (float(_rank_two_entropy(c, eve.signal_mean)) - s_cond) / _LN2


def holevo_chi_wf(bob_posteriors, eve: ChannelParams) -> float:
    """Holevo information of Eve's ensemble conditioned on Bob's counts,
    through their difference, on which alone her conditional state depends."""
    return _holevo_chi(bob_posteriors[0], eve)


def holevo_chi_bds(bob_posteriors, eve: ChannelParams) -> float:
    """Holevo information conditioned on Bob's binary sign readout."""
    return _holevo_chi(bob_posteriors[1], eve)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityReport:
    """All security figures for one channel condition.

    Normalized informations are ``None`` when the honest MI is below the
    division floor (no information, so no meaningful ratio).  The field
    order is the column order of the security table; ``error_bound`` is the
    certified truncation bound on the honest MI (its ``trunc_err`` column).
    """

    i_ab_wf: float
    i_ab_bds: float
    i_ae_wf: float
    i_be_wf: float
    chi_be_wf: float
    chi_be_bds: float
    delta_ia_dr: float
    delta_ia_rr: float
    delta_ca_wf: float
    delta_ca_bds: float
    k_dr: Optional[float]
    k_rr: Optional[float]
    k_ca_wf: Optional[float]
    k_ca_bds: Optional[float]
    error_bound: float


def _safe_ratio(delta, denom):
    if denom <= _K_DEFINED_FLOOR:
        return None
    return delta / denom


def security_report_for(bob: ChannelParams, eve_lo_amplitude=None,
                        tail_tol=DEFAULT_TAIL_TOL) -> SecurityReport:
    """All security figures of one channel point, from one law per receiver.

    Eve collects the lost fraction with unit visibility and Bob's LO unless
    ``eve_lo_amplitude`` is given.  At unit transmissivity she receives
    vacuum: every Eve figure is zero and the normalized informations are 1
    (or undefined when the honest channel itself carries nothing).
    """
    bob_posteriors, i_ab_wf, i_ab_bds, bound = _receiver_figures(bob, tail_tol)
    if bob.transmissivity >= 1.0:
        i_ae = i_be = chi_wf = chi_bds = 0.0
    else:
        eve = eve_params(bob, lo_amplitude=eve_lo_amplitude)
        eve_posteriors, i_ae, _, _ = _receiver_figures(eve, tail_tol)
        i_be = mi_bob_eve(bob.priors, bob_posteriors, eve_posteriors)
        chi_wf = holevo_chi_wf(bob_posteriors, eve)
        chi_bds = holevo_chi_bds(bob_posteriors, eve)
    d_dr = i_ab_wf - i_ae
    d_rr = i_ab_wf - i_be
    d_ca_wf = i_ab_wf - chi_wf
    d_ca_bds = i_ab_bds - chi_bds
    return SecurityReport(
        i_ab_wf=i_ab_wf,
        i_ab_bds=i_ab_bds,
        i_ae_wf=i_ae,
        i_be_wf=i_be,
        chi_be_wf=chi_wf,
        chi_be_bds=chi_bds,
        delta_ia_dr=d_dr,
        delta_ia_rr=d_rr,
        delta_ca_wf=d_ca_wf,
        delta_ca_bds=d_ca_bds,
        k_dr=_safe_ratio(d_dr, i_ab_wf),
        k_rr=_safe_ratio(d_rr, i_ab_wf),
        k_ca_wf=_safe_ratio(d_ca_wf, i_ab_wf),
        k_ca_bds=_safe_ratio(d_ca_bds, i_ab_bds),
        error_bound=bound,
    )
