"""Wiretap-channel security figures for the lossy BPSK link.

The eavesdropper receives exactly the beam fraction lost in transmission
(pure-loss wiretap model) and reads it with an ideal version of the honest
receiver.  All key figures come from one :class:`SecurityReport`.
Individual-attack key rates compare the honest MI with the eavesdropper's MI
in direct (Alice-side) or reverse (Bob-side) reconciliation; collective
attacks replace the eavesdropper's MI with the Holevo information of her
quantum ensemble.  Each channel point builds the certified count-difference
law of each receiver once, and every figure is derived from those two laws.

Eve's states span a two-dimensional subspace (two opposite coherent
amplitudes), so every von Neumann entropy reduces to the binary entropy of a
Gram-matrix eigenvalue.  The test suite checks that closed form against a
truncated number-basis diagonalization.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ChannelParams, coherent_overlap, detection_rates, eve_params
from .information import (
    _hl_conditionals,
    _receiver_figures,
    _sign_law,
    _xlogx,
    mutual_information,
)
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
_BLOCK = 1 << 18


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
    return math.log(mu_t) - math.log(mu_r)


def _llr_support(law, slope):
    """Symbol-1 weights and log-likelihood ratios of the bins that count.

    A bin without symbol-1 mass adds nothing (the symbol-0 law is reached
    through the mirror), and a one-sided law's +inf ratios only feed
    softplus(-inf) = 0 terms, so both are dropped.
    """
    deltas, _, p1, _ = law
    llr = np.zeros(len(deltas))
    nonzero = deltas != 0
    llr[nonzero] = slope * deltas[nonzero]
    keep = (p1 > 0.0) & np.isfinite(llr)
    return p1[keep], llr[keep]


def _softplus(x):
    return np.logaddexp(0.0, x)


def _eve_mean_softplus(args, eve_weights, eve_llr):
    """G(y) = sum_e e1(e) softplus(y - L_E e) at every y in ``args``.

    Evaluated in blocks of at most ``_BLOCK`` cells, so memory stays O(w).
    """
    out = np.empty(len(args))
    rows = max(1, _BLOCK // max(1, len(eve_llr)))
    for i in range(0, len(args), rows):
        out[i:i + rows] = _softplus(args[i:i + rows, None] - eve_llr) @ eve_weights
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
    for i in range(0, len(x), rows):
        diff = x[i:i + rows, None] - nodes
        hit = diff == 0.0
        diff[hit] = 1.0
        terms = weights / diff
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


def mi_bob_eve(bob: ChannelParams, bob_law, eve: ChannelParams, eve_law) -> float:
    """I(B;E) between the two receivers' outcomes, marginalized over symbols.

    ``bob_law`` and ``eve_law`` are the receivers' difference laws from
    :func:`~pnrchan.information._hl_conditionals`; the count pair carries
    nothing more about the other receiver than its difference.  B and E are
    independent given the symbol K, so

        I(B;E) = H(K) - H(K|B) - H(K|E) + H(K|B,E),

    four terms of at most one bit each.  The posterior log-odds of K given
    (b, e) is c + L_B b + L_E e, with c = ln(q1/q0) and each receiver's L
    from :func:`_llr_slope`, so with the mirror laws every conditional
    entropy is a sum of softplus terms over symbol 1 alone.  H(K|B) and
    H(K|E) cost O(w).  The only coupling, H(K|B,E), is Bob's average of
    G(+-c - L_B b) for one function G of Eve's law, evaluated by
    :func:`_weighted_eve_mean_softplus` in O(N w) time and O(N + w) memory
    for N Chebyshev nodes.  Nothing of size w_B x w_E is built.  The result is exactly 0 when either
    receiver's laws coincide or a prior is 0.  The test suite checks it
    against the dense joint law and an exactly summed reference.
    """
    q0, q1 = bob.priors
    slope_b, slope_e = _llr_slope(bob), _llr_slope(eve)
    if slope_b == 0.0 or slope_e == 0.0 or q0 == 0.0 or q1 == 0.0:
        return 0.0
    c = math.log(q1 / q0)
    bob_weights, bob_llr = _llr_support(bob_law, slope_b)
    eve_weights, eve_llr = _llr_support(eve_law, slope_e)
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

def _posterior_entropy(weights1, overlap):
    """Entropy (bits) of (1 - w1)|-beta><-beta| + w1|+beta><+beta|, vectorized.

    For two pure states with |<a|b>| = c the nonzero eigenvalues are
    (1 +- sqrt(1 - 4 w0 w1 (1 - c^2))) / 2, so the entropy is h2(lambda_plus).
    """
    w1 = np.clip(weights1, 0.0, 1.0)
    disc = np.maximum(0.0, 1.0 - 4.0 * w1 * (1.0 - w1) * (1.0 - overlap * overlap))
    lam = 0.5 * (1.0 + np.sqrt(disc))
    lam = np.clip(lam, 0.5, 1.0)
    return (-_xlogx(lam) - _xlogx(1.0 - lam)) / _LN2


def _holevo_chi(conditionals, eve: ChannelParams) -> float:
    """chi(B;E) = S(E) - S(E|B) for Bob's outcome law ``conditionals``.

    ``conditionals`` holds p(outcome | k) for k = 0, 1 on a common alphabet.
    Eve's state given Bob's outcome j is a rank-two mixture with posterior
    weight w1 = q1 p(j|1) / p(j); S(E) is the same entropy at w1 = q1.
    When Bob's outcome law does not depend on the symbol, chi is exactly 0.
    """
    b0, b1 = conditionals
    if np.array_equal(b0, b1):
        return 0.0
    q0, q1 = eve.priors
    overlap = coherent_overlap(eve.signal_mean)
    mix = q0 * b0 + q1 * b1
    mask = mix > 0.0
    w1 = q1 * b1[mask] / mix[mask]
    s_cond = float((mix[mask] * _posterior_entropy(w1, overlap)).sum())
    return float(_posterior_entropy(q1, overlap)) - s_cond


def holevo_chi_wf(bob_law, eve: ChannelParams) -> float:
    """Holevo information of Eve's ensemble conditioned on Bob's counts.

    Eve's conditional state given Bob's count pair depends on it only
    through the count difference, so S(E|B) is averaged over Bob's
    difference law ``bob_law``.
    """
    return _holevo_chi(bob_law[1:3], eve)


def holevo_chi_bds(bob_law, eve: ChannelParams) -> float:
    """Holevo information conditioned on Bob's binary sign readout."""
    return _holevo_chi(_sign_law(bob_law), eve)


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
    bob_law, i_ab_wf, i_ab_bds, bound = _receiver_figures(bob, tail_tol)
    if bob.transmissivity >= 1.0:
        i_ae = i_be = chi_wf = chi_bds = 0.0
    else:
        eve = eve_params(bob, lo_amplitude=eve_lo_amplitude)
        eve_law = _hl_conditionals(eve, tail_tol)
        i_ae = mutual_information(eve_law[1:3], eve.priors)
        i_be = mi_bob_eve(bob, bob_law, eve, eve_law)
        chi_wf = holevo_chi_wf(bob_law, eve)
        chi_bds = holevo_chi_bds(bob_law, eve)
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
