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
from scipy.special import xlogy

from .channel import ChannelParams, coherent_overlap, eve_params
from .information import (
    _hl_conditionals,
    _receiver_figures,
    _sign_law,
    mutual_information,
    shannon_entropy,
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

def mi_bob_eve(bob_law, eve_law, priors) -> float:
    """I(B;E) between the two receivers' outcomes, marginalized over symbols.

    ``bob_law`` and ``eve_law`` are the receivers' difference laws from
    :func:`~pnrchan.information._hl_conditionals`.  Computed on the
    difference x difference alphabet: the count pair factors as (difference
    law) x (symbol-independent sum factor), so per-cell likelihood ratios --
    and hence the MI -- only depend on the differences.  The test suite
    checks this reduction against the full four-index joint law of the
    symbol and both count pairs.
    """
    q0, q1 = priors
    _, b0, b1, _ = bob_law
    _, e0, e1, _ = eve_law
    joint = q0 * np.outer(b0, e0) + q1 * np.outer(b1, e1)
    h_b = shannon_entropy(joint.sum(axis=1))
    h_e = shannon_entropy(joint.sum(axis=0))
    h_be = shannon_entropy(joint.ravel())
    return h_b + h_e - h_be


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
    return (-xlogy(lam, lam) - xlogy(1.0 - lam, 1.0 - lam)) / _LN2


def _holevo_chi(conditionals, eve: ChannelParams) -> float:
    """chi(B;E) = S(E) - S(E|B) for Bob's outcome law ``conditionals``.

    ``conditionals`` holds p(outcome | k) for k = 0, 1 on a common alphabet.
    Eve's state given Bob's outcome j is a rank-two mixture with posterior
    weight w1 = q1 p(j|1) / p(j); S(E) is the same entropy at w1 = q1.
    """
    q0, q1 = eve.priors
    overlap = coherent_overlap(eve.signal_mean)
    b0, b1 = conditionals
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
        i_be = mi_bob_eve(bob_law, eve_law, bob.priors)
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
