"""Wiretap-channel security figures for the lossy BPSK link.

The eavesdropper receives exactly the beam fraction lost in transmission
(pure-loss wiretap model) and reads it with an ideal version of the honest
receiver.  All key figures come from one :class:`SecurityReport`.
Individual-attack key rates compare the honest MI with the eavesdropper's MI
in direct (Alice-side) or reverse (Bob-side) reconciliation; collective
attacks replace the eavesdropper's MI with the Holevo information of her
quantum ensemble.  Every figure is derived from the certified count-difference
laws of the two receivers.

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
from .errors import ValidationError
from .information import (
    _hl_conditionals,
    _sign_split,
    binary_entropy,
    mi_bds,
    mi_wf,
    shannon_entropy,
)
from .receivers import DEFAULT_TAIL_TOL

__all__ = [
    "WiretapScenario",
    "SecurityReport",
    "RankTwoState",
    "rank2_entropy",
    "mi_bob_eve",
    "holevo_chi_wf",
    "holevo_chi_bds",
    "security_report",
    "security_report_for",
]

_LN2 = math.log(2.0)
_K_DEFINED_FLOOR = 1e-12


@dataclass(frozen=True)
class WiretapScenario:
    """Honest receiver plus the induced wiretapper, with attack labels.

    ``eve`` is always constructed from ``bob`` (transmissivity 1 - T, unit
    visibility, same LO unless overridden); collective attacks are only
    analyzed in reverse reconciliation.
    """

    bob: ChannelParams
    eve: ChannelParams
    attack: str = "IA"
    reconciliation: str = "RR"

    def __post_init__(self):
        if self.attack not in ("IA", "CA"):
            raise ValidationError(f"attack must be IA or CA, got {self.attack}")
        if self.reconciliation not in ("DR", "RR"):
            raise ValidationError(
                f"reconciliation must be DR or RR, got {self.reconciliation}"
            )
        if self.attack == "CA" and self.reconciliation != "RR":
            raise ValidationError("collective attacks are analyzed for RR only")
        expected = eve_params(self.bob, lo_amplitude=self.eve.lo_amplitude)
        if self.eve != expected:
            raise ValidationError(
                "eve parameters must be derived from bob's (lost fraction, "
                "unit visibility)"
            )

    @classmethod
    def from_bob(cls, bob: ChannelParams, attack="IA", reconciliation="RR",
                 eve_lo_amplitude=None):
        return cls(
            bob=bob,
            eve=eve_params(bob, lo_amplitude=eve_lo_amplitude),
            attack=attack,
            reconciliation=reconciliation,
        )


@dataclass(frozen=True)
class RankTwoState:
    """Statistical mixture of two pure states with known inner product."""

    weights: tuple
    overlap: float

    def __post_init__(self):
        w0, w1 = self.weights
        if w0 < 0.0 or w1 < 0.0 or abs(w0 + w1 - 1.0) > 1e-12:
            raise ValidationError("weights must be nonnegative and sum to 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValidationError(f"overlap must lie in [0, 1], got {self.overlap}")


def rank2_entropy(state: RankTwoState) -> float:
    """Von Neumann entropy in bits via the two-state Gram eigenvalues.

    For rho = w0 |a><a| + w1 |b><b| with |<a|b>| = c the nonzero eigenvalues
    are (1 +- sqrt(1 - 4 w0 w1 (1 - c^2))) / 2, so S(rho) = h2(lambda_plus).
    """
    w0, w1 = state.weights
    c2 = state.overlap * state.overlap
    disc = max(0.0, 1.0 - 4.0 * w0 * w1 * (1.0 - c2))
    lam = 0.5 * (1.0 + math.sqrt(disc))
    return binary_entropy(min(lam, 1.0))


# ---------------------------------------------------------------------------
# Individual attacks
# ---------------------------------------------------------------------------

def mi_bob_eve(scenario: WiretapScenario, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """I(B;E) between the two receivers' outcomes, marginalized over symbols.

    Computed on the difference x difference alphabet: the count pair factors
    as (difference law) x (symbol-independent sum factor), so per-cell
    likelihood ratios -- and hence the MI -- only depend on the differences.
    The test suite checks this reduction against the full four-index joint
    law of the symbol and both count pairs.
    """
    q0, q1 = scenario.bob.priors
    _, b0, b1, _ = _hl_conditionals(scenario.bob, tail_tol)
    _, e0, e1, _ = _hl_conditionals(scenario.eve, tail_tol)
    joint = q0 * np.outer(b0, e0) + q1 * np.outer(b1, e1)
    h_b = shannon_entropy(joint.sum(axis=1))
    h_e = shannon_entropy(joint.sum(axis=0))
    h_be = shannon_entropy(joint.ravel())
    return h_b + h_e - h_be


# ---------------------------------------------------------------------------
# Collective attacks (Holevo information, reverse reconciliation)
# ---------------------------------------------------------------------------

def _eve_overlap(scenario: WiretapScenario) -> float:
    beta_sq = scenario.eve.signal_mean
    return coherent_overlap(beta_sq)


def _eve_total_entropy(scenario: WiretapScenario) -> float:
    q = scenario.bob.priors
    return rank2_entropy(RankTwoState(weights=tuple(q), overlap=_eve_overlap(scenario)))


def _posterior_entropy(weights1, overlap):
    """Vectorized h2 of the top Gram eigenvalue for posterior weights w1."""
    w1 = np.clip(weights1, 0.0, 1.0)
    disc = np.maximum(0.0, 1.0 - 4.0 * w1 * (1.0 - w1) * (1.0 - overlap * overlap))
    lam = 0.5 * (1.0 + np.sqrt(disc))
    lam = np.clip(lam, 0.5, 1.0)
    return (-xlogy(lam, lam) - xlogy(1.0 - lam, 1.0 - lam)) / _LN2


def holevo_chi_wf(scenario: WiretapScenario, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """Holevo information of Eve's ensemble conditioned on Bob's counts.

    chi(B;E) = S(E) - S(E|B).  Because Eve's conditional state given Bob's
    count pair depends on it only through the count difference, S(E|B) is
    averaged over the difference law; each conditional state is a rank-two
    mixture with posterior weights q_k p(Delta|k)/p(Delta).
    """
    q0, q1 = scenario.bob.priors
    overlap = _eve_overlap(scenario)
    _, b0, b1, _ = _hl_conditionals(scenario.bob, tail_tol)
    mix = q0 * b0 + q1 * b1
    mask = mix > 0.0
    w1 = q1 * b1[mask] / mix[mask]
    s_cond = float((mix[mask] * _posterior_entropy(w1, overlap)).sum())
    return _eve_total_entropy(scenario) - s_cond


def holevo_chi_bds(scenario: WiretapScenario, tail_tol=DEFAULT_TAIL_TOL) -> float:
    """Holevo information conditioned on the binary sign readout."""
    q0, q1 = scenario.bob.priors
    overlap = _eve_overlap(scenario)
    sign0_given = np.array(_sign_split(scenario.bob, tail_tol))
    s_cond = 0.0
    for cond in (sign0_given, 1.0 - sign0_given):
        pj = q0 * cond[0] + q1 * cond[1]
        if pj <= 0.0:
            continue
        w1 = q1 * cond[1] / pj
        s_cond += pj * float(_posterior_entropy(np.array([w1]), overlap)[0])
    return _eve_total_entropy(scenario) - s_cond


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityReport:
    """All security figures for one channel condition.

    Normalized informations are ``None`` when the honest MI is below the
    division floor (no information, so no meaningful ratio).
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


def _safe_ratio(delta, denom):
    if denom <= _K_DEFINED_FLOOR:
        return None
    return delta / denom


def security_report(scenario: WiretapScenario, tail_tol=DEFAULT_TAIL_TOL) -> SecurityReport:
    """Compute the full security figure set for a wiretap scenario."""
    i_ab_wf = mi_wf(scenario.bob, tail_tol)
    i_ab_bds = mi_bds(scenario.bob, tail_tol)
    i_ae = mi_wf(scenario.eve, tail_tol)
    i_be = mi_bob_eve(scenario, tail_tol)
    chi_wf = holevo_chi_wf(scenario, tail_tol)
    chi_bds = holevo_chi_bds(scenario, tail_tol)
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
    )


def security_report_for(bob: ChannelParams, eve_lo_amplitude=None,
                        tail_tol=DEFAULT_TAIL_TOL) -> SecurityReport:
    """Security report handling the lossless edge case.

    At unit transmissivity the wiretapper receives vacuum: every Eve figure
    is zero and the normalized informations are 1 (or undefined when the
    honest channel itself carries nothing).
    """
    if bob.transmissivity >= 1.0:
        i_ab_wf = mi_wf(bob, tail_tol)
        i_ab_bds = mi_bds(bob, tail_tol)
        one_wf = 1.0 if i_ab_wf > _K_DEFINED_FLOOR else None
        one_bds = 1.0 if i_ab_bds > _K_DEFINED_FLOOR else None
        return SecurityReport(
            i_ab_wf=i_ab_wf, i_ab_bds=i_ab_bds,
            i_ae_wf=0.0, i_be_wf=0.0, chi_be_wf=0.0, chi_be_bds=0.0,
            delta_ia_dr=i_ab_wf, delta_ia_rr=i_ab_wf,
            delta_ca_wf=i_ab_wf, delta_ca_bds=i_ab_bds,
            k_dr=one_wf, k_rr=one_wf, k_ca_wf=one_wf, k_ca_bds=one_bds,
        )
    scenario = WiretapScenario.from_bob(bob, attack="CA", reconciliation="RR",
                                        eve_lo_amplitude=eve_lo_amplitude)
    return security_report(scenario, tail_tol)
