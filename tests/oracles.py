"""Independent oracles for the production laws.

The package computes every readout from the certified count-difference law.
The routes here take the long way round on purpose -- the full count-pair
grid, the four-index joint law of the symbol and both receivers, a
number-basis diagonalization, adaptive quadrature of the homodyne entropy --
so the tests can compare production against something that shares none of
its shortcuts.  They only run at small windows.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from pnrchan import (
    NumericsError,
    ValidationError,
    detection_rates,
    eve_params,
    homodyne_mean,
    mutual_information,
)
from pnrchan.receivers import (
    DEFAULT_TAIL_TOL,
    _skellam_pmf_bessel,
    poisson_pmf,
    poisson_window,
)

_JOINT_CELL_LIMIT = 20_000_000


# ---------------------------------------------------------------------------
# Count-pair grid
# ---------------------------------------------------------------------------

def wf_pmf(params, symbol, tail_tol=DEFAULT_TAIL_TOL):
    """Product-Poisson grid p(n, m | symbol), rows n and columns m.

    Each arm window is certified to half of ``tail_tol``, so the grid misses
    at most ``tail_tol`` of the mass.
    """
    mu_t, mu_r = detection_rates(params, symbol)
    n_max, bound_t = poisson_window(mu_t, 0.5 * tail_tol)
    m_max, bound_r = poisson_window(mu_r, 0.5 * tail_tol)
    if bound_t + bound_r > tail_tol:
        raise NumericsError("count-grid tail certification failed")
    return np.outer(poisson_pmf(np.arange(n_max + 1), mu_t),
                    poisson_pmf(np.arange(m_max + 1), mu_r))


def mi_wf_grid(params, tail_tol=DEFAULT_TAIL_TOL):
    """MI of the symbol vs the raw count pair, summed over the whole grid."""
    grids = [wf_pmf(params, k, tail_tol) for k in (0, 1)]
    shape = np.maximum(grids[0].shape, grids[1].shape)
    padded = [np.pad(g, [(0, shape[0] - g.shape[0]), (0, shape[1] - g.shape[1])])
              for g in grids]
    return mutual_information(padded, params.priors)


class FactorizationCheck(NamedTuple):
    """Residuals of the (sum, difference) factorization of the count-pair law."""

    max_symbol_dependence: float
    max_normalization_deviation: float


def wf_hl_equivalence_check(params, mass_floor=1e-30):
    """Verify that the count-pair law factors through the count difference.

    Rebinned onto (sigma, Delta) = (n + m, n - m), the joint law is
    p(Delta | symbol) * f(sigma, Delta) with the same f for both symbols.
    Returns the largest |f_0 - f_1| over all cells where both difference laws
    carry at least ``mass_floor``, and the largest |sum_sigma f - 1|.
    """
    mu_t, mu_r = detection_rates(params, 1)
    # generous windows so every retained difference bin has full sum coverage
    n_max, _ = poisson_window(mu_t, 1e-18)
    m_max, _ = poisson_window(mu_r, 1e-18)
    w = max(n_max, m_max)
    counts = np.arange(w + 1)
    grid1 = np.outer(poisson_pmf(counts, mu_t), poisson_pmf(counts, mu_r))

    deltas = np.arange(-w, w + 1)
    if mu_r == 0.0:
        hl1 = np.where(deltas >= 0, poisson_pmf(np.abs(deltas), mu_t), 0.0)
    elif mu_t == 0.0:
        hl1 = np.where(deltas <= 0, poisson_pmf(np.abs(deltas), mu_r), 0.0)
    else:
        hl1 = _skellam_pmf_bessel(mu_t, mu_r, deltas)
    hl0 = hl1[::-1]

    max_dep = 0.0
    max_norm = 0.0
    for i, d in enumerate(deltas):
        mass1, mass0 = hl1[i], hl0[i]
        if mass1 < mass_floor or mass0 < mass_floor:
            continue
        # cells with n - m = d: diagonal offset -d of the (n, m) grid holds
        # symbol 1; the transposed grid (offset +d) holds symbol 0
        f1 = np.diagonal(grid1, offset=-int(d)) / mass1
        f0 = np.diagonal(grid1, offset=int(d)) / mass0
        max_dep = max(max_dep, float(np.abs(f1 - f0).max()))
        max_norm = max(
            max_norm, abs(float(f1.sum()) - 1.0), abs(float(f0.sum()) - 1.0)
        )
    return FactorizationCheck(max_symbol_dependence=max_dep,
                              max_normalization_deviation=max_norm)


# ---------------------------------------------------------------------------
# Four-index joint law of the wiretap channel
# ---------------------------------------------------------------------------

def joint_abe_pmf(bob, tail_tol=DEFAULT_TAIL_TOL):
    """Joint law q_k * p_B(n_b, m_b | k) * p_E(n_e, m_e | k).

    Eve is the wiretapper of Bob's channel (``eve_params(bob)``).  Returns an
    array of shape (2, wb+1, wb+1, we+1, we+1) over the symbol, Bob's count
    pair and Eve's count pair, on square windows.
    """
    bob_t, bob_r = detection_rates(bob, 1)
    eve_t, eve_r = detection_rates(eve_params(bob), 1)
    nb, _ = poisson_window(bob_t, 0.25 * tail_tol)
    mb, _ = poisson_window(bob_r, 0.25 * tail_tol)
    ne, _ = poisson_window(eve_t, 0.25 * tail_tol)
    me, _ = poisson_window(eve_r, 0.25 * tail_tol)
    wb, we = max(nb, mb), max(ne, me)
    cells = 2 * (wb + 1) ** 2 * (we + 1) ** 2
    if cells > _JOINT_CELL_LIMIT:
        raise ValidationError(
            f"four-index joint would hold {cells} cells; reduce the rates or "
            "use the difference-based path"
        )
    cb = np.arange(wb + 1)
    ce = np.arange(we + 1)
    grid_b1 = np.outer(poisson_pmf(cb, bob_t), poisson_pmf(cb, bob_r))
    grid_e1 = np.outer(poisson_pmf(ce, eve_t), poisson_pmf(ce, eve_r))
    q0, q1 = bob.priors
    probs = np.empty((2, wb + 1, wb + 1, we + 1, we + 1))
    probs[0] = q0 * np.einsum("ab,cd->abcd", grid_b1.T, grid_e1.T)
    probs[1] = q1 * np.einsum("ab,cd->abcd", grid_b1, grid_e1)
    return probs


# ---------------------------------------------------------------------------
# Number-basis entropy
# ---------------------------------------------------------------------------

def _coherent_number_vector(beta, cutoff):
    """Number-basis coefficients of a real-amplitude coherent state."""
    n = np.arange(cutoff + 1, dtype=float)
    if beta == 0.0:
        v = np.zeros(cutoff + 1)
        v[0] = 1.0
        return v
    log_mag = -0.5 * beta * beta + n * math.log(abs(beta)) - 0.5 * gammaln(n + 1.0)
    signs = np.ones(cutoff + 1) if beta > 0 else (-1.0) ** n
    return signs * np.exp(log_mag)


def fock_entropy_oracle(weights, amplitudes, cutoff):
    """Entropy of a coherent-state mixture by truncated diagonalization.

    Builds the density matrix in the number basis up to ``cutoff``,
    symmetrizes, and diagonalizes.  A trace deficit above 1e-12 means the
    cutoff clipped real state mass and raises :class:`NumericsError`.
    """
    rho = np.zeros((cutoff + 1, cutoff + 1))
    for w, beta in zip(weights, amplitudes):
        v = _coherent_number_vector(float(beta), cutoff)
        rho += w * np.outer(v, v)
    rho = 0.5 * (rho + rho.T)
    deficit = abs(1.0 - float(np.trace(rho)))
    if deficit > 1e-12:
        raise NumericsError(
            f"number-basis cutoff {cutoff} too small: trace deficit {deficit:.2e}"
        )
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-18]
    return float(-(evals * np.log2(evals)).sum())


# ---------------------------------------------------------------------------
# Homodyne reference by adaptive quadrature
# ---------------------------------------------------------------------------

def mi_homodyne_quad(params):
    """``mi_homodyne`` by piecewise adaptive quadrature between the peaks.

    Returns ``(mi_bits, quadrature_error_bits)``.
    """
    q0, q1 = params.priors
    a0 = homodyne_mean(params, 0)
    a1 = homodyne_mean(params, 1)
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def neg_p_log_p(y):
        p = norm * (
            q0 * math.exp(-0.5 * (y - a0) ** 2) + q1 * math.exp(-0.5 * (y - a1) ** 2)
        )
        return 0.0 if p <= 0.0 else -p * math.log(p)

    knots = sorted({min(a0, a1) - 12.0, a0, 0.5 * (a0 + a1), a1, max(a0, a1) + 12.0})
    val = 0.0
    err = 0.0
    for left, right in zip(knots, knots[1:]):
        piece, piece_err = quad(neg_p_log_p, left, right, limit=400,
                                epsabs=1e-12, epsrel=1e-11)
        val += piece
        err += piece_err
    ln2 = math.log(2.0)
    return val / ln2 - 0.5 * math.log2(2.0 * math.pi * math.e), err / ln2
