"""Independent oracles for the production laws.

The package computes every readout from the certified count-difference law.
The routes here take the long way round on purpose -- the Skellam law from
scipy's scaled Bessel function and as an mpmath Poisson convolution, both
symbols' difference laws padded onto one mirrored window and the figures
summed from them as mixture entropies, the full count-pair grid, the four-index joint law of the symbol and both
receivers, the dense Bob x Eve joint of the two difference laws, a
number-basis diagonalization, 40-digit quadrature of the homodyne entropy,
shot-file text by one %-format per value, shot files read line by line
with a regular expression per field, Monte Carlo chunks drawn one after
another and counted by np.unique -- so the tests can compare production
against something that shares none of its shortcuts.  They only
run at small windows, except the exactly summed I(B;E) reference, which
works through the dense joint in row blocks.
"""

import itertools
import math
import re
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, ive, xlogy

from pnrchan import (
    ExperimentRun,
    NumericsError,
    ValidationError,
    coherent_overlap,
    detection_rates,
    eve_params,
    homodyne_mean,
    mutual_information,
    shannon_entropy,
)
from pnrchan.montecarlo import MAX_COUNT
from pnrchan.receivers import DEFAULT_TAIL_TOL, poisson_pmf, poisson_window, skellam_pmf_grid
from pnrchan.recordio import SHOT_HEADER

_JOINT_CELL_LIMIT = 20_000_000


# ---------------------------------------------------------------------------
# Skellam law by other routes than the recurrence
# ---------------------------------------------------------------------------

def _log_skellam_series(d, log_t, log_r, rate_sum, x):
    """ln P(Delta = d) as the Poisson convolution, summed in log domain.

    For d >= 0 this is sum_k P(n = k + d) P(m = k), whose log terms are
    (k + d) ln mu_t + k ln mu_r - lnG(k + d + 1) - lnG(k + 1) - (mu_t + mu_r);
    d < 0 mirrors the arms.  Each rate enters with its own nonnegative
    multiplier, so no two large terms cancel, however far apart the rates.
    Used where the scaled Bessel underflows, which only happens for order
    far above the argument x = 2*sqrt(mu_t*mu_r); there the sum peaks at
    small k and a short sum is accurate to a few ulp.  The rates enter as
    logs because their product, and so x, may underflow to 0.
    """
    if d < 0:
        d, log_t, log_r = -d, log_r, log_t
    kstar = 0.5 * (-(d + 1.0) + math.sqrt((d + 1.0) ** 2 + x * x))
    k = np.arange(2 * int(math.ceil(kstar)) + 31, dtype=float)
    t = (k + d) * log_t + k * log_r - gammaln(k + d + 1.0) - gammaln(k + 1.0)
    tm = t.max()
    return float(tm + math.log(np.exp(t - tm).sum()) - rate_sum)


def skellam_pmf_bessel(mu_t, mu_r, deltas):
    """Closed-form Skellam pmf on an integer grid, both rates positive.

    exp(-(mu_t + mu_r)) (mu_t/mu_r)^(d/2) I_|d|(2 sqrt(mu_t mu_r)) through
    scipy's exponentially scaled Bessel function in log domain; bins where
    it underflows fall back to the log-domain Poisson convolution.
    """
    x = 2.0 * math.sqrt(mu_t * mu_r)
    log_t, log_r = math.log(mu_t), math.log(mu_r)
    base = -((math.sqrt(mu_t) - math.sqrt(mu_r)) ** 2)
    logp = base + deltas * (0.5 * (log_t - log_r))
    scaled = ive(np.abs(deltas).astype(float), x)
    probs = np.zeros(len(deltas))
    ok = scaled > 0.0
    probs[ok] = np.exp(logp[ok] + np.log(scaled[ok]))
    for i in np.nonzero(~ok)[0]:
        lp = _log_skellam_series(int(deltas[i]), log_t, log_r, mu_t + mu_r, x)
        if lp > -745.0:
            probs[i] = math.exp(lp)
    return probs


def skellam_pmf_mpmath(mu_t, mu_r, delta, dps=40):
    """P(Delta = delta) as an mpmath number, by the Poisson convolution.

    sum_k P(n = k + d) P(m = k) at ``dps`` digits, summed outward from its
    largest term, (mu_t mu_r)^k / (k! (k + d)!) peaking near
    k* = (sqrt(d^2 + 4 mu_t mu_r) - d) / 2, until a term is below 1e-30 of
    the sum; d < 0 mirrors the arms.  It shares neither the Bessel function
    nor the recurrence, and stays fast where mpmath's Bessel series does not
    (orders of 1e4 at arguments of 1e5).
    """
    import mpmath

    if delta < 0:
        mu_t, mu_r, delta = mu_r, mu_t, -delta
    with mpmath.workdps(dps):
        t, r = mpmath.mpf(mu_t), mpmath.mpf(mu_r)
        prod = t * r
        k = int(0.5 * (math.sqrt(delta * delta + 4.0 * mu_t * mu_r) - delta))
        peak = mpmath.exp((k + delta) * mpmath.log(t) + k * mpmath.log(r)
                          - mpmath.loggamma(k + delta + 1) - mpmath.loggamma(k + 1)
                          - (t + r))
        total = peak
        term, j = peak, k
        while True:
            term = term * prod / ((j + 1) * (j + delta + 1))
            j += 1
            total += term
            if term < 1e-30 * total:
                break
        term, j = peak, k
        while j > 0:
            term = term * j * (j + delta) / prod
            j -= 1
            total += term
            if term < 1e-30 * total:
                break
        return +total


# ---------------------------------------------------------------------------
# Both symbols' difference laws on one mirrored window
# ---------------------------------------------------------------------------

def mirror_law(params, tail_tol=DEFAULT_TAIL_TOL):
    """Both symbols' difference laws, padded onto one symmetric window.

    Returns ``(deltas, p0, p1, tail)``: symbol 1's certified law padded to
    [-w, w] and its reversal as symbol 0's law.
    """
    deltas1, p1, tail = skellam_pmf_grid(*detection_rates(params, 1), tail_tol)
    lo1, hi1 = int(deltas1[0]), int(deltas1[-1])
    lo, hi = min(lo1, -hi1), max(hi1, -lo1)
    full1 = np.zeros(hi - lo + 1)
    full1[lo1 - lo:hi1 - lo + 1] = p1
    return np.arange(lo, hi + 1), full1[::-1].copy(), full1, tail


def sign_laws(law):
    """Each symbol's two-outcome sign law ``[P(-1 | k), P(+1 | k)]`` from a
    :func:`mirror_law`, the Delta = 0 mass split evenly."""
    deltas, p0, p1, _ = law
    neg, zero = deltas < 0, deltas == 0
    splits = (float(p[neg].sum() + 0.5 * p[zero].sum()) for p in (p0, p1))
    return tuple(np.array([b, 1.0 - b]) for b in splits)


def holevo_chi_mixture(conditionals, eve):
    """chi(B;E) in bits from Bob's two conditionals, through their mixture.

    Eve's state given Bob's outcome j has posterior weight
    w1 = q1 p(j|1) / p(j); its entropy is h2 of the larger eigenvalue
    (1 + sqrt(1 - 4 w0 w1 (1 - c^2))) / 2 of the rank-two Gram matrix.
    """
    q0, q1 = eve.priors
    overlap = coherent_overlap(eve.signal_mean)

    def entropy(w1):
        lam = 0.5 * (1.0 + np.sqrt(np.maximum(
            0.0, 1.0 - 4.0 * w1 * (1.0 - w1) * (1.0 - overlap * overlap))))
        return -(xlogy(lam, lam) + xlogy(1.0 - lam, 1.0 - lam)) / math.log(2.0)

    b0, b1 = conditionals
    mix = q0 * b0 + q1 * b1
    mask = mix > 0.0
    return float(entropy(q1) - mix[mask] @ entropy(q1 * b1[mask] / mix[mask]))


def figures_mpmath(bob, dps=40):
    """Bob's and his wiretapper's analytic figures at ``dps`` digits.

    Returns a dict of mpmath numbers: ``i_ab_wf``, ``i_ab_bds``, ``i_ae_wf``,
    ``chi_be_wf`` and ``chi_be_bds``.  Each receiver's laws are its
    :func:`mirror_law`, the double bins taken as exact, and every figure is
    summed over the mixture as in :func:`holevo_chi_mixture`, so it shares
    the laws of the package but none of its arithmetic.
    """
    import mpmath

    eve = eve_params(bob)
    with mpmath.workdps(dps):
        q0, q1 = (mpmath.mpf(q) for q in bob.priors)
        ln2 = mpmath.log(2)

        def laws(params):
            deltas, p0, p1, _ = mirror_law(params)
            p0, p1 = [[mpmath.mpf(float(v)) for v in p] for p in (p0, p1)]
            b = (mpmath.fsum(v for d, v in zip(deltas, p1) if d < 0)
                 + mpmath.fsum(v for d, v in zip(deltas, p1) if d == 0) / 2)
            return (p0, p1), ([1 - b, b], [b, 1 - b])

        def info(conds):
            total = mpmath.mpf(0)
            for a, b in zip(*conds):
                mix = q0 * a + q1 * b
                total += sum(q * p * mpmath.log(p / mix) for q, p in ((q0, a), (q1, b)) if p)
            return total / ln2

        deficit = -mpmath.expm1(-4 * mpmath.mpf(eve.signal_mean))

        def entropy(w1):
            x = 4 * w1 * (1 - w1) * deficit
            small = x / (2 * (1 + mpmath.sqrt(1 - x)))
            return -sum(v * mpmath.log(v) for v in (small, 1 - small) if v) / ln2

        def chi(conds):
            held = mpmath.mpf(0)
            for a, b in zip(*conds):
                mix = q0 * a + q1 * b
                if mix:
                    held += mix * entropy(q1 * b / mix)
            return entropy(q1) - held

        (bob_wf, bob_bds), (eve_wf, _) = laws(bob), laws(eve)
        return {"i_ab_wf": info(bob_wf), "i_ab_bds": info(bob_bds),
                "i_ae_wf": info(eve_wf), "chi_be_wf": chi(bob_wf),
                "chi_be_bds": chi(bob_bds)}


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
        hl1 = skellam_pmf_bessel(mu_t, mu_r, deltas)
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
# Dense Bob x Eve joint of the two difference laws
# ---------------------------------------------------------------------------

def mi_bob_eve_dense(bob_law, eve_law, priors):
    """I(B;E) in bits from the dense w_B x w_E joint q0 b0 e0 + q1 b1 e1."""
    q0, q1 = priors
    _, b0, b1, _ = bob_law
    _, e0, e1, _ = eve_law
    joint = q0 * np.outer(b0, e0) + q1 * np.outer(b1, e1)
    return (shannon_entropy(joint.sum(axis=1)) + shannon_entropy(joint.sum(axis=0))
            - shannon_entropy(joint.ravel()))


def mi_bob_eve_fsum(bob_law, eve_law, priors, block_cells=1 << 20):
    """:func:`mi_bob_eve_dense` with every entropy summed exactly by ``math.fsum``.

    The marginals are the joint's own, q0 b0 sum(e0) + q1 b1 sum(e1) and its
    transpose, with the masses summed exactly; the joint is formed one block
    of Bob's rows at a time, so memory stays at ``block_cells`` cells.
    """
    q0, q1 = priors
    _, b0, b1, _ = bob_law
    _, e0, e1, _ = eve_law

    def terms(p):
        return (-xlogy(p, p)).ravel().tolist()

    mass = [math.fsum(p.tolist()) for p in (b0, b1, e0, e1)]
    h_b = math.fsum(terms(q0 * mass[2] * b0 + q1 * mass[3] * b1))
    h_e = math.fsum(terms(q0 * mass[0] * e0 + q1 * mass[1] * e1))
    rows = max(1, block_cells // len(e0))
    h_be = math.fsum(itertools.chain.from_iterable(
        terms(q0 * np.outer(b0[i:i + rows], e0) + q1 * np.outer(b1[i:i + rows], e1))
        for i in range(0, len(b0), rows)))
    return (h_b + h_e - h_be) / math.log(2.0)


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
# Homodyne reference by 40-digit quadrature
# ---------------------------------------------------------------------------

def mi_homodyne_quad(params, dps=40):
    """``mi_homodyne`` as h(Y) - log2(2 pi e) / 2 of the two-Gaussian mixture,
    by Gauss-Legendre quadrature at ``dps`` digits between the peaks and 16
    sigma beyond them, where the mixture's mass is below 1e-57.

    The priors are normalized at working precision: the doubles 0.3 and 0.7
    sum to 1 - 5.6e-17, and the production figure is the information of the
    normalized priors.  Returns ``(mi_bits, quadrature_error_bits)`` as
    mpmath numbers.
    """
    import mpmath

    with mpmath.workdps(dps):
        q0, q1 = (mpmath.mpf(q) for q in params.priors)
        q0, q1 = q0 / (q0 + q1), q1 / (q0 + q1)
        a0, a1 = (mpmath.mpf(homodyne_mean(params, k)) for k in (0, 1))
        norm = 1 / mpmath.sqrt(2 * mpmath.pi)

        def neg_p_log_p(y):
            p = norm * (q0 * mpmath.exp(-(y - a0) ** 2 / 2) + q1 * mpmath.exp(-(y - a1) ** 2 / 2))
            return -p * mpmath.log(p)

        knots = [min(a0, a1) - 16, *sorted({a0, (a0 + a1) / 2, a1}), max(a0, a1) + 16]
        h, err = mpmath.quad(neg_p_log_p, knots, method="gauss-legendre", error=True)
        ln2 = mpmath.log(2)
        return h / ln2 - mpmath.log(2 * mpmath.pi * mpmath.e) / (2 * ln2), err / ln2


# ---------------------------------------------------------------------------
# Shot-file text by one %-format per value
# ---------------------------------------------------------------------------

def shot_file_percent(run):
    """The bytes of the shot file for ``run``, formatted the way the writer
    did before its digit matrix: every value through ``%d``."""
    block = np.column_stack([np.arange(len(run)), run.symbols, run.n, run.m])
    rows = ("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist())
    return (SHOT_HEADER + "\n" + rows).encode()


def _shot_line(line, header):
    """What one line of a shot file is, its LF and one CR before it dropped:
    None if blank or a comment, True if the header (``header`` says whether
    one was read), or else the row's symbol and counts.  A ValueError says
    why it is none of them."""
    try:  # with its LF, which a cut-off sequence cannot continue into
        text = (line + b"\n").decode("utf-8")[:-1]
    except UnicodeDecodeError as exc:
        raise ValueError(f"byte 0x{line[exc.start]:02x} is not UTF-8 ({exc.reason})") from exc
    if re.fullmatch(rb"[ \t]*(#.*)?", line, re.DOTALL):
        return None
    if not header:
        if text != SHOT_HEADER:
            raise ValueError(f"expected header {SHOT_HEADER!r}, got {text!r}")
        return True
    fields = line.split(b",")
    if len(fields) != 4:
        raise ValueError(f"expected 4 comma-separated fields, got {len(fields)}")
    if not re.fullmatch(rb"[01]", fields[1]):
        raise ValueError("symbol must be 0 or 1")
    for name, field in zip(("shot_id", "symbol", "n_t", "n_r"), fields):
        if not re.fullmatch(rb"[0-9]+", field):
            raise ValueError(f"{name} must be ASCII digits")
    for field in fields[2:]:
        if not re.fullmatch(rb"[0-9]{1,10}", field) or int(field) > MAX_COUNT:
            raise ValueError(f"counts must lie in [0, {MAX_COUNT}]")
    return [int(field) for field in fields[1:]]


def read_shot_lines(path):
    """The shot-file grammar read line by line: the reference reader.

    The file, less a leading UTF-8 BOM, is split at LF, and each line loses
    one CR from its end before ``_shot_line`` decodes it, classes it and
    matches each field with a regular expression.  Returns the run, or
    raises the error that names the first line at fault.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    header, rows = False, []
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        try:
            got = _shot_line(line[:-1] if line.endswith(b"\r") else line, header)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line_no}: {exc}") from None
        if got is True:
            header = True
        elif got:
            rows.append(got)
    if not header:
        raise ValidationError(f"{path}: empty file")
    if not rows:
        raise ValidationError(f"{path}: no shot records after the header")
    symbols, n, m = zip(*rows)
    return ExperimentRun(symbols=np.array(symbols, dtype=np.uint8),
                         n=np.array(n, dtype=np.int32), m=np.array(m, dtype=np.int32))


# ---------------------------------------------------------------------------
# Monte Carlo shots, drawn and counted serially
# ---------------------------------------------------------------------------

def run_experiment_serial(params, shots_per_symbol, seed):
    """The n and m columns of ``run_experiment``, drawn on one thread.

    Each symbol's shots come in chunks of 65536, one Philox substream per
    chunk keyed by (seed, symbol, chunk index); the chunks are drawn in
    order and joined by concatenation.
    """
    chunk = 1 << 16
    n_parts, m_parts = [], []
    for symbol in (0, 1):
        mu_t, mu_r = detection_rates(params, symbol)
        for index, start in enumerate(range(0, shots_per_symbol, chunk)):
            size = min(chunk, shots_per_symbol - start)
            ss = np.random.SeedSequence((seed, symbol, index))
            gen = np.random.Generator(np.random.Philox(ss))
            n_parts.append(gen.poisson(mu_t, size))
            m_parts.append(gen.poisson(mu_r, size))
    return np.concatenate(n_parts), np.concatenate(m_parts)


def empirical_counts_unique(run):
    """``cells``, ``counts`` and ``shots`` of ``empirical_distributions``, by
    np.unique on the key (n << 32) | (m << 1) | symbol and then on its pairs."""
    keys, tally = np.unique((run.n.astype(np.int64) << 32)
                            | (run.m.astype(np.int64) << 1)
                            | run.symbols.astype(np.int64), return_counts=True)
    pairs, column = np.unique(keys >> 1, return_inverse=True)
    counts = np.zeros((2, len(pairs)), dtype=np.int64)
    counts[keys & 1, column] = tally
    cells = np.column_stack([pairs >> 31, pairs & ((1 << 31) - 1)])
    return cells, counts, tuple(int(s) for s in counts.sum(axis=1))
