"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line with the measured figure so the
whole gate is auditable from the pytest output (run with -s to see the lines
for passing tests too).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import poisson as sp_poisson

from pnrchan import (
    ChannelParams,
    coherent_overlap,
    detection_rates,
    homodyne_mean,
    mi_bds,
    mi_hl,
    mi_homodyne,
    mi_wf,
    run_experiment,
    empirical_distributions,
    plugin_mi,
    calibrate_params,
    security_report_for,
    skellam_pmf_grid,
)
from pnrchan import cli
from pnrchan.security import _posterior_entropy

from oracles import fock_entropy_oracle, mi_wf_grid


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def params_for(signal_mean, lo_mean, xi):
    return ChannelParams(alpha=math.sqrt(signal_mean), transmissivity=1.0,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi)


@pytest.fixture(scope="module")
def random_grid_mis():
    """The shared 200-point randomized grid for criteria 1 and 2.

    Each point holds the count-pair grid oracle and the production WF, HL
    and BDS informations.
    """
    rng = np.random.default_rng(20240901)
    points = []
    start = time.monotonic()
    for _ in range(200):
        p = params_for(rng.uniform(0.01, 5.0), rng.uniform(0.0, 20.0),
                       rng.uniform(0.0, 1.0))
        points.append((p, mi_wf_grid(p), mi_wf(p), mi_hl(p), mi_bds(p)))
    elapsed = time.monotonic() - start
    return points, elapsed


def test_c01_wf_hl_equivalence(random_grid_mis):
    points, elapsed = random_grid_mis
    worst = max(abs(g - w) for _, g, w, _, _ in points)
    ok = worst <= 1e-9 and elapsed < 60.0
    assert report("C01 WF-HL equivalence",
                  ok, f"max |I_WF(count-pair grid) - I_WF| = {worst:.2e} over "
                      f"200 points, {elapsed:.1f} s")


def test_c02_data_processing_hierarchy(random_grid_mis):
    points, _ = random_grid_mis
    violations = sum(1 for _, _, _, h, b in points if b > h + 1e-12)
    gaps = [h - b for _, _, _, h, b in points if h > 1e-3]
    min_gap = min(gaps)
    ok = violations == 0 and min_gap > 1e-6
    assert report("C02 data-processing hierarchy",
                  ok, f"violations = {violations}, min nondegenerate gap = "
                      f"{min_gap:.2e} on {len(gaps)} points")


def test_c03_mi_band_vs_lo_energy():
    lo_grid = np.linspace(0.25, 12.17, 13)
    curves = {}
    for xi in (0.86, 0.91):
        curves[xi] = [mi_wf(params_for(3.07, float(z2), xi)) for z2 in lo_grid]
    top_low, top_high = curves[0.86][-1], curves[0.91][-1]
    dominance = all(hi >= lo - 1e-12
                    for lo, hi in zip(curves[0.86], curves[0.91]))
    ok = top_low > 0.98 and top_high > 0.98 and dominance
    assert report("C03 MI band at max LO",
                  ok, f"I_WF(xi=0.86) = {top_low:.4f}, I_WF(xi=0.91) = "
                      f"{top_high:.4f} at LO mean 12.17, band ordered: {dominance}")


def test_c04_loss_sweep_shape_and_homodyne_gap():
    losses = np.linspace(0.0, 13.44, 22)
    rows = []
    for loss in losses:
        t = 10.0 ** (-float(loss) / 10.0)
        p = ChannelParams(alpha=math.sqrt(3.20), transmissivity=t,
                          lo_amplitude=math.sqrt(12.15), visibility=0.94)
        rows.append((mi_wf(p), mi_hl(p), mi_bds(p), mi_homodyne(p)))
    monotone = all(
        all(rows[i + 1][j] <= rows[i][j] + 1e-12 for j in range(4))
        for i in range(len(rows) - 1)
    )
    max_gap = max(abs(r[1] - r[3]) for r in rows)
    ok = monotone and max_gap <= 0.05
    assert report("C04 loss-sweep shape",
                  ok, f"all strategies monotone: {monotone}, "
                      f"max |I_HL - I_hom| = {max_gap:.4f}")


def test_c05_skellam_closed_form_vs_convolution():
    def oracle(mu_t, mu_r, delta):
        m0 = max(0, -int(delta))
        m_hi = m0 + int(math.ceil(mu_r + 12.0 * math.sqrt(mu_r) + 80.0))
        m = np.arange(m0, m_hi + 1)
        return float((sp_poisson.pmf(m + delta, mu_t) * sp_poisson.pmf(m, mu_r)).sum())

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        log_ratio = rng.uniform(-6.0, 6.0)
        total = rng.uniform(0.05, 40.0)
        ratio = 10.0 ** log_ratio
        mu_t = total * ratio / (1.0 + ratio)
        mu_r = total / (1.0 + ratio)
        deltas, probs, _ = skellam_pmf_grid(mu_t, mu_r)
        step = max(1, len(deltas) // 25)
        for i in range(0, len(deltas), step):
            worst = max(worst, abs(probs[i] - oracle(mu_t, mu_r, int(deltas[i]))))
    ok = worst <= 1e-12
    assert report("C05 Skellam closed form vs convolution oracle",
                  ok, f"max abs err = {worst:.2e} over 50 rate pairs, "
                      f"ratios 1e-6..1e6")


def test_c06_difference_law_gaussian_limit():
    def tv_against_limit(lo_mean):
        p = params_for(3.0, lo_mean, 0.9)
        deltas, probs, _ = skellam_pmf_grid(*detection_rates(p, 1))
        z = math.sqrt(lo_mean)
        mean = homodyne_mean(p, 1)
        hi = (deltas + 0.5) / z - mean
        lo = (deltas - 0.5) / z - mean
        cells = 0.5 * (erf(hi / math.sqrt(2.0)) - erf(lo / math.sqrt(2.0)))
        return 0.5 * float(np.abs(probs - cells).sum()) + 0.5 * (1.0 - float(cells.sum()))

    tv4, tv6 = tv_against_limit(1e4), tv_against_limit(1e6)
    ok = tv4 < 1e-2 and tv6 < 1e-3
    assert report("C06 Gaussian limit of the difference law",
                  ok, f"TV = {tv4:.2e} at LO mean 1e4, {tv6:.2e} at 1e6")


def test_c07_rank_two_entropy_vs_fock_oracle():
    worst = 0.0
    for beta_sq in (0.1, 1.0, 3.0, 10.0):
        beta = math.sqrt(beta_sq)
        cutoff = int(math.ceil(beta_sq + 12.0 * math.sqrt(beta_sq) + 30.0))
        for w0 in (0.1, 0.3, 0.5):
            closed = float(_posterior_entropy(1.0 - w0, coherent_overlap(beta_sq)))
            oracle = fock_entropy_oracle([w0, 1.0 - w0], [beta, -beta], cutoff)
            worst = max(worst, abs(closed - oracle))
    ok = worst <= 1e-8
    assert report("C07 rank-2 entropy vs Fock diagonalization",
                  ok, f"max |closed - oracle| = {worst:.2e}")


def test_c08_holevo_dominance_on_loss_grid():
    worst = math.inf
    for loss in np.linspace(0.0, 13.44, 29):
        t = 10.0 ** (-float(loss) / 10.0)
        bob = ChannelParams(alpha=math.sqrt(3.20), transmissivity=t,
                            lo_amplitude=math.sqrt(12.15), visibility=0.94)
        rep = security_report_for(bob)
        worst = min(worst, rep.chi_be_wf - rep.i_be_wf)
    ok = worst >= -1e-9
    assert report("C08 Holevo bound dominates accessible information",
                  ok, f"min chi_WF(B;E) - I_WF(B;E) = {worst:.2e} on the "
                      f"29-point loss grid")


def test_c09_three_db_direct_reconciliation_bound():
    def delta_dr(transmissivity, xi):
        return security_report_for(ChannelParams(
            alpha=math.sqrt(3.2), transmissivity=transmissivity,
            lo_amplitude=math.sqrt(12.15), visibility=xi)).delta_ia_dr

    at_half = delta_dr(0.5, 1.0)
    above = delta_dr(0.55, 1.0)
    below = delta_dr(0.45, 1.0)
    imperfect = delta_dr(0.5, 0.94)
    ok = abs(at_half) <= 1e-9 and above > 0.0 > below and imperfect < 0.0
    assert report("C09 3 dB direct-reconciliation bound",
                  ok, f"dI_DR(T=0.5) = {at_half:.2e}, sign change "
                      f"{above:+.3f}/{below:+.3f}, xi_B=0.94 gives {imperfect:+.4f}")


def test_c10_reverse_beats_direct_reconciliation():
    worst = math.inf
    for loss in np.linspace(0.0, 13.44, 22):
        t = 10.0 ** (-float(loss) / 10.0)
        bob = ChannelParams(alpha=math.sqrt(3.20), transmissivity=t,
                            lo_amplitude=math.sqrt(12.15), visibility=0.94)
        rep = security_report_for(bob)
        worst = min(worst, rep.delta_ia_rr - rep.delta_ia_dr)
    ok = worst >= -1e-12
    assert report("C10 RR dominates DR on the loss grid",
                  ok, f"min dI_RR - dI_DR = {worst:.2e}")


def test_c11_monte_carlo_consistency_and_calibration():
    p = params_for(3.07, 12.17, 0.94)
    analytic = {"wf": mi_wf(p), "hl": mi_hl(p), "bds": mi_bds(p)}
    worst_mi = 0.0
    worst_xi = 0.0
    for seed in range(10):
        run = run_experiment(p, 100_000, seed=seed)
        emp = empirical_distributions(run)
        rep = plugin_mi(emp)
        for name in ("wf", "hl", "bds"):
            worst_mi = max(worst_mi, abs(getattr(rep, name).value - analytic[name]))
        cal = calibrate_params(emp, known_lo_mean=12.17)
        worst_xi = max(worst_xi, abs(cal.xi - 0.94))
    ok = worst_mi <= 0.01 and worst_xi <= 0.01
    assert report("C11 Monte Carlo consistency",
                  ok, f"max |plugin - analytic| = {worst_mi:.4f}, "
                      f"max |xi_hat - 0.94| = {worst_xi:.4f} over 10 seeds")


def test_c12_determinism(tmp_path):
    sim_args = ("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                "--xi", "0.94", "--shots", "20000", "--seed", "97")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*sim_args, "-o", str(a)]) == 0
    assert cli.main([*sim_args, "-o", str(b)]) == 0
    sim_identical = a.read_bytes() == b.read_bytes()

    sweep_args = ("sweep", "--preset", "fig4")
    w1, w8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert cli.main([*sweep_args, "--workers", "1", "-o", str(w1)]) == 0
    assert cli.main([*sweep_args, "--workers", "8", "-o", str(w8)]) == 0
    sweep_identical = w1.read_bytes() == w8.read_bytes()

    ok = sim_identical and sweep_identical
    assert report("C12 determinism",
                  ok, f"simulate byte-identical: {sim_identical}, sweep "
                      f"byte-identical across 1/8 workers: {sweep_identical}")
