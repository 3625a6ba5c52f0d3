import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pnrchan import (
    ChannelParams,
    NumericsError,
    ValidationError,
    coherent_overlap,
    eve_params,
    mi_bds,
    mi_wf,
    security_report_for,
    shannon_entropy,
)
from pnrchan.information import _receiver_figures, certified_error_bound
from pnrchan.receivers import DEFAULT_TAIL_TOL
from pnrchan.security import _rank_two_entropy, holevo_chi_bds, holevo_chi_wf, mi_bob_eve

from oracles import (figures_mpmath, fock_entropy_oracle, joint_abe_pmf, mi_bob_eve_dense,
                     mi_bob_eve_fsum, mirror_law, wf_pmf)


def bob_params(source_mean, loss_db, lo_mean, xi, priors=(0.5, 0.5)):
    t = 10.0 ** (-loss_db / 10.0)
    return ChannelParams(alpha=math.sqrt(source_mean), transmissivity=t,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi, priors=priors)


def law(params):
    return mirror_law(params, DEFAULT_TAIL_TOL)


def posteriors(params):
    return _receiver_figures(params, DEFAULT_TAIL_TOL)[0]


def i_be(bob):
    eve = eve_params(bob)
    return mi_bob_eve(bob.priors, posteriors(bob), posteriors(eve))


def chi_wf(bob):
    return holevo_chi_wf(posteriors(bob), eve_params(bob))


def chi_bds(bob):
    return holevo_chi_bds(posteriors(bob), eve_params(bob))


class TestRankTwoEntropy:
    """The closed form behind S(E) and S(E | Bob's outcome), in bits."""

    @staticmethod
    def entropy(w1, beta_sq):
        with np.errstate(divide="ignore"):
            log_odds = np.log(w1) - np.log1p(-w1)
        return float(_rank_two_entropy(log_odds, beta_sq)) / math.log(2.0)

    def test_identical_states_are_pure(self):
        assert self.entropy(0.5, 0.0) == 0.0

    def test_single_component_is_pure(self):
        assert self.entropy(0.0, 0.3) == 0.0
        assert self.entropy(1.0, 0.3) == 0.0

    def test_orthogonal_even_mixture_is_one_bit(self):
        assert self.entropy(0.5, math.inf) == 1.0

    def test_against_fock_oracle_grid(self):
        for beta_sq in (0.1, 1.0, 3.0, 10.0):
            beta = math.sqrt(beta_sq)
            cutoff = int(math.ceil(beta_sq + 12.0 * math.sqrt(beta_sq) + 30.0))
            for w0 in (0.1, 0.3, 0.5):
                closed = self.entropy(1.0 - w0, beta_sq)
                oracle = fock_entropy_oracle([w0, 1.0 - w0], [beta, -beta], cutoff)
                assert closed == pytest.approx(oracle, abs=1e-8)


class TestFockOracle:
    def test_single_coherent_state_is_pure(self):
        assert fock_entropy_oracle([1.0], [1.3], 80) == pytest.approx(0.0, abs=1e-10)

    def test_vacuum_mixture_of_equal_states(self):
        assert fock_entropy_oracle([0.5, 0.5], [0.0, 0.0], 40) == pytest.approx(
            0.0, abs=1e-10)

    def test_insufficient_cutoff_detected(self):
        with pytest.raises(NumericsError):
            fock_entropy_oracle([0.5, 0.5], [4.0, -4.0], 10)


class TestIndividualAttacks:
    def test_symmetric_point_yields_zero_exactly(self):
        bob = bob_params(3.2, 10.0 * math.log10(2.0), 12.15, 1.0)
        assert eve_params(bob).transmissivity == pytest.approx(0.5, rel=1e-12)
        assert security_report_for(bob).delta_ia_dr == pytest.approx(0.0, abs=1e-9)

    def test_sign_change_across_half_transmissivity(self):
        lo = 12.15
        above = ChannelParams(alpha=math.sqrt(3.2), transmissivity=0.55,
                              lo_amplitude=math.sqrt(lo), visibility=1.0)
        below = ChannelParams(alpha=math.sqrt(3.2), transmissivity=0.45,
                              lo_amplitude=math.sqrt(lo), visibility=1.0)
        assert security_report_for(above).delta_ia_dr > 0.0
        assert security_report_for(below).delta_ia_dr < 0.0

    def test_imperfect_bob_loses_at_symmetric_point(self):
        bob = ChannelParams(alpha=math.sqrt(3.2), transmissivity=0.5,
                            lo_amplitude=math.sqrt(12.15), visibility=0.94)
        assert security_report_for(bob).delta_ia_dr < 0.0

    def test_dr_antisymmetry_in_transmissivity(self):
        lo = 9.0
        for t in (0.3, 0.42):
            bob_t = ChannelParams(alpha=1.5, transmissivity=t,
                                  lo_amplitude=math.sqrt(lo), visibility=1.0)
            bob_mirror = ChannelParams(alpha=1.5, transmissivity=1.0 - t,
                                       lo_amplitude=math.sqrt(lo), visibility=1.0)
            assert security_report_for(bob_t).delta_ia_dr == pytest.approx(
                -security_report_for(bob_mirror).delta_ia_dr, abs=1e-10)

    def test_rr_positive_where_dr_already_failed(self):
        rep = security_report_for(bob_params(3.2, 6.0, 12.15, 0.94))
        assert rep.delta_ia_dr < 0.0 < rep.delta_ia_rr


class TestJointDistribution:
    def small_bob(self):
        return ChannelParams(alpha=0.8, transmissivity=0.6, lo_amplitude=1.1,
                             visibility=0.9)

    def test_marginalizing_eve_recovers_bob(self):
        bob = self.small_bob()
        bob_marginal = joint_abe_pmf(bob).sum(axis=(3, 4))
        for k in (0, 1):
            grid = wf_pmf(bob, k)
            nb, mb = grid.shape
            np.testing.assert_allclose(
                bob_marginal[k, :nb, :mb], 0.5 * grid, atol=1e-12)

    def test_conditional_independence_given_symbol(self):
        joint = joint_abe_pmf(self.small_bob())
        for k in (0, 1):
            block = joint[k]
            flat = block.reshape(block.shape[0] * block.shape[1], -1)
            total = flat.sum()
            eve_given_k = flat.sum(axis=0) / total
            # every Bob outcome with mass must see the same Eve conditional
            bob_mass = flat.sum(axis=1)
            rows = np.nonzero(bob_mass > 1e-9)[0]
            for row in rows[:: max(1, len(rows) // 20)]:
                np.testing.assert_allclose(
                    flat[row] / bob_mass[row], eve_given_k, atol=1e-12)

    def test_normalization(self):
        missing = 1.0 - joint_abe_pmf(self.small_bob()).sum()
        assert -1e-12 <= missing <= 1e-10

    def test_difference_reduction_matches_full_joint(self):
        bob = self.small_bob()
        # I(B;E) from the raw four-index law
        flat = joint_abe_pmf(bob).sum(axis=0)
        nb, mb, ne, me = flat.shape
        be = flat.reshape(nb * mb, ne * me)
        i_full = (shannon_entropy(be.sum(axis=1)) + shannon_entropy(be.sum(axis=0))
                  - shannon_entropy(be.ravel()))
        assert i_be(bob) == pytest.approx(i_full, abs=1e-9)

    def test_data_processing_through_the_source(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            bob = ChannelParams(
                alpha=math.sqrt(rng.uniform(0.2, 3.0)),
                transmissivity=rng.uniform(0.2, 0.9),
                lo_amplitude=math.sqrt(rng.uniform(0.5, 12.0)),
                visibility=rng.uniform(0.5, 1.0))
            info = i_be(bob)
            assert info <= mi_wf(bob) + 1e-9
            assert info <= mi_wf(eve_params(bob)) + 1e-9

    def test_window_explosion_guarded(self):
        bob = ChannelParams(alpha=1.0, transmissivity=0.5, lo_amplitude=30.0,
                            visibility=0.9)
        with pytest.raises(ValidationError):
            joint_abe_pmf(bob)


class TestBobEveKernel:
    """The O(w) I(B;E) kernel against the dense Bob x Eve joint it replaced."""

    @pytest.mark.parametrize("lo_mean", [12.15, 1e3, 3e3, 1e4])
    @pytest.mark.parametrize("loss_db", [0.5, 3.0, 13.44])
    def test_matches_the_exactly_summed_dense_joint(self, lo_mean, loss_db):
        bob = bob_params(3.2, loss_db, lo_mean, 0.94)
        eve = eve_params(bob)
        assert abs(i_be(bob) - mi_bob_eve_fsum(law(bob), law(eve), bob.priors)) <= 1e-12

    def test_unequal_priors_on_the_interpolated_path(self):
        # both symbols' arguments share one interpolant of Eve's function
        bob = ChannelParams(alpha=math.sqrt(3.2), transmissivity=0.5,
                            lo_amplitude=math.sqrt(3e3), visibility=0.94, priors=(0.3, 0.7))
        eve = eve_params(bob)
        assert abs(i_be(bob) - mi_bob_eve_fsum(law(bob), law(eve), bob.priors)) <= 1e-12

    @pytest.mark.parametrize("bob", [
        # symbol 1 leaves Bob's reflected arm dark: L_B = inf
        ChannelParams(alpha=2.0, transmissivity=0.25, lo_amplitude=1.0, visibility=1.0),
        # the same for Eve: L_E = inf
        ChannelParams(alpha=2.0, transmissivity=0.75, lo_amplitude=1.0, visibility=1.0),
        # Bob one-sided and so bright that even Delta = 0 underflows
        ChannelParams(alpha=40.0, transmissivity=0.25, lo_amplitude=20.0, visibility=1.0),
    ])
    def test_one_sided_laws(self, bob):
        eve = eve_params(bob)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            value = i_be(bob)
        assert value == pytest.approx(mi_bob_eve_dense(law(bob), law(eve), bob.priors),
                                      abs=1e-12)

    def test_memory_stays_linear_in_the_windows(self):
        # at LO 1e5 the dense joint is 9735 x 9863 float64, ~770 MB an array
        bob = bob_params(3.2, 3.0, 1e5, 0.94)
        tracemalloc.start()
        try:
            security_report_for(bob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestHolevo:
    def test_no_signal_carries_nothing(self):
        bob = ChannelParams(alpha=0.0, transmissivity=0.5, lo_amplitude=2.0,
                            visibility=0.9)
        assert chi_wf(bob) == pytest.approx(0.0, abs=1e-12)
        assert chi_bds(bob) == pytest.approx(0.0, abs=1e-12)

    def test_lossless_channel_reported_as_zero(self):
        rep = security_report_for(bob_params(3.2, 0.0, 12.15, 0.94))
        assert rep.chi_be_wf == 0.0 and rep.i_ae_wf == 0.0 and rep.i_be_wf == 0.0
        assert rep.k_dr == 1.0 and rep.k_rr == 1.0 and rep.k_ca_wf == 1.0

    def test_dominates_accessible_information(self):
        for loss in (0.5, 2.0, 6.0, 12.0):
            bob = bob_params(3.2, loss, 12.15, 0.94)
            assert chi_wf(bob) >= i_be(bob) - 1e-9

    def test_coarse_conditioning_cannot_beat_fine(self):
        for loss in (1.0, 4.0, 9.0):
            bob = bob_params(3.2, loss, 12.15, 0.94)
            assert chi_bds(bob) <= chi_wf(bob) + 1e-9

    def test_conditioning_on_full_count_pair_matches_difference(self):
        # S(E|B) from the raw (n, m) posterior must equal the difference-law
        # version: the posterior depends on the pair only through n - m
        bob = ChannelParams(alpha=0.9, transmissivity=0.55, lo_amplitude=1.3,
                            visibility=0.85)
        overlap = coherent_overlap(eve_params(bob).signal_mean)
        grids = [wf_pmf(bob, k) for k in (0, 1)]
        shape = (max(g.shape[0] for g in grids), max(g.shape[1] for g in grids))
        g0 = np.zeros(shape)
        g0[: grids[0].shape[0], : grids[0].shape[1]] = grids[0]
        g1 = np.zeros(shape)
        g1[: grids[1].shape[0], : grids[1].shape[1]] = grids[1]
        mix = 0.5 * (g0 + g1)
        mask = mix > 0
        w1 = 0.5 * g1[mask] / mix[mask]
        lam = 0.5 * (1.0 + np.sqrt(np.maximum(
            0.0, 1.0 - 4.0 * w1 * (1.0 - w1) * (1.0 - overlap ** 2))))
        h2 = -(np.where(lam < 1, lam * np.log2(lam), 0.0)
               + np.where(lam < 1, (1 - lam) * np.log2(np.maximum(1e-300, 1 - lam)), 0.0))
        s_cond_pairs = float((mix[mask] * h2).sum())
        s_total = float(_rank_two_entropy(0.0, eve_params(bob).signal_mean)) / math.log(2.0)
        assert s_total - s_cond_pairs == pytest.approx(chi_wf(bob), abs=1e-10)


class TestFortyDigits:
    """The figures against a 40-digit evaluation on the same laws."""

    @pytest.mark.parametrize("bob", [
        *(bob_params(3.2, loss, 12.15, 0.94, priors)
          for priors in ((0.5, 0.5), (0.3, 0.7)) for loss in (0.64, 3.2, 8.96, 13.44)),
        # symbol 1 leaves Bob's and Eve's reflected arms dark
        ChannelParams.from_means(5.0, 5.0, visibility=1.0, loss_db=3.0),
    ])
    def test_every_figure_within_1e_15(self, bob):
        rep = security_report_for(bob)
        exact = figures_mpmath(bob)
        exact["delta_ia_dr"] = exact["i_ab_wf"] - exact["i_ae_wf"]
        exact["delta_ca_wf"] = exact["i_ab_wf"] - exact["chi_be_wf"]
        exact["delta_ca_bds"] = exact["i_ab_bds"] - exact["chi_be_bds"]
        errors = {name: float(abs(getattr(rep, name) - value)) for name, value in exact.items()}
        assert max(errors.values()) <= 1e-15, errors


class TestCollectiveRates:
    def test_no_signal_zero(self):
        rep = security_report_for(ChannelParams(
            alpha=0.0, transmissivity=0.5, lo_amplitude=2.0, visibility=0.9))
        assert rep.delta_ca_wf == pytest.approx(0.0, abs=1e-12)
        assert rep.delta_ca_bds == pytest.approx(0.0, abs=1e-12)

    def test_near_lossless_approaches_honest_mi(self):
        # S(E) decays like eps*log(eps) in the lost fraction, so get very
        # close to T = 1 before comparing
        bob = ChannelParams(alpha=math.sqrt(3.2), transmissivity=1.0 - 1e-6,
                            lo_amplitude=math.sqrt(12.15), visibility=0.94)
        assert security_report_for(bob).delta_ca_wf == pytest.approx(mi_wf(bob), abs=1e-3)

    def test_rate_stays_nonnegative_and_decreasing(self):
        # pure-loss wiretap model: chi(B;E) <= I(A;B), so the collective-
        # attack rate decreases towards zero but never crosses it
        losses = (0.5, 2.0, 5.0, 9.0, 13.44)
        rates = [security_report_for(bob_params(3.2, l, 12.15, 0.94)).delta_ca_wf
                 for l in losses]
        assert all(r >= -1e-9 for r in rates)
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


class TestScenarioAndReport:
    def test_report_is_internally_consistent(self):
        bob = bob_params(3.2, 4.0, 12.15, 0.94)
        rep = security_report_for(bob)
        assert rep.delta_ia_dr == rep.i_ab_wf - rep.i_ae_wf
        assert rep.delta_ia_rr == rep.i_ab_wf - rep.i_be_wf
        assert rep.delta_ca_wf == rep.i_ab_wf - rep.chi_be_wf
        assert rep.delta_ca_bds == rep.i_ab_bds - rep.chi_be_bds
        assert rep.k_dr == rep.delta_ia_dr / rep.i_ab_wf
        assert rep.chi_be_wf >= rep.i_be_wf - 1e-9
        for field in ("i_ab_wf", "i_ab_bds", "i_ae_wf", "i_be_wf",
                      "chi_be_wf", "chi_be_bds"):
            assert getattr(rep, field) >= 0.0
        assert rep.error_bound == certified_error_bound(bob)

    def test_report_matches_the_public_kernels(self):
        bob = bob_params(3.2, 4.0, 12.15, 0.94)
        eve = eve_params(bob)
        rep = security_report_for(bob)
        assert rep.i_ab_wf == mi_wf(bob)
        assert rep.i_ab_bds == mi_bds(bob)
        assert rep.i_ae_wf == mi_wf(eve)
        assert rep.i_be_wf == i_be(bob)
        assert rep.chi_be_wf == chi_wf(bob)
        assert rep.chi_be_bds == chi_bds(bob)

    def test_eve_lo_override_reaches_every_eve_figure(self):
        bob = bob_params(3.2, 4.0, 12.15, 0.94)
        eve = eve_params(bob, lo_amplitude=math.sqrt(30.0))
        rep = security_report_for(bob, eve_lo_amplitude=math.sqrt(30.0))
        assert rep.i_ae_wf == mi_wf(eve)
        assert rep.i_be_wf == mi_bob_eve(bob.priors, posteriors(bob), posteriors(eve))
        assert rep.i_be_wf != i_be(bob)

    def test_k_undefined_when_channel_carries_nothing(self):
        rep = security_report_for(ChannelParams(
            alpha=0.0, transmissivity=0.5, lo_amplitude=2.0, visibility=0.9))
        assert rep.k_dr is None and rep.k_ca_bds is None

    def test_normalized_k_signs(self):
        rep = security_report_for(bob_params(3.2, 6.0, 12.15, 0.94))
        assert math.copysign(1.0, rep.k_dr) == math.copysign(1.0, rep.delta_ia_dr)
        assert rep.k_rr == pytest.approx(rep.delta_ia_rr / rep.i_ab_wf, rel=1e-12)
        assert rep.k_ca_wf == pytest.approx(rep.delta_ca_wf / rep.i_ab_wf, rel=1e-12)
        assert rep.k_ca_bds == pytest.approx(rep.delta_ca_bds / rep.i_ab_bds, rel=1e-12)
