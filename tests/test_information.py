import math
import sys
import tracemalloc

import numpy as np
import pytest

from pnrchan import (
    ChannelParams,
    ValidationError,
    binary_entropy,
    detection_rates,
    eve_params,
    information,
    mi_bds,
    mi_hl,
    mi_homodyne,
    mi_report,
    mi_wf,
    mutual_information,
    shannon_entropy,
)
from pnrchan.information import _homodyne_information, _information, _posterior, _sign_split
from pnrchan.security import holevo_chi_bds, holevo_chi_wf
from pnrchan.receivers import DEFAULT_TAIL_TOL, skellam_pmf_grid

from oracles import (holevo_chi_mixture, mi_homodyne_quad, mi_wf_grid, mirror_law, sign_laws,
                     wf_hl_equivalence_check)


def params_for(signal_mean, lo_mean, xi, priors=(0.5, 0.5)):
    return ChannelParams(alpha=math.sqrt(signal_mean), transmissivity=1.0,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi,
                         priors=priors)


def random_params(rng):
    return params_for(rng.uniform(0.01, 5.0), rng.uniform(0.0, 20.0),
                      rng.uniform(0.0, 1.0))


class TestShannonEntropy:
    def test_uniform_two_outcomes(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
        # +0, which a table prints as 0, not the -0 of the sum of -x ln x
        assert math.copysign(1.0, shannon_entropy([1.0, 0.0, 0.0])) == 1.0

    def test_quarter_three_quarter(self):
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(
            0.8112781244591328, rel=1e-14)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            shannon_entropy([0.5, -0.1])

    def test_binary_entropy_symmetry(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, rel=1e-14)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0


class TestTrivialZeros:
    @pytest.mark.parametrize("p", [
        params_for(0.0, 9.0, 0.9),   # no signal
        params_for(2.0, 9.0, 0.0),   # no visibility
        params_for(2.0, 0.0, 0.9),   # no LO
    ])
    def test_all_strategies_carry_nothing(self, p):
        assert mi_wf(p) == pytest.approx(0.0, abs=1e-12)
        assert mi_hl(p) == pytest.approx(0.0, abs=1e-12)
        assert mi_bds(p) == pytest.approx(0.0, abs=1e-12)

    def test_homodyne_zero_at_no_signal(self):
        assert mi_homodyne(params_for(0.0, 4.0, 0.9)) == 0.0


class TestEquivalenceAndHierarchy:
    def test_count_pair_equals_difference_readout(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = random_params(rng)
            w, h = mi_wf(p), mi_hl(p)
            assert abs(mi_wf_grid(p) - w) <= 1e-9
            assert abs(w - h) <= 1e-9
            assert -1e-12 <= w <= 1.0 + 1e-12
            assert -1e-12 <= h <= 1.0 + 1e-12

    def test_golden_value_at_reference_point(self):
        # regression anchor, first computed from this implementation and
        # cross-validated against the convolution-built difference law
        p = params_for(3.07, 12.17, 0.91)
        assert mi_hl(p) == pytest.approx(0.9959540550100767, abs=1e-9)
        assert mi_wf(p) == pytest.approx(0.9959540550100767, abs=1e-9)

    def test_sign_readout_loses_information(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            p = random_params(rng)
            hl, bds = mi_hl(p), mi_bds(p)
            assert bds <= hl + 1e-12
            if hl > 1e-3:
                assert hl - bds > 1e-6

    def test_bds_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            p = random_params(rng)
            # the wrong sign, P(-1 | 1) with the fair tie split
            p_err = _sign_split(*skellam_pmf_grid(*detection_rates(p, 1), DEFAULT_TAIL_TOL)[:2])
            closed = 1.0 - binary_entropy(p_err)
            assert mi_bds(p) == pytest.approx(closed, abs=1e-12)

    def test_unequal_priors_supported(self):
        p = params_for(2.0, 8.0, 0.9, priors=(0.3, 0.7))
        i = mi_hl(p)
        assert 0.0 < i < binary_entropy(0.3)
        assert abs(mi_wf(p) - i) <= 1e-9
        assert abs(mi_wf_grid(p) - mi_wf(p)) <= 1e-9


class TestMonotonicity:
    def test_mi_nondecreasing_in_visibility(self):
        xis = np.linspace(0.0, 1.0, 9)
        for func in (mi_wf, mi_hl, mi_bds):
            vals = [func(params_for(2.5, 8.0, float(x))) for x in xis]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        vals = [mi_homodyne(params_for(2.5, 8.0, float(x))) for x in xis]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)])
    def test_homodyne_nondecreasing_in_signal(self, priors):
        means = np.geomspace(1e-12, 1e3, 200)
        vals = [mi_homodyne(params_for(float(s), 8.0, 0.94, priors)) for s in means]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mi_nondecreasing_in_lo(self):
        lo_means = np.linspace(0.0, 14.0, 8)
        for func in (mi_wf, mi_hl, mi_bds):
            vals = [func(params_for(3.07, float(z2), 0.9)) for z2 in lo_means]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestHomodyneReference:
    def test_large_separation_saturates_one_bit(self):
        assert mi_homodyne(params_for(40.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_difference_readout_approaches_reference(self):
        p_fine = params_for(3.0, 1e4, 0.9)
        assert abs(mi_hl(p_fine) - mi_homodyne(p_fine)) <= 1e-3

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)])
    def test_matches_forty_digit_oracle(self, priors):
        pytest.importorskip("mpmath")
        for signal_mean in np.geomspace(0.01, 12.0, 10):
            for xi in (0.5, 0.7, 0.86, 0.94, 1.0):
                p = params_for(float(signal_mean), 12.15, xi, priors)
                value, quad_err = mi_homodyne_quad(p)
                assert quad_err <= 1e-30
                assert abs(mi_homodyne(p) - float(value)) <= 1e-12

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.25, 0.75), (0.3, 0.7)])
    def test_relative_error_down_to_a_faint_signal(self, priors):
        # the information falls like the signal mean, so an error relative to
        # the entropy of the mixture, about 2 bits, would show at the faint end
        pytest.importorskip("mpmath")
        for signal_mean in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0):
            p = params_for(signal_mean, 12.17, 0.94, priors)
            value, _ = mi_homodyne_quad(p)
            assert abs(mi_homodyne(p) - value) <= 1e-9 * value

    @pytest.mark.parametrize("signal_mean", [1e12, 1e300, sys.float_info.max])
    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)])
    def test_bright_signal_saturates_in_fixed_memory(self, signal_mean, priors):
        p = params_for(signal_mean, 12.17, 0.94, priors)
        tracemalloc.start()
        try:
            value = mi_homodyne(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= value <= binary_entropy(priors[0]) + 1e-15
        assert value == pytest.approx(binary_entropy(priors[0]), abs=1e-12)
        assert peak < 1 << 16  # a few arrays of the 385 nodes

    @pytest.mark.parametrize("signal_mean, xi, priors", [
        (1e-12, 0.94, (0.3, 0.7)),
        (0.01, 0.5, (0.5, 0.5)),
        (3.07, 0.94, (0.5, 0.5)),
        (3.07, 1.0, (0.3, 0.7)),
        (12.0, 1.0, (0.5, 0.5)),
        (12.0, 0.86, (0.3, 0.7)),
    ])
    def test_error_bound_encloses_high_precision_information(self, signal_mean, xi, priors):
        pytest.importorskip("mpmath")
        p = params_for(signal_mean, 12.15, xi, priors)
        bits, err = _homodyne_information(p)
        assert 0.0 < err <= 1e-9
        exact, _ = mi_homodyne_quad(p, dps=50)
        assert abs(bits - exact) <= err
        assert mi_homodyne(p) == bits


class TestFactorizationCheck:
    def test_reference_point(self):
        check = wf_hl_equivalence_check(params_for(1.0, 1.0, 0.5))
        assert check.max_symbol_dependence <= 1e-10
        assert check.max_normalization_deviation <= 1e-10

    def test_nondegenerate_grid(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            p = params_for(rng.uniform(0.1, 4.0), rng.uniform(0.5, 15.0),
                           rng.uniform(0.2, 1.0))
            check = wf_hl_equivalence_check(p)
            assert check.max_symbol_dependence <= 1e-10
            assert check.max_normalization_deviation <= 1e-10

    def test_zero_visibility_gives_zero_residual(self):
        check = wf_hl_equivalence_check(params_for(2.0, 5.0, 0.0))
        assert check.max_symbol_dependence <= 1e-14


class TestPosteriorForm:
    """The posterior expectations against the mixture entropies of the
    padded mirror laws they replaced."""

    def test_matches_the_mirror_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            q0 = rng.uniform(0.05, 0.95)
            p = ChannelParams(alpha=math.sqrt(rng.uniform(0.01, 5.0)),
                              transmissivity=rng.uniform(0.05, 0.95),
                              lo_amplitude=math.sqrt(rng.uniform(0.0, 20.0)),
                              visibility=rng.uniform(0.0, 1.0), priors=(q0, 1.0 - q0))
            law, eve = mirror_law(p), eve_params(p)
            bob = information._receiver_figures(p, DEFAULT_TAIL_TOL)[0]
            assert mi_wf(p) == pytest.approx(mutual_information(law[1:3], p.priors), abs=1e-12)
            assert mi_bds(p) == pytest.approx(mutual_information(sign_laws(law), p.priors),
                                              abs=1e-12)
            assert holevo_chi_wf(bob, eve) == pytest.approx(
                holevo_chi_mixture(law[1:3], eve), abs=1e-12)
            assert holevo_chi_bds(bob, eve) == pytest.approx(
                holevo_chi_mixture(sign_laws(law), eve), abs=1e-12)

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)])
    def test_an_overflowing_ratio_takes_the_softplus_form(self, priors):
        # Delta = -1 has ratio -720: expm1(720) overflows, the bin is subnormal
        p1 = np.array([0.3 * math.exp(-720.0), 0.4, 0.3])
        posterior = _posterior(np.array([-1, 0, 1]), p1, 720.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            value = _information(priors, posterior)
        assert value == pytest.approx(mutual_information((p1[::-1], p1), priors), abs=1e-15)


class TestMiReport:
    def test_fields_and_bound(self):
        p = params_for(3.2, 12.15, 0.94)
        rep = mi_report(p)
        assert rep.i_wf == mi_hl(p)
        assert rep.i_bds <= rep.i_wf + 1e-12
        # the report is taken at the default tolerance of 1e-10
        assert rep == mi_report(p, tail_tol=1e-10)
        assert 0.0 <= rep.error_bound < 1e-6

    def test_mutual_information_utility(self):
        # perfectly distinguishable conditionals carry one bit
        assert mutual_information(([1.0, 0.0], [0.0, 1.0])) == 1.0
        assert mutual_information(([0.5, 0.5], [0.5, 0.5])) == 0.0

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)])
    def test_equal_laws_carry_exactly_nothing(self, priors):
        # halving a subnormal bin rounds, so the mixture would differ from the law
        law = [1.0 - 3e-310, 1e-310, 2e-310]
        assert mutual_information((law, law), priors) == 0.0
        with pytest.raises(ValidationError):
            mutual_information(([0.5, -0.1], [0.5, -0.1]))
