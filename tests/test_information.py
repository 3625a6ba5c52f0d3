import math

import numpy as np
import pytest

from pnrchan import (
    ChannelParams,
    ValidationError,
    binary_entropy,
    mi_bds,
    mi_hl,
    mi_homodyne,
    mi_report,
    mi_wf,
    mutual_information,
    shannon_entropy,
)
from pnrchan.information import _hl_conditionals, _homodyne_mixture_entropy, _sign_law
from pnrchan.receivers import DEFAULT_TAIL_TOL, homodyne_mean

from oracles import mi_homodyne_quad, mi_wf_grid, wf_hl_equivalence_check


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
        assert mi_homodyne(params_for(0.0, 4.0, 0.9)) == pytest.approx(0.0, abs=1e-9)


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
            s0, _ = _sign_law(_hl_conditionals(p, DEFAULT_TAIL_TOL))
            p_err = s0[1]  # wrong sign
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
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

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
    def test_matches_adaptive_quadrature_oracle(self, priors):
        for signal_mean in np.geomspace(0.01, 12.0, 10):
            for xi in (0.5, 0.7, 0.86, 0.94, 1.0):
                p = params_for(float(signal_mean), 12.15, xi, priors)
                value, quad_err = mi_homodyne_quad(p)
                assert quad_err <= 1e-9
                assert abs(mi_homodyne(p) - value) <= 1e-12

    @pytest.mark.parametrize("signal_mean, xi, priors", [
        (0.01, 0.5, (0.5, 0.5)),
        (3.07, 0.94, (0.5, 0.5)),
        (3.07, 1.0, (0.3, 0.7)),
        (12.0, 1.0, (0.5, 0.5)),
        (12.0, 0.86, (0.3, 0.7)),
    ])
    def test_error_bound_encloses_high_precision_entropy(self, signal_mean, xi, priors):
        mpmath = pytest.importorskip("mpmath")
        p = params_for(signal_mean, 12.15, xi, priors)
        a0, a1 = homodyne_mean(p, 0), homodyne_mean(p, 1)
        h_bits, err = _homodyne_mixture_entropy(a0, a1, *priors)
        assert 0.0 < err <= 1e-9
        with mpmath.workdps(50):
            q0, q1 = (mpmath.mpf(q) for q in priors)
            norm = 1 / mpmath.sqrt(2 * mpmath.pi)

            def neg_p_log_p(y):
                dens = norm * (q0 * mpmath.exp(-(y - a0) ** 2 / 2)
                               + q1 * mpmath.exp(-(y - a1) ** 2 / 2))
                return -dens * mpmath.log(dens)

            knots = [-mpmath.inf, a0, 0.5 * (a0 + a1), a1, mpmath.inf]
            exact = mpmath.quad(neg_p_log_p, knots) / mpmath.log(2)
            exact_mi = exact - mpmath.log(2 * mpmath.pi * mpmath.e, 2) / 2
        assert abs(h_bits - float(exact)) <= err
        assert abs(mi_homodyne(p) - float(exact_mi)) <= err + 1e-15


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
