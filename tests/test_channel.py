import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrchan import (
    ChannelParams,
    ValidationError,
    coherent_overlap,
    detection_rates,
    eve_params,
    loss_db_to_transmissivity,
    transmissivity_to_loss_db,
)

# the largest loss whose transmissivity is a normal double; the next double
# up leaves a subnormal one
LOSS_EDGE_DB = 3076.526555685887


def random_params(rng):
    return ChannelParams(
        alpha=math.sqrt(rng.uniform(0.01, 5.0)),
        transmissivity=rng.uniform(0.05, 1.0),
        lo_amplitude=math.sqrt(rng.uniform(0.0, 20.0)),
        visibility=rng.uniform(0.0, 1.0),
    )


class TestDetectionRates:
    def test_perfect_interference(self):
        # T*alpha^2 = z^2 = 4 with unit visibility: all light on one arm
        p = ChannelParams(alpha=2.0, transmissivity=1.0, lo_amplitude=2.0,
                          visibility=1.0)
        mu_t, mu_r = detection_rates(p, 1)
        assert mu_t == pytest.approx(8.0, abs=1e-14)
        assert mu_r == pytest.approx(0.0, abs=1e-14)

    def test_no_lo_splits_evenly(self):
        p = ChannelParams(alpha=1.7, transmissivity=0.6, lo_amplitude=0.0,
                          visibility=0.8)
        for k in (0, 1):
            mu_t, mu_r = detection_rates(p, k)
            assert mu_t == pytest.approx(p.signal_mean / 2, rel=1e-15)
            assert mu_r == pytest.approx(p.signal_mean / 2, rel=1e-15)

    def test_zero_visibility_kills_cross_term(self):
        p = ChannelParams(alpha=1.2, transmissivity=0.9, lo_amplitude=2.5,
                          visibility=0.0)
        total = p.signal_mean + p.lo_mean
        for k in (0, 1):
            mu_t, mu_r = detection_rates(p, k)
            assert mu_t == pytest.approx(total / 2, rel=1e-15)
            assert mu_r == pytest.approx(total / 2, rel=1e-15)

    @pytest.mark.parametrize("xi", [0.5, 1.0])
    def test_cross_term_survives_an_underflowing_product(self, xi):
        # signal and LO means of 1e-300: their product underflows to 0, but
        # the cross term 2 xi sqrt(s) sqrt(z2) = 2 xi 1e-300 does not
        p = ChannelParams(alpha=1e-150, transmissivity=1.0, lo_amplitude=1e-150,
                          visibility=xi)
        assert p.signal_mean * p.lo_mean == 0.0
        mu_t, mu_r = detection_rates(p, 1)
        assert mu_t == pytest.approx((1.0 + xi) * 1e-300, rel=1e-14)
        assert mu_r == pytest.approx((1.0 - xi) * 1e-300, rel=1e-14, abs=0.0)
        assert detection_rates(p, 0) == (mu_r, mu_t)
        assert mu_t != mu_r

    def test_symbol_one_favors_transmitted_arm(self):
        p = ChannelParams(alpha=1.0, transmissivity=0.8, lo_amplitude=1.5,
                          visibility=0.9)
        mu_t, mu_r = detection_rates(p, 1)
        assert mu_t >= mu_r
        mu_t, mu_r = detection_rates(p, 0)
        assert mu_t <= mu_r

    def test_energy_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_params(rng)
            expected = p.signal_mean + p.lo_mean
            for k in (0, 1):
                mu_t, mu_r = detection_rates(p, k)
                assert abs((mu_t + mu_r) - expected) <= 4 * math.ulp(expected)

    def test_symbol_swap_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_params(rng)
            (t0, r0), (t1, r1) = detection_rates(p, 0), detection_rates(p, 1)
            assert t0 == r1
            assert r0 == t1

    def test_monotone_in_visibility(self):
        xis = np.linspace(0.0, 1.0, 21)
        mu_t = [detection_rates(
            ChannelParams(alpha=1.3, transmissivity=0.7, lo_amplitude=2.0,
                          visibility=float(x)), 1)[0] for x in xis]
        mu_r = [detection_rates(
            ChannelParams(alpha=1.3, transmissivity=0.7, lo_amplitude=2.0,
                          visibility=float(x)), 1)[1] for x in xis]
        assert all(b >= a for a, b in zip(mu_t, mu_t[1:]))
        assert all(b <= a for a, b in zip(mu_r, mu_r[1:]))

    def test_bad_symbol_rejected(self):
        p = ChannelParams(alpha=1.0)
        with pytest.raises(ValidationError):
            detection_rates(p, 2)


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-0.1),
        dict(alpha=1.0, transmissivity=0.0),
        dict(alpha=1.0, transmissivity=1.2),
        dict(alpha=1.0, lo_amplitude=-1.0),
        dict(alpha=1.0, visibility=1.1),
        dict(alpha=1.0, visibility=-0.2),
        dict(alpha=1.0, priors=(0.7, 0.7)),
        dict(alpha=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("priors", [
        (float("nan"), float("nan")),
        (float("nan"), 0.5),
        (float("inf"), float("-inf")),
        (0.2, 0.3, 0.5),
        (1.0,),
        0.5,
        ("0.5", "0.5"),
        (0.5, 0.5 + 1.1e-12),  # a sum off 1 by more than 1e-12
    ])
    def test_malformed_priors_rejected(self, priors):
        with pytest.raises(ValidationError):
            ChannelParams(alpha=1.0, priors=priors)

    @pytest.mark.parametrize("priors", [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5 + 0.9e-12)])
    def test_priors_on_the_edge_are_accepted(self, priors):
        assert ChannelParams(alpha=1.0, priors=priors).priors == priors

    def test_zero_alpha_is_the_degenerate_channel(self):
        p = ChannelParams(alpha=0.0, lo_amplitude=1.0)
        assert p.signal_mean == 0.0

    def test_from_means_round_trip(self):
        p = ChannelParams.from_means(3.07, 12.17, visibility=0.91, loss_db=2.0)
        assert p.signal_mean == pytest.approx(3.07, rel=1e-12)
        assert p.lo_mean == pytest.approx(12.17, rel=1e-12)
        assert p.transmissivity == pytest.approx(10 ** -0.2, rel=1e-12)


class TestEveParams:
    def test_wiretap_substitution(self):
        p = ChannelParams(alpha=1.0, transmissivity=0.7, lo_amplitude=2.0,
                          visibility=0.94)
        e = eve_params(p)
        assert e.transmissivity == pytest.approx(0.3, rel=1e-12)
        assert e.visibility == 1.0
        assert e.lo_amplitude == p.lo_amplitude
        assert e.alpha == p.alpha

    def test_symmetric_point(self):
        p = ChannelParams(alpha=1.0, transmissivity=0.5, lo_amplitude=1.0,
                          visibility=1.0)
        e = eve_params(p)
        assert e.transmissivity == pytest.approx(0.5, rel=1e-15)
        assert e.visibility == 1.0

    def test_near_lossless(self):
        p = ChannelParams(alpha=1.0, transmissivity=0.99, lo_amplitude=1.0,
                          visibility=0.9)
        e = eve_params(p)
        assert e.transmissivity == pytest.approx(0.01, rel=1e-10)

    def test_lossless_channel_rejected(self):
        p = ChannelParams(alpha=1.0, transmissivity=1.0, lo_amplitude=1.0)
        with pytest.raises(ValidationError):
            eve_params(p)

    def test_lo_override(self):
        p = ChannelParams(alpha=1.0, transmissivity=0.6, lo_amplitude=2.0)
        e = eve_params(p, lo_amplitude=3.5)
        assert e.lo_amplitude == 3.5


class TestCoherentOverlap:
    def test_identical_states(self):
        assert coherent_overlap(0.0) == 1.0

    def test_analytic_inversion(self):
        assert coherent_overlap(math.log(2) / 2) == pytest.approx(0.5, rel=1e-15)

    def test_value_at_three(self):
        assert coherent_overlap(3.0) == pytest.approx(0.0024787521766663585, rel=1e-14)

    def test_against_truncated_fock_inner_product(self):
        # <-b|+b> = sum_n exp(-b^2) (-b^2)^n / n!, summed in the number basis
        for beta_sq in (0.3, 1.0, 3.0):
            n = np.arange(0, 200)
            from scipy.special import gammaln
            terms = ((-1.0) ** n) * np.exp(-beta_sq + n * np.log(beta_sq)
                                           - gammaln(n + 1.0))
            assert coherent_overlap(beta_sq) == pytest.approx(terms.sum(), abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            coherent_overlap(-0.5)


class TestLossConversion:
    def test_zero_db(self):
        assert loss_db_to_transmissivity(0.0) == 1.0

    def test_half_power(self):
        assert loss_db_to_transmissivity(3.0103) == pytest.approx(0.5, rel=1e-5)

    def test_reference_max_loss(self):
        assert loss_db_to_transmissivity(13.44) == pytest.approx(
            0.04528975799036206, rel=1e-13)

    def test_round_trip(self):
        for x in np.linspace(0.0, 60.0, 121):
            t = loss_db_to_transmissivity(float(x))
            assert transmissivity_to_loss_db(t) == pytest.approx(float(x), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            loss_db_to_transmissivity(-1.0)
        with pytest.raises(ValidationError):
            transmissivity_to_loss_db(1.5)

    @pytest.mark.parametrize("loss_db", [3300.0, 1e308])
    def test_underflowing_transmissivity_is_named_by_its_loss(self, loss_db):
        with pytest.raises(ValidationError, match=re.escape(f"loss of {loss_db:.12g} dB")):
            loss_db_to_transmissivity(loss_db)

    @pytest.mark.parametrize("loss_db", [3236.0, 3200.0, 3100.0, LOSS_EDGE_DB + 1e-9])
    def test_subnormal_transmissivity_is_named_by_its_loss(self, loss_db):
        # a subnormal transmissivity, down to the smallest, 5e-324 at 3236 dB,
        # would not hold its loss: 3200 dB came back as 3200.00004834948
        with pytest.raises(ValidationError, match=re.escape(f"loss of {loss_db:.12g} dB")):
            loss_db_to_transmissivity(loss_db)

    def test_largest_loss_with_a_normal_transmissivity_is_kept(self):
        assert loss_db_to_transmissivity(LOSS_EDGE_DB) >= sys.float_info.min
        with pytest.raises(ValidationError):
            loss_db_to_transmissivity(float(np.nextafter(LOSS_EDGE_DB, 1e4)))

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(st.floats(0.0, LOSS_EDGE_DB) | st.sampled_from([0.0, 5e-324, 1.0, LOSS_EDGE_DB]))
    def test_round_trip_holds_the_loss_up_to_the_edge(self, loss_db):
        # within a few ulp of the loss; near 0 dB, where the transmissivity
        # rounds next to 1, one ulp of it is worth about 5e-16 dB
        back = transmissivity_to_loss_db(loss_db_to_transmissivity(loss_db))
        assert abs(back - loss_db) <= 4 * np.spacing(loss_db) + 1e-15

    def test_source_mean_that_overflows_is_named_by_its_loss(self):
        with pytest.raises(ValidationError, match="loss of 3100 dB"):
            ChannelParams.from_means(3.0, 1.0, loss_db=3100.0)
        # no signal needs no source, but 3100 dB is refused by itself
        with pytest.raises(ValidationError, match="loss of 3100 dB"):
            ChannelParams.from_means(0.0, 1.0, loss_db=3100.0)
