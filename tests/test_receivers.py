import math

import numpy as np
import pytest
from scipy.special import ive
from scipy.stats import poisson as sp_poisson

from pnrchan import (
    ChannelParams,
    NumericsError,
    ValidationError,
    detection_rates,
    homodyne_mean,
    mi_homodyne,
    skellam_pmf_grid,
)
from pnrchan import receivers
from pnrchan.information import _sign_split
from pnrchan.receivers import (DEFAULT_TAIL_TOL, poisson_logpmf, poisson_pmf, poisson_window,
                               skellam_window)

from oracles import mirror_law, skellam_pmf_mpmath, wf_pmf

UNIT_ROUNDOFF = 2.0 ** -53

# computed once with mpmath at 200 decimal digits: exp(-500)*500^500/500!
POIS_500_500 = 0.017838267869511779


def skellam_convolution_oracle(mu_t, mu_r, delta):
    """Independent route: truncated convolution of scipy's own Poisson pmfs."""
    m0 = max(0, -int(delta))
    m_hi = m0 + int(math.ceil(mu_r + 12.0 * math.sqrt(mu_r) + 80.0))
    m = np.arange(m0, m_hi + 1)
    return float((sp_poisson.pmf(m + delta, mu_t) * sp_poisson.pmf(m, mu_r)).sum())


def skellam_mpmath_oracle(mu_t, mu_r, delta):
    """exp(-(mu_t + mu_r)) (mu_t/mu_r)^(delta/2) I_|delta|(2 sqrt(mu_t mu_r)), 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        t, r = mpmath.mpf(mu_t), mpmath.mpf(mu_r)
        return float(mpmath.exp(-(t + r)) * (t / r) ** (mpmath.mpf(delta) / 2)
                     * mpmath.besseli(abs(delta), 2 * mpmath.sqrt(t * r)))


def params_for(signal_mean, lo_mean, xi):
    return ChannelParams(alpha=math.sqrt(signal_mean), transmissivity=1.0,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi)


def difference_law(params, symbol):
    """The difference law of one symbol, computed from that symbol's own rates."""
    return skellam_pmf_grid(*detection_rates(params, symbol))


class TestPoissonPmf:
    def test_zero_count_is_exp_minus_mu(self):
        for mu in (0.3, 1.0, 17.5):
            assert poisson_pmf(0, mu) == pytest.approx(math.exp(-mu), rel=1e-15)

    def test_vacuum(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_against_arbitrary_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        cases = [(500, 500.0), (3, 3.0), (100, 150.0), (1000, 900.0), (17, 0.05)]
        for n, mu in cases:
            with mpmath.workdps(200):
                exact = float(
                    mpmath.e ** (-mpmath.mpf(mu)) * mpmath.mpf(mu) ** n / mpmath.factorial(n)
                )
            assert poisson_pmf(n, mu) == pytest.approx(exact, rel=1e-12)
        assert poisson_pmf(500, 500.0) == pytest.approx(POIS_500_500, rel=1e-12)

    @pytest.mark.parametrize("mu", [5e-324, 1e-310, 1e-3, 0.37, 3.7, 15.5, 822.7, 1e4,
                                    999_000.0])
    def test_log_pmf_against_arbitrary_precision_oracle(self, mu):
        # counts 1-15 read stirlerr from its table, 16 and up the Stirling
        # series; the error is a few ulp of the larger of 1 and |ln p|
        mpmath = pytest.importorskip("mpmath")
        counts = list(range(18)) + [30, 100, 1197, 10_000, 120_000, 999_000, 1_000_000]
        got = poisson_logpmf(np.array(counts), mu)
        for n, lp in zip(counts, got):
            with mpmath.workdps(50):
                exact = n * mpmath.log(mu) - mu - mpmath.loggamma(n + 1)
            scale = max(1.0, abs(float(exact)))
            assert abs(float(mpmath.mpf(lp) - exact)) <= 16 * UNIT_ROUNDOFF * scale

    @pytest.mark.filterwarnings("error")
    def test_subnormal_rate_gives_no_warning(self):
        # n / mu overflows for a subnormal mu; ln p is finite all the same
        mu = 1e-310
        assert poisson_logpmf(31, mu) == pytest.approx(31 * math.log(mu) - math.lgamma(32),
                                                       rel=1e-15)
        assert poisson_pmf(31, mu) == 0.0
        assert poisson_pmf(1, mu) == pytest.approx(mu, rel=1e-12)

    def test_no_overflow_at_million_counts(self):
        lp = poisson_logpmf(1_000_000, 999_000.0)
        assert math.isfinite(lp)
        # log-domain value cross-checked against scipy's independent evaluation
        assert lp == pytest.approx(float(sp_poisson.logpmf(1_000_000, 999_000.0)),
                                   rel=1e-10)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            poisson_pmf(-1, 2.0)
        with pytest.raises(ValidationError):
            poisson_pmf(2, -0.5)
        with pytest.raises(ValidationError):
            poisson_pmf(2.5, 1.0)
        # one bad count among good ones, and an infinite count
        for counts in ([3, -1], [3.0, 2.5], [3.0, math.inf]):
            with pytest.raises(ValidationError, match="counts must be nonnegative integers"):
                poisson_logpmf(np.array(counts), 2.0)


class TestPoissonWindow:
    def test_tail_bound_brackets_the_exact_tail(self):
        # the Chernoff bound covers the exact tail P(N >= d), d = n_max + 1,
        # and exceeds it by at most e sqrt(d): it is e^(d - mu) (mu / d)^d,
        # at most e sqrt(d) P(N = d) since d! <= e d^(d + 1/2) e^-d (Stirling);
        # a bound below the double range reads 0
        mpmath = pytest.importorskip("mpmath")
        for mu in np.geomspace(0.1, 1e6, 60):
            mu = float(mu)
            for tail_tol in (1e-10, 1e-40, 1e-200):
                n_max, tail = poisson_window(mu, tail_tol)
                assert tail <= tail_tol
                with mpmath.workdps(40):
                    exact = mpmath.gammainc(n_max + 1, 0, mu, regularized=True)
                    limit = mpmath.e * mpmath.sqrt(n_max + 1) * exact
                    if limit < mpmath.mpf(2) ** -1075:
                        assert tail == 0.0
                    else:
                        assert exact <= tail <= limit

    def test_dark_rate_has_the_point_window(self):
        assert poisson_window(0.0) == (0, 0.0)
        with pytest.raises(NumericsError):
            poisson_window(0.0, tail_tol=0.0)


class TestChernoffBound:
    """The one tail certificate against the same formula at 60 digits."""

    @staticmethod
    def exact(mu_t, mu_r, d):
        """min over u > 1 of exp(mu_t (u - 1) + mu_r (1/u - 1) - d ln u)."""
        import mpmath

        if mu_t == 0.0:
            return mpmath.mpf(0 if d > 0 else 1)
        with mpmath.workdps(60):
            t, r = mpmath.mpf(mu_t), mpmath.mpf(mu_r)
            u = (d + mpmath.sqrt(mpmath.mpf(d) ** 2 + 4 * t * r)) / (2 * t)
            if u <= 1:
                return mpmath.mpf(1)
            return mpmath.exp(t * (u - 1) + r * (1 / u - 1) - d * mpmath.log(u))

    @pytest.mark.parametrize("mu", [float(m) for m in np.geomspace(1e-300, 1e18, 40)])
    def test_rounded_up_and_tight_at_every_edge(self, mu):
        # both orientations of a balanced pair, an unbalanced pair and a dark
        # arm, at the base window edges and 1, 3 and 6 sigma beyond them; the
        # bound is never below the exact value, and within 1e-10 of it up to
        # a mean of 1e6 and 1e-5 up to 1e18
        mpmath = pytest.importorskip("mpmath")
        rel = mpmath.mpf(1e-10 if mu <= 1e6 else 1e-5)
        for mu_t, mu_r in ((0.6 * mu, 0.4 * mu), (mu, 1e-3 * mu), (mu, 0.0)):
            sigma = math.sqrt(mu_t + mu_r)
            half = math.ceil(12.0 * sigma + 30.0)
            lo = math.floor(mu_t - mu_r) - half if mu_r > 0.0 else 0
            hi = math.ceil(mu_t - mu_r) + half
            for k in (0, 1, 3, 6):
                beyond = math.ceil(k * sigma)
                for args in ((mu_t, mu_r, hi + 1 + beyond), (mu_r, mu_t, 1 - lo + beyond)):
                    got = receivers._skellam_chernoff_upper(*args)
                    exact = self.exact(*args)
                    # a bound below half the least subnormal reads 0
                    assert got >= exact or (got == 0.0 and exact < mpmath.mpf(2) ** -1075)
                    if exact >= mpmath.mpf(2) ** -1022:
                        assert got <= exact * (1 + rel), args

    @pytest.mark.parametrize("mu_r", [0.0, 1e-300, 1e-3, 0.5, 12.17, 300.0])
    def test_a_dark_arm_covers_the_exact_tail_at_every_edge(self, mu_r):
        # with mu_t = 0, Delta = -m, so P(Delta >= d) = P(m <= -d): 0 for d
        # >= 1, and e^-mu_r at d = 0; the callers pass only d >= 1 today
        for d in range(-5, 2):
            got = receivers._skellam_chernoff_upper(0.0, mu_r, d)
            assert sp_poisson.cdf(-d, mu_r) <= got <= 1.0, d
        assert receivers._skellam_chernoff_upper(0.0, mu_r, 1) == 0.0

    def test_rounded_up_near_the_mean(self):
        # where the exponent's terms are small, the cover of their rounding
        # rests on its constant term: without it the bound fell below the
        # exact value, at (1.2, 0.3, 1) for one
        pytest.importorskip("mpmath")
        for mu_t in (0.5, 1.2, 3.07, 12.17, 30.0):
            for mu_r in (0.0, 0.3, 0.4 * mu_t, 0.9 * mu_t):
                for d in range(1, math.ceil(mu_t - mu_r) + 3):
                    got = receivers._skellam_chernoff_upper(mu_t, mu_r, d)
                    assert got >= self.exact(mu_t, mu_r, d), (mu_t, mu_r, d)

    def test_at_or_below_the_mean_the_bound_is_one(self):
        # no tilt u > 1 lowers the bound there; at d = 2 the optimal tilt is
        # exactly 1 (2 mu_t u = 2 + sqrt(4 + 12) = 6)
        for d in range(-3, 3):
            assert receivers._skellam_chernoff_upper(3.0, 1.0, d) == 1.0, d

    def test_extreme_rate_ratio_keeps_the_base_window(self):
        # d + sqrt(d^2 + 4 mu_t mu_r) cancels for d < 0: formed that way, the
        # lower tail read 1 and the window grew to [-47813, 247813]
        assert skellam_window(1e5, 1e-20) == (96175, 103825, pytest.approx(4.7e-32, rel=0.01))

    @pytest.mark.parametrize("rates", [(12.17, 3.07), (3000.0, 2990.0), (5.0, 0.0)])
    def test_a_tail_equal_to_the_tolerance_is_certified(self, rates):
        # "at most tail_tol": the window whose bound is the tolerance itself
        # is kept, not grown
        window = skellam_window(*rates)
        assert skellam_window(*rates, window[2]) == window

    @pytest.mark.parametrize("rates", [(12.17, 3.07), (3000.0, 2990.0)])
    def test_an_uncertified_window_grows_to_half_again_and_ten_bins(self, rates):
        # the rule that sets every window wider than the base one: half-width
        # h becomes ceil(1.5 h) + 10 while the tail exceeds the tolerance
        lo, hi, tail = skellam_window(*rates)
        half = math.ceil(12.0 * math.sqrt(sum(rates)) + 30.0)
        grown = math.ceil(1.5 * half) + 10
        assert skellam_window(*rates, 0.5 * tail)[:2] == (lo + half - grown, hi - half + grown)

    @pytest.mark.parametrize("half, fits", [(2**19 - 1, True), (2**19, False)])
    def test_the_bin_budget_holds_its_last_bin_and_no_more(self, half, fits):
        # mean 1/2 and 12 sqrt(mu_t + mu_r) + 30 = half - 1/2: the base window
        # [0 - half, 1 + half] has 2 half + 2 bins, 2^20 exactly for the first
        total = ((half - 30.5) / 12.0) ** 2
        rates = (0.5 * (total + 0.5), 0.5 * (total - 0.5))
        if fits:
            lo, hi, _ = skellam_window(*rates)
            assert hi - lo + 1 == receivers._MAX_WINDOW_BINS
        else:
            with pytest.raises(ValidationError, match="more than 1048576 bins"):
                skellam_window(*rates)


class TestOneSidedLaw:
    """A dark arm: the difference law is the lit arm's Poisson law."""

    RATES = [1e-300, 1e-100, 1e-8, 1e-3, 0.3, 3.7, 12.17, 30.0, 150.0, 1e3, 1e4, 1e5]

    @staticmethod
    def poisson_mpmath(mu, n):
        import mpmath

        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            return mpmath.exp(n * mpmath.log(m) - m - mpmath.loggamma(n + 1))

    @pytest.mark.parametrize("mu", RATES)
    def test_every_bin_against_arbitrary_precision_oracle(self, mu):
        mpmath = pytest.importorskip("mpmath")
        deltas, probs, _ = skellam_pmf_grid(mu, 0.0)
        assert deltas[0] == 0
        for n, p in zip(deltas, probs):
            # products that end below the normal range; the far ones are
            # screened in double, which is off by far less than the margin
            far = int(n) * math.log(mu) - mu - math.lgamma(int(n) + 1) < -700.0
            exact = 0.0 if far else self.poisson_mpmath(mu, int(n))
            if exact < 1e-290:
                assert p <= 1e-290
                continue
            assert abs(mpmath.mpf(p) / exact - 1) <= 2e-14

    @pytest.mark.parametrize("mu", RATES)
    def test_mass_is_one_to_a_few_ulp(self, mu):
        _, probs, tail = skellam_pmf_grid(mu, 0.0)
        assert abs(math.fsum(probs) - 1.0) <= 4 * UNIT_ROUNDOFF + tail

    @pytest.mark.parametrize("mu", RATES)
    def test_dark_transmitted_arm_is_the_exact_mirror(self, mu):
        deltas, probs, tail = skellam_pmf_grid(mu, 0.0)
        m_deltas, m_probs, m_tail = skellam_pmf_grid(0.0, mu)
        np.testing.assert_array_equal(m_deltas, -deltas[::-1])
        np.testing.assert_array_equal(m_probs, probs[::-1])
        assert m_tail == tail

    @pytest.mark.parametrize("mu", RATES)
    def test_window_is_the_one_sided_base_rule(self, mu):
        lo, hi, tail = skellam_window(mu, 0.0)
        assert (lo, hi) == (0, math.ceil(mu) + math.ceil(12.0 * math.sqrt(mu) + 30.0))
        assert tail <= DEFAULT_TAIL_TOL


class TestSkellam:
    def test_symmetric_rates(self):
        mu = 3.7
        deltas, probs, _ = skellam_pmf_grid(mu, mu)
        center = np.nonzero(deltas == 0)[0][0]
        assert probs[center] == pytest.approx(math.exp(-2 * mu) * ive(0, 2 * mu)
                                              * math.exp(2 * mu), rel=1e-13)
        np.testing.assert_allclose(probs, probs[::-1], rtol=0, atol=0)

    def test_one_dark_detector_is_poisson(self):
        deltas, probs, _ = skellam_pmf_grid(4.2, 0.0)
        assert deltas[0] == 0
        np.testing.assert_allclose(probs, sp_poisson.pmf(deltas, 4.2), rtol=1e-12)
        deltas, probs, _ = skellam_pmf_grid(0.0, 4.2)
        assert deltas[-1] == 0
        np.testing.assert_allclose(probs, sp_poisson.pmf(-deltas, 4.2), rtol=1e-12)

    def test_both_dark(self):
        deltas, probs, tail = skellam_pmf_grid(0.0, 0.0)
        assert list(deltas) == [0]
        assert probs[0] == 1.0 and tail == 0.0

    def test_matches_convolution_oracle(self):
        deltas, probs, _ = skellam_pmf_grid(6.2, 1.9)
        for i, d in enumerate(deltas):
            assert abs(probs[i] - skellam_convolution_oracle(6.2, 1.9, int(d))) <= 1e-12

    def test_extreme_ratio_against_oracle(self):
        for mu_t, mu_r in [(20.0, 2e-5), (3e-4, 30.0), (1e-6, 1.0), (100.0, 1e-4)]:
            deltas, probs, _ = skellam_pmf_grid(mu_t, mu_r)
            step = max(1, len(deltas) // 15)
            picks = sorted(set(range(0, len(deltas), step)) | {len(deltas) - 1})
            for i in picks:
                oracle = skellam_convolution_oracle(mu_t, mu_r, int(deltas[i]))
                assert abs(probs[i] - oracle) <= 1e-12

    def test_scaled_bessel_underflow_fallback_keeps_tiny_mass(self):
        # at this ratio the scaled Bessel underflows near the window edge
        # while the pmf prefactor compensates; the value must survive
        from scipy.special import ive

        deltas, probs, _ = skellam_pmf_grid(100.0, 1e-4)
        x = 2.0 * math.sqrt(100.0 * 1e-4)
        edge = np.nonzero(ive(np.abs(deltas).astype(float), x) == 0.0)[0]
        assert len(edge) > 0
        for i in edge[:5]:
            oracle = skellam_convolution_oracle(100.0, 1e-4, int(deltas[i]))
            assert oracle > 0.0
            assert probs[i] == pytest.approx(oracle, rel=1e-10)

    def test_tiny_rate_product_branch(self):
        # a rate product far below double range, in both orientations: the
        # law is Poisson on the bright arm's side
        for mu_t, mu_r, sign in ((5.0, 1e-290, 1), (1e-290, 5.0, -1)):
            deltas, probs, _ = skellam_pmf_grid(mu_t, mu_r)
            total = probs.sum()
            assert total == pytest.approx(1.0, abs=1e-10)
            idx = np.nonzero(deltas == 3 * sign)[0][0]
            assert probs[idx] == pytest.approx(float(sp_poisson.pmf(3, 5.0)), rel=1e-10)

    def test_bright_arm_on_the_reflected_side_keeps_its_far_tail(self):
        deltas, probs, _ = skellam_pmf_grid(1e-290, 5.0)
        for delta in (-31, -32):
            exact = skellam_mpmath_oracle(1e-290, 5.0, delta)
            assert exact > 1e-16
            assert probs[deltas == delta][0] == pytest.approx(exact, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("mu_t, mu_r", [
        (5.0, 1e-290), (1e-290, 5.0), (1.0, 1e-290), (30.0, 1e-300), (1e-300, 30.0),
        (1e-145, 1e-145), (1e-200, 1e-100), (1.5e-300, 5e-301), (1e-310, 1e-310),
    ])
    def test_tiny_rates_against_arbitrary_precision_oracle(self, mu_t, mu_r):
        deltas, probs, tail = skellam_pmf_grid(mu_t, mu_r)
        assert tail <= DEFAULT_TAIL_TOL
        assert abs(probs.sum() - 1.0) <= 2e-14
        for delta, p in zip(deltas, probs):
            assert abs(p - skellam_mpmath_oracle(mu_t, mu_r, int(delta))) <= 2e-14

    def test_normalization_random_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            p = ChannelParams(
                alpha=math.sqrt(rng.uniform(0.01, 5.0)),
                transmissivity=rng.uniform(0.05, 1.0),
                lo_amplitude=math.sqrt(rng.uniform(0.0, 20.0)),
                visibility=rng.uniform(0.0, 1.0),
            )
            for k in (0, 1):
                _, probs, tail = difference_law(p, k)
                missing = 1.0 - probs.sum()
                assert -1e-12 <= missing <= 1e-10
                # the certified tail covers the mass the window misses
                assert missing <= tail + 1e-12
                assert tail <= 1e-10

    def test_moments(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            p = ChannelParams(
                alpha=math.sqrt(rng.uniform(0.05, 5.0)),
                transmissivity=1.0,
                lo_amplitude=math.sqrt(rng.uniform(0.1, 20.0)),
                visibility=rng.uniform(0.0, 1.0),
            )
            mu_t, mu_r = detection_rates(p, 1)
            deltas, probs, _ = difference_law(p, 1)
            mean = float((deltas * probs).sum())
            variance = float((((deltas - mean) ** 2) * probs).sum())
            assert mean == pytest.approx(mu_t - mu_r, rel=1e-8, abs=1e-8)
            assert variance == pytest.approx(mu_t + mu_r, rel=1e-8)

    def test_symbol_swap_mirror_is_exact(self):
        p = params_for(2.3, 9.7, 0.87)
        d0, probs0, _ = difference_law(p, 0)
        d1, probs1, _ = difference_law(p, 1)
        assert d0[0] == -d1[-1]
        assert d0[-1] == -d1[0]
        np.testing.assert_array_equal(probs0, probs1[::-1])

    def test_mirror_oracle_mirrors_symbol_one(self):
        # the oracle derives symbol 0 by reversal; it must agree with the
        # law computed from the symbol-0 rates on a symmetric window
        p = params_for(2.3, 9.7, 0.87)
        deltas, p0, p1, tail = mirror_law(p, DEFAULT_TAIL_TOL)
        np.testing.assert_array_equal(deltas, -deltas[::-1])
        np.testing.assert_array_equal(p0, p1[::-1])
        for k, law in ((0, p0), (1, p1)):
            dk, probs, tail_k = difference_law(p, k)
            np.testing.assert_array_equal(law[dk[0] - deltas[0]:dk[-1] - deltas[0] + 1], probs)
            assert law.sum() == probs.sum()
            assert tail == tail_k

    def test_zero_tail_tolerance_fails_certification(self):
        with pytest.raises(NumericsError):
            skellam_pmf_grid(3.0, 1.0, tail_tol=0.0)


class TestSkellamRecurrence:
    """The recurrence kernel against an mpmath Poisson convolution."""

    PAIRS = [
        (55000.0, 45000.0), (1e5, 1e5), (1e5, 1e3), (1e5, 1.0), (1e4, 1e4),
        (5500.0, 4500.0), (5081.0, 4922.0), (1e3, 30.0), (150.0, 50.0),
        (30.0, 30.0), (30.0, 1e-300), (3.7, 1.0),
        (3.7, 1e-8), (1.0, 1e-100), (0.3, 1e-3), (0.3, 0.3), (1e-3, 1e-8),
        (1e-100, 1e-300), (1e-300, 1e-300),
    ]

    @pytest.mark.parametrize("mu_t, mu_r", PAIRS + [(r, t) for t, r in PAIRS if t != r])
    def test_every_bin_against_arbitrary_precision_oracle(self, mu_t, mu_r):
        mpmath = pytest.importorskip("mpmath")
        deltas, probs, _ = skellam_pmf_grid(mu_t, mu_r)
        if (mu_t, mu_r) == (55000.0, 45000.0):
            assert deltas[0] > 0  # a window that excludes 0
        # the window's edges, its mode, and 25 bins between
        picks = set(np.linspace(0, len(deltas) - 1, 27).astype(int))
        picks.add(int(np.argmax(probs)))
        for i in sorted(picks):
            exact = skellam_pmf_mpmath(mu_t, mu_r, int(deltas[i]))
            if exact < 1e-290:  # products that end below the normal range
                assert probs[i] <= 1e-290
                continue
            assert abs(mpmath.mpf(probs[i]) / exact - 1) <= 2e-14

    @pytest.mark.parametrize("mu_t, mu_r", PAIRS + [(r, t) for t, r in PAIRS if t != r])
    def test_mass_is_one_to_a_few_ulp(self, mu_t, mu_r):
        _, probs, tail = skellam_pmf_grid(mu_t, mu_r)
        assert abs(math.fsum(probs) - 1.0) <= 4 * UNIT_ROUNDOFF + tail

    @pytest.mark.parametrize("mu_t", [0.5, 3.07, 30.0, 300.0, 3000.0])
    def test_the_start_leaves_a_tail_below_rounding_of_the_window_tail(self, mu_t):
        # on each side, the bound beyond the start is at most 2^-53 of the
        # bound beyond the window edge
        for mu_r in (0.0, 0.3, 0.4 * mu_t, 0.9 * mu_t):
            lo, hi, _ = skellam_window(mu_t, mu_r)
            for t, r, edge in ((mu_t, mu_r, hi), (mu_r, mu_t, -lo)):
                if t == 0.0:
                    continue
                start = receivers._recurrence_start(t, r, edge)
                assert (receivers._skellam_chernoff_upper(t, r, start + 1)
                        <= UNIT_ROUNDOFF * receivers._skellam_chernoff_upper(t, r, edge + 1))

    @pytest.mark.parametrize("mu_t, mu_r", [(55000.0, 45000.0), (5500.0, 4500.0),
                                            (5081.0, 4922.0), (30.0, 30.0),
                                            (30.0, 1e-300), (0.3, 1e-3)])
    def test_a_longer_start_pad_moves_no_bin(self, monkeypatch, mu_t, mu_r):
        # the start value 0 is 100 % off; by the window that error must have
        # shrunk below rounding, so starting twice as far out changes no bin
        # beyond the rounding the longer run adds
        deltas, probs, _ = skellam_pmf_grid(mu_t, mu_r)
        start = receivers._recurrence_start

        def farther(t, r, edge):
            return edge + 2 * (start(t, r, edge) - edge)

        monkeypatch.setattr(receivers, "_recurrence_start", farther)
        far_deltas, far_probs, _ = skellam_pmf_grid(mu_t, mu_r)
        np.testing.assert_array_equal(far_deltas, deltas)
        np.testing.assert_allclose(far_probs, probs, rtol=2e-14, atol=0)


class TestWfPmf:
    def test_no_lo_makes_symbols_indistinguishable(self):
        p = ChannelParams(alpha=1.4, transmissivity=0.8, lo_amplitude=0.0,
                          visibility=0.7)
        np.testing.assert_array_equal(wf_pmf(p, 0), wf_pmf(p, 1))

    def test_dark_reflected_arm(self):
        p = ChannelParams(alpha=2.0, transmissivity=1.0, lo_amplitude=2.0,
                          visibility=1.0)
        grid = wf_pmf(p, 1)  # rates (8, 0)
        assert grid.shape[1] == 1
        np.testing.assert_allclose(grid[:, 0], sp_poisson.pmf(np.arange(grid.shape[0]), 8.0),
                                   rtol=1e-12)

    def test_arm_mean_matches_rate(self):
        p = params_for(3.2, 12.15, 0.94)
        mu_t, _ = detection_rates(p, 1)
        grid = wf_pmf(p, 1)
        mean_n = float((np.arange(grid.shape[0]) * grid.sum(axis=1)).sum())
        assert mean_n == pytest.approx(mu_t, rel=1e-10)

    def test_grid_normalization_and_tail(self):
        p = params_for(1.0, 4.0, 0.5)
        for k in (0, 1):
            missing = 1.0 - wf_pmf(p, k).sum()
            assert -1e-12 <= missing <= 1e-10

    def test_symbol_swap_is_transpose(self):
        p = params_for(2.0, 6.0, 0.9)
        np.testing.assert_array_equal(wf_pmf(p, 0), wf_pmf(p, 1).T)

    def test_antidiagonal_sums_reproduce_difference_law(self):
        p = params_for(1.7, 5.5, 0.8)
        grid = wf_pmf(p, 1)
        deltas, probs, _ = difference_law(p, 1)
        for delta, closed in zip(deltas, probs):
            if abs(delta) > min(grid.shape) - 1:
                continue
            rebinned = float(np.diagonal(grid, offset=-int(delta)).sum())
            assert abs(rebinned - closed) <= 1e-12


class TestBds:
    """The sign split: P(outcome 0 | symbol k) = P(Delta < 0) + P(Delta = 0) / 2."""

    @staticmethod
    def split(p):
        """P(outcome 0 | symbol k) for k = 0, 1: symbol 0's is 1 - b by the mirror."""
        b = _sign_split(*skellam_pmf_grid(*detection_rates(p, 1), DEFAULT_TAIL_TOL)[:2])
        return 1.0 - b, b

    def test_no_information_is_a_fair_coin(self):
        for p in (ChannelParams(alpha=0.0, lo_amplitude=2.0),
                  ChannelParams(alpha=1.0, lo_amplitude=2.0, visibility=0.0),
                  ChannelParams(alpha=1.0, lo_amplitude=0.0, visibility=1.0)):
            for b in self.split(p):
                assert b == pytest.approx(0.5, abs=1e-12)

    def test_dark_arm_error_is_half_vacuum(self):
        p = ChannelParams(alpha=2.0, transmissivity=1.0, lo_amplitude=2.0,
                          visibility=1.0)  # rates (8, 0) for symbol 1
        _, b1 = self.split(p)
        assert b1 == pytest.approx(math.exp(-8.0) / 2.0, rel=1e-12)

    def test_matches_sign_aggregation_of_difference_law(self):
        p = params_for(2.7, 7.3, 0.77)
        split = self.split(p)
        for k in (0, 1):
            d, probs, _ = difference_law(p, k)
            expected = float(probs[d < 0].sum() + 0.5 * probs[d == 0].sum())
            assert abs(split[k] - expected) <= 1e-14

    def test_symbol_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = ChannelParams(
                alpha=math.sqrt(rng.uniform(0.01, 5.0)),
                transmissivity=rng.uniform(0.05, 1.0),
                lo_amplitude=math.sqrt(rng.uniform(0.0, 20.0)),
                visibility=rng.uniform(0.0, 1.0),
            )
            # symbol 0's split, from the law of its own rates
            d, probs, _ = difference_law(p, 0)
            b0 = _sign_split(d, probs)
            _, b1 = self.split(p)
            assert 0.0 <= b0 <= 1.0 and 0.0 <= b1 <= 1.0
            assert abs(b1 - (1.0 - b0)) <= 1e-14


class TestHomodyneLimit:
    def test_no_signal_is_standard_normal(self):
        p = ChannelParams(alpha=0.0, lo_amplitude=3.0)
        for k in (0, 1):
            assert homodyne_mean(p, k) == 0.0
        # unit variance: the reference channel's mixture is then N(0, 1) itself
        assert mi_homodyne(p) == 0.0

    def test_means_are_scaled_amplitudes(self):
        p = params_for(3.07, 12.17, 1.0)
        mean1 = homodyne_mean(p, 1)
        assert mean1 == pytest.approx(2.0 * math.sqrt(3.07), rel=1e-12)
        assert homodyne_mean(p, 0) == -mean1

    def test_standardized_skellam_converges(self):
        # total variation against the cell-binned limit Gaussian
        from scipy.special import erf

        p = params_for(3.0, 1e4, 0.9)
        deltas, probs, _ = skellam_pmf_grid(*detection_rates(p, 1))
        z = math.sqrt(1e4)
        mean = homodyne_mean(p, 1)
        hi = (deltas + 0.5) / z - mean
        lo = (deltas - 0.5) / z - mean
        cells = 0.5 * (erf(hi / math.sqrt(2)) - erf(lo / math.sqrt(2)))
        tv = 0.5 * np.abs(probs - cells).sum() + 0.5 * (1.0 - cells.sum())
        assert tv < 1e-2
