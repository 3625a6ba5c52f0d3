"""One difference law per receiver and channel point, and the figures it gives.

Every figure of a table row derives from the certified count-difference law
of each receiver, so a row builds Bob's law once (per visibility) and Eve's
law once.  The property tests check the information-theoretic orderings of
the derived figures over random channels.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pnrchan import (ChannelParams, binary_entropy, eve_params, information, mi_hl,
                     mi_report, security_report_for)
from pnrchan.receivers import DEFAULT_TAIL_TOL
from pnrchan.security import mi_bob_eve
from pnrchan.sweeps import run_security, run_sweep

from oracles import mi_bob_eve_dense, mirror_law


@pytest.fixture
def law_builds(monkeypatch):
    """Count the Skellam grids built behind every difference law."""
    calls = []
    original = information.skellam_pmf_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(information, "skellam_pmf_grid", counting)
    return calls


class TestOneLawPerReceiver:
    @pytest.mark.parametrize("loss_db, builds", [(3.0, 2), (0.0, 1)])
    def test_security_row(self, law_builds, loss_db, builds):
        run_security(3.2, 12.15, (loss_db,), xi=0.94)
        assert len(law_builds) == builds

    def test_sweep_row_builds_one_law_per_visibility(self, law_builds):
        run_sweep(mode="lo", signal_mean=3.07, grid=(12.17,),
                  strategies=("wf", "hl", "bds", "hom"), visibilities=(0.86, 0.91))
        assert len(law_builds) == 2

    @pytest.mark.parametrize("loss_db, builds", [(3.0, 2), (0.0, 1)])
    def test_sweep_row_with_security_shares_bobs_law(self, law_builds, loss_db, builds):
        run_sweep(mode="loss", signal_mean=3.2, grid=(loss_db,),
                  strategies=("wf", "hl", "bds", "hom"), visibilities=(0.94,),
                  lo_mean=12.15, security=("ia-dr", "ia-rr", "ca-rr"))
        assert len(law_builds) == builds

    def test_mi_report(self, law_builds):
        mi_report(ChannelParams.from_means(3.2, 12.15, visibility=0.94))
        assert len(law_builds) == 1


# ---------------------------------------------------------------------------
# Properties over random channels
# ---------------------------------------------------------------------------

PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)

channels = st.builds(
    lambda source, lo, xi, t, q0: ChannelParams(
        alpha=math.sqrt(source), transmissivity=t, lo_amplitude=math.sqrt(lo),
        visibility=xi, priors=(q0, 1.0 - q0)),
    source=st.floats(0.01, 5.0),
    lo=st.floats(0.0, 20.0),
    xi=st.floats(0.0, 1.0),
    t=st.floats(0.05, 1.0),
    q0=st.floats(0.05, 0.95),
)


def swapped(params):
    return params._replace(priors=params.priors[::-1])


@PROPERTIES
@given(channels)
def test_readout_hierarchy_within_prior_entropy(bob):
    rep = mi_report(bob)
    assert rep.i_wf == mi_hl(bob)
    assert -1e-12 <= rep.i_bds <= rep.i_wf + 1e-12
    assert rep.i_wf <= binary_entropy(bob.priors[0]) + 1e-12


@PROPERTIES
@given(channels)
def test_bob_eve_information_below_both_channels(bob):
    rep = security_report_for(bob)
    assert -1e-12 <= rep.i_be_wf <= min(rep.i_ab_wf, rep.i_ae_wf) + 1e-12


@PROPERTIES
@given(channels)
@example(ChannelParams(alpha=1.8, transmissivity=0.5, lo_amplitude=3.5, visibility=0.0))
@example(ChannelParams(alpha=1.8, transmissivity=0.5, lo_amplitude=0.0, visibility=0.9))
@example(ChannelParams(alpha=1.8, transmissivity=0.5, lo_amplitude=3.5, visibility=0.9,
                       priors=(0.2, 0.8)))
def test_bob_eve_kernel_matches_the_dense_joint(bob):
    assume(bob.transmissivity < 1.0)
    eve = eve_params(bob)
    posteriors = [information._receiver_figures(p, DEFAULT_TAIL_TOL)[0] for p in (bob, eve)]
    assert mi_bob_eve(bob.priors, *posteriors) == pytest.approx(
        mi_bob_eve_dense(mirror_law(bob), mirror_law(eve), bob.priors), abs=1e-12)


@PROPERTIES
@given(channels)
def test_holevo_orderings(bob):
    rep = security_report_for(bob)
    assert rep.chi_be_bds <= rep.chi_be_wf + 1e-9
    assert rep.chi_be_wf >= rep.i_be_wf - 1e-9
    # Bob and Eve see the symbol through independent channels, so Eve's
    # state cannot hold more about Bob's outcome than the symbol does
    assert rep.chi_be_wf <= rep.i_ab_wf + 1e-9
    assert rep.chi_be_bds <= rep.i_ab_bds + 1e-9


@PROPERTIES
@given(channels)
def test_swapping_the_priors_changes_no_figure(bob):
    # the symbol-0 law mirrors the symbol-1 law, so relabelling the symbols
    # only mirrors every outcome alphabet
    sec, sec_swapped = security_report_for(bob), security_report_for(swapped(bob))
    mi, mi_swapped = mi_report(bob), mi_report(swapped(bob))
    for field in ("i_wf", "i_bds", "i_homodyne", "error_bound"):
        assert getattr(mi_swapped, field) == pytest.approx(getattr(mi, field), abs=1e-12)
    for field in ("i_ab_wf", "i_ab_bds", "i_ae_wf", "i_be_wf", "chi_be_wf", "chi_be_bds",
                  "delta_ia_dr", "delta_ia_rr", "delta_ca_wf", "delta_ca_bds",
                  "error_bound"):
        assert getattr(sec_swapped, field) == pytest.approx(getattr(sec, field), abs=1e-12)
    if min(sec.i_ab_wf, sec.i_ab_bds) > 1e-3:
        for field in ("k_dr", "k_rr", "k_ca_wf", "k_ca_bds"):
            assert getattr(sec_swapped, field) == pytest.approx(getattr(sec, field),
                                                                rel=1e-9, abs=1e-12)
