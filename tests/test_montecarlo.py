import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnrchan import (
    CalibrationError,
    ChannelParams,
    ExperimentRun,
    ValidationError,
    binary_entropy,
    calibrate_from_means,
    calibrate_params,
    detection_rates,
    empirical_distributions,
    mi_bds,
    mi_hl,
    mi_wf,
    montecarlo,
    plugin_mi,
    run_experiment,
    skellam_pmf_grid,
)
from pnrchan.montecarlo import MAX_COUNT, EmpiricalDistributions

from oracles import empirical_counts_unique, run_experiment_serial, wf_pmf


def params_for(signal_mean, lo_mean, xi):
    return ChannelParams(alpha=math.sqrt(signal_mean), transmissivity=1.0,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi)


REF = params_for(3.07, 12.17, 0.94)


class TestSampling:
    def test_dark_channel_gives_zero_counts(self):
        run = run_experiment(ChannelParams(alpha=0.0, lo_amplitude=0.0), 100, seed=0)
        assert not run.n.any() and not run.m.any()

    def test_dark_arm_stays_dark(self):
        p = ChannelParams(alpha=2.0, transmissivity=1.0, lo_amplitude=2.0,
                          visibility=1.0)  # rates (8, 0) for symbol 1
        run = run_experiment(p, 2000, seed=3)
        n1, m1 = run.n[run.symbols == 1], run.m[run.symbols == 1]
        assert int(m1.sum()) == 0
        assert n1.mean() == pytest.approx(8.0, abs=4 * math.sqrt(8.0 / 2000))

    def test_sample_mean_within_clt_bound(self):
        p = params_for(5.0, 0.0, 1.0)  # both arms at rate 2.5
        run = run_experiment(p, 100_000, seed=9)
        n = run.n[run.symbols == 1]
        assert n.mean() == pytest.approx(2.5, abs=4 * math.sqrt(2.5 / 100_000))

    def test_same_seed_is_bit_identical(self):
        a = run_experiment(REF, 5000, seed=123)
        b = run_experiment(REF, 5000, seed=123)
        np.testing.assert_array_equal(a.n, b.n)
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_different_seeds_differ(self):
        a = run_experiment(REF, 2000, seed=1)
        b = run_experiment(REF, 2000, seed=2)
        assert not np.array_equal(a.n, b.n)

    def test_single_shot_run_is_valid(self):
        run = run_experiment(REF, 1, seed=5)
        assert len(run) == 2

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(REF, 0, seed=1)
        with pytest.raises(ValidationError):
            run_experiment(REF, 10, seed=-4)


DIM = params_for(0.3, 0.6, 0.5)  # small counts keep the draws cheap


class TestConcurrentDraws:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bit_identical_to_serial_chunks(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        for shots in (1, 65535, 65536, 65537, 2 * 65536 + 17):
            run = run_experiment(DIM, shots, seed=19)
            n, m = run_experiment_serial(DIM, shots, 19)
            np.testing.assert_array_equal(run.n, n)
            np.testing.assert_array_equal(run.m, m)
            assert run.n.dtype == run.m.dtype == np.int32
            assert run.symbols.tolist() == [0] * shots + [1] * shots

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_chunk_raises_its_error(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        philox, built = np.random.Philox, itertools.count()

        def third_fails(seed_sequence):
            if next(built) == 2:
                raise MemoryError
            return philox(seed_sequence)

        monkeypatch.setattr(montecarlo.np.random, "Philox", third_fails)
        threads = threading.active_count()
        with pytest.raises(MemoryError):
            run_experiment(DIM, 8 * 65536, seed=3)
        assert threading.active_count() == threads
        # the failure stops the claiming of chunks: of the 16, the other
        # threads finish at most the ones in hand
        started = next(built)
        assert started == 3 if workers == 1 else started < 16

class TestEmpiricalDistributions:
    def test_point_mass_run(self):
        run = ExperimentRun(symbols=np.array([0, 1], dtype=np.uint8),
                            n=np.array([2, 5]), m=np.array([7, 2]))
        emp = empirical_distributions(run)
        assert emp.cells.tolist() == [[2, 7], [5, 2]]
        assert emp.wf[1].tolist() == [0.0, 1.0]
        assert emp.deltas.tolist() == [-5, 3]
        assert emp.hl[1].tolist() == [0.0, 1.0]
        assert emp.bds[1][1] == 1.0  # positive difference reads symbol 1

    def test_conditionals_sum_to_one(self):
        run = run_experiment(REF, 3000, seed=17)
        emp = empirical_distributions(run)
        for k in (0, 1):
            assert emp.wf[k].sum() == pytest.approx(1.0, abs=1e-12)
            assert emp.hl[k].sum() == pytest.approx(1.0, abs=1e-12)
            assert emp.bds[k].sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_symbol_rejected(self):
        run = ExperimentRun(symbols=np.array([1, 1], dtype=np.uint8),
                            n=np.array([1, 2]), m=np.array([0, 0]))
        with pytest.raises(ValidationError):
            empirical_distributions(run)

    def test_close_to_analytic_at_experimental_size(self):
        run = run_experiment(REF, 100_000, seed=31)
        emp = empirical_distributions(run)
        deltas, probs, _ = skellam_pmf_grid(*detection_rates(REF, 1))
        analytic = dict(zip(deltas.tolist(), probs))
        observed = dict(zip(emp.deltas.tolist(), emp.hl[1]))
        tv = 0.5 * sum(abs(observed.get(d, 0.0) - analytic.get(d, 0.0))
                       for d in set(analytic) | set(observed))
        assert tv <= 0.02

    def test_outlier_count_keeps_the_law_linear_in_shots(self):
        run = ExperimentRun(symbols=np.array([0, 0, 1, 1], dtype=np.uint8),
                            n=np.array([0, 10**6, 3, 1]), m=np.array([1, 0, 0, 2]))
        emp = empirical_distributions(run)
        assert emp.wf.size <= 2 * len(run)
        assert len(emp.deltas) <= len(run)
        assert emp.cells.tolist() == [[0, 1], [1, 2], [3, 0], [10**6, 0]]

    def test_counts_beyond_the_key_bound_rejected(self):
        symbols = np.array([0, 1], dtype=np.uint8)
        largest = ExperimentRun(symbols=symbols, n=np.array([MAX_COUNT, 0]),
                                m=np.array([MAX_COUNT, MAX_COUNT]))
        assert empirical_distributions(largest).cells.tolist() == [
            [0, MAX_COUNT], [MAX_COUNT, MAX_COUNT]]
        for n, m in (([MAX_COUNT + 1, 0], [0, 0]), ([0, 0], [0, 2**62])):
            with pytest.raises(ValidationError):
                ExperimentRun(symbols=symbols, n=np.array(n), m=np.array(m))

    @pytest.mark.parametrize("symbols, n", [
        (np.array([0, -1], dtype=np.int8), np.array([0, 0])),
        (np.array([0, 2], dtype=np.uint8), np.array([0, 0])),
        (np.array([0, 1]), np.array([0, -1], dtype=np.int32)),
        (np.array([0, 1]), [0, 0]),  # not an array
    ])
    def test_columns_out_of_range_rejected(self, symbols, n):
        with pytest.raises(ValidationError):
            ExperimentRun(symbols=symbols, n=n, m=np.array([0, 0]))

    @pytest.mark.parametrize("n", [[2.5, 1.0], [np.nan, 1.0]])
    def test_non_integer_counts_rejected(self, n):
        with pytest.raises(ValidationError):
            ExperimentRun(symbols=np.array([0, 1]), n=np.array(n), m=np.array([0, 0]))


# ---------------------------------------------------------------------------
# Properties of the empirical law over small random runs
# ---------------------------------------------------------------------------

PROPERTIES = settings(derandomize=True, database=None, max_examples=100, deadline=None)

small_runs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40,
).filter(lambda shots: {k for k, _, _ in shots} == {0, 1}).map(
    lambda shots: ExperimentRun(*(np.array(column) for column in zip(*shots))))


@PROPERTIES
@given(small_runs, st.integers(0, 2**32 - 1))
def test_shot_order_changes_nothing(run, seed):
    order = np.random.default_rng(seed).permutation(len(run))
    shuffled = ExperimentRun(symbols=run.symbols[order], n=run.n[order], m=run.m[order])
    emp, emp_shuffled = empirical_distributions(run), empirical_distributions(shuffled)
    assert emp.cells.tolist() == sorted(map(list, set(zip(run.n.tolist(), run.m.tolist()))))
    np.testing.assert_array_equal(emp_shuffled.cells, emp.cells)
    np.testing.assert_array_equal(emp_shuffled.counts, emp.counts)
    assert plugin_mi(emp_shuffled) == plugin_mi(emp)


KEY_DTYPES = (np.uint8, np.int32, np.uint32, np.int64)


def _counts(dtype):
    top = min(int(np.iinfo(dtype).max), MAX_COUNT)
    edges = [c for c in (0, 2**31 - 2, MAX_COUNT) if c <= top]
    return st.one_of(st.sampled_from(edges), st.integers(0, top))


wide_runs = st.sampled_from(KEY_DTYPES).flatmap(lambda dtype: st.tuples(
    st.just(dtype),
    st.lists(st.tuples(st.integers(0, 1), _counts(dtype), _counts(dtype)),
             min_size=2, max_size=40).filter(lambda shots: {k for k, _, _ in shots} == {0, 1}),
    st.integers(0, 2**32 - 1)))


def key_edges(test):
    """Explicit runs whose largest key ((n << b) | m) << 1 | symbol, b the bit
    length of the largest m, is 2**w - 1 or 2**w: each side of each width
    (8, 16, 32 and 63 bits) the key can take."""
    for w, b in ((8, 1), (8, 3), (16, 1), (16, 7), (32, 1), (32, 15), (63, 31)):
        n = (1 << (w - 1 - b)) - 1  # with m = 2**b - 1 and symbol 1, the key 2**w - 1
        test = example((np.int32, [(0, 0, 0), (1, n, (1 << b) - 1)], 0))(test)
        if n < MAX_COUNT:  # n + 1 with m = 0 and symbol 0: the key 2**w
            test = example((np.int32, [(1, 0, (1 << b) - 1), (0, n + 1, 0)], 0))(test)
    return test


@key_edges
@PROPERTIES
@given(wide_runs)
def test_sorted_key_runs_count_like_np_unique(case):
    dtype, shots, seed = case
    columns = [np.array(c, dtype=dtype) for c in zip(*shots)]
    order = np.random.default_rng(seed).permutation(len(shots))
    for run in (ExperimentRun(*columns), ExperimentRun(*(c[order] for c in columns))):
        emp = empirical_distributions(run)
        cells, counts, per_symbol = empirical_counts_unique(run)
        np.testing.assert_array_equal(emp.cells, cells)
        np.testing.assert_array_equal(emp.counts, counts)
        assert emp.shots == per_symbol


@PROPERTIES
@given(small_runs)
def test_plugin_data_processing_hierarchy(run):
    rep = plugin_mi(empirical_distributions(run))
    # each step holds exactly for the empirical joint; 1e-12 absorbs rounding
    assert -1e-12 <= rep.bds.value <= rep.hl.value + 1e-12
    assert rep.hl.value <= rep.wf.value + 1e-12
    assert rep.wf.value <= binary_entropy(rep.priors[0]) + 1e-12


@PROPERTIES
@given(small_runs)
def test_arm_means_are_exact_count_sums(run):
    emp = empirical_distributions(run)
    for k in (0, 1):
        mask = run.symbols == k
        assert emp.arm_means[k].tolist() == [int(run.n[mask].sum()) / emp.shots[k],
                                             int(run.m[mask].sum()) / emp.shots[k]]


@PROPERTIES
@given(small_runs)
def test_difference_and_sign_laws_aggregate_the_cells(run):
    emp = empirical_distributions(run)
    delta = emp.cells[:, 0] - emp.cells[:, 1]
    assert emp.deltas.tolist() == sorted(set(delta.tolist()))
    for k in (0, 1):
        for d, freq in zip(emp.deltas, emp.hl[k]):
            assert freq == pytest.approx(emp.wf[k][delta == d].sum(), abs=1e-15)
        below = emp.wf[k][delta < 0].sum() + 0.5 * emp.wf[k][delta == 0].sum()
        assert emp.bds[k][0] == pytest.approx(below, abs=1e-15)
        for law in (emp.wf, emp.hl, emp.bds):
            assert law[k].sum() == pytest.approx(1.0, abs=1e-12)


class TestPluginMi:
    def test_exact_on_analytic_distributions(self):
        # the law of the analytic count-pair grid: probabilities as counts of one shot
        p = params_for(1.5, 6.0, 0.9)
        wf = [wf_pmf(p, k) for k in (0, 1)]
        shape = (max(g.shape[0] for g in wf), max(g.shape[1] for g in wf))
        wf_grid = np.zeros((2,) + shape)
        for k in (0, 1):
            wf_grid[k, : wf[k].shape[0], : wf[k].shape[1]] = wf[k]
        cells = np.argwhere(wf_grid.sum(axis=0) > 0)
        emp = EmpiricalDistributions(cells=cells, counts=wf_grid[:, cells[:, 0], cells[:, 1]],
                                     shots=(1, 1))
        rep = plugin_mi(emp)
        assert rep.priors == (0.5, 0.5)
        assert rep.wf.value == pytest.approx(mi_wf(p), abs=1e-10)
        assert rep.hl.value == pytest.approx(mi_hl(p), abs=1e-10)
        assert rep.bds.value == pytest.approx(mi_bds(p), abs=1e-10)

    def test_single_shot_overfit_flagged(self):
        run = ExperimentRun(symbols=np.array([0, 1], dtype=np.uint8),
                            n=np.array([0, 5]), m=np.array([5, 0]))
        rep = plugin_mi(empirical_distributions(run))
        assert rep.wf.value == pytest.approx(1.0, abs=1e-12)
        assert rep.wf.miller_madow_bias > 0.3

    def test_consistency_improves_with_sample_size(self):
        truth = mi_hl(REF)
        errors = []
        for shots in (1000, 10_000, 100_000):
            run = run_experiment(REF, shots, seed=77)
            rep = plugin_mi(empirical_distributions(run))
            errors.append(abs(rep.hl.value - truth))
        assert errors[2] < errors[0]
        assert errors[2] <= 0.01

    def test_empirical_hierarchy(self):
        run = run_experiment(REF, 20_000, seed=55)
        rep = plugin_mi(empirical_distributions(run))
        assert rep.bds.value <= rep.hl.value + 1e-12
        assert rep.hl.value <= rep.wf.value + 1e-12


class TestCalibration:
    def test_noiseless_means_recover_exactly(self):
        p = params_for(3.07, 12.15, 0.94)
        cal = calibrate_from_means(detection_rates(p, 0), detection_rates(p, 1),
                                   known_lo_mean=12.15)
        assert cal.signal_mean == pytest.approx(3.07, rel=1e-12)
        assert cal.xi == pytest.approx(0.94, rel=1e-12)
        assert not cal.clamped

    def test_closed_loop_at_experimental_size(self):
        p = params_for(3.07, 12.15, 0.94)
        run = run_experiment(p, 100_000, seed=4242)
        cal = calibrate_params(empirical_distributions(run), known_lo_mean=12.15)
        assert cal.xi == pytest.approx(0.94, abs=0.01)

    def test_known_signal_route(self):
        p = params_for(3.07, 12.15, 0.94)
        run = run_experiment(p, 50_000, seed=7)
        cal = calibrate_params(empirical_distributions(run), known_signal_mean=3.07)
        assert cal.lo_mean == pytest.approx(12.15, abs=0.15)
        assert cal.xi == pytest.approx(0.94, abs=0.02)

    def test_zero_visibility_recovered(self):
        p = params_for(2.0, 8.0, 0.0)
        run = run_experiment(p, 50_000, seed=11)
        cal = calibrate_params(empirical_distributions(run), known_lo_mean=8.0)
        # the cross term xi * sqrt(signal_mean * lo_mean)
        assert cal.xi_raw * math.sqrt(cal.signal_mean * cal.lo_mean) == pytest.approx(
            0.0, abs=0.05)
        assert cal.xi == pytest.approx(0.0, abs=0.02)

    def test_inconsistent_system_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_from_means((1.0, 1.0), (1.0, 1.0), known_lo_mean=50.0)

    def test_exactly_one_known_required(self):
        with pytest.raises(ValidationError):
            calibrate_from_means((1, 1), (1, 1))
        with pytest.raises(ValidationError):
            calibrate_from_means((1, 1), (1, 1), known_lo_mean=1.0,
                                 known_signal_mean=1.0)

    def test_coverage_of_error_bars(self):
        # 3-sigma bars should cover the truth in at least 95 of 100 trials
        p = params_for(3.07, 12.15, 0.94)
        hits = 0
        for seed in range(100):
            run = run_experiment(p, 2000, seed=seed)
            cal = calibrate_params(empirical_distributions(run), known_lo_mean=12.15)
            if abs(cal.xi_raw - 0.94) <= 3.0 * cal.xi_stderr:
                hits += 1
        assert hits >= 95
