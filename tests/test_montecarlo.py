import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnrchan import (
    CalibrationError,
    ChannelParams,
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
from pnrchan import recordio
from pnrchan.montecarlo import MAX_COUNT, EmpiricalDistributions, ShotTally, run_from_columns
from pnrchan.recordio import write_shot_records

from oracles import (
    Columns,
    empirical_counts_unique,
    read_columns,
    run_columns,
    run_experiment_serial,
    wf_pmf,
    wild_in_call,
)


def params_for(signal_mean, lo_mean, xi):
    return ChannelParams(alpha=math.sqrt(signal_mean), transmissivity=1.0,
                         lo_amplitude=math.sqrt(lo_mean), visibility=xi)


REF = params_for(3.07, 12.17, 0.94)


class TestSampling:
    def test_dark_channel_gives_zero_counts(self):
        run = run_columns(run_experiment(ChannelParams(alpha=0.0, lo_amplitude=0.0), 100, seed=0))
        assert not run.n.any() and not run.m.any()

    def test_dark_arm_stays_dark(self):
        p = ChannelParams(alpha=2.0, transmissivity=1.0, lo_amplitude=2.0,
                          visibility=1.0)  # rates (8, 0) for symbol 1
        run = run_columns(run_experiment(p, 2000, seed=3))
        n1, m1 = run.n[run.symbols == 1], run.m[run.symbols == 1]
        assert int(m1.sum()) == 0
        assert n1.mean() == pytest.approx(8.0, abs=4 * math.sqrt(8.0 / 2000))

    def test_sample_mean_within_clt_bound(self):
        p = params_for(5.0, 0.0, 1.0)  # both arms at rate 2.5
        run = run_columns(run_experiment(p, 100_000, seed=9))
        n = run.n[run.symbols == 1]
        assert n.mean() == pytest.approx(2.5, abs=4 * math.sqrt(2.5 / 100_000))

    def test_same_seed_is_bit_identical(self):
        a = run_columns(run_experiment(REF, 5000, seed=123))
        b = run_columns(run_experiment(REF, 5000, seed=123))
        np.testing.assert_array_equal(a.n, b.n)
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_different_seeds_differ(self):
        a = run_columns(run_experiment(REF, 2000, seed=1))
        b = run_columns(run_experiment(REF, 2000, seed=2))
        assert not np.array_equal(a.n, b.n)

    def test_single_shot_run_is_valid(self):
        run = run_experiment(REF, 1, seed=5)
        assert len(run) == 2
        assert [block()[0].tolist() for block in run] == [[0], [1]]  # a shot per symbol

    def test_a_plan_equals_itself_alone(self):
        run, again = run_experiment(REF, 10, seed=0), run_experiment(REF, 10, seed=0)
        assert run == run and hash(run) == hash(run)
        assert run != again and len(again) == len(run)
        assert len({run, again}) == 2

    def test_the_largest_recordable_mean_is_accepted(self, monkeypatch):
        # mu + 40 sqrt(mu) is the count limit itself, and above the next double
        mu = 2145630808.8273244
        above = math.nextafter(mu, math.inf)
        assert mu + 40.0 * math.sqrt(mu) == MAX_COUNT < above + 40.0 * math.sqrt(above)
        monkeypatch.setattr(montecarlo, "detection_rates", lambda _params, _symbol: (mu, 0.0))
        assert len(run_experiment(REF, 1, seed=0)) == 2
        monkeypatch.setattr(montecarlo, "detection_rates", lambda _params, _symbol: (above, 0.0))
        with pytest.raises(ValidationError, match=re.escape(f"arm mean {above:.6g} is too large")):
            run_experiment(REF, 1, seed=0)

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(REF, 0, seed=1)
        with pytest.raises(ValidationError):
            run_experiment(REF, 10, seed=-4)


DIM = params_for(0.3, 0.6, 0.5)  # small counts keep the draws cheap


class TestConcurrentDraws:
    """The blocks of a run are drawn by the writer's jobs, on every thread."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bit_identical_to_serial_chunks(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
        path = tmp_path / "shots.csv"
        for shots in (1, 65535, 65536, 65537, 2 * 65536 + 17):
            plan = run_experiment(DIM, shots, seed=19)
            write_shot_records(path, plan)
            run = read_columns(path)
            n, m = run_experiment_serial(DIM, shots, 19)
            np.testing.assert_array_equal(run_columns(plan).n, n)
            np.testing.assert_array_equal(run.n, n)
            np.testing.assert_array_equal(run.m, m)
            assert run.n.dtype == run.m.dtype == np.int32
            assert run.symbols.tolist() == [0] * shots + [1] * shots

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_chunk_raises_its_error(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
        philox, built = np.random.Philox, itertools.count()

        def third_fails(seed_sequence):
            if next(built) == 2:
                raise MemoryError
            return philox(seed_sequence)

        monkeypatch.setattr(montecarlo.np.random, "Philox", third_fails)
        threads = threading.active_count()
        with pytest.raises(MemoryError):
            write_shot_records(tmp_path / "shots.csv", run_experiment(DIM, 8 * 65536, seed=3))
        assert threading.active_count() == threads
        assert not list(tmp_path.iterdir())
        # the failure stops the claiming of chunks: of the 16, the other
        # threads finish at most the ones in hand
        started = next(built)
        assert started == 3 if workers == 1 else started < 16


class TestDrawPieces:
    """``_draw`` fills each arm piece by piece from one generator, and the
    piece size, unlike ``_CHUNK``, is not part of the stream."""

    # the last size is the last chunk of a run of 5e5 shots per symbol
    @pytest.mark.parametrize("size", [1, 16383, 16384, 16385, 41248, 65536])
    @pytest.mark.parametrize("piece", [1, 7, 65536, None])  # None: the shipped size
    def test_pieces_continue_one_draw(self, monkeypatch, size, piece):
        if piece is not None:
            monkeypatch.setattr(montecarlo, "_DRAW_PIECE", piece)
        for symbol in (0, 1):  # each gives one arm a mean above 10, one below
            rates = detection_rates(REF, symbol)
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((29, symbol, 4))))
            want = [gen.poisson(mu, size).astype(np.int32) for mu in rates]
            symbols, n, m = montecarlo._draw(29, symbol, 4, rates, size)
            assert symbols.dtype == np.uint8 and symbols.tolist() == [symbol] * size
            for got, expected in zip((n, m), want):
                assert got.dtype == np.int32
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("count", [2**31, 2**32 + 1])  # the second wraps to 1 in int32
    def test_a_count_over_the_limit_in_a_later_piece_is_refused(self, monkeypatch, count):
        monkeypatch.setattr(montecarlo, "_DRAW_PIECE", 7)
        # of 20 counts per arm, draws 1-3 are the n counts and 4-6 the m counts
        monkeypatch.setattr(montecarlo.np.random, "Generator", wild_in_call(6, count))
        with pytest.raises(ValidationError, match=f"drew a count of {count}, above the count "
                                                  f"limit {MAX_COUNT}"):
            montecarlo._draw(29, 0, 0, detection_rates(REF, 0), 20)


class TestEmpiricalDistributions:
    def test_point_mass_run(self):
        run = run_from_columns(symbols=np.array([0, 1], dtype=np.uint8),
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
        run = run_from_columns(symbols=np.array([1, 1], dtype=np.uint8),
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
        symbols = np.array([0, 0, 1, 1], dtype=np.uint8)
        run = run_from_columns(symbols=symbols, n=np.array([0, 10**6, 3, 1]),
                               m=np.array([1, 0, 0, 2]))
        emp = empirical_distributions(run)
        assert emp.wf.size <= 2 * len(symbols)
        assert len(emp.deltas) <= len(symbols)
        assert emp.cells.tolist() == [[0, 1], [1, 2], [3, 0], [10**6, 0]]

    def test_counts_beyond_the_key_bound_rejected(self):
        symbols = np.array([0, 1], dtype=np.uint8)
        largest = run_from_columns(symbols=symbols, n=np.array([MAX_COUNT, 0]),
                                   m=np.array([MAX_COUNT, MAX_COUNT]))
        assert empirical_distributions(largest).cells.tolist() == [
            [0, MAX_COUNT], [MAX_COUNT, MAX_COUNT]]
        for n, m in (([MAX_COUNT + 1, 0], [0, 0]), ([0, 0], [0, 2**62])):
            with pytest.raises(ValidationError):
                run_from_columns(symbols=symbols, n=np.array(n), m=np.array(m))

    @pytest.mark.parametrize("symbols, n", [
        (np.array([0, -1], dtype=np.int8), np.array([0, 0])),
        (np.array([0, 2], dtype=np.uint8), np.array([0, 0])),
        (np.array([0, 1]), np.array([0, -1], dtype=np.int32)),
        (np.array([0, 1]), [0, 0]),  # not an array
        (np.array([0, 1]), 0),  # not a column
    ])
    def test_columns_out_of_range_rejected(self, symbols, n):
        with pytest.raises(ValidationError):
            run_from_columns(symbols=symbols, n=n, m=np.array([0, 0]))

    @pytest.mark.parametrize("n", [[2.5, 1.0], [np.nan, 1.0]])
    def test_non_integer_counts_rejected(self, n):
        with pytest.raises(ValidationError):
            run_from_columns(symbols=np.array([0, 1]), n=np.array(n), m=np.array([0, 0]))


# ---------------------------------------------------------------------------
# Properties of the empirical law over small random runs
# ---------------------------------------------------------------------------

PROPERTIES = settings(derandomize=True, database=None, max_examples=100, deadline=None)

small_runs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40,
).filter(lambda shots: {k for k, _, _ in shots} == {0, 1}).map(
    lambda shots: Columns(*(np.array(column) for column in zip(*shots))))


@PROPERTIES
@given(small_runs, st.integers(0, 2**32 - 1))
def test_shot_order_changes_nothing(run, seed):
    order = np.random.default_rng(seed).permutation(len(run))
    shuffled = Columns(symbols=run.symbols[order], n=run.n[order], m=run.m[order])
    emp, emp_shuffled = empirical_distributions(run.run()), empirical_distributions(shuffled.run())
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
    (8, 16, 32 and 63 bits) the key can take.  Each holds n = 0 and m = 0,
    so the block's offsets are 0."""
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
    for run in (Columns(*columns), Columns(*(c[order] for c in columns))):
        emp = empirical_distributions(run.run())
        cells, counts, per_symbol = empirical_counts_unique(run)
        np.testing.assert_array_equal(emp.cells, cells)
        np.testing.assert_array_equal(emp.counts, counts)
        assert emp.shots == per_symbol


COLUMN_TYPES = (np.uint8, np.int32, np.int32)  # the symbols and counts of a block


@st.composite
def split_runs(draw):
    """Rows with counts up to ``MAX_COUNT`` (one symbol or both, in shuffled
    order, or all symbol-0 rows first), and cuts that split them into blocks:
    any cuts, one-row blocks, or a cut where the symbol changes."""
    rows = draw(st.lists(st.tuples(st.integers(0, 1), _counts(np.int32), _counts(np.int32)),
                         min_size=1, max_size=40))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0])
    columns = Columns(*(np.array(c, dtype=t) for c, t in zip(zip(*rows), COLUMN_TYPES)))
    split = draw(st.sampled_from(["any", "rows", "symbol"]))
    if split == "rows":
        cuts = list(range(1, len(rows)))
    elif split == "symbol":
        cuts = sorted({at for at in range(1, len(rows)) if rows[at][0] != rows[at - 1][0]})
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(rows) - 1)))) - {len(rows)})
    return columns, cuts


@settings(PROPERTIES, max_examples=300)
@given(split_runs())
def test_merged_block_tallies_equal_the_whole_run_tally(case):
    """However a run is cut into blocks, and so however often the pending
    block tallies are re-reduced, the merged tally is the whole run's: the
    same cells in the same order and the same exact counts."""
    columns, cuts = case
    tally = ShotTally()
    for block in zip(*(np.split(column, cuts) for column in (columns.symbols, columns.n,
                                                             columns.m))):
        tally.add(*block)
    if len(set(columns.symbols.tolist())) < 2:
        missing = 1 - int(columns.symbols[0])
        with pytest.raises(ValidationError, match=f"run contains no shots for symbol {missing}"):
            empirical_distributions(tally)
        return
    emp = empirical_distributions(tally)
    cells, counts, per_symbol = empirical_counts_unique(columns)
    np.testing.assert_array_equal(emp.cells, cells)
    np.testing.assert_array_equal(emp.counts, counts)
    assert emp.counts.dtype == np.int64
    assert emp.shots == per_symbol


def test_an_empty_tally_has_no_shots_for_symbol_0():
    with pytest.raises(ValidationError, match="run contains no shots for symbol 0"):
        empirical_distributions(ShotTally())


def test_a_tally_keeps_none_of_the_columns_it_is_given():
    """The reader hands ``add`` views of a buffer that it reuses: columns
    overwritten after ``add``, once reduced or still pending, leave the
    tally as it was."""
    rng = np.random.default_rng(5)
    blocks = [tuple(rng.integers(0, top, size).astype(t) for top, t in zip((2, 40, 40),
                                                                             COLUMN_TYPES))
              for size in (300, 20, 20)]
    expected, tally = ShotTally(), ShotTally()
    for block in blocks:
        expected.add(*(column.copy() for column in block))
        tally.add(*block)
        for column in block:
            column[:] = 0
    for got, want in zip(tally.reduced(), expected.reduced()):
        np.testing.assert_array_equal(got, want)


def test_a_tally_takes_integer_columns_of_any_type():
    """``add`` checks a block as ``run_from_columns`` checks whole columns, so it
    takes the integer types that ``run_from_columns`` takes, and tallies the same
    cells."""
    rng = np.random.default_rng(6)
    block = [rng.integers(0, top, 500).astype(t) for top, t in zip((2, 40, 40), COLUMN_TYPES)]
    expected, tally = ShotTally(), ShotTally()
    expected.add(*block)
    tally.add(*(column.astype(np.int64) for column in block))
    for got, want in zip(tally.reduced(), expected.reduced()):
        np.testing.assert_array_equal(got, want)


def test_a_tally_re_reduces_once_its_pending_cells_reach_the_reduced_ones(monkeypatch):
    """The re-reduce rule: pending block tallies are merged once they hold at
    least as many cells as the reduced tally, and not before."""
    reduces, real_reduce = [], ShotTally._reduce
    monkeypatch.setattr(ShotTally, "_reduce", lambda self: reduces.append(1) or real_reduce(self))
    rows = [np.array(c, dtype=t) for c, t in zip(([0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0]),
                                                 COLUMN_TYPES)]
    tally, after = ShotTally(), []
    for stop in (4, 3, 1):  # 4 cells reduced; 3 kept pending; 3 + 1 reach 4, reduced
        tally.add(*(column[:stop] for column in rows))
        after.append(len(reduces))
    assert after == [1, 1, 2]
    assert tally.reduced()[1].tolist() == [3, 2, 2, 1] and len(reduces) == 2


@pytest.mark.parametrize("bits, b, width, low", [
    # (key bits, bit length of the m range, key bytes, smallest count)
    *((bits, b, width, low) for bits, b, width in ((8, 1, 1), (8, 3, 1), (8, 7, 1), (16, 7, 2),
                                                   (32, 15, 4)) for low in (0, 10**6)),
    (63, 31, 8, 0),  # n up to MAX_COUNT
])
def test_a_block_key_is_as_narrow_as_its_largest_value(bits, b, width, low):
    """A block of few cells takes two key arrays and a bool a shot, in the
    narrowest type that holds its largest key ((n - n0) << b | (m - m0)) << 1
    | symbol, here 2**bits - 1, however large the counts' offset."""
    top = (1 << (bits - 1 - b)) - 1
    size = 1 << 16
    n, m = np.full(size, low, dtype=np.int32), np.full(size, low, dtype=np.int32)
    n[0], m[0] = low + top, low + (1 << b) - 1
    symbols = np.ones(size, dtype=np.uint8)
    tracemalloc.start()
    try:
        montecarlo._block_tally(symbols, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * width + 2) * size


@PROPERTIES
@given(small_runs)
def test_plugin_data_processing_hierarchy(run):
    rep = plugin_mi(empirical_distributions(run.run()))
    # each step holds exactly for the empirical joint; 1e-12 absorbs rounding
    assert -1e-12 <= rep.bds.value <= rep.hl.value + 1e-12
    assert rep.hl.value <= rep.wf.value + 1e-12
    assert rep.wf.value <= binary_entropy(rep.priors[0]) + 1e-12


@PROPERTIES
@given(small_runs)
def test_arm_means_are_exact_count_sums(run):
    emp = empirical_distributions(run.run())
    for k in (0, 1):
        mask = run.symbols == k
        assert emp.arm_means[k].tolist() == [int(run.n[mask].sum()) / emp.shots[k],
                                             int(run.m[mask].sum()) / emp.shots[k]]


@PROPERTIES
@given(small_runs)
def test_difference_and_sign_laws_aggregate_the_cells(run):
    emp = empirical_distributions(run.run())
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
    def test_the_bias_counts_each_outcome_either_symbol_gives(self):
        # both symbols give the same two cells equally often: MI 0 on a support of 2
        run = run_from_columns(symbols=np.array([0, 0, 1, 1], dtype=np.uint8),
                               n=np.array([1, 0, 1, 0]), m=np.zeros(4, dtype=int))
        report = plugin_mi(empirical_distributions(run))
        assert report.wf.value == 0.0
        assert report.wf.miller_madow_bias == pytest.approx(1.0 / (2 * 4 * math.log(2)))

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
        run = run_from_columns(symbols=np.array([0, 1], dtype=np.uint8),
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

    @pytest.mark.parametrize("known", [{"known_lo_mean": 10.0}, {"known_signal_mean": 10.0}])
    def test_a_dark_arm_with_no_cross_term_has_visibility_zero(self, known):
        # all of the total rate is the known mean: the other one is 0
        cal = calibrate_from_means((5.0, 5.0), (5.0, 5.0), shots_per_symbol=1000, **known)
        assert cal.signal_mean * cal.lo_mean == 0.0
        assert cal.xi_raw == 0.0 and cal.xi == 0.0 and not cal.clamped
        assert cal.xi_stderr is None

    def test_a_dark_arm_with_a_cross_term_is_inconsistent(self):
        with pytest.raises(CalibrationError, match="cross term 1 with a dark arm "
                                                   r"\(signal_mean=0, lo_mean=10\)"):
            calibrate_from_means((6.0, 4.0), (4.0, 6.0), known_lo_mean=10.0)

    @pytest.mark.parametrize("means", [((-1.0, 2.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, -0.5))])
    def test_a_negative_arm_mean_is_refused(self, means):
        with pytest.raises(ValidationError, match="arm means must be >= 0"):
            calibrate_from_means(*means, known_lo_mean=1.0)

    def test_means_below_one_recover_exactly(self):
        # signal_mean * lo_mean = 0.75 and arm means under 1 take the general route
        p = params_for(0.5, 1.5, 0.9)
        cal = calibrate_from_means(detection_rates(p, 0), detection_rates(p, 1),
                                   known_lo_mean=1.5, shots_per_symbol=100)
        assert min(detection_rates(p, 0) + detection_rates(p, 1)) < 1.0
        assert cal.signal_mean == pytest.approx(0.5, rel=1e-12)
        assert cal.xi == pytest.approx(0.9, rel=1e-12)
        assert cal.xi_stderr > 0.0

    @pytest.mark.parametrize("known", [{"known_lo_mean": 0.0}, {"known_signal_mean": 0.0}])
    def test_a_known_mean_of_zero_and_dark_arms_are_accepted(self, known):
        cal = calibrate_from_means((0.0, 0.0), (0.0, 0.0), **known)
        assert (cal.signal_mean, cal.lo_mean, cal.xi, cal.clamped) == (0.0, 0.0, 0.0, False)

    @pytest.mark.parametrize("known, message", [
        ({"known_lo_mean": 50.0}, "negative signal mean"),
        ({"known_signal_mean": 50.0}, "negative LO mean"),
    ])
    def test_an_inconsistent_system_names_the_negative_mean(self, known, message):
        with pytest.raises(CalibrationError, match=message):
            calibrate_from_means((1.0, 1.0), (1.0, 1.0), **known)

    @pytest.mark.parametrize("means, refused", [
        # a cross term with a dark arm is rounding up to 1e-9 of the total
        # rate, or of 1 below a total of 1
        (((0.0, 0.0), (4e-9, 0.0)), False),
        (((0.0, 0.0), (6e-9, 0.0)), True),
        (((2.0, 2.0), (2.0 + 2e-9, 2.0 - 2e-9)), False),
        (((2.0, 2.0), (2.0 + 2e-8, 2.0 - 2e-8)), True),
    ])
    def test_a_dark_arms_cross_term_tolerance(self, means, refused):
        if refused:
            with pytest.raises(CalibrationError, match="with a dark arm"):
                calibrate_from_means(*means, known_signal_mean=0.0)
        else:
            assert calibrate_from_means(*means, known_signal_mean=0.0).xi_raw == 0.0

    @pytest.mark.parametrize("means, xi_raw, clamped", [
        (((0.0, 2.0), (2.0, 0.0)), 1.0, False),
        (((0.0, 3.0), (3.0, 0.0)), 1.5 / math.sqrt(2.0), True),
    ])
    def test_a_visibility_above_one_is_clamped(self, means, xi_raw, clamped):
        cal = calibrate_from_means(*means, known_lo_mean=1.0)
        assert cal.xi_raw == pytest.approx(xi_raw, rel=1e-15)
        assert (cal.xi, cal.clamped) == (1.0, clamped)

    @pytest.mark.parametrize("known", ["known_lo_mean", "known_signal_mean"])
    @pytest.mark.parametrize("shots", [1, 2000])
    def test_the_standard_error_is_first_order_poisson_noise(self, shots, known):
        # var(xi) = var(cross) / (s z) + xi^2 / (4 u^2) var(total)
        #           - 2 xi / (2 u sqrt(s z)) cov(total, cross), with
        # var(total) = total / (2 N), var(cross) = total / (8 N) and
        # cov(total, cross) = cross / (2 N); s is the signal mean, z the LO
        # mean and u the inferred one of the two
        s, z, xi = 3.07, 12.15, 0.94
        p = params_for(s, z, xi)
        cal = calibrate_from_means(detection_rates(p, 0), detection_rates(p, 1),
                                   **{known: z if known == "known_lo_mean" else s},
                                   shots_per_symbol=shots)
        total, cross, u = s + z, xi * math.sqrt(s * z), s if known == "known_lo_mean" else z
        var = (total / (8 * shots * s * z) + xi ** 2 * total / (8 * shots * u ** 2)
               - xi * cross / (2 * shots * u * math.sqrt(s * z)))
        assert cal.xi_stderr == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_a_saturated_cross_term_has_a_zero_error_bar(self):
        # each symbol lights one arm, so the cross term is half the total and
        # the variance is zero; rounding takes its three terms a little below
        cal = calibrate_from_means((0.0, 2.3956437432625597), (6.0458173229017165, 0.0),
                                   known_lo_mean=2.110365266541069, shots_per_symbol=1)
        assert (cal.xi, cal.xi_stderr) == (1.0, 0.0)

    def test_exactly_one_known_required(self):
        with pytest.raises(ValidationError):
            calibrate_from_means((1, 1), (1, 1))
        with pytest.raises(ValidationError):
            calibrate_from_means((1, 1), (1, 1), known_lo_mean=1.0,
                                 known_signal_mean=1.0)

    def test_coverage_of_error_bars(self):
        # 3-sigma bars should cover the truth in at least 95 of 100 trials
        # and the bars are as wide as the scatter of the estimates
        p = params_for(3.07, 12.15, 0.94)
        cals = [calibrate_params(empirical_distributions(run_experiment(p, 2000, seed=seed)),
                                 known_lo_mean=12.15) for seed in range(100)]
        hits = sum(abs(cal.xi_raw - 0.94) <= 3.0 * cal.xi_stderr for cal in cals)
        assert hits >= 95
        scatter = np.std([cal.xi_raw for cal in cals], ddof=1)
        assert np.median([cal.xi_stderr for cal in cals]) == pytest.approx(scatter, rel=0.15)
