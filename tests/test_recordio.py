"""Shot-file I/O: the writer against %-formatting, the reader against the
reference line parser.

``write_shot_records`` builds each block's text as a digit matrix; its bytes
must be those of one ``%d`` per value (``oracles.shot_file_percent``).
``read_shot_records`` is the one reader of the grammar the README states: a
pass over blocks of whole lines that parses each straight into one buffer,
normalising a block that is not in the written form (CRLF, blank and comment
lines) and naming the first faulty line itself, and tallies the buffer each
time it fills.  The rows it parses, its buffers joined
(``oracles.read_columns``), must agree with ``oracles.read_shot_lines``,
which splits at LF and matches each field with a regular expression, on
every input and whatever the block size: the same arrays and dtypes, or the
same error naming the same line; and its tally must be theirs.
"""

import errno
import itertools
import os
import sys
import threading
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrchan import ChannelParams, ValidationError, cli, montecarlo, recordio
from pnrchan.montecarlo import MAX_COUNT, run_from_columns
from pnrchan.recordio import SHOT_HEADER, read_shot_records, write_shot_records

import oracles
from oracles import read_columns, read_shot_lines, run_columns, shot_file_percent, tally_unique

PROPERTIES = settings(derandomize=True, database=None, max_examples=400, deadline=None)

# fields int() once accepted and the grammar does not, and other faulty fields
ODD_FIELDS = ["+3", " 3 ", "3_000", "\uff13", "3.0", "0x3", "", "-1", "2", "10", "01", "257",
              str(MAX_COUNT), str(MAX_COUNT + 1), str(2**32 + 1), "9999999999", "-0",
              "0" * 25 + "1", str(2**63),
              "1\x0c0", "1\x1c0", "1\u20280", "3\x0c", "\x1c3", "3\x0b", "1\r0", "3\r"]
# whole lines, before or after the header: blank, comments, wrong field counts
ODD_LINES = ["", "   ", "\t", "\r", " \r", "# a comment", "  #0,1,2,3", "# \u00b5 note",
             "# a\x0cb", "#\x1c", "7", "0,1,2,3,", "0,1,2", "0,1,2,3,4", ",,,", "x,1,y,3",
             str(2**64) + ",1,0,0"]
ODD_HEADERS = [f"  {SHOT_HEADER} ", "shot_id,symbol,n_t", f"\ufeff{SHOT_HEADER}"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x0b", "\u2028", " ", ""]


def plain_row(shot):
    return st.tuples(st.integers(0, 1), st.integers(0, 30), st.integers(0, 30)).map(
        lambda row: f"{shot},{row[0]},{row[1]},{row[2]}")


@st.composite
def shot_files(draw):
    """A shot file as simulate writes it (CRLF-ended one time in four), with
    up to three odd edits.

    Few edits keep most of the file plain, so each odd form meets the
    vectorised pass on its own where it can.
    """
    rows = [draw(plain_row(shot)) for shot in range(draw(st.integers(1, 6)))]
    lines = [SHOT_HEADER, *rows]
    ends = [draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["field"] * 4 + ["line"] * 2 + ["width", "header", "end"]))
        if edit == "field":
            row = draw(st.integers(len(lines) - len(rows), len(lines) - 1))
            fields = lines[row].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            lines[row] = ",".join(fields)
        elif edit == "line":
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
            ends.insert(at, ends[0])
        elif edit == "width":  # every row loses a field, or every row gains one
            grow = draw(st.booleans())
            rows = [row + ",7" if grow else row.rsplit(",", 1)[0] for row in rows]
            lines[len(lines) - len(rows):] = rows
        elif edit == "header" and SHOT_HEADER in lines:
            lines[lines.index(SHOT_HEADER)] = draw(st.sampled_from(ODD_HEADERS))
        elif edit == "end":
            ends[draw(st.integers(0, len(ends) - 1))] = draw(st.sampled_from(LINE_ENDS))
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(reader, path):
    try:
        run = reader(path)
    except ValidationError as exc:
        return str(exc)
    return [(column.dtype.str, column.tolist()) for column in (run.symbols, run.n, run.m)]


def assert_same_tally(tally, run):
    keys, counts = tally.reduced()
    want_keys, want_counts = tally_unique(run)
    np.testing.assert_array_equal(keys, want_keys)
    np.testing.assert_array_equal(counts, want_counts)


def read_and_tally(path):
    """The rows the reader parses, once its tally of them has been checked."""
    run = read_columns(path)
    assert_same_tally(read_shot_records(path), run)
    return run


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("shots") / "shots.csv"


# the default block, or blocks of 1 to 64 bytes: rows straddle blocks, and
# some blocks hold no LF at all
BLOCK_BYTES = st.just(recordio._READ_BLOCK_BYTES) | st.integers(1, 64)


@PROPERTIES
@given(text=shot_files(), block_bytes=BLOCK_BYTES)
def test_fast_reader_agrees_with_the_line_parser(scratch, text, block_bytes):
    scratch.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
        fast = outcome(read_and_tally, scratch)
    assert fast == outcome(read_shot_lines, scratch)


def odd_files():
    """Each odd field in each field of one row, each odd line before each
    line, each odd header and each odd end of each line, one at a time, in
    a file of three rows with LF or CRLF line ends."""
    rows = ["0,0,12,3", "1,1,4,56", "2,0,7,8"]
    for end in ("\n", "\r\n"):
        def text(lines, ends=None):
            return "".join(line + e for line, e in zip(lines, ends or [end] * len(lines)))

        for row, field, odd in itertools.product(range(3), range(4), ODD_FIELDS):
            fields = rows[row].split(",")
            fields[field] = odd
            yield text([SHOT_HEADER, *rows[:row], ",".join(fields), *rows[row + 1:]])
        for at, odd in itertools.product(range(5), ODD_LINES):
            yield text([*[SHOT_HEADER, *rows][:at], odd, *[SHOT_HEADER, *rows][at:]])
        for odd in ODD_HEADERS:
            yield text([odd, *rows])
        for at, odd in itertools.product(range(4), LINE_ENDS):
            ends = [end] * 4
            ends[at] = odd
            yield text([SHOT_HEADER, *rows], ends)


def test_each_odd_form_alone_agrees_with_the_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "shots.csv"
    disagree = []
    for text in odd_files():
        path.write_bytes(text.encode("utf-8"))
        for block_bytes in (1, 9, recordio._READ_BLOCK_BYTES):
            monkeypatch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
            if outcome(read_and_tally, path) != outcome(read_shot_lines, path):
                disagree.append((text, block_bytes))
    assert disagree == []


def refuse(*_args):
    raise AssertionError("a path that must not run here ran")


def test_written_files_take_the_vectorised_pass(tmp_path, monkeypatch):
    path = tmp_path / "shots.csv"
    write_shot_records(path, run_from_columns(
        symbols=np.array([0, 1, 1], dtype=np.uint8), n=np.array([1, 3, MAX_COUNT]),
        m=np.array([2, 0, 10])))
    expected = outcome(read_shot_lines, path)

    def no_loadtxt(*_args, **_kwargs):
        raise AssertionError("np.loadtxt ran")

    monkeypatch.setattr(recordio, "_parse_lines", refuse)
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert outcome(read_and_tally, path) == expected


# str.splitlines breaks a line at each of these; the grammar does not, so in
# a row they are bad field bytes, and in a comment they are comment text
@pytest.mark.parametrize("text, message", [
    ("shot_id,symbol,n_t,n_r\n0,0,3\x0c,2\n1,1,1,1\n", "line 2: n_t must be ASCII digits"),
    ("shot_id,symbol,n_t,n_r\n0,0\x1c,1,2\n1,1,1,1\n", "line 2: symbol must be 0 or 1"),
    ("shot_id,symbol,n_t,n_r\n0,0,1,\x0b2\n1,1,1,1\n", "line 2: n_r must be ASCII digits"),
    ("# a\x0cb\nshot_id,symbol,n_t,n_r\n0,0,1,2\n1,1,1,1\n", None),
])
def test_other_line_breaks_are_not_line_ends(tmp_path, text, message):
    path = tmp_path / "shots.csv"
    path.write_bytes(text.encode("utf-8"))
    if message is None:
        assert outcome(read_and_tally, path) == [("|u1", [0, 1]), ("<i4", [1, 1]),
                                                    ("<i4", [2, 1])]
    else:
        with pytest.raises(ValidationError, match=message):
            read_shot_records(path)


# a line that is not UTF-8 is named for its first such byte, a comment too,
# and the first faulty line in the file is the one named
@pytest.mark.parametrize("data, message", [
    (b"# caf\xe9\nshot_id,symbol,n_t,n_r\n0,0,1,2\n", "line 1: byte 0xe9 is not UTF-8"),
    (b"shot_id,symbol,n_t,n_r\n0,0,1,2\n  # \xff\n", "line 3: byte 0xff is not UTF-8"),
    (b"shot_id,symbol,n_t\xe2\x82\n0,0,1,2\n", "line 1: byte 0xe2 is not UTF-8 "
                                                  r"\(invalid continuation byte\)"),
    (b"shot_id,symbol,n_t,n_r\n0,0,x,2\n# \xff\n", "line 2: n_t must be ASCII digits"),
    (b"\xef\xbb\xbf\xef\xbb\xbfshot_id,symbol,n_t,n_r\n0,0,1,2\n",
     r"line 1: expected header 'shot_id,symbol,n_t,n_r', got '\\ufeffshot_id"),
])
def test_the_first_faulty_line_is_named(tmp_path, monkeypatch, data, message):
    path = tmp_path / "shots.csv"
    path.write_bytes(data)
    for block_bytes in (1, 8, recordio._READ_BLOCK_BYTES):
        monkeypatch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
        with pytest.raises(ValidationError, match=message):
            read_shot_records(path)
    assert outcome(read_and_tally, path) == outcome(read_shot_lines, path)


@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
def test_header_only_file_is_named_without_a_warning(tmp_path, body):
    path = tmp_path / "shots.csv"
    path.write_bytes(f"{SHOT_HEADER}\n{body}".encode())
    with pytest.raises(ValidationError, match="no shot records after the header"):
        read_shot_records(path)


def test_a_file_that_grows_while_read_is_read_whole(tmp_path, monkeypatch):
    # nothing is sized from the file's size when opened: a buffer of one row
    # is tallied each time it fills, and grows for a block of lines that
    # holds more (two rows of a 16-byte read, or a comment line joined from
    # several reads), on the written form and on CRLF lines
    path = tmp_path / "shots.csv"
    real_fstat = os.fstat

    def fstat_of_two_rows(fd):
        fields = list(real_fstat(fd)[:10])
        fields[6] = len(SHOT_HEADER) + 1 + 16  # st_size
        return os.stat_result(fields)

    for end in ("\n", "\r\n"):
        rows = f"0,1,2,3{end}" * 5
        path.write_bytes(f"{SHOT_HEADER}{end}{rows}# {'x' * 40}{end}{rows}".encode())
        expected = outcome(read_shot_lines, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fstat", fstat_of_two_rows)
            patch.setattr(recordio, "_READ_BLOCK_BYTES", 16)
            patch.setattr(recordio, "_READ_BUFFER_ROWS", 1)
            assert outcome(read_and_tally, path) == expected
            # a block of rows past the two a 16-byte read holds: the comment grew it
            assert max(len(block[0]) for block in recordio._shot_blocks(path)) > 2


@pytest.mark.parametrize("line, message", [
    ("1,257,3,0", "line 3: symbol must be 0 or 1"),
    ("1,10,3,0", "line 3: symbol must be 0 or 1"),
    ("1,1,3", "line 3: expected 4 comma-separated fields, got 3"),
    ("1,1,3,0,", "line 3: expected 4 comma-separated fields, got 5"),
    (",1,3,0", "line 3: shot_id must be ASCII digits"),
    ("1,1,,0", "line 3: n_t must be ASCII digits"),
    ("1,1,3,", "line 3: n_r must be ASCII digits"),
    ("1,1,9999999999,0", "line 3: counts must lie in"),
    ("1,1,3,2147483648", "line 3: counts must lie in"),
    ("1,1,3,21474836470", "line 3: counts must lie in"),
])
def test_columns_that_fail_their_checks_name_the_line(tmp_path, monkeypatch, line, message):
    path = tmp_path / "shots.csv"
    path.write_text(f"shot_id,symbol,n_t,n_r\n0,0,1,2\n{line}\n")
    # a block of 8 bytes ends with the row before the bad one
    for block_bytes in (1, 8, recordio._READ_BLOCK_BYTES):
        monkeypatch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
        with pytest.raises(ValidationError, match=message):
            read_shot_records(path)


def dressed_forms(data):
    """A written file's bytes as written, with CRLF line ends, with a comment
    line before the header and every 1000 lines after it, and after a BOM."""
    lines = data.split(b"\n")
    for at in [*range(len(lines) - 1, 0, -1000), 0]:
        lines.insert(at, b"# a note")
    return {"written": data, "crlf": data.replace(b"\n", b"\r\n"),
            "commented": b"\n".join(lines), "bom": b"\xef\xbb\xbf" + data}


def test_reader_peak_memory_is_a_few_times_the_file(tmp_path):
    rng = np.random.default_rng(3)
    shots = 100_000
    run = oracles.Columns(symbols=rng.integers(0, 2, shots, dtype=np.uint8),
                          n=rng.poisson(12.0, shots), m=rng.poisson(9.0, shots))
    path = tmp_path / "shots.csv"
    write_shot_records(path, run.run())
    for form, data in dressed_forms(path.read_bytes()).items():
        path.write_bytes(data)
        tracemalloc.start()
        try:
            back = read_shot_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_tally(back, run)
        assert peak < 4 * len(data), form


def test_a_bad_last_row_is_named_from_its_own_block(tmp_path, monkeypatch):
    """The only bad value of a 1e5-row file is on its last row: the error
    names that line, no read returns more than a block, so no copy of the
    whole file is ever decoded, and the oracle is never called.  As written,
    only the last block is normalised; the other forms count their lines
    through normalised blocks."""
    shots = 100_000
    run = run_from_columns(symbols=np.arange(shots, dtype=np.uint8) % 2,
                           n=np.arange(shots) % 41, m=np.arange(shots) % 7 + 10)
    path = tmp_path / "shots.csv"
    write_shot_records(path, run)
    written = path.read_bytes()
    reads, normalised = [], []
    real_open, real_parse_lines = open, recordio._parse_lines

    class Recorded:
        def __init__(self, *args):
            self.handle = real_open(*args)

        def read(self, size):
            reads.append(len(data := self.handle.read(size)))
            return data

        def fileno(self):
            return self.handle.fileno()

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            self.handle.close()

    def parse_lines(*args):
        normalised.append(1)
        return real_parse_lines(*args)

    monkeypatch.setattr(recordio, "open", Recorded, raising=False)
    monkeypatch.setattr(recordio, "_parse_lines", parse_lines)
    monkeypatch.setattr(oracles, "read_shot_lines", refuse)
    bad = written[:written.rindex(b",") + 1] + b"x\n"
    for form, data in dressed_forms(bad).items():
        path.write_bytes(data)
        reads.clear()
        normalised.clear()
        line_no = data[:data.index(b"x")].count(b"\n") + 1
        with pytest.raises(ValidationError, match=f"line {line_no}: n_r must be ASCII digits$"):
            read_shot_records(path)
        assert max(reads) <= recordio._READ_BLOCK_BYTES, form
        assert sum(reads) == len(data), form
        assert form != "written" or len(normalised) == 1
    assert line_no == shots + 1


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # on one thread the blocks are formatted in order, so the failure is the
    # last call; the threaded case is test_failure_on_a_worker_leaves_no_file
    monkeypatch.setattr(recordio, "_worker_count", lambda: 1)
    run = run_from_columns(symbols=np.zeros(10, dtype=np.uint8), n=np.arange(10),
                           m=np.arange(10))
    calls = []
    real_format_block = recordio._format_block

    def failing_format_block(columns):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError
        return real_format_block(columns)

    monkeypatch.setattr(recordio, "_WRITE_BLOCK_ROWS", 4)
    monkeypatch.setattr(recordio, "_format_block", failing_format_block)
    with pytest.raises(MemoryError):
        write_shot_records(tmp_path / "shots.csv", run)
    assert len(calls) == 2
    assert not list(tmp_path.iterdir())


# counts at the edges of a digit: 0, each power of ten and its neighbours, MAX_COUNT
EDGE_COUNTS = sorted({0, 1, MAX_COUNT - 1, MAX_COUNT}
                     | {10 ** k + d for k in range(1, 10) for d in (-1, 0, 1)})


@st.composite
def shot_runs(draw):
    """A run of 1 to 400 shots, so that ids cross 10 and 100, drawn by numpy
    from a seed.  Each count is an edge count, a small one or one uniform on
    [0, MAX_COUNT], so that field widths change from row to row."""
    shots = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def counts():
        return np.choose(rng.choice(3, shots, p=(0.3, 0.5, 0.2)),
                         [rng.choice(EDGE_COUNTS, shots), rng.integers(0, 30, shots),
                          rng.integers(0, MAX_COUNT, shots, endpoint=True)])

    return oracles.Columns(symbols=rng.integers(0, 2, shots, dtype=np.uint8),
                           n=counts(), m=counts())


@PROPERTIES
@given(run=shot_runs(), block_rows=st.integers(1, 70), chunk_rows=st.integers(1, 500))
def test_writer_bytes_equal_a_percent_format_per_value(scratch, run, block_rows, chunk_rows):
    """Whatever the blocks of the run and the rows formatted at once; the
    tally written is the run's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recordio, "_WRITE_BLOCK_ROWS", block_rows)
        patch.setattr(montecarlo, "_CHUNK", chunk_rows)
        tally = write_shot_records(scratch, run.run())
    assert scratch.read_bytes() == shot_file_percent(run)
    assert_same_tally(tally, run)


@settings(PROPERTIES, max_examples=100)
@given(run=shot_runs(), block_bytes=BLOCK_BYTES, final_lf=st.booleans())
def test_written_files_read_back_across_block_boundaries(scratch, run, block_bytes,
                                                         final_lf):
    """A written file, its final LF kept or cut, reads back with no block
    normalised."""
    write_shot_records(scratch, run.run())
    if not final_lf:
        scratch.write_bytes(scratch.read_bytes()[:-1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
        patch.setattr(recordio, "_parse_lines", refuse)
        back = read_and_tally(scratch)
    for got, want, dtype in zip((back.symbols, back.n, back.m), (run.symbols, run.n, run.m),
                                (np.uint8, np.int32, np.int32)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_block_format_holds_any_int64():
    """Values past uint32 take the uint64 path: ids of a run of 2**32 shots."""
    values = np.array([0, 9, 2**32 - 1, 2**32, 10**15 - 1, 10**15, 2**63 - 1])
    columns = [values, values[::-1], np.zeros(len(values), dtype=np.uint8), values % 7]
    block = np.column_stack(columns)
    expected = ("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist())
    assert bytes(recordio._format_block(columns)) == expected.encode()


def varied_run(shots, seed):
    """A run whose field widths change from row to row and from block to block."""
    rng = np.random.default_rng(seed)
    return run_from_columns(symbols=rng.integers(0, 2, shots, dtype=np.uint8),
                            n=rng.choice(EDGE_COUNTS, shots), m=rng.integers(0, 30, shots))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, workers):
    """Blocks are drawn on every thread and formatted, written and tallied in
    order: one file and one tally, whatever the thread count and block size,
    a partial last block included.  Threads switch every microsecond, so
    that a hand-off out of turn shows."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    path = tmp_path / "shots.csv"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block_rows in (1, 7, 64):
            monkeypatch.setattr(recordio, "_WRITE_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(montecarlo, "_CHUNK", 2 * block_rows + 1)
            run = varied_run(300, 11)
            tally = write_shot_records(path, run)
            assert path.read_bytes() == shot_file_percent(run), block_rows
            assert_same_tally(tally, run)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_each_thread_holds_one_finished_result_at_most(monkeypatch, workers):
    """Results are delivered in job order, and each is gone before its thread
    starts another job, so no more results than threads are ever alive.
    Threads switch every microsecond, so that a result kept too long shows."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    lock = threading.Lock()
    alive, peak, delivered = [0], [0], []

    class Result:
        def __init__(self, index):
            self.index = index

    def dead():
        with lock:
            alive[0] -= 1

    def job(index):
        result = Result(index)
        weakref.finalize(result, dead)
        with lock:
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
        return result

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        recordio._run_jobs([partial(job, index) for index in range(200)],
                           lambda result: delivered.append(result.index))
    finally:
        sys.setswitchinterval(interval)
    assert delivered == list(range(200))
    assert 1 <= peak[0] <= workers and alive[0] == 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_writer_peak_memory_is_a_block_per_thread_and_one_piece(tmp_path, monkeypatch,
                                                                 workers):
    """The jobs only draw, and each block is formatted, written and tallied
    in its turn.  So each thread holds at most its block and numpy's int64
    draw of one piece, and only the thread whose turn it is holds text: one
    piece of ``_WRITE_BLOCK_ROWS`` rows, as its digit matrix, its mask and
    the text compressed from them.  The bound is derived from those sizes."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    run = montecarlo.run_experiment(ChannelParams.from_means(3.07, 12.17, visibility=0.94),
                                    3 * montecarlo._CHUNK, 23)
    np.random.Philox  # numpy.random is imported on first use, which is not the writer's
    tracemalloc.start()
    try:
        tally = write_shot_records(tmp_path / "shots.csv", run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    keys, _ = tally.reduced()
    last_id = 2 * 3 * montecarlo._CHUNK - 1  # a run counts blocks, not shots
    widest_row = f"{last_id},1,{keys.max() >> 32},{((keys >> 1) & MAX_COUNT).max()}\n"
    block = (1 + 4 + 4) * montecarlo._CHUNK  # uint8 symbols and int32 counts
    draw_piece = 8 * montecarlo._DRAW_PIECE
    text = 3 * len(widest_row) * recordio._WRITE_BLOCK_ROWS
    slack = 200_000  # the tally, the turns and numpy's column-sized temporaries
    assert peak <= text + workers * (block + draw_piece) + slack


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_run_of_no_blocks_writes_the_header_alone(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    path = tmp_path / "shots.csv"
    keys, counts = write_shot_records(path, ()).reduced()
    assert path.read_bytes() == f"{SHOT_HEADER}\n".encode()
    assert len(keys) == len(counts) == 0


ONE_BLOCK = run_from_columns(np.array([0, 1]), np.array([1, 2]), np.array([0, 3]))[0]
NOT_RUNS = {
    "list": [1, 2],
    "list of blocks": [ONE_BLOCK],
    "tuple of ints": (1, 2),
    # a NamedTuple of block makers is a record, not a run
    "NamedTuple": montecarlo.PluginEstimate(ONE_BLOCK, ONE_BLOCK),
}


@pytest.mark.parametrize("run", NOT_RUNS.values(), ids=NOT_RUNS)
def test_anything_but_a_run_is_refused_before_a_file_is_made(tmp_path, run):
    with pytest.raises(ValidationError, match=r"^run must be a run \(a tuple of blocks\), got "):
        write_shot_records(tmp_path / "shots.csv", run)
    assert not list(tmp_path.iterdir())


BLOCK_ROWS = 64
FAILING_BLOCKS = [0, 3, 9]  # of the ten blocks of 600 rows: the first, one inside, the last


def blocks_of(data, per_symbol=None):
    """A written file's bytes as the writer hands them over: the header, then
    each block of ``BLOCK_ROWS`` rows; of each symbol's ``per_symbol`` rows
    apart, for a run that ``run_experiment`` plans in blocks of one symbol."""
    header, rows = data.split(b"\n", 1)
    lines = rows.splitlines(keepends=True)
    per_symbol = per_symbol or len(lines)
    return [header + b"\n"] + [b"".join(lines[at:min(at + BLOCK_ROWS, half + per_symbol)])
                               for half in range(0, len(lines), per_symbol)
                               for at in range(half, half + per_symbol, BLOCK_ROWS)]


class Writes(list):
    fail_at = None


@pytest.fixture
def writes(monkeypatch):
    """Every write to a file opened by ``os.fdopen``, in order; a write whose
    index is put in ``writes.fail_at`` raises ENOSPC instead."""
    real_fdopen = os.fdopen
    attempts = Writes()

    class Recorded:
        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            attempts.append(bytes(data))
            if len(attempts) - 1 == attempts.fail_at:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.handle.write(data)

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

    monkeypatch.setattr(os, "fdopen", lambda *args: Recorded(real_fdopen(*args)))
    return attempts


def bounded(call):
    """What ``call()`` returned or raised, from a thread given 60 s: a hand-off
    that deadlocks fails the test instead of hanging the suite."""
    outcome = []

    def target():
        try:
            outcome.append(call())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the writer did not finish"
    return outcome[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", FAILING_BLOCKS)
def test_failure_on_a_worker_leaves_no_file(tmp_path, monkeypatch, writes, workers, failing):
    """A block that fails to format, on whichever thread: the error is raised,
    no later block reaches the file, the temp file goes and every thread ends."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    monkeypatch.setattr(recordio, "_WRITE_BLOCK_ROWS", BLOCK_ROWS)
    monkeypatch.setattr(montecarlo, "_CHUNK", BLOCK_ROWS)
    run = varied_run(600, 5)
    real_format_block = recordio._format_block

    def format_block(columns):
        if columns[0][0] == failing * BLOCK_ROWS:
            raise MemoryError
        return real_format_block(columns)

    monkeypatch.setattr(recordio, "_format_block", format_block)
    threads = threading.active_count()
    raised = bounded(lambda: write_shot_records(tmp_path / "shots.csv", run))
    assert isinstance(raised, MemoryError)
    assert threading.active_count() == threads
    assert not list(tmp_path.iterdir())
    # the blocks written are the first ones, in order, and none from the failing one on
    expected = blocks_of(shot_file_percent(run))
    assert writes == expected[:len(writes)] and len(writes) <= failing + 1
    assert workers > 1 or len(writes) == failing + 1


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", FAILING_BLOCKS)
def test_full_disk_on_a_worker_is_an_io_error(tmp_path, monkeypatch, capsys, writes,
                                              workers, failing):
    """``simulate`` whose write of a block finds the disk full: exit 2 with one
    i/o error line, no file, no write after the failing one, no thread left."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    monkeypatch.setattr(recordio, "_WRITE_BLOCK_ROWS", BLOCK_ROWS)
    monkeypatch.setattr(montecarlo, "_CHUNK", BLOCK_ROWS)
    writes.fail_at = failing + 1  # the header is write 0
    out = tmp_path / "shots.csv"
    args = ["simulate", "--signal-mean", "3.07", "--lo-mean", "12.17", "--xi", "0.94",
            "--shots", "300", "--seed", "7", "-o", str(out)]
    threads = threading.active_count()
    assert bounded(lambda: cli.main(args)) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith("pnrchan: i/o error: ") and err.count("\n") == 1
    assert os.strerror(errno.ENOSPC) in err
    assert not list(tmp_path.iterdir())
    run = montecarlo.run_experiment(ChannelParams.from_means(3.07, 12.17, visibility=0.94),
                                    300, 7)
    assert writes == blocks_of(shot_file_percent(run), per_symbol=300)[:failing + 2]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", FAILING_BLOCKS)
def test_failed_draw_of_a_block_leaves_no_file(tmp_path, monkeypatch, capsys, writes,
                                               workers, failing):
    """``simulate`` whose block ``failing`` of ten fails as it is drawn: it
    runs out of memory, or a later piece of its m counts holds a count over
    the limit.  Each time: exit 1 with the error's line, no file, only
    earlier blocks written, in order, and no thread left."""
    monkeypatch.setattr(recordio, "_worker_count", lambda: workers)
    monkeypatch.setattr(recordio, "_WRITE_BLOCK_ROWS", BLOCK_ROWS)
    monkeypatch.setattr(montecarlo, "_CHUNK", BLOCK_ROWS)
    run = montecarlo.run_experiment(ChannelParams.from_means(3.07, 12.17, visibility=0.94),
                                    300, 7)
    expected = blocks_of(shot_file_percent(run), per_symbol=300)
    args = ["simulate", "--signal-mean", "3.07", "--lo-mean", "12.17", "--xi", "0.94",
            "--shots", "300", "--seed", "7", "-o", str(tmp_path / "shots.csv")]
    threads = threading.active_count()
    real_draw = montecarlo._draw

    def draw(seed, symbol, index, rates, size):
        if 5 * symbol + index == failing:  # five blocks of 300 shots per symbol
            raise MemoryError
        return real_draw(seed, symbol, index, rates, size)

    for fault in ("memory", "count"):
        writes.clear()
        with pytest.MonkeyPatch.context() as patch:
            if fault == "memory":
                patch.setattr(montecarlo, "_draw", draw)
                error = "out of memory; use fewer --shots"
            else:
                # of a block's 64 or 44 counts per arm, draws 1-4 or 1-3 are the n counts
                patch.setattr(montecarlo, "_DRAW_PIECE", 16)
                patch.setattr(np.random, "Generator",
                              oracles.wild_in_call(6, 2**32 + 1, (7, *divmod(failing, 5))))
                error = f"drew a count of {2**32 + 1}, above the count limit {MAX_COUNT}"
            assert bounded(lambda: cli.main(args)) == 1
        assert threading.active_count() == threads
        assert capsys.readouterr().err == f"pnrchan: error: {error}\n"
        assert not list(tmp_path.iterdir())
        assert writes == expected[:len(writes)] and len(writes) <= failing + 1
        assert workers > 1 or len(writes) == failing + 1


@pytest.mark.parametrize("failing", [0, 3, 9])
def test_bad_line_in_a_later_block_leaves_no_report(tmp_path, monkeypatch, capsys, failing):
    """``analyze`` of a file whose read block ``failing`` holds a bad line,
    after earlier blocks have been tallied: exit 1 naming that line, and no
    report.  The reader runs on one thread whatever the CPU count."""
    monkeypatch.setattr(recordio, "_READ_BLOCK_BYTES", 256)
    monkeypatch.setattr(recordio, "_READ_BUFFER_ROWS", 64)
    path, report = tmp_path / "shots.csv", tmp_path / "report.json"
    write_shot_records(path, varied_run(400, 7))
    data = path.read_bytes()
    at = data.index(b"\n", (2 * failing + 1) * 128) + 1  # a line inside read block `failing`
    data = data[:at] + b"0,1,2,x\n" + data[at:]
    path.write_bytes(data)
    line_no = data[:at].count(b"\n") + 1
    tallied = []
    real_block_tally = montecarlo._block_tally
    monkeypatch.setattr(montecarlo, "_block_tally",
                        lambda *block: tallied.append(len(block[0])) or real_block_tally(*block))
    assert cli.main(["analyze", str(path), "-o", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"pnrchan: error: {path}: line {line_no}: n_r must be ASCII digits\n")
    assert not report.exists()
    assert failing < 3 or len(tallied) >= failing // 3  # the buffer filled on the way
