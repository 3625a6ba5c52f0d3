"""Shot-file I/O: the writer against %-formatting, the reader against the
line parser.

``write_shot_records`` builds each block's text as a digit matrix; its bytes
must be those of one ``%d`` per value (``oracles.shot_file_percent``).
``read_shot_records`` parses files in the form ``write_shot_records`` writes
in one pass over blocks of bytes, straight into the columns: the header,
exactly, then rows of four digit fields ended by LF, the last one maybe not.
It leaves every other file to ``_read_shot_lines``: blank lines, CR and other
line breaks, signs, spaces, a symbol wider than one digit, a count wider than
ten, and values out of range.  The two must agree on every input, whatever
the block size: the same arrays and dtypes, or the same error naming the
same line.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrchan import ExperimentRun, ValidationError, recordio
from pnrchan.montecarlo import MAX_COUNT
from pnrchan.recordio import SHOT_HEADER, read_shot_records, write_shot_records

from oracles import shot_file_percent

PROPERTIES = settings(derandomize=True, database=None, max_examples=400, deadline=None)

# fields int() accepts and the byte pass does not, and fields both reject
ODD_FIELDS = ["+3", " 3 ", "3_000", "\uff13", "3.0", "0x3", "", "-1", "2", "10", "01", "257",
              str(MAX_COUNT), str(MAX_COUNT + 1), "-0", "0" * 25 + "1", str(2**63),
              "1\x0c0", "1\x1c0", "1\u20280", "3\x0c", "\x1c3", "3\x0b"]
# whole lines, before or after the header: blank, comments, wrong field counts
ODD_LINES = ["", "   ", "\t", "# a comment", "  #0,1,2,3", "# \u00b5 note", "# a\x0cb",
             "#\x1c", "0,1,2,3,", "0,1,2", "0,1,2,3,4", ",,,", str(2**64) + ",1,0,0"]
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
        fast = outcome(read_shot_records, scratch)
    assert fast == outcome(recordio._read_shot_lines, scratch)


def refuse(_path):
    raise AssertionError("the line parser ran on a written file")


def test_written_files_take_the_vectorised_pass(tmp_path, monkeypatch):
    path = tmp_path / "shots.csv"
    write_shot_records(path, ExperimentRun(symbols=np.array([0, 1, 1], dtype=np.uint8),
                                           n=np.array([1, 3, MAX_COUNT]),
                                           m=np.array([2, 0, 10])))
    expected = outcome(recordio._read_shot_lines, path)

    def no_loadtxt(*_args, **_kwargs):
        raise AssertionError("np.loadtxt ran")

    monkeypatch.setattr(recordio, "_read_shot_lines", refuse)
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert outcome(read_shot_records, path) == expected


# str.splitlines breaks a line at each of these; the byte pass leaves them to it
@pytest.mark.parametrize("text", [
    "shot_id,symbol,n_t,n_r\n0,0,3\x0c,2\n1,1,1,1\n",
    "shot_id,symbol,n_t,n_r\n0,0\x1c,1,2\n1,1,1,1\n",
    "shot_id,symbol,n_t,n_r\n0,0,1,\x0b2\n1,1,1,1\n",
    "# a\x0cb\nshot_id,symbol,n_t,n_r\n0,0,1,2\n1,1,1,1\n",
])
def test_other_line_breaks_are_left_to_the_line_parser(tmp_path, text):
    path = tmp_path / "shots.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError, match="line 2: "):
        read_shot_records(path)


@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
def test_header_only_file_is_named_without_a_warning(tmp_path, body):
    path = tmp_path / "shots.csv"
    path.write_bytes(f"{SHOT_HEADER}\n{body}".encode())
    with pytest.raises(ValidationError, match="no shot records after the header"):
        read_shot_records(path)


def test_a_file_that_grows_while_read_is_read_whole(tmp_path, monkeypatch):
    # the columns are sized from the file's size when opened; more rows than
    # that fit go to the line parser, which reads them all
    path = tmp_path / "shots.csv"
    path.write_text("shot_id,symbol,n_t,n_r\n" + "0,1,2,3\n" * 5)
    expected = outcome(recordio._read_shot_lines, path)
    real_fstat = os.fstat

    def fstat_of_two_rows(fd):
        fields = list(real_fstat(fd)[:10])
        fields[6] = len(SHOT_HEADER) + 1 + 16  # st_size
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", fstat_of_two_rows)
    assert outcome(read_shot_records, path) == expected


@pytest.mark.parametrize("line, message", [
    ("1,257,3,0", "line 3: symbol must be 0 or 1"),
    ("1,10,3,0", "line 3: symbol must be 0 or 1"),
    ("1,1,3", "line 3: expected 4 comma-separated fields, got 3"),
    ("1,1,3,0,", "line 3: expected 4 comma-separated fields, got 5"),
    (",1,3,0", "line 3: invalid literal for int"),
    ("1,1,,0", "line 3: invalid literal for int"),
    ("1,1,3,", "line 3: invalid literal for int"),
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


def test_reader_peak_memory_is_a_few_times_the_file(tmp_path):
    rng = np.random.default_rng(3)
    shots = 100_000
    run = ExperimentRun(symbols=rng.integers(0, 2, shots, dtype=np.uint8),
                        n=rng.poisson(12.0, shots), m=rng.poisson(9.0, shots))
    path = tmp_path / "shots.csv"
    write_shot_records(path, run)
    tracemalloc.start()
    try:
        back = read_shot_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.n, run.n)
    assert peak < 4 * os.path.getsize(path)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    run = ExperimentRun(symbols=np.zeros(10, dtype=np.uint8), n=np.arange(10),
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
COUNTS = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 30), st.integers(0, MAX_COUNT))


@st.composite
def shot_runs(draw):
    """A run of 1 to 150 shots, so that ids cross 10 and 100, with edge counts."""
    shots = draw(st.integers(1, 150))
    column = st.lists(COUNTS, min_size=shots, max_size=shots)
    return ExperimentRun(
        symbols=np.array(draw(st.lists(st.integers(0, 1), min_size=shots, max_size=shots)),
                         dtype=np.uint8),
        n=np.array(draw(column), dtype=np.int64), m=np.array(draw(column), dtype=np.int64))


@PROPERTIES
@given(run=shot_runs(), block_rows=st.integers(1, 70))
def test_writer_bytes_equal_a_percent_format_per_value(scratch, run, block_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recordio, "_WRITE_BLOCK_ROWS", block_rows)
        write_shot_records(scratch, run)
    assert scratch.read_bytes() == shot_file_percent(run)


@st.composite
def long_shot_runs(draw):
    """A run of 1 to 400 shots drawn by numpy from a seed, with edge counts
    among small ones, so that field widths change from row to row."""
    shots = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def counts():
        return np.where(rng.random(shots) < 0.3, rng.choice(EDGE_COUNTS, shots),
                        rng.integers(0, 30, shots))

    return ExperimentRun(symbols=rng.integers(0, 2, shots, dtype=np.uint8),
                         n=counts(), m=counts())


@settings(PROPERTIES, max_examples=100)
@given(run=long_shot_runs(), block_bytes=BLOCK_BYTES, final_lf=st.booleans())
def test_written_files_read_back_across_block_boundaries(scratch, run, block_bytes,
                                                         final_lf):
    """A written file, its final LF kept or cut, reads back on the byte pass."""
    write_shot_records(scratch, run)
    if not final_lf:
        scratch.write_bytes(scratch.read_bytes()[:-1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recordio, "_READ_BLOCK_BYTES", block_bytes)
        patch.setattr(recordio, "_read_shot_lines", refuse)
        back = read_shot_records(scratch)
    for got, want in zip((back.symbols, back.n, back.m), (run.symbols, run.n, run.m)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_block_format_holds_any_int64():
    """Values past uint32 take the uint64 path: ids of a run of 2**32 shots."""
    values = np.array([0, 9, 2**32 - 1, 2**32, 10**15 - 1, 10**15, 2**63 - 1])
    columns = [values, values[::-1], np.zeros(len(values), dtype=np.uint8), values % 7]
    block = np.column_stack(columns)
    expected = ("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist())
    assert recordio._format_block(columns) == expected.encode()
