"""File formats: shot-record CSV, result tables, and flat config files.

Shot records are plain comma-separated text with the fixed header
``shot_id,symbol,n_t,n_r``.  Result tables carry a ``#``-prefixed metadata
preamble followed by a CSV header and rows, so a figure can be regenerated
from the file alone.  All writes go through a write-then-rename so a failed
run never leaves a partial file behind.
"""

import contextlib
import io
import os
import tempfile

import numpy as np

from .errors import ValidationError
from .montecarlo import MAX_COUNT, ExperimentRun

__all__ = [
    "SHOT_HEADER",
    "write_text_atomic",
    "write_shot_records",
    "read_shot_records",
    "format_cell",
    "render_table",
    "parse_config",
]

SHOT_HEADER = "shot_id,symbol,n_t,n_r"
_PLAIN_HEADER = (SHOT_HEADER + "\n").encode()  # the header line, as written
_WRITE_BLOCK_ROWS = 65536


def _umask():
    """The process umask; reading it means setting it, so it is put back at once."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _atomic_output(path):
    """A binary handle on a same-directory temp file that is renamed to ``path``.

    The file is flushed to disk before the rename, and it gets the mode an
    ordinary ``open`` would give it (0o666 less the umask) rather than the
    owner-only mode of the temp file.  On any failure the temp file goes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".pnrchan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.chmod(tmp_path, 0o666 & ~_umask())
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` as UTF-8, atomically (see ``_atomic_output``)."""
    with _atomic_output(path) as handle:
        handle.write(text.encode("utf-8"))


def _format_block(columns):
    """The shot-file rows of one block: equal-length nonnegative integer columns
    in, their decimal text as ASCII bytes out.

    Each column gets one uint8 slot per digit of its widest value in the
    block, then one separator slot (a comma, or the row's newline).  The
    digits come from repeated division by the scalar 10, right to left, on
    the narrowest unsigned type that holds the column, where numpy divides
    fastest.  A mask keeps the units digit and every digit below a value's
    leading one, so one compress of the matrix, row by row, is the text.
    """
    tops = [int(column.max()) for column in columns]
    widths = [len(str(top)) for top in tops]
    digits = np.empty((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    keep = np.ones(digits.shape, dtype=bool)
    at = 0
    for column, top, width in zip(columns, tops, widths):
        q = column.astype(np.min_scalar_type(top))
        for power in range(1, width):
            keep[:, at + width - 1 - power] = q >= 10 ** power
        for slot in range(at + width - 1, at - 1, -1):
            rest = q // 10
            digits[:, slot] = q - 10 * rest + ord("0")
            q = rest
        at += width
        digits[:, at] = ord(",")
        at += 1
    digits[:, -1] = ord("\n")
    return digits[keep].tobytes()


def write_shot_records(path, run: ExperimentRun):
    """Serialize a run as shot-record CSV (one line per pulse).

    Rows go to the file in blocks of ``_WRITE_BLOCK_ROWS``, so memory stays
    bounded by the block.  Each block's text is built as one digit matrix in
    numpy (``_format_block``); no Python string or int is made per value.
    The bytes are those of ``"%d,%d,%d,%d\\n"`` applied to every row.
    """
    with _atomic_output(path) as handle:
        handle.write(_PLAIN_HEADER)
        for start in range(0, len(run), _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, len(run))
            handle.write(_format_block([np.arange(start, stop), run.symbols[start:stop],
                                        run.n[start:stop], run.m[start:stop]]))


# The form write_shot_records writes: the header on line 1, then rows of
# four digit fields, each row ended by LF (the last one may lack it).
# Every other file is left to the line parser.
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint8)
_COUNT_DIGITS = len(str(MAX_COUNT))  # a wider count field is left to the line parser
_READ_BLOCK_BYTES = 1 << 17  # a block's work arrays take a few times its size


def _count_into(out, body, ends, widths):
    """Write the counts whose fields end before ``ends`` into ``out``.

    Digit ``j`` of each field, counted from the right, is ``body[ends - j]``,
    masked where the field is narrower than ``j``.  False if a field is
    wider than ``_COUNT_DIGITS``.
    """
    top = int(widths.max())
    if top > _COUNT_DIGITS:
        return False
    np.subtract(body[ends - 1], ord("0"), out=out, casting="unsafe")
    for j in range(2, top + 1):
        digits = body[ends - j] - ord("0")
        digits *= widths >= j
        out += digits * np.int64(10 ** (j - 1))
    return True


def _parse_rows(body, symbols, n, m):
    """Fill the columns from ``body``, whole LF-ended rows of digits and commas.

    Returns the number of rows, or None if a byte is not a digit, a comma or
    LF, if a row is not four nonempty fields with a one-digit symbol and
    counts of at most ``_COUNT_DIGITS`` digits, or if the rows overflow the
    columns.  The ``shot_id`` field is never converted: any run of digits is
    an integer.
    """
    separator = body < ord("0")
    if body.max() > ord("9") or separator[0] or (separator[1:] & separator[:-1]).any():
        return None
    seps = np.flatnonzero(separator)
    rows = len(seps) // 4
    if len(seps) % 4 or rows > len(symbols):
        return None
    if not np.array_equal(body[seps].reshape(rows, 4),
                          np.broadcast_to(_ROW_SEPARATORS, (rows, 4))):
        return None
    seps = seps.reshape(rows, 4)
    if (seps[:, 1] - seps[:, 0] != 2).any():
        return None
    np.subtract(body[seps[:, 1] - 1], ord("0"), out=symbols[:rows])
    for column, k in ((n, 2), (m, 3)):
        if not _count_into(column[:rows], body, seps[:, k], seps[:, k] - seps[:, k - 1] - 1):
            return None
    return rows


def _plain_bodies(handle):
    """The rest of the file in blocks of whole rows, as uint8 arrays ending in LF.

    Each read of ``_READ_BLOCK_BYTES`` is cut after its last LF and the rest
    is carried to the next.  A missing final LF is supplied.
    """
    carry = b""
    for block in iter(lambda: handle.read(_READ_BLOCK_BYTES), b""):
        block = carry + block
        cut = block.rfind(b"\n") + 1
        carry = block[cut:]
        if cut:
            yield np.frombuffer(block, dtype=np.uint8, count=cut)
    if carry:
        yield np.frombuffer(carry + b"\n", dtype=np.uint8)


def _read_plain(handle):
    """The run in a file in the written form, or None for any other file.

    The columns are allocated for the most rows the file can hold (eight
    bytes a row, seven for a last row without its LF), and each block of
    rows is parsed straight into them; the pages never written cost no
    memory.
    """
    if handle.read(len(_PLAIN_HEADER)) != _PLAIN_HEADER:
        return None
    cap = (os.fstat(handle.fileno()).st_size - len(_PLAIN_HEADER) + 1) // 8
    symbols = np.empty(cap, dtype=np.uint8)
    n = np.empty(cap, dtype=np.int64)
    m = np.empty(cap, dtype=np.int64)
    filled = 0
    for body in _plain_bodies(handle):
        rows = _parse_rows(body, symbols[filled:], n[filled:], m[filled:])
        if rows is None:
            return None
        filled += rows
    symbols, n, m = symbols[:filled], n[:filled], m[:filled]
    if not filled or symbols.max() > 1 or n.max() > MAX_COUNT or m.max() > MAX_COUNT:
        return None
    return ExperimentRun(symbols=symbols, n=n, m=m)


def read_shot_records(path) -> ExperimentRun:
    """Parse a shot-record file; malformed content names the offending line.

    Files in the written form are parsed a block of bytes at a time, straight
    into the columns, and checked once at the end (``_read_plain``).  Any
    other file, or one whose values fail the checks, goes through the line
    parser, which returns the same run or raises the error that names the
    line.
    """
    with open(path, "rb") as handle:
        run = _read_plain(handle)
    return _read_shot_lines(path) if run is None else run


def _decode_utf8(path, data, splitlines=str.splitlines):
    """``data`` as text; a byte that is not UTF-8 is named with its line.

    Lines are counted the way the caller splits the text, by ``splitlines``.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(splitlines(data[:exc.start].decode("utf-8") + "x"))
        raise ValidationError(
            f"{path}: line {line_no}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from exc


def _read_shot_lines(path) -> ExperimentRun:
    """The line-by-line parser: every field through ``int()``, errors by line."""
    with open(path, "rb") as handle:
        raw = _decode_utf8(path, handle.read()).splitlines()
    lines = [(idx + 1, line) for idx, line in enumerate(raw)
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header_no, header = lines[0]
    if header.strip() != SHOT_HEADER:
        raise ValidationError(
            f"{path}: line {header_no}: expected header {SHOT_HEADER!r}, got {header.strip()!r}"
        )
    symbols, ns, ms = [], [], []
    for line_no, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            raise ValidationError(
                f"{path}: line {line_no}: expected 4 comma-separated fields, got {len(fields)}"
            )
        try:
            int(fields[0])
            symbol = int(fields[1])
            n = int(fields[2])
            m = int(fields[3])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line_no}: {exc}") from exc
        if symbol not in (0, 1):
            raise ValidationError(f"{path}: line {line_no}: symbol must be 0 or 1")
        if not (0 <= n <= MAX_COUNT and 0 <= m <= MAX_COUNT):
            raise ValidationError(f"{path}: line {line_no}: counts must lie in [0, {MAX_COUNT}]")
        symbols.append(symbol)
        ns.append(n)
        ms.append(m)
    if not symbols:
        raise ValidationError(f"{path}: no shot records after the header")
    return ExperimentRun(
        symbols=np.array(symbols, dtype=np.uint8),
        n=np.array(ns, dtype=np.int64),
        m=np.array(ms, dtype=np.int64),
    )


def format_cell(value) -> str:
    """Deterministic cell rendering; undefined quantities get a sentinel."""
    if value is None:
        return "undefined"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"refusing to emit non-finite cell {value!r}")
    return f"{value:.12g}"


def render_table(version, preamble, columns, rows) -> str:
    """Render a result table: '#' preamble, CSV header, then data rows."""
    out = [f"# pnrchan {version}"]
    out.extend(f"# {key} = {value}" for key, value in preamble)
    out.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValidationError("row width does not match the column header")
        out.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(out) + "\n"


def render_gnuplot_script(csv_path, columns, title) -> str:
    """A minimal gnuplot script plotting every information column vs the first.

    The tool never renders images itself; this script is an optional
    convenience for regenerating figures from the emitted table.
    """
    x_name = columns[0]
    skip = {"transmissivity", "signal_mean", "trunc_err"}
    series = [
        (idx + 1, name) for idx, name in enumerate(columns)
        if idx > 0 and name not in skip
    ]
    lines = [
        f'# gnuplot script for {csv_path}',
        'set datafile separator ","',
        'set datafile commentschars "#"',
        'set datafile missing "undefined"',
        f'set xlabel "{x_name}"',
        'set ylabel "bits"',
        f'set title "{title}"',
        'set key outside',
        "plot \\",
    ]
    plots = [
        f'  "{csv_path}" using 1:{idx} with linespoints title "{name}"'
        for idx, name in series
    ]
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def _config_lines(text):
    """The lines of ``text`` as a file opened in text mode reads them: LF, CRLF or CR."""
    return io.StringIO(text, newline=None).readlines()


def parse_config(path) -> dict:
    """Read a flat ``key = value`` config file; later keys win."""
    out = {}
    with open(path, "rb") as handle:
        text = _decode_utf8(path, handle.read(), _config_lines)
    for line_no, line in enumerate(_config_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"{path}: line {line_no}: expected 'key = value'"
            )
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out
