"""File formats: shot-record CSV, result tables, and flat config files.

Shot records are comma-separated text with the header ``shot_id,symbol,n_t,n_r``,
in the grammar the README states.  Result tables carry a ``#``-prefixed metadata
preamble followed by a CSV header and rows, so a figure can be regenerated
from the file alone.  All writes go through a write-then-rename so a failed
run never leaves a partial file behind.
"""

import contextlib
import io
import os
import tempfile
from functools import partial

import numpy as np

from .errors import ValidationError
from .montecarlo import MAX_COUNT, ExperimentRun, _run_jobs

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

    The file is flushed to disk before the rename and the directory after
    it, so the new name is durable once the block exits.  The file gets the
    mode an ordinary ``open`` would give it (0o666 less the umask) rather than
    the owner-only mode of the temp file.  On any failure before the rename
    the temp file goes.
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
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` as UTF-8, atomically (see ``_atomic_output``)."""
    with _atomic_output(path) as handle:
        handle.write(text.encode("utf-8"))


def _format_block(columns):
    """The shot-file rows of one block: equal-length nonnegative integer columns
    in, a buffer of their decimal text as ASCII out.

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
        q = column.astype(np.min_scalar_type(top), copy=False)
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
    return memoryview(digits[keep])


def _shot_block(run, start):
    """The text of the rows of ``run`` from ``start``, one block of them."""
    stop = min(start + _WRITE_BLOCK_ROWS, len(run))
    ids = np.arange(start, stop, dtype=np.min_scalar_type(stop - 1))
    return _format_block([ids, run.symbols[start:stop], run.n[start:stop], run.m[start:stop]])


def write_shot_records(path, run: ExperimentRun):
    """Serialize a run as shot-record CSV (one line per pulse).

    Rows are formatted in blocks of ``_WRITE_BLOCK_ROWS``, each as one digit
    matrix in numpy (``_format_block``); no Python string or int is made per
    value.  The blocks are formatted concurrently on a thread per usable CPU
    (``montecarlo._run_jobs``) and handed to the file strictly in block
    order, so memory stays bounded by a block per thread and the bytes, those
    of ``"%d,%d,%d,%d\\n"`` applied to every row, do not depend on the thread
    count.  The first failure stops the formatting and no later block is
    written; the temp file then goes.
    """
    jobs = [partial(_shot_block, run, start) for start in range(0, len(run), _WRITE_BLOCK_ROWS)]
    with _atomic_output(path) as handle:
        handle.write(_PLAIN_HEADER)
        _run_jobs(jobs, handle.write)


_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint32)[0]  # a row's separators, as one word
_COUNT_DIGITS = len(str(MAX_COUNT))  # the widest count field the grammar allows
_READ_BLOCK_BYTES = 1 << 17  # a block's work arrays take a few times its size


def _count_into(out, body, ends, widths):
    """Write the counts whose fields end before ``ends`` into ``out``.

    Digit ``j`` of each field, counted from the right, is ``body[ends - j]``,
    masked where the field is narrower than ``j``.  The values are summed in
    int64, where ten digits cannot wrap, and stored only once all are in
    [0, ``MAX_COUNT``].  False if a field is wider than ``_COUNT_DIGITS`` or
    a value is over ``MAX_COUNT``.
    """
    top = int(widths.max())
    if top > _COUNT_DIGITS:
        return False
    values = np.subtract(body[ends - 1], ord("0"), dtype=np.int64)
    for j in range(2, top + 1):
        digits = body[ends - j] - ord("0")
        digits *= widths >= j
        values += digits * np.int64(10 ** (j - 1))
    if values.max() > MAX_COUNT:
        return False
    out[:] = values
    return True


def _parse_rows(body, symbols, n, m):
    """Fill the columns (room for ``len(body) // 8`` rows) from ``body``, rows
    each ended by LF: the row count, or None if a row breaks the grammar."""
    separator = body < ord("0")
    if body.max() > ord("9") or separator[0] or (separator[1:] & separator[:-1]).any():
        return None
    seps = np.flatnonzero(separator)
    rows = len(seps) // 4
    if len(seps) % 4 or not (body[seps].view(np.uint32) == _ROW_SEPARATORS).all():
        return None
    seps = seps.reshape(rows, 4)
    if (seps[:, 1] - seps[:, 0] != 2).any():
        return None
    symbols, n, m = symbols[:rows], n[:rows], m[:rows]
    np.subtract(body[seps[:, 1] - 1], ord("0"), out=symbols)
    for column, k in ((n, 2), (m, 3)):
        if not _count_into(column, body, seps[:, k], seps[:, k] - seps[:, k - 1] - 1):
            return None
    if symbols.max() > 1:
        return None
    return rows


def _not_utf8(path, line_no, data, exc):
    return ValidationError(
        f"{path}: line {line_no}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")


def _line_error(path, line_no, line, header):
    """The error that names line ``line_no``, whose bytes ``line`` (without
    its line end) are not UTF-8, or not the header, or not a row."""
    try:  # with an LF, as in the block: a sequence cut by the line end is then invalid
        text = (line + b"\n").decode("utf-8")[:-1]
    except UnicodeDecodeError as exc:
        return _not_utf8(path, line_no, line, exc)
    fields = line.split(b",")
    odd = [name for name, field in zip(("shot_id", "symbol", "n_t", "n_r"), fields)
           if not field.isdigit()]  # bytes.isdigit: ASCII digits only, and not empty
    if header:
        why = f"expected header {SHOT_HEADER!r}, got {text!r}"
    elif len(fields) != 4:
        why = f"expected 4 comma-separated fields, got {len(fields)}"
    elif fields[1] not in (b"0", b"1"):
        why = "symbol must be 0 or 1"
    else:  # or else a count is too wide or too large
        why = f"{odd[0]} must be ASCII digits" if odd else f"counts must lie in [0, {MAX_COUNT}]"
    return ValidationError(f"{path}: line {line_no}: {why}")


def _parse_lines(path, body, line_no, header, into):
    """Parse a block that ``_parse_rows`` refused, once a mask drops each CR
    before an LF and every blank or comment line.  Returns the rows parsed,
    whether the header has been read, and the block's line count; or raises
    the error for its first line that is not UTF-8, not the header, or not a row.
    """
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    cr = body[ends - 1] == ord("\r")
    stops = ends - cr  # where each line's end begins
    lead, first = starts, body[starts]  # each line's first byte that is not a blank
    indented = (first == ord(" ")) | (first == ord("\t"))
    if indented.any():
        solid = np.flatnonzero((body != ord(" ")) & (body != ord("\t")))
        lead = np.where(indented, solid[np.searchsorted(solid, starts)], starts)
        first = body[lead]
    skip = (lead >= stops) | (first == ord("#"))
    keep = np.repeat(~skip, ends + 1 - starts) if skip.any() else np.ones(len(body), bool)
    keep[stops[cr]] = False
    kept, at = body[keep], np.flatnonzero(~skip)
    fault, rows = len(ends), 0
    try:
        body.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        fault = np.searchsorted(ends, exc.start)
    if not header and len(at):
        header = kept[:len(_PLAIN_HEADER)].tobytes() == _PLAIN_HEADER
        fault = fault if header else min(fault, at[0])
        kept, at = kept[len(_PLAIN_HEADER):], at[1:]
    if header and len(at):
        rows = _parse_rows(kept, *into)
        if rows is None:  # halve: a run of rows parses if and only if each row does
            bounds = np.concatenate(([0], np.flatnonzero(kept == ord("\n")) + 1))
            lo, hi = 0, len(at)  # the rows before lo parse; a bad one is before hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                bad = _parse_rows(kept[bounds[lo]:bounds[mid]], *into) is None
                lo, hi = (lo, mid) if bad else (mid, hi)
            fault = min(fault, at[lo])
    if fault < len(ends):
        line = body[starts[fault]:stops[fault]].tobytes()
        raise _line_error(path, line_no + fault + 1, line, not header)
    return rows, header, len(ends)


def _line_blocks(handle, carry):
    """``carry`` and the rest of the file as uint8 blocks of whole lines; the
    reads since the last LF are joined once, so a long line is copied once."""
    parts = [carry]
    for block in iter(lambda: handle.read(_READ_BLOCK_BYTES), b""):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield np.frombuffer(b"".join([*parts, memoryview(block)[:cut]]), dtype=np.uint8)
            parts = []
        parts.append(block[cut:])
    if any(parts):  # a missing final LF is supplied
        yield np.frombuffer(b"".join([*parts, b"\n"]), dtype=np.uint8)


def read_shot_records(path) -> ExperimentRun:
    """Parse a shot-record file, or name the first line that breaks the grammar.

    Each block of lines goes straight into columns sized for the most rows the
    file can hold (eight bytes a row; pages never written cost no memory): the
    symbols as uint8, the counts as int32.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(_PLAIN_HEADER))
        header = head == _PLAIN_HEADER
        cap = max(0, os.fstat(handle.fileno()).st_size - len(_PLAIN_HEADER) + 1) // 8
        columns = [np.empty(cap, dtype) for dtype in (np.uint8, np.int32, np.int32)]
        filled, line_no = 0, int(header)
        for body in _line_blocks(handle, b"" if header else head.removeprefix(b"\xef\xbb\xbf")):
            if filled + len(body) // 8 > len(columns[0]):
                columns = [np.resize(c, 2 * len(c) + len(body)) for c in columns]
            into = [c[filled:] for c in columns]
            rows = lines = _parse_rows(body, *into) if header else None
            if rows is None:
                rows, header, lines = _parse_lines(path, body, line_no, header, into)
            filled, line_no = filled + rows, line_no + lines
    if not header:
        raise ValidationError(f"{path}: empty file")
    if not filled:
        raise ValidationError(f"{path}: no shot records after the header")
    return ExperimentRun(*(column[:filled] for column in columns))


def _decode_utf8(path, data):
    """``data`` as text; a byte that is not UTF-8 is named with its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_config_lines(data[:exc.start].decode("utf-8") + "x"))
        raise _not_utf8(path, line_no, data, exc) from exc


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
        text = _decode_utf8(path, handle.read())
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
