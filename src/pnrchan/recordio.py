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
_WRITE_BLOCK_ROWS = 65536


def _umask():
    """The process umask; reading it means setting it, so it is put back at once."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _atomic_output(path):
    """A text handle on a same-directory temp file that is renamed to ``path``.

    The file is flushed to disk before the rename, and it gets the mode an
    ordinary ``open`` would give it (0o666 less the umask) rather than the
    owner-only mode of the temp file.  On any failure the temp file goes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".pnrchan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
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
    """Write ``text`` to ``path`` atomically (see ``_atomic_output``)."""
    with _atomic_output(path) as handle:
        handle.write(text)


def write_shot_records(path, run: ExperimentRun):
    """Serialize a run as shot-record CSV (one line per pulse).

    Rows are formatted a block at a time with one %-format each, which is
    several times faster than a format per row, and each block goes straight
    to the file, so memory stays bounded by the block.
    """
    with _atomic_output(path) as handle:
        handle.write(SHOT_HEADER + "\n")
        for start in range(0, len(run), _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, len(run))
            block = np.column_stack([np.arange(start, stop), run.symbols[start:stop],
                                     run.n[start:stop], run.m[start:stop]])
            handle.write(("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))


# The form write_shot_records writes: the header on line 1, then LF-ended
# rows of digits and commas.  Every other file is left to the line parser.
_PLAIN_HEADER = (SHOT_HEADER + "\n").encode()
_PLAIN_BODY = b"0123456789,\n"
_SCAN_BYTES = 1 << 20


def _is_plain(path):
    """Whether the file is in the written form, with at least one row."""
    with open(path, "rb") as handle:
        if handle.read(len(_PLAIN_HEADER)) != _PLAIN_HEADER:
            return False
        has_rows = False
        for chunk in iter(lambda: handle.read(_SCAN_BYTES), b""):
            if chunk.translate(None, _PLAIN_BODY):
                return False
            has_rows = has_rows or bool(chunk.strip(b"\n"))
    return has_rows


def read_shot_records(path) -> ExperimentRun:
    """Parse a shot-record file; malformed content names the offending line.

    Files in the written form are parsed in one vectorised pass and checked
    a column at a time.  Any other file, or one whose columns fail the
    checks, goes through the line parser, which returns the same run or
    raises the error that names the line.
    """
    if _is_plain(path):
        try:
            table = np.loadtxt(path, delimiter=",", dtype=np.int64, comments=None,
                               ndmin=2, skiprows=1)
            if table.shape[1] == 4:
                n, m = table[:, 2].copy(), table[:, 3].copy()
                # check on int64, then cast: a symbol of 257 would wrap to 1 in uint8
                ExperimentRun(symbols=table[:, 1], n=n, m=m)
                return ExperimentRun(symbols=table[:, 1].astype(np.uint8), n=n, m=m)
        except ValueError:  # a field loadtxt cannot parse, or a ValidationError
            pass
    return _read_shot_lines(path)


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
