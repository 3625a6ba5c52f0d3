"""File formats: shot-record CSV, result tables, and flat config files.

Shot records are plain comma-separated text with the fixed header
``shot_id,symbol,n_t,n_r``.  Result tables carry a ``#``-prefixed metadata
preamble followed by a CSV header and rows, so a figure can be regenerated
from the file alone.  All writes go through a write-then-rename so a failed
run never leaves a partial file behind.
"""

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


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a same-directory temp file and rename.

    The file is flushed to disk before the rename, and it gets the mode an
    ordinary ``open`` would give it (0o666 less the umask) rather than the
    owner-only mode of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".pnrchan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            os.chmod(tmp_path, 0o666 & ~_umask())
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_shot_records(path, run: ExperimentRun):
    """Serialize a run as shot-record CSV (one line per pulse).

    Rows are formatted a block at a time with one %-format each, which is
    several times faster than a format per row and bounds the temporaries.
    """
    rows = np.column_stack([np.arange(len(run)), run.symbols, run.n, run.m])
    parts = [SHOT_HEADER + "\n"]
    for start in range(0, len(rows), _WRITE_BLOCK_ROWS):
        block = rows[start:start + _WRITE_BLOCK_ROWS]
        parts.append(("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))
    write_text_atomic(path, "".join(parts))


def read_shot_records(path) -> ExperimentRun:
    """Parse a shot-record file; malformed content names the offending line."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
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


def parse_config(path) -> dict:
    """Read a flat ``key = value`` config file; later keys win."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
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
