"""One CSV format for every artifact, written and read in blocks of rows.

A header row, then unquoted comma-separated cells, each line ending in ``\\r\\n``
as ``csv.writer`` writes it: integer columns hold ``str(int)``, the others
``repr(float)``, which reads back bit-identical. Readers also take ``\\n``
endings. Working in blocks of ``BLOCK_ROWS`` rows keeps any whole-file list of
strings from forming.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import ValidationError

BLOCK_ROWS = 4096


def pair_columns(customer_id, n_arms: int):
    """(customer_id, arm) columns of a per-pair table: customer-major, arms ascending."""
    ids = np.asarray(customer_id, dtype=np.int64)
    return np.repeat(ids, n_arms), np.tile(np.arange(n_arms, dtype=np.int64), len(ids))


def write_table(path, header, columns):
    """Write equal-length 1-D ``columns`` under ``header``, one ``write`` per block."""
    columns = [np.asarray(c) for c in columns]
    # "%d" formats a Python int as str(int), "%r" a float as repr(float)
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%r" for c in columns) + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = zip(*(c[start : start + BLOCK_ROWS].tolist() for c in columns))
            f.write("".join(map(row.__mod__, block)))


def read_table(path, header, int_columns=()):
    """Columns in ``header`` order, int64 for ``int_columns``; bad input raises ``ValidationError``."""
    header = list(header)
    kinds = [(int, np.int64) if name in int_columns else (float, np.float64) for name in header]
    parsed = [[np.empty(0, dtype) for _, dtype in kinds]]
    with open(path) as f:
        got = f.readline().rstrip("\n").split(",")
        if got != header:
            raise ValidationError(f"{path}: unexpected header {got}; expected {header}")
        line_no = 2
        while lines := list(islice(f, BLOCK_ROWS)):
            try:
                columns = _parse(lines, kinds)
            except (ValueError, OverflowError):
                for line_no, line in enumerate(lines, start=line_no):  # find the bad line
                    try:
                        _parse([line], kinds)
                    except (ValueError, OverflowError) as exc:
                        raise ValidationError(f"{path}, line {line_no}: {exc}") from None
            parsed.append(columns)
            line_no += len(lines)
    return [np.concatenate(column) for column in zip(*parsed)]


def _parse(lines, kinds):
    """One array per column of ``lines``, split in one call. Each line break becomes a
    ``"\\n"`` cell, which no parser accepts, so a row with too few or too many cells fails."""
    n, stride = len(lines), len(kinds) + 1
    cells = "".join(lines).removesuffix("\n").replace("\n", ",\n,").split(",")
    if len(cells) != n * stride - 1:
        raise ValueError(f"expected {len(kinds)} cells per row")
    return [np.fromiter(map(parse, cells[c::stride]), dtype, n) for c, (parse, dtype) in enumerate(kinds)]
