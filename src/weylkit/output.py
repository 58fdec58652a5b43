"""The formats of every output file and report.

CSV: one header row, CRLF line ends, `repr` for a float cell (it reads
back bitwise) and `str` for an integer cell. JSON comes in two forms: an
output file or report indented by 2 (`json_text`), and a one-line object
on standard output for `localize`'s normalization report and every CLI
error (`json_line`); both end in a newline. A text is built whole before
`write` opens its file, so a failed computation leaves no partial file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def _cells(column) -> np.ndarray:
    """The cells of one column; a float's `repr` is computed once per
    distinct bit pattern (-0.0 and 0.0 stay apart)."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return np.array([str(v) for v in column.tolist()], dtype=object)
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64),
                              return_inverse=True)
    return np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)[inverse]


def csv_text(header, columns) -> str:
    """CSV text of equal-length columns under the names in `header`."""
    lines = [",".join(header), *map(",".join, zip(*map(_cells, columns)))]
    return "\r\n".join(lines) + "\r\n"


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def json_line(payload) -> str:
    return json.dumps(payload) + "\n"


def write(text: str, path) -> None:
    """Write `text` to the file `path`, or to standard output if `path` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with Path(path).open("w", newline="") as fh:
            fh.write(text)
