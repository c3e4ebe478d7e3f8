"""I/O helpers for hypersparse matrices.

TSV triple files (the format the D4M pipelines use for traffic data).
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Tuple, Union

import numpy as np

__all__ = [
    "read_triples_arrays",
]

PathLike = Union[str, Path]


def _open(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r"), True


def read_triples_arrays(
    source: Union[PathLike, TextIO], *, sep: str = "\t"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read ``row<sep>col<sep>value`` triples as raw coordinate arrays.

    No duplicate is collapsed, so a recorded traffic capture replays as the
    original update *stream* — duplicates and ordering intact — which is
    what the sharded ingest CLI needs to re-feed a file through the
    streaming path.
    """
    fh, should_close = _open(source)
    try:
        rows, cols, vals = [], [], []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            r, c, v = line.split(sep)
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
        return (
            np.asarray(rows, dtype=np.uint64),
            np.asarray(cols, dtype=np.uint64),
            np.asarray(vals, dtype=np.float64),
        )
    finally:
        if should_close:
            fh.close()

