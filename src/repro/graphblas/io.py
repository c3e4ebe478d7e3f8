"""I/O helpers for hypersparse matrices.

TSV triple files (the format the D4M pipelines use for traffic data) and
a seeded random hypersparse matrix generator.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TextIO, Tuple, Union

import numpy as np

from .matrix import Matrix
from .types import lookup_dtype

__all__ = [
    "read_triples_arrays",
    "random_hypersparse",
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


def random_hypersparse(
    nvals: int,
    *,
    nrows: int = 2 ** 32,
    ncols: int = 2 ** 32,
    dtype="fp64",
    seed: Optional[int] = None,
    value_range: Tuple[float, float] = (0.0, 1.0),
) -> Matrix:
    """Generate a random hypersparse matrix with approximately ``nvals`` entries.

    Coordinates are drawn uniformly from the full index space, so for
    hypersparse dimensions collisions are vanishingly rare and the result has
    very nearly ``nvals`` stored entries.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, size=nvals, dtype=np.uint64, endpoint=False)
    cols = rng.integers(0, ncols, size=nvals, dtype=np.uint64, endpoint=False)
    dt = lookup_dtype(dtype)
    if dt.is_float:
        vals = rng.uniform(value_range[0], value_range[1], size=nvals)
    elif dt.is_bool:
        vals = np.ones(nvals, dtype=bool)
    else:
        lo, hi = int(value_range[0]), max(int(value_range[1]), int(value_range[0]) + 1)
        vals = rng.integers(lo, hi, size=nvals, endpoint=True)
    return Matrix.from_coo(rows, cols, vals, dtype=dt, nrows=nrows, ncols=ncols)
