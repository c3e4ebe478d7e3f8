"""Checkpoint / restore for hierarchical hypersparse matrices.

Long-running traffic-monitoring pipelines (the paper's processes stream for
hours) need to survive restarts without replaying the whole stream.  A
checkpoint stores each layer's coordinate triples plus the hierarchy's
configuration (cuts, dtype, dimensions, statistics) in a single compressed
NumPy ``.npz`` file; restoring rebuilds an equivalent
:class:`~repro.core.hierarchical.HierarchicalMatrix` whose materialised content
is bit-identical to the original.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .hierarchical import HierarchicalMatrix

__all__ = ["save_checkpoint", "load_checkpoint"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_checkpoint(matrix: HierarchicalMatrix, path: PathLike) -> Path:
    """Write ``matrix`` (layers, cuts, stats) to ``path`` as a compressed .npz.

    Returns the path written.  Pending scalar insertions are merged first so
    the checkpoint is self-contained.
    """
    arrays = {}
    meta = {
        "format_version": _FORMAT_VERSION,
        "nrows": str(matrix.nrows),   # may exceed int64; store as strings
        "ncols": str(matrix.ncols),
        "dtype": matrix.dtype.name,
        "cuts": list(matrix.cuts),
        "nlevels": matrix.nlevels,
        "name": matrix.name,
        "stats": matrix.stats.as_dict(),
    }
    for i, layer in enumerate(matrix.layers):
        rows, cols, vals = layer.extract_tuples()
        arrays[f"layer{i}_rows"] = rows
        arrays[f"layer{i}_cols"] = cols
        arrays[f"layer{i}_vals"] = vals
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_checkpoint(path: PathLike) -> HierarchicalMatrix:
    """Rebuild a :class:`HierarchicalMatrix` previously written by :func:`save_checkpoint`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {meta.get('format_version')!r}"
            )
        matrix = HierarchicalMatrix(
            int(meta["nrows"]),
            int(meta["ncols"]),
            meta["dtype"],
            cuts=list(meta["cuts"]),
            name=meta.get("name", ""),
        )
        for i in range(meta["nlevels"]):
            rows = data[f"layer{i}_rows"]
            if rows.size:
                # Restore the layer content directly; bypassing update() keeps
                # the exact layer occupancy (no spurious cascades on load).
                cols, vals = data[f"layer{i}_cols"], data[f"layer{i}_vals"]
                matrix.layers[i].build(rows, cols, vals)
    if matrix.incremental.supported:
        # Layer injection bypassed the incremental tracker; re-derive its
        # reduction vectors from the materialised content once at load.
        matrix.incremental.rebuild_from_triples(*matrix.materialize().extract_tuples())
    stats_meta = meta.get("stats")
    if stats_meta is not None:
        # Counters only: the ``elapsed_seconds``/``updates_per_second`` that
        # older checkpoints carry are ignored.
        stats = matrix.stats
        stats.total_updates = int(stats_meta["total_updates"])
        stats.update_calls = int(stats_meta["update_calls"])
        stats.element_writes = [int(x) for x in stats_meta["element_writes"]]
        stats.cascades = [int(x) for x in stats_meta["cascades"]]
        stats.max_layer_nvals = [int(x) for x in stats_meta["max_layer_nvals"]]
    return matrix
