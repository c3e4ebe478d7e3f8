"""Tests for hierarchical-matrix checkpoint/restore."""

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.core.checkpoint import load_checkpoint, save_checkpoint


def build_matrix(seed=0, cuts=(50, 500)):
    rng = np.random.default_rng(seed)
    H = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=list(cuts), name="ckpt")
    for _ in range(8):
        rows = rng.integers(0, 10_000, 70).astype(np.uint64)
        cols = rng.integers(0, 10_000, 70).astype(np.uint64)
        H.update(rows, cols, np.ones(70))
    return H


class TestCheckpointRoundtrip:
    def test_content_identical(self, tmp_path):
        H = build_matrix()
        path = save_checkpoint(H, tmp_path / "state.npz")
        restored = load_checkpoint(path)
        assert restored.materialize().isequal(H.materialize())

    def test_layer_occupancy_preserved(self, tmp_path):
        H = build_matrix()
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "s.npz"))
        assert restored.layer_nvals == H.layer_nvals
        assert restored.cuts == H.cuts
        assert restored.nlevels == H.nlevels
        assert restored.dtype.name == H.dtype.name
        assert restored.shape == H.shape
        assert restored.name == "ckpt"

    def test_stats_preserved(self, tmp_path):
        H = build_matrix()
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "s.npz"))
        assert restored.stats.total_updates == H.stats.total_updates
        assert restored.stats.cascades == H.stats.cascades
        assert restored.stats.element_writes == H.stats.element_writes

    def test_streaming_continues_after_restore(self, tmp_path):
        H = build_matrix()
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "s.npz"))
        before = restored.materialize().nvals
        restored.update([1, 2, 3], [4, 5, 6], 1.0)
        assert restored.materialize().nvals >= before
        assert restored.get(1, 4) is not None

    def test_pending_tuples_flushed_into_checkpoint(self, tmp_path):
        H = HierarchicalMatrix(2**32, 2**32, cuts=[100])
        H.layers[0].setElement(7, 9, 3.0)  # pending, unmerged
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "s.npz"))
        assert restored.get(7, 9) == 3.0

    def test_path_suffix_added(self, tmp_path):
        H = build_matrix()
        returned = save_checkpoint(H, tmp_path / "noext")
        assert returned.suffix == ".npz"
        assert load_checkpoint(returned).materialize().isequal(H.materialize())

    def test_empty_matrix_roundtrip(self, tmp_path):
        H = HierarchicalMatrix(cuts=[10, 100])
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "empty.npz"))
        assert restored.nvals_stored == 0
        assert restored.shape == (2**64, 2**64)

    def test_hypersparse_coordinates_roundtrip(self, tmp_path):
        H = HierarchicalMatrix(cuts=[5])
        H.update([2**63, 2**40], [2**62, 7], [1.0, 2.0])
        restored = load_checkpoint(save_checkpoint(H, tmp_path / "big.npz"))
        assert restored.get(2**63, 2**62) == 1.0
        assert restored.get(2**40, 7) == 2.0

    def test_wrong_format_version_rejected(self, tmp_path):
        import json

        H = build_matrix()
        path = save_checkpoint(H, tmp_path / "v.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["format_version"] = 999
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_stored_clock_ignored(self, tmp_path):
        # Checkpoints written while the counters still carried a clock load
        # as counters only.
        import json

        H = build_matrix()
        path = save_checkpoint(H, tmp_path / "clock.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["stats"].update(elapsed_seconds=1.5, updates_per_second=373.0)
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        restored = load_checkpoint(path)
        assert restored.stats.as_dict() == H.stats.as_dict()
