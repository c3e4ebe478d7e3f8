"""Tests for streaming/batching utilities and the ingest session harness."""

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.workloads import IngestResult, IngestSession, batched, paper_stream, synthetic_packets
from repro.workloads import stream as stream_module


class TestBatched:
    def test_even_split(self):
        rows = np.arange(10, dtype=np.uint64)
        out = list(batched(rows, rows, batch_size=5))
        assert len(out) == 2
        assert out[0][0].size == 5

    def test_ragged_last_batch(self):
        rows = np.arange(7, dtype=np.uint64)
        out = list(batched(rows, rows, batch_size=3))
        assert [b[0].size for b in out] == [3, 3, 1]

    def test_default_values_are_ones(self):
        rows = np.arange(4, dtype=np.uint64)
        _, _, vals = next(iter(batched(rows, rows, batch_size=4)))
        assert np.all(vals == 1.0)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batched(np.arange(3), np.arange(3), batch_size=0))


class TestIngestSession:
    def test_run_with_edge_batches(self):
        H = HierarchicalMatrix(cuts=[1000, 10000])
        session = IngestSession(H, "hier")
        result = session.run(paper_stream(total_entries=5000, nbatches=5, seed=0))
        assert isinstance(result, IngestResult)
        assert result.total_updates == 5000
        assert result.batches == 5
        assert result.updates_per_second > 0
        assert result.system == "hier"
        assert "cascades" in result.metadata

    def test_run_with_packet_batches(self):
        H = HierarchicalMatrix(cuts=[1000])
        result = IngestSession(H, "traffic").run(synthetic_packets(200, 3, seed=1))
        assert result.total_updates == 600

    def test_run_with_plain_tuples(self):
        H = HierarchicalMatrix(cuts=[100])
        tuples = [(np.arange(10), np.arange(10), np.ones(10)) for _ in range(3)]
        result = IngestSession(H, "tuples").run(tuples)
        assert result.total_updates == 30

    def test_max_batches(self):
        H = HierarchicalMatrix(cuts=[100])
        result = IngestSession(H, "h").run(
            paper_stream(total_entries=10_000, nbatches=10, seed=0), max_batches=3
        )
        assert result.batches == 3

    def test_run_ends_with_the_deferred_flush(self):
        # A repro-fig2-sized stream leaves a pending layer-1 window behind
        # its last update(); run() must flush it inside the timed span.
        H = HierarchicalMatrix(2**32, 2**32, cuts=[2**17, 2**20, 2**23])
        session = IngestSession(H, "h")
        result = session.run(paper_stream(scale=0.003, nbatches=100, seed=0))
        assert session.ingestor is H
        assert not H.layers[0].has_pending
        assert result.total_updates == H.stats.total_updates == 300_000

    def test_final_wait_is_timed(self, monkeypatch):
        # One fake-clock tick per perf_counter() call: each timed call spans 1 s.
        ticks = iter(range(10_000))
        monkeypatch.setattr(stream_module.time, "perf_counter", lambda: float(next(ticks)))
        calls = []

        class Deferring:
            def update(self, rows, cols, values=1):
                calls.append("update")

            def wait(self):
                calls.append("wait")

        class Eager:
            def update(self, rows, cols, values=1):
                pass

        tuples = [(np.arange(10), np.arange(10), 1.0)] * 4
        deferred = IngestSession(Deferring()).run(tuples)
        assert calls == ["update"] * 4 + ["wait"]
        assert deferred.elapsed_seconds == 5.0
        assert deferred.updates_per_second == 40 / 5.0
        assert IngestSession(Eager()).run(tuples).elapsed_seconds == 4.0

    def test_as_row_flattens(self):
        H = HierarchicalMatrix(cuts=[100])
        result = IngestSession(H, "x").run(paper_stream(total_entries=1000, nbatches=2, seed=0))
        row = result.as_row()
        assert row["system"] == "x"
        assert row["total_updates"] == 1000

    def test_works_with_baseline_without_stats(self):
        from repro.baselines import FlatGraphBLASIngestor

        result = IngestSession(FlatGraphBLASIngestor(), "flat").run(
            paper_stream(total_entries=1000, nbatches=2, seed=0)
        )
        assert result.metadata == {}
        assert result.total_updates == 1000
