"""Tests for update statistics."""

import pytest

from repro.core import UpdateStats


class TestCounters:
    def test_initial_state(self):
        s = UpdateStats(3)
        assert s.total_updates == 0
        assert s.element_writes == [0, 0, 0]
        assert s.cascades == [0, 0, 0]
        assert s.fast_memory_fraction == 1.0
        assert s.slow_memory_writes == 0

    def test_record_update(self):
        s = UpdateStats(2)
        s.record_update(100)
        s.record_update(50)
        assert s.total_updates == 150
        assert s.update_calls == 2
        assert s.element_writes[0] == 150

    def test_record_cascade(self):
        s = UpdateStats(3)
        s.record_cascade(0, 40)
        s.record_cascade(1, 400)
        assert s.cascades == [1, 1, 0]
        assert s.element_writes == [0, 40, 400]

    def test_cascade_from_last_level_does_not_index_error(self):
        s = UpdateStats(2)
        s.record_cascade(1, 10)
        assert s.cascades == [0, 1]

    def test_record_layer_size_high_water_mark(self):
        s = UpdateStats(2)
        s.record_layer_size(0, 10)
        s.record_layer_size(0, 5)
        s.record_layer_size(0, 20)
        assert s.max_layer_nvals[0] == 20

    def test_fast_memory_fraction(self):
        s = UpdateStats(2)
        s.element_writes = [90, 10]
        assert s.fast_memory_fraction == pytest.approx(0.9)
        assert s.slow_memory_writes == 10

    def test_reset(self):
        s = UpdateStats(2)
        s.record_update(10)
        s.record_cascade(0, 10)
        s.reset()
        assert s.total_updates == 0
        assert s.element_writes == [0, 0]


class TestExport:
    def test_as_dict(self):
        s = UpdateStats(2)
        s.record_update(5)
        d = s.as_dict()
        assert d["total_updates"] == 5
        assert d["nlevels"] == 2
        assert "fast_memory_fraction" in d

    def test_counters_hold_no_clock(self):
        # Rates are timed by IngestSession and the shard workers, not here.
        s = UpdateStats(2)
        for name in ("elapsed_seconds", "updates_per_second", "merge"):
            assert not hasattr(s, name)
        assert not {"elapsed_seconds", "updates_per_second"} & set(s.as_dict())
