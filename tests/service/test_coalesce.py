"""Property tests for the gateway's batch coalescer.

The coalescer sits between many small per-client batches and the router's
large-batch sweet spot, so its correctness argument is exactly its three
documented invariants — order, bound, single combiner — plus the segment
bookkeeping the gateway's acknowledgement protocol depends on.  Hypothesis
drives randomized client interleavings (mixed batch sizes, operators, and
value kinds) and the tests reconstruct each client's stream from the emitted
batches to prove nothing was reordered, dropped, or duplicated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import BatchCoalescer, CoalescedBatch

# One randomized client action: who sends, how many updates, with which
# operator, and whether the values ride symbolically (all-ones), as a
# broadcast scalar, or as an explicit array.
actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),        # client
        st.integers(min_value=0, max_value=50),       # batch size
        st.sampled_from(["plus", "max", "min"]),      # operator
        st.sampled_from(["ones", "scalar", "array"]),  # value kind
    ),
    max_size=40,
)


def run_actions(coalescer, acts, seed=0):
    """Feed randomized actions; return (emitted batches, per-client truth)."""
    rng = np.random.default_rng(seed)
    emitted = []
    truth = {}  # client -> list of (row, col, value, op) in arrival order
    for client, n, op, kind in acts:
        rows = rng.integers(0, 1000, size=n, dtype=np.int64)
        cols = rng.integers(0, 1000, size=n, dtype=np.int64)
        if kind == "ones":
            values = 1
            vals = np.ones(n)
        elif kind == "scalar":
            values = 3.0
            vals = np.full(n, 3.0)
        else:
            vals = rng.integers(1, 10, size=n).astype(np.float64)
            values = vals
        truth.setdefault(client, []).extend(
            zip(rows.tolist(), cols.tolist(), vals.tolist(), [op] * n)
        )
        emitted.extend(coalescer.add(client, rows, cols, values, op=op))
    tail = coalescer.flush()
    if tail is not None:
        emitted.append(tail)
    return emitted, truth


def replay(emitted):
    """Reconstruct each client's update stream from batch segments."""
    streams = {}
    for batch in emitted:
        vals = (
            np.ones(batch.size)
            if np.isscalar(batch.values)
            else np.asarray(batch.values, dtype=np.float64)
        )
        offset = 0
        for client, count in batch.segments:
            sl = slice(offset, offset + count)
            streams.setdefault(client, []).extend(
                zip(
                    batch.rows[sl].tolist(),
                    batch.cols[sl].tolist(),
                    vals[sl].tolist(),
                    [batch.op] * count,
                )
            )
            offset += count
        assert offset == batch.size, "segments must tile the batch exactly"
    return streams


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(acts=actions, max_updates=st.integers(min_value=1, max_value=64))
    def test_per_client_order_preserved(self, acts, max_updates):
        """Replaying emitted segments reproduces every client's exact stream."""
        emitted, truth = run_actions(BatchCoalescer(max_updates), acts)
        streams = replay(emitted)
        for client, expect in truth.items():
            assert streams.get(client, []) == expect
        for client in streams:
            assert client in truth or not streams[client]

    @settings(max_examples=60, deadline=None)
    @given(acts=actions, max_updates=st.integers(min_value=1, max_value=64))
    def test_batches_bounded(self, acts, max_updates):
        """No emitted batch exceeds max_updates; the buffer stays below it."""
        coalescer = BatchCoalescer(max_updates)
        rng = np.random.default_rng(0)
        for client, n, op, _kind in acts:
            rows = rng.integers(0, 1000, size=n, dtype=np.int64)
            for batch in coalescer.add(client, rows, rows, 1, op=op):
                assert 0 < batch.size <= max_updates
            assert coalescer.pending_updates < max_updates
        tail = coalescer.flush()
        if tail is not None:
            assert 0 < tail.size < max_updates
        assert coalescer.pending_updates == 0

    @settings(max_examples=60, deadline=None)
    @given(acts=actions, max_updates=st.integers(min_value=1, max_value=64))
    def test_single_combiner_per_batch(self, acts, max_updates):
        """A batch never mixes operators; switches flush the old op first."""
        emitted, truth = run_actions(BatchCoalescer(max_updates), acts)
        streams = replay(emitted)
        for client, updates in streams.items():
            # Each replayed update carries the op of its emitted batch; if
            # batches mixed ops the replay would disagree with the truth.
            assert [u[3] for u in updates] == [u[3] for u in truth[client]]
        for batch in emitted:
            assert isinstance(batch, CoalescedBatch)
            assert batch.op in ("plus", "max", "min")


class TestFairness:
    @settings(max_examples=50, deadline=None)
    @given(
        max_updates=st.integers(min_value=4, max_value=256),
        nhot=st.integers(min_value=1, max_value=4),
        skew=st.integers(min_value=10, max_value=100),
    )
    def test_hot_clients_cannot_starve_slow_client(self, max_updates, nhot, skew):
        """A 1:``skew`` rate skew still drains the slow client promptly.

        Emission round-robins across clients, one chunk (or window remainder)
        per turn, and a served client yields the rotation head — so a slow
        client with one pending update is served within ``nhot + 1`` emitted
        windows no matter how much the hot clients keep queueing.  (The old
        arrival-order emission had no such bound: hot clients refilling the
        buffer faster than it drained starved the slow chunk indefinitely.)
        """
        c = BatchCoalescer(max_updates)
        rng = np.random.default_rng(3)
        hot = [f"hot{i}" for i in range(nhot)]
        # Build a hot backlog first so the slow client lands behind it.
        for name in hot:
            rows = rng.integers(0, 1000, size=skew, dtype=np.int64)
            c.add(name, rows, rows, 1)
        windows = 0
        served = False

        def scan(batches):
            nonlocal windows, served
            for batch in batches:
                if not served:
                    windows += 1
                    served = any(cl == "slow" for cl, _ in batch.segments)

        scan(c.add("slow", [7], [7], 1))
        # Hot clients keep producing skew updates for the slow client's one.
        for _ in range(400):
            if served or windows > nhot + 1:
                break
            for name in hot:
                rows = rng.integers(0, 1000, size=skew, dtype=np.int64)
                scan(c.add(name, rows, rows, 1))
        assert served, "slow client never served"
        assert windows <= nhot + 1, (
            f"slow client starved for {windows} windows "
            f"(bound is nhot + 1 = {nhot + 1})"
        )


class TestKeys:
    def test_keys_propagate_when_all_chunks_carry_them(self):
        c = BatchCoalescer(8)
        c.add("a", [1, 2, 3], [4, 5, 6], 1, keys=np.array([10, 11, 12], dtype=np.uint64))
        out = c.add("b", np.arange(5), np.arange(5), 1, keys=np.arange(20, 25, dtype=np.uint64))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].keys, [10, 11, 12, 20, 21, 22, 23, 24])
        assert out[0].keys.dtype == np.uint64

    def test_keys_dropped_when_any_chunk_lacks_them(self):
        """A keyless chunk (a COO-frame client) poisons only its window."""
        c = BatchCoalescer(8)
        c.add("a", [1, 2, 3], [4, 5, 6], 1, keys=np.array([10, 11, 12], dtype=np.uint64))
        out = c.add("b", np.arange(5), np.arange(5), 1)
        assert len(out) == 1 and out[0].keys is None

    def test_keys_split_with_their_updates(self):
        """An oversized keyed batch keeps keys aligned across the split."""
        c = BatchCoalescer(10)
        keys = np.arange(100, 125, dtype=np.uint64)
        out = c.add("a", np.arange(25), np.arange(25), 1, keys=keys)
        tail = c.flush()
        replayed = np.concatenate([b.keys for b in out] + [tail.keys])
        np.testing.assert_array_equal(replayed, keys)

    def test_keys_length_mismatch_rejected(self):
        c = BatchCoalescer(8)
        with pytest.raises(ValueError):
            c.add("a", [1, 2], [3, 4], 1, keys=np.array([9], dtype=np.uint64))


class TestUnit:
    def test_all_ones_stays_symbolic(self):
        """All-ones chunks coalesce to scalar values=1 (key-only wire)."""
        c = BatchCoalescer(8)
        out = c.add("a", [1, 2, 3], [4, 5, 6], 1)
        assert out == []
        out = c.add("b", np.arange(5), np.arange(5), 1)
        assert len(out) == 1 and out[0].values == 1
        assert out[0].segments == [("a", 3), ("b", 5)]

    def test_mixed_values_materialize_ones(self):
        """A symbolic chunk merged with an array chunk expands to ones."""
        c = BatchCoalescer(4)
        c.add("a", [1, 2], [1, 2], 1)
        out = c.add("b", [3, 4], [3, 4], np.array([7.0, 8.0]))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].values, [1.0, 1.0, 7.0, 8.0])

    def test_oversized_batch_splits(self):
        """One incoming batch larger than the bound peels into several."""
        c = BatchCoalescer(10)
        out = c.add("a", np.arange(25), np.arange(25), 1)
        assert [b.size for b in out] == [10, 10]
        assert c.pending_updates == 5
        tail = c.flush()
        assert tail.size == 5
        replayed = np.concatenate([b.rows for b in out] + [tail.rows])
        np.testing.assert_array_equal(replayed, np.arange(25))

    def test_op_switch_flushes(self):
        """Changing operator emits the old buffer before accepting new."""
        c = BatchCoalescer(100)
        c.add("a", [1], [1], 1, op="plus")
        out = c.add("a", [2], [2], 1, op="max")
        assert len(out) == 1 and out[0].op == "plus" and out[0].size == 1
        assert c.pending_op == "max"
        assert c.flush().op == "max"

    def test_scalar_broadcast(self):
        """A non-one scalar broadcasts to a per-update value array."""
        c = BatchCoalescer(100)
        c.add("a", [1, 2], [3, 4], 5.0)
        batch = c.flush()
        np.testing.assert_array_equal(batch.values, [5.0, 5.0])

    def test_length_mismatch_rejected(self):
        c = BatchCoalescer(100)
        with pytest.raises(ValueError):
            c.add("a", [1, 2], [3], 1)
        with pytest.raises(ValueError):
            c.add("a", [1, 2], [3, 4], np.array([1.0]))

    def test_empty_add_is_noop(self):
        c = BatchCoalescer(4)
        assert c.add("a", [], [], 1) == []
        assert c.pending_updates == 0 and c.pending_op is None
        assert c.flush() is None
