"""Wire conformance suite: process-backed shards must be bit-identical.

One battery runs over the in-process mode and both connection modes of the
process wire — ``"local"`` (forked over a ``socketpair``) and ``"agent"``
(dialled :class:`~repro.distributed.NodeAgent`, the configuration the
benchmark's sharded workload serves) — asserting that a
:class:`~repro.distributed.ShardedHierarchicalMatrix` fed a stream
``materialize``s, ``get``s, and reduces bit-identically to a flat
:class:`~repro.core.HierarchicalMatrix` fed the same stream.  Hypothesis
drives shard counts, partitions, batch shapes, and both coordinate engines,
so the guarantee that made the sharded engine shippable in PR 2 is enforced
on the frames every process-backed shard receives, for every value type the
GraphBLAS layer defines.  The mode name is embedded in every test id.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalMatrix
from repro.distributed import (
    RemoteWorkerHandle,
    ShardedHierarchicalMatrix,
    ShardWorkerPool,
    SocketTransport,
)
from repro.graphblas import coords
from repro.graphblas.types import BUILTIN_TYPES, lookup_dtype

from .conftest import PROCESS_MODES, agent_nodes, deadline, mode_kwargs

CUTS = [500, 5_000]

#: Modes of the framing and bit-identity batteries.
MODE_IDS = ["inproc", *PROCESS_MODES]


def mode_param():
    return pytest.mark.parametrize("mode", MODE_IDS)


@contextlib.contextmanager
def engine_context(engine: str):
    """Run under the packed or the lexsort coordinate engine.

    Entered *before* pools are created: forked workers inherit the toggle, so
    process-backed shards genuinely run the fallback engine too (shard
    routing is toggle-independent by construction).
    """
    if engine == "lexsort":
        with coords.packing_disabled():
            yield
    else:
        yield


def flat_reference(batches, nrows=2 ** 32, ncols=2 ** 32):
    flat = HierarchicalMatrix(nrows, ncols, cuts=CUTS)
    for rows, cols, vals in batches:
        flat.update(rows, cols, vals)
    return flat


def run_battery(mode, batches, *, nshards, partition, nrows=2 ** 32, ncols=2 ** 32):
    """Feed ``batches`` to flat + sharded and assert global bit-identity."""
    flat = flat_reference(batches, nrows, ncols)
    flat_matrix = flat.materialize()
    with ShardedHierarchicalMatrix(
        nshards,
        nrows,
        ncols,
        cuts=CUTS,
        partition=partition,
        **mode_kwargs(mode),
    ) as sharded:
        for rows, cols, vals in batches:
            sharded.update(rows, cols, vals)
        # materialize: the full global result, merged across shards.
        assert sharded.materialize().isequal(flat_matrix)
        # get: point reads route to the owning shard.
        seen = set()
        for rows, cols, _ in batches[:2]:
            for r, c in list(zip(rows.tolist(), cols.tolist()))[:10]:
                if (r, c) in seen:
                    continue
                seen.add((r, c))
                assert sharded.get(r, c) == flat.get(r, c)
        assert sharded.get(nrows - 1, ncols - 1, default=-1.0) == flat.get(
            nrows - 1, ncols - 1, -1.0
        )
        # reductions: monoid merges across shards.
        assert sharded.reduce_rowwise("plus").isequal(flat_matrix.reduce_rowwise("plus"))
        assert sharded.reduce_columnwise("plus").isequal(
            flat_matrix.reduce_columnwise("plus")
        )
        # incremental reductions: the tracker path must agree with the
        # materialize path (and therefore with the flat reference).
        inc = sharded.incremental
        if inc.supported and inc.fan_supported:
            assert inc.nnz() == flat_matrix.nvals
            assert inc.total() == pytest.approx(float(flat_matrix.reduce_scalar("plus")))
            assert inc.row_traffic().isequal(flat_matrix.reduce_rowwise("plus"))


def batches_strategy():
    """Random small streams: duplicate-heavy coords, exactly-summable values."""

    @st.composite
    def _batches(draw):
        nbatches = draw(st.integers(1, 5))
        space = draw(st.sampled_from([64, 2 ** 10, 2 ** 18]))
        seed = draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(nbatches):
            n = draw(st.integers(1, 80))
            rows = rng.integers(0, space, n, dtype=np.uint64)
            cols = rng.integers(0, space, n, dtype=np.uint64)
            vals = rng.integers(1, 8, n).astype(np.float64)
            out.append((rows, cols, vals))
        return out

    return _batches()


def run_rebalance_battery(
    mode,
    batches,
    *,
    nshards,
    partition,
    rebalance_after,
    nrows=2 ** 32,
    ncols=2 ** 32,
):
    """Feed ``batches`` with live rebalances interleaved mid-stream.

    ``rebalance_after`` holds batch indices; after routing batch ``i`` a
    ``rebalance()`` is attempted (auto policy).  The sharded matrix must end
    bit-identical to the flat reference on every surface the plain battery
    checks, and the map epoch must count exactly the completed migrations.
    """
    flat = flat_reference(batches, nrows, ncols)
    flat_matrix = flat.materialize()
    with ShardedHierarchicalMatrix(
        nshards,
        nrows,
        ncols,
        cuts=CUTS,
        partition=partition,
        **mode_kwargs(mode),
    ) as sharded:
        epoch0 = sharded.map_epoch
        migrations = 0
        for i, (rows, cols, vals) in enumerate(batches):
            sharded.update(rows, cols, vals)
            if i in rebalance_after and sharded.nshards > 1:
                report = sharded.rebalance()
                if report is not None:
                    migrations += 1
                    assert report.moved > 0
                    assert report.epoch == epoch0 + migrations
        assert sharded.map_epoch == epoch0 + migrations
        assert sharded.materialize().isequal(flat_matrix)
        seen = set()
        for rows, cols, _ in batches[:2]:
            for r, c in list(zip(rows.tolist(), cols.tolist()))[:10]:
                if (r, c) in seen:
                    continue
                seen.add((r, c))
                assert sharded.get(r, c) == flat.get(r, c)
        assert sharded.reduce_rowwise("plus").isequal(flat_matrix.reduce_rowwise("plus"))
        assert sharded.reduce_columnwise("plus").isequal(
            flat_matrix.reduce_columnwise("plus")
        )
        inc = sharded.incremental
        if inc.supported and inc.fan_supported:
            assert inc.nnz() == flat_matrix.nvals
            assert inc.total() == pytest.approx(float(flat_matrix.reduce_scalar("plus")))
            assert inc.row_traffic().isequal(flat_matrix.reduce_rowwise("plus"))
            assert inc.col_traffic().isequal(flat_matrix.reduce_columnwise("plus"))
        return migrations


class TestConformanceBattery:
    """The hypothesis-driven battery, one process-spawning config per example."""

    @mode_param()
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        batches=batches_strategy(),
        nshards=st.integers(1, 4),
        partition=st.sampled_from(["hash", "range"]),
        engine=st.sampled_from(["packed", "lexsort"]),
    )
    def test_bit_identical_to_flat(self, mode, batches, nshards, partition, engine):
        with engine_context(engine):
            run_battery(mode, batches, nshards=nshards, partition=partition)


class TestConformanceGrid:
    """A deterministic pinned grid on top of the randomized battery."""

    @mode_param()
    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("engine", ["packed", "lexsort"])
    def test_fixed_stream_all_partitions_and_engines(self, mode, partition, engine):
        rng = np.random.default_rng(1234)
        batches = [
            (
                rng.integers(0, 2 ** 18, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 18, 400, dtype=np.uint64),
                rng.integers(1, 8, 400).astype(np.float64),
            )
            for _ in range(5)
        ]
        with engine_context(engine):
            run_battery(mode, batches, nshards=3, partition=partition)

    @mode_param()
    def test_single_shard_degenerate(self, mode):
        rng = np.random.default_rng(7)
        batches = [
            (
                rng.integers(0, 256, 50, dtype=np.uint64),
                rng.integers(0, 256, 50, dtype=np.uint64),
                rng.integers(1, 5, 50).astype(np.float64),
            )
        ]
        run_battery(mode, batches, nshards=1, partition="hash")

    @mode_param()
    def test_scalar_broadcast_and_odd_batches(self, mode):
        """Scalar values, 1-element batches, and duplicate coordinates."""
        with ShardedHierarchicalMatrix(2, cuts=CUTS, **mode_kwargs(mode)) as sharded:
            sharded.update(5, 6)
            sharded.update([5, 5, 9], [6, 6, 1], 2.0)
            sharded.update(np.array([9]), np.array([1]), np.array([0.5]))
            assert sharded.get(5, 6) == 5.0
            assert sharded.get(9, 1) == 2.5
            assert sharded.materialize().nvals == 2

    @mode_param()
    def test_ipv6_shape_served_via_fallback(self, mode):
        """Full 64-bit shapes work in every mode (``F_DATA_COO`` ingest frames)."""
        rng = np.random.default_rng(11)
        batches = [
            (
                rng.integers(0, 2 ** 63, 60, dtype=np.uint64) * np.uint64(2),
                rng.integers(0, 2 ** 63, 60, dtype=np.uint64) * np.uint64(2),
                rng.integers(1, 5, 60).astype(np.float64),
            )
            for _ in range(2)
        ]
        run_battery(
            mode, batches, nshards=2, partition="hash", nrows=2 ** 64, ncols=2 ** 64
        )


class TestRebalanceConformance:
    """Live slab migration must never be observable in results (PR 5).

    A sharded matrix that rebalances mid-stream — any schedule, either
    partition, in-process, forked or agent-hosted — must stay bit-identical to the flat
    reference on materialize/get/reductions/incremental stats, because each
    coordinate still lands on exactly one shard in stream order (migration
    commands are barrier-ordered against in-flight batches, and the new map
    epoch is published only after a slab has fully moved).
    """

    @mode_param()
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        batches=batches_strategy(),
        nshards=st.integers(2, 4),
        partition=st.sampled_from(["hash", "range"]),
        engine=st.sampled_from(["packed", "lexsort"]),
        data=st.data(),
    )
    def test_bit_identical_across_random_rebalances(
        self, mode, batches, nshards, partition, engine, data
    ):
        rebalance_after = set(
            data.draw(
                st.lists(
                    st.integers(0, len(batches) - 1), min_size=1, max_size=3
                ),
                label="rebalance_after",
            )
        )
        with engine_context(engine):
            run_rebalance_battery(
                mode,
                batches,
                nshards=nshards,
                partition=partition,
                rebalance_after=rebalance_after,
            )

    @mode_param()
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_pinned_multi_rebalance_stream(self, mode, partition):
        """Deterministic grid: several migrations over a busier stream."""
        rng = np.random.default_rng(4321)
        batches = [
            (
                rng.integers(0, 2 ** 18, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 18, 400, dtype=np.uint64),
                rng.integers(1, 8, 400).astype(np.float64),
            )
            for _ in range(6)
        ]
        migrations = run_rebalance_battery(
            mode,
            batches,
            nshards=3,
            partition=partition,
            rebalance_after={1, 3, 4},
        )
        assert migrations >= 1

    def test_repeated_rebalance_converges_in_proc(self):
        """The auto policy drives a skewed range partition toward balance."""
        rng = np.random.default_rng(99)
        # Rows < 2**12 with a 2**32-square shape: the uniform range map puts
        # every key on shard 0 — the worst case the policy must fix.
        with ShardedHierarchicalMatrix(4, cuts=CUTS, partition="range") as sharded:
            for _ in range(5):
                sharded.update(
                    rng.integers(0, 2 ** 12, 500, dtype=np.uint64),
                    rng.integers(0, 2 ** 12, 500, dtype=np.uint64),
                    np.ones(500),
                )
            assert sharded.imbalance() == pytest.approx(4.0)
            for _ in range(8):
                if sharded.rebalance(threshold=1.3) is None:
                    break
            assert sharded.imbalance() < 2.0
            assert sharded.map_epoch >= 2

    def test_rebalance_noops(self):
        """Single shard, balanced loads under threshold, empty source."""
        with ShardedHierarchicalMatrix(1, cuts=CUTS) as single:
            single.update([1, 2], [3, 4], 1.0)
            assert single.rebalance() is None
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as empty:
            assert empty.rebalance() is None
        with ShardedHierarchicalMatrix(2, cuts=CUTS, partition="hash") as sharded:
            rng = np.random.default_rng(1)
            sharded.update(
                rng.integers(0, 2 ** 20, 2_000, dtype=np.uint64),
                rng.integers(0, 2 ** 20, 2_000, dtype=np.uint64),
                np.ones(2_000),
            )
            # Hash-partitioned uniform keys are already near-even: a high
            # threshold must refuse to churn.
            assert sharded.rebalance(threshold=1.5) is None
            assert sharded.map_epoch == 0

    def test_traffic_policy_moves_weight_not_whole_shards(self):
        """Regression: by="traffic" targets are in traffic units, and the
        slab cut weighs entries by |value| in the same units — a heavily
        weighted shard must shed roughly half its excess, not its entire
        contents (which would ping-pong forever)."""
        with ShardedHierarchicalMatrix(2, cuts=CUTS, partition="range") as sharded:
            rows = np.arange(1_000, dtype=np.uint64)
            sharded.update(rows, rows, np.full(1_000, 1000.0))
            assert sharded.shard_loads("traffic") == [1_000_000.0, 0.0]
            report = sharded.rebalance(by="traffic")
            assert report is not None
            loads = sharded.shard_loads("traffic")
            # ~half the excess moved; both shards now hold real weight.
            assert 0 < loads[0] and 0 < loads[1]
            assert sharded._imbalance(loads) < 2.0
            # Converges rather than oscillating the full dataset.
            for _ in range(4):
                if sharded.rebalance(by="traffic", threshold=1.2) is None:
                    break
            assert sharded.imbalance("traffic") <= 1.2
            assert sharded.nvals == 1_000

    def test_extract_slab_picks_interval_by_weight(self):
        """Under the traffic policy the cut targets the *heaviest* owned
        interval, not the most crowded one: a few huge-value entries must
        outrank a crowd of light ones."""
        from repro.distributed.worker import ShardState

        state = ShardState(0, {"nrows": 2 ** 16, "ncols": 2 ** 16, "cuts": CUTS})
        light = np.arange(500, dtype=np.uint64)  # 500 entries, weight 1 each
        state.handle("ingest", (light, light, np.ones(500)))
        heavy = np.arange(40_000, 40_010, dtype=np.uint64)  # 10 entries, 1e6 each
        state.handle("ingest", (heavy, heavy, np.full(10, 1e6)))
        spec = state.spec
        key = lambda r: (int(r) << spec.col_bits) | int(r)
        intervals = [(0, key(20_000)), (key(20_000), 2 ** 16 << spec.col_bits)]
        reply = state.handle(
            "extract_slab",
            {
                "partition": "range",
                "intervals": intervals,
                "target": 5e6,
                "weight": "value",
            },
        )
        # The slab comes from the heavy interval and carries ~target weight.
        assert reply["lo"] >= key(20_000)
        assert 1 <= reply["count"] <= 10
        keys, _values = state.codec.decode(*reply["slab"])
        assert keys.size == reply["count"]

    def test_manual_source_dest_and_validation(self):
        from repro.graphblas.errors import InvalidValue

        with ShardedHierarchicalMatrix(3, cuts=CUTS, partition="range") as sharded:
            rng = np.random.default_rng(2)
            sharded.update(
                rng.integers(0, 2 ** 16, 1_000, dtype=np.uint64),
                rng.integers(0, 2 ** 16, 1_000, dtype=np.uint64),
                np.ones(1_000),
            )
            report = sharded.rebalance(source=0, dest=2)
            assert report is not None and (report.source, report.dest) == (0, 2)
            assert sharded.partition_map.shard_intervals(2)
            with pytest.raises(InvalidValue):
                sharded.rebalance(source=1, dest=1)
            with pytest.raises(InvalidValue):
                sharded.rebalance(fraction=0.0)
            with pytest.raises(InvalidValue):
                sharded.shard_loads(by="vibes")


def run_replicated_fault_battery(
    mode,
    batches,
    *,
    nshards,
    partition,
    replicas,
    rebalance_after,
    kill_after,
    kill_step=None,
):
    """Replicated conformance: rebalances + injected primary kills, zero loss.

    Feeds ``batches`` with migrations attempted after the ``rebalance_after``
    indices, the acting primary of shard ``i % nshards`` SIGKILLed after each
    ``kill_after`` index, and (optionally) a one-shot primary kill armed to
    fire at the dispatch of migration step ``kill_step`` — a kill *during*
    the migration.  The matrix must end bit-identical to the flat reference
    with its full failure budget restored, and the test never calls
    ``resync_replicas()``: all repair is done by the migration's own budget
    check and by driving the :class:`~repro.service.AutoRejoiner` supervisor.
    """
    from repro.service import AutoRejoiner

    flat = flat_reference(batches)
    flat_matrix = flat.materialize()
    with ShardedHierarchicalMatrix(
        nshards,
        cuts=CUTS,
        partition=partition,
        **mode_kwargs(mode, replicas=replicas),
    ) as sharded:
        pool = sharded._pool
        rejoiner = AutoRejoiner(sharded, interval=1.0, clock=lambda: 0.0)
        epoch0 = sharded.map_epoch
        migrations = 0
        original_submit = pool.submit
        armed = {"step": kill_step}

        def killing_submit(worker, cmd, payload=None):
            if armed["step"] is not None and cmd == armed["step"]:
                armed["step"] = None
                slot = pool.primary_slot(worker)
                pool.processes[slot].kill()
                pool.processes[slot].join(timeout=10)
            original_submit(worker, cmd, payload)

        pool.submit = killing_submit
        try:
            for i, (rows, cols, vals) in enumerate(batches):
                sharded.update(rows, cols, vals)
                if i in kill_after:
                    victim = pool.primary_slot(i % nshards)
                    pool.processes[victim].kill()
                    pool.processes[victim].join(timeout=10)
                    # Surface the death (promote) and let the supervisor
                    # restore the budget before the stream continues, so
                    # every later fault again has a full mirror set to spend.
                    assert sharded.nvals >= 0
                    rejoiner.step(now=float(i))
                    assert sharded.missing_replicas() == 0
                if i in rebalance_after and sharded.nshards > 1:
                    report = sharded.rebalance()
                    if report is not None:
                        migrations += 1
        finally:
            pool.submit = original_submit
        # materialize first: it surfaces any still-undetected death, then the
        # supervisor's next step repairs whatever that failover spent.
        assert sharded.materialize().isequal(flat_matrix)
        rejoiner.step(now=float(len(batches)))
        assert sharded.missing_replicas() == 0
        assert sharded.map_epoch >= epoch0 + migrations
        assert sharded.nvals == flat_matrix.nvals
        assert sharded.reduce_rowwise("plus").isequal(flat_matrix.reduce_rowwise("plus"))
        assert sharded.reduce_columnwise("plus").isequal(
            flat_matrix.reduce_columnwise("plus")
        )
        return migrations


class TestReplicatedRebalanceConformance:
    """The rebalance conformance contract, re-proved at ``replicas=2``.

    Mirrored-mutation migrations (every ``extract_slab`` / ``install_slab``
    / ``discard_slab`` leg applied to primary *and* replicas, barrier-
    ordered) mean a replicated matrix under randomized mid-stream rebalance
    schedules — with primaries SIGKILLed between batches and even at the
    dispatch of each migration step — still ends bit-identical to the flat
    reference, with every shard holding its full mirror budget and no manual
    ``resync_replicas()`` anywhere.
    """

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        batches=batches_strategy(),
        nshards=st.integers(2, 3),
        partition=st.sampled_from(["hash", "range"]),
        data=st.data(),
    )
    def test_bit_identical_with_replicas_and_kills(
        self, mode, batches, nshards, partition, data
    ):
        rebalance_after = set(
            data.draw(
                st.lists(st.integers(0, len(batches) - 1), min_size=1, max_size=2),
                label="rebalance_after",
            )
        )
        kill_after = set(
            data.draw(
                st.lists(st.integers(0, len(batches) - 1), max_size=2),
                label="kill_after",
            )
        )
        kill_step = data.draw(
            st.sampled_from([None, "extract_slab", "install_slab", "discard_slab"]),
            label="kill_step",
        )
        run_replicated_fault_battery(
            mode,
            batches,
            nshards=nshards,
            partition=partition,
            replicas=2,
            rebalance_after=rebalance_after,
            kill_after=kill_after,
            kill_step=kill_step,
        )

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    @pytest.mark.parametrize(
        "kill_step", ["extract_slab", "install_slab", "discard_slab"]
    )
    def test_pinned_mid_step_kill_grid(self, mode, kill_step):
        """Deterministic grid: a busier skewed stream, a forced migration,
        and a primary killed at the dispatch of each migration step."""
        rng = np.random.default_rng(2718)
        batches = [
            (
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                rng.integers(1, 8, 400).astype(np.float64),
            )
            for _ in range(5)
        ]
        migrations = run_replicated_fault_battery(
            mode,
            batches,
            nshards=2,
            partition="range",
            replicas=2,
            rebalance_after={2},
            kill_after={4},
            kill_step=kill_step,
        )
        assert migrations >= 1


class TestKeyOnlyFrames:
    """All-ones batches ship without value payloads, bit-identically."""

    @mode_param()
    def test_all_ones_streams_bit_identical(self, mode):
        """Scalar-1 defaults and all-ones arrays match the flat reference."""
        rng = np.random.default_rng(17)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with ShardedHierarchicalMatrix(2, cuts=CUTS, **mode_kwargs(mode)) as sharded:
            for i in range(3):
                rows = rng.integers(0, 2 ** 16, 200, dtype=np.uint64)
                cols = rng.integers(0, 2 ** 16, 200, dtype=np.uint64)
                for values in (1, np.ones(200), 2.5):
                    flat.update(rows, cols, values)
                    sharded.update(rows, cols, values)
            assert sharded.materialize().isequal(flat.materialize())

    def test_ones_batches_take_the_key_only_wire(self):
        """The wire actually elides the value payload for ones."""
        rng = np.random.default_rng(23)
        rows = rng.integers(0, 2 ** 16, 100, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 16, 100, dtype=np.uint64)
        with ShardedHierarchicalMatrix(1, cuts=CUTS, use_processes=True) as sharded:
            transport = sharded._pool._transport
            sharded.update(rows, cols)  # default scalar 1
            assert transport.key_only_batches == 1
            sharded.update(rows, cols, np.ones(100))  # all-ones array
            assert transport.key_only_batches == 2
            sharded.update(rows, cols, 2.0)  # not ones: full frame
            sharded.update(rows, cols, np.full(100, 3.0))
            assert transport.key_only_batches == 2
            assert sharded.get(int(rows[0]), int(cols[0])) is not None

    def test_integer_dtype_ones_elide_too(self):
        """The ones test is dtype-aware: int64 shards elide exactly as fp64."""
        rows = np.arange(50, dtype=np.uint64)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, "int64", cuts=CUTS)
        with ShardedHierarchicalMatrix(
            2, dtype="int64", cuts=CUTS, use_processes=True
        ) as sharded:
            transport = sharded._pool._transport
            flat.update(rows, rows, 1)
            sharded.update(rows, rows, 1)
            flat.update(rows, rows, np.ones(50, dtype=np.int64))
            sharded.update(rows, rows, np.ones(50, dtype=np.int64))
            # 2 ones-updates x (however many of the 2 shards each batch hit)
            assert transport.key_only_batches >= 2
            assert sharded.materialize().isequal(flat.materialize())


def typed_values(rng, np_type, n):
    """Random values spanning ``np_type``: the full range for integers (so
    duplicate coordinates wrap around), exactly summable halves for floats
    (so accumulation order cannot matter), both truth values for bool."""
    if np_type == np.bool_:
        return rng.integers(0, 2, n).astype(np.bool_)
    if np.issubdtype(np_type, np.integer):
        info = np.iinfo(np_type)
        return rng.integers(info.min, info.max, n, dtype=np_type, endpoint=True)
    return (rng.integers(-64, 64, n) * 0.5).astype(np_type)


class TestValueTypes:
    """Every GraphBLAS value type crosses the wire bit-identically.

    8-byte types travel as their own bits and narrower ones zero-padded
    (:class:`ValueCodec`), all-ones batches key-only; the worker decodes each
    back into the shard's type, so a sharded matrix of any type must match
    the flat reference entry for entry — integer wrap-around included.
    """

    @mode_param()
    @pytest.mark.parametrize("dtype", [t.name for t in BUILTIN_TYPES])
    def test_every_value_type_bit_identical(self, mode, dtype):
        np_type = lookup_dtype(dtype).np_type
        rng = np.random.default_rng(29)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, dtype, cuts=CUTS)
        with ShardedHierarchicalMatrix(
            2, dtype=dtype, cuts=CUTS, **mode_kwargs(mode)
        ) as sharded:
            for _ in range(3):
                rows = rng.integers(0, 2 ** 10, 300, dtype=np.uint64)
                cols = rng.integers(0, 2 ** 10, 300, dtype=np.uint64)
                for values in (typed_values(rng, np_type, 300), 1, np_type.type(2)):
                    flat.update(rows, cols, values)
                    sharded.update(rows, cols, values)
            expected = flat.materialize()
            got = sharded.materialize()
            assert got.dtype is expected.dtype is lookup_dtype(dtype)
            assert got.isequal(expected)
            if mode != "inproc":
                # Each scalar-1 update reached both shards as key-only frames.
                assert sharded._pool._transport.key_only_batches >= 6


class TestWireLifecycle:
    """The per-slot surface of :class:`SocketTransport` in both connection
    modes: worker handles, respawn, close, the silent-control contract and
    the backpressure watermark — driven on the transport itself, below the
    pool."""

    @staticmethod
    def _transport(mode, nworkers=2):
        nodes = agent_nodes() if mode == "agent" else None
        return SocketTransport(nworkers, {"cuts": CUTS}, nodes=nodes)

    @staticmethod
    def _stats(transport, slot):
        transport.send_control(slot, "stats")
        with deadline(30):
            status, stats = transport.recv_reply(slot)
        assert status == "ok"
        return stats

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_processes_are_live_worker_handles(self, mode):
        import multiprocessing.process

        transport = self._transport(mode)
        try:
            handles = transport.processes
            assert len(handles) == 2
            expected = (
                multiprocessing.process.BaseProcess
                if mode == "local"
                else RemoteWorkerHandle
            )
            assert all(isinstance(h, expected) for h in handles)
            assert all(h.is_alive() for h in handles)
            pids = {h.pid for h in handles}
            assert len(pids) == 2 and os.getpid() not in pids
            assert all(transport.worker_alive(slot) for slot in range(2))
        finally:
            transport.close()

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_respawn_replaces_the_worker(self, mode):
        """A respawned slot is a new, empty worker; the old one exits and the
        sibling slot keeps its state."""
        transport = self._transport(mode)
        try:
            rows = np.arange(40, dtype=np.uint64)
            for slot in range(2):
                transport.send_ingest(slot, rows, rows, np.full(40, 2.0))
            old = transport.processes[0]
            transport.respawn(0)
            new = transport.processes[0]
            assert new.pid != old.pid
            old.join(timeout=10)
            assert not old.is_alive()
            assert self._stats(transport, 0)["updates"] == 0
            assert self._stats(transport, 1)["updates"] == 40
        finally:
            transport.close()

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_close_is_idempotent_and_ends_every_worker(self, mode):
        transport = self._transport(mode, nworkers=3)
        handles = transport.processes
        transport.close()
        for handle in handles:
            handle.join(timeout=10)
            assert not handle.is_alive()
        transport.close()

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_control_to_a_dead_worker_is_silent(self, mode):
        """Sending a control to a dead worker never raises (a TCP peer's
        reset can take a send or two to arrive, so several go out); the
        death surfaces as a ``"died"`` reply naming the worker's pid."""
        transport = self._transport(mode)
        try:
            victim = transport.processes[0]
            victim.kill()
            victim.join(timeout=10)
            for _ in range(10):
                transport.send_control(0, "stats")
            with deadline(30):
                status, message = transport.recv_reply(0)
            assert status == "died"
            assert str(victim.pid) in message
            assert not transport.worker_alive(0)
            assert self._stats(transport, 1)["updates"] == 0
        finally:
            transport.close()

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_drained_wire_reads_zero(self, mode):
        """Both socket families measure their queue: a drained wire reads a
        number (0.0), not "no signal"."""
        transport = self._transport(mode)
        try:
            rows = np.arange(500, dtype=np.uint64)
            transport.send_ingest(0, rows, rows, np.full(500, 3.0))
            assert self._stats(transport, 0)["updates"] == 500
            assert transport.ingest_watermark(0) == 0.0
            assert transport.ingest_watermark(1) == 0.0
        finally:
            transport.close()

    def test_stalled_worker_raises_the_watermark(self):
        """Bytes a stopped worker has not read show up as wire pressure,
        and drain back to zero once it resumes."""
        import signal
        import socket
        import time

        transport = self._transport("local", nworkers=1)
        pid = transport.processes[0].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            with deadline(30):
                while _proc_state(pid) != "T":
                    time.sleep(0.001)
            sndbuf = transport._conns[0].getsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF
            )
            # A quarter of the send buffer: enough to read as pressure,
            # never enough to block the sender on the stopped worker.
            n = 1_000
            frames = max(sndbuf // 4 // (16 * n), 1)
            rows = np.arange(n, dtype=np.uint64)
            for b in range(frames):
                transport.send_ingest(0, rows, rows + b, np.full(n, 2.0))
            assert 0.1 <= transport.ingest_watermark(0) <= 1.0
        finally:
            os.kill(pid, signal.SIGCONT)
        try:
            assert self._stats(transport, 0)["updates"] == frames * n
            assert transport.ingest_watermark(0) == 0.0
        finally:
            transport.close()


def _proc_state(pid):
    """The one-letter scheduler state of ``pid`` from ``/proc`` ("T" when
    stopped)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return fh.read().rsplit(b")", 1)[-1].split()[0].decode()


class TestWireSelection:
    def test_wire_in_force(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as s:
            assert s.transport == "inproc"
        for mode in PROCESS_MODES:
            with ShardedHierarchicalMatrix(2, cuts=CUTS, **mode_kwargs(mode)) as s:
                assert s.transport == "socket"
        # The one legal explicit value, as the bench passes it.
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, transport="socket", **mode_kwargs("agent")
        ) as s:
            assert s.transport == "socket"

    @pytest.mark.parametrize("name", ["queue", "carrier-pigeon"])
    def test_removed_wires_rejected(self, name):
        with pytest.raises(ValueError, match="removed"):
            ShardedHierarchicalMatrix(2, cuts=CUTS, use_processes=True, transport=name)

    def test_local_workers_need_fork(self, monkeypatch):
        """Without os.fork, local process-backed shards fail at construction;
        the in-process default keeps working."""
        monkeypatch.delattr(os, "fork")
        with pytest.raises(RuntimeError, match="os.fork"):
            ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, use_processes=True)
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as s:
            s.update([1], [2], 1.0)
            assert s.get(1, 2) == 1.0


class TestRoutedPackCount:
    """A routed batch is packed exactly once, by the router, in every mode.

    The keys travel into the in-process shards and over both connection
    modes as they are, so the parent's pack counter moves by one per routed
    batch (for in-process shards that count includes the shards themselves)
    — and not at all when the caller already holds the keys, as the gateway
    does.
    """

    @pytest.mark.parametrize("mode", ["inproc", *PROCESS_MODES])
    @pytest.mark.parametrize("nshards", [1, 3])
    def test_one_pack_per_routed_batch(self, mode, nshards):
        rng = np.random.default_rng(5)
        batches = [
            (
                rng.integers(0, 2 ** 20, 300, dtype=np.uint64),
                rng.integers(0, 2 ** 20, 300, dtype=np.uint64),
                1 if i % 2 else rng.integers(1, 8, 300).astype(np.float64),
            )
            for i in range(6)
        ]
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with ShardedHierarchicalMatrix(nshards, cuts=CUTS, **mode_kwargs(mode)) as sharded:
            before = coords.pack_calls()
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            sharded.finalize()
            assert coords.pack_calls() - before == len(batches)
            keyed = [
                (rows, cols, vals, coords.pack(rows, cols, sharded.router.spec))
                for rows, cols, vals in batches
            ]
            before = coords.pack_calls()
            for rows, cols, vals, keys in keyed:
                sharded.update(rows, cols, vals, keys=keys)
            sharded.finalize()
            assert coords.pack_calls() == before
            for rows, cols, vals in batches * 2:
                flat.update(rows, cols, vals)
            assert sharded.materialize().isequal(flat.materialize())


class TestBarrierSemantics:
    """A reply-bearing command is a barrier for every earlier ingest."""

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_reads_observe_all_prior_batches(self, mode):
        with ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode)) as pool:
            total = 0
            for b in range(20):
                rows = np.arange(b * 50, b * 50 + 50, dtype=np.uint64)
                pool.submit(0, "ingest", (rows, rows, np.ones(50)))
                total += 50
            stats = pool.request(0, "stats")
            assert stats["updates"] == total
            assert pool.request(0, "finalize")["total_updates"] == total

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_clear_then_reingest(self, mode):
        with ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode)) as pool:
            rows = np.arange(10, dtype=np.uint64)
            pool.submit(0, "ingest", (rows, rows, np.ones(10)))
            assert pool.request(0, "clear") is True
            pool.submit(0, "ingest", (rows, rows, np.full(10, 2.0)))
            assert pool.request(0, "get", (3, 3)) == 2.0

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_control_interleaved_with_ingest_preserves_fifo(self, mode):
        """Commands submitted *between* batches must not see later batches.

        Regression test: submit ingest A, then ``clear``, then ingest B —
        all fire-and-forget, no reply collected in between.  A wire that
        drains eagerly would apply both A and B before the clear and lose B;
        strict per-worker FIFO keeps exactly B.
        """
        with ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode)) as pool:
            rows = np.arange(10, dtype=np.uint64)
            pool.submit(0, "ingest", (rows, rows, np.ones(10)))
            pool.submit(0, "clear")
            pool.submit(0, "ingest", (rows, rows, np.full(10, 2.0)))
            pool.submit(0, "get", (3, 3))
            pool.submit(0, "stats")
            assert pool.collect(0) is True  # clear: saw A, not B
            assert pool.collect(0) == 2.0  # get: exactly batch B survived
            assert pool.collect(0)["updates"] == 10  # stats: B only

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_many_interleaved_controls_stay_ordered(self, mode):
        """A stats burst between every batch observes exact running counts."""
        with ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode)) as pool:
            for b in range(8):
                rows = np.arange(b * 20, b * 20 + 20, dtype=np.uint64)
                pool.submit(0, "ingest", (rows, rows, np.ones(20)))
                pool.submit(0, "stats")
            counts = [pool.collect(0)["updates"] for _ in range(8)]
            assert counts == [20 * (b + 1) for b in range(8)]
