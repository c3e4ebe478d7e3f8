"""Fault-injection tests: dead or crashing workers must surface, never hang.

The contract: a worker that *raises* delivers the traceback as
:class:`~repro.distributed.WorkerCrash` at the next reply and keeps serving
(pinned for in-process slots and both connection modes of the process
wire, which all run the same executor); a worker that *dies* (SIGKILL here —
the OOM-killer case) closes its end of the stream and surfaces as
:class:`~repro.distributed.WorkerDied` at the next reply (EOF) or the next
ingest push (send failure).  Every wait under test
runs inside a tight :func:`deadline` guard, so a regression fails with a
``TimeoutError`` pointing at the blocked call instead of deadlocking the
suite (the directory-wide guard in ``conftest.py`` backstops everything
else).
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import (
    ShardedHierarchicalMatrix,
    ShardWorkerPool,
    WorkerCrash,
    WorkerDied,
    spawn_local_agents,
)

from .conftest import PROCESS_MODES, deadline, mode_kwargs

CUTS = [500, 5_000]

#: In-process slots plus both connection modes of the process wire.
ALL_MODES = ["inproc", *PROCESS_MODES]


def make_pool(mode, nworkers=1, replicas=0):
    return ShardWorkerPool(
        nworkers, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode, replicas=replicas)
    )


def ingest_some(pool, worker=0, nbatches=3):
    for b in range(nbatches):
        rows = np.arange(b * 100, b * 100 + 100, dtype=np.uint64)
        pool.submit(worker, "ingest", (rows, rows + 1, np.ones(100)))


class TestKilledWorker:
    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_mid_stream_surfaces_at_next_reply(self, mode):
        with make_pool(mode) as pool:
            ingest_some(pool)
            proc = pool.processes[0]
            proc.kill()
            proc.join(timeout=10)
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    pool.request(0, "report")

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_death_is_distinguishable_from_a_raise(self, mode):
        """Death surfaces as WorkerDied; a surviving worker's raise does not.

        The failover logic keys on this distinction (it must never poll pid
        liveness — a dying worker closes its wire before its pid disappears,
        so a poll taken at crash time can still read alive and would turn a
        recoverable node death into a propagated error).
        """
        with make_pool(mode) as pool:
            with deadline(30):
                with pytest.raises(WorkerCrash) as raised:
                    pool.request(0, "reduce_incremental", "bogus_kind")
            assert not isinstance(raised.value, WorkerDied)
            # ...and the worker survived the raise (pre-replication contract).
            assert pool.request(0, "stats")["updates"] == 0
            pool.processes[0].kill()
            pool.processes[0].join(timeout=10)
            # A control sent to a dead worker is silent; the death surfaces
            # where the caller waits for the answer.
            pool.submit(0, "report")
            with deadline(30):
                with pytest.raises(WorkerDied):
                    pool.collect(0)

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_while_reply_pending_does_not_hang(self, mode):
        """Die *after* the command is submitted, while the parent waits.

        The worker is stopped before the command goes out, so the SIGKILL
        always lands before any reply is produced, whatever the timing.
        """
        with make_pool(mode) as pool:
            os.kill(pool.processes[0].pid, signal.SIGSTOP)
            pool.submit(0, "report")
            pool.processes[0].kill()
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    pool.collect(0)

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_other_workers_keep_serving(self, mode):
        with make_pool(mode, nworkers=2) as pool:
            ingest_some(pool, worker=0)
            ingest_some(pool, worker=1)
            pool.processes[0].kill()
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    pool.request(0, "stats")
                assert pool.request(1, "stats")["updates"] == 300

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_push_into_dead_worker_raises(self, mode):
        """Ingest into a dead worker fails the push; it never blocks."""
        with make_pool(mode) as pool:
            proc = pool.processes[0]
            proc.kill()
            proc.join(timeout=10)
            rows = np.arange(200, dtype=np.uint64)
            with deadline(30):
                with pytest.raises(WorkerDied):
                    # A TCP peer's reset can take one send to arrive.
                    for _ in range(100):
                        pool.submit(0, "ingest", (rows, rows, np.ones(rows.size)))

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_sharded_matrix_surfaces_crash(self, mode):
        """End to end: a killed shard fails the next global read loudly."""
        with ShardedHierarchicalMatrix(2, cuts=CUTS, **mode_kwargs(mode)) as sharded:
            rng = np.random.default_rng(5)
            sharded.update(
                rng.integers(0, 2 ** 16, 500, dtype=np.uint64),
                rng.integers(0, 2 ** 16, 500, dtype=np.uint64),
                np.ones(500),
            )
            sharded._pool.processes[0].kill()
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    sharded.materialize()


class TestRaisingWorker:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_error_delivered_and_worker_survives(self, mode):
        with make_pool(mode) as pool:
            with deadline(30):
                with pytest.raises(WorkerCrash) as excinfo:
                    pool.request(0, "reduce", ("bogus-axis", "not-an-op"))
                assert "shard worker 0 failed" in str(excinfo.value)
                # The worker survives the crash and keeps serving.
                assert pool.request(0, "get", (1, 2)) is None

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unknown_command_is_an_error_not_a_hang(self, mode):
        """A typo'd command fails fast in the parent (it may never reply)."""
        with make_pool(mode) as pool:
            with deadline(30):
                with pytest.raises(ValueError):
                    pool.request(0, "materialise-with-an-s")
                # The pool is not corrupted by the rejection.
                assert pool.request(0, "stats")["updates"] == 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_worker_error_after_ingest_then_recovers(self, mode):
        """A worker-side error after consumed batches reports, then serves."""
        with make_pool(mode) as pool:
            rows = np.arange(10, dtype=np.uint64)
            pool.submit(0, "ingest", (rows, rows, np.ones(10)))
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    pool.request(0, "reduce_incremental", "not-a-kind")
                assert pool.request(0, "stats")["updates"] == 10

    def test_out_of_range_coordinates_raise_before_sending(self):
        """Coordinates that would alias under packing never reach a worker."""
        from repro.graphblas.errors import InvalidIndex

        with ShardedHierarchicalMatrix(
            2, 2 ** 16, 2 ** 16, cuts=CUTS, use_processes=True
        ) as sharded:
            with pytest.raises(InvalidIndex):
                sharded.update([2 ** 20], [1], [1.0])
            # The wire refuses them too when a batch skips the router.
            with pytest.raises(InvalidIndex):
                sharded._pool.submit(
                    0, "ingest", (np.array([1], np.uint64), np.array([2 ** 16], np.uint64), 1.0)
                )
            with deadline(30):
                assert [s["updates"] for s in sharded._request_all("stats")] == [0, 0]


class TestNoReplyLeftBehind:
    """A failed command must leave no reply queued for a later one.

    Replies are FIFO per slot, so one left unread answers that slot's next
    command and every reply after it falls one command behind.
    """

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_failed_all_shard_command_keeps_replies_in_step(self, mode):
        """Every shard's reply to a failed all-shard round is read before the
        error is raised, so each shard's next reply answers its next
        command."""
        with ShardedHierarchicalMatrix(2, cuts=CUTS, **mode_kwargs(mode)) as sharded:
            rows = np.arange(50, dtype=np.uint64)
            sharded.update(rows, rows + 1, np.ones(50))
            with deadline(30):
                before = [sharded._pool.request(s, "stats") for s in range(2)]
                with pytest.raises(WorkerCrash):
                    sharded.reduce_rowwise("no_such_monoid")
                after = [sharded._pool.request(s, "stats") for s in range(2)]
            assert after == before
            assert sum(s["updates"] for s in after) == 50


class TestRaisingReplicaLeg:
    """A replica leg that raises is retired, never promoted, and never
    disturbs its primary or the stream.

    The fault is injected by patching :class:`ShardState` before the pool
    starts, so in-process slots and locally forked workers both carry it;
    agent-hosted workers were forked before the patch and cannot.
    """

    @staticmethod
    def _fail_on_slot(monkeypatch, slot, command):
        from repro.distributed.worker import ShardState

        original_handle = ShardState.handle

        def failing_handle(self, cmd, payload):
            if cmd == command and self.worker_id == slot:
                raise RuntimeError(f"injected {command} failure")
            return original_handle(self, cmd, payload)

        monkeypatch.setattr(ShardState, "handle", failing_handle)

    @pytest.mark.parametrize("mode", ["inproc", "local"])
    def test_raising_mirrored_leg_retires_the_replica(self, mode, monkeypatch):
        self._fail_on_slot(monkeypatch, 1, "clear")
        with make_pool(mode, replicas=1) as pool:
            ingest_some(pool)
            with deadline(30):
                assert pool.request_mirrored(0, "clear") is True
                assert pool.missing_replicas(0) == 1
                # The primary's reply was consumed by the mirrored call.
                assert pool.request(0, "stats")["updates"] == 0
                # The retired slot comes back as a fresh copy of the primary.
                assert pool.resync_replica(0) == 1
                assert pool.missing_replicas(0) == 0

    @pytest.mark.parametrize("mode", ["inproc", "local"])
    def test_raising_ingest_leg_never_fails_the_stream(self, mode, monkeypatch):
        self._fail_on_slot(monkeypatch, 1, "ingest")
        with make_pool(mode, replicas=1) as pool:
            ingest_some(pool)
            with deadline(30):
                assert pool.request(0, "stats")["updates"] == 300
                # The replica missed the batches: its latched error shows at
                # the promotion round-trip, so it is retired, not promoted.
                with pytest.raises(WorkerCrash, match="no live replica"):
                    pool.promote(0)
            assert pool.missing_replicas(0) == 1


class TestMigrationFaults:
    """A crash at any migration step leaves the old epoch fully consistent.

    The rebalance protocol is copy -> install -> discard -> publish: until
    the discard completes the source still holds the authoritative slab, and
    the new map epoch is published only after all three worker steps
    succeeded.  SIGKILLing the source mid-``extract_slab`` (or the
    destination mid-``install_slab``) must therefore surface
    :class:`WorkerCrash` with the map epoch unchanged and no coordinate
    orphaned or double-owned under the still-installed map.
    """

    #: Skewed stream: every coordinate keys into shard 0's range slab, so the
    #: auto policy always picks source=0, dest=1 — deterministic kill targets.
    @staticmethod
    def _loaded_matrix(mode, nshards=2):
        sharded = ShardedHierarchicalMatrix(
            nshards,
            cuts=CUTS,
            partition="range",
            **mode_kwargs(mode),
        )
        rng = np.random.default_rng(31)
        for _ in range(3):
            sharded.update(
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                np.ones(400),
            )
        return sharded

    @staticmethod
    def _kill_on(pool, command, monkeypatch, worker_filter=None):
        """SIGKILL the targeted worker at the moment ``command`` is
        dispatched to it — dead before it can execute or reply, so the
        parent deterministically observes the death while awaiting this
        command's reply.  (Killing *after* the dispatch would race the
        worker: on the in-band socket wire a fast worker can finish the
        command and reply before the signal lands.)  ``worker_filter``
        restricts the kill to one worker index (so a compensation command
        to another worker is not also shot down)."""
        original_submit = pool.submit

        def killing_submit(worker, cmd, payload=None):
            if cmd == command and (worker_filter is None or worker == worker_filter):
                pool.processes[worker].kill()
                pool.processes[worker].join(timeout=10)
            original_submit(worker, cmd, payload)

        monkeypatch.setattr(pool, "submit", killing_submit)

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_source_mid_extract(self, mode, monkeypatch):
        with self._loaded_matrix(mode) as sharded:
            epoch = sharded.map_epoch
            dest_nnz = sharded._pool.request(1, "stats")["nnz"]
            self._kill_on(sharded._pool, "extract_slab", monkeypatch)
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    sharded.rebalance()
            assert sharded.map_epoch == epoch
            # The destination never received anything: nothing double-owned.
            assert sharded._pool.request(1, "stats")["nnz"] == dest_nnz

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_dest_mid_install(self, mode, monkeypatch):
        with self._loaded_matrix(mode) as sharded:
            epoch = sharded.map_epoch
            source_nnz = sharded._pool.request(0, "stats")["nnz"]
            self._kill_on(sharded._pool, "install_slab", monkeypatch)
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    sharded.rebalance()
            assert sharded.map_epoch == epoch
            # extract_slab only copied: the surviving source still owns the
            # complete slab under the unchanged map — no coordinate orphaned.
            assert sharded._pool.request(0, "stats")["nnz"] == source_nnz

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_source_mid_discard_is_compensated(self, mode, monkeypatch):
        """Source dies after the install: the installed copy is rolled back
        so the old map (slab -> dead source) stays the single-owner truth."""
        with self._loaded_matrix(mode) as sharded:
            epoch = sharded.map_epoch
            dest_nnz = sharded._pool.request(1, "stats")["nnz"]
            self._kill_on(sharded._pool, "discard_slab", monkeypatch, worker_filter=0)
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    sharded.rebalance()
            assert sharded.map_epoch == epoch
            # Compensation removed the installed copy from the live dest.
            assert sharded._pool.request(1, "stats")["nnz"] == dest_nnz

    def test_install_error_compensated_bit_identical(self, monkeypatch):
        """A *raising* (surviving) destination rolls back to exact state.

        In-process mode so the destination's state can be patched in place;
        the failure surfaces as WorkerCrash, as on the wire.  The rebalance
        fails, the compensation discards the partial install, and the full
        materialize is still bit-identical to the flat reference — the
        strongest no-orphan/no-double-own statement available.
        """
        from repro.core import HierarchicalMatrix
        from repro.distributed.worker import ShardState

        rng = np.random.default_rng(41)
        batches = [
            (
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 14, 400, dtype=np.uint64),
                np.ones(400),
            )
            for _ in range(3)
        ]
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with ShardedHierarchicalMatrix(2, cuts=CUTS, partition="range") as sharded:
            for rows, cols, vals in batches:
                flat.update(rows, cols, vals)
                sharded.update(rows, cols, vals)
            dest_state = sharded._pool._transport.executors[1].state
            original_handle = ShardState.handle

            def failing_handle(self, cmd, payload):
                if cmd == "install_slab" and self is dest_state:
                    raise RuntimeError("injected install failure")
                return original_handle(self, cmd, payload)

            monkeypatch.setattr(ShardState, "handle", failing_handle)
            epoch = sharded.map_epoch
            with pytest.raises(WorkerCrash, match="injected install failure"):
                sharded.rebalance()
            monkeypatch.setattr(ShardState, "handle", original_handle)
            assert sharded.map_epoch == epoch
            assert sharded.materialize().isequal(flat.materialize())
            # ...and the next rebalance (no fault) succeeds cleanly.
            assert sharded.rebalance() is not None
            assert sharded.materialize().isequal(flat.materialize())


def _sorted_triples(matrix):
    rows, cols, vals = matrix.extract_tuples()
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def _assert_bit_identical(sharded, flat_matrix):
    sr, sc, sv = _sorted_triples(sharded.materialize())
    fr, fc, fv = _sorted_triples(flat_matrix)
    assert np.array_equal(sr, fr) and np.array_equal(sc, fc)
    assert np.array_equal(sv, fv), "values diverged from the flat reference"


class TestReplicaFailover:
    """A dead primary with a live replica fails over with zero lost updates.

    Every ingest batch is mirrored to the replica *before* the primary's
    failure is even detectable, so after a SIGKILL mid-stream the promoted
    replica must hold every update the stream ever routed — asserted as
    bit-identity (triples and reductions) against an uninterrupted flat
    reference, plus the map-epoch bump that fences the promotion.
    """

    @staticmethod
    def _streams(seed=71, nbatches=6, n=300):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                rng.integers(1, 9, n).astype(np.float64),
            )
            for _ in range(nbatches)
        ]

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_primary_mid_stream_loses_nothing(self, mode):
        batches = self._streams()
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=1)
        ) as sharded:
            epoch0 = sharded.map_epoch
            for rows, cols, vals in batches[:3]:
                sharded.update(rows, cols, vals)
            victim = sharded._pool.primary_slot(0)
            sharded._pool.processes[victim].kill()
            sharded._pool.processes[victim].join(timeout=10)
            for rows, cols, vals in batches[3:]:
                sharded.update(rows, cols, vals)
            with deadline(60):
                _assert_bit_identical(sharded, flat_matrix)
                assert sharded.map_epoch == epoch0 + 1
                assert sharded.nvals == flat_matrix.nvals
                assert sharded.reduce_rowwise("plus").isequal(
                    flat_matrix.reduce_rowwise("plus")
                )
                inc = sharded.incremental
                if inc.supported and inc.fan_supported:
                    assert inc.row_traffic().isequal(
                        flat_matrix.reduce_rowwise("plus")
                    )

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_failed_promotion_keeps_old_epoch(self, mode):
        """Primary *and* replica dead: WorkerCrash, epoch untouched."""
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=1)
        ) as sharded:
            rng = np.random.default_rng(3)
            sharded.update(
                rng.integers(0, 2 ** 16, 400, dtype=np.uint64),
                rng.integers(0, 2 ** 16, 400, dtype=np.uint64),
                np.ones(400),
            )
            epoch0 = sharded.map_epoch
            pool = sharded._pool
            for slot in (pool.primary_slot(0), *pool.replica_slots(0)):
                pool.processes[slot].kill()
                pool.processes[slot].join(timeout=10)
            with deadline(60):
                with pytest.raises(WorkerCrash):
                    sharded.materialize()
            assert sharded.map_epoch == epoch0
            assert not pool.shard_alive(0) and not pool.has_live_replica(0)

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_resync_restores_the_failure_budget(self, mode):
        """After a failover, resync_replicas() re-arms a second failover."""
        batches = self._streams(seed=97, nbatches=4)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=1)
        ) as sharded:
            for rows, cols, vals in batches[:2]:
                flat.update(rows, cols, vals)
                sharded.update(rows, cols, vals)
            pool = sharded._pool
            first = pool.primary_slot(0)
            pool.processes[first].kill()
            pool.processes[first].join(timeout=10)
            with deadline(60):
                assert sharded.nvals == flat.materialize().nvals  # failover 1
                assert sharded.resync_replicas() == 1
                second = pool.primary_slot(0)
                assert second != first
                pool.processes[second].kill()
                pool.processes[second].join(timeout=10)
                for rows, cols, vals in batches[2:]:
                    flat.update(rows, cols, vals)
                    sharded.update(rows, cols, vals)
                _assert_bit_identical(sharded, flat.materialize())  # failover 2
            assert sharded.map_epoch == 2

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_rebalance_with_replicas_stays_consistent(self, mode):
        """Mirrored install/discard: a migration then a failover must agree
        with the flat reference — the replica tracked the slab moves."""
        batches = self._streams(seed=13, nbatches=5)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, partition="range", **mode_kwargs(mode, replicas=1)
        ) as sharded:
            for rows, cols, vals in batches:
                flat.update(rows, cols, vals)
                sharded.update(rows, cols, vals)
            report = sharded.rebalance()
            assert report is not None
            victim = sharded._pool.primary_slot(report.dest)
            sharded._pool.processes[victim].kill()
            sharded._pool.processes[victim].join(timeout=10)
            with deadline(60):
                _assert_bit_identical(sharded, flat.materialize())

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_two_replicas_survive_sequential_double_kill(self, mode):
        """replicas=2: a second primary kill after the first promotion still
        fails over with zero lost updates (verified promotion picks a live,
        fully mirrored candidate both times)."""
        batches = self._streams(seed=59, nbatches=8)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=2)
        ) as sharded:
            epoch0 = sharded.map_epoch
            pool = sharded._pool
            for rows, cols, vals in batches[:3]:
                sharded.update(rows, cols, vals)
            first = pool.primary_slot(0)
            pool.processes[first].kill()
            pool.processes[first].join(timeout=10)
            for rows, cols, vals in batches[3:5]:
                sharded.update(rows, cols, vals)
            # A reply-bearing command surfaces the death and promotes.
            assert sharded.nvals >= 0
            second = pool.primary_slot(0)
            assert second != first
            pool.processes[second].kill()
            pool.processes[second].join(timeout=10)
            for rows, cols, vals in batches[5:]:
                sharded.update(rows, cols, vals)
            with deadline(60):
                _assert_bit_identical(sharded, flat_matrix)
                assert sharded.map_epoch == epoch0 + 2
                assert sharded.nvals == flat_matrix.nvals

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_two_replicas_survive_simultaneous_double_kill(self, mode):
        """replicas=2: primary AND first replica die in the same instant;
        verified promotion must skip the dead candidate and promote the
        surviving mirror — zero lost updates, one epoch bump."""
        batches = self._streams(seed=67, nbatches=6)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=2)
        ) as sharded:
            epoch0 = sharded.map_epoch
            pool = sharded._pool
            for rows, cols, vals in batches[:3]:
                sharded.update(rows, cols, vals)
            victims = [pool.primary_slot(0), pool.replica_slots(0)[0]]
            for slot in victims:
                pool.processes[slot].kill()
            for slot in victims:
                pool.processes[slot].join(timeout=10)
            for rows, cols, vals in batches[3:]:
                sharded.update(rows, cols, vals)
            with deadline(60):
                _assert_bit_identical(sharded, flat_matrix)
                assert sharded.map_epoch == epoch0 + 1


class TestNodeFailover:
    """SIGKILL a whole NodeAgent: every worker it hosts dies with it
    (PR_SET_PDEATHSIG), and each shard whose primary lived there must fail
    over to its replica on the surviving node — zero lost updates."""

    def test_agent_kill_fails_over(self):
        batches = TestReplicaFailover._streams(seed=29, nbatches=6)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with spawn_local_agents(2) as (addresses, procs):
            with ShardedHierarchicalMatrix(
                2, cuts=CUTS, use_processes=True, nodes=addresses, replicas=1,
            ) as sharded:
                epoch0 = sharded.map_epoch
                for rows, cols, vals in batches[:3]:
                    sharded.update(rows, cols, vals)
                # The placement staggers replicas across nodes, so killing
                # agent 0 takes shard 0's primary and shard 1's replica.
                os.kill(procs[0].pid, signal.SIGKILL)
                procs[0].join(timeout=10)
                for rows, cols, vals in batches[3:]:
                    sharded.update(rows, cols, vals)
                with deadline(60):
                    _assert_bit_identical(sharded, flat_matrix)
                    assert sharded.nvals == flat_matrix.nvals
                    assert sharded.map_epoch == epoch0 + 1
                    assert sharded.reduce_columnwise("plus").isequal(
                        flat_matrix.reduce_columnwise("plus")
                    )

    def test_both_agents_dead_raises_epoch_intact(self):
        with spawn_local_agents(2) as (addresses, procs):
            with ShardedHierarchicalMatrix(
                2, cuts=CUTS, use_processes=True, nodes=addresses, replicas=1,
            ) as sharded:
                sharded.update([1, 2], [3, 4], 1.0)
                epoch0 = sharded.map_epoch
                for proc in procs:
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10)
                with deadline(60):
                    with pytest.raises(WorkerCrash):
                        sharded.materialize()
                assert sharded.map_epoch == epoch0


class TestReplicaTrueRebalance:
    """Migrations are replica-true: every step is mirrored, so with a replica
    in hand a SIGKILL at ANY step fails over and the migration still
    *completes* (the abort-and-compensate contract of
    :class:`TestMigrationFaults` is the replicas=0 degradation), and the
    touched shards leave the call with their full failure budget — retired
    mirrors are resynchronised in place, or the call raises loudly.
    """

    MIGRATION_STEPS = ["extract_slab", "install_slab", "discard_slab"]

    @staticmethod
    def _loaded_with_flat(mode, replicas=1, seed=31, nbatches=3):
        """Skewed range-partition stream (everything in shard 0's slab) plus
        the flat reference it must stay bit-identical to."""
        sharded = ShardedHierarchicalMatrix(
            2, cuts=CUTS, partition="range",
            **mode_kwargs(mode, replicas=replicas),
        )
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        rng = np.random.default_rng(seed)
        for _ in range(nbatches):
            rows = rng.integers(0, 2 ** 14, 400, dtype=np.uint64)
            cols = rng.integers(0, 2 ** 14, 400, dtype=np.uint64)
            vals = rng.integers(1, 9, 400).astype(np.float64)
            flat.update(rows, cols, vals)
            sharded.update(rows, cols, vals)
        return sharded, flat

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    @pytest.mark.parametrize("step", MIGRATION_STEPS)
    def test_kill_primary_mid_step_migration_completes(
        self, mode, step, monkeypatch
    ):
        """Kill the acting primary at the dispatch of each migration step:
        the step's failover promotes a mirror that already executed its legs,
        the migration completes, and the budget check respawns the dead slot
        — no resync_replicas() from the caller, no lost or duplicated slab."""
        sharded, flat = self._loaded_with_flat(mode)
        with sharded:
            epoch0 = sharded.map_epoch
            victim_shard = 1 if step == "install_slab" else 0
            TestMigrationFaults._kill_on(
                sharded._pool, step, monkeypatch,
                worker_filter=sharded._pool.primary_slot(victim_shard),
            )
            with deadline(60):
                report = sharded.rebalance()
                assert report is not None
                assert (report.source, report.dest) == (0, 1)
                # One epoch bump for the failover fence, one for the install.
                assert sharded.map_epoch == epoch0 + 2
                # The budget check already restored the retired slot.
                assert sharded.missing_replicas() == 0
                _assert_bit_identical(sharded, flat.materialize())

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_kill_primary_right_after_migration_loses_nothing(self, mode):
        """Satellite regression: because the discard was mirrored, the
        replica promoted right after the migration holds exactly the
        post-migration slab set — nothing lost, nothing double-owned."""
        sharded, flat = self._loaded_with_flat(mode)
        with sharded:
            report = sharded.rebalance()
            assert report is not None
            pool = sharded._pool
            assert pool.has_live_replica(report.source)
            victim = pool.primary_slot(report.source)
            pool.processes[victim].kill()
            pool.processes[victim].join(timeout=10)
            rng = np.random.default_rng(77)
            for _ in range(2):
                rows = rng.integers(0, 2 ** 14, 300, dtype=np.uint64)
                cols = rng.integers(0, 2 ** 14, 300, dtype=np.uint64)
                flat.update(rows, cols, np.ones(300))
                sharded.update(rows, cols, np.ones(300))
            with deadline(60):
                _assert_bit_identical(sharded, flat.materialize())

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_dead_replica_is_resynced_during_rebalance(self, mode):
        """A mirror retired before the migration (its slot SIGKILLed) is
        respawned and resynced by the migration itself; the restored budget
        then survives a primary kill with zero loss."""
        sharded, flat = self._loaded_with_flat(mode)
        with sharded:
            pool = sharded._pool
            replica = pool.replica_slots(0)[0]
            pool.processes[replica].kill()
            pool.processes[replica].join(timeout=10)
            with deadline(60):
                report = sharded.rebalance()
                assert report is not None
                assert sharded.missing_replicas() == 0
                # The freshly resynced mirror is now the failure budget.
                victim = pool.primary_slot(0)
                pool.processes[victim].kill()
                pool.processes[victim].join(timeout=10)
                _assert_bit_identical(sharded, flat.materialize())

    def test_unrestorable_budget_fails_loudly(self, monkeypatch):
        """If the retired slot cannot be respawned (agent still down), the
        migration raises WorkerCrash instead of silently returning success
        over an under-replicated shard — and the published epoch stays
        valid.  Once the 'agent' returns, the AutoRejoiner restores the
        budget hands-off."""
        from repro.service import AutoRejoiner

        sharded, flat = self._loaded_with_flat("local")
        with sharded:
            epoch0 = sharded.map_epoch
            pool = sharded._pool
            replica = pool.replica_slots(0)[0]
            pool.processes[replica].kill()
            pool.processes[replica].join(timeout=10)
            original_respawn = pool._transport.respawn

            def refusing_respawn(slot):
                raise OSError("connection refused: agent still down")

            monkeypatch.setattr(pool._transport, "respawn", refusing_respawn)
            with deadline(60):
                with pytest.raises(WorkerCrash, match="under-replicated"):
                    sharded.rebalance()
            # The migration itself completed before the budget check failed.
            assert sharded.map_epoch == epoch0 + 1
            assert sharded.missing_replicas() == 1
            # The 'agent' comes back: the supervisor repairs the budget.
            monkeypatch.setattr(pool._transport, "respawn", original_respawn)
            rejoiner = AutoRejoiner(sharded, interval=1.0, clock=lambda: 0.0)
            with deadline(60):
                events = rejoiner.step(now=0.0)
            assert len(events) == 1 and sharded.missing_replicas() == 0
            with deadline(60):
                _assert_bit_identical(sharded, flat.materialize())


class TestAgentRejoin:
    """The restart-rejoin battery: SIGKILL a NodeAgent, restart it on the
    same endpoint, and the AutoRejoiner restores every mirror hands-off —
    after which a primary kill still fails over with zero lost updates."""

    def test_restarted_agent_rejoins_and_rearms_failover(self):
        import time

        from repro.distributed import restart_local_agent
        from repro.service import AutoRejoiner

        batches = TestReplicaFailover._streams(seed=37, nbatches=9)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with spawn_local_agents(2) as (addresses, procs):
            with ShardedHierarchicalMatrix(
                2, cuts=CUTS, use_processes=True, nodes=addresses, replicas=1,
            ) as sharded:
                rejoiner = AutoRejoiner(
                    sharded, interval=1.0, max_backoff=4, clock=lambda: 0.0
                )
                epoch0 = sharded.map_epoch
                for rows, cols, vals in batches[:3]:
                    sharded.update(rows, cols, vals)
                # Agent 0 hosts shard 0's primary and shard 1's replica:
                # killing it costs shard 0 a failover and shard 1 its mirror.
                os.kill(procs[0].pid, signal.SIGKILL)
                procs[0].join(timeout=10)
                for rows, cols, vals in batches[3:5]:
                    sharded.update(rows, cols, vals)
                assert sharded.map_epoch == epoch0 + 1
                assert sharded.missing_replicas() >= 1
                # While the endpoint refuses, attempts fail and back off.
                with deadline(60):
                    assert rejoiner.step(now=0.0) == []
                assert rejoiner.failed_attempts == 1
                assert rejoiner.last_error is not None
                # Restart an agent on the SAME endpoint; the retired slots
                # re-dial it through the placement they were born with.
                restarted = restart_local_agent(addresses[0])
                try:
                    fed = 5
                    now = 2.0
                    with deadline(90):
                        while True:
                            rejoiner.maybe_step(now=now)
                            now += 4.0  # always past the back-off horizon
                            if fed < 7:
                                rows, cols, vals = batches[fed]
                                sharded.update(rows, cols, vals)
                                fed += 1
                            elif sharded.missing_replicas() == 0:
                                break
                            time.sleep(0.02)
                    assert len(rejoiner.events) >= 1
                    for s in range(sharded.nshards):
                        assert sharded._pool.has_live_replica(s)
                    # The restored budget arms another failover: kill the
                    # promoted primary of shard 0 and keep streaming.
                    victim = sharded._pool.primary_slot(0)
                    sharded._pool.processes[victim].kill()
                    sharded._pool.processes[victim].join(timeout=10)
                    for rows, cols, vals in batches[fed:]:
                        sharded.update(rows, cols, vals)
                    with deadline(60):
                        _assert_bit_identical(sharded, flat_matrix)
                        assert sharded.map_epoch == epoch0 + 2
                finally:
                    restarted.terminate()
                    restarted.join(timeout=5)


class TestGatewayFaults:
    """Gateway-grade fault battery: the service layer inherits every backend
    fault contract end to end.

    A SIGKILLed backend worker becomes a client-visible :class:`GatewayError`
    at the next sync or read (replicas=0) or an invisible failover with zero lost
    acknowledged updates (replicas=1); a gateway closed mid-stream drains
    everything it accepted into the matrix and hangs up cleanly; a slow
    backend wire bounds the gateway's buffering instead of growing it.
    """

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_gateway_backend_kill_is_client_visible(self, mode):
        from repro.service import GatewayClient, GatewayError, IngestGateway

        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode)
        ) as sharded:
            gw = IngestGateway(sharded, coalesce_updates=256, flush_interval=0.01)
            gw.start()
            try:
                with GatewayClient(gw.address) as client:
                    rows = np.arange(500, dtype=np.uint64)
                    client.update(rows, rows, np.ones(500))
                    assert client.sync()["acked"] == 500
                    assert client.nnz() == 500
                    sharded._pool.processes[0].kill()
                    sharded._pool.processes[0].join(timeout=10)
                    with deadline(30):
                        # Un-replicated: the death surfaces as a loud reply
                        # error on this connection, never a hang — at the
                        # sync when the push into the dead shard failed, at
                        # the read when the push was still buffered.
                        with pytest.raises(GatewayError, match="Worker"):
                            for _ in range(20):
                                client.update(rows, rows, np.ones(500))
                                client.sync()
                                client.nnz()
            finally:
                gw.close()

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_gateway_backend_kill_fails_over_zero_loss(self, mode):
        """replicas=1: every acknowledged update survives a primary SIGKILL."""
        from repro.service import GatewayClient, IngestGateway

        batches = TestReplicaFailover._streams(seed=83, nbatches=6)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, **mode_kwargs(mode, replicas=1)
        ) as sharded:
            epoch0 = sharded.map_epoch
            gw = IngestGateway(sharded, coalesce_updates=256, flush_interval=0.01)
            gw.start()
            try:
                with GatewayClient(gw.address) as client:
                    sent = 0
                    for i, (rows, cols, vals) in enumerate(batches):
                        if i == 3:
                            victim = sharded._pool.primary_slot(0)
                            sharded._pool.processes[victim].kill()
                            sharded._pool.processes[victim].join(timeout=10)
                        client.update(rows, cols, vals)
                        sent += rows.size
                        # Acknowledge every batch: each ack is a promise the
                        # updates were applied (mirrored to the replica).
                        assert client.sync()["acked"] == sent
                    with deadline(60):
                        assert client.nnz() == flat_matrix.nvals
                        assert client.epoch() == epoch0 + 1
            finally:
                gw.close()
            with deadline(60):
                _assert_bit_identical(sharded, flat_matrix)

    def test_gateway_hosted_rejoiner_restores_budget(self):
        """The gateway hosts the rejoin supervisor on its event loop: after
        a primary kill the spent failure budget is restored hands-off, the
        client can watch it through ``missing_replicas()``/``rejoin_events()``,
        and the restored mirror arms a second zero-loss failover."""
        import time as time_mod

        from repro.service import AutoRejoiner, GatewayClient, IngestGateway

        batches = TestReplicaFailover._streams(seed=91, nbatches=6)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        flat_matrix = flat.materialize()
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, use_processes=True, replicas=1
        ) as sharded:
            rejoiner = AutoRejoiner(sharded, interval=0.05)
            gw = IngestGateway(
                sharded, coalesce_updates=256, flush_interval=0.01,
                rejoiner=rejoiner,
            )
            gw.start()
            try:
                with GatewayClient(gw.address) as client:
                    assert client.missing_replicas() == 0
                    sent = 0
                    for rows, cols, vals in batches[:3]:
                        client.update(rows, cols, vals)
                        sent += rows.size
                        assert client.sync()["acked"] == sent
                    victim = sharded._pool.primary_slot(0)
                    sharded._pool.processes[victim].kill()
                    sharded._pool.processes[victim].join(timeout=10)
                    for rows, cols, vals in batches[3:5]:
                        client.update(rows, cols, vals)
                        sent += rows.size
                        assert client.sync()["acked"] == sent
                    # A reply-bearing read surfaces the death: the failover
                    # spends the budget, and the hosted supervisor notices.
                    assert client.nnz() > 0
                    with deadline(60):
                        while client.missing_replicas() > 0:
                            time_mod.sleep(0.02)
                    assert len(client.rejoin_events()) >= 1
                    # The hands-off resync re-armed failover: kill again.
                    victim = sharded._pool.primary_slot(0)
                    sharded._pool.processes[victim].kill()
                    sharded._pool.processes[victim].join(timeout=10)
                    rows, cols, vals = batches[5]
                    client.update(rows, cols, vals)
                    sent += rows.size
                    with deadline(60):
                        assert client.sync()["acked"] == sent
            finally:
                gw.close()
            with deadline(60):
                _assert_bit_identical(sharded, flat_matrix)

    def test_gateway_close_mid_stream_drains_cleanly(self):
        """Shutdown with a client mid-stream: everything accepted lands."""
        from repro.service import GatewayClient, GatewayError, IngestGateway

        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            gw = IngestGateway(sharded, coalesce_updates=1 << 14, flush_interval=30.0)
            gw.start()
            streamed = threading.Event()
            stopped = threading.Event()

            def stream():
                rng = np.random.default_rng(11)
                try:
                    with GatewayClient(gw.address) as client:
                        while not stopped.is_set():
                            n = int(rng.integers(50, 200))
                            client.update(
                                rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                                rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                                np.ones(n),
                            )
                            streamed.set()
                except GatewayError:
                    pass  # the clean hang-up path: EOF/RST surfaces as this

            producer = threading.Thread(target=stream)
            producer.start()
            try:
                assert streamed.wait(timeout=30)
                while gw.metrics()["received_updates"] < 1000:
                    streamed.wait(0.005)
                gw.close()  # mid-stream: drains the coalescer, hangs up
            finally:
                stopped.set()
                producer.join(timeout=30)
            assert not producer.is_alive()
            metrics = gw.metrics()
            # Drained: every update parsed off a socket reached the matrix
            # (nothing stranded in the coalescer), and the totals agree.
            assert metrics["buffered_updates"] == 0
            assert metrics["routed_updates"] == metrics["received_updates"] >= 1000
            assert sharded.incremental.total() == float(metrics["routed_updates"])

    def test_gateway_slow_wire_bounds_buffering(self):
        """A congested backend wire backpressures: with the shard workers
        stopped their sockets fill and the gateway parks routing instead of
        buffering, so its memory stays one coalescer window; once the workers
        resume, nothing is lost or duplicated."""
        from repro.service import GatewayClient, IngestGateway

        rng = np.random.default_rng(19)
        batches = []
        for _ in range(60):
            n = int(rng.integers(100, 400))
            batches.append(
                (
                    rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                    rng.integers(0, 2 ** 16, n, dtype=np.uint64),
                    rng.integers(1, 9, n).astype(np.float64),
                )
            )
        sent = sum(rows.size for rows, _, _ in batches)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in batches:
            flat.update(rows, cols, vals)
        with ShardedHierarchicalMatrix(2, cuts=CUTS, use_processes=True) as sharded:
            # Pressure is unread wire bytes over the send buffer: a low band
            # makes a few thousand stalled updates per shard congestion.
            gw = IngestGateway(
                sharded, coalesce_updates=256, flush_interval=0.01,
                high_watermark=0.005, low_watermark=0.001,
            )
            gw.start()
            pids = [proc.pid for proc in sharded._pool.processes]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            stopped = True
            try:
                with GatewayClient(gw.address) as client:
                    # The client blocks in send once the parked gateway stops
                    # reading it, so it streams from its own thread.
                    producer = threading.Thread(
                        target=lambda: [client.update(*batch) for batch in batches]
                    )
                    producer.start()
                    with deadline(30):
                        while gw.metrics()["backpressure_waits"] == 0:
                            time.sleep(0.01)
                    for pid in pids:
                        os.kill(pid, signal.SIGCONT)
                    stopped = False
                    producer.join(timeout=30)
                    assert not producer.is_alive()
                    with deadline(60):
                        assert client.sync()["acked"] == sent
            finally:
                if stopped:
                    for pid in pids:
                        os.kill(pid, signal.SIGCONT)
                gw.close()
            metrics = gw.metrics()
            # Bounded: the buffer never exceeded one coalescer window plus
            # the one in-flight batch that tipped it over the bound.
            assert metrics["max_buffered_updates"] < 256 + 400
            with deadline(60):
                _assert_bit_identical(sharded, flat.materialize())


class TestForkedWorkerFds:
    """Each forked worker holds only its own end of its ``socketpair``.

    Closing the parent's end must therefore be the worker's EOF, with no
    ``stop`` frame sent: a sibling — or a respawned slot — that inherited a
    copy of that end would keep the connection open and the worker alive.
    """

    @pytest.mark.parametrize("respawn_first", [False, True])
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_closing_the_parent_end_stops_the_worker(self, victim, respawn_first):
        """Every slot position: slot 0's end is inherited by both later
        forks, slot 2's by none, and a respawned slot 1 is forked last."""
        with make_pool("local", nworkers=3) as pool:
            transport = pool._transport
            if respawn_first:
                transport.respawn(1)  # forked while slots 0 and 2 are open
            worker = pool.processes[victim]
            transport._conns[victim].close()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert worker.exitcode == 0
            # The siblings keep serving.
            with deadline(30):
                for sibling in {0, 1, 2} - {victim}:
                    assert pool.request(sibling, "stats")["updates"] == 0
