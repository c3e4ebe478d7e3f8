"""Hands-off replica rejoin: detect retired mirrors, re-dial, resync, repeat.

PR 7 made a failover survivable (`promote` + mirrored ingest) and made the
recovery *possible* (`resync_replicas()` re-mirrors a respawned slot from
its primary), but left the recovery caller-driven: after a node
restart somebody had to notice the spent failure budget and call
``resync_replicas()`` by hand — and keep calling it until the restarted
``repro-node`` agent actually answered.  :class:`AutoRejoiner` owns that loop:

* **Cheap detection** — each check reads
  :meth:`~repro.distributed.ShardedHierarchicalMatrix.missing_replicas`,
  a pure bookkeeping lookup that never touches the wire, so an idle healthy
  cluster pays nothing.
* **Re-dial with back-off** — a retired slot is respawned through the
  wire (a forked slot forks again; an agent slot re-dials its *original*
  endpoint, where a restarted agent rebinds thanks to ``SO_REUSEADDR``);
  while the agent is still down the attempt fails, and the check interval
  doubles up to ``max_backoff`` times.  Any successful rejoin — or a fully healthy
  observation — re-arms the interval.
* **Slab catch-up, hands-off** — each rejoin drives
  :meth:`~repro.distributed.ShardedHierarchicalMatrix.resync_replica`:
  the fresh worker installs the primary's whole shard as one slab (the
  frames a migration moves) and re-registers as a mirror, restoring the
  failure budget while the stream keeps flowing.

The supervisor is shaped exactly like :class:`~repro.service.AutoRebalancer`
and composes the same three ways: :meth:`step`/:meth:`maybe_step` for inline
driving on any clock (``repro-shard --auto-rejoin`` uses batch-count time),
:meth:`start` for a daemon thread, and ``start(dispatch=...)`` for marshaling
onto the thread that owns the matrix (the
:class:`~repro.service.IngestGateway` passes its event-loop dispatcher, the
same way it hosts the rebalancer).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..graphblas.errors import InvalidValue

__all__ = ["AutoRejoiner"]


class AutoRejoiner:
    """Background replica-rejoin supervisor over a sharded matrix.

    Parameters
    ----------
    matrix:
        A :class:`~repro.distributed.ShardedHierarchicalMatrix` (anything
        exposing ``nshards``, ``missing_replicas()`` and
        ``resync_replica(shard)``).
    interval:
        Seconds between budget checks while healthy (and the base unit of
        the failure back-off).
    max_backoff:
        Cap on the failed-attempt interval multiplier: while an agent stays
        down the check interval grows ``interval * 2^k`` up to
        ``interval * max_backoff``, bounding connect-refused churn.
    clock:
        Injectable monotonic clock (tests drive the back-off schedule
        deterministically; the CLI drives it in batch-count time).
    """

    def __init__(
        self,
        matrix,
        *,
        interval: float = 0.5,
        max_backoff: int = 16,
        clock: Callable[[], float] = time.monotonic,
    ):
        if float(interval) < 0.0:
            raise InvalidValue(f"interval must be >= 0, got {interval}")
        self._matrix = matrix
        self._interval = float(interval)
        self._max_backoff = max(int(max_backoff), 1)
        self._clock = clock
        #: One ``{"shard", "slot", "at"}`` dict per successful rejoin, in order.
        self.events: List[dict] = []
        #: Budget checks performed / checks that found retired slots but
        #: could not restore any (the agent was still down).
        self.checks = 0
        self.failed_attempts = 0
        #: Last exception raised by a rejoin attempt (or a threaded step).
        self.last_error: Optional[BaseException] = None
        self._backoff = 1
        self._next_check = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def interval(self) -> float:
        return self._interval

    def step(self, now: Optional[float] = None, *, force: bool = False) -> List[dict]:
        """One detect-and-rejoin attempt; returns the rejoins it completed.

        Walks every shard, resyncing retired slots until each shard either
        holds its full mirror set or an attempt fails (agent still down —
        recorded in :attr:`last_error`, retried after back-off).  ``force``
        is accepted for interface symmetry with the rebalancer; the step
        never has a trigger gate to skip, the cheap
        ``missing_replicas() == 0`` check short-circuits instead.
        """
        now = self._clock() if now is None else now
        self.checks += 1
        events: List[dict] = []
        failed = None
        if self._matrix.missing_replicas() > 0 or force:
            for shard in range(self._matrix.nshards):
                while True:
                    try:
                        slot = self._matrix.resync_replica(shard)
                    except Exception as exc:
                        # The slot's endpoint refused (agent not back yet) or
                        # the slab install failed; keep the slot retired and move
                        # on — other shards' agents may already be up.
                        failed = exc
                        break
                    if slot is None:
                        break
                    events.append({"shard": shard, "slot": int(slot), "at": now})
        if failed is not None:
            self.last_error = failed
        if events or failed is None:
            # Progress, or nothing left to do: re-arm the base interval.
            self._backoff = 1
        else:
            self.failed_attempts += 1
            self._backoff = min(self._backoff * 2, self._max_backoff)
        self._next_check = now + self._interval * self._backoff
        self.events.extend(events)
        return events

    def maybe_step(self, now: Optional[float] = None) -> List[dict]:
        """Rate-limited :meth:`step`: no-op while inside interval/back-off."""
        now = self._clock() if now is None else now
        if now < self._next_check:
            return []
        return self.step(now)

    # -- threaded mode ----------------------------------------------------- #

    def start(
        self, dispatch: Optional[Callable[[Callable[[], List]], List]] = None
    ) -> "AutoRejoiner":
        """Run the supervisor on a daemon thread until :meth:`stop`.

        ``dispatch(fn)`` must execute ``fn()`` on the thread that owns the
        matrix and return its result; without it the steps run on the
        supervisor thread itself, which is only safe when nothing else
        touches the matrix concurrently.
        """
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, args=(dispatch,), daemon=True, name="repro-auto-rejoiner"
        )
        self._thread.start()
        return self

    def _run(self, dispatch) -> None:
        tick = min(self._interval, 0.05) if self._interval > 0 else 0.05
        while not self._stop.wait(tick):
            try:
                if dispatch is not None:
                    dispatch(self.maybe_step)
                else:
                    self.maybe_step()
            except Exception as exc:
                # A dispatcher shutting down (or a degraded pool) must not
                # kill the service; record, back off, retry.
                self.last_error = exc
                self._backoff = min(self._backoff * 2, self._max_backoff)
                self._next_check = self._clock() + max(self._interval, 0.05) * self._backoff

    def stop(self) -> None:
        """Stop the supervisor thread (idempotent; safe if never started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AutoRejoiner interval={self._interval} backoff={self._backoff} "
            f"rejoined={len(self.events)}>"
        )
