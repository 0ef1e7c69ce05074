"""Pull-based grid scheduling with leases, work-stealing and expiry.

The scheduler is pure bookkeeping — no sockets — so every scheduling
invariant is unit-testable:

* **Pull-based leases.**  A worker *asks* for up to ``n`` cells
  (:meth:`GridScheduler.acquire`); granted cells join its lease queue
  and stay there until a result (or failure) arrives for them.  Nothing
  is ever pushed at a worker that did not ask.
* **Work-stealing.**  When the global queue is dry, an idle worker
  steals from the tail of the *longest* live lease queue (the head is
  presumed in flight).  Stolen keys are recorded as revoked for the
  victim, which learns about them on its next contact and drops them
  from its local queue; if the race is lost and the victim computes a
  stolen cell anyway, the coordinator drops the duplicate after
  checking it is content-identical to the recorded result.
* **Leases expire.**  Every worker message refreshes ``last_seen``; a
  worker silent past the heartbeat timeout (SIGKILL, partition) has its
  unfinished cells requeued (:meth:`expire`) so no cell is ever lost.

Completion is first-wins: :meth:`complete` / :meth:`fail` return True
only for the first terminal outcome of a key, which is what gates
journal writes and result merging against duplicates from steals.
"""

from __future__ import annotations

import threading
from collections import deque

from ... import telemetry

__all__ = ["GridScheduler"]


class _Lease:
    """One worker's outstanding cells, in grant order (head in flight)."""

    __slots__ = ("worker", "queue", "last_seen")

    def __init__(self, worker, now):
        self.worker = worker
        self.queue = deque()
        self.last_seen = now


class GridScheduler:
    """Lease-based pull scheduler over a fixed set of wire tasks."""

    def __init__(self, tasks, lease_batch=2):
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
        self._tasks = {t.key: t for t in tasks}
        if len(self._tasks) != len(tasks):
            raise ValueError("task keys must be unique")
        self._pending = deque(t.key for t in tasks)
        self._leases = {}          # worker -> _Lease
        self._revoked = {}         # worker -> set of keys stolen from it
        self._terminal = set()     # keys with a first ok/failed outcome
        self.lease_batch = int(lease_batch)
        self.counts = {"granted": 0, "stolen": 0, "requeued": 0,
                       "duplicates": 0, "expired_workers": 0}
        self._lock = threading.Lock()

    # -- worker lifecycle -------------------------------------------------
    def register(self, worker, now):
        """(Re-)register a worker; a stale lease's cells are requeued."""
        with self._lock:
            requeued = self._release_locked(worker)
            self._leases[worker] = _Lease(worker, now)
            return requeued

    def heartbeat(self, worker, now):
        with self._lock:
            lease = self._leases.get(worker)
            if lease is not None:
                lease.last_seen = now

    def release(self, worker):
        """Forget a worker (disconnect); returns its requeued keys."""
        with self._lock:
            return self._release_locked(worker)

    def _release_locked(self, worker):
        lease = self._leases.pop(worker, None)
        self._revoked.pop(worker, None)
        if lease is None or not lease.queue:
            return []
        requeued = list(lease.queue)
        # Front of the queue: a recovered cell should not be starved
        # behind the whole remaining grid.
        self._pending.extendleft(reversed(requeued))
        self.counts["requeued"] += len(requeued)
        return requeued

    def expire(self, now, timeout_s):
        """Requeue cells of workers silent past ``timeout_s``.

        Returns ``{worker: [requeued keys]}`` for the expired workers
        (possibly with empty lists — an idle-but-silent worker is also
        dropped so stealing never targets a dead lease).
        """
        with self._lock:
            dead = [w for w, lease in self._leases.items()
                    if now - lease.last_seen > timeout_s]
            expired = {}
            for worker in dead:
                expired[worker] = self._release_locked(worker)
                self.counts["expired_workers"] += 1
            return expired

    # -- scheduling -------------------------------------------------------
    def acquire(self, worker, n=None, now=0.0):
        """Grant up to ``n`` cells to ``worker``; steal when dry.

        Returns ``(tasks, revoked)``: the granted :class:`WireTask`
        objects and the keys previously stolen *from* this worker that
        it should drop from its local queue.
        """
        n = self.lease_batch if n is None else max(int(n), 1)
        with self._lock:
            lease = self._leases.get(worker)
            if lease is None:
                lease = self._leases[worker] = _Lease(worker, now)
            lease.last_seen = now
            granted = []
            while self._pending and len(granted) < n:
                granted.append(self._pending.popleft())
            if not granted:
                granted = self._steal_locked(worker, n)
            lease.queue.extend(granted)
            self.counts["granted"] += len(granted)
            revoked = sorted(self._revoked.pop(worker, ()))
            return [self._tasks[key] for key in granted], revoked

    def _steal_locked(self, thief, n):
        """Steal up to ``n`` cells from the longest other lease queue."""
        victim = None
        for lease in self._leases.values():
            if lease.worker == thief or len(lease.queue) < 2:
                continue
            if victim is None or len(lease.queue) > len(victim.queue):
                victim = lease
        if victim is None:
            return []
        stolen = []
        # Tail first — the victim works head-first, so tail cells are
        # the least likely to already be in flight.  Always leave the
        # head behind.
        while len(victim.queue) > 1 and len(stolen) < n:
            stolen.append(victim.queue.pop())
        if stolen:
            self._revoked.setdefault(victim.worker, set()).update(stolen)
            self.counts["stolen"] += len(stolen)
            telemetry.inc("repro_dist_steals_total", len(stolen),
                          thief=thief, victim=victim.worker,
                          help="Cells stolen from straggler leases.")
            telemetry.record("dist.steal", thief=thief,
                             victim=victim.worker, n=len(stolen))
        return stolen

    def revoked_for(self, worker):
        """Pop the keys stolen from ``worker`` since its last contact."""
        with self._lock:
            return sorted(self._revoked.pop(worker, ()))

    # -- outcomes ---------------------------------------------------------
    def _settle_locked(self, worker, key):
        """Drop ``key`` everywhere; True on the first terminal outcome."""
        if key not in self._tasks:
            return False
        for lease in self._leases.values():
            try:
                lease.queue.remove(key)
            except ValueError:
                pass
        try:
            self._pending.remove(key)
        except ValueError:
            pass
        for revoked in self._revoked.values():
            revoked.discard(key)
        if key in self._terminal:
            self.counts["duplicates"] += 1
            return False
        self._terminal.add(key)
        return True

    def complete(self, worker, key):
        """Record a result for ``key``; True iff it is the first one."""
        with self._lock:
            return self._settle_locked(worker, key)

    def fail(self, worker, key):
        """Record a terminal failure; True iff it is the first outcome."""
        with self._lock:
            return self._settle_locked(worker, key)

    def drain(self):
        """Un-settle every outstanding key (cancel/interrupt teardown).

        Returns the keys that never reached a terminal outcome, clearing
        the pending queue and all lease queues so workers are told
        ``done`` on their next request.
        """
        with self._lock:
            remaining = sorted(set(self._tasks) - self._terminal)
            self._pending.clear()
            for lease in self._leases.values():
                lease.queue.clear()
            self._revoked.clear()
            self._terminal.update(remaining)
            return remaining

    # -- introspection ----------------------------------------------------
    def done(self):
        with self._lock:
            return len(self._terminal) >= len(self._tasks)

    def queue_depth(self):
        """Cells waiting in the global queue (not leased, not settled)."""
        with self._lock:
            return len(self._pending)

    def outstanding(self):
        with self._lock:
            return len(self._tasks) - len(self._terminal)

    def snapshot(self, now=None):
        """Scheduler state for logging and the ``/grid`` status route."""
        with self._lock:
            workers = {
                worker: {
                    "leased": len(lease.queue),
                    "idle_s": (None if now is None
                               else round(max(now - lease.last_seen, 0.0),
                                          3)),
                }
                for worker, lease in sorted(self._leases.items())
            }
            return {"cells": len(self._tasks),
                    "settled": len(self._terminal),
                    "pending": len(self._pending),
                    "leased": sum(len(lease.queue)
                                  for lease in self._leases.values()),
                    "workers": workers,
                    "counts": dict(self.counts)}
