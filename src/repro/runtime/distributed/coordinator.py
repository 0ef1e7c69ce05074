"""The grid coordinator: shards a benchmark run across TCP workers.

``bench --coordinator HOST:PORT`` binds one of these in front of the
normal :class:`~repro.pipeline.BenchmarkRunner` machinery.  The
coordinator *never computes a cell itself*; it

* resolves the grid and satisfies what it can from the resume journal
  and the artifact cache (the same ``_scan`` pass a single-host run
  uses), then turns every remaining cell into a ~200-byte
  :class:`~repro.runtime.distributed.wire.WireTask`;
* publishes the bulk payloads — the pickled config and each dataset's
  raw array — as content-addressed blobs workers fetch once each;
* serves a pull-based :class:`~repro.runtime.distributed.GridScheduler`
  over the framed TCP protocol (thread per connection), with
  work-stealing for stragglers and heartbeat-expiry lease recovery for
  SIGKILLed workers;
* answers a worker whose ``hello`` carries another BLAS fingerprint
  (:func:`repro.runtime.blas.fingerprint`) with a typed ``refused``
  frame instead of ``welcome``, and grants it nothing;
* exposes its :class:`~repro.runtime.ArtifactCache` as the fleet's
  remote tier (content-addressed ``artifact_get``/``artifact_put`` on
  the same socket), so a cell computed once is never recomputed
  anywhere;
* records each cell's first outcome through the runner's own
  :meth:`~repro.pipeline.BenchmarkRunner.record` (slot, journal, cache,
  ``run.cell`` event, counter, progress) and closes the run with its
  :meth:`~repro.pipeline.BenchmarkRunner.finish`, so the table, journal
  and event stream match a single-host run and a crashed coordinator
  resumes with ``bench --resume`` exactly like one.

Determinism: workers reuse the in-process executor's attempt loop and
per-key seed derivation, so the distributed table is bitwise-identical
to a serial run of the same config (compare
``to_rows(include_timings=False)``).
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import threading
import time
from pathlib import Path

import numpy as np

from ... import telemetry
from ...pipeline.runner import MergeConflict, RunInterrupted, _same_outcome
from ...resilience.faults import InjectedFault, fault_point
from .. import blas
from ..cache import MISSING
from ..executor import TaskError, TaskResult
from .scheduler import GridScheduler
from .wire import (DEFAULT_MAX_FRAME_BYTES, ConnectionClosed, TornFrame,
                   WireError, WireSeries, WireTask, recv_message,
                   send_message)

__all__ = ["Coordinator", "grid_status"]

_STATUS_LOCK = threading.Lock()
_ACTIVE = None   # the Coordinator currently serving (at most one)
_LAST = None     # final status snapshot of the most recent run


def grid_status():
    """Status of the distributed grid for the server's ``/grid`` route."""
    with _STATUS_LOCK:
        active, last = _ACTIVE, _LAST
    if active is not None:
        return {"state": "running", **active.status()}
    return {"state": "idle", "last": last}


def _set_active(coordinator):
    global _ACTIVE
    with _STATUS_LOCK:
        _ACTIVE = coordinator


def _set_last(snapshot):
    global _ACTIVE, _LAST
    with _STATUS_LOCK:
        _ACTIVE = None
        _LAST = snapshot


def _task_result(message):
    """A worker's result frame as the runner's :class:`TaskResult`."""
    key, attempts = message.get("key"), message.get("attempts", 0)
    error = None if message.get("ok") else TaskError(
        key, message.get("error", ""), message.get("error_type", ""), attempts)
    return TaskResult(key, value=message.get("value"), error=error,
                      attempts=attempts,
                      seconds=float(message.get("seconds") or 0.0))


class Coordinator:
    """Serve one benchmark config to a fleet of TCP workers.

    Parameters mirror :func:`~repro.pipeline.run_one_click` where they
    overlap (``cache``/``journal``/``resume``/``registry``/``logger``);
    the distributed knobs are ``lease_batch`` (cells granted per worker
    request), ``heartbeat_s`` (advertised worker heartbeat interval)
    and ``heartbeat_timeout_s`` (silence after which a worker's leased
    cells are reassigned; defaults to ``3 * heartbeat_s``).

    The listening socket binds in ``__init__`` so ``.address`` is known
    before :meth:`serve` blocks — `port=0` picks a free port.
    """

    def __init__(self, config, host="127.0.0.1", port=0, registry=None,
                 logger=None, cache=None, journal=None, resume=None,
                 lease_batch=2, heartbeat_s=10.0, heartbeat_timeout_s=None,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, run_dir=None):
        # Imported here: pipeline imports repro.runtime, and this module
        # must stay importable without completing that cycle early.
        from ...pipeline.runner import BenchmarkRunner
        self.runner = BenchmarkRunner(config, registry=registry,
                                      logger=logger)
        self.logger = self.runner.logger
        self.cache = cache
        self.journal = journal
        self.resume = resume
        self.lease_batch = max(int(lease_batch), 1)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = (3.0 * self.heartbeat_s
                                    if heartbeat_timeout_s is None
                                    else float(heartbeat_timeout_s))
        self.max_frame_bytes = max_frame_bytes

        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]

        # Guards the grid state and journal; re-entrant because
        # ``progress`` runs under it and may read :meth:`status`.
        self._lock = threading.RLock()
        self._done = threading.Event()
        self._closing = False
        self._workers = set()                  # connected worker names
        self._blobs = {}                       # digest -> bytes
        self._pending_by_key = {}
        self.scheduler = None
        self.grid = None
        self.table = None
        self._stats = {"results": 0, "failures": 0, "duplicates": 0,
                       "torn_frames": 0, "expired": 0, "refused": 0}
        # Workers must compute with this BLAS, or their cells would
        # differ in the last bits from a serial run's.
        self.blas = blas.fingerprint()

        # -- fleet observability state --------------------------------
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if self.run_dir is not None:
            # A run directory implies postmortems are wanted: make sure
            # wide events are being collected on the coordinator too.
            telemetry.enable_recorder()
        self._trace_ctx = {}          # coordinator root-span context
        self._fleet_lock = threading.Lock()
        self._fleet_snapshots = {}    # worker -> last cumulative snapshot
        self._worker_info = {}        # worker -> last heartbeat vitals
        self._worker_seconds = {}     # worker -> accumulated cell seconds
        self._grant_times = {}        # key -> monotonic grant time
        # Always-on lease-latency histogram (grant → result), so /grid
        # reports percentiles even when telemetry is disabled.
        from ...telemetry.metrics import DEFAULT_BUCKETS, Histogram
        self._lease_hist = Histogram("repro_dist_lease_seconds",
                                     buckets=DEFAULT_BUCKETS)

    # -- grid preparation -------------------------------------------------

    def _publish_blob(self, data):
        digest = hashlib.sha256(data).hexdigest()
        self._blobs.setdefault(digest, data)
        return digest

    def _wire_tasks(self, pending):
        """Turn pending ``_PendingCell`` entries into wire descriptors."""
        config_blob = pickle.dumps(self.runner.config,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        config_digest = self._publish_blob(config_blob)
        series_handles = {}
        tasks = []
        for entry in pending:
            series, spec = self.grid.cells[entry.index]
            handle = series_handles.get(series.name)
            if handle is None:
                arr = np.ascontiguousarray(series.values)
                digest = self._publish_blob(arr.tobytes())
                handle = WireSeries(digest=digest, name=series.name,
                                    domain=series.domain, freq=series.freq,
                                    columns=tuple(series.columns),
                                    shape=tuple(arr.shape),
                                    dtype=str(arr.dtype))
                series_handles[series.name] = handle
            tasks.append(WireTask(
                key=entry.key, index=entry.index,
                fingerprint=entry.fingerprint, cache_key=entry.cache_key,
                method=spec.name,
                params=tuple(sorted(spec.params.items())),
                series=handle, config_digest=config_digest,
                trace_id=self._trace_ctx.get("trace_id", ""),
                parent_span_id=self._trace_ctx.get("span_id", "")))
            self._pending_by_key[entry.key] = entry
        return tasks

    def _prepare(self, progress):
        self.grid = self.runner.prepare_grid(
            cache=self.cache, resume=self.resume, journal=self.journal,
            progress=progress, executor_kind="distributed")
        n_cells = len(self.grid.cells)
        tasks = self._wire_tasks(self.grid.pending)
        self.scheduler = GridScheduler(tasks, lease_batch=self.lease_batch)
        self.logger.info("dist.grid", n_cells=n_cells,
                         n_pending=len(tasks),
                         n_satisfied=n_cells - len(tasks),
                         blobs=len(self._blobs),
                         address=f"{self.address[0]}:{self.address[1]}")
        if self.scheduler.done():
            self._done.set()

    # -- the serve loop ---------------------------------------------------

    def serve(self, progress=None, cancel=None):
        """Accept workers until the grid settles; returns the table.

        Ctrl-C drains the scheduler, journals the interruption and
        raises :class:`~repro.pipeline.RunInterrupted` carrying the
        partial table, mirroring the single-host runner's contract.
        """
        # The run's root span: every worker cell span parents (via the
        # context stamped onto each WireTask) under this one, so the
        # merged trace is a single tree spanning the whole fleet.
        root = telemetry.span("dist.run", tag=self.runner.config.tag,
                              worker="coordinator")
        stop_status = None
        with root:
            self._trace_ctx = telemetry.task_context() or {}
            self._prepare(progress)
            _set_active(self)
            telemetry.record("dist.run.start", tag=self.runner.config.tag,
                             n_pending=self.scheduler.outstanding())
            acceptor = threading.Thread(target=self._accept_loop,
                                        daemon=True, name="dist-accept")
            acceptor.start()
            poll_s = min(max(self.heartbeat_s / 2.0, 0.05), 0.5)
            try:
                while not self._done.wait(poll_s):
                    if cancel is not None and cancel.is_set():
                        stop_status = "cancelled"
                        break
                    self._expire_leases()
                    telemetry.set_gauge(
                        "repro_dist_queue_depth",
                        self.scheduler.queue_depth(),
                        help="Cells waiting in the global grid queue.")
            except KeyboardInterrupt:
                stop_status = "interrupted"
            finally:
                self._shutdown(stop_status)
        if stop_status == "interrupted":
            raise RunInterrupted(self.table)
        return self.table

    def _shutdown(self, stop_status):
        self.close()
        unrun = ()
        if stop_status is not None:
            # Never-settled cells: the scheduler tells workers ``done``.
            unrun = [self._pending_by_key[key]
                     for key in self.scheduler.drain()]
            self._done.set()
        with self._lock:
            self.table = self.runner.finish(self.grid, stop_status, unrun,
                                            dist=dict(self._stats))
        telemetry.record("dist.run.end",
                         status=stop_status or "done",
                         n_results=len(self.table))
        if self.run_dir is not None:
            # Always leave a blackbox behind: the coordinator's own ring
            # ends the file, after any worker postmortems written above.
            from ...telemetry.recorder import BLACKBOX_NAME
            telemetry.dump_blackbox(self.run_dir / BLACKBOX_NAME,
                                    reason=stop_status or "run_end")
        _set_last(self.status())

    def _expire_leases(self):
        expired = self.scheduler.expire(time.monotonic(),
                                        self.heartbeat_timeout_s)
        for worker, keys in expired.items():
            self._stats["expired"] += 1
            self._workers.discard(worker)
            self.logger.warning("dist.lease_expired", worker=worker,
                                requeued=len(keys))
            telemetry.inc("repro_dist_leases_expired_total",
                          help="Worker leases reclaimed by heartbeat "
                               "timeout.")
            self._postmortem(worker, "lease_expired", keys)
        if expired:
            telemetry.set_gauge("repro_dist_workers", len(self._workers),
                                help="Workers currently registered.")

    # -- fleet observability ----------------------------------------------

    def _absorb_heartbeat(self, worker, message):
        """Fold a heartbeat's vital signs into the fleet view.

        Stores the worker's in-flight cell, stats and shipped recorder
        tail (the SIGKILL postmortem source), and delta-merges its
        *cumulative* metrics snapshot into the coordinator's registry —
        :func:`~repro.telemetry.metrics.snapshot_delta` keyed per worker
        guarantees a reconnecting worker re-shipping totals it already
        reported never double-counts.
        """
        info = {"inflight": message.get("inflight"),
                "stats": message.get("stats"),
                "recorder": message.get("recorder"),
                "ts": time.time()}
        snapshot = message.get("metrics")
        with self._fleet_lock:
            self._worker_info[worker] = info
            if snapshot:
                previous = self._fleet_snapshots.get(worker)
                self._fleet_snapshots[worker] = snapshot
                delta = telemetry.snapshot_delta(previous, snapshot)
            else:
                delta = None
        if delta:
            registry = telemetry.get_metrics()
            if registry is not None:
                registry.merge(delta)
        stats = message.get("stats") or {}
        if "cells" in stats:
            telemetry.set_gauge("repro_dist_worker_cells",
                                stats.get("cells", 0), worker=worker,
                                help="Cells processed per worker "
                                     "(heartbeat-reported).")

    def _postmortem(self, worker, reason, requeued):
        """Write a dead worker's last-known state to the blackbox.

        ``SIGKILL`` leaves no handler a chance to dump, so the
        coordinator replays what the worker shipped on its final
        heartbeats: the in-flight cell key plus its recent recorder
        tail.  The requeued keys are the authoritative in-flight set —
        the scheduler knows exactly which cells died with the worker.
        """
        with self._fleet_lock:
            info = self._worker_info.get(worker) or {}
        telemetry.record("dist.worker_lost", worker=worker, reason=reason,
                         requeued=len(requeued),
                         inflight=info.get("inflight"))
        if self.run_dir is None:
            return
        from ...telemetry.recorder import BLACKBOX_NAME, FlightRecorder
        header = {"event": "worker.postmortem", "ts": time.time(),
                  "worker": worker, "reason": reason,
                  "requeued_keys": sorted(requeued),
                  "inflight": info.get("inflight"),
                  "stats": info.get("stats"),
                  "last_heartbeat_ts": info.get("ts")}
        events = [header, *(info.get("recorder") or [])]
        try:
            FlightRecorder.append_events(self.run_dir / BLACKBOX_NAME,
                                         events)
        except OSError as exc:
            self.logger.warning("dist.blackbox_error", worker=worker,
                                error=str(exc))

    # -- connection handling ----------------------------------------------

    def _accept_loop(self):
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(sock,),
                             daemon=True, name="dist-conn").start()

    def _serve_conn(self, sock):
        # A partitioned worker never FINs; bound the read so the handler
        # thread can't outlive the lease it protects.
        sock.settimeout(max(self.heartbeat_timeout_s, 1.0))
        worker = None
        try:
            while True:
                try:
                    message = recv_message(sock, self.max_frame_bytes)
                except ConnectionClosed:
                    return
                except TornFrame as exc:
                    # Satellite: a half-written frame (worker died
                    # mid-send) is discarded, never parsed into the
                    # merge; the lease release below requeues its cells.
                    self._stats["torn_frames"] += 1
                    self.logger.warning("dist.torn_frame", worker=worker,
                                        error=str(exc))
                    telemetry.inc("repro_dist_torn_frames_total",
                                  help="Half-written frames discarded.")
                    return
                except (WireError, OSError, InjectedFault) as exc:
                    self.logger.warning("dist.recv_error", worker=worker,
                                        error=str(exc))
                    return
                worker = message.get("worker", worker)
                mtype = message.get("type")
                if mtype == "heartbeat":
                    self.scheduler.heartbeat(worker, time.monotonic())
                    self._absorb_heartbeat(worker, message)
                    continue
                try:
                    reply = self._dispatch(mtype, message, worker)
                except Exception as exc:  # noqa: BLE001 - incl. injected
                    # Chaos semantics: a fault inside dispatch behaves
                    # like losing the connection — the finally-release
                    # path requeues this worker's lease.
                    self.logger.warning("dist.dispatch_error",
                                        worker=worker, type=mtype,
                                        error=repr(exc))
                    return
                if reply is not None:
                    try:
                        send_message(sock, reply, self.max_frame_bytes)
                    except (WireError, OSError) as exc:
                        self.logger.warning("dist.send_error",
                                            worker=worker, error=str(exc))
                        return
                    if reply["type"] == "refused":
                        worker = None  # never registered: nothing to release
                        return
        finally:
            try:
                sock.close()
            except OSError:
                pass
            if worker is not None:
                requeued = self.scheduler.release(worker)
                self._workers.discard(worker)
                telemetry.set_gauge("repro_dist_workers",
                                    len(self._workers),
                                    help="Workers currently registered.")
                if requeued:
                    self.logger.info("dist.worker_lost", worker=worker,
                                     requeued=len(requeued))
                    # Cells died with the connection: postmortem the
                    # worker from its heartbeat-shipped state.  A clean
                    # exit (no leased cells) writes nothing.
                    self._postmortem(worker, "disconnect", requeued)

    def _dispatch(self, mtype, message, worker):
        now = time.monotonic()
        if mtype == "hello":
            if message.get("blas") != self.blas:
                return self._refuse(worker, message.get("blas"))
            requeued = self.scheduler.register(worker, now)
            self._workers.add(worker)
            telemetry.set_gauge("repro_dist_workers", len(self._workers),
                                help="Workers currently registered.")
            self.logger.info("dist.worker_joined", worker=worker,
                             requeued=len(requeued))
            return {"type": "welcome", "heartbeat_s": self.heartbeat_s,
                    "lease_batch": self.lease_batch,
                    "tag": self.runner.config.tag,
                    # Observability stance: out-of-process workers turn
                    # their own collector/recorder on to match.
                    "telemetry": telemetry.active() is not None,
                    "recorder": telemetry.recorder() is not None}
        if mtype == "request":
            return self._grant(message, worker, now)
        if mtype == "blob":
            digest = message.get("digest")
            data = self._blobs.get(digest)
            if data is None:
                return {"type": "error",
                        "error": f"unknown blob {digest!r}"}
            return {"type": "blob_data", "digest": digest, "data": data}
        if mtype == "artifact_get":
            return self._artifact_get(message.get("key"))
        if mtype == "artifact_put":
            if self.cache is not None:
                self.cache.put(message["key"], message["value"])
            telemetry.inc("repro_dist_cache_total", op="put",
                          result="remote",
                          help="Remote artifact-tier operations.")
            return {"type": "ok"}
        if mtype == "result":
            self._absorb_result(message, worker)
            return {"type": "ack",
                    "revoked": self.scheduler.revoked_for(worker)}
        return {"type": "error", "error": f"unknown message type {mtype!r}"}

    def _refuse(self, worker, worker_blas):
        """The typed refusal of a worker whose BLAS differs from ours."""
        self._stats["refused"] += 1
        self.logger.warning("dist.worker_refused", worker=worker,
                            blas=worker_blas, expected=self.blas)
        telemetry.record("dist.worker_refused", worker=worker)
        return {"type": "refused", "reason": "blas",
                "error": f"BLAS fingerprint {worker_blas!r} differs from "
                         f"the coordinator's {self.blas!r}; run the "
                         f"worker with the same BLAS build and "
                         f"OPENBLAS_CORETYPE",
                "expected": self.blas}

    def _grant(self, message, worker, now):
        fault_point("dist.lease", worker or "?")
        if self.scheduler.done():
            return {"type": "done"}
        tasks, revoked = self.scheduler.acquire(worker,
                                                n=message.get("n"), now=now)
        if not tasks:
            return {"type": "wait", "delay_s": 0.05, "revoked": revoked}
        if self.journal is not None:
            with self._lock:
                for task in tasks:
                    # Write-ahead at grant time: a coordinator crash
                    # right here leaves the cell re-runnable on resume.
                    self.journal.cell_start(task.key, task.fingerprint)
        telemetry.inc("repro_dist_grants_total", len(tasks),
                      help="Cells granted to workers.")
        granted_at = time.monotonic()
        with self._fleet_lock:
            for task in tasks:
                self._grant_times[task.key] = granted_at
        telemetry.record("dist.lease.grant", worker=worker,
                         n=len(tasks), keys=[t.key for t in tasks])
        return {"type": "grant", "tasks": tasks, "revoked": revoked}

    def _artifact_get(self, key):
        if self.cache is None:
            return {"type": "artifact", "key": key, "hit": False,
                    "value": None}
        value = self.cache.get(key)
        hit = value is not MISSING
        telemetry.inc("repro_dist_cache_total", op="get",
                      result="hit" if hit else "miss",
                      help="Remote artifact-tier operations.")
        return {"type": "artifact", "key": key, "hit": hit,
                "value": value if hit else None}

    # -- result absorption ------------------------------------------------

    def _absorb_result(self, message, worker):
        # Any result is proof of life — a worker grinding through a
        # lease of slow cells must not expire between heartbeats.
        now = time.monotonic()
        self.scheduler.heartbeat(worker, now)
        key = message.get("key")
        # The worker's capture-scope export (cell spans + per-cell
        # metric deltas) folds straight into the coordinator's collector
        # — deltas, so re-shipped duplicates of *snapshots* can't occur
        # here; the merge is additive by construction.
        telemetry.absorb(message.get("telemetry"))
        with self._fleet_lock:
            granted_at = self._grant_times.pop(key, None)
        if granted_at is not None:
            lease_s = max(now - granted_at, 0.0)
            self._lease_hist.observe(lease_s)
            telemetry.observe("repro_dist_lease_latency_seconds", lease_s,
                              help="Grant-to-result latency per cell.")
        seconds = float(message.get("seconds", 0.0) or 0.0)
        if seconds:
            with self._fleet_lock:
                self._worker_seconds[worker] = \
                    self._worker_seconds.get(worker, 0.0) + seconds
        entry = self._pending_by_key.get(key)
        if entry is None:
            return
        ok = bool(message.get("ok"))
        settle = self.scheduler.complete if ok else self.scheduler.fail
        first = settle(worker, key)
        with self._lock:
            if first:
                self._stats["results" if ok else "failures"] += 1
                self.runner.record(
                    self.grid, entry, _task_result(message), worker=worker,
                    cache_put=not message.get("stored_remote"))
            else:
                self._stats["duplicates"] += 1
                # Determinism says a stolen duplicate of a result must
                # be content-identical to the one already in its slot.
                prior = self.grid.slots[entry.index]
                value = message.get("value")
                if ok and prior is not None \
                        and not _same_outcome(prior, value):
                    raise MergeConflict(
                        f"divergent duplicate result for cell {key!r}: "
                        f"{prior.scores!r} != {value.scores!r}")
        if not first:
            self.runner._cell_count("duplicate")
        if self.scheduler.done():
            self._done.set()

    # -- introspection ----------------------------------------------------

    def status(self):
        """JSON-ready status for logging and the ``/grid`` route."""
        scheduler = (self.scheduler.snapshot(now=time.monotonic())
                     if self.scheduler is not None else {})
        # Fleet data first (own lock), then the table under _lock —
        # the two locks are never held together.
        with self._fleet_lock:
            fleet = {worker: {"inflight": info.get("inflight"),
                              "stats": info.get("stats"),
                              "seconds": round(
                                  self._worker_seconds.get(worker, 0.0), 6)}
                     for worker, info in sorted(self._worker_info.items())}
            for worker, seconds in self._worker_seconds.items():
                fleet.setdefault(worker, {})["seconds"] = round(seconds, 6)
        lease_snap = self._lease_hist.snapshot()
        lease_seconds = ({"count": lease_snap.count,
                          "mean": round(lease_snap.mean, 6),
                          **{k: round(v, 6) for k, v in
                             lease_snap.percentiles().items()}}
                         if lease_snap is not None else None)
        with self._lock:
            grid = self.grid
            return {"tag": self.runner.config.tag,
                    "address": list(self.address),
                    "results": 0 if grid is None else sum(
                        slot is not None for slot in grid.slots),
                    "failures": 0 if grid is None else len(grid.failures),
                    "workers": sorted(self._workers),
                    "stats": dict(self._stats),
                    "scheduler": scheduler,
                    "fleet": fleet,
                    "queue_depth": scheduler.get("pending", 0),
                    "steals": scheduler.get("counts", {}).get("stolen", 0),
                    "lease_seconds": lease_seconds}

    def close(self):
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
