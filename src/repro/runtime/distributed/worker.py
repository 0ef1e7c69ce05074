"""The grid worker: computes leased cells with executor-grade parity.

``bench --worker HOST:PORT`` runs one of these.  A worker is a loop:

1. connect (capped exponential backoff with *deterministic* seeded
   jitter — two workers restarted together never thunder in lockstep,
   and the schedule is reproducible in tests) and say hello with this
   process's BLAS fingerprint; a coordinator with another BLAS refuses
   it, and :meth:`Worker.run` raises :class:`WorkerRefused`;
2. pull a lease of cells, drop any the coordinator stole back;
3. for each cell: local :class:`~repro.runtime.ArtifactCache` →
   remote artifact tier → compute, then stream the result back.

Compute goes through the exact in-process attempt loop
(:func:`repro.runtime.executor._execute_task`) with the seed derived
from the same stable cell key (:func:`~repro.runtime.derive_seed`,
``base_seed = config.seed``), which is the whole determinism story:
a cell produces bit-identical numbers whether it runs serially in the
coordinator's process or on any worker after any number of steals and
reconnects.

Bulk data never rides in a lease: the config and each dataset arrive
once per worker as content-addressed blobs, rebuilt into read-only
arrays and memoized by digest, mirroring the single-host data plane's
attach cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import threading
import time
from collections import deque

import numpy as np

from ... import telemetry
from ...datasets.series import TimeSeries
from ...pipeline.config import MethodSpec
from ...resilience.faults import InjectedFault
from .. import blas
from ..cache import MISSING
from ..executor import Task, _execute_task, derive_seed
from .wire import DEFAULT_MAX_FRAME_BYTES, WireError, recv_message, \
    send_message

__all__ = ["Worker", "ReconnectPolicy", "WorkerRefused"]


class WorkerRefused(RuntimeError):
    """The coordinator refused this worker's hello (another BLAS).

    Not a :class:`WireError`: reconnecting cannot help, so it escapes
    the reconnect loop and :meth:`Worker.run` raises it.
    """


class ReconnectPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``delay(attempt)`` (1-based) is ``min(cap_s, base_s * 2**(attempt-1))``
    scaled into ``[0.5, 1.0)`` of itself by a SHA-256 roll of
    ``(seed, attempt)`` — pure function, no ``random``, so a worker's
    reconnect schedule is reproducible and two workers with different
    seeds never synchronise their retries.
    """

    def __init__(self, base_s=0.1, cap_s=5.0, seed=0):
        if base_s <= 0 or cap_s < base_s:
            raise ValueError("need 0 < base_s <= cap_s")
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.seed = seed

    def delay(self, attempt):
        attempt = max(int(attempt), 1)
        raw = min(self.cap_s, self.base_s * (2.0 ** (attempt - 1)))
        digest = hashlib.sha256(
            f"{self.seed}:{attempt}".encode("utf-8")).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (0.5 + 0.5 * frac)


class Worker:
    """One TCP grid worker; :meth:`run` blocks until the grid is done.

    Parameters
    ----------
    cache:
        Optional node-local :class:`~repro.runtime.ArtifactCache`
        consulted *before* the coordinator's remote tier; computed
        cells are stored in both.
    lease_batch:
        Cells requested per pull; ``None`` uses the coordinator's
        advertised batch.
    reconnect:
        A :class:`ReconnectPolicy`; the default seeds its jitter from
        the worker name, so every worker jitters differently but
        reproducibly.
    max_reconnects:
        Consecutive failed connection attempts tolerated before
        :meth:`run` raises ``ConnectionError``.
    """

    def __init__(self, host, port, name=None, cache=None, lease_batch=None,
                 reconnect=None, max_reconnects=8, retries=1, backoff=0.05,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, logger=None):
        self.host = host
        self.port = int(port)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.cache = cache
        self.lease_batch = lease_batch
        self.reconnect = reconnect if reconnect is not None \
            else ReconnectPolicy(seed=self.name)
        self.max_reconnects = int(max_reconnects)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_frame_bytes = max_frame_bytes
        self.logger = logger
        self.heartbeat_s = 10.0

        self._sock = None
        self._send_lock = threading.Lock()
        self._hb_stop = None
        self._configs = {}        # digest -> BenchmarkConfig
        self._series = {}         # digest -> TimeSeries
        self.stats = {"cells": 0, "failures": 0, "local_hits": 0,
                      "remote_hits": 0, "computed": 0, "reconnects": 0,
                      "revoked": 0, "connects": 0}
        # Telemetry scope this worker *enabled itself* (welcome-driven,
        # CLI workers only).  In-process test workers share the
        # coordinator's collector and must not re-ship its registry on
        # heartbeats — that would double-count every merge.
        self._owned_telemetry = None
        self._inflight = None     # key of the cell currently computing

    def _log(self, level, event, **payload):
        if self.logger is not None:
            getattr(self.logger, level)(event, worker=self.name, **payload)

    # -- connection lifecycle ---------------------------------------------

    def _connect(self):
        sock = socket.create_connection((self.host, self.port), timeout=30)
        sock.settimeout(120)
        self._sock = sock
        try:
            welcome = self._rpc({"type": "hello", "worker": self.name,
                                 "blas": blas.fingerprint()})
        except (WireError, OSError):
            self._disconnect()
            raise
        if welcome.get("type") == "refused":
            self._disconnect()
            raise WorkerRefused(f"worker {self.name}: "
                                f"{welcome.get('error')}")
        if welcome.get("type") != "welcome":
            self._disconnect()
            raise WireError(f"unexpected greeting {welcome.get('type')!r}")
        self.heartbeat_s = float(welcome.get("heartbeat_s",
                                             self.heartbeat_s))
        if self.lease_batch is None:
            self.lease_batch = welcome.get("lease_batch")
        # The welcome advertises the coordinator's observability stance:
        # a worker in a separate process turns on its own collector and
        # recorder so traces/metrics/blackbox tails flow back.
        if welcome.get("telemetry") and telemetry.active() is None:
            self._owned_telemetry = telemetry.enable()
        if welcome.get("recorder"):
            telemetry.enable_recorder()
        self.stats["connects"] += 1
        telemetry.record("dist.connected", worker=self.name,
                         tag=welcome.get("tag"))
        self._hb_stop = threading.Event()
        threading.Thread(target=self._heartbeat_loop,
                         args=(sock, self._hb_stop), daemon=True,
                         name=f"hb-{self.name}").start()
        self._log("info", "dist.connected", tag=welcome.get("tag"))

    def _disconnect(self):
        if self._hb_stop is not None:
            self._hb_stop.set()
            self._hb_stop = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _heartbeat_loop(self, sock, stop):
        # Heartbeats share the socket with the request/reply loop under
        # the send lock and never receive replies, so the main thread's
        # strict request→reply ordering is preserved.
        interval = max(self.heartbeat_s / 3.0, 0.05)
        while not stop.wait(interval):
            try:
                message = self._heartbeat_message()
                with self._send_lock:
                    if self._sock is not sock:
                        return
                    send_message(sock, message, self.max_frame_bytes)
            except (WireError, OSError):
                return

    def _heartbeat_message(self):
        """Heartbeat payload: liveness plus the worker's vital signs.

        Every beat carries the in-flight cell key, the stats dict and
        the flight recorder's recent tail — so when this process is
        SIGKILLed, the coordinator still holds a last-known snapshot of
        what it was doing for the blackbox postmortem.  The cumulative
        metrics registry rides along only when this worker owns its own
        collector (separate process): the coordinator delta-merges it
        into the fleet registry.
        """
        message = {"type": "heartbeat", "worker": self.name,
                   "inflight": self._inflight, "stats": dict(self.stats)}
        rec = telemetry.recorder()
        if rec is not None:
            message["recorder"] = rec.tail(32)
        if self._owned_telemetry is not None:
            message["metrics"] = self._owned_telemetry.metrics.snapshot()
        return message

    def _rpc(self, message):
        t0 = time.perf_counter()
        with self._send_lock:
            send_message(self._sock, message, self.max_frame_bytes)
        reply = recv_message(self._sock, self.max_frame_bytes)
        telemetry.observe("repro_dist_rpc_seconds",
                          time.perf_counter() - t0,
                          type=message.get("type", "?"),
                          help="Worker RPC round-trip latency by type.")
        if reply.get("type") == "error":
            raise WireError(reply.get("error", "coordinator error"))
        return reply

    # -- the work loop -----------------------------------------------------

    def run(self):
        """Process cells until the coordinator reports the grid done."""
        queue = deque()
        failures = 0
        try:
            while True:
                if self._sock is None:
                    if failures > 0:
                        if failures > self.max_reconnects:
                            raise ConnectionError(
                                f"worker {self.name}: coordinator at "
                                f"{self.host}:{self.port} unreachable "
                                f"after {failures - 1} reconnect attempts")
                        delay = self.reconnect.delay(failures)
                        self._log("info", "dist.reconnect_wait",
                                  attempt=failures,
                                  delay_s=round(delay, 4))
                        time.sleep(delay)
                    try:
                        self._connect()
                    except (WireError, OSError, InjectedFault):
                        failures += 1
                        continue
                    if failures:
                        self.stats["reconnects"] += 1
                        telemetry.record("dist.reconnect",
                                         worker=self.name,
                                         attempts=failures)
                    failures = 0
                    queue.clear()  # re-registering requeued our old lease
                try:
                    if not self._step(queue):
                        break
                # An injected dist.send/dist.recv fault is chaos-speak
                # for a failed transfer: same recovery as a real one.
                except (WireError, OSError, InjectedFault) as exc:
                    self._log("warning", "dist.connection_lost",
                              error=repr(exc))
                    telemetry.record("dist.connection_lost",
                                     worker=self.name, error=repr(exc))
                    self._disconnect()
                    queue.clear()
                    failures = 1
        finally:
            self._disconnect()
        return dict(self.stats)

    def _step(self, queue):
        """One unit of the work loop; False when the grid is done."""
        if not queue:
            reply = self._rpc({"type": "request", "worker": self.name,
                               "n": self.lease_batch})
            rtype = reply.get("type")
            if rtype == "done":
                return False
            self._drop_revoked(queue, reply.get("revoked"))
            if rtype == "grant":
                queue.extend(reply.get("tasks", ()))
            elif rtype == "wait":
                time.sleep(float(reply.get("delay_s", 0.05)))
            return True
        task = queue.popleft()
        result = self._run_cell(task)
        ack = self._rpc(result)
        self._drop_revoked(queue, ack.get("revoked"))
        return True

    def _drop_revoked(self, queue, revoked):
        if not revoked:
            return
        stolen = set(revoked)
        kept = [t for t in queue if t.key not in stolen]
        dropped = len(queue) - len(kept)
        if dropped:
            queue.clear()
            queue.extend(kept)
            self.stats["revoked"] += dropped
            self._log("info", "dist.revoked", dropped=dropped)

    # -- cell execution ----------------------------------------------------

    def _result(self, task, value, seconds=0.0, attempts=1,
                stored_remote=False):
        return {"type": "result", "worker": self.name, "key": task.key,
                "ok": True, "value": value, "seconds": seconds,
                "attempts": attempts, "stored_remote": stored_remote}

    def _run_cell(self, task):
        """Run one cell under the propagated trace (when tracing is on).

        The :class:`~.wire.WireTask` carries the coordinator's span
        context; the worker opens its ``dist.cell`` span with that
        context as explicit parent inside a private :func:`capture`
        scope, then attaches the scope's export (spans + per-cell metric
        deltas) to the result frame.  The coordinator absorbs it into
        one fleet-wide trace tree and registry.
        """
        self._inflight = task.key
        telemetry.record("dist.cell.start", worker=self.name, key=task.key,
                         method=task.method, series=task.series.name)
        result = None
        started = time.perf_counter()
        try:
            if telemetry.active() is None:
                result = self._run_cell_inner(task)
                return result
            parent = ({"trace_id": task.trace_id,
                       "span_id": task.parent_span_id}
                      if task.trace_id else None)
            with telemetry.capture() as scope:
                with telemetry.span("dist.cell", parent=parent,
                                    worker=self.name, key=task.key,
                                    method=task.method,
                                    series=task.series.name) as cell_span:
                    result = self._run_cell_inner(task)
                    ok = bool(result.get("ok"))
                    if not ok:
                        cell_span.status = "error"
                seconds = time.perf_counter() - started
                telemetry.inc("repro_dist_worker_cells_total",
                              worker=self.name,
                              status="ok" if ok else "failed",
                              help="Cells finished per worker by outcome.")
                telemetry.observe("repro_dist_worker_cell_seconds",
                                  seconds, worker=self.name,
                                  help="Per-worker wall seconds per cell.")
            result["telemetry"] = scope.export()
            return result
        finally:
            self._inflight = None
            telemetry.record(
                "dist.cell.finish", worker=self.name, key=task.key,
                ok=bool(result.get("ok")) if result is not None else None,
                seconds=round(time.perf_counter() - started, 6))

    def _run_cell_inner(self, task):
        self.stats["cells"] += 1
        if task.cache_key:
            if self.cache is not None:
                hit = self.cache.get(task.cache_key)
                if hit is not MISSING:
                    self.stats["local_hits"] += 1
                    telemetry.inc("repro_dist_cache_total", op="get",
                                  result="local_hit",
                                  help="Remote artifact-tier operations.")
                    return self._result(task, hit)
            reply = self._rpc({"type": "artifact_get",
                               "key": task.cache_key,
                               "worker": self.name})
            if reply.get("hit"):
                value = reply.get("value")
                self.stats["remote_hits"] += 1
                if self.cache is not None:
                    self.cache.put(task.cache_key, value)
                return self._result(task, value, stored_remote=True)
        config = self._config(task.config_digest)
        series = self._dataset(task.series)
        spec = MethodSpec(task.method, dict(task.params))
        # The same fn/seed/attempt loop as every in-process executor:
        # this line is the bitwise-identity guarantee.
        from ...pipeline.runner import _evaluate_cell
        outcome = _execute_task(
            Task(key=task.key, fn=_evaluate_cell,
                 args=(config, spec, series)),
            derive_seed(task.key, base_seed=config.seed),
            self.retries, self.backoff)
        if not outcome.ok:
            self.stats["failures"] += 1
            return {"type": "result", "worker": self.name, "key": task.key,
                    "ok": False, "error": outcome.error.error,
                    "error_type": outcome.error.error_type,
                    "attempts": outcome.error.attempts}
        self.stats["computed"] += 1
        stored_remote = False
        if task.cache_key:
            if self.cache is not None:
                self.cache.put(task.cache_key, outcome.value)
            self._rpc({"type": "artifact_put", "key": task.cache_key,
                       "value": outcome.value, "worker": self.name})
            stored_remote = True
        return self._result(task, outcome.value, seconds=outcome.seconds,
                            attempts=outcome.attempts,
                            stored_remote=stored_remote)

    # -- blob rehydration --------------------------------------------------

    def _fetch_blob(self, digest):
        reply = self._rpc({"type": "blob", "digest": digest,
                           "worker": self.name})
        if reply.get("type") != "blob_data":
            raise WireError(f"blob fetch failed for {digest!r}")
        data = reply.get("data", b"")
        if hashlib.sha256(data).hexdigest() != digest:
            raise WireError(f"blob {digest!r} failed content verification")
        return data

    def _config(self, digest):
        config = self._configs.get(digest)
        if config is None:
            config = pickle.loads(self._fetch_blob(digest))
            self._configs[digest] = config
        return config

    def _dataset(self, handle):
        series = self._series.get(handle.digest)
        if series is None:
            data = self._fetch_blob(handle.digest)
            arr = np.frombuffer(data, dtype=handle.dtype)
            arr = arr.reshape(handle.shape)  # read-only view, zero-copy
            series = TimeSeries(arr, name=handle.name,
                                domain=handle.domain, freq=handle.freq,
                                columns=tuple(handle.columns))
            self._series[handle.digest] = series
        return series
