"""Run logging: the reporting layer's experiment tracker.

TFB's reporting layer "includes a logging system for tracking experimental
information".  :class:`RunLogger` collects structured events in memory and
optionally mirrors them to a JSON-lines file, so a benchmark run leaves a
complete machine-readable trail.

The file sink keeps one lazily-opened append handle for the whole logger
family (children share it) instead of reopening the file per event, and
each record goes out as a single ``write()`` of one complete line in
append mode — so events written concurrently from worker processes or
threads interleave without corrupting each other.
"""

from __future__ import annotations

import atexit
import json
import threading
import time
import weakref
from pathlib import Path

__all__ = ["RunLogger", "FileSink"]

#: Sinks with an open handle; weakly held so garbage collection is not
#: blocked, drained by the atexit hook so a logger that was never used as
#: a context manager still releases (and flushes) its file on shutdown.
_OPEN_SINKS = weakref.WeakSet()


@atexit.register
def _close_open_sinks():
    for sink in list(_OPEN_SINKS):
        sink.close()


class FileSink:
    """Lazily-opened, lock-guarded append-mode JSONL sink.

    Each record goes out as one flushed ``write()`` of a complete line,
    so concurrent writers interleave without corruption and a crash can
    tear at most the final line — the property the resilience journal
    (:class:`~repro.resilience.RunJournal`) builds its write-ahead
    guarantee on.  ``close()`` is idempotent and shared across every
    logger in a :meth:`RunLogger.child` family; a sink left open at
    interpreter exit is closed by the module's ``atexit`` hook.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()

    def write(self, record):
        # One write() call per complete line: O_APPEND keeps concurrent
        # writers from splicing into each other's records.
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = self.path.open("a", encoding="utf-8")
                _OPEN_SINKS.add(self)
            self._fh.write(line)
            self._fh.flush()

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            _OPEN_SINKS.discard(self)


class RunLogger:
    """Structured experiment logger.

    Events are dicts with ``ts`` (monotonic-ish wall time), ``level``,
    ``event`` and free-form payload keys.  A logger can be scoped with
    :meth:`child`, which prefixes every event.  When mirroring to a file,
    call :meth:`close` (or use the logger as a context manager) to release
    the shared append handle.
    """

    LEVELS = ("debug", "info", "warning", "error")

    def __init__(self, path=None, prefix="", _events=None, _sink=None):
        self.path = Path(path) if path else None
        self.prefix = prefix
        self.events = _events if _events is not None else []
        if _sink is not None:
            self._sink = _sink
        else:
            self._sink = FileSink(self.path) if self.path else None

    def child(self, prefix):
        """A scoped view sharing the same event buffer and file sink."""
        joined = f"{self.prefix}{prefix}." if prefix else self.prefix
        return RunLogger(path=self.path, prefix=joined, _events=self.events,
                         _sink=self._sink)

    def log(self, event, level="info", **payload):
        if level not in self.LEVELS:
            raise ValueError(f"unknown level {level!r}")
        record = {"ts": time.time(), "level": level,
                  "event": f"{self.prefix}{event}", **payload}
        self.events.append(record)
        if self._sink is not None:
            self._sink.write(record)
        return record

    def info(self, event, **payload):
        return self.log(event, level="info", **payload)

    def warning(self, event, **payload):
        return self.log(event, level="warning", **payload)

    def error(self, event, **payload):
        return self.log(event, level="error", **payload)

    def filter(self, event=None, level=None):
        """Events named ``event`` or inside its dotted namespace, and/or
        at ``level``.

        ``"run"`` (or ``"run."``) matches ``run.cell`` and ``run.done``;
        ``"run.cell"`` matches ``run.cell`` but not ``run.cell_failed``.
        """
        out = self.events
        if event is not None:
            space = event.rstrip(".") + "."
            out = [e for e in out
                   if e["event"] == event or e["event"].startswith(space)]
        if level is not None:
            out = [e for e in out if e["level"] == level]
        return list(out)

    def timer(self, event, **payload):
        """Context manager logging the elapsed time of a block."""
        return _Timer(self, event, payload)

    def profile_summary(self, spans=None):
        """Aggregate the run's per-phase wall-clock breakdown.

        Returns ``{"tasks": n, "total_seconds": t, "phases": {phase: t}}``
        where each phase total sums that phase's wall-clock across every
        profiled (method, series) task.

        Two sources, same table: explicit ``run.profile`` events (emitted
        by ``run(profile=True)``) take precedence; otherwise the summary
        is computed from telemetry ``phase.*`` spans — either the
        ``spans`` argument or, when telemetry is enabled, the process
        collector — so a traced run gets the breakdown without
        re-running under ``--profile``.  Empty when neither exists.
        """
        phases = {}
        tasks = 0
        for event in self.filter(event="run.profile"):
            tasks += 1
            for key, value in event.items():
                if key.endswith("_seconds") and isinstance(value, (int, float)):
                    phase = key[:-len("_seconds")]
                    phases[phase] = phases.get(phase, 0.0) + float(value)
        if not tasks:
            from .. import telemetry
            span_list = spans if spans is not None else telemetry.spans()
            if span_list:
                return telemetry.profile_from_spans(span_list)
        return {"tasks": tasks,
                "total_seconds": round(sum(phases.values()), 6),
                "phases": {k: round(v, 6) for k, v in phases.items()}}

    def close(self):
        """Close the shared file handle (safe to call repeatedly)."""
        if self._sink is not None:
            self._sink.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __len__(self):
        return len(self.events)


class _Timer:
    def __init__(self, logger, event, payload):
        self.logger = logger
        self.event = event
        self.payload = payload
        self._start = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        status = "failed" if exc_type else "ok"
        self.logger.log(self.event, seconds=round(elapsed, 6),
                        status=status, **self.payload)
        return False
