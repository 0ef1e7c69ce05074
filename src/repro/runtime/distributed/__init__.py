"""Distributed benchmark execution: TCP coordinator/worker grids.

The subsystem lifts the single-host grid across machines:

* :mod:`~repro.runtime.distributed.wire` — length-prefixed, CRC-checked
  frames with typed failure modes (clean close vs torn frame vs
  protocol violation);
* :class:`GridScheduler` — pull-based leases, work-stealing from the
  longest queue, heartbeat-timeout lease recovery (pure bookkeeping,
  unit-testable without sockets);
* :class:`Coordinator` — ``bench --coordinator HOST:PORT``: shards the
  grid, streams ~200-byte task descriptors, serves content-addressed
  blobs and the remote artifact-cache tier, records every cell
  through the runner's own record/finish path (slots, journal, events),
  and refuses a worker whose BLAS fingerprint differs from its own;
* :class:`Worker` — ``bench --worker HOST:PORT``: executor-parity cell
  computation (bitwise-identical to a serial run), two-tier artifact
  lookup, deterministic-jitter reconnects.

Deliberately *not* imported by :mod:`repro.runtime`'s package init:
the pipeline imports the runtime, and this package imports the
pipeline — importing it lazily keeps the layering acyclic and the
single-host fast path free of any distributed machinery.
"""

from .coordinator import Coordinator, grid_status
from .scheduler import GridScheduler
from .wire import (DEFAULT_MAX_FRAME_BYTES, ConnectionClosed, FrameError,
                   TornFrame, WireError, WireSeries, WireTask, encode_frame,
                   recv_message, send_message)
from .worker import ReconnectPolicy, Worker, WorkerRefused

__all__ = ["Coordinator", "Worker", "WorkerRefused", "ReconnectPolicy",
           "GridScheduler", "grid_status", "WireError", "FrameError",
           "TornFrame", "ConnectionClosed", "WireSeries", "WireTask",
           "encode_frame", "send_message", "recv_message",
           "DEFAULT_MAX_FRAME_BYTES"]
