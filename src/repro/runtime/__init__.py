"""Execution runtime: parallel executors, artifact cache, background jobs.

The rest of the repo submits work here instead of running it inline:

* :mod:`.executor` — ``Serial``/``Thread``/``Process`` executors behind one
  ``map_tasks`` interface with deterministic per-task seeding, bounded
  in-worker retry, per-task timeout and structured failure records;
* :mod:`.cache` — a content-addressed two-tier (memory LRU + disk
  JSON/npz) artifact cache with hit/miss/evict counters;
* :mod:`.jobs` — background job submission with a
  ``submitted → running → done/failed`` lifecycle, powering the server's
  ``/jobs`` endpoints;
* :mod:`.dataplane` — a zero-copy data plane: datasets publish once into
  a content-fingerprinted :class:`SharedArrayStore` (POSIX shm with a
  memmap-file fallback) and tasks ship ~100-byte ``SeriesRef`` handles
  that workers rehydrate through a per-process attach cache;
* :mod:`.blas` — one BLAS thread per process (pinned on ``import
  repro``) and the BLAS fingerprint that cell keys and the fleet
  handshake carry.
"""

from .cache import CODE_VERSION, MISSING, ArtifactCache, fingerprint
from .dataplane import (BACKENDS, ArrayRef, BlobRef, DataplaneError,
                        SeriesRef, SharedArrayStore, attach, attach_stats,
                        clear_attach_cache, default_backend,
                        leaked_segments, reset_attach_stats, resolve,
                        sweep_stale)
from .executor import (EXECUTORS, ProcessExecutor, SerialExecutor, Task,
                       TaskError, TaskResult, ThreadExecutor,
                       default_executor, derive_seed, make_executor)
from .jobs import JOB_STATES, Job, JobManager

__all__ = [
    "Task", "TaskError", "TaskResult", "SerialExecutor", "ThreadExecutor",
    "ProcessExecutor", "derive_seed", "make_executor", "default_executor",
    "EXECUTORS", "ArtifactCache", "fingerprint", "CODE_VERSION", "MISSING",
    "Job", "JobManager", "JOB_STATES",
    "SharedArrayStore", "ArrayRef", "SeriesRef", "BlobRef",
    "DataplaneError", "attach", "resolve", "attach_stats",
    "reset_attach_stats", "clear_attach_cache", "default_backend",
    "sweep_stale", "leaked_segments", "BACKENDS",
]
