"""The benchmark pipeline: one-click evaluation over methods × datasets.

"When users include their methods into the method layer along with a
configuration file, they can automatically run the pipeline to obtain
performance results."  :class:`BenchmarkRunner` materialises the datasets,
instantiates each method fresh per series (no state leaks between
datasets), applies the configured strategy, and returns a
:class:`ResultTable` the reporting layer and the knowledge base both
consume.

The grid no longer has to run serially: ``run(executor=..., cache=...)``
fans independent (method, series) cells out over a
:mod:`repro.runtime` executor and consults an
:class:`~repro.runtime.ArtifactCache` before paying for a fit.  Results
are assembled in grid order and the table sorts its output, so completion
order can never change downstream rankings.

Resilience (PR 4): failures are first-class outcomes, not silent holes.

* Every cell that does not produce a result leaves a structured
  :class:`CellFailure` on the table (``failed`` / ``quarantined`` /
  ``cancelled`` / ``deadline`` / ``interrupted``) so reports and the
  jobs API can show *why* a row is missing.
* ``run(journal=...)`` write-ahead-journals every cell transition
  (:class:`~repro.resilience.RunJournal`); ``run(resume=...)`` replays a
  journal and skips completed cells whose content fingerprints still
  match, which is what powers crash-safe ``bench --resume``.
* ``run(policy=...)`` consults a
  :class:`~repro.resilience.FailurePolicy` between dispatch waves: a
  tripped per-method circuit breaker quarantines that method's remaining
  cells, and an expired deadline stops scheduling cleanly.
* ``run(cancel=...)`` takes a :class:`threading.Event`; setting it stops
  the grid between waves with partial results preserved (cooperative
  cancellation for background jobs).
* Ctrl-C raises :class:`RunInterrupted` carrying the partial table, so
  the CLI can flush results and print the resume command before exiting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..datasets.registry import DatasetRegistry
from ..evaluation.metrics import HIGHER_IS_BETTER
from ..evaluation.strategies import make_strategy
from ..methods.registry import create
from ..runtime import (MISSING, SerialExecutor, SharedArrayStore, Task,
                       blas, fingerprint, make_executor, resolve)
from .config import BenchmarkConfig
from .logging import RunLogger

__all__ = ["BenchmarkRunner", "ResultTable", "CellFailure",
           "MergeConflict", "RunInterrupted", "run_one_click"]

#: Cell outcomes that are failures (everything except a scored result).
FAILURE_STATUSES = ("failed", "quarantined", "cancelled", "deadline",
                    "interrupted")


def _record_sort_key(record):
    return (record.series, record.method, record.horizon, record.strategy)


class MergeConflict(ValueError):
    """Two records for the same grid cell disagree on content.

    The determinism contract says a cell's result is a pure function of
    its key, so duplicates (a distributed work-steal race delivering the
    same cell from two workers) must be bit-identical.  A divergent
    duplicate is a real bug and must never be silently averaged away or
    last-writer-wins'd into the table.
    """


def _same_outcome(a, b):
    """Content equality for two result records (timings excluded).

    Compares the deterministic outcome — ``n_windows`` and every score,
    with NaN treated as equal to NaN — and ignores wall-clock fields,
    which legitimately differ between two computations of the same cell.
    """
    if a is b:
        return True
    if getattr(a, "n_windows", None) != getattr(b, "n_windows", None):
        return False
    scores_a = dict(getattr(a, "scores", {}) or {})
    scores_b = dict(getattr(b, "scores", {}) or {})
    if set(scores_a) != set(scores_b):
        return False
    for name, va in scores_a.items():
        vb = scores_b[name]
        if va == vb:
            continue
        try:
            if np.isnan(va) and np.isnan(vb):
                continue
        except TypeError:
            pass
        return False
    return True


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that produced no result, and why.

    ``status`` is one of :data:`FAILURE_STATUSES`: ``failed`` (retries
    exhausted), ``quarantined`` (circuit breaker open for the method),
    ``cancelled`` (cooperative cancel or Ctrl-C before scheduling),
    ``deadline`` (run deadline expired before scheduling) or
    ``interrupted`` (in flight when Ctrl-C landed).
    """

    method: str
    series: str
    horizon: int
    strategy: str
    status: str = "failed"
    error: str = ""
    error_type: str = ""
    attempts: int = 0

    def to_row(self):
        return {"method": self.method, "series": self.series,
                "horizon": self.horizon, "strategy": self.strategy,
                "status": self.status, "error": self.error,
                "error_type": self.error_type, "attempts": self.attempts}


class RunInterrupted(KeyboardInterrupt):
    """Ctrl-C during a run; carries the partial :class:`ResultTable`.

    Subclasses ``KeyboardInterrupt`` so generic ``except Exception``
    blocks cannot swallow it on the way to the CLI, which flushes the
    partial table, prints the resume command and exits 130.
    """

    def __init__(self, table, message="benchmark run interrupted"):
        super().__init__(message)
        self.table = table


@dataclass
class ResultTable:
    """Flat result records plus pivot/ranking helpers.

    Iteration and ``to_rows()`` are order-deterministic — records come out
    sorted by (series, method) regardless of insertion order, so parallel
    completion order cannot reorder reports or knowledge-base ingest.

    ``failures`` carries the cells that did *not* produce a result as
    :class:`CellFailure` records; score/pivot/ranking helpers ignore
    them, while reports and the jobs API render them as a failure panel
    instead of silently dropping rows.  ``len(table)`` counts successful
    records only, preserving the pre-resilience contract.
    """

    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, result):
        self.records.append(result)

    def add_failure(self, failure):
        """Record a cell that produced no result."""
        self.failures.append(failure)

    def merge(self, other):
        """Fold another table's records into this one; returns self.

        Conflict semantics (a distributed grid can deliver the same
        cell twice via a work-steal race, and a failure can race a
        success across workers):

        * two records for the same ``(series, method, horizon,
          strategy)`` cell must be content-identical — the duplicate is
          dropped; a divergent duplicate raises :class:`MergeConflict`;
        * :class:`CellFailure` rows never overwrite (or coexist with) a
          successful record for the same cell, regardless of which
          order the two tables are merged in;
        * duplicate failures for one cell keep the first seen.
        """
        if isinstance(other, ResultTable):
            new_records, new_failures = other.records, other.failures
        else:
            new_records, new_failures = list(other), ()
        existing = {_record_sort_key(r): r for r in self.records}
        for record in new_records:
            key = _record_sort_key(record)
            prior = existing.get(key)
            if prior is None:
                self.records.append(record)
                existing[key] = record
            elif not _same_outcome(prior, record):
                raise MergeConflict(
                    f"divergent duplicate result for cell {key!r}: "
                    f"{prior.scores!r} != {record.scores!r}")
        if new_failures or self.failures:
            kept, seen = [], set()
            for failure in (*self.failures, *new_failures):
                key = _record_sort_key(failure)
                if key in existing or key in seen:
                    continue
                seen.add(key)
                kept.append(failure)
            self.failures = kept
        return self

    def sorted_records(self):
        """Records sorted by (series, method, horizon, strategy)."""
        return sorted(self.records, key=_record_sort_key)

    def sorted_failures(self):
        """Failures sorted by (series, method, horizon, strategy)."""
        return sorted(self.failures, key=_record_sort_key)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.sorted_records())

    def methods(self):
        return sorted({r.method for r in self.records})

    def series_names(self):
        return sorted({r.series for r in self.records})

    def status_counts(self):
        """``{status: count}`` over successes (``ok``) and failures."""
        counts = {"ok": len(self.records)} if self.records else {}
        for failure in self.failures:
            counts[failure.status] = counts.get(failure.status, 0) + 1
        return counts

    def pivot(self, metric):
        """Dict ``{series: {method: score}}`` for one metric."""
        table = {}
        for r in self.sorted_records():
            table.setdefault(r.series, {})[r.method] = r.scores.get(metric)
        return table

    def mean_scores(self, metric):
        """Mean score per method across all series (NaNs skipped)."""
        sums, counts = {}, {}
        for r in self.records:
            value = r.scores.get(metric)
            if value is None or not np.isfinite(value):
                continue
            sums[r.method] = sums.get(r.method, 0.0) + value
            counts[r.method] = counts.get(r.method, 0) + 1
        return {m: sums[m] / counts[m] for m in sums}

    def ranking(self, metric):
        """Methods sorted best-first by mean score."""
        means = self.mean_scores(metric)
        reverse = metric in HIGHER_IS_BETTER
        return sorted(means, key=means.get, reverse=reverse)

    def best_per_series(self, metric):
        """Dict ``{series: winning method}`` under one metric."""
        reverse = metric in HIGHER_IS_BETTER
        out = {}
        for series, row in self.pivot(metric).items():
            scored = {m: v for m, v in row.items()
                      if v is not None and np.isfinite(v)}
            if scored:
                out[series] = (max if reverse else min)(scored, key=scored.get)
        return out

    def to_rows(self, include_timings=True):
        """Flatten to plain dict rows (for the knowledge base / SQL).

        ``include_timings=False`` drops the wall-clock measurement fields
        (``fit_seconds``/``predict_seconds``), leaving only the
        deterministic outcome — two runs of the same config compare equal
        row-for-row regardless of worker count.
        """
        rows = []
        for r in self.sorted_records():
            base = {"method": r.method, "series": r.series,
                    "horizon": r.horizon, "strategy": r.strategy,
                    "n_windows": r.n_windows}
            if include_timings:
                base["fit_seconds"] = r.fit_seconds
                base["predict_seconds"] = r.predict_seconds
            base.update({f"metric_{k}": v for k, v in r.scores.items()})
            rows.append(base)
        return rows

    def failure_rows(self):
        """Failures flattened to plain dict rows, in sorted order."""
        return [f.to_row() for f in self.sorted_failures()]


def _instantiate(config, spec):
    """Build a method instance for one cell, applying config geometry."""
    params = dict(spec.params)
    # Window-based methods inherit the config geometry unless the user
    # pinned their own; the same rule applies the config dtype policy to
    # methods that support one (the deep forecasters).
    model = create(spec.name, **params)
    for attr, value in (("lookback", config.lookback),
                        ("horizon", config.horizon),
                        ("dtype", config.dtype)):
        if hasattr(model, attr) and attr not in params:
            setattr(model, attr, value)
    return model


def _evaluate_cell(config, spec, series):
    """Evaluate one (method, series) cell.

    Module-level so :class:`~repro.runtime.ProcessExecutor` workers can
    pickle it.  ``config`` and ``series`` may arrive as dataplane refs
    (a per-run :class:`~repro.runtime.BlobRef` and a per-dataset
    :class:`~repro.runtime.SeriesRef`); :func:`~repro.runtime.resolve`
    rehydrates them through the worker's attach cache and passes plain
    objects straight through, so the cell body is payload-agnostic.
    """
    config = resolve(config)
    series = resolve(series)
    strategy = make_strategy(config.strategy, **config.strategy_kwargs())
    model = _instantiate(config, spec)
    return strategy.evaluate(model, series)


def _cell_key(config, spec, series):
    """Stable task key — also the seed source, so it must not depend on
    submission order or process identity.  The dtype enters the key only
    when it differs from the float64 default, preserving the seeds (and
    therefore the results) of every pre-existing float64 run."""
    key = (f"{config.tag}|{series.name}|{spec.name}"
           f"|{config.strategy}|h{config.horizon}")
    if config.dtype != "float64":
        key += f"|{config.dtype}"
    return key


@dataclass
class _PendingCell:
    """Bookkeeping for one not-yet-satisfied grid cell."""

    index: int
    key: str
    fingerprint: str
    cache_key: str
    task: Task


@dataclass
class _Grid:
    """One run's state: ``(series, spec)`` cells in order, a result slot
    per cell, failures by cell index, the pending work, and the side
    channels every finished cell is recorded into."""

    cells: list
    slots: list
    pending: list
    failures: dict = field(default_factory=dict)
    cache: object = None
    journal: object = None
    policy: object = None
    progress: object = None


class BenchmarkRunner:
    """Drives a validated :class:`BenchmarkConfig` end to end.

    It owns the grid lifecycle (:meth:`prepare_grid`, :meth:`record`,
    :meth:`finish`) for both dispatchers: the wave loop in :meth:`run`
    and the distributed :class:`~repro.runtime.distributed.Coordinator`.
    """

    def __init__(self, config, registry=None, logger=None):
        if not isinstance(config, BenchmarkConfig):
            raise TypeError("config must be a BenchmarkConfig")
        config.validate()
        self.config = config
        self.registry = registry or DatasetRegistry(seed=config.seed)
        # Note: an empty RunLogger is falsy (len 0), so test identity.
        self.logger = logger if logger is not None else RunLogger()

    def _cache_key(self, cache, spec, series):
        return cache.key(spec.name, spec.params, series.name, series.values,
                         series.freq, self.config.strategy,
                         self.config.strategy_kwargs(), self.config.dtype,
                         blas.fingerprint())

    def config_fingerprint(self):
        """Content fingerprint of the full config (binds journals)."""
        return fingerprint(self.config.to_dict())

    def cell_fingerprint(self, spec, series):
        """Content fingerprint of one cell — everything that determines
        its result, the BLAS build and thread count included.  A
        journaled cell is only resumed when this matches, so edited
        configs, regenerated data or another BLAS can never smuggle
        stale results into a resumed run."""
        return fingerprint(spec.name, spec.params, series.name,
                           series.values, series.freq, self.config.strategy,
                           self.config.strategy_kwargs(), self.config.dtype,
                           blas.fingerprint())

    def prepare_grid(self, cache=None, resume=None, journal=None,
                     progress=None, executor_kind="external", store=None):
        """Resolve the grid without executing anything.

        Returns a :class:`_Grid` whose ``slots`` already hold the
        results satisfied from the resume journal and the artifact cache
        (journaled and reported through ``progress``), and whose
        ``pending`` lists the remaining work — each entry carrying the
        stable cell key, content fingerprint and cache key a scheduler
        needs.  A resume journal written by another config is refused,
        and ``journal`` gets the ``run_start`` header, so a crashed run
        of either dispatcher resumes through ``bench --resume``.  With a
        dataplane ``store``, pending tasks carry store refs (see
        :meth:`_scan`).
        """
        config = self.config
        series_list = config.datasets.resolve(self.registry)
        cells = [(series, spec)
                 for series in series_list for spec in config.methods]
        config_fp = self.config_fingerprint()
        if resume is not None and not resume.matches_config(config_fp):
            raise ValueError(
                "resume journal was written by a different configuration "
                f"(journal {resume.config_fingerprint!r:.12} != run "
                f"{config_fp!r:.12}); refusing to mix results")
        if journal is not None:
            journal.start_run(config_fp, tag=config.tag,
                              n_cells=len(cells), executor=executor_kind,
                              resumed=resume is not None)
        slots = [None] * len(cells)
        pending = self._scan(cells, cache, resume, journal, slots, progress,
                             store=store)
        return _Grid(cells=cells, slots=slots, pending=pending, cache=cache,
                     journal=journal, progress=progress)

    def run(self, progress=None, executor=None, cache=None, profile=False,
            journal=None, resume=None, policy=None, cancel=None,
            dataplane=None):
        """Execute the full methods × datasets grid; returns a ResultTable.

        Parameters
        ----------
        executor:
            A :mod:`repro.runtime` executor; defaults to a
            :class:`SerialExecutor` seeded from the config.  Results are
            identical for any worker count because every cell's RNG seed
            derives from its stable task key.
        cache:
            An optional :class:`~repro.runtime.ArtifactCache`; hits skip
            the fit entirely and misses are stored after evaluation.
        profile:
            When True, emit one structured ``run.profile`` event per
            result carrying the strategy's per-phase wall-clock breakdown
            (data preparation, fit, predict, metrics); aggregate with
            :meth:`RunLogger.profile_summary`.
        journal:
            An optional :class:`~repro.resilience.RunJournal`; every cell
            transition is write-ahead journaled so a crashed run can be
            resumed.
        resume:
            An optional :class:`~repro.resilience.JournalState` replayed
            from a previous run's journal; completed cells with matching
            fingerprints are restored without re-executing.
        policy:
            An optional :class:`~repro.resilience.FailurePolicy`
            (per-method circuit breaker and/or run deadline), consulted
            between dispatch waves.
        cancel:
            An optional :class:`threading.Event`; once set, no further
            cells are scheduled and the run returns partial results with
            the remainder recorded as ``cancelled``.
        dataplane:
            Zero-copy data-plane control.  ``None`` (default) publishes
            datasets into a run-scoped
            :class:`~repro.runtime.SharedArrayStore` only when the
            executor is a process pool — serial and thread executors
            share memory already, so they keep the plain in-process
            payloads.  ``True`` forces a store, ``False`` disables it
            (the ``bench --no-dataplane`` escape hatch), and an existing
            :class:`~repro.runtime.SharedArrayStore` is used as-is
            without being closed (how the server shares one store across
            background jobs).

        Failures of individual (method, series) cells are retried by the
        executor, then logged as structured ``run.cell_failed`` events and
        recorded on the table as :class:`CellFailure` rows rather than
        aborting the run — a long benchmark should not die on one
        unstable fit.
        """
        with telemetry.span("run", tag=self.config.tag,
                            strategy=self.config.strategy,
                            horizon=self.config.horizon):
            return self._run(progress, executor, cache, profile, journal,
                             resume, policy, cancel, dataplane)

    def record(self, grid, entry, outcome, worker=None, cache_put=True):
        """Fold a cell's first :class:`~repro.runtime.TaskResult` into
        ``grid`` and its journal, cache, log, counter, policy and
        progress.  ``worker`` joins the log event; ``cache_put=False``
        skips a value the cache already holds."""
        series, spec = grid.cells[entry.index]
        fields = {"method": spec.name, "series": series.name}
        if worker is not None:
            fields["worker"] = worker
        journal, policy = grid.journal, grid.policy
        if outcome.ok:
            grid.slots[entry.index] = outcome.value
            self.logger.info("run.cell", **fields, status="ok",
                             seconds=round(outcome.seconds, 6),
                             attempts=outcome.attempts)
            self._cell_count("ok")
            if journal is not None:
                journal.cell_done(entry.key, entry.fingerprint,
                                  outcome.value)
            if cache_put and grid.cache is not None:
                grid.cache.put(entry.cache_key, outcome.value)
            if policy is not None:
                policy.record(spec.name, ok=True)
            if grid.progress is not None:
                grid.progress(outcome.value)
            return
        error = outcome.error
        self._fail(grid, entry, "failed", error.error, error.error_type,
                   error.attempts)
        self.logger.error("run.cell_failed", **fields, error=error.error,
                          error_type=error.error_type,
                          attempts=error.attempts)
        if journal is not None:
            journal.cell_failed(entry.key, entry.fingerprint,
                                error=error.error,
                                error_type=error.error_type,
                                attempts=error.attempts)
        if policy is not None and policy.record(spec.name, ok=False):
            self.logger.warning("run.quarantine_tripped", method=spec.name,
                                after=policy.breaker.threshold)

    def finish(self, grid, stop_status=None, unrun=(), profile=False,
               **done_extra):
        """Record ``unrun`` entries as ``deadline``/``cancelled`` when
        the run stopped early (``stop_status``), then journal and log
        the end and return the table; ``done_extra`` joins the
        ``run.done`` payload.  An ``"interrupted"`` run gets no
        ``run_done`` record: the caller raises :class:`RunInterrupted`.
        """
        journal = grid.journal
        if stop_status is not None:
            self._mark_unrun(grid, unrun, "deadline"
                             if stop_status == "deadline" else "cancelled")
            self.logger.warning(f"run.{stop_status}",
                                n_unscheduled=len(unrun))
            if journal is not None:
                journal.run_interrupted(reason=stop_status,
                                        n_unscheduled=len(unrun))
        table = ResultTable()
        for result in grid.slots:
            if result is None:
                continue
            table.add(result)
            if profile:
                payload = {f"{phase}_seconds": round(seconds, 6)
                           for phase, seconds
                           in getattr(result, "phase_seconds", {}).items()}
                self.logger.info("run.profile", method=result.method,
                                 series=result.series, **payload)
        for index in sorted(grid.failures):
            table.add_failure(grid.failures[index])
        done_payload = {"n_results": len(table),
                        "status_counts": table.status_counts(),
                        **done_extra}
        if grid.cache is not None:
            done_payload["cache"] = grid.cache.stats()
        if journal is not None and stop_status != "interrupted":
            journal.run_done(**done_payload)
        self.logger.info("run.done", **done_payload)
        return table

    # -- internals -------------------------------------------------------

    def _cell_count(self, status, n=1):
        telemetry.inc("repro_run_cells_total", n, status=status,
                      help="Benchmark grid cells by outcome.")

    def _scan(self, cells, cache, resume, journal, slots, progress,
              store=None):
        """Satisfy cells from the resume journal and the cache; returns
        the remaining work as :class:`_PendingCell` entries.

        With a dataplane ``store``, pending tasks carry a per-run config
        :class:`~repro.runtime.BlobRef` and per-dataset
        :class:`~repro.runtime.SeriesRef` handles instead of the pickled
        config and arrays — the task *keys* (and therefore every derived
        seed) are computed from the real objects either way, so results
        are bitwise independent of the payload form.
        """
        config = self.config
        config_ref = None
        pending = []
        for i, (series, spec) in enumerate(cells):
            key = _cell_key(config, spec, series)
            cell_fp = self.cell_fingerprint(spec, series)
            if resume is not None:
                prior = resume.result_for(key, cell_fp)
                if prior is not None:
                    slots[i] = prior
                    self.logger.info("run.resume_hit", method=spec.name,
                                     series=series.name)
                    self._cell_count("resumed")
                    if journal is not None:
                        journal.cell_skipped(key, cell_fp, reason="resume")
                    if progress is not None:
                        progress(prior)
                    continue
            cache_key = None
            if cache is not None:
                cache_key = self._cache_key(cache, spec, series)
                hit = cache.get(cache_key)
                if hit is not MISSING:
                    slots[i] = hit
                    self.logger.info("run.cache_hit", method=spec.name,
                                     series=series.name)
                    self._cell_count("cached")
                    if journal is not None:
                        journal.cell_done(key, cell_fp, hit)
                    if progress is not None:
                        progress(hit)
                    continue
            if store is not None:
                if config_ref is None:  # published once, lazily
                    config_ref = store.publish_blob(config)
                task_args = (config_ref, spec,
                             store.publish_series(series))
            else:
                task_args = (config, spec, series)
            task = Task(key=key, fn=_evaluate_cell, args=task_args)
            pending.append(_PendingCell(index=i, key=key,
                                        fingerprint=cell_fp,
                                        cache_key=cache_key, task=task))
        return pending

    def _fail(self, grid, entry, status, error, error_type="", attempts=0):
        """Record ``entry``'s cell as a :class:`CellFailure`."""
        series, spec = grid.cells[entry.index]
        grid.failures[entry.index] = CellFailure(
            method=spec.name, series=series.name,
            horizon=self.config.horizon, strategy=self.config.strategy,
            status=status, error=error, error_type=error_type,
            attempts=attempts)
        self._cell_count(status)

    def _quarantine(self, grid, entry):
        series, spec = grid.cells[entry.index]
        self._fail(grid, entry, "quarantined",
                   f"circuit breaker open for method {spec.name!r}",
                   "Quarantined")
        self.logger.warning("run.cell_quarantined", method=spec.name,
                            series=series.name)
        if grid.journal is not None:
            grid.journal.cell_quarantined(entry.key, entry.fingerprint,
                                          method=spec.name)

    def _mark_unrun(self, grid, entries, status):
        """Record cells that never settled (cancel/deadline/^C)."""
        for entry in entries:
            if (grid.slots[entry.index] is None
                    and entry.index not in grid.failures):
                self._fail(grid, entry, status, f"not scheduled: run {status}")

    def _open_store(self, dataplane, executor):
        """Resolve the ``dataplane`` knob to ``(store, owns_store)``."""
        if isinstance(dataplane, SharedArrayStore):
            return dataplane, False
        if dataplane is None:
            # Auto: only process pools cross an address-space boundary;
            # serial/thread runs keep plain payloads (zero overhead).
            if executor.kind != "process":
                return None, False
        elif not dataplane:
            return None, False
        return SharedArrayStore(), True

    def _run(self, progress, executor, cache, profile, journal, resume,
             policy, cancel, dataplane=None):
        config = self.config
        if executor is None:
            executor = SerialExecutor(base_seed=config.seed)
        store, owns_store = self._open_store(dataplane, executor)
        stop_status = None
        idx = 0
        try:
            grid = self.prepare_grid(cache, resume, journal, progress,
                                     executor.kind, store=store)
            grid.policy = policy
            pending = grid.pending
            self.logger.info("run.start", tag=config.tag,
                             n_methods=len(config.methods),
                             n_series=len(grid.cells) // len(config.methods),
                             strategy=config.strategy, horizon=config.horizon,
                             executor=executor.kind,
                             workers=getattr(executor, "workers", 1),
                             cached=cache is not None,
                             journaled=journal is not None,
                             resumed=resume is not None,
                             dataplane=(store.backend if store is not None
                                        else "off"))

            # Dispatch in waves.  With no between-wave decisions to make
            # the whole batch goes out at once (identical to the
            # pre-resilience behaviour, and pool executors pay one pool
            # spin-up).  With a policy or a cancel event, waves are sized
            # to the executor's parallelism so breaker/deadline/cancel
            # checks run while the grid is still in flight.
            responsive = policy is not None or cancel is not None
            workers = max(int(getattr(executor, "workers", 1) or 1), 1)
            wave_size = max(workers, 1) if responsive \
                else max(len(pending), 1)
            if responsive and executor.kind != "serial":
                wave_size = workers * 2  # amortise pool spin-up per wave
            while idx < len(pending):
                if cancel is not None and cancel.is_set():
                    stop_status = "cancelled"
                    break
                if policy is not None and policy.out_of_time():
                    stop_status = "deadline"
                    break
                wave = []
                while idx < len(pending) and len(wave) < wave_size:
                    entry = pending[idx]
                    idx += 1
                    if policy is not None and policy.quarantined(
                            grid.cells[entry.index][1].name):
                        self._quarantine(grid, entry)
                        continue
                    wave.append(entry)
                if not wave:
                    continue
                if journal is not None:
                    for entry in wave:
                        journal.cell_start(entry.key, entry.fingerprint)
                try:
                    outcomes = executor.map_tasks([e.task for e in wave])
                except KeyboardInterrupt:
                    stop_status = "interrupted"
                    self._mark_unrun(grid, wave, "interrupted")
                    break
                for entry, outcome in zip(wave, outcomes):
                    self.record(grid, entry, outcome)
        finally:
            # The owned store must not outlive the run (crash safety:
            # this also runs on Ctrl-C and injected faults); a borrowed
            # store keeps serving other runs and jobs.
            if store is not None:
                self.logger.info("run.dataplane", owned=owns_store,
                                 **store.stats())
                if owns_store:
                    store.close()

        table = self.finish(grid, stop_status, pending[idx:], profile)
        if stop_status == "interrupted":
            raise RunInterrupted(table)
        return table


def run_one_click(config, registry=None, logger=None, progress=None,
                  executor=None, cache=None, workers=None, profile=False,
                  journal=None, resume=None, policy=None, cancel=None,
                  dataplane=None):
    """The one-click evaluation entry point (demo scenario S1).

    ``executor`` is an executor or a kind name (``"serial"``,
    ``"thread"``, ``"process"``) built with ``workers`` workers;
    ``workers > 1`` without an ``executor`` selects a process pool.
    The resilience knobs (``journal``/``resume``/``policy``/``cancel``)
    and the zero-copy ``dataplane`` knob pass straight through to
    :meth:`BenchmarkRunner.run`.
    """
    if isinstance(executor, str) or (executor is None and workers
                                     and workers > 1):
        executor = make_executor(executor or "process", workers=workers or 1,
                                 base_seed=config.seed)
    return BenchmarkRunner(config, registry=registry, logger=logger).run(
        progress=progress, executor=executor, cache=cache, profile=profile,
        journal=journal, resume=resume, policy=policy, cancel=cancel,
        dataplane=dataplane)
