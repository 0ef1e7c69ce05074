"""Benchmark-owned tracing: spans around each layer's public callables.

Nothing in ``src`` is instrumented.  :data:`SITES` is the one table of
patch sites; each callable is replaced where its caller looks it up
(``repro.sql.engine.verify_sql``, not ``repro.sql.verify.verify_sql``)
by a wrapper that records ``(id, parent, name, layer, t0, t1)``.

* Spans nest per thread; a call into a span group already open on the
  thread (``super().fit`` chains, ``publish_series`` -> ``publish_array``)
  records nothing, so a group is never counted twice.
* Spans stay in memory.  The system process writes its own on shutdown;
  pool workers append theirs to a per-pid file after every grid cell
  (``flush=True`` sites), since they exit with the pool.
* ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
  process, so worker spans merge onto the system process's timeline and
  are adopted by the ``map_tasks`` span they ran under.
* Self time is a span's duration minus the part of its interval that its
  children cover (the union, so two workers' parallel cells are counted
  once against ``map_tasks``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

Span = namedtuple("Span", "id parent name layer t0 t1")

LAYERS = ("server", "serving", "runtime", "pipeline", "evaluation",
          "methods", "autograd", "qa", "sql", "ensemble", "characteristics",
          "core")

#: ``(target, span group, layer, options)``; ``target`` is
#: ``"module:attribute"`` where the attribute may be ``Class.method``.
SITES = (
    # server: the API handler behind each route the workloads call
    ("repro.server.app:_Api.forecast", "server.api", "server", {}),
    ("repro.server.app:_Api.qa", "server.api", "server", {}),
    ("repro.server.app:_Api.upload", "server.api", "server", {}),
    ("repro.server.app:_Api.recommend", "server.api", "server", {}),
    ("repro.server.app:_Api.automl", "server.api", "server", {}),
    # core: the EasyTime facade
    ("repro.core.easytime:EasyTime.one_click", "core.one_click", "core", {}),
    ("repro.core.easytime:EasyTime.upload_dataset", "core.upload", "core",
     {}),
    ("repro.core.easytime:EasyTime.choose_dataset", "core.choose_dataset",
     "core", {}),
    ("repro.core.easytime:EasyTime.recommend", "core.recommend", "core", {}),
    ("repro.core.easytime:EasyTime.automl", "core.automl", "core", {}),
    ("repro.core.easytime:EasyTime.ask", "core.ask", "core", {}),
    # pipeline: the grid runner and the per-cell task body (in workers)
    ("repro.pipeline.runner:BenchmarkRunner.run", "pipeline.run",
     "pipeline", {}),
    ("repro.pipeline.runner:_evaluate_cell", "pipeline.cell", "pipeline",
     {"flush": True}),
    # runtime: dispatch, data plane
    ("repro.runtime.executor:ProcessExecutor.map_tasks", "runtime.map_tasks",
     "runtime", {}),
    ("repro.runtime.executor:SerialExecutor.map_tasks",
     "runtime.map_tasks_serial", "runtime", {}),
    ("repro.runtime.dataplane:SharedArrayStore.publish_series",
     "runtime.publish", "runtime", {}),
    ("repro.runtime.dataplane:SharedArrayStore.publish_array",
     "runtime.publish", "runtime", {}),
    ("repro.runtime.dataplane:SharedArrayStore.publish_blob",
     "runtime.publish", "runtime", {}),
    ("repro.runtime:resolve", "runtime.resolve", "runtime", {}),
    ("repro.pipeline.runner:resolve", "runtime.resolve", "runtime", {}),
    ("repro.ensemble.auto:resolve", "runtime.resolve", "runtime", {}),
    # evaluation
    ("repro.evaluation.strategies:RollingStrategy.evaluate",
     "evaluation.evaluate", "evaluation", {}),
    ("repro.evaluation.metrics:compute_all", "evaluation.metrics",
     "evaluation", {}),
    # autograd
    ("repro.autograd.tensor:Tensor.backward", "autograd.backward",
     "autograd", {}),
    ("repro.autograd.optim:SGD.step", "autograd.step", "autograd", {}),
    ("repro.autograd.optim:Adam.step", "autograd.step", "autograd", {}),
    ("repro.autograd.optim:AdamW.step", "autograd.step", "autograd", {}),
    # serving: warm registry (its fit callable too) and the microbatcher
    ("repro.serving.registry:ModelRegistry.get_or_fit", "serving.registry",
     "serving", {"trace_fit_fn": True}),
    ("repro.serving.batcher:MicroBatcher.submit", "serving.batch",
     "serving", {}),
    # qa: pipeline nodes
    ("repro.qa.pipeline:QAPipeline.run", "qa.run", "qa", {}),
    ("repro.qa.pipeline:Planner.plan", "qa.plan", "qa", {}),
    ("repro.qa.engine:RuleBasedBackend.generate_sql", "qa.generate", "qa",
     {}),
    ("repro.qa.engine:RuleBasedBackend.repair_sql", "qa.generate", "qa", {}),
    ("repro.qa.engine:RuleBasedBackend.generate_answer", "qa.answer", "qa",
     {}),
    # sql: the Database gate and the two execution engines
    ("repro.sql.engine:Database.query", "sql.query", "sql", {}),
    ("repro.sql.engine:verify_sql", "sql.verify", "sql", {}),
    ("repro.sql.engine:statement_issues", "sql.authorize", "sql", {}),
    ("repro.sql.engine:authorize", "sql.authorize", "sql", {}),
    ("repro.sql.engine:authorize_sql", "sql.authorize", "sql", {}),
    ("repro.sql.engine:execute", "sql.execute", "sql", {}),
    ("repro.sql.executor:execute_columnar", "sql.columnar", "sql", {}),
    ("repro.sql.executor:execute_reference", "sql.reference", "sql", {}),
    # ensemble and characteristics (as the ensemble looks them up)
    ("repro.ensemble.auto:AutoEnsemble.forecast", "ensemble.forecast",
     "ensemble", {}),
    ("repro.ensemble.auto:AutoEnsemble.recommend", "ensemble.recommend",
     "ensemble", {}),
    ("repro.ensemble.ts2vec:TS2Vec.encode", "ensemble.encode", "ensemble",
     {}),
    ("repro.ensemble.classifier:PerformanceClassifier.predict_proba",
     "ensemble.classifier", "ensemble", {}),
    ("repro.ensemble.auto:fit_ensemble_weights", "ensemble.weights",
     "ensemble", {}),
    ("repro.ensemble.auto:extract", "characteristics.extract",
     "characteristics", {}),
)

#: Methods layer: every Forecaster class that defines these, found at
#: install time; ``fit`` spans are named by the class's category.
METHOD_SITES = ("fit", "predict_batch")


class Recorder:
    """In-memory span sink for one process (reset in forked children)."""

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched = []

    # -- recording -------------------------------------------------------
    def _stack(self):
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()   # a forked child starts with no spans
            local.stack = []
        return local.stack

    def _append(self, record):
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []           # inherited spans belong to the parent
        self.spans.append(record)

    def wrap(self, fn, group, layer, name_of=None, flush=False):
        """``fn`` recording one span per outermost call of ``group``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            for open_group, _ in stack:
                if open_group == group:
                    return fn(*args, **kwargs)
            name = name_of(args) if name_of is not None else group
            span_id = f"{os.getpid()}-{next(recorder._ids)}"
            parent = stack[-1][1] if stack else None
            stack.append((group, span_id))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                recorder._append((span_id, parent, name, layer, t0, t1))
                if flush and not stack:
                    recorder.flush()

        return traced

    def flush(self):
        """Append this process's spans to its per-pid file and drop them."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.run_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every site in :data:`SITES` plus the Forecaster methods."""
        for target, group, layer, options in SITES:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            fn = getattr(owner, attr)
            if options.get("trace_fit_fn"):
                fn = self._with_traced_fit_fn(fn)
            self._patch(owner, attr, self.wrap(
                fn, group, layer, flush=options.get("flush", False)))
        for cls in _forecaster_classes():
            for attr in METHOD_SITES:
                if attr not in vars(cls):
                    continue
                fn = vars(cls)[attr]
                if attr == "fit":
                    wrapper = self.wrap(fn, "methods.fit", "methods",
                                        name_of=_fit_span_name)
                else:
                    wrapper = self.wrap(fn, "methods.predict_batch",
                                        "methods")
                self._patch(cls, attr, wrapper)

    def uninstall(self):
        """Restore every patched attribute (newest first)."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _with_traced_fit_fn(self, get_or_fit):
        recorder = self

        @functools.wraps(get_or_fit)
        def with_fit_span(registry, key, fit_fn, **meta):
            return get_or_fit(registry, key,
                              recorder.wrap(fit_fn, "serving.fit", "serving"),
                              **meta)

        return with_fit_span


def _fit_span_name(args):
    return ("methods.fit.deep" if getattr(args[0], "category", "") == "deep"
            else "methods.fit.classical")


def _forecaster_classes():
    importlib.import_module("repro.methods.registry")
    importlib.import_module("repro.ensemble.auto")
    from repro.methods.base import Forecaster
    seen, todo = [], [Forecaster]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


# -- merging and self time -----------------------------------------------

def span_pid(span):
    return int(span.id.split("-", 1)[0])


def load_spans(run_dir):
    """Every span written under ``run_dir`` (all processes)."""
    spans = []
    for path in sorted(Path(run_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            spans.append(Span(*json.loads(line)))
    return spans


def adopt(spans, main_pid, parent_name):
    """Parent other processes' root spans to the ``parent_name`` span of
    ``main_pid`` whose interval contains their start."""
    hosts = sorted((s for s in spans
                    if span_pid(s) == main_pid and s.name == parent_name),
                   key=lambda s: s.t0)
    out = []
    for span in spans:
        if span.parent is None and span_pid(span) != main_pid:
            host = next((h for h in hosts if h.t0 <= span.t0 <= h.t1), None)
            if host is not None:
                span = span._replace(parent=host.id)
        out.append(span)
    return out


def covered(lo, hi, intervals):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, start, end = 0.0, None, None
    for a, b in clipped:
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans):
    """``{span id: duration minus the union of its children's intervals}``."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.t0, span.t1))
    return {span.id: (span.t1 - span.t0)
            - covered(span.t0, span.t1, children.get(span.id, ()))
            for span in spans}


class Profile:
    """Per-name and per-layer totals over one traced window."""

    def __init__(self, spans, ops, extra=None):
        selfs = self_times(spans)
        self.ops = max(int(ops), 1)
        self.extra = dict(extra or {})
        self.dur, self.self, self.calls = Counter(), Counter(), Counter()
        self.layer_self = Counter()
        for span in spans:
            self.dur[span.name] += span.t1 - span.t0
            self.self[span.name] += selfs[span.id]
            self.calls[span.name] += 1
            self.layer_self[span.layer] += selfs[span.id]
        self.min_self = min(selfs.values(), default=0.0)

    def ms(self, seconds):
        """Seconds summed over the window -> milliseconds per operation."""
        return 1000.0 * seconds / self.ops

    def per_op(self, count):
        return count / self.ops


def _ratio(num, den):
    return num / den if den else 0.0


def _stat(p, group, key):
    return float(p.extra.get(group, {}).get(key, 0))


def _http_ms(p):
    handler = p.dur["server.api"]
    return p.extra["client_ms"] - p.ms(handler) if handler else 0.0


def _worker_idle(p):
    wall = p.dur["runtime.map_tasks"]
    if not wall:
        return 0.0
    return 1.0 - p.dur["pipeline.cell"] / (p.extra.get("workers", 1) * wall)


def _hit_ratio(p):
    hits = _stat(p, "registry", "hits")
    return _ratio(hits, hits + _stat(p, "registry", "fits")
                  + _stat(p, "registry", "waits"))


def _plan_cache_ratio(p):
    hits = _stat(p, "plan_cache", "hits")
    return _ratio(hits, hits + _stat(p, "plan_cache", "misses"))


#: Per-layer metrics: ``(name, unit, fn(profile))``.  Times are ms per
#: operation; ``count`` metrics are per operation.  A workload that never
#: calls into a layer reports 0 for it.
PER_LAYER = tuple(
    [(f"{layer}.self_ms", "ms",
      functools.partial(lambda p, name: p.ms(p.layer_self[name]),
                        name=layer))
     for layer in LAYERS]
    + [
        ("server.http_ms", "ms", _http_ms),
        ("pipeline.run_self_ms", "ms", lambda p: p.ms(p.self["pipeline.run"])),
        ("runtime.map_tasks_ms", "ms",
         lambda p: p.ms(p.dur["runtime.map_tasks"])),
        ("runtime.worker_idle_ratio", "ratio", _worker_idle),
        ("runtime.publish_ms", "ms", lambda p: p.ms(p.dur["runtime.publish"])),
        ("runtime.resolve_ms", "ms", lambda p: p.ms(p.dur["runtime.resolve"])),
        ("evaluation.metrics_ms", "ms",
         lambda p: p.ms(p.dur["evaluation.metrics"])),
        ("methods.fit_deep_ms", "ms",
         lambda p: p.ms(p.dur["methods.fit.deep"])),
        ("methods.fit_deep_self_ms", "ms",
         lambda p: p.ms(p.self["methods.fit.deep"])),
        ("methods.fit_classical_ms", "ms",
         lambda p: p.ms(p.dur["methods.fit.classical"])),
        ("methods.predict_ms", "ms",
         lambda p: p.ms(p.dur["methods.predict_batch"])),
        ("autograd.backward_ms", "ms",
         lambda p: p.ms(p.dur["autograd.backward"])),
        ("autograd.backward_calls", "count",
         lambda p: p.per_op(p.calls["autograd.backward"])),
        ("autograd.step_ms", "ms", lambda p: p.ms(p.dur["autograd.step"])),
        ("serving.registry_self_ms", "ms",
         lambda p: p.ms(p.self["serving.registry"])),
        ("serving.fit_ms", "ms", lambda p: p.ms(p.dur["serving.fit"])),
        ("serving.hit_ratio", "ratio", _hit_ratio),
        ("serving.eviction_ratio", "ratio",
         lambda p: _ratio(_stat(p, "registry", "evictions"),
                          _stat(p, "batcher", "requests"))),
        ("serving.linger_ms", "ms", lambda p: p.ms(p.self["serving.batch"])),
        ("serving.batch_size_mean", "count",
         lambda p: _ratio(_stat(p, "batcher", "requests"),
                          _stat(p, "batcher", "batches"))),
        ("qa.plan_ms", "ms", lambda p: p.ms(p.dur["qa.plan"])),
        ("qa.generate_ms", "ms", lambda p: p.ms(p.dur["qa.generate"])),
        ("qa.answer_ms", "ms", lambda p: p.ms(p.dur["qa.answer"])),
        ("qa.run_self_ms", "ms", lambda p: p.ms(p.self["qa.run"])),
        ("qa.attempts_mean", "count",
         lambda p: float(p.extra.get("attempts_mean", 0.0))),
        ("qa.degraded_ratio", "ratio",
         lambda p: float(p.extra.get("degraded_ratio", 0.0))),
        ("sql.verify_ms", "ms", lambda p: p.ms(p.dur["sql.verify"])),
        ("sql.verify_calls", "count",
         lambda p: p.per_op(p.calls["sql.verify"])),
        ("sql.authorize_ms", "ms", lambda p: p.ms(p.dur["sql.authorize"])),
        ("sql.plan_cache_hit_ratio", "ratio", _plan_cache_ratio),
        ("sql.execute_self_ms", "ms", lambda p: p.ms(p.self["sql.execute"])),
        ("sql.columnar_ms", "ms", lambda p: p.ms(p.dur["sql.columnar"])),
        ("sql.reference_ms", "ms", lambda p: p.ms(p.dur["sql.reference"])),
        ("sql.fallback_ratio", "ratio",
         lambda p: _ratio(p.calls["sql.reference"], p.calls["sql.execute"])),
        ("core.upload_ms", "ms", lambda p: p.ms(p.dur["core.upload"])),
        ("ensemble.recommend_ms", "ms",
         lambda p: p.ms(p.dur["ensemble.recommend"])),
        ("ensemble.recommend_calls", "count",
         lambda p: p.per_op(p.calls["ensemble.recommend"])),
        ("ensemble.encode_ms", "ms", lambda p: p.ms(p.dur["ensemble.encode"])),
        ("ensemble.classifier_ms", "ms",
         lambda p: p.ms(p.dur["ensemble.classifier"])),
        ("ensemble.fit_candidates_ms", "ms",
         lambda p: p.ms(p.dur["runtime.map_tasks_serial"])),
        ("ensemble.weights_ms", "ms",
         lambda p: p.ms(p.dur["ensemble.weights"])),
        ("characteristics.extract_ms", "ms",
         lambda p: p.ms(p.dur["characteristics.extract"])),
        ("trace.overhead_pct", "%",
         lambda p: float(p.extra.get("overhead_pct", 0.0))),
    ])


def per_layer_metrics(profile):
    """``{name: {"value", "unit"}}`` for every :data:`PER_LAYER` metric."""
    return {name: {"value": float(fn(profile)), "unit": unit}
            for name, unit, fn in PER_LAYER}
