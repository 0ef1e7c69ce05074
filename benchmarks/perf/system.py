"""The system process: build, reference, serve, stop on SIGTERM.

Started by the harness as ``python -m benchmarks.perf.system`` in a new
process group.  It reads one job line (workload, mode, inputs) on stdin,
builds the system through its public API, and reports the set-up time.

* ``mode="setup"`` stops there: one more set-up sample, then a clean exit.
* ``mode="serve"`` computes every reference output solo and in-process,
  then answers commands (``op`` runs one grid, ``stats``, ``trace_on``,
  ``trace_off``) while the server workloads take HTTP load.  SIGTERM
  writes the spans (when tracing) and stops the server through
  ``EasyTimeServer.stop()``.

Protocol lines go to the original stdout; the program's own prints are
redirected to stderr so they cannot corrupt the channel.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
import warnings

from .spec import (AUTOML_K, GRID_METHODS, GRID_WORKERS, QA_STORE_SERIES,
                   RECOMMEND_K, SYSTEM_SEED, canonical)


class _Terminate(Exception):
    """Raised by the SIGTERM handler to unwind into the shutdown path."""


def _on_sigterm(signum, frame):
    raise _Terminate()


def plain(obj):
    """The JSON value the server would send for ``obj`` (numpy -> Python)."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    return obj


def peak_rss_mb(include_children=False):
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def mismatches(expected, rows):
    """Grid cells whose row differs from the reference (missing ones too)."""
    got = [canonical(plain(row)) for row in rows]
    return (sum(1 for a, b in zip(got, expected) if a != b)
            + abs(len(expected) - len(got)))


def _finite(values):
    return all(math.isfinite(v) for v in values)


class GridSystem:
    """S1: ``EasyTime.one_click`` over a process pool with the data plane."""

    def __init__(self, inputs):
        from repro.core import EasyTime
        from repro.pipeline import loads_config
        self.et = EasyTime(seed=SYSTEM_SEED)
        self.config = loads_config(json.dumps(inputs["config"]))
        self.config.datasets.resolve(self.et.registry)
        self.expected = None

    def reference(self):
        """One serial run; every later pool run must match it bitwise."""
        table = self.et.one_click(self.config)
        rows = table.to_rows(include_timings=False)
        self.expected = [canonical(plain(row)) for row in rows]
        n_cells = len(GRID_METHODS) * len(
            self.config.datasets.resolve(self.et.registry))
        errors = []
        if table.status_counts() != {"ok": n_cells}:
            errors.append(f"serial reference: {table.status_counts()}")
        scores = [v for row in rows for k, v in row.items()
                  if k.startswith("metric_")]
        if not _finite(scores):
            errors.append("serial reference has non-finite scores")
        return self.expected, errors

    def op(self):
        table = self.et.one_click(self.config, workers=GRID_WORKERS)
        return {"cells": len(self.expected),
                "failed": mismatches(self.expected,
                                     table.to_rows(include_timings=False))}

    def stats(self):
        return {}

    def stop(self):
        pass

    def rss_mb(self):
        return peak_rss_mb(include_children=True)


class ServerSystem:
    """The HTTP server around an ``EasyTime(seed=7)``.

    ``qa`` and ``automl`` need the offline phase (``setup()``: knowledge
    base, TS2Vec, classifier); ``/forecast`` never touches it, so the
    forecast system skips it and its set-up time is the server's own.
    """

    def __init__(self, workload, inputs):
        from repro.core import EasyTime
        from repro.server import EasyTimeServer
        self.workload = workload
        self.inputs = inputs
        self.et = EasyTime(seed=SYSTEM_SEED)
        if workload != "forecast":
            self.et.setup()
        self.kb = None
        if workload == "qa":
            from repro.knowledge import build_synthetic_knowledge
            from repro.qa import QAEngine
            self.kb = build_synthetic_knowledge(n_series=QA_STORE_SERIES)
            self.et.qa = QAEngine(self.kb)
        self.server = EasyTimeServer(self.et)
        self.url = self.server.start()

    def reference(self):
        return getattr(self, f"_reference_{self.workload}")()

    def _reference_forecast(self):
        from repro.methods.registry import create
        errors, refs = [], {}
        for dataset, method, horizon in self.inputs["keys"]:
            series = self.et.choose_dataset(dataset)
            model = create(method)
            for attr, value in (("lookback", 96), ("horizon", horizon)):
                if hasattr(model, attr):
                    setattr(model, attr, value)
            model.fit(series.values)
            forecast = plain(model.predict(series.values, horizon))
            if len(forecast) != horizon or not _finite(
                    v for row in forecast for v in row):
                errors.append(f"bad reference forecast for {dataset}/"
                              f"{method}/h{horizon}")
            refs[f"{dataset}|{method}|{horizon}"] = canonical(forecast)
        return refs, errors

    def _reference_qa(self):
        from repro.qa import QAEngine
        from repro.qa.certification import evaluate_case
        engine = QAEngine(self.kb)
        refs, errors = [], []
        for case in self.inputs["cases"]:
            verdict = evaluate_case(engine, case)
            if not verdict["correct"]:
                errors.append(f"corpus case {case['id']}: "
                              f"{verdict['problems']}")
            response = engine.ask(case["question"])
            refs.append(canonical(plain({
                "answer": response.answer, "sql": response.sql,
                "table": response.table(), "ok": response.ok,
                "degraded": response.degraded, "issues": response.issues})))
        return refs, errors

    def _reference_automl(self):
        refs, errors = {}, []
        for name, csv in self.inputs["uploads"]:
            series = self.et.upload_dataset(csv, name=name)
            rec = self.et.recommend(series, k=RECOMMEND_K)
            forecast, info = self.et.automl(series, k=AUTOML_K)
            column = plain(forecast[:, 0])
            weights = list(info["weights"].values())
            if not _finite(column) or abs(sum(weights) - 1.0) > 1e-6:
                errors.append(f"bad reference ensemble for {name}")
            refs[name] = {
                "recommend": canonical(plain({
                    "methods": list(rec.methods),
                    "probabilities": list(rec.probabilities)})),
                "automl": canonical(plain({"forecast": column,
                                           "info": info}))}
        return refs, errors

    def stats(self):
        api = self.server.api
        out = {"registry": api.models.stats(), "batcher": api.batcher.stats()}
        if self.kb is not None and self.kb.db.plan_cache is not None:
            out["plan_cache"] = self.kb.db.plan_cache.stats()
        return out

    def stop(self):
        self.server.stop()

    def rss_mb(self):
        return peak_rss_mb()


def build(workload, inputs):
    """Construct the system; returns ``(system, seconds from import on)``."""
    t0 = time.perf_counter()
    if workload == "grid":
        system = GridSystem(inputs)
    else:
        system = ServerSystem(workload, inputs)
    return system, time.perf_counter() - t0


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    signal.signal(signal.SIGTERM, _on_sigterm)

    def send(payload):
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    system = recorder = None
    try:
        job = json.loads(sys.stdin.readline())
        system, setup_s = build(job["workload"], job["inputs"])
        if job["mode"] == "setup":
            send({"event": "setup", "setup_s": setup_s})
            return
        refs, errors = system.reference()
        send({"event": "ready", "setup_s": setup_s,
              "url": getattr(system, "url", None), "refs": refs,
              "errors": errors, "pid": os.getpid(),
              "digest": hashlib.sha256(
                  canonical(refs).encode()).hexdigest()})
        for line in iter(sys.stdin.readline, ""):
            cmd = json.loads(line)["cmd"]
            if cmd == "op":
                send(system.op())
            elif cmd == "stats":
                send(system.stats())
            elif cmd == "trace_on":
                if recorder is None:
                    from .trace import Recorder
                    recorder = Recorder(job["run_dir"])
                recorder.install()
                send({"tracing": True})
            elif cmd == "trace_off":
                recorder.uninstall()
                send({"tracing": False})
            else:
                send({"error": f"unknown command {cmd!r}"})
    except _Terminate:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if recorder is not None:
            recorder.flush()
        if system is not None:
            system.stop()
            send({"event": "stopped", "rss_mb": system.rss_mb()})


if __name__ == "__main__":
    main()
