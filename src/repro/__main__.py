"""Command-line interface: ``python -m repro <command>``.

Commands mirror the demo's capabilities for shell users:

* ``methods``                        — list the method catalogue;
* ``characteristics <csv>``          — profile a CSV series;
* ``bench <config.json> [--workers N] [--cache-dir DIR]`` — one-click
  evaluation (parallel grid + artifact cache);
* ``recommend <csv> [-k K]``         — offline phase + top-k methods;
* ``forecast <csv> [--horizon H]``   — automated-ensemble forecast;
* ``ask "<question>"``               — one Q&A turn (synthetic store);
* ``debug <run-dir>``                — postmortem a run directory:
  pretty-print the flight-recorder ``blackbox.jsonl`` (last-N wide
  events, worker postmortems), the merged Chrome trace and the result
  summary;
* ``serve [--port P]``               — start the JSON HTTP API (exposes
  Prometheus metrics at ``/metrics`` and per-job Chrome traces at
  ``/trace/<job_id>``).  Serving-tier knobs: ``--http-workers`` pre-forks
  SO_REUSEPORT worker processes, ``--registry-size``/``--registry-ttl-s``
  bound the warm-model registry, ``--batch-window-ms``/``--batch-max``
  tune ``/forecast`` microbatching.

``bench --trace-dir DIR`` enables telemetry and writes ``trace.json``
(loadable in the Chrome trace viewer / Perfetto) plus ``spans.jsonl``;
``--metrics-json PATH`` dumps the final metrics-registry snapshot.

Resilience (PR 4): ``bench --run-dir DIR`` write-ahead-journals every
cell and saves ``config.json`` + ``results.json``; after a crash (even
``SIGKILL``) or Ctrl-C, ``bench --resume DIR`` completes only the
remaining cells.  ``--inject plan.json`` arms deterministic fault
injection, ``--deadline-s`` bounds wall-clock, ``--quarantine-after``
sets the per-method circuit breaker, and Ctrl-C flushes partial
results, prints the resume command and exits 130.

Distributed (PR 7): ``bench config.json --coordinator HOST:PORT`` serves
the grid over TCP to workers started with ``bench --worker HOST:PORT``
(no config needed on the worker side); ``--cache-dir`` doubles as the
fleet's remote artifact tier on the coordinator and as a node-local
cache on workers, and ``--run-dir``/``--resume`` give the coordinator
the same crash-safe journaling as a single-host run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .characteristics import extract
from .datasets import load_csv
from .methods.registry import list_methods, method_info
from .pipeline import load_config, run_one_click
from .report import format_ranking, format_table, sparkline

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="EasyTime: time series forecasting "
                                  "made easy (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods", help="list the method catalogue")

    p_chars = sub.add_parser("characteristics",
                             help="profile a CSV time series")
    p_chars.add_argument("csv", type=Path)

    p_bench = sub.add_parser("bench", help="one-click evaluation")
    p_bench.add_argument("config", type=Path, nargs="?", default=None,
                         help="benchmark config JSON/TOML (optional with "
                              "--resume, which reads the run directory's "
                              "saved config.json)")
    p_bench.add_argument("--metric", default="mae")
    p_bench.add_argument("--report", type=Path, default=None,
                         help="write an HTML report here")
    p_bench.add_argument("--workers", type=int, default=1,
                         help="parallel workers for the evaluation grid")
    p_bench.add_argument("--executor", default=None,
                         choices=("serial", "thread", "process"),
                         help="executor backend (default: process when "
                              "--workers > 1, else serial)")
    p_bench.add_argument("--cache-dir", type=Path, default=None,
                         help="artifact-cache directory (reruns reuse "
                              "previously computed cells)")
    p_bench.add_argument("--no-dataplane", action="store_true",
                         help="disable the zero-copy shared-memory data "
                              "plane for process grids (tasks carry full "
                              "arrays again; escape hatch for platforms "
                              "where shm/memmap both misbehave)")
    p_bench.add_argument("--profile", action="store_true",
                         help="record per-phase wall-clock (data prep, fit, "
                              "predict, metrics) and print a breakdown")
    p_bench.add_argument("--dtype", default=None,
                         choices=("float32", "float64"),
                         help="override the config's compute dtype for the "
                              "deep forecasters")
    p_bench.add_argument("--trace-dir", type=Path, default=None,
                         help="enable telemetry and write trace.json "
                              "(Chrome trace viewer) + spans.jsonl here")
    p_bench.add_argument("--metrics-json", type=Path, default=None,
                         help="enable telemetry and write the final metrics "
                              "snapshot as JSON here")
    p_bench.add_argument("--run-dir", type=Path, default=None,
                         help="run directory: saves config.json, a "
                              "write-ahead journal.jsonl and results.json, "
                              "making the run resumable after a crash")
    p_bench.add_argument("--resume", type=Path, default=None,
                         metavar="RUN_DIR",
                         help="resume a crashed or interrupted run from its "
                              "run directory; journaled-complete cells with "
                              "matching fingerprints are not re-executed")
    p_bench.add_argument("--inject", type=Path, default=None, metavar="PLAN",
                         help="arm a deterministic fault-injection plan "
                              "(JSON); plans without a seed inherit the "
                              "config's seed")
    # The coordinator has no failure policy, so a deadline cannot apply.
    single_host = p_bench.add_mutually_exclusive_group()
    single_host.add_argument("--deadline-s", type=float, default=None,
                             help="wall-clock budget in seconds: when it "
                                  "expires no further cells are scheduled "
                                  "and the run returns partial results "
                                  "(single-host runs only)")
    p_bench.add_argument("--quarantine-after", type=int, default=3,
                         help="circuit breaker: consecutive failures before "
                              "a method's remaining cells are quarantined "
                              "(0 disables; default %(default)s); applies "
                              "only to single-host runs")
    single_host.add_argument("--coordinator", default=None,
                             metavar="HOST:PORT",
                             help="serve the grid to TCP workers instead "
                                  "of computing locally; combine with "
                                  "--run-dir/--resume and --cache-dir (the "
                                  "remote artifact tier) as usual")
    p_bench.add_argument("--worker", default=None, metavar="HOST:PORT",
                         help="run as a grid worker attached to a "
                              "coordinator (no config needed; --cache-dir "
                              "becomes the node-local artifact cache)")
    p_bench.add_argument("--lease-batch", type=int, default=None,
                         help="cells granted per worker pull (coordinator "
                              "default 2; workers default to the "
                              "coordinator's advertised batch)")
    p_bench.add_argument("--heartbeat-s", type=float, default=10.0,
                         help="worker heartbeat interval; a worker silent "
                              "for 3x this has its leased cells reassigned "
                              "(default %(default)s)")

    p_rec = sub.add_parser("recommend", help="recommend methods for a CSV")
    p_rec.add_argument("csv", type=Path)
    p_rec.add_argument("-k", type=int, default=5)
    p_rec.add_argument("--per-domain", type=int, default=2,
                       help="knowledge-base size per domain")

    p_fc = sub.add_parser("forecast",
                          help="automated-ensemble forecast for a CSV")
    p_fc.add_argument("csv", type=Path)
    p_fc.add_argument("--horizon", type=int, default=24)
    p_fc.add_argument("-k", type=int, default=3)
    p_fc.add_argument("--per-domain", type=int, default=2)

    p_ask = sub.add_parser("ask", help="ask the benchmark a question")
    p_ask.add_argument("question")
    p_ask.add_argument("--series", type=int, default=500,
                       help="synthetic knowledge-base size")
    p_ask.add_argument("--max-repairs", type=int, default=2,
                       help="repair-loop budget after a failed attempt")
    p_ask.add_argument("--json", action="store_true",
                       help="emit the full response (answer, attempts, "
                            "provenance) as JSON")

    p_debug = sub.add_parser("debug",
                             help="postmortem a run directory: pretty-print "
                                  "the flight-recorder blackbox and trace")
    p_debug.add_argument("run_dir", type=Path,
                         help="run directory (bench --run-dir) holding "
                              "blackbox.jsonl / trace.json")
    p_debug.add_argument("-n", "--events", type=int, default=20,
                         help="blackbox events to show (default "
                              "%(default)s)")

    p_serve = sub.add_parser("serve", help="start the JSON HTTP API")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--per-domain", type=int, default=2)
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="background-job slots for /jobs endpoints")
    p_serve.add_argument("--http-workers", type=int, default=1,
                         help="HTTP worker processes; > 1 pre-forks "
                              "SO_REUSEPORT workers on the same port")
    p_serve.add_argument("--registry-size", type=int, default=32,
                         help="warm-model registry capacity "
                              "(0 disables warm reuse)")
    p_serve.add_argument("--registry-ttl-s", type=float, default=None,
                         help="seconds a warm model stays servable "
                              "(default: forever)")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="microbatch linger window for /forecast "
                              "(0 disables coalescing)")
    p_serve.add_argument("--batch-max", type=int, default=8,
                         help="max coalesced requests per predict_batch")
    return parser


def _cmd_methods(args, out):
    rows = [[m, method_info(m)["category"], method_info(m)["description"]]
            for m in list_methods()]
    print(format_table(["method", "category", "description"], rows),
          file=out)
    return 0


def _cmd_characteristics(args, out):
    series = load_csv(args.csv)
    chars = extract(series)
    print(f"{series.name}: length={series.length} "
          f"channels={series.n_channels}", file=out)
    print(sparkline(series.values[:, 0], width=60), file=out)
    for axis, value in chars.as_dict().items():
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"  {axis:13s} {text}", file=out)
    return 0


def _bench_setup(args):
    """Resolve the bench run directory, config and resume state.

    Returns ``(config, run_dir, resume_state)``; raises ``SystemExit``
    on contradictory or incomplete arguments.
    """
    import dataclasses

    from .resilience import JOURNAL_NAME, JournalState

    if args.resume is not None and args.run_dir is not None \
            and args.resume != args.run_dir:
        raise SystemExit("--resume and --run-dir point at different "
                         "directories; --resume already names the run dir")
    resume_state = None
    if args.resume is not None:
        run_dir = args.resume
        config_path = args.config or run_dir / "config.json"
        if not config_path.exists():
            raise SystemExit(f"cannot resume: no config at {config_path} "
                             "(pass the config path explicitly)")
        config = load_config(config_path)
        resume_state = JournalState.load(run_dir / JOURNAL_NAME)
    else:
        if args.config is None:
            raise SystemExit("bench needs a config (or --resume RUN_DIR)")
        config = load_config(args.config)
        run_dir = args.run_dir
    if args.dtype:
        config = dataclasses.replace(config, dtype=args.dtype)
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        if args.resume is None:
            (run_dir / "config.json").write_text(config.dumps(),
                                                 encoding="utf-8")
    return config, run_dir, resume_state


def _parse_endpoint(text):
    """``HOST:PORT`` (or ``:PORT``) → ``(host, port)``."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"invalid endpoint {text!r}; expected HOST:PORT")
    return host or "127.0.0.1", int(port)


def _cmd_bench_worker(args, out):
    """``bench --worker HOST:PORT``: one grid worker, no config needed."""
    from .resilience import FaultPlan
    from .resilience import arm as arm_faults
    from .resilience import disarm as disarm_faults
    from .runtime import ArtifactCache
    from .runtime.distributed import Worker, WorkerRefused

    host, port = _parse_endpoint(args.worker)
    if args.run_dir is not None:
        # A worker given a run dir keeps its own blackbox there: SIGTERM
        # and unhandled exceptions dump locally (SIGKILL postmortems are
        # the coordinator's job, from heartbeat-shipped tails).
        from . import telemetry
        args.run_dir.mkdir(parents=True, exist_ok=True)
        telemetry.enable_recorder()
        telemetry.arm_blackbox(args.run_dir / telemetry.BLACKBOX_NAME)
        telemetry.install_crash_hooks()
    cache = ArtifactCache(directory=args.cache_dir) if args.cache_dir \
        else None
    plan = None
    if args.inject is not None:
        raw = json.loads(args.inject.read_text(encoding="utf-8"))
        plan = FaultPlan.from_dict(raw, seed=raw.get("seed", 0))
        arm_faults(plan)
    worker = Worker(host, port, cache=cache, lease_batch=args.lease_batch)
    try:
        stats = worker.run()
    except WorkerRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    finally:
        if plan is not None:
            disarm_faults()
    print(f"worker {worker.name}: {stats['computed']} computed, "
          f"{stats['local_hits'] + stats['remote_hits']} cache hits, "
          f"{stats['failures']} failures, "
          f"{stats['reconnects']} reconnects", file=out)
    return 0


def _cmd_bench(args, out):
    from .pipeline import RunInterrupted, RunLogger
    from .resilience import JOURNAL_NAME, FailurePolicy, FaultPlan, RunJournal
    from .resilience import arm as arm_faults
    from .resilience import disarm as disarm_faults
    from .runtime import ArtifactCache

    if args.worker:
        return _cmd_bench_worker(args, out)
    config, run_dir, resume_state = _bench_setup(args)
    observing = args.trace_dir is not None or args.metrics_json is not None
    if observing or run_dir is not None:
        from . import telemetry
        if observing:
            telemetry.enable()
        # Any run with a directory gets a flight recorder: the ring is
        # cheap, and a crash dump is only possible if events exist.
        telemetry.enable_recorder()
        if run_dir is not None:
            telemetry.arm_blackbox(run_dir / telemetry.BLACKBOX_NAME)
            telemetry.install_crash_hooks()
    cache = ArtifactCache(directory=args.cache_dir) if args.cache_dir \
        else None
    journal = RunJournal(run_dir / JOURNAL_NAME) if run_dir is not None \
        else None
    quarantine = args.quarantine_after if args.quarantine_after > 0 else None
    policy = FailurePolicy(quarantine_after=quarantine,
                           deadline_s=args.deadline_s) \
        if quarantine or args.deadline_s else None
    plan = None
    if args.inject is not None:
        raw = json.loads(args.inject.read_text(encoding="utf-8"))
        # A plan without its own seed inherits the run seed, keeping the
        # fault schedule as reproducible as the results themselves.
        plan = FaultPlan.from_dict(raw, seed=raw.get("seed", config.seed))
        arm_faults(plan)
    logger = RunLogger()
    table = None
    code = 0
    try:
        if args.coordinator:
            from .runtime.distributed import Coordinator
            host, port = _parse_endpoint(args.coordinator)
            coordinator = Coordinator(
                config, host=host, port=port, cache=cache,
                journal=journal, resume=resume_state, logger=logger,
                lease_batch=args.lease_batch or 2,
                heartbeat_s=args.heartbeat_s, run_dir=run_dir)
            addr = coordinator.address
            print(f"coordinator on {addr[0]}:{addr[1]} — start workers "
                  f"with: python -m repro bench --worker "
                  f"{addr[0]}:{addr[1]}", file=out, flush=True)
            table = coordinator.serve()
        else:
            table = run_one_click(config, logger=logger,
                                  executor=args.executor,
                                  workers=args.workers,
                                  cache=cache, profile=args.profile,
                                  journal=journal, resume=resume_state,
                                  policy=policy,
                                  dataplane=False if args.no_dataplane
                                  else None)
    except RunInterrupted as exc:
        table = exc.table
        code = 130
    except KeyboardInterrupt:
        code = 130
    finally:
        if plan is not None:
            disarm_faults()
        if journal is not None:
            journal.close()
    if run_dir is not None and not args.coordinator:
        # Coordinator runs dump their own ring in _shutdown; single-host
        # runs flush here so `repro debug` always has a blackbox.
        telemetry.dump_blackbox(reason="interrupt" if code == 130
                                else "run_end")
    if run_dir is not None and table is not None:
        results = {"rows": table.to_rows(),
                   "failures": table.failure_rows(),
                   "status_counts": table.status_counts()}
        (run_dir / "results.json").write_text(
            json.dumps(results, indent=2, default=str), encoding="utf-8")
    if code == 130:
        done = len(table) if table is not None else 0
        print(f"interrupted — {done} results flushed", file=sys.stderr)
        if run_dir is not None:
            print(f"resume with: python -m repro bench --resume {run_dir}",
                  file=sys.stderr)
        else:
            print("(no --run-dir: the partial run cannot be resumed)",
                  file=sys.stderr)
        return code
    if observing:
        _export_telemetry(args, out)
    print(f"{len(table)} results", file=out)
    counts = table.status_counts()
    if table.failures:
        summary = ", ".join(f"{status}: {count}"
                            for status, count in sorted(counts.items()))
        print(f"cell outcomes — {summary}", file=out)
        from .report import format_failures
        print(format_failures(table), file=out)
    if plan is not None:
        fired = plan.stats()
        total = sum(fired.values())
        detail = ", ".join(f"{site}/{kind}: {n}"
                           for (site, kind), n in sorted(fired.items()))
        print(f"faults injected: {total}" + (f" ({detail})" if detail
                                             else ""), file=out)
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
              f"({stats.get('disk_entries', 0)} on disk)", file=out)
    print(format_ranking(table.mean_scores(args.metric), args.metric),
          file=out)
    if args.profile:
        from .report import format_profile
        print(format_profile(logger.profile_summary()), file=out)
        _print_dataplane(logger, out)
    if args.report:
        from .report import html_report
        args.report.write_text(html_report(table, metric=args.metric),
                               encoding="utf-8")
        print(f"report written to {args.report}", file=out)
    return 0


def _print_dataplane(logger, out):
    """One ``--profile`` line summarising the zero-copy data plane."""
    events = logger.filter(event="run.dataplane")
    if not events:
        print("dataplane: off", file=out)
        return
    from .runtime import attach_stats
    event = events[-1]
    attach = attach_stats()
    print(f"dataplane: {event.get('backend')} — "
          f"{event.get('arrays', 0)} arrays + {event.get('blobs', 0)} "
          f"blobs in {event.get('segments', 0)} segments "
          f"({event.get('segment_bytes', 0)} bytes), "
          f"{event.get('publish_dedup', 0)} publishes deduplicated; "
          f"attach cache {attach['hits']} hits / "
          f"{attach['misses']} misses", file=out)


def _export_telemetry(args, out):
    """Write the collected spans/metrics per the bench telemetry flags."""
    from . import telemetry

    collected = telemetry.spans()
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = args.trace_dir / "trace.json"
        telemetry.write_chrome_trace(collected, trace_path)
        with telemetry.SpanSink(args.trace_dir / "spans.jsonl") as sink:
            sink.write_all(collected)
        print(f"trace ({len(collected)} spans) written to {trace_path}",
              file=out)
    if args.metrics_json is not None:
        registry = telemetry.get_metrics()
        snapshot = registry.snapshot() if registry is not None else {}
        args.metrics_json.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_json.write_text(json.dumps(snapshot, indent=2,
                                                sort_keys=True),
                                     encoding="utf-8")
        print(f"metrics snapshot written to {args.metrics_json}", file=out)


def _read_jsonl(path):
    """Tolerantly parse a JSONL file: bad lines are skipped, not fatal.

    A blackbox written around a crash can end in a torn line; a
    postmortem tool that refuses to read a 99%-good file is useless.
    """
    records = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _cmd_debug(args, out):
    """``repro debug <run-dir>``: render the blackbox + trace postmortem."""
    import time as _time

    from .telemetry import BLACKBOX_NAME

    run_dir = args.run_dir
    if not run_dir.is_dir():
        raise SystemExit(f"{run_dir} is not a run directory")
    found = False

    blackbox = run_dir / BLACKBOX_NAME
    if blackbox.exists():
        found = True
        events = _read_jsonl(blackbox)
        dumps = [e for e in events if e.get("event") == "blackbox.dump"]
        postmortems = [e for e in events
                       if e.get("event") == "worker.postmortem"]
        print(f"blackbox: {len(events)} events, {len(dumps)} dump(s), "
              f"{len(postmortems)} worker postmortem(s)", file=out)
        for pm in postmortems:
            keys = pm.get("requeued_keys") or []
            inflight = pm.get("inflight")
            print(f"  worker {pm.get('worker')} lost "
                  f"({pm.get('reason')}): in-flight="
                  f"{inflight if inflight else '-'}, "
                  f"requeued {len(keys)} cell(s)"
                  + (f" [{', '.join(keys[:4])}"
                     + (", ...]" if len(keys) > 4 else "]")
                     if keys else ""), file=out)
        rows = []
        skip = {"event", "ts", "pid", "seq"}
        for event in events[-max(args.events, 0):]:
            ts = event.get("ts")
            clock = (_time.strftime("%H:%M:%S", _time.localtime(ts))
                     + f".{int((ts % 1) * 1000):03d}"
                     if isinstance(ts, (int, float)) else "-")
            detail = " ".join(f"{k}={event[k]}" for k in event
                              if k not in skip)
            rows.append([clock, event.get("pid", "-"),
                         event.get("event", "?"),
                         detail[:72] + ("..." if len(detail) > 72 else "")])
        if rows:
            print(format_table(["time", "pid", "event", "detail"], rows),
                  file=out)
    else:
        print(f"no {BLACKBOX_NAME} in {run_dir}", file=out)

    trace_path = next((p for p in (run_dir / "trace.json",
                                   run_dir / "telemetry" / "trace.json")
                       if p.exists()), None)
    if trace_path is not None:
        found = True
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except ValueError:
            trace = {}
        trace_events = trace.get("traceEvents", [])
        spans = [e for e in trace_events if e.get("ph") == "X"]
        lanes = {e.get("pid"): e.get("args", {}).get("name")
                 for e in trace_events if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        by_pid = {}
        for span in spans:
            by_pid[span.get("pid")] = by_pid.get(span.get("pid"), 0) + 1
        print(f"trace: {len(spans)} spans across {len(by_pid)} "
              f"process(es) ({trace_path})", file=out)
        for pid in sorted(by_pid):
            label = lanes.get(pid) or "?"
            print(f"  pid {pid} ({label}): {by_pid[pid]} spans", file=out)

    results = run_dir / "results.json"
    if results.exists():
        found = True
        try:
            counts = json.loads(results.read_text(
                encoding="utf-8")).get("status_counts", {})
        except ValueError:
            counts = {}
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"results: {summary or 'empty'}", file=out)

    if not found:
        print(f"nothing to debug in {run_dir} (no blackbox, trace or "
              "results)", file=out)
        return 1
    return 0


def _offline_system(per_domain):
    from .core import EasyTime
    system = EasyTime(per_domain=per_domain)
    print("running offline phase (benchmark + TS2Vec + classifier)...",
          file=sys.stderr)
    return system.setup()


def _cmd_recommend(args, out):
    system = _offline_system(args.per_domain)
    series = load_csv(args.csv)
    rec = system.recommend(series, k=args.k)
    for axis, value in rec.characteristics.as_dict().items():
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"  {axis:13s} {text}", file=out)
    rows = [[name, f"{p:.3f}"]
            for name, p in zip(rec.methods, rec.probabilities)]
    print(format_table(["method", "probability"], rows), file=out)
    return 0


def _cmd_forecast(args, out):
    system = _offline_system(args.per_domain)
    series = load_csv(args.csv)
    forecast, info = system.automl(series, k=args.k, horizon=args.horizon)
    print(json.dumps({
        "forecast": [round(float(v), 6) for v in forecast[:, 0]],
        "weights": info["weights"],
        "candidates": info["used"],
    }, indent=2), file=out)
    return 0


def _cmd_ask(args, out):
    from .knowledge import build_synthetic_knowledge
    from .qa import QAEngine
    qa = QAEngine(build_synthetic_knowledge(n_series=args.series),
                  max_repair_attempts=args.max_repairs)
    response = qa.ask(args.question)
    if args.json:
        print(json.dumps({
            "question": response.question, "answer": response.answer,
            "sql": response.sql, "ok": response.ok,
            "degraded": response.degraded, "kb": response.kb_name,
            "issues": response.issues,
            "suggestions": response.suggestions,
            "table": response.table(), "chart": response.chart,
            "provenance": response.provenance,
        }, indent=2), file=out)
        return 0 if response.ok else 1
    print(f"SQL: {response.sql}", file=out)
    print(f"A: {response.answer}", file=out)
    if response.rows:
        print(format_table(response.columns,
                           [list(r) for r in response.rows[:10]]), file=out)
    if response.degraded and response.suggestions:
        print("Suggestions:", file=out)
        for suggestion in response.suggestions:
            print(f"  - {suggestion}", file=out)
    return 0 if response.ok else 1


def _cmd_serve(args, out):  # pragma: no cover - blocking loop
    import time as _time

    from .server import EasyTimeServer
    system = _offline_system(args.per_domain)
    server = EasyTimeServer(system, host=args.host, port=args.port,
                            job_workers=args.job_workers,
                            http_workers=args.http_workers,
                            registry_size=args.registry_size,
                            registry_ttl_s=args.registry_ttl_s,
                            batch_window_ms=args.batch_window_ms,
                            batch_max=args.batch_max)
    server.start()
    mode = (f"{args.http_workers} pre-fork workers"
            if args.http_workers > 1 else "threaded")
    print(f"serving on {server.address} ({mode})", file=out)
    try:
        while True:
            _time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


_COMMANDS = {
    "methods": _cmd_methods,
    "characteristics": _cmd_characteristics,
    "bench": _cmd_bench,
    "recommend": _cmd_recommend,
    "forecast": _cmd_forecast,
    "ask": _cmd_ask,
    "debug": _cmd_debug,
    "serve": _cmd_serve,
}


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
