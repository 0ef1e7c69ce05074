"""The load generator: one measured run of one workload.

For each run the harness starts a system process (``system.py``) in its
own process group, sends it the seeded inputs, and drives the measured
operations from at most two client threads, checking every output
against the system process's solo in-process reference.  The run ends
with SIGTERM -> ``EasyTimeServer.stop()``; afterwards no process of the
group may remain and no shared-memory segment may have leaked.

Timeline of an untraced run (``--trace 0``)::

    set-up samples (fresh processes) -> system process: set-up, references
    -> warm-up ops -> measured ops (``spec.OPS``) -> SIGTERM

A traced run (``--trace 1``) takes one set-up sample and measures the
operations twice, in alternating untraced and traced sub-windows; it
reports the per-layer metrics of the traced ones plus the tracing
overhead, traced against untraced throughput.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from . import spec, trace

#: Upper bound for any one reply from the system process (set-up and the
#: reference pass included).
REPLY_TIMEOUT_S = 120.0
#: How long the process group may take to empty after the system exits.
GROUP_EXIT_TIMEOUT_S = 10.0


class RunError(RuntimeError):
    """The run could not be measured (the system process failed)."""


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(n, q):
    """Whether ``n`` samples support reporting percentile ``q``: at least
    ten samples lie beyond it.  ``q == 100`` (the slowest sample) is the
    stated exception for workloads whose operations are few and uniform."""
    return q >= 100.0 or int(n * (100.0 - q) / 100.0 + 1e-9) >= 10


# -- the system process -----------------------------------------------------

class SystemProcess:
    """A ``python -m benchmarks.perf.system`` child and its line channel."""

    def __init__(self, workload, mode, inputs, run_dir):
        env = dict(os.environ)
        paths = [str(spec.ROOT / "src"), str(spec.ROOT)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # One string-hash seed for every run: set iteration order (and so
        # the work some code paths do) must not vary between runs.
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.perf.system"],
            cwd=str(spec.ROOT), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0, start_new_session=True)
        self.pgid = self.proc.pid
        self._buf = b""
        self.send({"workload": workload, "mode": mode, "inputs": inputs,
                   "run_dir": str(run_dir)})

    def send(self, payload):
        self.proc.stdin.write((json.dumps(payload) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self):
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RunError("system process silent for "
                               f"{REPLY_TIMEOUT_S:.0f} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RunError("system process exited early "
                                   f"(code {self.proc.poll()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def expect(self, event):
        message = self.recv()
        if message.get("event") != event:
            raise RunError(f"expected {event!r} from the system process, "
                           f"got {str(message)[:200]}")
        return message

    def call(self, cmd):
        self.send({"cmd": cmd})
        return self.recv()

    def stop(self):
        """SIGTERM, wait, and verify the whole process group is gone.

        Returns ``(final message or None, problems)``.
        """
        problems, final = [], None
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGTERM)
            try:
                final = self.expect("stopped")
            except RunError as exc:
                problems.append(f"shutdown: {exc}")
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            problems.append("system process ignored SIGTERM")
        if code != 0:
            problems.append(f"system process exit code {code}")
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        if not _group_gone(self.pgid, GROUP_EXIT_TIMEOUT_S):
            problems.append("processes left behind by the system process")
            _kill_group(self.pgid)
        return final, problems


def _group_gone(pgid, timeout):
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    _group_gone(pgid, GROUP_EXIT_TIMEOUT_S)


# -- clients ----------------------------------------------------------------

def _post(conn, path, body):
    conn.request("POST", path, json.dumps(body),
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _payload(status, raw):
    if status != 200:
        return None
    return json.loads(raw)["data"]


class ForecastClient:
    """``POST /forecast`` for one key; the forecast must equal the solo fit."""

    def __init__(self, refs):
        self.refs = refs

    def request(self, conn, key):
        dataset, method, horizon = key
        return _post(conn, "/forecast", {"dataset": dataset,
                                         "method": method,
                                         "horizon": horizon})

    def check(self, key, reply):
        data = _payload(*reply)
        want = self.refs["|".join(map(str, key))]
        return data is not None and spec.canonical(data["forecast"]) == want, {}


class QAClient:
    """``POST /qa``; everything but provenance must equal solo ``ask``."""

    FIELDS = ("answer", "sql", "table", "ok", "degraded", "issues")

    def __init__(self, refs, cases):
        self.refs = refs
        self.cases = cases

    def request(self, conn, index):
        return _post(conn, "/qa", {"question": self.cases[index]["question"]})

    def check(self, index, reply):
        data = _payload(*reply)
        if data is None:
            return False, {}
        got = spec.canonical({k: data[k] for k in self.FIELDS})
        info = {"attempts": len(data["provenance"].get("attempts", ())),
                "degraded": bool(data["degraded"])}
        return got == self.refs[index], info


class AutomlClient:
    """One S2 session: upload -> recommend (k=5) -> automl (k=3)."""

    def __init__(self, refs, uploads):
        self.refs = refs
        self.uploads = dict(uploads)

    def request(self, conn, name):
        return (_post(conn, "/upload", {"csv": self.uploads[name],
                                        "name": name}),
                _post(conn, "/recommend", {"dataset": name,
                                           "k": spec.RECOMMEND_K}),
                _post(conn, "/automl", {"dataset": name,
                                        "k": spec.AUTOML_K}))

    def check(self, name, replies):
        upload, recommend, automl = (_payload(*r) for r in replies)
        if upload is None or recommend is None or automl is None:
            return False, {}
        want = self.refs[name]
        rec = spec.canonical({"methods": recommend["methods"],
                              "probabilities": recommend["probabilities"]})
        return (rec == want["recommend"]
                and spec.canonical(automl) == want["automl"]), {}


class GridClient:
    """One grid over the process pool, run by the system process."""

    def __init__(self, system):
        self.system = system

    def request(self, _conn, _item):
        return self.system.call("op")

    def check(self, _item, reply):
        return reply["failed"] == 0, {"cells": reply["cells"],
                                      "failed": reply["failed"]}


_STOP = object()


def closed_loop(client, items, connect, n_clients, n_ops):
    """Run ``n_ops`` operations of ``client`` from ``n_clients`` threads.

    Each thread sends its next operation only after the previous reply
    (closed loop).  Returns ``(start, records)`` with one
    ``(t0, t1, ok, info)`` record per operation; only ``request`` is
    timed, the output check runs after the clock stops.
    """
    lock = threading.Lock()
    records = []
    todo = itertools.islice(items, n_ops)
    start = time.perf_counter()

    def more():
        with lock:
            return next(todo, _STOP)

    def run():
        conn = connect()
        try:
            while (item := more()) is not _STOP:
                t0 = time.perf_counter()
                try:
                    reply = client.request(conn, item)
                except (OSError, http.client.HTTPException, RunError) as exc:
                    reply, error = None, exc
                else:
                    error = None
                t1 = time.perf_counter()
                ok, info = False, {"error": repr(error)}
                if error is None:
                    try:
                        ok, info = client.check(item, reply)
                    except (KeyError, TypeError, ValueError) as exc:
                        info = {"error": f"malformed reply: {exc!r}"}
                with lock:
                    records.append((t0, t1, ok, info))
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=run, name=f"perf-client-{i}")
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, records


class Window:
    """Throughput, latency and failures over one or more measured segments.

    An operation is a request, question or session; for ``grid`` it is a
    cell, and a grid that raised counts all its cells as failed.  Each
    segment lasts until its last operation ends.
    """

    def __init__(self, workload):
        self.workload = workload
        self.records = []
        self.elapsed = 0.0

    def add(self, start, records):
        self.records += records
        self.elapsed += max((t1 for _, t1, _, _ in records),
                            default=start) - start

    @property
    def ops(self):
        if self.workload == "grid":
            return sum(info.get("cells", spec.GRID_CELLS)
                       for *_, info in self.records)
        return len(self.records)

    @property
    def failed(self):
        if self.workload == "grid":
            return sum(info.get("failed", spec.GRID_CELLS)
                       for *_, info in self.records)
        return sum(1 for _, _, ok, _ in self.records if not ok)

    @property
    def latencies_ms(self):
        return [(t1 - t0) * 1000.0 for t0, t1, _, _ in self.records]

    @property
    def ops_per_s(self):
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


# -- one run ------------------------------------------------------------------

def _require_program():
    if not (spec.ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {spec.ROOT / 'src'} "
                         "is missing")
    if str(spec.ROOT / "src") not in sys.path:
        sys.path.insert(0, str(spec.ROOT / "src"))


def _client_for(workload, system, ready, inputs):
    refs = ready["refs"]
    if workload == "grid":
        return GridClient(system)
    if workload == "forecast":
        return ForecastClient(refs)
    if workload == "qa":
        return QAClient(refs, inputs["cases"])
    return AutomlClient(refs, inputs["uploads"])


def _items(workload, seed, inputs):
    """The endless seeded operation stream of one workload."""
    if workload == "grid":
        return itertools.repeat(None)
    if workload == "forecast":
        return spec.forecast_stream(seed)
    if workload == "qa":
        return spec.passes(range(len(inputs["cases"])), seed, "qa")
    names = [name for name, _ in inputs["uploads"]]
    return spec.passes(names, seed, "automl")


def _add_deltas(totals, before, after):
    """Accumulate numeric stat deltas ``after - before`` per group."""
    for group, values in after.items():
        into = totals.setdefault(group, {})
        for key, value in values.items():
            if isinstance(value, (int, float)):
                into[key] = into.get(key, 0) + value - before[group][key]


def run_workload(workload, seed, trace_on=False, smoke=False):
    """Measure one workload once; returns the run record (a dict).

    A traced run measures the operations twice, untraced and traced, in
    alternating sub-windows (:data:`spec.TRACE_PAIRS` pairs), so slow
    drift in machine speed cancels out of the tracing overhead.
    """
    _require_program()
    from repro.runtime import leaked_segments

    n_ops = spec.planned_ops(workload, smoke)
    sub_ops = max(1, n_ops // spec.TRACE_PAIRS)
    setup_samples = 1 if (smoke or trace_on) else spec.SETUP_SAMPLES
    run_dir = spec.HERE / ".runs" / f"{workload}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    leaked_before = set(leaked_segments())
    inputs = spec.workload_inputs(workload, seed)
    problems, setup_s, stats = [], [], {}
    warm, window, traced = (Window(workload) for _ in range(3))
    final = profile = None
    try:
        for _ in range(setup_samples - 1):
            probe = SystemProcess(workload, "setup", inputs, run_dir)
            try:
                setup_s.append(probe.expect("setup")["setup_s"])
            finally:
                problems += probe.stop()[1]
        system = SystemProcess(workload, "serve", inputs, run_dir)
        try:
            ready = system.expect("ready")
            setup_s.insert(0, ready["setup_s"])
            problems += [f"reference: {e}" for e in ready["errors"]]
            client = _client_for(workload, system, ready, inputs)
            items = _items(workload, seed, inputs)

            def connect():
                if not ready["url"]:
                    return None
                host, port = ready["url"].split("//", 1)[1].split(":")
                return http.client.HTTPConnection(host, int(port),
                                                  timeout=60)

            def measure(into, count):
                into.add(*closed_loop(client, items, connect,
                                      spec.CLIENTS[workload], count))

            if spec.WARMUP_OPS[workload]:
                measure(warm, spec.WARMUP_OPS[workload])
            if not trace_on:
                measure(window, n_ops)
            for _ in range(spec.TRACE_PAIRS if trace_on else 0):
                measure(window, sub_ops)
                system.call("trace_on")
                before = system.call("stats")
                measure(traced, sub_ops)
                _add_deltas(stats, before, system.call("stats"))
                system.call("trace_off")
        finally:
            final, stop_problems = system.stop()
            problems += stop_problems
        if trace_on:
            profile = _profile(workload, run_dir, ready["pid"], window,
                               traced, stats)
            if profile.min_self < -1e-9:
                problems.append(f"negative self time {profile.min_self}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass                      # another run is using it
    leaked = sorted(set(leaked_segments()) - leaked_before)
    if leaked:
        problems.append(f"leaked shared-memory segments: {leaked}")

    attempted = warm.ops + window.ops + traced.ops
    failed = warm.failed + window.failed + traced.failed
    if trace_on:
        metrics = trace.per_layer_metrics(profile)
    else:
        metrics = _end_to_end(workload, window, setup_s, final, problems)
    tail_q = spec.TAIL_PERCENTILE[workload]
    return {
        "workload": workload, "seed": seed, "ops": n_ops,
        "trace": int(trace_on), "smoke": smoke,
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "digest": ready["digest"], "problems": problems,
        "details": {
            "op_unit": spec.OP_UNIT[workload],
            "window_s": window.elapsed, "samples": len(window.records),
            "tail_percentile": tail_q,
            "tail_supported": supported_tail(len(window.records), tail_q),
            "setup_samples_s": setup_s,
            "untraced_ops_per_s": window.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s if trace_on else None,
        },
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
    }


def _end_to_end(workload, window, setup_s, final, problems):
    lat = window.latencies_ms
    if not lat:
        problems.append("no operation completed in the window")
        lat = [0.0]
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": window.ops_per_s,
        "p50_ms": percentile(lat, 50.0),
        "tail_ms": percentile(lat, spec.TAIL_PERCENTILE[workload]),
        "rss_mb": final["rss_mb"] if final else 0.0,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in spec.END_TO_END.items()}


def _profile(workload, run_dir, system_pid, untraced, traced, stats):
    spans = trace.load_spans(run_dir)
    if workload == "grid":
        spans = trace.adopt(spans, system_pid, "runtime.map_tasks")
    extra = dict(stats)
    extra["workers"] = spec.GRID_WORKERS
    extra["client_ms"] = statistics.fmean(traced.latencies_ms or [0.0])
    if untraced.ops_per_s:
        extra["overhead_pct"] = 100.0 * (
            1.0 - traced.ops_per_s / untraced.ops_per_s)
    infos = [info for *_, info in traced.records if "attempts" in info]
    if infos:
        extra["attempts_mean"] = statistics.fmean(
            i["attempts"] for i in infos)
        extra["degraded_ratio"] = statistics.fmean(
            1.0 if i["degraded"] else 0.0 for i in infos)
    return trace.Profile(spans, traced.ops, extra)


# -- output -------------------------------------------------------------------

def print_run(record):
    """``workload metric value unit`` lines for one run."""
    for name, metric in record["metrics"].items():
        print(f"{record['workload']} {name} {metric['value']!r} "
              f"{metric['unit']}")
    print(f"{record['workload']} digest {record['digest']}")
    for problem in record["problems"]:
        print(f"{record['workload']} PROBLEM {problem}")
    details = record["details"]
    if not record["trace"] and not details["tail_supported"]:
        print(f"{record['workload']} NOTE {details['samples']} samples leave "
              f"fewer than ten beyond p{details['tail_percentile']:g}")


def result_line(records):
    """The final JSON line: one workload as-is, several name-prefixed."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    return json.dumps({"correct": all(r["correct"] for r in records),
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": sum(r["failed"] for r in records),
                       "metrics": metrics})


def append_label(label, records):
    """Add run records to ``results/BENCH_<label>.json``."""
    path = spec.HERE / "results" / f"BENCH_{label}.json"
    path.parent.mkdir(exist_ok=True)
    data = {"label": label, "runs": []}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path
