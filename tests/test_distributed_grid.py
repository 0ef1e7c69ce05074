"""End-to-end distributed grid: loopback fleets, chaos, determinism.

The distributed PR's acceptance tests.  Every scenario runs a real
:class:`Coordinator` against real :class:`Worker` loops over loopback
TCP and asserts the run-level invariants:

* the distributed table is bitwise-identical to a serial run
  (``to_rows(include_timings=False)``);
* a torn result frame (a worker dying mid-send) is discarded and its
  cells requeued — zero lost cells;
* ``SIGKILL`` of one of three worker *processes* mid-grid loses
  nothing and changes no bits;
* the remote artifact tier makes a warm rerun execute zero cells;
* injected ``dist.*`` faults behave like connection loss: the worker
  reconnects (deterministic backoff) and the grid completes.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.methods import METHODS, NaiveForecaster, register
from repro.pipeline import (BenchmarkConfig, DatasetSpec, MethodSpec,
                            run_one_click)
from repro.resilience import (JOURNAL_NAME, FaultPlan, FaultRule,
                              JournalState, RunJournal, disarm, injected)
from repro.runtime import ArtifactCache, blas
from repro.runtime.distributed import (ConnectionClosed, Coordinator,
                                       ReconnectPolicy, Worker,
                                       WorkerRefused, encode_frame,
                                       grid_status, recv_message,
                                       send_message)


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()
    # Coordinators given a run_dir enable the process-wide flight
    # recorder; reset it so state never leaks between tests.
    from repro import telemetry
    telemetry.disable_recorder()
    telemetry.arm_blackbox(None)


class SlowForecaster(NaiveForecaster):
    name = "test_dist_slow"

    def fit(self, train, val=None):
        time.sleep(0.08)
        return super().fit(train, val)


@pytest.fixture(scope="module", autouse=True)
def _registered():
    register(SlowForecaster.name, lambda **kw: SlowForecaster(),
             "statistical", "naive plus a sleep")
    yield
    METHODS.pop(SlowForecaster.name, None)


def small_config(**overrides):
    kwargs = dict(
        methods=(MethodSpec("naive"), MethodSpec("mean"),
                 MethodSpec("drift")),
        datasets=DatasetSpec(suite="univariate", per_domain=1, length=256,
                             domains=("traffic", "stock")),
        strategy="fixed", lookback=48, horizon=12, metrics=("mae", "mse"),
        tag="dist")
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs).validate()


def rows(table):
    return table.to_rows(include_timings=False)


def _start_serve(coordinator, cancel=None, progress=None):
    """Run ``coordinator.serve`` on a thread; returns (thread, holder)."""
    holder = {}

    def _run():
        try:
            holder["table"] = coordinator.serve(progress=progress,
                                                cancel=cancel)
        except BaseException as exc:  # noqa: BLE001 - surfaced by tests
            holder["error"] = exc

    thread = threading.Thread(target=_run, daemon=True, name="dist-serve")
    thread.start()
    return thread, holder


def _finish(thread, holder, timeout=90):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "coordinator did not settle the grid"
    assert "error" not in holder, repr(holder.get("error"))
    return holder["table"]


def _join_workers(threads, timeout=30):
    """Wait for worker loops to see ``done`` and exit.

    Leaving a worker thread alive would let it poke the *next* test's
    coordinator state (armed fault plans are global).
    """
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), f"worker {thread.name} never exited"


def _run_grid(config, n_workers=2, coord_kwargs=None, worker_kwargs=None,
              progress=None):
    """One full loopback run with in-thread workers."""
    coordinator = Coordinator(config, heartbeat_s=0.5,
                              **(coord_kwargs or {}))
    host, port = coordinator.address
    thread, holder = _start_serve(coordinator, progress=progress)
    workers = [Worker(host, port, name=f"w{i}", **(worker_kwargs or {}))
               for i in range(n_workers)]
    threads = [threading.Thread(target=w.run, daemon=True, name=w.name)
               for w in workers]
    for t in threads:
        t.start()
    table = _finish(thread, holder)
    _join_workers(threads)
    return table, coordinator, workers


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestBitwiseIdentity:
    def test_distributed_matches_serial_bitwise(self):
        config = small_config()
        serial = rows(run_one_click(config))
        seen_states = []

        def progress(result):
            seen_states.append(grid_status()["state"])

        table, coordinator, workers = _run_grid(config, n_workers=2,
                                                progress=progress)
        assert rows(table) == serial
        assert not table.failures
        # Both workers actually participated (lease_batch=2 over 6
        # cells leaves work for the second puller).
        # Tail stealing may race a cell onto both workers (first result
        # wins), so the computed total can exceed the grid size.
        assert sum(w.stats["computed"] for w in workers) >= 6
        # The /grid route sees a live run while cells stream in and a
        # final snapshot afterwards.
        assert set(seen_states) == {"running"}
        status = grid_status()
        assert status["state"] == "idle"
        assert status["last"]["results"] == 6

    def test_single_worker_fleet_is_also_identical(self):
        config = small_config()
        serial = rows(run_one_click(config))
        table, _, workers = _run_grid(config, n_workers=1)
        assert rows(table) == serial
        assert workers[0].stats["computed"] == 6


# ---------------------------------------------------------------------------
# Remote artifact tier
# ---------------------------------------------------------------------------

class TestRemoteCacheTier:
    def test_warm_rerun_executes_zero_cells(self, tmp_path):
        config = small_config()
        serial = rows(run_one_click(config))
        first, _, _ = _run_grid(
            config, coord_kwargs={"cache": ArtifactCache(
                directory=tmp_path / "remote")})
        assert rows(first) == serial

        # A fresh coordinator over the same remote tier satisfies the
        # whole grid during prepare: no worker ever connects.
        warm = Coordinator(config, heartbeat_s=0.5,
                           cache=ArtifactCache(directory=tmp_path / "remote"))
        thread, holder = _start_serve(warm)
        table = _finish(thread, holder, timeout=30)
        assert rows(table) == serial
        assert warm.scheduler.snapshot()["cells"] == 0

    def test_worker_local_cache_feeds_fresh_coordinator(self, tmp_path):
        config = small_config()
        serial = rows(run_one_click(config))
        local = ArtifactCache(directory=tmp_path / "local")
        first, _, workers = _run_grid(
            config,
            coord_kwargs={"cache": ArtifactCache(directory=tmp_path / "a")},
            worker_kwargs={"cache": local})
        assert rows(first) == serial
        # Tail stealing may duplicate a cell (first result wins), so the
        # computed total is >= the grid size, never below it.
        assert sum(w.stats["computed"] for w in workers) >= 6

        # The coordinator's remote tier is brand new, but the surviving
        # worker-side cache serves every cell without recomputing.
        second, coordinator, workers = _run_grid(
            config,
            coord_kwargs={"cache": ArtifactCache(directory=tmp_path / "b")},
            worker_kwargs={"cache": ArtifactCache(
                directory=tmp_path / "local")})
        assert rows(second) == serial
        assert sum(w.stats["computed"] for w in workers) == 0
        assert sum(w.stats["local_hits"] for w in workers) >= 6
        # ...and the local hits were written through to the new remote
        # tier, so a third coordinator needs no workers at all.
        third = Coordinator(config, heartbeat_s=0.5,
                            cache=ArtifactCache(directory=tmp_path / "b"))
        thread, holder = _start_serve(third)
        assert rows(_finish(thread, holder, timeout=30)) == serial
        assert third.scheduler.snapshot()["cells"] == 0


# ---------------------------------------------------------------------------
# Torn frames
# ---------------------------------------------------------------------------

class TestTornFrames:
    def test_torn_result_frame_discarded_and_cells_requeued(self):
        config = small_config()
        serial = rows(run_one_click(config))
        coordinator = Coordinator(config, heartbeat_s=0.5)
        host, port = coordinator.address
        thread, holder = _start_serve(coordinator)

        # A hand-rolled client takes a lease, then dies mid-send of a
        # result frame — the classic SIGKILL-during-write.
        sock = socket.create_connection((host, port), timeout=10)
        try:
            send_message(sock, {"type": "hello", "worker": "evil",
                                "blas": blas.fingerprint()})
            assert recv_message(sock)["type"] == "welcome"
            send_message(sock, {"type": "request", "worker": "evil",
                                "n": 2})
            grant = recv_message(sock)
            assert grant["type"] == "grant" and grant["tasks"]
            frame = encode_frame({"type": "result", "worker": "evil",
                                  "key": grant["tasks"][0].key, "ok": True,
                                  "value": None})
            sock.sendall(frame[:len(frame) // 2])
        finally:
            sock.close()

        worker = Worker(host, port, name="honest")
        worker_thread = threading.Thread(target=worker.run, daemon=True,
                                         name=worker.name)
        worker_thread.start()
        table = _finish(thread, holder)
        _join_workers([worker_thread])
        # The torn frame was counted and discarded — its garbage value
        # never reached the merge — and the dead client's lease was
        # requeued, so the honest worker completed every cell.
        assert coordinator._stats["torn_frames"] == 1
        assert coordinator.scheduler.counts["requeued"] >= 2
        assert not table.failures
        assert rows(table) == serial


# ---------------------------------------------------------------------------
# Injected dist.* faults — connection-loss semantics
# ---------------------------------------------------------------------------

class TestInjectedFaults:
    def test_lease_fault_drops_connection_and_worker_reconnects(self):
        config = small_config()
        serial = rows(run_one_click(config))
        plan = FaultPlan([FaultRule(site="dist.lease", kind="error",
                                    rate=1.0, times=1)], seed=0)
        with injected(plan):
            table, _, workers = _run_grid(config, n_workers=1)
        assert plan.stats().get(("dist.lease", "error")) == 1
        assert sum(w.stats["reconnects"] for w in workers) >= 1
        assert not table.failures
        assert rows(table) == serial

    def test_recv_fault_mid_grant_is_recovered(self):
        config = small_config()
        serial = rows(run_one_click(config))
        plan = FaultPlan([FaultRule(site="dist.recv", kind="error",
                                    match="grant", rate=1.0, times=1)],
                         seed=0)
        with injected(plan):
            table, coordinator, workers = _run_grid(config, n_workers=2)
        assert plan.stats().get(("dist.recv", "error")) == 1
        assert not table.failures
        assert rows(table) == serial
        # The granted-but-never-received cells were requeued when the
        # faulted worker dropped its connection.
        assert coordinator.scheduler.counts["requeued"] >= 1


# ---------------------------------------------------------------------------
# Cancel → journal → resume
# ---------------------------------------------------------------------------

class TestCancelResume:
    def test_cancelled_grid_resumes_to_serial_rows(self, tmp_path):
        config = small_config(
            methods=(MethodSpec("naive"), MethodSpec("test_dist_slow")),
            datasets=DatasetSpec(suite="univariate", per_domain=2,
                                 length=256, domains=("traffic", "stock")))
        serial = rows(run_one_click(config))
        journal_path = tmp_path / JOURNAL_NAME
        cancel = threading.Event()

        def progress(result):
            cancel.set()  # pull the plug after the first settled cell

        with RunJournal(journal_path) as journal:
            coordinator = Coordinator(config, heartbeat_s=0.2,
                                      journal=journal)
            host, port = coordinator.address
            thread, holder = _start_serve(coordinator, cancel=cancel,
                                          progress=progress)
            worker = Worker(host, port, name="w0")
            worker_thread = threading.Thread(target=worker.run, daemon=True)
            worker_thread.start()
            partial = _finish(thread, holder)
            _join_workers([worker_thread])
        assert {f.status for f in partial.failures} <= {"cancelled"}
        done_before = len(partial)
        assert 1 <= done_before < 8

        # Resume from the journal: completed cells are reused, the
        # cancelled remainder executes, the union matches serial.
        state = JournalState.load(journal_path)
        assert len(state) == done_before
        with RunJournal(journal_path) as journal:
            resumed = Coordinator(config, heartbeat_s=0.5, journal=journal,
                                  resume=state)
            host, port = resumed.address
            thread, holder = _start_serve(resumed)
            worker = Worker(host, port, name="w1")
            worker_thread = threading.Thread(target=worker.run, daemon=True)
            worker_thread.start()
            table = _finish(thread, holder)
            _join_workers([worker_thread])
        assert not table.failures
        assert rows(table) == serial
        assert worker.stats["computed"] == 8 - done_before


# ---------------------------------------------------------------------------
# Reconnect policy
# ---------------------------------------------------------------------------

class TestReconnectPolicy:
    def test_schedule_is_deterministic_and_capped(self):
        policy = ReconnectPolicy(base_s=0.1, cap_s=5.0, seed="w0")
        schedule = [policy.delay(a) for a in range(1, 12)]
        again = [ReconnectPolicy(base_s=0.1, cap_s=5.0, seed="w0").delay(a)
                 for a in range(1, 12)]
        assert schedule == again
        # Exponential then capped, always jittered into [0.5, 1.0) of
        # the raw backoff.
        for attempt, delay in enumerate(schedule, start=1):
            raw = min(5.0, 0.1 * 2 ** (attempt - 1))
            assert raw * 0.5 <= delay < raw
        assert max(schedule) < 5.0

    def test_different_seeds_never_synchronise(self):
        a = ReconnectPolicy(seed="w0")
        b = ReconnectPolicy(seed="w1")
        assert [a.delay(i) for i in range(1, 9)] != \
            [b.delay(i) for i in range(1, 9)]

    def test_rejects_degenerate_backoff(self):
        with pytest.raises(ValueError):
            ReconnectPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            ReconnectPolicy(base_s=1.0, cap_s=0.5)


# ---------------------------------------------------------------------------
# SIGKILL chaos — real worker processes over loopback
# ---------------------------------------------------------------------------

class TestFleetObservability:
    """PR 8 acceptance: one merged trace + fleet-total metrics."""

    def test_merged_trace_and_fleet_metric_totals(self):
        from repro import telemetry
        telemetry.disable()
        scope = telemetry.enable()
        try:
            config = small_config(
                methods=(MethodSpec("naive"), MethodSpec("mean"),
                         MethodSpec("drift"),
                         MethodSpec(SlowForecaster.name)),
                datasets=DatasetSpec(suite="univariate", per_domain=2,
                                     length=256,
                                     domains=("traffic", "stock")))
            table, coordinator, workers = _run_grid(config, n_workers=3)
            assert len(table) == 16

            # One trace tree: every worker's dist.cell span shares the
            # coordinator root's trace_id and parents directly under it.
            spans = telemetry.spans()
            roots = [s for s in spans if s.name == "dist.run"]
            assert len(roots) == 1
            root = roots[0]
            cells = [s for s in spans if s.name == "dist.cell"]
            assert len(cells) == 16
            assert {s.trace_id for s in cells} == {root.trace_id}
            assert {s.parent_id for s in cells} == {root.span_id}
            # The 16 slow-ish cells outlive the ramp-up: all three
            # workers provably computed under the one root span.
            assert {s.attributes["worker"]
                    for s in cells} == {"w0", "w1", "w2"}

            # The chrome trace labels lanes by the worker attribute.
            # In-thread workers all share the coordinator's pid, so the
            # loopback fleet collapses into a single labeled lane; the
            # multi-process CLI smoke covers one-lane-per-worker.
            trace = telemetry.chrome_trace(spans)
            lanes = {e["pid"]: e["args"]["name"]
                     for e in trace["traceEvents"]
                     if e.get("ph") == "M"
                     and e["name"] == "process_name"}
            assert set(lanes) == {os.getpid()}
            assert set(lanes.values()) <= {"coordinator", "w0", "w1", "w2"}

            # Fleet metric totals: what GET /metrics renders equals the
            # sum of per-worker counters, which equals worker stats.
            counter = scope.metrics.get("repro_dist_worker_cells_total")
            by_worker = {}
            for labels, value in counter.labeled_samples():
                by_worker[labels["worker"]] = \
                    by_worker.get(labels["worker"], 0.0) + value
            assert by_worker == {w.name: float(w.stats["cells"])
                                 for w in workers}
            assert sum(by_worker.values()) == 16.0
            exposition = telemetry.render_prometheus(scope.metrics)
            assert "repro_dist_worker_cells_total" in exposition
            assert "repro_dist_lease_latency_seconds" in exposition

            # /grid status: lease-latency percentiles, queue depth and
            # steal counts are first-class.
            status = coordinator.status()
            assert status["queue_depth"] == 0
            assert status["lease_seconds"]["count"] == 16
            for key in ("p50", "p95", "p99", "mean"):
                assert status["lease_seconds"][key] >= 0.0
            assert set(status["fleet"]) <= {"w0", "w1", "w2"}
            assert status["steals"] == \
                coordinator.scheduler.counts["stolen"]
        finally:
            telemetry.disable()


def _cli_env():
    import os
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSigkillChaos:
    def test_sigkill_one_of_three_workers_loses_nothing(self, tmp_path):
        config = small_config(
            methods=(MethodSpec("naive"), MethodSpec("mean"),
                     MethodSpec("drift"), MethodSpec("seasonal_naive")),
            datasets=DatasetSpec(suite="univariate", per_domain=2,
                                 length=256, domains=("traffic", "stock")))
        serial = rows(run_one_click(config))
        run_dir = tmp_path / "run"
        coordinator = Coordinator(config, heartbeat_s=0.5, run_dir=run_dir)
        host, port = coordinator.address
        thread, holder = _start_serve(coordinator)

        # The doomed worker computes slowly (an injected delay at every
        # cell) so it is guaranteed to hold leased, unfinished cells
        # when the SIGKILL lands.
        plan = tmp_path / "slow.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "executor.task", "kind": "delay", "delay_s": 0.3,
             "rate": 1.0}]}), encoding="utf-8")
        base = [sys.executable, "-m", "repro", "bench",
                "--worker", f"{host}:{port}"]
        doomed = subprocess.Popen(base + ["--inject", str(plan)],
                                  env=_cli_env(),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        doomed_name = f"{socket.gethostname()}-{doomed.pid}"
        survivors = []

        def _leased():
            if coordinator.scheduler is None:  # still preparing
                return 0
            workers = coordinator.scheduler.snapshot()["workers"]
            return workers.get(doomed_name, {}).get("leased", 0)

        try:
            # The doomed worker must provably hold a lease before the
            # survivors (and the SIGKILL) arrive, or a fast grid could
            # finish without ever exercising lease recovery.
            deadline = time.monotonic() + 120
            while _leased() == 0:
                assert time.monotonic() < deadline, "doomed never leased"
                assert "error" not in holder, repr(holder.get("error"))
                time.sleep(0.05)
            survivors = [subprocess.Popen(base, env=_cli_env(),
                                          stdout=subprocess.DEVNULL,
                                          stderr=subprocess.DEVNULL)
                         for _ in range(2)]
            while coordinator._stats["results"] < 2 or _leased() == 0:
                assert time.monotonic() < deadline, "grid never ramped"
                time.sleep(0.05)
            doomed.kill()  # SIGKILL while it provably holds cells
            assert doomed.wait(timeout=30) == -9
            table = _finish(thread, holder, timeout=120)
            for proc in survivors:
                proc.wait(timeout=60)
        finally:
            for proc in [doomed, *survivors]:
                if proc.poll() is None:
                    proc.kill()
        # The killed worker's cells were reassigned: zero lost cells,
        # zero failures, zero drift from serial.
        assert coordinator.scheduler.counts["requeued"] >= 1
        assert len(table) == 16
        assert not table.failures
        assert rows(table) == serial

        # Flight-recorder postmortem (PR 8 acceptance): SIGKILL leaves
        # no handler a chance, yet the blackbox identifies the dead
        # worker and the exact cells that died with it.
        blackbox = run_dir / "blackbox.jsonl"
        assert blackbox.exists()
        events = [json.loads(line)
                  for line in blackbox.read_text().splitlines()]
        postmortems = [e for e in events
                       if e.get("event") == "worker.postmortem"
                       and e.get("worker") == doomed_name]
        assert postmortems, "no postmortem for the SIGKILLed worker"
        pm = postmortems[0]
        assert pm["reason"] in ("disconnect", "lease_expired")
        assert pm["requeued_keys"], "postmortem lost the in-flight cells"
        assert all(key in coordinator._pending_by_key
                   for key in pm["requeued_keys"])
        # The worker's heartbeat-shipped recorder tail made it across:
        # events recorded inside the dead process, naming its cells.
        shipped = [e for e in events if e.get("pid") == doomed.pid]
        assert any(e.get("event") == "dist.cell.start" for e in shipped)
        # The coordinator's own ring closes the file at shutdown.
        assert any(e.get("event") == "blackbox.dump"
                   and e.get("reason") == "run_end" for e in events)


# ---------------------------------------------------------------------------
# BLAS handshake — a worker with another BLAS never computes a cell
# ---------------------------------------------------------------------------

class TestBlasHandshake:
    def test_other_blas_is_refused_and_granted_no_lease(self, monkeypatch):
        config = small_config()
        serial = rows(run_one_click(config))
        coordinator = Coordinator(config, heartbeat_s=0.5)
        host, port = coordinator.address
        thread, holder = _start_serve(coordinator)

        # A hand-rolled hello gets the typed refusal, then a closed socket.
        sock = socket.create_connection((host, port), timeout=10)
        try:
            send_message(sock, {"type": "hello", "worker": "alien",
                                "blas": "OpenBLAS 0.0; core=Zen; threads=1"})
            reply = recv_message(sock)
            assert reply["type"] == "refused" and reply["reason"] == "blas"
            assert reply["expected"] == blas.fingerprint()
            with pytest.raises(ConnectionClosed):
                recv_message(sock)
        finally:
            sock.close()

        # The worker loop raises at once instead of reconnecting.
        monkeypatch.setattr(blas, "fingerprint", lambda: "other BLAS")
        alien = Worker(host, port, name="alien-loop")
        with pytest.raises(WorkerRefused, match="other BLAS"):
            alien.run()
        monkeypatch.undo()
        assert alien.stats["connects"] == 0
        assert alien.stats["reconnects"] == 0
        assert coordinator._stats["refused"] == 2

        honest = Worker(host, port, name="honest")
        worker_thread = threading.Thread(target=honest.run, daemon=True,
                                         name=honest.name)
        worker_thread.start()
        table = _finish(thread, holder)
        _join_workers([worker_thread])
        assert rows(table) == serial
        granted = {e["worker"]
                   for e in coordinator.logger.filter(event="run.cell")}
        assert granted == {"honest"}
        assert coordinator.scheduler.counts["requeued"] == 0

    def test_cli_worker_exits_nonzero_on_another_core_type(self):
        """``OPENBLAS_CORETYPE`` selects the kernels, so it is part of
        the fingerprint: a worker with another core is refused and
        exits 1, one with the coordinator's core is welcome."""
        import platform
        core = blas.fingerprint().partition("; core=")[2].split(";")[0]
        if platform.machine() not in ("x86_64", "AMD64") or not core \
                or core == "Nehalem":
            pytest.skip("needs the bundled x86-64 OpenBLAS")
        config = small_config()
        coordinator = Coordinator(config, heartbeat_s=0.5)
        host, port = coordinator.address
        thread, holder = _start_serve(coordinator)
        base = [sys.executable, "-m", "repro", "bench",
                "--worker", f"{host}:{port}"]

        def worker(coretype):
            return subprocess.run(base, env=dict(_cli_env(),
                                                 OPENBLAS_CORETYPE=coretype),
                                  capture_output=True, text=True,
                                  timeout=120)

        refused = worker("Nehalem")
        assert refused.returncode == 1, refused.stderr
        assert "refused" in refused.stderr
        assert "core=Nehalem" in refused.stderr
        assert "reconnect" not in refused.stderr
        welcome = worker(core)
        assert welcome.returncode == 0, welcome.stderr
        table = _finish(thread, holder)
        assert rows(table) == rows(run_one_click(config))
        assert coordinator._stats["refused"] == 1
