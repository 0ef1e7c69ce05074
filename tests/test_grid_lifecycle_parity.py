"""One grid lifecycle: a fleet run records cells exactly like a serial run.

The single-host wave loop and the distributed coordinator both drive the
runner's prepare → record → finish path, so the same grid — including a
cell that fails — must leave the same table, the same replayed journal
and the same ``run.cell`` / ``run.cell_failed`` event counts whichever
scheduler ran it.
"""

import threading

import pytest

from repro.pipeline import (BenchmarkConfig, DatasetSpec, MethodSpec,
                            RunLogger, run_one_click)
from repro.resilience import (FaultPlan, FaultRule, JournalState, RunJournal,
                              disarm, injected)
from repro.runtime.distributed import Coordinator, Worker


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def _config():
    return BenchmarkConfig(
        methods=(MethodSpec("naive"), MethodSpec("mean")),
        datasets=DatasetSpec(suite="univariate", per_domain=1, length=256,
                             domains=("traffic", "stock")),
        strategy="fixed", lookback=48, horizon=12, metrics=("mae",),
        tag="parity").validate()


def _plan():
    # Every fit of ``mean`` raises, on every retry, on either scheduler.
    return FaultPlan([FaultRule(site="strategy.fit", match="mean")], seed=3)


def _serial(config, journal_path):
    logger = RunLogger()
    with RunJournal(journal_path) as journal, injected(_plan()):
        table = run_one_click(config, logger=logger, journal=journal)
    return table, logger


def _fleet(config, journal_path):
    logger = RunLogger()
    with RunJournal(journal_path) as journal, injected(_plan()):
        coordinator = Coordinator(config, logger=logger, journal=journal,
                                  heartbeat_s=0.5)
        host, port = coordinator.address
        worker = Worker(host, port, name="w0")
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        table = coordinator.serve()
        thread.join(timeout=30)
        assert not thread.is_alive()
    return table, logger


def _events(logger, name):
    return [e for e in logger.events if e["event"] == name]


def _replay(path):
    state = JournalState.load(path)
    completed = {key: (entry["fingerprint"], entry["result"].scores)
                 for key, entry in state.completed.items()}
    failed = {key: {k: record.get(k) for k in
                    ("event", "fingerprint", "error", "error_type",
                     "attempts")}
              for key, record in state.failed.items()}
    return state.config_fingerprint, completed, failed


def test_fleet_and_serial_record_the_same_outcomes(tmp_path):
    config = _config()
    serial, serial_log = _serial(config, tmp_path / "serial.jsonl")
    fleet, fleet_log = _fleet(config, tmp_path / "fleet.jsonl")

    assert len(serial) == 2 and len(serial.failures) == 2
    assert fleet.to_rows(include_timings=False) \
        == serial.to_rows(include_timings=False)
    assert fleet.failure_rows() == serial.failure_rows()
    assert _replay(tmp_path / "fleet.jsonl") \
        == _replay(tmp_path / "serial.jsonl")
    for name in ("run.cell", "run.cell_failed"):
        assert len(_events(fleet_log, name)) == len(_events(serial_log, name))
    assert len(_events(serial_log, "run.cell_failed")) == 2
    # The fleet's events name the worker that computed each cell.
    assert {e["worker"] for e in _events(fleet_log, "run.cell")} == {"w0"}
