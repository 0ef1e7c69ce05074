"""Unit tests for the run logger."""

import json

import pytest

from repro.pipeline import RunLogger


class TestRunLogger:
    def test_records_events(self):
        logger = RunLogger()
        logger.info("start", tag="x")
        logger.warning("slow")
        logger.error("bad", code=7)
        assert len(logger) == 3
        assert logger.events[0]["event"] == "start"
        assert logger.events[2]["code"] == 7

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            RunLogger().log("e", level="critical")

    def test_filter_by_event_prefix_and_level(self):
        logger = RunLogger()
        logger.info("run.start")
        logger.info("run.cell")
        logger.error("run.cell")
        logger.info("other")
        assert len(logger.filter(event="run.")) == 3
        assert len(logger.filter(level="error")) == 1
        assert len(logger.filter(event="run.cell", level="info")) == 1

    def test_filter_matches_names_not_string_prefixes(self):
        logger = RunLogger()
        for event in ("run.cell", "run.cell_failed", "run.cell_quarantined",
                      "run.cell.retry"):
            logger.info(event)

        def names(event):
            return [e["event"] for e in logger.filter(event=event)]

        assert names("run.cell") == ["run.cell", "run.cell.retry"]
        assert len(names("run")) == 4
        assert names("run.cell ") == []

    def test_child_prefixes_and_shares_buffer(self):
        logger = RunLogger()
        child = logger.child("kb")
        child.info("ingest")
        assert logger.events[0]["event"] == "kb.ingest"
        grandchild = child.child("sql")
        grandchild.info("query")
        assert logger.events[1]["event"] == "kb.sql.query"

    def test_timer_records_duration_and_status(self):
        logger = RunLogger()
        with logger.timer("work", label="a"):
            pass
        event = logger.events[0]
        assert event["status"] == "ok"
        assert event["seconds"] >= 0
        assert event["label"] == "a"

    def test_timer_marks_failures(self):
        logger = RunLogger()
        with pytest.raises(RuntimeError):
            with logger.timer("work"):
                raise RuntimeError("x")
        assert logger.events[0]["status"] == "failed"

    def test_file_mirroring_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = RunLogger(path=path)
        logger.info("one", n=1)
        logger.info("two", n=2)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["n"] == 2

    def test_child_writes_to_same_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = RunLogger(path=path)
        logger.child("sub").info("x")
        assert "sub.x" in path.read_text()


class TestProfileSummary:
    def test_aggregates_profile_events(self):
        logger = RunLogger()
        logger.info("run.profile", method="a", series="s1",
                    fit_seconds=1.0, predict_seconds=0.25,
                    metrics_seconds=0.05)
        logger.info("run.profile", method="b", series="s1",
                    fit_seconds=2.0, predict_seconds=0.75)
        logger.info("run.cell", method="a", series="s1", seconds=99.0)
        summary = logger.profile_summary()
        assert summary["tasks"] == 2
        assert summary["phases"]["fit"] == 3.0
        assert summary["phases"]["predict"] == 1.0
        assert summary["phases"]["metrics"] == 0.05
        assert summary["total_seconds"] == pytest.approx(4.05)

    def test_empty_when_not_profiled(self):
        logger = RunLogger()
        logger.info("run.start")
        summary = logger.profile_summary(spans=[])
        assert summary == {"tasks": 0, "total_seconds": 0.0, "phases": {}}

    def test_falls_back_to_phase_spans(self):
        logger = RunLogger()
        logger.info("run.start")
        spans = [{"name": "phase.fit", "trace_id": "t", "span_id": "a",
                  "parent_id": "p1", "start_time": 0.0, "end_time": 2.0},
                 {"name": "phase.predict", "trace_id": "t", "span_id": "b",
                  "parent_id": "p1", "start_time": 2.0, "end_time": 2.5}]
        summary = logger.profile_summary(spans=spans)
        assert summary["tasks"] == 1
        assert summary["phases"] == {"fit": 2.0, "predict": 0.5}

    def test_profile_events_take_precedence_over_spans(self):
        logger = RunLogger()
        logger.info("run.profile", fit_seconds=1.0)
        spans = [{"name": "phase.fit", "trace_id": "t", "span_id": "a",
                  "parent_id": "p", "start_time": 0.0, "end_time": 99.0}]
        assert logger.profile_summary(spans=spans)["phases"]["fit"] == 1.0


class TestFileSinkLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        logger = RunLogger(path=tmp_path / "run.jsonl")
        logger.info("x")
        logger.close()
        logger.close()  # second close must not raise
        logger.info("y")  # sink reopens lazily on the next write
        logger.close()
        assert len((tmp_path / "run.jsonl").read_text().splitlines()) == 2

    def test_child_close_closes_shared_sink(self, tmp_path):
        from repro.pipeline.logging import _OPEN_SINKS
        logger = RunLogger(path=tmp_path / "run.jsonl")
        child = logger.child("sub")
        child.info("x")
        assert logger._sink in _OPEN_SINKS
        child.close()
        assert logger._sink not in _OPEN_SINKS
        assert logger._sink._fh is None

    def test_atexit_hook_closes_leaked_sinks(self, tmp_path):
        from repro.pipeline.logging import _OPEN_SINKS, _close_open_sinks
        logger = RunLogger(path=tmp_path / "run.jsonl")
        logger.info("leaked")  # never closed by the caller
        assert logger._sink in _OPEN_SINKS
        _close_open_sinks()
        assert logger._sink._fh is None
        assert logger._sink not in _OPEN_SINKS
