"""Unit tests for the command-line interface."""

import io
import json

import numpy as np
import pytest

from repro.__main__ import build_parser, main


@pytest.fixture()
def csv_file(tmp_path):
    t = np.arange(240)
    values = 2 * np.sin(2 * np.pi * t / 24) + 0.01 * t
    path = tmp_path / "series.csv"
    path.write_text("v\n" + "\n".join(f"{v:.5f}" for v in values))
    return path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_coordinator_refuses_deadline(self, tmp_path, capsys):
        # The coordinator has no failure policy, so a deadline would be
        # silently ignored; argparse refuses the pair instead.
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path / "config.json"),
                  "--coordinator", "127.0.0.1:0", "--deadline-s", "5"])
        assert exc.value.code == 2
        assert "--deadline-s" in capsys.readouterr().err


class TestCommands:
    def test_methods(self):
        code, text = run_cli(["methods"])
        assert code == 0
        assert "theta" in text
        assert "statistical" in text

    def test_characteristics(self, csv_file):
        code, text = run_cli(["characteristics", str(csv_file)])
        assert code == 0
        assert "seasonality" in text
        assert "period" in text

    def test_bench_with_report(self, tmp_path, csv_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "methods": ["naive", "theta"],
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 256, "domains": ["traffic"]},
            "strategy": "fixed", "lookback": 48, "horizon": 12,
            "metrics": ["mae"],
        }))
        report = tmp_path / "report.html"
        code, text = run_cli(["bench", str(config),
                              "--report", str(report)])
        assert code == 0
        assert "rank" in text
        assert report.exists()
        assert report.read_text().startswith("<html>")

    def test_ask(self):
        code, text = run_cli(["ask", "top 3 methods by mae",
                              "--series", "60"])
        assert code == 0
        assert "SQL:" in text
        assert "A:" in text

    def test_ask_exit_code_on_failure(self):
        # Empty question -> not ok -> exit 1.
        code, _ = run_cli(["ask", "   ", "--series", "60"])
        assert code == 1

    def test_bench_trace_dir_and_metrics_json(self, tmp_path):
        from repro import telemetry
        saved = telemetry._ACTIVE
        telemetry.disable()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "methods": ["naive", "mean"],
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 256,
                         "domains": ["traffic", "electricity"]},
            "strategy": "fixed", "lookback": 48, "horizon": 12,
            "metrics": ["mae"],
        }))
        trace_dir = tmp_path / "telemetry"
        metrics_json = tmp_path / "metrics.json"
        try:
            code, text = run_cli(["bench", str(config),
                                  "--workers", "2", "--executor", "process",
                                  "--trace-dir", str(trace_dir),
                                  "--metrics-json", str(metrics_json)])
            assert code == 0
            assert "trace (" in text

            trace = json.loads(
                (trace_dir / "trace.json").read_text(encoding="utf-8"))
            events = trace["traceEvents"]
            names = {e["name"] for e in events}
            assert {"run", "executor.map_tasks", "task",
                    "evaluate"} <= names
            # Cross-process parenting: every worker task span links back
            # to the parent-process map_tasks span in one trace.
            root = [e for e in events
                    if e["name"] == "executor.map_tasks"][0]
            tasks = [e for e in events if e["name"] == "task"]
            assert len(tasks) == 4  # 2 methods x 2 series
            assert all(e["args"]["parent_id"] == root["args"]["span_id"]
                       for e in tasks)
            assert len({e["args"]["trace_id"] for e in events}) == 1

            lines = (trace_dir / "spans.jsonl").read_text().splitlines()
            assert len(lines) == len(events)

            snapshot = json.loads(metrics_json.read_text(encoding="utf-8"))
            assert snapshot["repro_executor_tasks_total"]["type"] == "counter"
            assert "repro_eval_windows_total" in snapshot
        finally:
            telemetry._ACTIVE = saved

    def test_debug_renders_blackbox_and_trace(self, tmp_path):
        from repro import telemetry
        saved = telemetry._ACTIVE
        telemetry.disable()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "methods": ["naive", "mean"],
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 256, "domains": ["traffic"]},
            "strategy": "fixed", "lookback": 48, "horizon": 12,
            "metrics": ["mae"],
        }))
        run_dir = tmp_path / "run"
        try:
            code, _ = run_cli(["bench", str(config),
                               "--run-dir", str(run_dir),
                               "--trace-dir", str(run_dir / "telemetry")])
            assert code == 0
            assert (run_dir / "blackbox.jsonl").exists()

            code, text = run_cli(["debug", str(run_dir)])
            assert code == 0
            assert "blackbox" in text
            assert "task.start" in text or "task.finish" in text
            assert "trace" in text
            assert "results" in text
        finally:
            telemetry.disable()
            telemetry.disable_recorder()
            telemetry.arm_blackbox(None)
            telemetry._ACTIVE = saved

    def test_debug_empty_run_dir_exits_nonzero(self, tmp_path):
        code, text = run_cli(["debug", str(tmp_path)])
        assert code == 1
        assert "no blackbox" in text or "nothing" in text

    def test_bench_profile_and_dtype(self, tmp_path, csv_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "methods": ["naive"],
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 256, "domains": ["traffic"]},
            "strategy": "fixed", "lookback": 48, "horizon": 12,
            "metrics": ["mae"],
        }))
        code, text = run_cli(["bench", str(config),
                              "--profile", "--dtype", "float32"])
        assert code == 0
        assert "phase" in text
        assert "fit" in text and "predict" in text
        assert "total" in text
