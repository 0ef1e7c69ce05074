"""Self-tests for the perf harness (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
import time

import pytest

from benchmarks.perf import compare, harness, spec, system, trace
from benchmarks.perf.trace import Span


def _span(sid, parent, name, t0, t1, layer="x"):
    return Span(sid, parent, name, layer, t0, t1)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [_span("1-0", None, "root", 0.0, 10.0),
             _span("1-1", "1-0", "child", 1.0, 3.0),
             _span("1-2", "1-1", "grandchild", 1.5, 2.5),
             _span("1-3", "1-0", "child", 4.0, 5.0)]
    selfs = trace.self_times(spans)
    assert selfs == pytest.approx({"1-0": 7.0, "1-1": 1.0, "1-2": 1.0,
                                   "1-3": 1.0})


def test_self_time_counts_overlapping_children_once():
    # Two workers' cells overlap in time under one map_tasks span.
    spans = [_span("1-0", None, "map", 0.0, 10.0),
             _span("2-0", "1-0", "cell", 1.0, 6.0),
             _span("3-0", "1-0", "cell", 2.0, 8.0),
             _span("2-1", "1-0", "cell", 9.5, 12.0)]   # clipped at 10
    assert trace.self_times(spans)["1-0"] == pytest.approx(10.0 - 7.0 - 0.5)


def test_cross_process_spans_are_adopted_by_their_host():
    spans = [_span("1-0", None, "runtime.map_tasks", 0.0, 5.0),
             _span("1-1", None, "runtime.map_tasks", 6.0, 9.0),
             _span("2-0", None, "pipeline.cell", 1.0, 4.0),
             _span("2-1", "2-0", "evaluation.evaluate", 1.5, 3.5),
             _span("3-0", None, "pipeline.cell", 6.5, 8.0)]
    adopted = {s.id: s.parent for s in trace.adopt(spans, 1,
                                                   "runtime.map_tasks")}
    assert adopted == {"1-0": None, "1-1": None, "2-0": "1-0",
                       "2-1": "2-0", "3-0": "1-1"}
    selfs = trace.self_times(trace.adopt(spans, 1, "runtime.map_tasks"))
    assert selfs["1-0"] == pytest.approx(2.0)
    assert selfs["2-0"] == pytest.approx(1.0)
    assert min(selfs.values()) >= 0.0


def test_recorder_nests_and_folds_reentrant_calls(tmp_path):
    recorder = trace.Recorder(tmp_path)

    def inner(n):
        return traced_inner(n - 1) if n else 0

    traced_inner = recorder.wrap(inner, "g.inner", "lay")
    traced_outer = recorder.wrap(lambda: traced_inner(3), "g.outer", "lay")
    traced_outer()
    names = [(s[2], s[1] is None) for s in recorder.spans]
    assert names == [("g.inner", False), ("g.outer", True)]
    inner_span, outer_span = recorder.spans
    assert inner_span[1] == outer_span[0]

    recorder.flush()
    assert recorder.spans == []
    assert len(trace.load_spans(tmp_path)) == 2


def test_recorder_drops_spans_inherited_across_fork(tmp_path):
    recorder = trace.Recorder(tmp_path)
    recorder.spans.append(("1-0", None, "parent", "x", 0.0, 1.0))
    recorder.pid = -1                      # as seen from a forked child
    recorder.wrap(lambda: None, "child", "x")()
    assert [s[2] for s in recorder.spans] == ["child"]


def test_install_patches_every_site_and_uninstall_restores(tmp_path):
    import repro.sql.engine as engine
    from repro.methods.statistical import ThetaForecaster
    from repro.runtime.executor import ProcessExecutor
    before = (engine.verify_sql, ThetaForecaster.__dict__.get("fit"),
              "map_tasks" in vars(ProcessExecutor))
    recorder = trace.Recorder(tmp_path)
    recorder.install()
    try:
        assert engine.verify_sql is not before[0]
        assert engine.verify_sql.__wrapped__ is before[0]
        assert "map_tasks" in vars(ProcessExecutor)
    finally:
        recorder.uninstall()
    assert (engine.verify_sql, ThetaForecaster.__dict__.get("fit"),
            "map_tasks" in vars(ProcessExecutor)) == before


# -- percentiles ----------------------------------------------------------------

def test_percentile_interpolates():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == pytest.approx(50.5)
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([3.0], 99) == 3.0


def test_tail_reported_only_with_ten_samples_beyond():
    assert harness.supported_tail(1000, 99.0)
    assert not harness.supported_tail(999, 99.0)
    assert harness.supported_tail(200, 95.0)
    assert not harness.supported_tail(199, 95.0)
    assert harness.supported_tail(50, 80.0)
    assert not harness.supported_tail(49, 80.0)
    assert harness.supported_tail(3, 100.0)


# -- request streams -------------------------------------------------------------

def _take(stream, n=2000):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [
    spec.forecast_stream,
    lambda seed: spec.passes(range(65), seed, "qa"),
    lambda seed: spec.passes(range(20), seed, "automl"),
])
def test_streams_repeat_per_seed_and_differ_across_seeds(make):
    assert _take(make(1)) == _take(make(1))
    assert _take(make(1)) != _take(make(2))


def test_forecast_keys_are_ranked_by_method():
    keys = spec.forecast_keys()
    assert len(keys) == len(set(keys)) == 240
    assert [k[1] for k in keys[:6]] == list(spec.FORECAST_METHODS)
    assert min(spec.zipf_counts(len(keys), spec.FORECAST_BLOCK)) >= 1


def test_closed_loop_runs_exactly_the_planned_operations():
    class Echo:
        def request(self, _conn, item):
            time.sleep(0.001)
            return item

        def check(self, _item, _reply):
            return True, {}

    items = itertools.count()
    _, records = harness.closed_loop(Echo(), items, lambda: None, 2, 13)
    assert len(records) == 13 and all(ok for _, _, ok, _ in records)
    assert next(items) == 13            # the stream continues, nothing lost


def test_operation_counts_are_whole_passes_per_trace_sub_window():
    parts = spec.TRACE_PAIRS
    corpus = {"qa": len(spec.qa_cases()),
              "automl": len(spec.DOMAINS) * len(spec.HELDOUT_INDICES)}
    for workload in spec.WORKLOADS:
        assert spec.OPS[workload] % parts == 0
        assert spec.OPS[workload] // parts % corpus.get(workload, 1) == 0
        assert spec.WARMUP_OPS[workload] % corpus.get(workload, 1) == 0
        assert 1 <= spec.planned_ops(workload, smoke=True) \
            < spec.planned_ops(workload)


def test_passes_visit_every_item_once_per_pass():
    first = _take(spec.passes(range(20), 5, "automl"), 40)
    assert sorted(first[:20]) == sorted(first[20:]) == list(range(20))


# -- output checks ---------------------------------------------------------------

def _reply(data):
    return 200, json.dumps({"ok": True, "data": data}).encode()


def test_forecast_check_rejects_one_ulp():
    forecast = [[1.25], [2.5]]
    client = harness.ForecastClient(
        {"traffic_u0000|theta|2": spec.canonical(forecast)})
    key = ("traffic_u0000", "theta", 2)
    assert client.check(key, _reply({"forecast": forecast}))[0]
    nudged = [[math.nextafter(1.25, 2.0)], [2.5]]
    assert not client.check(key, _reply({"forecast": nudged}))[0]
    assert not client.check(key, (500, b"{}"))[0]


def test_qa_check_rejects_an_altered_row():
    data = {"answer": "a", "sql": "SELECT 1", "ok": True, "degraded": False,
            "issues": [], "table": {"columns": ["m", "v"],
                                    "rows": [["theta", 0.5], ["naive", 0.7]]},
            "provenance": {"attempts": [{}], "elapsed_ms": 1.0}}
    ref = spec.canonical({k: data[k] for k in harness.QAClient.FIELDS})
    client = harness.QAClient([ref], [{"question": "q"}])
    ok, info = client.check(0, _reply(data))
    assert ok and info == {"attempts": 1, "degraded": False}
    data["provenance"]["elapsed_ms"] = 2.0       # provenance is excluded
    assert client.check(0, _reply(data))[0]
    data["table"]["rows"][1] = ["naive", 0.71]
    assert not client.check(0, _reply(data))[0]


def test_automl_check_rejects_an_altered_weight():
    automl = {"forecast": [1.0, 2.0], "info": {"weights": {"a": 0.25,
                                                          "b": 0.75}}}
    recommend = {"methods": ["a", "b"], "probabilities": [0.6, 0.4],
                 "characteristics": {}}
    client = harness.AutomlClient(
        {"s": {"automl": spec.canonical(automl),
               "recommend": spec.canonical({"methods": ["a", "b"],
                                            "probabilities": [0.6, 0.4]})}},
        [("s", "csv")])
    upload = _reply({"name": "s"})
    assert client.check("s", (upload, _reply(recommend), _reply(automl)))[0]
    automl["info"]["weights"]["b"] = 0.7500000001
    assert not client.check("s", (upload, _reply(recommend),
                                  _reply(automl)))[0]


def test_grid_check_rejects_an_altered_metric():
    rows = [{"method": "naive", "series": "s", "metric_mae": 0.5},
            {"method": "ses", "series": "s", "metric_mae": 0.25}]
    expected = [spec.canonical(r) for r in rows]
    assert system.mismatches(expected, rows) == 0
    rows[1]["metric_mae"] = math.nextafter(0.25, 1.0)
    assert system.mismatches(expected, rows) == 1
    assert system.mismatches(expected, rows[:1]) == 1


# -- the spec against BENCHMARK.json --------------------------------------------

def test_benchmark_json_names_the_emitted_metrics():
    declared = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["end_to_end"]} == spec.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        [(name, unit) for name, unit, _ in trace.PER_LAYER]


# -- compare ----------------------------------------------------------------------

def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(base, [x * 1.02 for x in base], "lower",
                         0.1)["verdict"] == "ok"
    assert compare.judge(base, [x * 1.3 for x in base], "lower",
                         0.1)["verdict"] == "regression"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.judge(noisy, noisy, "lower", 0.1)["verdict"] == \
        "unresolved"
    assert compare.judge(noisy, [x * 0.9 for x in noisy], "lower",
                         0.1)["verdict"] == "unresolved"
    # every change run beats every parent run: resolved despite the spread
    assert compare.judge(noisy, [x / 10 for x in noisy], "lower",
                         0.1)["verdict"] == "ok"


def test_pair_rule():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.pair_rule(parent, [p * 0.8 for p in parent],
                             "lower")["met"]
    one_loss = [p * 0.8 for p in parent]
    one_loss[0], one_loss[1] = 150.0, 150.0
    assert not compare.pair_rule(parent, one_loss, "lower")["met"]
    assert not compare.pair_rule(parent, [p - 0.5 for p in parent],
                                 "lower")["met"]   # gap inside parent IQR


def test_digest_changes_pair_runs_by_workload_and_seed():
    parent = [{"workload": "qa", "seed": 1, "digest": "a"},
              {"workload": "qa", "seed": 2, "digest": "b"}]
    change = [{"workload": "qa", "seed": 1, "digest": "a"},
              {"workload": "qa", "seed": 2, "digest": "c"},
              {"workload": "qa", "seed": 3, "digest": "d"}]
    assert compare.digest_changes(parent, change) == [("qa", 2)]


def _record(seed, value, **over):
    record = {"workload": "qa", "seed": seed, "ops": 1040, "trace": 0,
              "correct": True, "attempted": 1105, "failed": 0,
              "digest": "d", "metrics": {
                  name: {"value": value, "unit": unit}
                  for name, (unit, _) in spec.END_TO_END.items()}}
    record.update(over)
    return record


def _report(parent, change, claims=()):
    bounds = {name: (better, 0.1)
              for name, (_, better) in spec.END_TO_END.items()}
    return compare.report(parent, change, bounds, claims)


def test_compare_passes_clean_runs():
    parent = [_record(s, 100.0 + s % 3) for s in range(10)]
    assert _report(parent, [_record(s, 100.0 + s % 3) for s in range(10)])


def test_compare_refuses_a_run_that_failed_a_check():
    parent = [_record(s, 100.0) for s in range(10)]
    fast_but_wrong = [_record(s, 50.0) for s in range(10)]
    fast_but_wrong[3].update(correct=False, failed=2)
    assert not _report(parent, fast_but_wrong)
    assert compare.refusals(parent, fast_but_wrong)
    assert not _report(fast_but_wrong, parent)


def test_compare_refuses_runs_of_different_operation_counts():
    parent = [_record(s, 100.0) for s in range(10)]
    change = [_record(s, 100.0, ops=104) for s in range(10)]
    assert not _report(parent, change)


def test_compare_fails_on_a_changed_output_digest():
    parent = [_record(s, 100.0) for s in range(10)]
    change = [_record(s, 100.0) for s in range(10)]
    change[4]["digest"] = "other"
    assert not _report(parent, change)


# -- end to end -------------------------------------------------------------------

def _smoke(*extra):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--smoke",
         "--seed", "11", *extra], cwd=spec.ROOT, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    return result, time.monotonic() - started


def test_smoke_run_all_workloads():
    result, elapsed = _smoke()
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            assert result["metrics"][f"{workload}.{metric}"]["value"] > 0
    assert elapsed < 90, f"smoke run took {elapsed:.0f} s"


def test_smoke_trace_reports_every_layer_metric():
    result, _ = _smoke("--trace", "1")
    names = [name for name, _, _ in trace.PER_LAYER]
    for workload in spec.WORKLOADS:
        assert [m.split(".", 1)[1] for m in result["metrics"]
                if m.startswith(f"{workload}.")] == names
    # each workload's own layers were seen (and none went negative:
    # a negative self time makes the run incorrect)
    for metric in ("runtime.map_tasks_ms", "autograd.backward_ms"):
        assert result["metrics"][f"grid.{metric}"]["value"] > 0
    assert result["metrics"]["forecast.serving.fit_ms"]["value"] > 0
    assert result["metrics"]["qa.sql.columnar_ms"]["value"] > 0
    assert result["metrics"]["automl.ensemble.encode_ms"]["value"] > 0
