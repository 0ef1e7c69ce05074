"""Runner-level tests for the execution runtime integration.

Covers the ISSUE-1 acceptance points at unit scale: failure isolation and
retry semantics under serial *and* process executors, cache correctness
(hit/miss/corruption), per-task deterministic seeding, and the
order-deterministic / mergeable ResultTable.
"""

import numpy as np
import pytest

from repro.pipeline import (BenchmarkConfig, DatasetSpec, MethodSpec,
                            ResultTable, RunLogger, run_one_click)
from repro.evaluation.strategies import EvalResult
from repro.methods import METHODS, NaiveForecaster, register
from repro.runtime import (ArtifactCache, ProcessExecutor, SerialExecutor,
                           ThreadExecutor)


class TransientForecaster(NaiveForecaster):
    """Fails the first fit per training block (per process), then works.

    The counter is class-level so the executor's in-worker retry — which
    re-instantiates the model — still sees the earlier attempt.
    """

    name = "test_transient"
    calls = {}

    def fit(self, train, val=None):
        key = hash(np.asarray(train).tobytes())
        count = self.calls.get(key, 0) + 1
        type(self).calls[key] = count
        if count == 1:
            raise RuntimeError("transient failure (first call)")
        return super().fit(train, val)


class AlwaysFailsForecaster(NaiveForecaster):
    name = "test_always_fails"

    def fit(self, train, val=None):
        raise RuntimeError("permanent failure")


class NoisyForecaster(NaiveForecaster):
    """Draws from the *global* numpy RNG — the stream the executor seeds
    per task, so forecasts are only reproducible if seeding works."""

    name = "test_noisy"

    def predict(self, history, horizon):
        base = super().predict(history, horizon)
        return base + np.random.standard_normal(base.shape) * 0.01


@pytest.fixture(scope="module", autouse=True)
def _registered_test_methods():
    register(TransientForecaster.name, lambda **kw: TransientForecaster(),
             "statistical", "fails once per training block")
    register(AlwaysFailsForecaster.name,
             lambda **kw: AlwaysFailsForecaster(),
             "statistical", "always fails")
    register(NoisyForecaster.name, lambda **kw: NoisyForecaster(),
             "statistical", "naive plus global-RNG noise")
    yield
    for name in (TransientForecaster.name, AlwaysFailsForecaster.name,
                 NoisyForecaster.name):
        METHODS.pop(name, None)


def small_config(**overrides):
    kwargs = dict(
        methods=(MethodSpec("naive"), MethodSpec("seasonal_naive")),
        datasets=DatasetSpec(suite="univariate", per_domain=1, length=256,
                             domains=("traffic", "stock")),
        strategy="rolling", lookback=48, horizon=12,
        metrics=("mae", "mse"), tag="unit_parallel")
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs).validate()


def executor_for(kind, **kwargs):
    if kind == "serial":
        return SerialExecutor(**kwargs)
    return ProcessExecutor(workers=2, **kwargs)


class TestFailureIsolationAndRetry:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_transient_failure_lands_in_table(self, kind):
        TransientForecaster.calls = {}
        logger = RunLogger()
        table = run_one_click(
            small_config(methods=(MethodSpec("naive"),
                                  MethodSpec("test_transient"))),
            logger=logger, executor=executor_for(kind, retries=1,
                                                 backoff=0.0))
        # The transient method was retried and its results made the table.
        assert set(table.methods()) == {"naive", "test_transient"}
        assert len(table) == 4
        assert not logger.filter(event="run.cell_failed")
        retried = [e for e in logger.filter(event="run.cell")
                   if e["method"] == "test_transient"]
        assert all(e["attempts"] == 2 for e in retried)

    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_permanent_failure_skipped_with_structured_event(self, kind):
        logger = RunLogger()
        table = run_one_click(
            small_config(methods=(MethodSpec("naive"),
                                  MethodSpec("test_always_fails"))),
            logger=logger, executor=executor_for(kind, retries=1,
                                                 backoff=0.0))
        assert set(table.methods()) == {"naive"}
        failures = logger.filter(event="run.cell_failed")
        assert len(failures) == 2  # one per series, run did not die
        for event in failures:
            assert event["method"] == "test_always_fails"
            assert event["error_type"] == "RuntimeError"
            assert event["attempts"] == 2  # 1 try + 1 retry
            assert "permanent failure" in event["error"]


class TestDeterminism:
    def test_rows_identical_across_worker_counts(self):
        config = small_config(methods=(MethodSpec("naive"),
                                       MethodSpec("test_noisy"),
                                       MethodSpec("seasonal_naive")))
        serial = run_one_click(config)
        procs = run_one_click(config, executor=ProcessExecutor(
            workers=3, base_seed=config.seed))
        rows = serial.to_rows(include_timings=False)
        assert rows == procs.to_rows(include_timings=False)
        # The noise is real (not a constant-zero draw).
        noisy = [r for r in rows if r["method"] == "test_noisy"]
        plain = [r for r in rows if r["method"] == "naive"]
        assert noisy[0]["metric_mae"] != plain[0]["metric_mae"]

    def test_thread_executor_deterministic_for_seeded_methods(self):
        # Threads share the global RNG stream, so the guarantee covers
        # methods with their own seeded state (every registry method) —
        # see the ThreadExecutor docstring. test_noisy is excluded.
        config = small_config()
        serial = run_one_click(config)
        threads = run_one_click(config, executor=ThreadExecutor(
            workers=2, base_seed=config.seed))
        assert serial.to_rows(include_timings=False) == \
            threads.to_rows(include_timings=False)

    def test_workers_kwarg_shortcut(self):
        config = small_config()
        assert run_one_click(config, workers=2).to_rows(
            include_timings=False) == run_one_click(config).to_rows(
            include_timings=False)


class TestRunnerCache:
    def test_second_run_all_hits_identical_rows(self, tmp_path):
        config = small_config()
        cache = ArtifactCache(directory=tmp_path)
        logger = RunLogger()
        first = run_one_click(config, cache=cache)
        second = run_one_click(config, cache=cache, logger=logger)
        assert first.to_rows() == second.to_rows()  # timings cached too
        stats = cache.stats()
        assert stats["misses"] == 4
        assert stats["hits"] == 4
        assert len(logger.filter(event="run.cache_hit")) == 4
        assert not logger.filter(event="run.cell")

    def test_key_sensitivity(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        run_one_click(small_config(), cache=cache)
        baseline = cache.stats()["misses"]
        # Different horizon → different keys → misses.
        run_one_click(small_config(horizon=8), cache=cache)
        assert cache.stats()["misses"] == baseline + 4
        # Different strategy → misses.
        run_one_click(small_config(strategy="fixed"), cache=cache)
        assert cache.stats()["misses"] == baseline + 8
        # Different series data (length) → misses.
        run_one_click(small_config(datasets=DatasetSpec(
            suite="univariate", per_domain=1, length=320,
            domains=("traffic", "stock"))), cache=cache)
        assert cache.stats()["misses"] == baseline + 12
        # Unchanged config → all hits.
        run_one_click(small_config(), cache=cache)
        assert cache.stats()["misses"] == baseline + 12

    def test_code_version_salt_invalidates(self, tmp_path):
        config = small_config()
        run_one_click(config, cache=ArtifactCache(directory=tmp_path,
                                                  salt="v1"))
        bumped = ArtifactCache(directory=tmp_path, salt="v2")
        run_one_click(config, cache=bumped)
        assert bumped.stats()["hits"] == 0
        assert bumped.stats()["misses"] == 4

    def test_corrupt_disk_entry_recomputed_not_crashed(self, tmp_path):
        config = small_config()
        cache = ArtifactCache(directory=tmp_path)
        first = run_one_click(config, cache=cache)
        for json_path in tmp_path.glob("*/*.json"):
            json_path.write_text("{truncated", encoding="utf-8")
        fresh = ArtifactCache(directory=tmp_path)
        second = run_one_click(config, cache=fresh)
        assert second.to_rows(include_timings=False) == \
            first.to_rows(include_timings=False)
        assert fresh.stats()["corrupt"] == 4
        assert fresh.stats()["hits"] == 0


def _result(method, series, mae=1.0):
    return EvalResult(method=method, series=series, horizon=24,
                      strategy="rolling", scores={"mae": mae}, n_windows=3)


class TestResultTableOrderAndMerge:
    def test_iteration_and_rows_sorted_by_series_then_method(self):
        table = ResultTable()
        for method, series in (("z", "s2"), ("a", "s2"), ("z", "s1"),
                               ("a", "s1")):
            table.add(_result(method, series))
        assert [(r.series, r.method) for r in table] == [
            ("s1", "a"), ("s1", "z"), ("s2", "a"), ("s2", "z")]
        rows = table.to_rows()
        assert [(r["series"], r["method"]) for r in rows] == [
            ("s1", "a"), ("s1", "z"), ("s2", "a"), ("s2", "z")]

    def test_merge_combines_and_stays_deterministic(self):
        left, right = ResultTable(), ResultTable()
        left.add(_result("b", "s1", 2.0))
        right.add(_result("a", "s1", 1.0))
        merged = left.merge(right)
        assert merged is left
        assert len(merged) == 2
        assert [r.method for r in merged] == ["a", "b"]

    def test_merge_accepts_plain_record_lists(self):
        table = ResultTable()
        table.merge([_result("a", "s1")])
        assert table.methods() == ["a"]

    def test_shard_merge_equals_single_run(self):
        """Sharding the grid and merging tables == one full run."""
        config = small_config()
        full = run_one_click(config)
        shard_a = run_one_click(small_config(
            methods=(MethodSpec("naive"),)))
        shard_b = run_one_click(small_config(
            methods=(MethodSpec("seasonal_naive"),)))
        merged = shard_a.merge(shard_b)
        assert merged.to_rows(include_timings=False) == \
            full.to_rows(include_timings=False)
