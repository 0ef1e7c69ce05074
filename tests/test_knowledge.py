"""Unit tests for the benchmark knowledge base and its builders."""

import numpy as np
import pytest

from repro.evaluation.strategies import EvalResult
from repro.knowledge import (KnowledgeBase, build_synthetic_knowledge)


def result(method="naive", series="s1", mae_v=1.0, horizon=24):
    return EvalResult(method=method, series=series, horizon=horizon,
                      strategy="rolling",
                      scores={"mae": mae_v, "mse": mae_v ** 2,
                              "rmse": mae_v, "smape": 10.0, "mase": 1.1},
                      n_windows=4, fit_seconds=0.1, predict_seconds=0.01)


class TestIngestion:
    def test_schema_created(self):
        kb = KnowledgeBase()
        assert set(kb.db.tables()) == {"datasets", "methods", "results"}

    def test_add_method_idempotent(self):
        kb = KnowledgeBase()
        kb.add_method("naive")
        kb.add_method("naive")
        assert kb.db.query("SELECT COUNT(*) FROM methods").scalar() == 1

    def test_add_all_methods(self):
        kb = KnowledgeBase()
        kb.add_all_methods()
        count = kb.db.query("SELECT COUNT(*) FROM methods").scalar()
        assert count >= 20

    def test_add_dataset_with_characteristics(self, registry):
        kb = KnowledgeBase()
        series = registry.univariate_series("traffic", 0, length=256)
        kb.add_dataset(series)
        kb.add_dataset(series)  # idempotent
        rows = kb.db.query("SELECT * FROM datasets").to_dicts()
        assert len(rows) == 1
        assert rows[0]["domain"] == "traffic"
        assert rows[0]["variate"] == "univariate"
        assert 0 <= rows[0]["seasonality"] <= 1

    def test_add_result_term_classification(self):
        kb = KnowledgeBase()
        kb.add_result(result(horizon=24))
        kb.add_result(result(horizon=96))
        terms = kb.db.query("SELECT term FROM results ORDER BY horizon") \
            .column("term")
        assert terms == ["short", "long"]

    def test_non_finite_scores_stored_as_null(self):
        kb = KnowledgeBase()
        kb.add_result(result(mae_v=float("nan")))
        assert kb.db.query("SELECT mae FROM results").scalar() is None

    def test_n_results(self):
        kb = KnowledgeBase()
        kb.add_result(result())
        kb.add_result(result(series="s2"))
        assert kb.n_results() == 2


class TestTrainingViews:
    def _kb(self):
        kb = KnowledgeBase()
        for series in ("s1", "s2"):
            for method, mae_v in (("naive", 1.0), ("theta", 0.5)):
                kb.add_result(result(method=method, series=series,
                                     mae_v=mae_v))
        return kb

    def test_error_matrix_alignment(self):
        series, methods, matrix = self._kb().error_matrix("mae")
        assert series == ["s1", "s2"]
        assert methods == ["naive", "theta"]
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix[:, methods.index("theta")], 0.5)

    def test_error_matrix_missing_cells_are_nan(self):
        kb = self._kb()
        kb.add_result(result(method="ses", series="s1", mae_v=0.7))
        _, methods, matrix = kb.error_matrix("mae")
        ses_col = matrix[:, methods.index("ses")]
        assert np.isnan(ses_col).sum() == 1

    def test_error_matrix_horizon_filter(self):
        kb = self._kb()
        kb.add_result(result(method="naive", series="s1", mae_v=9.0,
                             horizon=96))
        _, methods, matrix = kb.error_matrix("mae", horizon=24)
        assert matrix.max() <= 1.0

    def test_error_matrix_unknown_metric(self):
        with pytest.raises(ValueError, match="not stored"):
            self._kb().error_matrix("wape")

    def test_characteristics_frame(self, registry):
        kb = KnowledgeBase()
        names = []
        for i in range(3):
            series = registry.univariate_series("web", i, length=256)
            kb.add_dataset(series)
            names.append(series.name)
        frame = kb.characteristics_frame(names)
        assert frame.shape == (3, 7)
        assert np.isfinite(frame).all()

    def test_characteristics_frame_missing_name(self):
        with pytest.raises(KeyError):
            KnowledgeBase().characteristics_frame(["ghost"])


class TestBenchmarkBuilder:
    def test_real_build_contents(self, small_kb):
        kb, registry = small_kb
        assert kb.n_results() > 100
        # Every ingested dataset must be regenerable from the registry.
        for name in kb.dataset_names()[:3]:
            assert registry.get(name) is not None
        # Results reference ingested datasets.
        orphan = kb.db.query(
            "SELECT COUNT(*) FROM results r LEFT JOIN datasets d "
            "ON r.dataset = d.name WHERE d.name IS NULL").scalar()
        assert orphan == 0

    def test_method_names_view(self, small_kb):
        kb, _ = small_kb
        names = kb.method_names()
        assert "theta" in names
        assert names == sorted(names)


class TestSyntheticBuilder:
    def test_scale(self, synthetic_kb):
        # 150 series x methods x 2 horizons.
        assert synthetic_kb.n_results() >= 150 * 20 * 2

    def test_deterministic(self):
        a = build_synthetic_knowledge(n_series=20, seed=5)
        b = build_synthetic_knowledge(n_series=20, seed=5)
        qa = a.db.query("SELECT AVG(mae) FROM results").scalar()
        qb = b.db.query("SELECT AVG(mae) FROM results").scalar()
        assert qa == qb

    def test_affinities_visible_in_rankings(self, synthetic_kb):
        """Seasonal datasets must prefer season-aware methods."""
        top = synthetic_kb.db.query(
            "SELECT method FROM results r JOIN datasets d "
            "ON r.dataset = d.name WHERE d.seasonality > 0.8 "
            "GROUP BY method ORDER BY AVG(mae) LIMIT 5").column("method")
        assert {"seasonal_naive", "holt_winters", "theta", "dlinear",
                "nlinear", "rlinear", "spectral"} & set(top)
        bottom = synthetic_kb.db.query(
            "SELECT method FROM results r JOIN datasets d "
            "ON r.dataset = d.name WHERE d.seasonality > 0.8 "
            "GROUP BY method ORDER BY AVG(mae) DESC LIMIT 3").column("method")
        assert "naive" in bottom or "drift" in bottom or "ses" in bottom

    def test_queryable_via_qa_shapes(self, synthetic_kb):
        result = synthetic_kb.query(
            "SELECT method, AVG(mae) AS m FROM results WHERE term = 'long' "
            "GROUP BY method ORDER BY m LIMIT 3")
        assert len(result) == 3


class TestBenchmarkFanOut:
    def test_workers_change_no_kb_bits_and_leave_nothing_behind(self):
        """The knowledge-base grid on a 2-process pool stores the same
        rows as a serial build, then leaves no child process and no
        data-plane segment of this process."""
        import multiprocessing
        import os
        from pathlib import Path

        from repro.knowledge import build_benchmark_knowledge
        from repro.runtime import leaked_segments
        from repro.runtime.dataplane import SEGMENT_PREFIX, _mmap_dir

        def tables(workers):
            kb, _ = build_benchmark_knowledge(
                per_domain=1, length=256, methods=("naive", "ridge", "mlp"),
                workers=workers)
            out = {name: kb.query(f"SELECT * FROM {name}").rows
                   for name in ("datasets", "methods")}
            # Every results column but fit_seconds and predict_seconds.
            out["results"] = [row[:-2] for row in
                              kb.query("SELECT * FROM results").rows]
            return out

        serial, fanned = tables(1), tables(2)
        assert len(serial["results"]) == 30
        assert serial == fanned
        assert not multiprocessing.active_children()
        assert not leaked_segments()
        mine = f"{SEGMENT_PREFIX}{os.getpid()}_"
        for directory in (Path("/dev/shm"), _mmap_dir()):
            if directory.is_dir():
                assert not list(directory.glob(f"{mine}*")), directory
