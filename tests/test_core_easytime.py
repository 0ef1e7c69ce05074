"""Unit + integration tests for the EasyTime facade."""

import numpy as np
import pytest

from repro.core import EasyTime


class TestLifecycle:
    def test_online_methods_require_setup(self):
        et = EasyTime()
        with pytest.raises(RuntimeError, match="setup"):
            et.recommend(np.arange(200.0))
        with pytest.raises(RuntimeError, match="setup"):
            et.ask("anything")

    def test_list_methods_without_setup(self):
        assert "theta" in EasyTime().list_methods()
        assert "dlinear" in EasyTime().list_methods(category="deep")

    def test_method_details(self):
        info = EasyTime().method_details("theta")
        assert info["category"] == "statistical"


class TestDataAccess:
    def test_upload_and_choose(self, easytime_system):
        csv = "v\n" + "\n".join(str(i % 5) for i in range(100))
        series = easytime_system.upload_dataset(csv, name="upload_test")
        assert series.length == 100
        again = easytime_system.choose_dataset("upload_test")
        assert np.array_equal(series.values, again.values)

    def test_choose_benchmark_series(self, easytime_system):
        series = easytime_system.choose_dataset("traffic_u0000")
        assert series.domain == "traffic"

    def test_list_datasets_includes_both(self, easytime_system):
        easytime_system.upload_dataset("v\n1\n2\n3\n", name="zz_listed")
        names = easytime_system.list_datasets()
        assert "zz_listed" in names
        assert any(n.startswith("traffic") for n in names)

    def test_characteristics(self, easytime_system, registry):
        chars = easytime_system.characteristics(
            registry.univariate_series("traffic", 0, length=320))
        assert set(chars) >= {"seasonality", "trend", "period"}


class TestOneClick:
    def test_accepts_dict_config(self, easytime_system):
        table = easytime_system.one_click({
            "methods": ["naive", "theta"],
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 256, "domains": ["web"]},
            "strategy": "fixed", "lookback": 48, "horizon": 12,
            "metrics": ["mae"],
        })
        assert len(table) == 2

    def test_accepts_json_text(self, easytime_system):
        table = easytime_system.one_click(
            '{"methods": ["naive"], "datasets": {"names": '
            '["stock_u0001"], "length": 256}, "strategy": "fixed", '
            '"lookback": 48, "horizon": 12}')
        assert len(table) == 1

    def test_rejects_other_types(self, easytime_system):
        with pytest.raises(TypeError):
            easytime_system.one_click(42)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_executor_kind_name(self, kind):
        config = {"methods": ["naive", "mean"],
                  "datasets": {"suite": "univariate", "per_domain": 1,
                               "length": 256, "domains": ["web"]},
                  "strategy": "fixed", "lookback": 48, "horizon": 12,
                  "metrics": ["mae"]}
        et = EasyTime()
        table = et.one_click(config, executor=kind, workers=2)
        assert table.to_rows(include_timings=False) \
            == et.one_click(config).to_rows(include_timings=False)

    def test_evaluate_method_keeps_forecasts(self, easytime_system):
        result = easytime_system.evaluate_method(
            "seasonal_naive", easytime_system.choose_dataset("traffic_u0000"),
            lookback=48, horizon=12)
        assert result.forecasts
        assert result.scores["mae"] >= 0


class TestScenarios:
    def test_recommend_and_automl(self, easytime_system, registry):
        series = registry.univariate_series("electricity", 44, length=448)
        rec = easytime_system.recommend(series, k=3)
        assert len(rec.methods) == 3
        forecast, info = easytime_system.automl(series, k=2, horizon=12)
        assert forecast.shape == (12, 1)
        assert set(info["used"]) <= set(info["recommended"])

    def test_recommend_accepts_name(self, easytime_system):
        rec = easytime_system.recommend("traffic_u0000", k=2)
        assert len(rec.methods) == 2

    def test_forecast_figure_svg(self, easytime_system, registry):
        series = registry.univariate_series("web", 7, length=320)
        forecast = np.zeros((24, 1))
        svg = easytime_system.forecast_figure(series, forecast)
        assert svg.startswith("<svg")
        assert "history" in svg and "forecast" in svg

    def test_ask_logs_and_answers(self, easytime_system):
        response = easytime_system.ask("top 3 methods by mae")
        assert response.ok
        events = easytime_system.logger.filter(event="easytime.qa")
        assert events
