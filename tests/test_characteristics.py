"""Unit tests for decomposition, stationarity tests and characteristics."""

import numpy as np
import pytest

from repro.characteristics import (acf, adf_test, classical_decompose,
                                   correlation_score, detect_period, extract,
                                   kpss_test, loess_smooth, moving_average,
                                   pacf, seasonality_strength, shifting_score,
                                   stationarity_score, stl_decompose,
                                   transition_score, trend_strength)


def seasonal_series(n=480, period=24, amp=3.0, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return amp * np.sin(2 * np.pi * t / period) + rng.normal(0, noise, n)


def trending_series(n=480, slope=0.05, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return slope * np.arange(n) + rng.normal(0, noise, n)


class TestDecomposition:
    def test_moving_average_constant(self):
        assert np.allclose(moving_average(np.full(50, 3.0), 7), 3.0)

    def test_moving_average_no_nan_edges(self):
        out = moving_average(np.arange(20.0), 5)
        assert np.isfinite(out).all()
        assert np.isclose(out[10], 10.0)

    def test_moving_average_validates_window(self):
        with pytest.raises(ValueError):
            moving_average(np.arange(5.0), 0)

    def test_loess_recovers_smooth_trend(self):
        t = np.linspace(0, 1, 100)
        noisy = t ** 2 + np.random.default_rng(0).normal(0, 0.01, 100)
        smooth = loess_smooth(noisy, frac=0.3)
        assert np.abs(smooth - t ** 2).mean() < 0.02

    def test_loess_short_input(self):
        assert np.allclose(loess_smooth(np.array([1.0, 2.0])), [1, 2])

    def test_classical_reconstruction(self):
        values = seasonal_series()
        dec = classical_decompose(values, 24)
        assert np.allclose(dec.values, values)

    def test_stl_reconstruction(self):
        values = seasonal_series() + trending_series(noise=0)
        dec = stl_decompose(values, 24)
        assert np.allclose(dec.values, values)

    def test_stl_isolates_seasonality(self):
        values = seasonal_series(noise=0.1)
        dec = stl_decompose(values, 24)
        # The seasonal component should carry most of the variance.
        assert np.var(dec.seasonal) > 5 * np.var(dec.remainder)

    def test_stl_short_series_degrades_gracefully(self):
        dec = stl_decompose(np.arange(20.0), 24)
        assert np.allclose(dec.seasonal, 0)


class TestStationarityTests:
    def test_adf_rejects_unit_root_for_white_noise(self, rng):
        result = adf_test(rng.standard_normal(400))
        assert result.pvalue < 0.05
        assert result.reject_at(0.05)

    def test_adf_keeps_unit_root_for_random_walk(self, rng):
        result = adf_test(np.cumsum(rng.standard_normal(400)))
        assert result.pvalue > 0.05

    def test_kpss_opposite_orientation(self, rng):
        white = kpss_test(rng.standard_normal(400))
        walk = kpss_test(np.cumsum(rng.standard_normal(400)))
        assert white.pvalue > walk.pvalue

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            adf_test(np.arange(5.0))
        with pytest.raises(ValueError):
            kpss_test(np.arange(5.0))

    def test_crit_values_present(self, rng):
        result = adf_test(rng.standard_normal(100))
        assert "5%" in result.crit_values


class TestAcfPacf:
    def test_acf_lag0_is_one(self, rng):
        out = acf(rng.standard_normal(200), 10)
        assert np.isclose(out[0], 1.0)

    def test_acf_of_constant_is_zero(self):
        assert np.allclose(acf(np.full(50, 2.0), 5)[1:], 0)

    def test_pacf_ar1_cutoff(self):
        rng = np.random.default_rng(3)
        x = np.zeros(2000)
        for i in range(1, 2000):
            x[i] = 0.7 * x[i - 1] + rng.standard_normal()
        p = pacf(x, 5)
        assert abs(p[1] - 0.7) < 0.08
        assert np.abs(p[2:]).max() < 0.1


class TestPeriodDetection:
    @pytest.mark.parametrize("period", [7, 12, 24])
    def test_finds_planted_period(self, period):
        values = seasonal_series(period=period)
        assert detect_period(values) == period

    def test_white_noise_has_no_period(self, rng):
        assert detect_period(rng.standard_normal(400)) == 0

    def test_short_input(self):
        assert detect_period(np.arange(4.0)) == 0


class TestScores:
    def test_seasonality_strength_ordering(self, rng):
        strong = seasonality_strength(seasonal_series(noise=0.2), 24)
        none = seasonality_strength(rng.standard_normal(480))
        assert strong > 0.8
        assert none < 0.3

    def test_trend_strength_ordering(self, rng):
        strong = trend_strength(trending_series())
        flat = trend_strength(rng.standard_normal(480))
        assert strong > 0.8
        assert flat < 0.4

    def test_shifting_detects_level_shifts(self, rng):
        stable = rng.standard_normal(400)
        shifted = stable.copy()
        shifted[200:] += 8.0
        assert shifting_score(shifted) > shifting_score(stable) + 0.3

    def test_transition_detects_regime_change(self, rng):
        stable = rng.standard_normal(400) * 0.5
        regimes = np.concatenate([rng.standard_normal(200) * 0.2,
                                  rng.standard_normal(200) * 3.0])
        assert transition_score(regimes) > transition_score(stable)

    def test_stationarity_orientation(self, rng):
        white = stationarity_score(rng.standard_normal(400))
        walk = stationarity_score(np.cumsum(rng.standard_normal(400)))
        assert white > 0.7
        assert walk < 0.4

    def test_stationarity_degenerate_input(self):
        assert stationarity_score(np.full(100, 3.0)) == 0.5

    def test_correlation_score(self, rng):
        base = rng.standard_normal(300)
        correlated = np.stack([base + rng.normal(0, 0.1, 300),
                               base + rng.normal(0, 0.1, 300)], axis=1)
        independent = rng.standard_normal((300, 2))
        assert correlation_score(correlated) > 0.9
        assert correlation_score(independent) < 0.3
        assert correlation_score(base) == 0.0  # univariate


class TestExtract:
    def test_all_scores_in_range(self, registry):
        ch = extract(registry.univariate_series("environment", 0, length=400))
        for axis, value in ch.as_dict().items():
            if axis == "period":
                assert value >= 0
            else:
                assert 0.0 <= value <= 1.0

    def test_vector_shape_and_bounds(self, registry):
        vec = extract(registry.univariate_series("web", 1, length=300)) \
            .as_vector()
        assert vec.shape == (7,)
        assert np.isfinite(vec).all()

    def test_freq_hint_used(self):
        from repro.datasets import TimeSeries
        series = TimeSeries(seasonal_series(period=12), freq=12)
        assert extract(series).period == 12

    def test_dominant_axes(self):
        ch = extract(seasonal_series(noise=0.1))
        assert "seasonality" in ch.dominant()

    def test_multivariate_correlation_filled(self, registry):
        ch = extract(registry.multivariate_series("traffic", 0, length=300,
                                                  n_channels=4))
        assert ch.correlation > 0.0

    def test_one_stl_per_extract_and_the_same_values(self, monkeypatch):
        """``extract`` decomposes once and matches the two-call strengths
        bit for bit on the 20 knowledge-base series of ``EasyTime()``."""
        from repro.characteristics import features
        from repro.datasets import DatasetRegistry
        suite = DatasetRegistry(seed=7).univariate_suite(per_domain=2,
                                                         length=384)
        assert len(suite) == 20
        calls = []
        counted = features.stl_decompose

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return counted(*args, **kwargs)

        monkeypatch.setattr(features, "stl_decompose", counting)
        for series in suite:
            calls.clear()
            got = extract(series)
            assert len(calls) == 1, series.name
            mono = series.values.reshape(len(series.values), -1).mean(axis=1)
            want = {"seasonality": seasonality_strength(mono, got.period),
                    "trend": trend_strength(mono, got.period),
                    "transition": transition_score(mono),
                    "shifting": shifting_score(mono),
                    "stationarity": stationarity_score(mono),
                    "correlation": correlation_score(series.values)}
            for axis, value in want.items():
                assert getattr(got, axis) == value, (series.name, axis)
