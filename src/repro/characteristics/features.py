"""Time-series characteristic extraction.

Computes the six characteristic axes along which TFB's datasets were
selected — Seasonality, Trend, Transition, Shifting, Stationarity,
Correlation — plus the dominant period.  The resulting vector is what the
Automated Ensemble classifier can consume as the "hand-crafted features"
ablation baseline (E8), and what the frontend displays next to a dataset
(Fig. 4, label 4).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .decomposition import stl_decompose
from .stattests import acf, adf_test, kpss_test

__all__ = ["Characteristics", "detect_period", "seasonality_strength",
           "trend_strength", "shifting_score", "transition_score",
           "stationarity_score", "correlation_score", "extract",
           "FEATURE_NAMES"]

FEATURE_NAMES = ("seasonality", "trend", "transition", "shifting",
                 "stationarity", "correlation", "period")


@dataclass(frozen=True)
class Characteristics:
    """Scores in [0, 1] per axis (period is in steps)."""

    seasonality: float
    trend: float
    transition: float
    shifting: float
    stationarity: float
    correlation: float
    period: int

    def as_dict(self):
        return asdict(self)

    def as_vector(self):
        """Fixed-order feature vector (period log-scaled into ~[0, 1])."""
        return np.array([
            self.seasonality, self.trend, self.transition, self.shifting,
            self.stationarity, self.correlation,
            np.log1p(self.period) / np.log(1 + 512),
        ])

    def dominant(self, threshold=0.6):
        """Names of axes whose score exceeds ``threshold``."""
        scores = self.as_dict()
        scores.pop("period")
        return sorted(k for k, v in scores.items() if v >= threshold)


def detect_period(values, max_period=None):
    """Dominant seasonal period via the autocorrelation function.

    Returns 0 when no convincing periodic peak exists.  A candidate lag is
    accepted when its ACF value is a local maximum above 0.15.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if max_period is None:
        max_period = min(n // 3, 256)
    if max_period < 2:
        return 0
    # A deterministic trend biases ACF peaks; remove the linear part first.
    t = np.arange(n)
    slope, intercept = np.polyfit(t, values, 1)
    detrended = values - (slope * t + intercept)
    correl = acf(detrended, max_period)
    best_lag, best_val = 0, 0.15
    for lag in range(2, max_period):
        if correl[lag] > best_val and correl[lag] >= correl[lag - 1] \
                and correl[lag] >= correl[lag + 1]:
            best_lag, best_val = lag, correl[lag]
    return int(best_lag)


def _strength(component, remainder):
    """Wang-Smith-Hyndman strength: 1 - Var(resid)/Var(component+resid)."""
    denom = np.var(component + remainder)
    if denom < 1e-12:
        return 0.0
    return float(np.clip(1.0 - np.var(remainder) / denom, 0.0, 1.0))


def seasonality_strength(values, period=None):
    """Seasonal strength in [0, 1] from the STL decomposition."""
    values = np.asarray(values, dtype=np.float64)
    if period is None:
        period = detect_period(values)
    if period < 2:
        return 0.0
    dec = stl_decompose(values, period)
    return _strength(dec.seasonal, dec.remainder)


def trend_strength(values, period=None):
    """Trend strength in [0, 1] from the STL decomposition."""
    values = np.asarray(values, dtype=np.float64)
    if period is None:
        period = detect_period(values)
    dec = stl_decompose(values, max(period, 2))
    return _strength(dec.trend, dec.remainder)


def shifting_score(values, n_blocks=8):
    """Distribution-shift score in [0, 1].

    Splits the series into blocks and measures the spread of block means
    relative to the overall scale; large spread means the level wanders
    (the "Shifting" axis).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    n_blocks = max(min(n_blocks, n // 8), 2)
    blocks = np.array_split(values, n_blocks)
    means = np.array([b.mean() for b in blocks])
    scale = values.std() + 1e-12
    spread = means.std() / scale
    return float(np.clip(spread, 0.0, 1.0))


def transition_score(values, n_blocks=8):
    """Regime-transition score in [0, 1].

    Measures how much local second-order statistics (variance and lag-1
    autocorrelation) vary across blocks — stable dynamics score near 0,
    regime-switching series near 1.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    n_blocks = max(min(n_blocks, n // 16), 2)
    blocks = np.array_split(values, n_blocks)
    stds, rhos = [], []
    for b in blocks:
        stds.append(b.std())
        centred = b - b.mean()
        denom = float(centred @ centred)
        rhos.append(float(centred[1:] @ centred[:-1]) / denom
                    if denom > 1e-12 else 0.0)
    stds = np.asarray(stds)
    rel_std = stds.std() / (stds.mean() + 1e-12)
    rho_spread = np.std(rhos)
    return float(np.clip(0.5 * rel_std + 0.5 * rho_spread, 0.0, 1.0))


def stationarity_score(values):
    """Stationarity in [0, 1]: 1 is strongly stationary.

    Combines the ADF test (rejecting the unit root pushes the score up)
    and the KPSS test (rejecting stationarity pushes it down).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < 16 or values.std() < 1e-12:
        return 0.5
    adf = adf_test(values)
    kpss = kpss_test(values)
    score = 0.5 * (1.0 - adf.pvalue) + 0.5 * kpss.pvalue
    return float(np.clip(score, 0.0, 1.0))


def correlation_score(values):
    """Mean absolute off-diagonal Pearson correlation across channels."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 2:
        return 0.0
    keep = values.std(axis=0) > 1e-12
    if keep.sum() < 2:
        return 0.0
    corr = np.corrcoef(values[:, keep], rowvar=False)
    mask = ~np.eye(corr.shape[0], dtype=bool)
    return float(np.clip(np.abs(corr[mask]).mean(), 0.0, 1.0))


def extract(series_or_values, period=None):
    """Extract a :class:`Characteristics` record.

    Accepts a :class:`~repro.datasets.TimeSeries` or a raw array.  For
    multivariate input the univariate axes are computed on the mean
    channel and Correlation across channels.
    """
    values = getattr(series_or_values, "values", series_or_values)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    mono = values.mean(axis=1)
    if period is None:
        hinted = getattr(series_or_values, "freq", 0)
        period = hinted if hinted and hinted >= 2 else detect_period(mono)
    # One STL serves both strengths: it is the decomposition
    # trend_strength runs, and seasonality_strength's whenever period >= 2.
    dec = stl_decompose(mono, max(period, 2))
    return Characteristics(
        seasonality=(_strength(dec.seasonal, dec.remainder)
                     if period >= 2 else 0.0),
        trend=_strength(dec.trend, dec.remainder),
        transition=transition_score(mono),
        shifting=shifting_score(mono),
        stationarity=stationarity_score(mono),
        correlation=correlation_score(values),
        period=int(period),
    )
