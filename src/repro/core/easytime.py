"""EasyTime: the public facade wiring the four modules together.

One object exposes everything the demo frontend offers:

* one-click evaluation (``one_click``) — §II-B / scenario S1;
* method recommendation and automated ensembling (``recommend``,
  ``automl``) — §II-C / scenario S2;
* natural-language Q&A (``ask``) — §II-D / scenario S3;
* dataset upload/choice, characteristics display and forecast
  visualisation helpers used by the web layer.
"""

from __future__ import annotations

import os

import numpy as np

from ..characteristics import extract
from ..datasets import DatasetRegistry, TimeSeries, loads_csv
from ..datasets.split import train_val_test_split
from ..ensemble import AutoEnsemble
from ..evaluation.strategies import make_strategy
from ..knowledge import build_benchmark_knowledge
from ..methods.registry import create, list_methods, method_info
from ..pipeline import BenchmarkConfig, RunLogger, loads_config, run_one_click
from ..qa import QAEngine
from ..report import render_chart

__all__ = ["EasyTime"]


class EasyTime:
    """The assembled system.

    Parameters
    ----------
    seed:
        Master seed for the dataset registry and all training.
    per_domain / length / horizons / pool:
        Size of the benchmark run that seeds the knowledge base during
        :meth:`setup` (the paper's store holds 30+ methods × 8,000+
        series; defaults are laptop-scaled, raise them to grow the store).
    """

    def __init__(self, seed=7, per_domain=2, length=384, horizons=(24,),
                 pool=None, logger=None):
        self.seed = seed
        self.per_domain = per_domain
        self.length = length
        self.horizons = tuple(horizons)
        self.pool = pool
        # Note: an empty RunLogger is falsy (len 0), so test identity.
        self.logger = logger if logger is not None else RunLogger()
        self.registry = DatasetRegistry(seed=seed)
        self.knowledge = None
        self.auto = None
        self.qa = None
        self._uploads = {}
        self._ready = False

    # -- lifecycle ---------------------------------------------------------
    def setup(self, ensemble_params=None, progress=None):
        """Build the knowledge base and pretrain the ensemble (offline phase).

        The knowledge-base grid fans out over a process pool with one
        worker per core this process may run on (serial on one core);
        BLAS runs one thread per process, so the bits match a serial
        build.  The pool and its data-plane store close before the grid
        returns.
        """
        from ..knowledge.builder import FAST_POOL
        pool = self.pool or FAST_POOL
        with self.logger.timer("easytime.setup"):
            self.knowledge, self.registry = build_benchmark_knowledge(
                per_domain=self.per_domain, length=self.length,
                horizons=self.horizons, methods=pool, seed=self.seed,
                registry=self.registry, logger=self.logger.child("kb"),
                workers=len(os.sched_getaffinity(0)))
            if progress:
                progress("knowledge base built")
            params = dict(ensemble_params or {})
            params.setdefault("ts2vec_params", {"iterations": 40})
            params.setdefault("classifier_params", {"epochs": 120})
            self.auto = AutoEnsemble(self.knowledge, registry=self.registry,
                                     seed=self.seed, **params)
            self.auto.pretrain(progress=progress)
            self.qa = QAEngine(self.knowledge)
        self._ready = True
        return self

    def _require_ready(self):
        if not self._ready:
            raise RuntimeError("call setup() first")

    # -- data access (Fig. 4 labels 1-2) -----------------------------------
    def upload_dataset(self, csv_text, name="uploaded", imputer="linear"):
        """Register a user CSV dataset; returns its TimeSeries.

        Gaps (empty CSV cells) are imputed automatically — seasonal-phase
        means when a period is detectable, otherwise ``imputer``.
        """
        from ..characteristics import detect_period
        from ..datasets.impute import has_missing, impute, missing_fraction
        series = loads_csv(csv_text, name=name)
        filled = 0.0
        if has_missing(series.values):
            filled = missing_fraction(series.values)
            dense = impute(series.values, "linear")
            period = detect_period(dense.mean(axis=1))
            if period >= 2:
                dense = impute(series.values, "seasonal", period=period)
            series = series.with_values(dense)
        self._uploads[name] = series
        self.logger.info("easytime.upload", name=name,
                         length=series.length, channels=series.n_channels,
                         imputed_fraction=round(filled, 4))
        return series

    def choose_dataset(self, name, length=None):
        """Fetch a benchmark series (or a previous upload) by name."""
        if name in self._uploads:
            return self._uploads[name]
        return self.registry.get(name, length=length or self.length)

    def list_datasets(self):
        """Names known to the knowledge base plus uploads."""
        names = list(self._uploads)
        if self.knowledge is not None:
            names += self.knowledge.dataset_names()
        return sorted(names)

    def list_methods(self, category=None):
        return list_methods(category=category)

    def method_details(self, name):
        return method_info(name)

    def characteristics(self, series):
        """Characteristic scores displayed next to a dataset (label 4)."""
        return extract(self._coerce(series)).as_dict()

    @staticmethod
    def _coerce(series):
        if isinstance(series, TimeSeries):
            return series
        return TimeSeries(np.asarray(series, dtype=np.float64))

    # -- S1: one-click evaluation ----------------------------------------
    def one_click(self, config, progress=None, cancel=None, policy=None,
                  executor=None, workers=None, dataplane=None):
        """Run a benchmark config (BenchmarkConfig, dict or JSON text).

        ``cancel`` (a :class:`threading.Event`) and ``policy`` (a
        :class:`~repro.resilience.FailurePolicy`) pass through to the
        runner, so callers — the server's background bench jobs — get
        cooperative cancellation and failure budgets.  ``executor`` /
        ``workers`` select the grid backend and ``dataplane`` controls
        the zero-copy store (``None`` auto, ``False`` off, or a
        long-lived :class:`~repro.runtime.SharedArrayStore` shared
        across runs — how the server reuses one store per process).
        """
        if isinstance(config, str):
            config = loads_config(config)
        elif isinstance(config, dict):
            import json
            config = loads_config(json.dumps(config))
        if not isinstance(config, BenchmarkConfig):
            raise TypeError("config must be BenchmarkConfig, dict or JSON")
        return run_one_click(config, registry=self.registry,
                             logger=self.logger.child("one_click"),
                             progress=progress, cancel=cancel, policy=policy,
                             executor=executor, workers=workers,
                             dataplane=dataplane)

    def evaluate_method(self, method_name, series, strategy="rolling",
                        lookback=96, horizon=24,
                        metrics=("mae", "mse", "smape"), **strategy_kwargs):
        """Evaluate one method on one series (Fig. 4 label 7)."""
        series = self._coerce(series) if not isinstance(series, TimeSeries) \
            else series
        model = create(method_name)
        for attr, value in (("lookback", lookback), ("horizon", horizon)):
            if hasattr(model, attr):
                setattr(model, attr, value)
        strat = make_strategy(strategy, lookback=lookback, horizon=horizon,
                              metrics=metrics, keep_forecasts=True,
                              **strategy_kwargs)
        return strat.evaluate(model, series)

    # -- S2: recommendation + automated ensemble -----------------------------
    def recommend(self, series, k=5):
        """Characteristics + top-k recommended methods (labels 3-4)."""
        self._require_ready()
        return self.auto.recommend(self._as_series(series), k=k)

    def automl(self, series, k=3, horizon=None):
        """Build the best-fitting ensemble and forecast (label 8).

        Returns ``(forecast, info)``; ``info`` includes the learned
        weights and the series characteristics.
        """
        self._require_ready()
        return self.auto.forecast(self._as_series(series),
                                  horizon=horizon, k=k)

    def forecast_figure(self, series, forecast, title="forecast"):
        """SVG comparing recent history with a forecast (labels 9-10)."""
        series = self._as_series(series)
        history = list(series.values[-3 * len(forecast):, 0])
        fc = np.asarray(forecast, dtype=np.float64)
        fc_col = fc[:, 0] if fc.ndim == 2 else fc
        # The renderer has no NaN-gap support, so history and forecast are
        # drawn as two aligned segments sharing the handover point.
        spec = {
            "type": "line", "title": title,
            "series": [
                {"name": "history", "values": history + [history[-1]]},
                {"name": "forecast",
                 "values": [history[-1]] * len(history) + list(fc_col)},
            ],
        }
        return render_chart(spec)

    def _as_series(self, series):
        if isinstance(series, TimeSeries):
            return series
        if isinstance(series, str):
            return self.choose_dataset(series)
        return self._coerce(series)

    # -- S3: natural-language Q&A --------------------------------------------
    def ask(self, question):
        """Answer a question about benchmark results (Fig. 5)."""
        self._require_ready()
        response = self.qa.ask(question)
        self.logger.info("easytime.qa", question=question, ok=response.ok)
        return response

    # -- persistence and reporting ---------------------------------------
    def save_knowledge(self, directory):
        """Persist the accumulated benchmark knowledge as CSV files."""
        self._require_ready()
        from ..knowledge.persist import save_knowledge
        return save_knowledge(self.knowledge, directory)

    def load_knowledge(self, directory, ensemble_params=None,
                       progress=None):
        """Restore a saved knowledge base and re-run the offline phase.

        Skips the benchmark re-run of :meth:`setup`; only TS2Vec and the
        classifier are retrained (seconds, not minutes).
        """
        from ..knowledge.persist import load_knowledge
        self.knowledge = load_knowledge(directory)
        params = dict(ensemble_params or {})
        params.setdefault("ts2vec_params", {"iterations": 40})
        params.setdefault("classifier_params", {"epochs": 120})
        self.auto = AutoEnsemble(self.knowledge, registry=self.registry,
                                 seed=self.seed, **params)
        self.auto.pretrain(progress=progress)
        self.qa = QAEngine(self.knowledge)
        self._ready = True
        return self

    def report_html(self, table, metric="mae", title="EasyTime benchmark"):
        """Render a one-click ResultTable as a standalone HTML report."""
        from ..report.html import html_report
        return html_report(table, metric=metric, title=title)
