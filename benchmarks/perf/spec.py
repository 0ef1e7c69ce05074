"""Workloads, their seeded inputs, and the end-to-end metric definitions.

Shared by the load generator (``harness``) and the system process
(``system``).  Everything a workload sends is a pure function of the
``--seed``; the system receives only these generated inputs.

The input spaces are pinned here rather than read from ``src`` (method
pools, dataset names, the Q&A corpus), so a change to the program cannot
silently change what the benchmark asks it to do.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

WORKLOADS = ("grid", "forecast", "qa", "automl")

#: Seed of the system under test (``EasyTime(seed=...)``).  The benchmark
#: ``--seed`` varies the inputs, never the system's own configuration.
SYSTEM_SEED = 7

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "rss_mb": ("MB", "lower"),
}

#: ``run_seconds`` of ``BENCHMARK.json``: the only accepted ``--seconds``.
#: A run does a fixed amount of work (:data:`OPS`) sized to about this long
#: at the seed, not a time-bounded window, so every commit does the same
#: work and ``rss_mb`` stays comparable.
RUN_SECONDS = 10

#: Measured operations per run: grids for ``grid`` (180 cells each),
#: requests, questions and sessions for the others.  ``qa`` and ``automl``
#: hold whole passes over their corpus (16 and 4), so the seed orders the
#: mix but cannot change it; each count splits into the ``TRACE_PAIRS``
#: equal, whole-pass sub-windows of a traced run.
OPS = {"grid": 4, "forecast": 2900, "qa": 1040, "automl": 80}

#: Percentile reported as ``tail_ms``.  Fixed per workload so the metric
#: means the same thing on every commit; each leaves at least ten samples
#: beyond it, with margin, at :data:`OPS` (29, 52 and 16).  A grid run
#: holds four grids of identical work, so its tail is the slowest grid.
TAIL_PERCENTILE = {"grid": 100.0, "forecast": 99.0, "qa": 95.0,
                   "automl": 80.0}

#: Closed-loop client count.  ``automl`` keeps one client: concurrent
#: deep fits race on the process-global ``no_grad`` flag.
CLIENTS = {"grid": 1, "forecast": 2, "qa": 2, "automl": 1}

#: Unmeasured operations before the measured ones, so caches reach steady
#: state.  ``qa`` warms up for exactly one pass; ``automl``'s reference
#: pass has already run every session.
WARMUP_OPS = {"grid": 0, "forecast": 240, "qa": 65, "automl": 0}

#: What one counted operation is, per workload.
OP_UNIT = {"grid": "cell", "forecast": "request", "qa": "question",
           "automl": "session"}

#: Set-up samples per run (the first comes from the serving process).
SETUP_SAMPLES = 3

#: A traced run measures :data:`OPS` untraced and again traced, split
#: into this many alternating sub-window pairs.
TRACE_PAIRS = 2


def planned_ops(workload, smoke=False):
    """Measured operations of one run; ``--smoke`` does a tenth."""
    return max(1, OPS[workload] // 10) if smoke else OPS[workload]

DOMAINS = ("traffic", "electricity", "energy", "environment", "nature",
           "economic", "stock", "banking", "health", "web")

# -- grid: S1 one-click grid ----------------------------------------------

#: The 18-method fast pool the knowledge base is built from.
GRID_METHODS = ("naive", "seasonal_naive", "drift", "mean", "ses", "holt",
                "holt_winters", "theta", "ridge", "lasso", "knn",
                "linear_nn", "mlp", "dlinear", "nlinear", "rlinear",
                "spectral", "patchmlp")
GRID_WORKERS = 2
GRID_CELLS = len(GRID_METHODS) * len(DOMAINS)


def grid_config(seed):
    """The one-click config: 18 methods x 10 series (one per domain)."""
    return {"methods": list(GRID_METHODS),
            "datasets": {"suite": "univariate", "per_domain": 1,
                         "length": 512},
            "strategy": "rolling", "lookback": 96, "horizon": 24,
            "metrics": ["mae", "mse"], "seed": int(seed),
            "tag": "perf-grid"}


# -- forecast: POST /forecast ----------------------------------------------

FORECAST_METHODS = ("theta", "ets", "holt_winters", "ses", "ridge", "knn")
FORECAST_HORIZONS = (24, 48)
ZIPF_S = 1.4
FORECAST_BLOCK = 4096


def forecast_datasets():
    """The 20 knowledge-base series of ``EasyTime(seed=7).setup()``.

    ``/forecast`` resolves them through the dataset registry, so they
    exist whether or not the offline phase ran.
    """
    return [f"{domain}_u{index:04d}" for domain in DOMAINS
            for index in range(2)]


def forecast_keys():
    """All 240 ``(dataset, method, horizon)`` keys, most popular first.

    The ranking is fixed, not seeded: popularity rank ``r`` belongs to
    method ``r % 6``, and a fixed permutation picks the dataset and
    horizon at each of a method's ranks.  Only ETS fits are slow (30-75 ms
    against ~1 ms, varying 2x with the series), so a seeded ranking would
    let the seed decide how expensive the cold tail is.
    """
    rng = random.Random("forecast-keys")
    pairs = [(d, h) for d in forecast_datasets() for h in FORECAST_HORIZONS]
    per_method = {m: rng.sample(pairs, len(pairs)) for m in FORECAST_METHODS}
    keys = []
    for rank in range(len(pairs) * len(FORECAST_METHODS)):
        method = FORECAST_METHODS[rank % len(FORECAST_METHODS)]
        dataset, horizon = per_method[method][rank // len(FORECAST_METHODS)]
        keys.append((dataset, method, horizon))
    return keys


def zipf_counts(n, total):
    """Requests per rank in a block of ``total``: Zipf(s=1.4) frequencies
    apportioned by largest remainder (ties to the more popular rank)."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n)]
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda r: (counts[r] - exact[r], r))
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return counts


def forecast_stream(seed):
    """Endless Zipf(s=1.4) requests over the ranked keys.

    Quota-sampled: each block of :data:`FORECAST_BLOCK` requests holds
    every key exactly its Zipf share of times in a seeded order, so the
    cold-fit mix a window sees varies far less between seeds than
    independent draws would make it.
    """
    keys = forecast_keys()
    block = [key for key, count in zip(keys, zipf_counts(len(keys),
                                                          FORECAST_BLOCK))
             for _ in range(count)]
    yield from passes(block, seed, "forecast-order")


# -- qa: POST /qa -----------------------------------------------------------

QA_CORPUS = HERE / "qa_corpus.json"
QA_STORE_SERIES = 2000


def qa_cases():
    """The 65-case golden corpus (a pinned copy of the repository's)."""
    return json.loads(QA_CORPUS.read_text(encoding="utf-8"))["cases"]


def passes(items, seed, salt):
    """Endless seeded permutations of ``items``, one full pass at a time."""
    rng = random.Random(f"{salt}:{seed}")
    items = list(items)
    while True:
        yield from rng.sample(items, len(items))


# -- automl: S2 upload -> recommend -> automl -----------------------------

#: Held-out series: two per domain at indices the knowledge base (built
#: from indices 0-1) never saw.  The set is fixed and the seed orders the
#: sessions: a session's cost depends ~5x on which candidates the
#: classifier recommends, so a seed-chosen set would move the median.
HELDOUT_INDICES = (64, 65)
HELDOUT_LENGTH = 512
RECOMMEND_K = 5
AUTOML_K = 3


def heldout_uploads():
    """``[(upload name, CSV text)]`` for the 20 held-out series."""
    from repro.datasets import DatasetRegistry
    from repro.datasets.io import dumps_csv
    registry = DatasetRegistry(seed=SYSTEM_SEED)
    uploads = []
    for domain in DOMAINS:
        for index in HELDOUT_INDICES:
            series = registry.univariate_series(domain, index,
                                                length=HELDOUT_LENGTH)
            uploads.append((f"up_{series.name}", dumps_csv(series)))
    return uploads


def workload_inputs(workload, seed):
    """The inputs shipped to the system process for reference outputs."""
    if workload == "grid":
        return {"config": grid_config(seed)}
    if workload == "forecast":
        return {"keys": [list(k) for k in forecast_keys()]}
    if workload == "qa":
        return {"cases": qa_cases()}
    if workload == "automl":
        return {"uploads": heldout_uploads()}
    raise KeyError(workload)


def canonical(obj):
    """Exact, order-independent text form of a JSON value (floats by repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
