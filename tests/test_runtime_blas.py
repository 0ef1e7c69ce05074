"""One BLAS thread per process: the pin, the fingerprint, the same bits."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pipeline import (BenchmarkConfig, BenchmarkRunner, DatasetSpec,
                            MethodSpec)
from repro.runtime import ArtifactCache, blas

SRC = str(Path(repro.__file__).resolve().parent.parent)

# One rolling ridge cell: a 96-wide lookback makes its normal equations
# large enough for OpenBLAS to split them across threads.
RIDGE_CELL = """
from repro.pipeline import (BenchmarkConfig, DatasetSpec, MethodSpec,
                            run_one_click)
config = BenchmarkConfig(
    methods=(MethodSpec("ridge"),),
    datasets=DatasetSpec(suite="univariate", per_domain=1, length=384,
                         domains=("traffic",)),
    strategy="rolling", lookback=96, horizon=24, metrics=("mae", "mse"),
    tag="blas").validate()
for row in run_one_click(config).to_rows(include_timings=False):
    print(repr(row))
"""


def _ridge_cell(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", RIDGE_CELL], env=env,
                          capture_output=True, timeout=120, check=True)
    return done.stdout


def test_import_pins_one_blas_thread():
    if blas.threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    assert blas.threads() == 1
    assert blas.fingerprint().endswith("; threads=1")
    assert "core=" in blas.fingerprint()


def test_ridge_cell_bits_do_not_depend_on_the_thread_environment():
    one, two = _ridge_cell(1), _ridge_cell(2)
    assert one.strip()
    assert one == two


def _config():
    return BenchmarkConfig(
        methods=(MethodSpec("naive"),),
        datasets=DatasetSpec(suite="univariate", per_domain=1, length=256,
                             domains=("traffic",)),
        strategy="fixed", lookback=48, horizon=12,
        metrics=("mae",)).validate()


def test_cell_fingerprint_and_cache_key_bind_the_blas(monkeypatch, tmp_path):
    runner = BenchmarkRunner(_config())
    series = runner.registry.univariate_suite(
        per_domain=1, length=256, domains=("traffic",))[0]
    spec = MethodSpec("naive")
    cache = ArtifactCache(directory=tmp_path)
    before = (runner.cell_fingerprint(spec, series),
              runner._cache_key(cache, spec, series))
    monkeypatch.setattr(blas, "fingerprint", lambda: "other BLAS")
    after = (runner.cell_fingerprint(spec, series),
             runner._cache_key(cache, spec, series))
    assert before[0] != after[0]
    assert before[1] != after[1]
