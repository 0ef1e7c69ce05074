"""EasyTime: Time Series Forecasting Made Easy - full reproduction.

Reproduces the ICDE 2025 demonstration system of Qiu et al.: the TFB
benchmark substrate (data / method / evaluation / reporting layers and the
one-click pipeline), the benchmark knowledge base on an embedded SQL
engine, the Automated Ensemble module (TS2Vec representations + a
soft-label performance classifier + validation-fitted ensemble weights)
and the natural-language Q&A workflow.

Quickstart::

    from repro import EasyTime
    et = EasyTime().setup()
    series = et.choose_dataset("traffic_u0000")
    print(et.recommend(series).methods)
    forecast, info = et.automl(series)
    print(et.ask("Which method is best for long term forecasting?").answer)
"""

from .runtime import blas as _blas

# One BLAS thread per process: the same bits on every host and no
# spinning thread on a core the process pools use (see runtime.blas).
_blas.pin()

from .core import EasyTime  # noqa: E402 - after the pin, by design

__version__ = "1.0.0"

__all__ = ["EasyTime", "__version__"]
