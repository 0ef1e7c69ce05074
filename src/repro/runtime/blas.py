"""One BLAS thread per process, and a fingerprint of the BLAS in use.

numpy's bundled OpenBLAS starts one thread per core.  That has two
costs here:

* **bits** — a large GEMM or solve splits its reduction by thread, so
  e.g. ``ridge`` forecasts differ in the last bits between a 1- and a
  2-thread process, and "one answer per cell" would hold on one host
  only;
* **cores** — an idle OpenBLAS thread spins, so two pool workers
  oversubscribe two cores and a serial fit wastes the second one.

:func:`pin` (called once from ``repro/__init__``) sets the bundled
library to one thread through its exported
``scipy_openblas_set_num_threads64_``.  It works after numpy has loaded,
and forked pool workers inherit the setting.  Parallelism comes from
the process pools instead.

``DYNAMIC_ARCH`` builds pick kernels per CPU family, so one-threaded
bits can still differ across hosts.  :func:`fingerprint` names the
library build, the kernel core and the thread count; it is folded into
every cell fingerprint and cache key, and a fleet coordinator refuses a
worker whose fingerprint differs (``OPENBLAS_CORETYPE`` pins the core of
a mixed-CPU fleet).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["pin", "threads", "fingerprint"]


@functools.lru_cache(maxsize=1)
def _library():
    """numpy's bundled OpenBLAS as a ctypes handle, or ``None``.

    ``dlopen`` of the path numpy already loaded returns the same
    handle, so a call here configures the BLAS numpy uses.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(
            libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            for name, argtypes, restype in (
                    ("set_num_threads", [ctypes.c_int], None),
                    ("get_num_threads", [], ctypes.c_int),
                    ("get_config", [], ctypes.c_char_p),
                    ("get_corename", [], ctypes.c_char_p)):
                fn = getattr(lib, f"scipy_openblas_{name}64_")
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


def pin():
    """Set the bundled OpenBLAS to one thread (without it, do nothing:
    :func:`fingerprint` then says the BLAS is unknown)."""
    lib = _library()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def threads():
    """The BLAS thread count, or ``None`` when the library is unknown."""
    lib = _library()
    if lib is None:
        return None
    return int(lib.scipy_openblas_get_num_threads64_())


@functools.lru_cache(maxsize=1)
def _build():
    lib = _library()
    if lib is None:
        return f"unknown BLAS (numpy {np.__version__})"
    config = lib.scipy_openblas_get_config64_().decode("ascii", "replace")
    core = lib.scipy_openblas_get_corename64_().decode("ascii", "replace")
    return f"{' '.join(config.split())}; core={core}"


def fingerprint():
    """``"<build config>; core=<name>; threads=<n>"`` of the BLAS in use.

    Two processes with equal fingerprints compute bit-identical BLAS
    results on the same inputs.  Without the bundled library it says
    the BLAS is unknown and ``threads=None``: the count was left as is.
    """
    return f"{_build()}; threads={threads()}"
