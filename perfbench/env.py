"""Numeric-environment pinning and fingerprint.

:func:`pin_blas` must run before numpy is imported: it sets the BLAS
thread variables to 1 so both bundled OpenBLAS builds (numpy's and
scipy's) run single-threaded. A second BLAS thread both slows small
factorizations on a shared host and changes results in the last bits.

:func:`fingerprint` reads the *live* thread count of every OpenBLAS
library loaded in the process, through its own ``get_num_threads``
entry point, and reports it next to core count, CPU affinity and
library versions.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS to one thread (call before importing numpy)."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so"):
                paths.add(path)
    return sorted(paths)


def _blas_info(path: str) -> dict:
    """Build string and live thread count of one OpenBLAS library."""
    lib = ctypes.CDLL(path)
    info = {"library": os.path.basename(path), "config": None,
            "threads": None}
    # numpy ships an ILP64 build with a ``64_`` symbol suffix; scipy's
    # build is LP64. Both prefix their symbols with ``scipy_``.
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info["threads"] = int(threads())
            info["config"] = config().decode("utf-8", "replace")
            return info
    return info


def fingerprint() -> dict:
    """The numeric environment of this process (numpy/scipy imported)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 -- maps scipy's OpenBLAS

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas": [_blas_info(path) for path in _loaded_openblas()],
    }


def check_single_threaded(fp: dict) -> None:
    """Raise unless every loaded OpenBLAS reports exactly one thread."""
    if len(fp["blas"]) < 2:
        raise RuntimeError(
            f"expected numpy's and scipy's OpenBLAS, found {fp['blas']}")
    bad = [b for b in fp["blas"] if b["threads"] != 1]
    if bad:
        raise RuntimeError(f"BLAS is not single-threaded: {bad}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
