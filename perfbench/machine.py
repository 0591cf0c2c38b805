"""The machine block attached to every result, so that numbers from
different machines are never compared silently.  Everything comes from
the running interpreter, libc and the loaded OpenBLAS; no file outside
the checkout is read."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

# glibc sysconf names for the cache sizes (bits/confname.h); Python's
# os.sysconf does not know them.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _libc_sysconf(name: int):
    try:
        value = ctypes.CDLL(None).sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _openblas_runtime(np):
    """(threads, core) reported by the OpenBLAS that numpy loaded, if any."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            out_core = None
            if core is not None:
                core.restype = ctypes.c_char_p
                out_core = core().decode()
            return threads(), out_core
    return None, None


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    threads, core = _openblas_runtime(np)
    try:
        ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        ram = None
    return {
        "nproc": nproc(),
        # the CPU family OpenBLAS detected at load, e.g. "SkylakeX"
        "cpu_model": f"{platform.machine()} {core or 'unknown'}",
        "l2_bytes": _libc_sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _libc_sysconf(_SC_LEVEL3_CACHE_SIZE),
        "ram_bytes": ram,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None
        else os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
