"""Machine and library fingerprint recorded in every result file."""

import os
import platform
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    """Level, type and size of each cache of CPU 0, where the OS exposes them."""
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            out.append(
                "L{} {} {}".format(*((idx / f).read_text().strip() for f in ("level", "type", "size")))
            )
    except OSError:
        pass
    return out


def _build(module):
    """BLAS and LAPACK names and versions a numpy or scipy build links."""
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return "unknown"
    return {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack") if k in deps}


def fingerprint():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas_lapack": _build(numpy),
        "scipy_blas_lapack": _build(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
