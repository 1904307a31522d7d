"""Start-up shared by the benchmark's processes: pin the BLAS threads before
numpy loads, import mdsolve from the checkout's ``src``, and describe the
environment."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; counts repeat exactly only at a fixed count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def use_checkout() -> str:
    """Pin the BLAS threads and put the checkout's mdsolve first on the path.

    Call before anything imports numpy. Returns an error message, or "" on
    success.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "mdsolve" / "__init__.py").is_file():
        return f"no mdsolve sources under {src}; run from a checkout of the repository"
    sys.path.insert(0, str(src))
    import mdsolve

    if Path(mdsolve.__file__).resolve().parent != (src / "mdsolve").resolve():
        return f"imported mdsolve from {mdsolve.__file__}, not from {src}"
    return ""


def openblas() -> dict:
    """Configuration and live thread count of each OpenBLAS numpy and scipy load."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    out = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    out[pkg.__name__] = {"config": config().decode(), "threads": threads()}
                    break
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from its .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout is not a git repository)"


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": openblas(),
        "blas_threads_pinned": BLAS_THREADS, "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
