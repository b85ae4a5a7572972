"""Run metadata recorded with every result: what code ran, on what."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np
import scipy

# Thread-count getters of the OpenBLAS builds numpy and scipy ship.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def _commit(root: Path):
    """HEAD of the checkout's own git repository, or None outside one."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def _tree_digest(src: Path) -> str:
    """sha256 over the paths and contents of the program's source files."""
    h = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        h.update(str(f.relative_to(src)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, asked of the library."""
    with open("/proc/self/maps") as f:
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", f.read())))
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in _BLAS_GETTERS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def collect(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
