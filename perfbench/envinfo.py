"""The environment a result was measured in, read without changing anything."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> str:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_quota() -> str:
    """The cgroup CPU quota as 'quota/period' microseconds, 'max' when unlimited."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    try:
        if v2.exists():
            quota, period = v2.read_text().split()
        elif v1.exists():
            quota = v1.read_text().strip()
            period = (v1.parent / "cpu.cfs_period_us").read_text().strip()
        else:
            return "unknown"
    except (OSError, ValueError):
        return "unknown"
    return "max" if quota in ("max", "-1") else f"{quota}/{period}"


def _commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "commit": _commit(root),
        "seed": seed,
    }
