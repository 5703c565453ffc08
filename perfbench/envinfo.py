"""The environment a result was measured in, so runs compare like with like."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without starting git; "unknown"
    when the checkout is not a git repository."""
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
    }
