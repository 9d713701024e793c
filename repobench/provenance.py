"""Provenance stamped on every benchmark record."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git(root: Path, *args: str) -> str | None:
    """Output of a read-only git command confined to ``root``, or None outside a
    repository.  Git neither searches above ``root`` nor reads user or system
    configuration, and takes no optional locks (so it writes nothing)."""
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent),
                       GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        completed = subprocess.run(["git", "--no-optional-locks", *args], cwd=root,
                                   env=environment,
                                   capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(root: Path, seed: int, workload: str, sizes: dict) -> dict:
    import numpy

    from repro.engine import active_backend

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "kernel_backend": active_backend().name,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "repro_env": {name: value for name, value in sorted(os.environ.items())
                      if name.startswith("REPRO_")},
    }
