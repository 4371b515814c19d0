"""Uniform host/run metadata for benchmark artifacts and trace files.

Every ``BENCH_*.json`` (and every exported trace) embeds the same
:func:`run_metadata` document, so points in the measurement trajectory
are attributable to an interpreter, a numpy build, a host size, a kernel
backend, and a source revision without per-file plumbing.
"""

from __future__ import annotations

import os
import pathlib
import platform as _platform
import subprocess
import sys

__all__ = ["run_metadata"]


def _git_describe() -> str | None:
    """``git describe --always --dirty`` of the source checkout, or
    ``None`` outside a work tree / without git."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else None


def run_metadata() -> dict:
    """The uniform metadata document: python/numpy versions, cpu count,
    the process's *active* kernel backend (from
    :func:`repro.sim.kernels.resolve_kernel`, i.e. post-fallback), the
    source revision, and whether the interpreter writes bytecode caches
    (under ``PYTHONDONTWRITEBYTECODE`` every fresh process recompiles the
    package, so set-up times of the two settings are not comparable)."""
    import numpy as np

    from ..sim.kernels import resolve_kernel

    return {
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": _platform.machine(),
        "kernel": resolve_kernel().name,
        "git": _git_describe(),
        "bytecode_cache": not sys.dont_write_bytecode,
    }
