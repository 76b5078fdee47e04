"""Minor page faults of a round run in a fresh process, where glibc's malloc is set."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path


def glibc_mallopt() -> bool:
    """Whether this process has glibc's ``mallopt``."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version")


def fresh_process_count(script: str, work_dir) -> int:
    """The last number ``script`` prints, run with one BLAS thread in a new
    interpreter that imports from ``src`` and ``tests``; ``work_dir`` is its
    first argument."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", script, str(work_dir)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])
