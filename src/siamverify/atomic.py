"""The one way the package writes a file: beside its target, then renamed over it."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str, **open_kwargs):
    """Yield ``<path>.tmp`` opened with ``mode``; on success rename it over ``path``.

    On any exception the temp file is removed and the exception re-raised, so
    a failed write leaves the previous file, or no file, at ``path``.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
