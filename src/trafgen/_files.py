"""Atomic artefact writes shared by every module that writes an output file."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_path(path: str | Path):
    """Yield a temporary path beside ``path``; on success it replaces ``path``.

    A write that fails midway leaves any previous ``path`` untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
