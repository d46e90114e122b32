"""Atomic artifact writes: a reader finds the previous file or the complete new
one, never a truncated one left by a write that failed midway."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file open on a temporary sibling of `path`; on a clean exit it is
    flushed to disk and `os.replace`d onto `path`, on an error it is removed
    and `path` is left as it was.  Text is UTF-8 and line ends are written as
    given, as the csv module expects."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
