"""Crash-safe file writes shared by every end-of-run artifact writer.

A report that a SIGKILL (or power loss) can truncate is worse than no
report: ``repro top --from`` and the CI validators would choke on half a
JSON document. Every writer of a machine-readable artifact — serve
reports, fault plans, serve checkpoints — funnels through
:func:`atomic_write_text`: the bytes land in a temporary file in the
*same directory*, are fsynced to stable storage, and only then replace
the destination with an atomic ``os.replace``. Readers therefore see
either the complete old file or the complete new file, never a torn
write.

The directory entry itself is fsynced best-effort after the rename so
the new name survives a crash too (POSIX leaves the entry durability to
the directory fsync; on platforms where directories cannot be opened,
e.g. Windows, that step is skipped — the content atomicity still holds).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, IO

__all__ = ["atomic_write_json", "atomic_write_text", "fsync_file"]


def fsync_file(handle: IO[Any]) -> None:
    """Flush ``handle`` and force its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(directory: Path) -> None:
    # Durability of the rename itself: sync the directory entry. Not all
    # platforms allow opening a directory (Windows); treat that as
    # best-effort — content atomicity does not depend on it.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX). On any
    failure the temporary file is removed and the destination is left
    untouched.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=target.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            fsync_file(handle)
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    _fsync_dir(directory)
    return target


def atomic_write_json(
    path: str | Path,
    payload: Any,
    indent: int | None = 2,
    sort_keys: bool = False,
) -> Path:
    """Serialize ``payload`` as JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text + "\n")
