"""Recording and replaying benchmark results (Section IV-D).

"The serial version processes a predetermined sequence of subframes,
recording and storing the results from each subframe. ... This can be used
to verify that the computation is consistent across different
architectures, as well."

Results are stored as a single compressed ``.npz`` archive: per user, the
decoded payload bits and CRC flag, keyed by subframe and user id. A stored
reference can then be checked against any later run — a different worker
count, runtime, or machine.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..phy.chain import UserResult
from .serial import SubframeResult
from .verification import VerificationReport, verify_against_serial

__all__ = [
    "RecordingError",
    "save_results",
    "load_results",
    "verify_against_recording",
]

_FORMAT_KEY = "__format__"
_FORMAT_VERSION = 1


class RecordingError(ValueError):
    """A results recording is unreadable, truncated, or inconsistent.

    Raised instead of the grab-bag a damaged ``.npz`` produces naturally
    (``BadZipFile``, ``KeyError``, ``OSError``, ...), so callers checking
    a reference recording can distinguish "this file is damaged" from
    "the results genuinely differ" with a single except clause.
    """


def _key(subframe_index: int, user_id: int, field: str) -> str:
    return f"sf{subframe_index:08d}/u{user_id:04d}/{field}"


def save_results(results: list[SubframeResult], path: str | Path) -> Path:
    """Store a run's decoded results as a compressed archive."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64)
    }
    indices = []
    for result in results:
        indices.append(result.subframe_index)
        user_ids = []
        for user_result in result.user_results:
            user_ids.append(user_result.user_id)
            arrays[_key(result.subframe_index, user_result.user_id, "payload")] = (
                np.asarray(user_result.payload, dtype=np.uint8)
            )
            arrays[_key(result.subframe_index, user_result.user_id, "crc")] = (
                np.array([user_result.crc_ok], dtype=np.uint8)
            )
        arrays[f"sf{result.subframe_index:08d}/users"] = np.array(
            sorted(user_ids), dtype=np.int64
        )
    arrays["subframes"] = np.array(sorted(indices), dtype=np.int64)
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate subframe indices cannot be recorded")
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz when missing; report the real path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_results(path: str | Path) -> list[SubframeResult]:
    """Load a stored run back into :class:`SubframeResult` objects.

    Raises :class:`RecordingError` for anything short of a healthy
    archive: an unreadable or truncated file, a foreign ``.npz``, or an
    archive whose internal index names entries that are missing or
    malformed (the shape a partially-written recording takes).
    """
    path = Path(path)
    try:
        archive_cm = np.load(path)
    except FileNotFoundError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise RecordingError(
            f"{path} is not a readable recording (truncated or corrupt): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    with archive_cm as archive:
        if (
            _FORMAT_KEY not in archive
            or archive[_FORMAT_KEY].size != 1
            or int(archive[_FORMAT_KEY][0]) != _FORMAT_VERSION
        ):
            raise RecordingError(
                f"{path} is not a recognized results recording "
                f"(format marker missing or unsupported)"
            )
        try:
            results = []
            for subframe_index in archive["subframes"]:
                subframe_index = int(subframe_index)
                user_results = []
                for user_id in archive[f"sf{subframe_index:08d}/users"]:
                    user_id = int(user_id)
                    payload = archive[_key(subframe_index, user_id, "payload")]
                    crc_array = archive[_key(subframe_index, user_id, "crc")]
                    if crc_array.size != 1:
                        raise RecordingError(
                            f"{path}: malformed CRC entry for subframe "
                            f"{subframe_index} user {user_id}"
                        )
                    user_results.append(
                        UserResult(
                            user_id=user_id,
                            payload=payload,
                            crc_ok=bool(crc_array[0]),
                        )
                    )
                results.append(
                    SubframeResult(
                        subframe_index=subframe_index, user_results=user_results
                    )
                )
        except KeyError as exc:
            raise RecordingError(
                f"{path}: recording index names missing entry {exc} "
                f"(archive is incomplete)"
            ) from exc
    return results


def verify_against_recording(
    path: str | Path, results: list[SubframeResult]
) -> VerificationReport:
    """Check a fresh run against a stored reference recording."""
    reference = load_results(path)
    return verify_against_serial(reference, results)
