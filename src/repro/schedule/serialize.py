"""Schedule persistence: save/load fused schedules with pattern guards.

The paper's inspector-executor contract is that "the fused schedule can
be reused as long as the sparsity patterns of A and L do not change" —
iterative solvers pay inspection once and reuse the schedule for the
whole solve, and across solves with the same pattern. This module makes
that reuse durable: a *pattern fingerprint* (a SHA-256 over the
operand's structure arrays) recorded at save time is verified at load
time, so a stale schedule is rejected instead of silently producing a
wrong execution order.

Schedules and the schedule cache's compiled plans share one file format,
written by :func:`save_arrays` and read by :func:`load_arrays`: a list of
arrays plus a small JSON header in one flat file that loads with a
single read and no zip handling. The file is a fixed prefix, the header,
then every array's bytes back to back in one arena, all under a CRC-32.
Loaded arrays are read-only slices of one typed view of that read per
dtype.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..sparse.base import INDEX_DTYPE
from .schedule import RUNTIME_META_KEYS, FusedSchedule

__all__ = [
    "pattern_fingerprint",
    "save_schedule",
    "load_schedule",
    "save_arrays",
    "load_arrays",
    "ScheduleFormatError",
]

_FORMAT_VERSION = 2
_ARRAYS_MAGIC = b"REPROARR"
_ARRAYS_VERSION = 1
#: magic, header length, CRC-32 of everything after this prefix
_ARRAYS_PREFIX = struct.Struct("<8sII")


class ScheduleFormatError(RuntimeError):
    """Raised for malformed files or fingerprint mismatches."""


def pattern_fingerprint(*operands) -> str:
    """SHA-256 over the structure (not values) of sparse operands.

    Accepts any objects exposing ``indptr``/``indices`` arrays
    (:class:`CSRMatrix`, :class:`CSCMatrix`, :class:`DAG`, ...) or
    ``row_indptr``/``row_indices`` (:class:`InterDep`); the digest
    changes iff any pattern changes — exactly the schedule-reuse
    condition.
    """
    h = hashlib.sha256()
    for op in operands:
        attrs = (
            ("indptr", "indices")
            if hasattr(op, "indptr")
            else ("row_indptr", "row_indices")
        )
        for attr in attrs:
            arr = np.ascontiguousarray(getattr(op, attr), dtype=INDEX_DTYPE)
            h.update(attr.encode())
            h.update(arr.shape[0].to_bytes(8, "little"))
            h.update(arr.tobytes())
    return h.hexdigest()


def save_schedule(
    path, schedule: FusedSchedule, *, fingerprint: str | None = None
) -> Path:
    """Serialize *schedule* to one :func:`save_arrays` file at *path*.

    The flattened representation stores every w-partition's vertices in
    one array plus two offset tables (w-partition boundaries and
    s-partition boundaries over w-partitions) — loading is one read and
    a slice per w-partition, with no Python-loop parsing. Returns *path*.
    """
    parts = [w for wlist in schedule.s_partitions for w in wlist]
    w_offsets = np.zeros(len(parts) + 1, dtype=INDEX_DTYPE)
    np.cumsum([w.shape[0] for w in parts], out=w_offsets[1:])
    s_offsets = np.zeros(len(schedule.s_partitions) + 1, dtype=INDEX_DTYPE)
    np.cumsum(schedule.widths(), out=s_offsets[1:])
    vertices = (
        np.concatenate(parts).astype(INDEX_DTYPE, copy=False)
        if parts
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    header = {
        "format_version": _FORMAT_VERSION,
        "loop_counts": [int(n) for n in schedule.loop_counts],
        "packing": schedule.packing,
        "fusion": bool(schedule.fusion),
        "meta": {
            k: v
            for k, v in schedule.meta.items()
            if k not in RUNTIME_META_KEYS and _jsonable(v)
        },
    }
    return save_arrays(
        path, header, [vertices, w_offsets, s_offsets], fingerprint=fingerprint
    )


def load_schedule(path, *, expect_fingerprint: str | None = None) -> FusedSchedule:
    """Load a schedule saved by :func:`save_schedule`.

    When *expect_fingerprint* is given (compute it from the current
    operands with :func:`pattern_fingerprint`), a mismatch against the
    stored fingerprint raises :class:`ScheduleFormatError` — the operand
    pattern changed and the schedule must be re-inspected. So does a
    damaged file. The vertex arrays are read-only views of the one read;
    :meth:`FusedSchedule.copy` gives writable ones.
    """
    stored, header, arrays = _read_arrays(path)
    if expect_fingerprint is not None and stored != expect_fingerprint:
        raise ScheduleFormatError(
            "operand pattern changed since this schedule was saved "
            f"(stored {str(stored)[:12]}..., current "
            f"{expect_fingerprint[:12]}...); re-run the inspector"
        )
    try:
        if header["format_version"] != _FORMAT_VERSION:
            raise ScheduleFormatError(
                f"unsupported schedule format {header['format_version']!r}"
            )
        vertices, w_offsets, s_offsets = arrays
        loop_counts = tuple(int(n) for n in header["loop_counts"])
        w_bounds = w_offsets.tolist()
        s_bounds = s_offsets.tolist()
        if (
            vertices.ndim != 1
            or vertices.dtype != INDEX_DTYPE
            or not _spans(w_bounds, vertices.shape[0])
            or not _spans(s_bounds, len(w_bounds) - 1)
        ):
            raise ValueError("offset tables do not partition the vertices")
        sched = FusedSchedule(
            loop_counts,
            [
                [vertices[w_bounds[w] : w_bounds[w + 1]] for w in range(lo, hi)]
                for lo, hi in zip(s_bounds[:-1], s_bounds[1:])
            ],
            packing=header["packing"],
            fusion=header["fusion"],
            meta=dict(header["meta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleFormatError(f"{path}: malformed schedule ({exc})") from exc
    if stored is not None:
        sched.meta["fingerprint"] = stored
    return sched


def _spans(bounds: list, total: int) -> bool:
    """True when *bounds* runs from 0 to *total* without decreasing."""
    return (
        len(bounds) > 0
        and bounds[0] == 0
        and bounds[-1] == total
        and all(a <= b for a, b in zip(bounds, bounds[1:]))
    )


def save_arrays(
    path, header: dict, arrays: list[np.ndarray], *, fingerprint: str | None
) -> Path:
    """Write *arrays* and the JSON-able *header* to one file at *path*.

    Each array is stored as its raw bytes, at an offset that is a
    multiple of 8 and of its itemsize, with its dtype and shape in the
    header; object arrays and zero-width dtypes are rejected with
    ``TypeError``. The file is written to a temporary name and renamed
    into place, so a concurrent reader sees the old file or the new one.
    """
    path = Path(path)
    table = []
    chunks = []
    offset = 0
    for arr in arrays:
        arr = np.asarray(arr)  # tobytes() is C order; 0-d stays 0-d
        if arr.dtype.hasobject or arr.dtype.itemsize == 0:
            raise TypeError(f"{arr.dtype} arrays cannot be stored")
        pad = -offset % math.lcm(8, arr.dtype.itemsize)
        if pad:
            chunks.append(bytes(pad))
            offset += pad
        table.append([arr.dtype.str, offset, list(arr.shape)])
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    head = json.dumps(
        {
            "format_version": _ARRAYS_VERSION,
            "fingerprint": fingerprint,
            "arrays": table,
            "header": header,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    head += b" " * (-len(head) % 8)
    body = head + b"".join(chunks)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(
        _ARRAYS_PREFIX.pack(_ARRAYS_MAGIC, len(head), zlib.crc32(body)) + body
    )
    os.replace(tmp, path)
    return path


def load_arrays(path, *, expect_fingerprint: str) -> tuple[dict, list[np.ndarray]]:
    """``(header, arrays)`` written by :func:`save_arrays`, in one read.

    Raises :class:`ScheduleFormatError` on a truncated or corrupted file
    (CRC-32), an unknown format version, a fingerprint other than
    *expect_fingerprint*, or an array table that does not fit the file
    or puts an array at an offset that is not a multiple of its
    itemsize.
    """
    stored, header, arrays = _read_arrays(path)
    if stored != expect_fingerprint:
        raise ScheduleFormatError(f"{path}: fingerprint mismatch")
    return header, arrays


def _read_arrays(path) -> tuple[str | None, dict, list[np.ndarray]]:
    """``(fingerprint, header, arrays)`` of a :func:`save_arrays` file.

    The arena is read once; each array is a basic slice of one read-only
    ``frombuffer`` view of the arena per dtype.
    """
    data = Path(path).read_bytes()
    prefix = _ARRAYS_PREFIX.size
    if len(data) < prefix:
        raise ScheduleFormatError(f"{path}: truncated")
    magic, head_len, crc = _ARRAYS_PREFIX.unpack_from(data)
    if magic != _ARRAYS_MAGIC:
        raise ScheduleFormatError(f"{path}: not an array file")
    if zlib.crc32(memoryview(data)[prefix:]) != crc:
        raise ScheduleFormatError(f"{path}: checksum mismatch")
    try:
        meta = json.loads(data[prefix : prefix + head_len])
        if meta["format_version"] != _ARRAYS_VERSION:
            raise ScheduleFormatError(
                f"unsupported array format {meta['format_version']!r}"
            )
        arena = prefix + head_len
        arena_bytes = len(data) - arena
        views: dict[str, tuple[np.ndarray, int]] = {}
        arrays = []
        for code, offset, shape in meta["arrays"]:
            entry = views.get(code)
            if entry is None:
                dtype = np.dtype(code)
                entry = views[code] = (
                    np.frombuffer(data, dtype, arena_bytes // dtype.itemsize, arena),
                    dtype.itemsize,
                )
            view, size = entry
            start, misaligned = divmod(offset, size)
            end = start + (shape[0] if len(shape) == 1 else math.prod(shape))
            if misaligned or not 0 <= start <= end <= view.shape[0]:
                raise ScheduleFormatError(
                    f"{path}: array table out of range or misaligned"
                )
            arrays.append(
                view[start:end] if len(shape) == 1 else view[start:end].reshape(shape)
            )
        return meta["fingerprint"], meta["header"], arrays
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScheduleFormatError(f"{path}: malformed header ({exc})") from exc


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
