"""Schedule persistence: save/load fused schedules with pattern guards.

The paper's inspector-executor contract is that "the fused schedule can
be reused as long as the sparsity patterns of A and L do not change" —
iterative solvers pay inspection once and reuse the schedule for the
whole solve, and across solves with the same pattern. This module makes
that reuse durable: schedules serialize to a single ``.npz`` file, and a
*pattern fingerprint* (a SHA-256 over the operand's structure arrays)
recorded at save time is verified at load time, so a stale schedule is
rejected instead of silently producing a wrong execution order.

:func:`save_arrays` / :func:`load_arrays` store a list of arrays plus a
small JSON header in one flat file that loads with a single read and no
zip handling (the schedule cache keeps compiled plans in it): a fixed
prefix, the header, then every array's bytes back to back in one arena,
all under a CRC-32. Loaded arrays are read-only views of that one read.
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

_FORMAT_VERSION = 1
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
    """Serialize *schedule* to ``path`` (``.npz``).

    The flattened representation stores every w-partition's vertices in
    one array plus two offset tables (w-partition boundaries and
    s-partition boundaries over w-partitions) — loading is O(nnz) with
    no Python-loop parsing.
    """
    path = Path(path)
    verts = []
    w_offsets = [0]
    s_offsets = [0]
    for wlist in schedule.s_partitions:
        for w in wlist:
            verts.append(np.asarray(w, dtype=INDEX_DTYPE))
            w_offsets.append(w_offsets[-1] + w.shape[0])
        s_offsets.append(s_offsets[-1] + len(wlist))
    meta = {
        "format_version": _FORMAT_VERSION,
        "packing": schedule.packing,
        "fusion": bool(schedule.fusion),
        "fingerprint": fingerprint,
        "meta": {
            k: v
            for k, v in schedule.meta.items()
            if k not in RUNTIME_META_KEYS and _jsonable(v)
        },
    }
    np.savez_compressed(
        path,
        vertices=(
            np.concatenate(verts) if verts else np.empty(0, dtype=INDEX_DTYPE)
        ),
        w_offsets=np.asarray(w_offsets, dtype=INDEX_DTYPE),
        s_offsets=np.asarray(s_offsets, dtype=INDEX_DTYPE),
        loop_counts=np.asarray(schedule.loop_counts, dtype=INDEX_DTYPE),
        meta_json=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_schedule(path, *, expect_fingerprint: str | None = None) -> FusedSchedule:
    """Load a schedule saved by :func:`save_schedule`.

    When *expect_fingerprint* is given (compute it from the current
    operands with :func:`pattern_fingerprint`), a mismatch against the
    stored fingerprint raises :class:`ScheduleFormatError` — the operand
    pattern changed and the schedule must be re-inspected.
    """
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            vertices = data["vertices"]
            w_offsets = data["w_offsets"]
            s_offsets = data["s_offsets"]
            loop_counts = tuple(int(x) for x in data["loop_counts"])
        except KeyError as exc:
            raise ScheduleFormatError(f"missing field in {path}: {exc}") from exc
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ScheduleFormatError(
            f"unsupported schedule format {meta.get('format_version')!r}"
        )
    stored = meta.get("fingerprint")
    if expect_fingerprint is not None and stored != expect_fingerprint:
        raise ScheduleFormatError(
            "operand pattern changed since this schedule was saved "
            f"(stored {str(stored)[:12]}..., current "
            f"{expect_fingerprint[:12]}...); re-run the inspector"
        )
    s_partitions: list[list[np.ndarray]] = []
    for s in range(s_offsets.shape[0] - 1):
        wlist = []
        for w in range(int(s_offsets[s]), int(s_offsets[s + 1])):
            wlist.append(vertices[int(w_offsets[w]) : int(w_offsets[w + 1])].copy())
        s_partitions.append(wlist)
    sched = FusedSchedule(
        loop_counts,
        s_partitions,
        packing=meta.get("packing", "none"),
        fusion=meta.get("fusion", True),
        meta=dict(meta.get("meta", {})),
    )
    if stored is not None:
        sched.meta["fingerprint"] = stored
    return sched


def save_arrays(
    path, header: dict, arrays: list[np.ndarray], *, fingerprint: str
) -> Path:
    """Write *arrays* and the JSON-able *header* to one file at *path*.

    Each array is stored as its raw bytes (8-byte aligned) with its
    dtype and shape in the header; object arrays are rejected with
    ``TypeError``. The file is written to a temporary name and renamed
    into place, so a concurrent reader sees the old file or the new one.
    """
    path = Path(path)
    table = []
    chunks = []
    offset = 0
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype.hasobject:
            raise TypeError("object arrays cannot be stored")
        table.append([arr.dtype.str, offset, list(arr.shape)])
        chunks.append(arr.tobytes())
        pad = -arr.nbytes % 8
        if pad:
            chunks.append(bytes(pad))
        offset += arr.nbytes + pad
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
    *expect_fingerprint*, or an array table that does not fit the file.
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
        if meta["fingerprint"] != expect_fingerprint:
            raise ScheduleFormatError(f"{path}: fingerprint mismatch")
        arena = prefix + head_len
        arrays = []
        for dtype, offset, shape in meta["arrays"]:
            dtype = np.dtype(dtype)
            count = math.prod(shape)
            start = arena + offset
            if offset < 0 or start + count * dtype.itemsize > len(data):
                raise ScheduleFormatError(f"{path}: array table out of range")
            arrays.append(np.frombuffer(data, dtype, count, start).reshape(shape))
        return meta["header"], arrays
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleFormatError(f"{path}: malformed header ({exc})") from exc


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
