"""Binary multi-tensor container ("ZTEN" format).

Layout, all integers little-endian:

    magic           4 bytes  b"ZTEN"
    version         u32      1
    record count    u32
    per record:
        name length u16, then UTF-8 name bytes
        dtype code  u8       (2 = IEEE 754 binary64)
        ndim        u8
        extents     ndim x u64
        payload     raw little-endian float64, row-major

Round trips are byte-exact: load(save(T)) compares equal bitwise and
re-saving reproduces the identical file.  Malformed files raise a distinct
error naming the byte offset of the problem.

A load reads each payload once, straight into the array it returns, after
checking its length against the bytes left in the file, so the memory a
load takes is bounded by the size of its records.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    BadMagicError,
    DuplicateRecordError,
    TensorFileError,
    TruncatedFileError,
    VersionError,
)

MAGIC = b"ZTEN"
VERSION = 1
DTYPE_F64 = 2


def save_tensors(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named tensors in iteration order.  Scalars are stored as
    length-1 vectors; all data is converted to little-endian float64."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor, dtype="<f8")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TensorFileError(f"record name too long ({len(name_bytes)} bytes): {name[:32]!r}...")
        if arr.ndim > 0xFF:
            raise TensorFileError(f"record {name!r} has too many dimensions ({arr.ndim})")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", DTYPE_F64, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    """Sequential reads from an open file of known size, each checked
    against the bytes left before anything is read or allocated."""

    def __init__(self, f, size: int, path):
        self.f = f
        self.size = size
        self.path = path
        self.offset = 0

    def _truncated(self, n: int, what: str) -> TruncatedFileError:
        return TruncatedFileError(
            f"{self.path}: truncated while reading {what} at offset {self.offset}: "
            f"need {n} bytes, {self.size - self.offset} remain"
        )

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > self.size:
            raise self._truncated(n, what)
        out = self.f.read(n)
        if len(out) != n:
            raise self._truncated(n, what)
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def take_f64(self, count: int, what: str) -> np.ndarray:
        """``count`` little-endian float64s read straight into a new array."""
        n = 8 * count
        if self.offset + n > self.size:
            raise self._truncated(n, what)
        out = np.empty(count, dtype="<f8")
        if n and self.f.readinto(out) != n:
            raise self._truncated(n, what)
        self.offset += n
        return out


def load_tensors(path) -> dict:
    """Read every record into a dict of float64 arrays, in file order."""
    with open(path, "rb") as f:
        r = _Reader(f, os.fstat(f.fileno()).st_size, path)
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        (version,) = r.unpack("<I", "format version")
        if version != VERSION:
            raise VersionError(f"{path}: unsupported format version {version} at offset 4, expected {VERSION}")
        (count,) = r.unpack("<I", "record count")

        out = {}
        for _ in range(count):
            name_offset = r.offset
            (name_len,) = r.unpack("<H", "record name length")
            try:
                name = r.take(name_len, "record name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise TensorFileError(f"{path}: record name at offset {name_offset + 2} is not valid UTF-8: {e}") from e
            if name in out:
                raise DuplicateRecordError(f"{path}: duplicate record name {name!r} at offset {name_offset}")
            dtype_offset = r.offset
            dtype, ndim = r.unpack("<BB", "dtype and ndim")
            if dtype != DTYPE_F64:
                raise TensorFileError(
                    f"{path}: unknown dtype code {dtype} at offset {dtype_offset} in record {name!r}"
                )
            extents_offset = r.offset
            extents = r.unpack(f"<{ndim}Q", "extents") if ndim else ()
            n_elems = 1
            for e in extents:
                n_elems *= e
            payload = r.take_f64(n_elems, f"payload of record {name!r}")
            try:
                out[name] = payload.reshape(extents)
            except ValueError as e:
                raise TensorFileError(
                    f"{path}: extents {extents} at offset {extents_offset} in record {name!r} "
                    f"do not form an array: {e}"
                ) from e
    if r.offset != r.size:
        raise TensorFileError(
            f"{path}: {r.size - r.offset} trailing bytes after the last record at offset {r.offset}"
        )
    return out
