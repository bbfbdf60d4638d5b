"""Chunk: the unit blob of the Tensor Storage Format (§3.4).

A chunk holds a contiguous run of samples of one tensor.  Its binary
layout is::

    magic "TSFC" | u32 header_len | u8 version | u8 flags
    | u16 len(cc) | cc (chunk-compression codec name)
    | u16 len(dtype) | dtype
    | u32 num_samples | u8 ndim
    | shapes       num_samples * ndim  u32
    | byte_positions num_samples * 2   u64   (start, end into data section)
    | data section (optionally chunk-compressed as one stream)

The header carries "byte ranges [and] shapes of the samples" exactly as in
the paper, and ``header_len`` sits at a fixed offset so a reader can fetch
the header with one small ranged request and then fetch single samples
with a second ranged request — the access pattern behind shuffled
streaming (§3.5).  When the chunk is chunk-compressed the data section is
one stream and partial reads are impossible by construction (the LZ4
labels case), so callers must fetch whole chunks.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compression import compress_bytes, decompress_bytes
from repro.exceptions import ChunkCorruptedError
from repro.util.ids import new_chunk_name

MAGIC = b"TSFC"
VERSION = 1
FLAG_CHUNK_COMPRESSED = 1
_FIXED = struct.Struct("<4sIBB")  # magic, header_len, version, flags


class Chunk:
    """In-memory chunk being built or decoded.

    Samples are packed back to back in ``data``.  A chunk decoded from
    storage keeps its header's byte positions and shapes as the parsed
    arrays (:meth:`position_array`, :meth:`shape_array`); they become
    per-sample Python lists only when the chunk is first modified or the
    :attr:`shapes` list is asked for.
    """

    __slots__ = ("name", "dtype", "data", "_positions", "_shapes",
                 "_position_arr", "_shape_arr")

    def __init__(self, dtype: Optional[str] = None, name: Optional[str] = None):
        self.name = name or new_chunk_name()
        self.dtype = dtype
        self.data = bytearray()
        # list form (built by appends) or None while only the header
        # arrays of a decoded chunk exist
        self._positions: Optional[List[Tuple[int, int]]] = []
        self._shapes: Optional[List[Tuple[int, ...]]] = []
        self._position_arr: Optional[np.ndarray] = None  # (n, 2) uint64
        self._shape_arr: Optional[np.ndarray] = None     # (n, ndim) uint32

    # ------------------------------------------------------------------ #
    # per-sample layout
    # ------------------------------------------------------------------ #

    def _thaw(self) -> None:
        """Switch a decoded chunk to the list form before it changes."""
        if self._positions is None:
            # lists first, arrays dropped last: concurrent readers always
            # find one complete form
            self._shapes = [tuple(row) for row in self._shape_arr.tolist()]
            self._positions = [tuple(p) for p in self._position_arr.tolist()]
            self._position_arr = self._shape_arr = None

    @property
    def shapes(self) -> List[Tuple[int, ...]]:
        self._thaw()
        return self._shapes

    def position_array(self) -> np.ndarray:
        """``(num_samples, 2)`` uint64 array of [start, end) data offsets."""
        arr = self._position_arr
        if arr is not None:
            return arr
        return np.asarray(self._positions, dtype=np.uint64).reshape(-1, 2)

    def shape_array(self) -> np.ndarray:
        """``(num_samples, ndim)`` uint32 array of sample shapes."""
        arr = self._shape_arr
        if arr is not None:
            return arr
        return np.asarray(self._shapes, dtype=np.uint32).reshape(
            len(self._shapes), self.ndim
        )

    @property
    def ndim(self) -> int:
        arr = self._shape_arr
        if arr is not None:
            return arr.shape[1]
        return len(self._shapes[0]) if self._shapes else 0

    def dense_samples(self, dtype: np.dtype,
                      shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Every sample as one ``(num_samples, *shape)`` view of ``data``,
        or None unless all samples are uncompressed arrays of exactly
        *shape* and *dtype*.  Samples are packed back to back, so sample
        ``i`` starts at ``i * sample_nbytes`` (Hub's ``calculate_bytes``).
        The view pins ``data``: drop it before the chunk can grow."""
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * dtype.itemsize
        n = self.num_samples
        if not nbytes or len(self.data) != n * nbytes:
            return None
        if self.ndim != len(shape) or not (self.shape_array() == shape).all():
            return None
        flat = np.frombuffer(self.data, dtype=dtype, count=n * count)
        return flat.reshape((n,) + tuple(shape))

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #

    @property
    def num_samples(self) -> int:
        arr = self._position_arr
        if arr is not None:
            return len(arr)
        return len(self._positions)

    @property
    def nbytes(self) -> int:
        """Approximate serialised size (uncompressed data section)."""
        return len(self.data) + self.header_nbytes

    @property
    def header_nbytes(self) -> int:
        return (
            _FIXED.size
            + 2 + len("none")
            + 2 + len(self.dtype or "")
            + 4 + 1
            + 4 * self.ndim * self.num_samples
            + 16 * self.num_samples
        )

    def can_fit(self, nbytes: int, max_chunk_size: int) -> bool:
        """Would appending *nbytes* keep this chunk within the upper bound?"""
        if self.num_samples == 0:
            return True  # a chunk always holds at least one sample
        return len(self.data) + nbytes <= max_chunk_size

    def append(self, raw: bytes, shape: Sequence[int], count: int = 1) -> None:
        """Append *count* samples of one *shape* whose payloads are packed
        back to back in *raw*, all the same size — so their offsets are
        arithmetic (Hub's ``calculate_bytes``)."""
        shape = tuple(int(x) for x in shape)
        self._thaw()
        if self._shapes and len(shape) != len(self._shapes[0]):
            raise ChunkCorruptedError(
                f"sample rank {len(shape)} differs from chunk rank "
                f"{len(self._shapes[0])}"
            )
        start = len(self.data)
        self.data.extend(raw)
        size = (len(self.data) - start) // count
        offsets = [start + i * size for i in range(count + 1)]
        self._positions.extend(zip(offsets, offsets[1:]))
        self._shapes.extend([shape] * count)

    def read_bytes(self, local_index: int) -> bytes:
        arr = self._position_arr
        if arr is not None:
            start, end = arr[local_index].tolist()
        else:
            start, end = self._positions[local_index]
        return bytes(self.data[start:end])

    def read_shape(self, local_index: int) -> Tuple[int, ...]:
        arr = self._shape_arr
        if arr is not None:
            return tuple(arr[local_index].tolist())
        return self._shapes[local_index]

    def truncate(self, num_samples: int, data_len: int) -> None:
        """Drop every sample from *num_samples* on (rollback path)."""
        self._thaw()
        del self.data[data_len:]
        del self._positions[num_samples:]
        del self._shapes[num_samples:]

    def update(self, local_index: int, raw: bytes, shape: Sequence[int]) -> None:
        """In-place sample replacement (rebuilds the data buffer)."""
        shape = tuple(int(x) for x in shape)
        self._thaw()
        pieces = [self.read_bytes(i) for i in range(self.num_samples)]
        pieces[local_index] = bytes(raw)
        self._repack(pieces)
        self._shapes[local_index] = shape

    def pop(self, local_index: int) -> None:
        """Drop one sample (used by rechunking)."""
        self._thaw()
        pieces = [self.read_bytes(i) for i in range(self.num_samples)]
        del pieces[local_index]
        del self._shapes[local_index]
        self._repack(pieces)

    def _repack(self, pieces: List[bytes]) -> None:
        self.data = bytearray()
        self._positions = []
        offset = 0
        for piece in pieces:
            self.data.extend(piece)
            self._positions.append((offset, offset + len(piece)))
            offset += len(piece)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def tobytes(self, chunk_compression: Optional[str] = None) -> bytes:
        cc = (chunk_compression or "none").encode()
        dtype = (self.dtype or "").encode()
        ndim = self.ndim
        n = self.num_samples
        shapes_arr = self.shape_array()
        bp_arr = self.position_array()
        header_tail = b"".join(
            [
                struct.pack("<H", len(cc)), cc,
                struct.pack("<H", len(dtype)), dtype,
                struct.pack("<IB", n, ndim),
                shapes_arr.tobytes(),
                bp_arr.tobytes(),
            ]
        )
        header_len = _FIXED.size + len(header_tail)
        flags = FLAG_CHUNK_COMPRESSED if (chunk_compression and chunk_compression != "none") else 0
        data = bytes(self.data)
        if flags:
            data = compress_bytes(data, chunk_compression)
        return _FIXED.pack(MAGIC, header_len, VERSION, flags) + header_tail + data

    # -- header-only parsing (for ranged reads) -------------------------

    @staticmethod
    def peek_header_len(prefix: bytes) -> int:
        if len(prefix) < 8 or prefix[:4] != MAGIC:
            raise ChunkCorruptedError("not a TSF chunk (bad magic)")
        return struct.unpack_from("<I", prefix, 4)[0]

    @classmethod
    def parse_header(cls, header: bytes) -> "ChunkHeader":
        magic, header_len, version, flags = _FIXED.unpack_from(header, 0)
        if magic != MAGIC:
            raise ChunkCorruptedError("not a TSF chunk (bad magic)")
        if version > VERSION:
            raise ChunkCorruptedError(f"unsupported chunk version {version}")
        off = _FIXED.size
        (cc_len,) = struct.unpack_from("<H", header, off)
        off += 2
        cc = header[off : off + cc_len].decode()
        off += cc_len
        (dt_len,) = struct.unpack_from("<H", header, off)
        off += 2
        dtype = header[off : off + dt_len].decode() or None
        off += dt_len
        n, ndim = struct.unpack_from("<IB", header, off)
        off += 5
        shapes = np.frombuffer(
            header, dtype=np.uint32, count=n * ndim, offset=off
        ).reshape(n, ndim)
        off += 4 * n * ndim
        bp = np.frombuffer(
            header, dtype=np.uint64, count=n * 2, offset=off
        ).reshape(n, 2)
        off += 16 * n
        if off != header_len:
            raise ChunkCorruptedError(
                f"header length mismatch: parsed {off}, declared {header_len}"
            )
        return ChunkHeader(
            header_len=header_len,
            flags=flags,
            chunk_compression=None if cc == "none" else cc,
            dtype=dtype,
            shapes=shapes,
            byte_positions=bp,
        )

    @classmethod
    def frombytes(cls, blob: bytes, name: Optional[str] = None) -> "Chunk":
        blob = bytes(blob)
        header = cls.parse_header(blob)
        chunk = cls(dtype=header.dtype, name=name)
        if header.flags & FLAG_CHUNK_COMPRESSED:
            data = decompress_bytes(blob[header.header_len :],
                                    header.chunk_compression)
            chunk.data = bytearray(data)
        else:
            chunk.data = bytearray(memoryview(blob)[header.header_len :])
        # copies: the parsed header arrays are views that would pin blob
        chunk._shape_arr = header.shapes.copy()
        chunk._position_arr = header.byte_positions.copy()
        chunk._positions = chunk._shapes = None
        n = len(chunk._position_arr)
        declared = int(chunk._position_arr[-1, 1]) if n else 0
        if len(chunk.data) < declared:
            raise ChunkCorruptedError(
                f"data section truncated: {len(chunk.data)} < {declared}"
            )
        return chunk

    def __repr__(self) -> str:
        return (
            f"Chunk(name={self.name[:8]}..., samples={self.num_samples}, "
            f"bytes={len(self.data)})"
        )


class ChunkHeader:
    """Parsed chunk header (cheap, no data section)."""

    __slots__ = (
        "header_len", "flags", "chunk_compression", "dtype", "shapes",
        "byte_positions",
    )

    def __init__(self, header_len, flags, chunk_compression, dtype, shapes,
                 byte_positions):
        self.header_len = header_len
        self.flags = flags
        self.chunk_compression = chunk_compression
        self.dtype = dtype
        self.shapes = shapes
        self.byte_positions = byte_positions

    @property
    def is_chunk_compressed(self) -> bool:
        return bool(self.flags & FLAG_CHUNK_COMPRESSED)

    def sample_range(self, local_index: int) -> Tuple[int, int]:
        """Absolute [start, end) of one sample within the encoded blob.

        Only meaningful when the chunk is not chunk-compressed.
        """
        start, end = self.byte_positions[local_index]
        return self.header_len + int(start), self.header_len + int(end)

    def sample_shape(self, local_index: int) -> Tuple[int, ...]:
        return tuple(int(x) for x in self.shapes[local_index])
