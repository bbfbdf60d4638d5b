"""Image codecs: a real lossy block-DCT codec (JPEG stand-in) and a
filtered-deflate lossless codec (PNG stand-in).

``jpeg_sim`` performs the actual JPEG pipeline on numpy/scipy — level
shift, 8×8 block DCT, quantisation, entropy coding (deflate in place of
Huffman) — so decoding is genuinely CPU-bound and lossy, which is the
property the dataloader experiments depend on (decode overlapping I/O).

``png_sim`` is up-filtering + deflate, which is essentially what PNG is.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np
from scipy.fft import dctn, idctn

from repro.compression.base import Codec, register_codec
from repro.exceptions import SampleCompressionError

# ITU-T T.81 Annex K luminance quantisation table.
_Q_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float32,
)

_JPEG_MAGIC = b"JSIM"
_PNG_MAGIC = b"PSIM"


@functools.lru_cache(maxsize=None)
def _quality_table(quality: int) -> np.ndarray:
    """The quantisation table of *quality*, shaped to broadcast over the
    ``(hb, 8, wb, 8, c)`` block layout (read-only: it is shared)."""
    quality = int(np.clip(quality, 1, 100))
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    table = np.floor((_Q_LUMA * scale + 50) / 100)
    table = np.clip(table, 1, 255).astype(np.float32)[None, :, None, :, None]
    table.flags.writeable = False
    return table


class JpegSim(Codec):
    """Lossy 8×8 block-DCT image codec (JPEG pipeline on numpy/scipy)."""

    kind = "image"
    lossy = True

    def __init__(self, name: str = "jpeg", quality: int = 90):
        self.name = name
        self.quality = int(quality)

    def compress(self, array: np.ndarray) -> bytes:
        if array.dtype != np.uint8:
            raise SampleCompressionError(
                f"{self.name} expects uint8 samples, got {array.dtype}"
            )
        if array.ndim == 2:
            array = array[:, :, None]
        if array.ndim != 3:
            raise SampleCompressionError(
                f"{self.name} expects HxW or HxWxC samples, got shape "
                f"{array.shape}"
            )
        h, w, c = array.shape
        ph = (-h) % 8
        pw = (-w) % 8
        if ph or pw:
            array = np.pad(array, ((0, ph), (0, pw), (0, 0)), mode="edge")
        x = array.astype(np.float32) - 128.0
        hb, wb = x.shape[0] // 8, x.shape[1] // 8
        blocks = x.reshape(hb, 8, wb, 8, c)
        coeffs = dctn(blocks, axes=(1, 3), norm="ortho")
        quant = np.round(coeffs / _quality_table(self.quality)).astype(
            np.int16
        )
        # planar frequency layout: each (u, v) coefficient plane is
        # contiguous, so the mostly-zero high-frequency planes deflate to
        # long runs (the role Huffman/RLE play in real JPEG); the DC plane
        # is delta-coded like real JPEG's DPCM
        planar = np.ascontiguousarray(quant.transpose(1, 3, 4, 0, 2))
        dc = planar[0, 0].reshape(c, -1)
        dc[:, 1:] = dc[:, 1:] - dc[:, :-1].copy()
        payload = zlib.compress(planar.tobytes(), 6)
        header = _JPEG_MAGIC + struct.pack("<IIHB", h, w, c, self.quality & 0xFF)
        return header + payload

    def decompress(self, data: bytes) -> np.ndarray:
        data = bytes(data)
        if data[:4] != _JPEG_MAGIC:
            raise SampleCompressionError(f"not a {self.name} payload")
        h, w, c, quality = struct.unpack_from("<IIHB", data, 4)
        off = 4 + struct.calcsize("<IIHB")
        try:
            raw = zlib.decompress(data[off:])
        except zlib.error as exc:
            raise SampleCompressionError(f"{self.name}: {exc}") from exc
        hb = -(-h // 8)
        wb = -(-w // 8)
        planar = np.frombuffer(raw, dtype=np.int16).reshape(
            8, 8, c, hb, wb
        ).copy()
        dc = planar[0, 0].reshape(c, -1)
        np.add.accumulate(dc, axis=1, dtype=np.int16, out=dc)
        # one pass to block layout + float32, then in place: the same
        # arithmetic as dequantise/IDCT/level-shift/round/clip with fresh
        # temporaries, so output bytes are unchanged
        coeffs = planar.transpose(3, 0, 4, 1, 2).astype(np.float32, order="C")
        coeffs *= _quality_table(quality or self.quality)
        x = idctn(coeffs, axes=(1, 3), norm="ortho", overwrite_x=True)
        x = x.reshape(hb * 8, wb * 8, c)
        x += 128.0
        np.rint(x, out=x)
        np.clip(x, 0, 255, out=x)
        out = x.astype(np.uint8)[:h, :w]
        return out[:, :, 0] if c == 1 else out

    def peek_shape(self, data: bytes):
        data = bytes(data[:20])
        if data[:4] != _JPEG_MAGIC:
            return None
        h, w, c, _q = struct.unpack_from("<IIHB", data, 4)
        return (h, w) if c == 1 else (h, w, c)


class PngSim(Codec):
    """Lossless image codec: per-row up-filter + deflate (≈ real PNG)."""

    kind = "image"
    lossy = False
    name = "png"

    def compress(self, array: np.ndarray) -> bytes:
        array = np.ascontiguousarray(array)
        squeeze_2d = array.ndim == 2
        if squeeze_2d:
            array = array[:, :, None]
        if array.ndim != 3:
            raise SampleCompressionError(
                f"png expects HxW or HxWxC samples, got shape {array.shape}"
            )
        dt = array.dtype.str.encode()
        if array.dtype == np.uint8 and array.shape[0] > 1:
            # up filter: wrap-around row deltas (exactly reversible mod 256)
            filtered = array.copy()
            filtered[1:] = array[1:] - array[:-1]
        else:
            filtered = array
        h, w, c = array.shape
        payload = zlib.compress(filtered.tobytes(), 6)
        header = _PNG_MAGIC + struct.pack(
            "<IIHBB", h, w, c, len(dt), 1 if squeeze_2d else 0
        ) + dt
        return header + payload

    def decompress(self, data: bytes) -> np.ndarray:
        data = bytes(data)
        if data[:4] != _PNG_MAGIC:
            raise SampleCompressionError("not a png_sim payload")
        h, w, c, dt_len, squeeze = struct.unpack_from("<IIHBB", data, 4)
        off = 4 + struct.calcsize("<IIHBB")
        dtype = np.dtype(data[off : off + dt_len].decode())
        off += dt_len
        try:
            raw = zlib.decompress(data[off:])
        except zlib.error as exc:
            raise SampleCompressionError(f"png: {exc}") from exc
        arr = np.frombuffer(raw, dtype=dtype).reshape(h, w, c).copy()
        if dtype == np.uint8 and h > 1:
            np.add.accumulate(arr, axis=0, dtype=np.uint8, out=arr)
        return arr[:, :, 0] if squeeze else arr

    def peek_shape(self, data: bytes):
        data = bytes(data[:20])
        if data[:4] != _PNG_MAGIC:
            return None
        h, w, c, _dt, squeeze = struct.unpack_from("<IIHBB", data, 4)
        return (h, w) if squeeze else (h, w, c)


JPEG = register_codec(JpegSim("jpeg", quality=80))
JPEG_LOW = register_codec(JpegSim("jpeg_low", quality=50))
PNG = register_codec(PngSim())


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two uint8 images (dB)."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(20 * np.log10(255.0) - 10 * np.log10(mse))
