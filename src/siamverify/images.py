"""Image file reading and resampling helpers.

Supported formats: binary PGM (P5) / PPM (P6) with maxval 255, and a raw
float64 tensor format (``.f64``: three little-endian u32 for C,H,W followed
by row-major float64 data, assumed already scaled).
"""

from __future__ import annotations

import functools
import re
import struct

import numpy as np

from .errors import FormatError

F64_SUFFIX = ".f64"
_RESIZE_TAPS = 256  # (source, output) axis lengths whose resize taps are kept
# The magic P5 or P6; width, height and maxval, each after whitespace or after
# comments that run from '#' through the end of their line; then the one
# whitespace byte before the pixels.  A field holds no whitespace and no '#', so
# no field starts inside a comment, the header splits into parts one way only
# and a match, or a failed one, takes time linear in the header.
_PNM_HEADER = re.compile(rb"P([56])" + rb"(?:\s|#[^\r\n]*[\r\n])+([^\s#]+)" * 3 + rb"\s")


def read_image(path) -> np.ndarray:
    """Read an image file into a CHW float64 array scaled to [0, 1]."""
    path = str(path)
    with open(path, "rb") as f:
        raw = f.read()
    if path.endswith(F64_SUFFIX):
        return _decode_f64(raw, path)
    if raw[:2] in (b"P5", b"P6"):
        return _decode_pnm(raw)
    raise FormatError(f"unrecognized image format: {path}")


def _decode_pnm(raw: bytes) -> np.ndarray:
    header = _PNM_HEADER.match(raw)
    if header is None:
        raise FormatError("malformed or truncated PNM header")
    magic, *fields = header.groups()
    channels = 1 if magic == b"5" else 3
    try:
        w, h, maxval = map(int, fields)
    except ValueError as exc:
        raise FormatError("non-numeric PNM header field") from exc
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    _check_dims(channels, h, w)
    pos = header.end()
    n = w * h * channels
    data = raw[pos:pos + n]
    if len(data) != n:
        raise FormatError("truncated PNM payload")
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(1, h, w)
    return arr.reshape(h, w, 3).transpose(2, 0, 1)


def _decode_f64(raw: bytes, path: str) -> np.ndarray:
    if len(raw) < 12:
        raise FormatError("truncated .f64 header")
    c, h, w = struct.unpack_from("<III", raw, 0)
    _check_dims(c, h, w)
    n = c * h * w
    if len(raw) != 12 + 8 * n:
        raise FormatError("size mismatch in .f64 payload")
    img = np.frombuffer(raw, dtype="<f8", count=n, offset=12).reshape(c, h, w).copy()
    if not np.isfinite(img).all():
        raise FormatError(f"non-finite pixel in .f64 image: {path}")
    return img


def _check_dims(c: int, h: int, w: int) -> None:
    if min(c, h, w) <= 0:
        raise FormatError(f"image dimensions must be positive, got {c}x{h}x{w}")


def _taps(pos: np.ndarray, n: int):
    """Clamped index and weight of the two taps (floor, floor + 1) of each position on one axis.

    A tap that clamping moves lies outside [0, n) and gets weight 0, so the
    weight already carries the tap's mask.
    """
    i0 = np.floor(pos)
    f = pos - i0
    i0 = i0.astype(np.intp)
    taps = []
    for i, wgt in ((i0, 1 - f), (i0 + 1, f)):
        clamped = np.minimum(np.maximum(i, 0), n - 1)
        taps.append((clamped, wgt * (clamped == i)))
    return taps


def bilinear_sample(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample a CHW image at fractional (row, col) positions; zero outside.

    ``rows`` and ``cols`` broadcast against each other, so a ``(H, 1)`` column
    and a ``(1, W)`` row sample an H x W grid.  The output holds, per sample,
    the four taps (0,0), (0,1), (1,0), (1,1) added in that order into zeros,
    each as pixel times row weight times column weight.
    """
    _, h, w = img.shape
    return _sample(img, _taps(rows, h), _taps(cols, w))


def _sample(img: np.ndarray, row_taps, col_taps) -> np.ndarray:
    c, h, w = img.shape
    flat = img.reshape(c, h * w)
    out = np.zeros((c,) + np.broadcast(row_taps[0][0], col_taps[0][0]).shape)
    for ri, wr in row_taps:
        ri = ri * w
        for ci, wc in col_taps:
            tap = flat.take(ri + ci, axis=1)
            tap *= wr * wc
            out += tap
    return out


@functools.lru_cache(maxsize=_RESIZE_TAPS)
def _resize_taps(n: int, out_n: int) -> tuple:
    """Read-only taps of resizing one axis of ``n`` samples to ``out_n``."""
    pos = (np.arange(out_n) + 0.5) * (n / out_n) - 0.5
    # clamp to edges: resize should not introduce dark borders
    taps = _taps(np.minimum(np.maximum(pos, 0), n - 1), n)
    for tap in taps:
        for arr in tap:
            arr.flags.writeable = False
    return tuple(taps)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centered bilinear resize of a CHW image.

    Each axis's taps come from a memo keyed by (source length, output
    length) that keeps the last ``_RESIZE_TAPS`` of them, so same-size
    images compute them once.  Each sample is the same sum as in
    ``bilinear_sample``.
    """
    _, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    row_taps = [(ri[:, None], wr[:, None]) for ri, wr in _resize_taps(h, out_h)]
    return _sample(img, row_taps, _resize_taps(w, out_w))


def rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center, bilinear, zero-filled borders."""
    if degrees == 0.0:
        return img.copy()
    _, h, w = img.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # inverse map: output pixel pulls from the source rotated by -theta
    dy = (np.arange(h, dtype=np.float64) - cy)[:, None]
    dx = np.arange(w, dtype=np.float64) - cx
    src_r = cy + cos * dy - sin * dx
    src_c = cx + sin * dy + cos * dx
    return bilinear_sample(img, src_r, src_c)


def translate(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer shift with zero fill."""
    out = np.zeros_like(img)
    _, h, w = img.shape
    src_r = slice(max(0, -dy), min(h, h - dy))
    dst_r = slice(max(0, dy), min(h, h + dy))
    src_c = slice(max(0, -dx), min(w, w - dx))
    dst_c = slice(max(0, dx), min(w, w + dx))
    out[:, dst_r, dst_c] = img[:, src_r, src_c]
    return out
