"""Image file writers for tests: binary PGM (P5), PPM (P6) and raw ``.f64``.

They write the formats ``siamverify.images.read_image`` reads; the package
itself only reads images.
"""

import struct

import numpy as np


def _pixels(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 1xHxW (or HxW) [0,1] image as binary PGM."""
    img = np.asarray(img)
    if img.ndim == 3:
        img = img[0]
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(_pixels(img).tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Write a 3xHxW [0,1] image as binary PPM."""
    img = np.asarray(img)
    _, h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(_pixels(img).transpose(1, 2, 0).tobytes())


def write_f64(path, img: np.ndarray) -> None:
    """Write a CxHxW image as three little-endian u32 dims and float64 data."""
    img = np.ascontiguousarray(img, dtype="<f8")
    c, h, w = img.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<III", c, h, w))
        f.write(img.tobytes())
