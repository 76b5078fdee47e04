"""Seeded synthetic verification corpora for the benchmark.

Writes binary PGM/PPM images plus a JSON-lines manifest in the format
``siamverify.dataset.parse_manifest`` reads; the program under test receives
only these files.  Nothing here imports ``siamverify`` or the test suite's
corpus, so a change to either cannot silently change the benchmark's load.

Each identity is a smooth random texture.  Genuine images add pixel noise,
disguised images occlude a random rectangle and shift brightness, and an
impostor filed under an identity is a noisy copy of a different identity's
texture.  ``kinds`` gives the (genuine, disguised, impostor) counts of every
identity, so identities may differ in size and make-up.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _texture(rng: np.random.Generator, channels: int, h: int, w: int) -> np.ndarray:
    """Bilinear upsampling of a 5x5 random grid, scaled into [0.2, 0.8]."""
    coarse = rng.random((channels, 5, 5))
    ry, rx = np.linspace(0.0, 4.0, h), np.linspace(0.0, 4.0, w)
    y0, x0 = np.minimum(ry.astype(int), 3), np.minimum(rx.astype(int), 3)
    fy, fx = (ry - y0)[None, :, None], (rx - x0)[None, None, :]
    rows = coarse[:, y0] * (1.0 - fy) + coarse[:, y0 + 1] * fy
    img = rows[:, :, x0] * (1.0 - fx) + rows[:, :, x0 + 1] * fx
    lo, hi = img.min(), img.max()
    return 0.2 + 0.6 * (img - lo) / (hi - lo + 1e-12)


def _noisy(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.clip(base + rng.normal(0.0, 0.02, base.shape), 0.0, 1.0)


def _disguised(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    _, h, w = base.shape
    img = base + rng.uniform(-0.1, 0.1)
    ph, pw = h // 3, w // 3
    y, x = int(rng.integers(0, h - ph)), int(rng.integers(0, w - pw))
    img[:, y:y + ph, x:x + pw] = rng.random()
    return _noisy(img, rng)


def _write_pnm(path: str, img: np.ndarray) -> None:
    c, h, w = img.shape
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode())
        f.write(pixels.transpose(1, 2, 0).tobytes())


def write_corpus(root: str, seed: int, kinds: list[tuple[int, int, int]],
                 channels: int, size: tuple[int, int]) -> str:
    """Write one identity per ``kinds`` entry; returns the manifest path."""
    img_dir = os.path.join(root, "img")
    os.makedirs(img_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    h, w = size
    bases = [_texture(rng, channels, h, w) for _ in kinds]
    ext = "pgm" if channels == 1 else "ppm"
    lines = []
    for i, (n_gen, n_dis, n_imp) in enumerate(kinds):
        ident = f"id{i:03d}"
        other = bases[(i + 1) % len(bases)]
        images = ([("g", "genuine", _noisy(bases[i], rng)) for _ in range(n_gen)]
                  + [("d", "disguised", _disguised(bases[i], rng)) for _ in range(n_dis)]
                  + [("m", "impostor", _noisy(other, rng)) for _ in range(n_imp)])
        for j, (tag, kind, img) in enumerate(images):
            path = os.path.join(img_dir, f"{ident}_{tag}{j:02d}.{ext}")
            _write_pnm(path, img)
            lines.append(json.dumps({"identity": ident, "path": path, "kind": kind,
                                     "source": "dfw", "split": "test"}))
    manifest = os.path.join(root, "manifest.jsonl")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return manifest
