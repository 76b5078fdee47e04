"""Synthetic identity corpus used by the integration and acceptance tests.

Each identity gets a smooth random 32x32 base texture.  Genuine images add
small pixel noise, disguised images occlude a patch and rotate slightly, and
the impostor filed under an identity is a near-duplicate of a *different*
identity's texture.  Images are written as binary PGM plus a JSON-lines
manifest, mirroring the production ingestion path.
"""

from __future__ import annotations

import json
import os

import numpy as np

from imagefiles import write_pgm
from siamverify.images import bilinear_resize, rotate

SIZE = 32


def base_texture(rng: np.random.Generator) -> np.ndarray:
    coarse = rng.random((1, 4, 4))
    tex = bilinear_resize(coarse, SIZE, SIZE)
    return 0.2 + 0.6 * (tex - tex.min()) / (tex.max() - tex.min() + 1e-12)


def genuine_variant(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.clip(base + rng.normal(0, 0.02, base.shape), 0, 1)


def disguised_variant(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    img = base.copy()
    y0 = int(rng.integers(0, SIZE - 10))
    x0 = int(rng.integers(0, SIZE - 10))
    img[:, y0:y0 + 10, x0:x0 + 10] = rng.random()
    img = rotate(img, float(rng.uniform(-5, 5)))
    return np.clip(img, 0, 1)


def impostor_variant(other_base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.clip(other_base + rng.normal(0, 0.02, other_base.shape), 0, 1)


def build_corpus(root, n_identities: int = 8, seed: int = 7,
                 n_genuine_train: int = 2, n_disguised_train: int = 1,
                 n_impostor_train: int = 1, n_val_each: int = 1,
                 n_web_extra: int = 0):
    """Write images plus manifest(s); returns (manifest_path, web_manifest_path)."""
    root = str(root)
    img_dir = os.path.join(root, "img")
    os.makedirs(img_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    bases = [base_texture(rng) for _ in range(n_identities)]

    lines = []
    web_lines = []

    def emit(identity, name, img, kind, split, source="dfw"):
        path = os.path.join(img_dir, name)
        write_pgm(path, img)
        row = {"identity": identity, "path": path, "kind": kind,
               "source": source, "split": split}
        (web_lines if source == "web" else lines).append(json.dumps(row))

    for i in range(n_identities):
        ident = f"id{i:02d}"
        other = bases[(i + 1) % n_identities]
        for j in range(n_genuine_train):
            emit(ident, f"{ident}_g{j}.pgm", genuine_variant(bases[i], rng), "genuine", "train")
        for j in range(n_disguised_train):
            emit(ident, f"{ident}_d{j}.pgm", disguised_variant(bases[i], rng), "disguised", "train")
        for j in range(n_impostor_train):
            emit(ident, f"{ident}_m{j}.pgm", impostor_variant(other, rng), "impostor", "train")
        for j in range(n_val_each):
            emit(ident, f"{ident}_vg{j}.pgm", genuine_variant(bases[i], rng), "genuine", "val")
            emit(ident, f"{ident}_vd{j}.pgm", disguised_variant(bases[i], rng), "disguised", "val")
            emit(ident, f"{ident}_vm{j}.pgm", impostor_variant(other, rng), "impostor", "val")
        for j in range(n_web_extra):
            emit(ident, f"{ident}_w{j}.pgm", genuine_variant(bases[i], rng),
                 "genuine", "train", source="web")

    manifest = os.path.join(root, "manifest.jsonl")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    web_manifest = None
    if web_lines:
        web_manifest = os.path.join(root, "web_manifest.jsonl")
        with open(web_manifest, "w", encoding="utf-8") as f:
            f.write("\n".join(web_lines) + "\n")
    return manifest, web_manifest
