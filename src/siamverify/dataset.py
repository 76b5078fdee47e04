"""Manifest ingestion, pair protocols, augmentation, and splitting.

The manifest is JSON lines, one image record per line:

    {"identity": "id01", "path": "img/a.pgm", "kind": "genuine",
     "source": "dfw", "split": "train", "bbox": [x, y, w, h]}

``kind=impostor`` records depict a *different* person filed under the
identity's folder; web-sourced records carry weak genuine labels only.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, groupby

import numpy as np

from . import images
from .atomic import atomic_open
from .errors import ConfigError, DomainError, ManifestError, check_int, check_real
from .tensor import Tensor

KINDS = ("genuine", "disguised", "impostor")
SOURCES = ("dfw", "web")
SPLITS = ("train", "val", "test")
PROTOCOLS = ("impersonation", "obfuscation", "overall")
_RUN_BYTES = 1 << 24  # the most source-image bytes load_images resizes in one call

PAIR_CSV_HEADER = ["identity", "path_a", "path_b", "label", "protocol"]


@dataclass(frozen=True)
class ImageRecord:
    identity: str
    path: str
    kind: str
    source: str = "dfw"
    split: str = "train"
    bbox: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class PairRecord:
    a: ImageRecord
    b: ImageRecord
    y: int
    protocol: str


@dataclass
class AugmentConfig:
    gaussian_sigma: float = 0.02
    flip_prob: float = 0.5
    max_rotation_deg: float = 10.0
    max_translate_px: int = 2

    def __post_init__(self):
        check_real("gaussian_sigma", self.gaussian_sigma, 0)
        check_real("flip_prob", self.flip_prob, 0, 1)
        check_real("max_rotation_deg", self.max_rotation_deg, 0)
        # augment draws the shift with rng.integers, whose bounds are int64
        check_int("max_translate_px", self.max_translate_px, 0, np.iinfo(np.int64).max)


def parse_manifest(path) -> list[ImageRecord]:
    """Parse a JSON-lines manifest; reports errors by line number."""
    records = []
    seen = set()
    with open(path, "rb") as f:  # json.loads reports a line that is not UTF-8
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ManifestError(f"line {lineno}: invalid JSON ({exc})") from exc
            records.append(_record_from_obj(obj, lineno, seen))
    return records


def _record_from_obj(obj, lineno: int, seen: set) -> ImageRecord:
    if not isinstance(obj, dict):
        raise ManifestError(f"line {lineno}: a record must be a JSON object")
    for field_name in ("identity", "path", "kind"):
        if not isinstance(obj.get(field_name), str):
            raise ManifestError(f"line {lineno}: field {field_name!r} missing or not a string")
    kind = obj["kind"]
    source = obj.get("source", "dfw")
    split = obj.get("split", "train")
    if kind not in KINDS:
        raise ManifestError(f"line {lineno}: unknown kind {kind!r}")
    if source not in SOURCES:
        raise ManifestError(f"line {lineno}: unknown source {source!r}")
    if split not in SPLITS:
        raise ManifestError(f"line {lineno}: unknown split {split!r}")
    if source == "web" and kind != "genuine":
        raise ManifestError(f"line {lineno}: web records must be kind=genuine")
    bbox = obj.get("bbox")
    if bbox is not None:
        if (not isinstance(bbox, list) or len(bbox) != 4
                or not all(type(v) is int and v >= 0 for v in bbox)):  # bool is no size
            raise ManifestError(f"line {lineno}: bbox must be [x, y, w, h] of nonneg ints")
        bbox = tuple(bbox)
    key = (obj["identity"], obj["path"])
    if key in seen:
        raise ManifestError(f"line {lineno}: duplicate (identity, path) {key}")
    seen.add(key)
    return ImageRecord(identity=obj["identity"], path=obj["path"], kind=kind,
                       source=source, split=split, bbox=bbox)


def load_image(rec: ImageRecord, target: tuple[int, int, int]) -> Tensor:
    """Read, crop to bbox, adapt channels, bilinear-resize, scale to [0, 1]."""
    return Tensor(load_images([rec], target)[0])


def load_images(records: list[ImageRecord], target: tuple[int, int, int]) -> np.ndarray:
    """``load_image`` of each record, in order, as one ``(n, C, H, W)`` array.

    Each run of consecutive images of one shape, once cropped and with its
    channels adapted, is copied into one buffer of at most ``_RUN_BYTES``
    (one image where a single one does not fit), and each fill of it is
    resized by one ``bilinear_resize`` call over its channels stacked
    together.  The resize acts on each channel alone, so every image has the
    bits ``load_image`` gives it; each source image is held once, in that
    buffer.
    """
    tc, th, tw = target
    out = np.empty((len(records), tc, th, tw))
    start = 0
    for shape, run in groupby((_read_cropped(rec, tc) for rec in records), key=np.shape):
        per = min(len(records) - start, max(1, _RUN_BYTES // (8 * math.prod(shape))))
        buf = np.empty((per, *shape))
        for n in _fill(buf, run):
            resized = images.bilinear_resize(buf[:n].reshape(-1, *shape[1:]), th, tw)
            out[start:start + n] = resized.reshape(n, tc, th, tw)
            start += n
    return out


def _fill(buf: np.ndarray, items):
    """Copy ``items`` into ``buf``'s leading rows; yield the count each time it is full or
    the items end, before any row is overwritten."""
    n = 0
    for item in items:
        buf[n] = item
        n += 1
        if n == len(buf):
            yield n
            n = 0
    if n:
        yield n


def _read_cropped(rec: ImageRecord, channels: int) -> np.ndarray:
    """The record's image, cropped to its bbox, with ``channels`` channels."""
    img = images.read_image(rec.path)
    if rec.bbox is not None:
        x, y, w, h = rec.bbox
        _, ih, iw = img.shape
        if w <= 0 or h <= 0 or x + w > iw or y + h > ih:
            raise DomainError(f"bbox {rec.bbox} outside image {iw}x{ih}: {rec.path}")
        img = img[:, y:y + h, x:x + w]
    if img.shape[0] != channels:
        if channels == 1:
            img = img.mean(axis=0, keepdims=True)
        elif img.shape[0] == 1:
            img = np.repeat(img, channels, axis=0)
        else:
            raise DomainError(f"cannot adapt {img.shape[0]} channels to {channels}: {rec.path}")
    return img


def distinct_images(pairs: list[PairRecord]) -> tuple[list[ImageRecord], np.ndarray]:
    """Distinct (file, crop) images by first appearance, and each pair's a and b rows."""
    row_of, records, sides = {}, [], []
    for rec in (side for pair in pairs for side in (pair.a, pair.b)):
        row = row_of.setdefault((rec.path, rec.bbox), len(records))  # what load_image reads
        if row == len(records):
            records.append(rec)
        sides.append(row)
    return records, np.array(sides, dtype=np.intp).reshape(-1, 2)


def merge_weak_labels(dfw: list[ImageRecord], web: list[ImageRecord]) -> list[ImageRecord]:
    """Union of curated records and weakly labelled web additions, marked ``source="web"``.

    Each (identity, path) names one record, as within one manifest: one image, one label.
    A web record's label is its identity's genuine face, so any other ``kind`` is refused.
    """
    known = {r.identity for r in dfw}
    unknown = sorted({r.identity for r in web} - known)
    if unknown:
        raise ConfigError(f"web identities absent from dfw set: {', '.join(unknown)}")
    counts = Counter((r.identity, r.path) for r in [*dfw, *web])
    repeated = sorted(key for key, n in counts.items() if n > 1)
    if repeated:
        raise ConfigError(f"duplicate (identity, path) in dfw and web records: "
                          f"{', '.join(map(str, repeated))}")
    not_genuine = sorted((r.identity, r.path) for r in web if r.kind != "genuine")
    if not_genuine:
        raise ConfigError(f"web records not of kind genuine: {', '.join(map(str, not_genuine))}")
    return list(dfw) + [replace(r, source="web") for r in web]


def generate_pairs(records: list[ImageRecord], protocol: str) -> list[PairRecord]:
    """Enumerate verification pairs under one of the three protocols.

    Within each identity: impersonation pairs each genuine image with each
    impostor (y=0); obfuscation pairs each genuine with each disguised (y=1);
    overall takes every unordered pair among the identity's images except
    impostor-impostor (whose ground truth is undefined).  Output order is
    deterministic (identity, then path).
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    by_id: dict[str, list[ImageRecord]] = {}
    for r in records:
        by_id.setdefault(r.identity, []).append(r)
    pairs = []
    for identity in sorted(by_id):
        recs = sorted(by_id[identity], key=lambda r: r.path)
        genuine = [r for r in recs if r.kind == "genuine"]
        disguised = [r for r in recs if r.kind == "disguised"]
        impostor = [r for r in recs if r.kind == "impostor"]
        if protocol == "impersonation":
            pairs.extend(PairRecord(a, b, 0, protocol) for a in genuine for b in impostor)
        elif protocol == "obfuscation":
            pairs.extend(PairRecord(a, b, 1, protocol) for a in genuine for b in disguised)
        else:
            true_id = genuine + disguised
            pairs.extend(PairRecord(a, b, 1, protocol) for a, b in combinations(true_id, 2))
            pairs.extend(PairRecord(a, b, 0, protocol) for a in true_id for b in impostor)
    return pairs


def export_pairs_csv(pairs: list[PairRecord], path) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(PAIR_CSV_HEADER)
        for p in pairs:
            writer.writerow([p.a.identity, p.a.path, p.b.path, p.y, p.protocol])


def augment(img: Tensor, cfg: AugmentConfig, rng: np.random.Generator) -> Tensor:
    """flip -> rotate -> translate -> gaussian noise, clamped to [0, 1]."""
    out = img.data
    if rng.random() < cfg.flip_prob:
        out = out[:, :, ::-1]
    angle = rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg)
    if cfg.max_rotation_deg > 0:
        out = images.rotate(out, angle)
    shift = int(cfg.max_translate_px)  # -np.uint64(2) wraps, np.int64(2**63 - 1) + 1 overflows
    dy = int(rng.integers(-shift, shift + 1))
    dx = int(rng.integers(-shift, shift + 1))
    if dy or dx:
        out = images.translate(out, dy, dx)
    if cfg.gaussian_sigma > 0:
        out = out + rng.normal(0.0, cfg.gaussian_sigma, size=out.shape)
    return Tensor(np.clip(out, 0.0, 1.0))


def pair_rng(base_seed: int, epoch: int, pair_index: int) -> np.random.Generator:
    """Independent, reproducible stream per (epoch, pair)."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, epoch, pair_index)))

