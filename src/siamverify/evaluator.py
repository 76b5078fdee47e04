"""Scoring, ROC/GAR metrics, and the ablation grid runner.

All metrics are exact empirical sweeps over the observed scores (plus a
+infinity sentinel); the accept rule is ``score >= threshold``.  No
interpolation, so small-sample values are oracle-checkable.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import losses
from .atomic import atomic_open
from .dataset import PairRecord, distinct_images, generate_pairs, load_images, merge_weak_labels
from .errors import ConfigError, DomainError
from .network import NetworkParams, build_network, forward_embedding, forward_head
from .tensor import Tensor
from .trainer import TrainConfig, apply_settings, keep_freed_memory, train

DEFAULT_FAR_TARGETS = (0.001, 0.01, 0.1)
SCORE_MODES = ("head", "cosine")
_BLOCK_PAIRS = 128  # pairs per head or cosine pass of score_pairs; bounds its row arrays
# Largest conv output of one score_pairs embedding stack: 4 tiny images, 1 vggface16 image.
# Wider stacks than 2 tiny images need the heap that keep_freed_memory keeps: with glibc's
# defaults it was trimmed after each stack and about 1 MB faulted back in for the next.
_STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class ScoreSet:
    """Pair scores split by ground truth; higher = more likely same identity."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine", np.asarray(self.genuine, dtype=np.float64))
        object.__setattr__(self, "impostor", np.asarray(self.impostor, dtype=np.float64))
        if np.isnan(self.genuine).any() or np.isnan(self.impostor).any():
            raise DomainError("NaN score in ScoreSet")

    def require_both(self):
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise DomainError("ROC/GAR metrics need both score populations nonempty")

    @cached_property
    def sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct thresholds ascending, with genuine and impostor ``>= t`` counts.

        The one sort is inside ``np.unique``, computed on first use and kept;
        its inverse places each score at its threshold, and suffix sums count
        the scores at or above it.
        """
        self.require_both()
        t, at = np.unique(np.concatenate([self.genuine, self.impostor]), return_inverse=True)

        def accepted(where):
            return np.cumsum(np.bincount(where, minlength=t.size)[::-1])[::-1]

        return t, accepted(at[:self.genuine.size]), accepted(at[self.genuine.size:])


@dataclass
class RocCurve:
    """The sweep's thresholds descending from +inf, with the FAR and GAR at each."""

    thresholds: np.ndarray
    far: np.ndarray
    gar: np.ndarray

    @property
    def points(self) -> list[tuple[float, float, float]]:
        """(threshold, FAR, GAR) float tuples, one per threshold."""
        return list(zip(self.thresholds.tolist(), self.far.tolist(), self.gar.tolist()))

    def write_csv(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("threshold,far,gar\n")
            for t, far, gar in self.points:
                f.write(f"{t:.12g},{far:.12g},{gar:.12g}\n")


def score_pairs(params: NetworkParams, pairs: list[PairRecord],
                mode: str = "head") -> ScoreSet:
    """Score each pair with the head sigmoid or raw embedding cosine.

    Each distinct image (a file and its crop), in order of first appearance,
    is loaded and embedded once, in stacks whose largest conv output fits
    ``_STACK_BYTES`` (one image where a single one does not), into the rows
    of an (images, fc2) matrix; each stack is one ``load_images`` call and
    one ``forward_embedding`` call.  The head or cosine then runs once per
    block of ``_BLOCK_PAIRS`` pairs on their a-side and b-side rows; each
    score has the bits of its pair scored alone.

    Under glibc it first sets malloc, as ``train()`` does, to keep freed
    memory for reuse (``keep_freed_memory``), so that no stack faults in
    again the memory the last one freed.
    """
    keep_freed_memory()
    if mode not in SCORE_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}")
    if not pairs:
        raise ConfigError("no pairs to score")
    distinct, rows = distinct_images(pairs)
    spec, target = params.spec, params.spec.input_shape
    largest = max(math.prod(layer.out) for layer in spec.layers if layer.kind == "conv")
    per_stack = max(1, _STACK_BYTES // (8 * largest))  # float64 conv outputs
    emb = np.empty((len(distinct), spec.fc[1]))
    for s in range(0, len(distinct), per_stack):
        stack = Tensor(load_images(distinct[s:s + per_stack], target))
        emb[s:s + per_stack] = forward_embedding(params, stack).data
    scores = np.empty(len(pairs))
    for s in range(0, len(pairs), _BLOCK_PAIRS):
        block = rows[s:s + _BLOCK_PAIRS]
        a, b = Tensor(emb[block[:, 0]]), Tensor(emb[block[:, 1]])
        score = forward_head(params, a, b) if mode == "head" else losses.cosine_similarity(a, b)
        scores[s:s + _BLOCK_PAIRS] = score.data
    genuine = np.array([pair.y == 1 for pair in pairs])
    return ScoreSet(scores[genuine], scores[~genuine])


def roc_curve(s: ScoreSet) -> RocCurve:
    """Empirical ROC over every distinct observed threshold, descending."""
    t, acc_g, acc_i = s.sweep
    return RocCurve(np.append(np.inf, t[::-1]), np.append(0.0, acc_i[::-1] / s.impostor.size),
                    np.append(0.0, acc_g[::-1] / s.genuine.size))


def gar_at_far(s: ScoreSet, far_target: float) -> tuple[float, float]:
    """GAR at the smallest threshold whose FAR does not exceed the target."""
    if not (0.0 < far_target <= 1.0):
        raise DomainError(f"far_target {far_target} outside (0, 1]")
    t, acc_g, acc_i = s.sweep
    hit = np.flatnonzero(acc_i / s.impostor.size <= far_target)
    if not hit.size:
        return 0.0, np.inf
    return float(acc_g[hit[0]] / s.genuine.size), float(t[hit[0]])


def best_accuracy(s: ScoreSet) -> tuple[float, float]:
    """Exhaustive threshold sweep; ties broken toward the lowest threshold."""
    t, acc_g, acc_i = s.sweep
    correct = acc_g + (s.impostor.size - acc_i)
    if t[-1] < np.inf:  # the +inf sentinel accepts nothing
        t, correct = np.append(t, np.inf), np.append(correct, s.impostor.size)
    k = int(np.argmax(correct))  # first maximum: the lowest threshold
    return float(correct[k] / (s.genuine.size + s.impostor.size)), float(t[k])


def accuracy_at(s: ScoreSet, threshold: float) -> float:
    s.require_both()
    total = s.genuine.size + s.impostor.size
    return float((np.sum(s.genuine >= threshold) + np.sum(s.impostor < threshold)) / total)


def metrics_report(s: ScoreSet, mode: str) -> dict:
    acc, thr = best_accuracy(s)
    return {
        "mode": mode,
        "n_genuine": int(s.genuine.size),
        "n_impostor": int(s.impostor.size),
        "gar_at": {str(ft): gar_at_far(s, ft)[0] for ft in DEFAULT_FAR_TARGETS},
        "best_accuracy": acc,
        "best_threshold": thr,
        "acc_at_0.5": accuracy_at(s, 0.5),
    }


@dataclass
class AblationRow:
    label: str
    config: object  # the grid entry: a copy of its dict, or a non-object entry as given
    best_accuracy: float | None = None
    best_threshold: float | None = None
    gar_at: dict = field(default_factory=dict)
    error: str | None = None
    seconds: float = 0.0


def run_ablation(grid: list, train_records, eval_records, base_cfg: TrainConfig,
                 spec, out_dir=None, web_records=None) -> list[AblationRow]:
    """Train/evaluate one model per grid entry on ``overall`` pairs, scored with the head.

    An entry may set ``label``, ``use_web`` (a boolean: add ``web_records``,
    which must then be nonempty, to the training set) and any of
    ``trainer.SETTINGS``, applied over ``base_cfg`` seeded
    ``base_cfg.seed + index``.  A failure, such as an unknown key, an entry
    that is not a dict or a label that is not a string, is recorded in the row
    (labelled ``run<index>`` unless its label is a string) and the grid continues.
    """
    rows = []
    for idx, entry in enumerate(grid):
        is_object = isinstance(entry, dict)
        label = entry.get("label", f"run{idx}") if is_object else f"run{idx}"
        row = AblationRow(label=label if isinstance(label, str) else f"run{idx}",
                          config=dict(entry) if is_object else entry)
        t0 = time.perf_counter()
        try:
            if not is_object:
                raise ConfigError(f"grid entry must be a JSON object, got {entry!r}")
            if not isinstance(label, str):
                raise ConfigError(f"label must be a string, got {label!r}")
            settings = {k: v for k, v in entry.items() if k not in ("label", "use_web")}
            cfg = apply_settings(replace(base_cfg, seed=base_cfg.seed + idx), settings)
            use_web = entry.get("use_web", False)
            if not isinstance(use_web, bool):
                raise ConfigError(f"use_web must be a boolean, got {use_web!r}")
            if use_web and not web_records:
                raise ConfigError("use_web is true but no web records were given")
            records = merge_weak_labels(train_records, web_records) if use_web else train_records
            pairs = generate_pairs(records, "overall")
            params, _, _ = train(build_network(spec, seed=cfg.seed), pairs, cfg)
            eval_pairs = generate_pairs(eval_records, "overall")
            report = metrics_report(score_pairs(params, eval_pairs), "head")
            row.best_accuracy = report["best_accuracy"]
            row.best_threshold = report["best_threshold"]
            row.gar_at = report["gar_at"]
        except Exception as exc:  # record and continue with the rest of the grid
            row.error = f"{type(exc).__name__}: {exc}"
        row.seconds = time.perf_counter() - t0
        rows.append(row)
    if out_dir is not None:
        write_ablation_report(rows, out_dir)
    return rows


def write_ablation_report(rows: list[AblationRow], out_dir):
    report = json.dumps([r.__dict__ for r in rows], indent=2, default=str)  # before any write
    os.makedirs(str(out_dir), exist_ok=True)
    csv_path = os.path.join(str(out_dir), "ablation.csv")
    with atomic_open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["label", "config", "best_accuracy"]
                        + [f"gar_at_{ft}" for ft in DEFAULT_FAR_TARGETS] + ["error"])
        for r in rows:
            gars = ["" if str(ft) not in r.gar_at else f"{r.gar_at[str(ft)]:.12g}"
                    for ft in DEFAULT_FAR_TARGETS]
            acc = "" if r.best_accuracy is None else f"{r.best_accuracy:.12g}"
            cfg = json.dumps(r.config).replace('"', "'")
            writer.writerow([r.label, cfg, acc] + gars + [r.error or ""])
    with atomic_open(os.path.join(str(out_dir), "ablation.json"), "w", encoding="utf-8") as f:
        f.write(report)
