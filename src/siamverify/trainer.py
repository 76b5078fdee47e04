"""Mini-batch SGD over verification pairs.

Plain SGD, no momentum.  Class imbalance is handled by loss weighting (not
resampling): inverse-frequency weights are computed once per run from the
pair labels.  The whole update path is single-threaded and deterministic for
a fixed (seed, config, data) triple.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import losses, ops
from .atomic import atomic_open
from .dataset import AugmentConfig, PairRecord, augment, load_image, pair_rng
from .errors import ConfigError, NumericError, finite_real
from .losses import LossBreakdown, LossConfig, class_weights, total_loss
from .network import NetworkParams, forward_embedding, forward_head, freeze_prefix, save_params
from .tensor import Graph


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 10
    batch_size: int = 16
    freeze_k: int | None = None  # None = keep the mask the parameters carry
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    class_balance: bool = True  # False = use loss.w_pos / loss.w_neg as given

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "checkpoint_every", "freeze_k"):
            value = getattr(self, name)
            if name == "freeze_k" and value is None:
                continue
            # bool is an int subclass, but no count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            low = 1 if name == "batch_size" else 0
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not (finite_real(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite positive number, got {self.lr!r}")
        for name, kind in (("class_balance", bool), ("loss", LossConfig),
                           ("augment", AugmentConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")


# Every run setting under the one name that --config files, ablation grid entries
# and resolved_config.json use, with the JSON type its value must have.
SETTINGS = {"lr": float, "epochs": int, "batch_size": int, "freeze_k": int, "seed": int,
            "checkpoint_every": int, "class_balance": bool, "augment": bool,
            "margin": float, "enable_lr": bool, "enable_lbce": bool}
NO_AUGMENT = AugmentConfig(gaussian_sigma=0.0, flip_prob=0.0, max_rotation_deg=0.0,
                           max_translate_px=0)
_LOSS_FIELDS = {f.name for f in fields(LossConfig)}
_STEP_BYTES = 1 << 20  # the largest block of rows sgd_step updates at once


def apply_settings(cfg: TrainConfig, settings: dict) -> TrainConfig:
    """``cfg`` with a flat dict of ``SETTINGS`` applied; any other key is an error.

    ``augment: true`` keeps ``cfg``'s augmentation, or the default if it is off.
    """
    for key, value in settings.items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown setting {key!r}; settings are {', '.join(SETTINGS)}")
        kind = SETTINGS[key]
        number = (int, float) if kind is float else kind
        # bool is an int subclass, but true/false is no number and only they are bools
        if (isinstance(value, bool) != (kind is bool) or not isinstance(value, number)) \
                and not (key == "freeze_k" and value is None):
            raise ConfigError(f"setting {key!r} must be {kind.__name__}, got {value!r}")
    top = {k: v for k, v in settings.items() if k not in _LOSS_FIELDS}
    if "augment" in top:
        on = cfg.augment if cfg.augment != NO_AUGMENT else AugmentConfig()
        top["augment"] = on if top["augment"] else NO_AUGMENT
    loss = replace(cfg.loss, **{k: v for k, v in settings.items() if k in _LOSS_FIELDS})
    return replace(cfg, **top, loss=loss)


def settings_of(cfg: TrainConfig) -> dict:
    """The ``SETTINGS`` of ``cfg``, as ``apply_settings`` takes them."""
    settings = {k: getattr(cfg.loss if k in _LOSS_FIELDS else cfg, k) for k in SETTINGS}
    settings["augment"] = cfg.augment != NO_AUGMENT
    return settings


@dataclass
class EpochRow:
    epoch: int
    l_c: float
    l_r: float
    l_bce: float
    l_total: float
    train_acc: float
    seconds: float


@dataclass
class TrainLog:
    rows: list[EpochRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("epoch,l_c,l_r,l_bce,l_total,train_acc,seconds\n")
            for r in self.rows:
                f.write(f"{r.epoch},{r.l_c:.12g},{r.l_r:.12g},{r.l_bce:.12g},"
                        f"{r.l_total:.12g},{r.train_acc:.12g},{r.seconds:.6g}\n")


def make_batches(pairs: list, batch_size: int, seed: int) -> list[list]:
    """Seeded shuffle into batches (last one may be partial).

    Batch elements are (original_index, pair) so augmentation streams stay
    tied to the pair, not its shuffled position.
    """
    if not pairs:
        raise ConfigError("empty pair list")
    indexed = list(enumerate(pairs))
    rng = np.random.default_rng(seed)
    rng.shuffle(indexed)
    return [indexed[i:i + batch_size] for i in range(0, len(indexed), batch_size)]


def sgd_step(params: NetworkParams, grads: dict, lr: float) -> None:
    """theta <- theta - lr * grad, in place, for each tensor of ``params`` in ``grads``.

    ``grads`` is what ``Graph.backward`` returns; a tensor it lacks stays as
    it is.  Every gradient is checked before any tensor moves, so a
    non-finite gradient leaves all parameters as they were.  The update
    writes into each ``t.data`` array, so a snapshot of the parameters must
    be a copy.  The check and the update run over blocks of rows of at most
    ``_STEP_BYTES`` (1 MiB), so no temporary is the size of a tensor; each
    element gets the same multiply and subtract as a whole-array update.
    """
    for i, t in enumerate(params.tensors):
        if t in grads and not all(np.isfinite(grads[t][s]).all() for s in _row_blocks(t.data)):
            raise NumericError(f"non-finite gradient in parameter tensor {i}")
    for t in params.tensors:
        if t in grads:
            for s in _row_blocks(t.data):
                t.data[s] -= lr * grads[t][s]


def _row_blocks(a: np.ndarray) -> list[slice]:
    """Blocks of whole rows of ``a``, each at most ``_STEP_BYTES`` unless one row is larger."""
    rows = max(1, _STEP_BYTES // max(1, a[:1].nbytes))
    return [slice(r0, r0 + rows) for r0 in range(0, len(a), rows)]


def pair_batch_loss(params: NetworkParams, batch: list, cfg: LossConfig,
                    g: Graph | None = None) -> LossBreakdown:
    """Loss over ``batch = [(x_a, x_b, y), ...]``, recorded on ``g`` when given.

    The 2B images are stacked in pair order (a0, b0, a1, b1, ...) and
    embedded as one stack, so each layer is one tape node per step; the a
    and b embeddings are its even and odd rows.  The head, the cosine
    distance and the losses run once over those (B, fc2) rows.  The losses,
    every row and every input gradient have the bits of a tape that embeds
    each image alone and scores each pair alone; each parameter gradient is
    one sum over the stack's images or pairs, which can differ from that
    tape's sum in the last bits.
    """
    images = ops.stack(g, [x for xa, xb, _ in batch for x in (xa, xb)])
    emb = forward_embedding(params, images, g)
    emb_a, emb_b = ops.every_other_row(g, emb, 0), ops.every_other_row(g, emb, 1)
    p = forward_head(params, emb_a, emb_b, g)
    d = losses.cosine_distance(emb_a, emb_b, g)
    y = np.array([label for _, _, label in batch], dtype=np.float64)
    return total_loss(d, p, y, cfg, g)


def train(params: NetworkParams, pairs: list[PairRecord], cfg: TrainConfig,
          out_dir=None):
    """Run the SGD loop; returns (params, TrainLog, checkpoint paths).

    Applies ``cfg.freeze_k`` to ``params`` first, and, with ``class_balance``,
    the pair list's inverse-frequency weights to ``cfg.loss``.
    """
    if not pairs:
        raise ConfigError("no training pairs")
    loss_cfg = cfg.loss
    if cfg.class_balance and cfg.epochs:  # zero epochs: no loss, so no class check
        n_pos = sum(1 for p in pairs if p.y == 1)
        w_pos, w_neg = class_weights(n_pos, len(pairs) - n_pos)
        loss_cfg = replace(cfg.loss, w_pos=w_pos, w_neg=w_neg)
    if cfg.freeze_k is not None:
        freeze_prefix(params, cfg.freeze_k)
    live = [t for t, frozen in zip(params.tensors, params.freeze) if not frozen]
    log = TrainLog()
    checkpoints = []
    images = {}

    def image(rec):
        key = (rec.identity, rec.path)
        if key not in images:
            images[key] = load_image(rec, params.spec.input_shape)
        return images[key]

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        epoch_seed = int(np.random.SeedSequence((cfg.seed, epoch)).generate_state(1)[0])
        batches = make_batches(pairs, cfg.batch_size, epoch_seed)
        sums = np.zeros(4)
        n_correct = 0
        try:
            for batch in batches:
                inputs = []
                for idx, pair in batch:
                    rng = pair_rng(cfg.seed, epoch, idx)
                    xa = augment(image(pair.a), cfg.augment, rng)
                    xb = augment(image(pair.b), cfg.augment, rng)
                    inputs.append((xa, xb, pair.y))
                g = Graph(live)
                bd = pair_batch_loss(params, inputs, loss_cfg, g)
                if not np.isfinite(bd.l_total):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                sgd_step(params, g.backward(bd.total_node), cfg.lr)
                sums += np.array([bd.l_c, bd.l_r, bd.l_bce, bd.l_total]) * len(batch)
                labels = np.array([pair.y for _, pair in batch])
                n_correct += int(np.sum((bd.p >= 0.5) == (labels == 1)))
        except NumericError:
            # abort training but keep the last good checkpoint
            if out_dir is not None and not checkpoints:
                _checkpoint(params, out_dir, "abort")
            raise

        log.rows.append(EpochRow(epoch, *(sums / len(pairs)), n_correct / len(pairs),
                                 time.perf_counter() - t0))
        if out_dir is not None and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            checkpoints.append(_checkpoint(params, out_dir, epoch))

    if out_dir is not None:
        checkpoints.append(_checkpoint(params, out_dir, "final"))
    return params, log, checkpoints


def _checkpoint(params, out_dir, tag) -> str:
    path = os.path.join(str(out_dir), f"checkpoint_{tag}.dgnet")
    save_params(params, path)
    return path
