"""Pair losses: contrastive over cosine distance, score regression, BCE.

The losses and the cosine take plain arrays or tensors.  Given a graph they
record on it (training); without one (scoring, finite differencing) they only
compute, with the same arithmetic.  The cosine also scores each row of two
(n, k) matrices.  ``d`` is a *distance*, d = 1 - cosine similarity, so
matched pairs are pulled toward d = 0 and mismatched pairs pushed beyond the
margin.

Class balancing multiplies each pair's term by an inverse-frequency weight;
the weights apply uniformly to all enabled components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DomainError, ShapeError, finite_real
from .tensor import Graph, Tensor

_NORM_EPS = 1e-12
_D_TOL = 1e-9  # slack for floating-point drift of d just outside [0, 1]
_BCE_CLAMP_EPS = 1e-7


@dataclass
class LossConfig:
    margin: float = 0.5
    enable_lr: bool = True
    enable_lbce: bool = True
    w_pos: float = 1.0
    w_neg: float = 1.0

    def __post_init__(self):
        if not finite_real(self.margin) or not 0.0 < self.margin <= 1.0:
            raise ConfigError(f"margin must be a real number in (0, 1], got {self.margin!r}")
        if not all(finite_real(w) and w > 0 for w in (self.w_pos, self.w_neg)):
            raise ConfigError(f"class weights must be finite and positive, "
                              f"got {self.w_pos!r}, {self.w_neg!r}")
        if not all(isinstance(on, bool) for on in (self.enable_lr, self.enable_lbce)):
            raise ConfigError(f"enable_lr and enable_lbce must be bools, "
                              f"got {self.enable_lr!r}, {self.enable_lbce!r}")


@dataclass
class LossBreakdown:
    l_c: float
    l_r: float
    l_bce: float
    l_total: float
    p: np.ndarray
    total_node: Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def cosine_similarity(a, b, g: Graph | None = None) -> Tensor:
    """<a,b> / (|a||b|) of two vectors, or one score per row of two (n, k) matrices.

    A row where either norm is below ``_NORM_EPS`` scores 0 with no gradient:
    its squared norms gain 1, so sqrt and division stay finite, and its score
    is multiplied by 0.
    Any other row gains 0 and is multiplied by 1, so it keeps its vector bits.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape or a.data.ndim not in (1, 2):
        raise ShapeError(f"cosine_similarity over shapes {a.shape}, {b.shape}")
    dot = ops.rowsum(g, ops.mul(g, a, b))
    aa = ops.rowsum(g, ops.mul(g, a, a))
    bb = ops.rowsum(g, ops.mul(g, b, b))
    ok = (np.sqrt(aa.data) >= _NORM_EPS) & (np.sqrt(bb.data) >= _NORM_EPS)
    degenerate = Tensor(~ok)
    na = ops.sqrt(g, ops.add(g, aa, degenerate))
    nb = ops.sqrt(g, ops.add(g, bb, degenerate))
    return ops.mul(g, ops.div(g, dot, ops.mul(g, na, nb)), Tensor(ok))


def cosine_distance(a, b, g: Graph | None = None) -> Tensor:
    return ops.sub(g, Tensor(1.0), cosine_similarity(a, b, g))


def _batch(x, y) -> tuple[Tensor, np.ndarray]:
    """``x`` as a tensor and ``y`` as float64 labels of its shape, a nonempty vector."""
    x = _as_tensor(x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise ShapeError(f"labels shape {y.shape} != batch shape {x.shape}")
    if x.data.ndim != 1 or x.data.size == 0:
        raise ConfigError(f"batch must be a nonempty vector, got shape {x.shape}")
    return x, y


def _weighted_mean(g, terms: Tensor, y: np.ndarray, cfg: LossConfig, n: float) -> Tensor:
    """sum_i w_i terms_i / n, with w_i the class weight of pair i."""
    w = Tensor(np.where(y == 1, cfg.w_pos, cfg.w_neg))
    return ops.div(g, ops.tsum(g, ops.mul(g, w, terms)), Tensor(n))


def contrastive_loss(d, y, cfg: LossConfig, g: Graph | None = None) -> Tensor:
    """(1/2B) sum w_i [ y_i d_i^2 + (1-y_i) max(margin - d_i, 0)^2 ]."""
    d, y = _batch(d, y)
    if np.any(d.data < -_D_TOL) or np.any(d.data > 1.0 + _D_TOL):
        raise DomainError(f"distance outside [0,1]: {d.data}")
    hinge = ops.relu(g, ops.sub(g, Tensor(cfg.margin), d))
    terms = ops.add(g,
                    ops.mul(g, Tensor(y), ops.mul(g, d, d)),
                    ops.mul(g, Tensor(1.0 - y), ops.mul(g, hinge, hinge)))
    return _weighted_mean(g, terms, y, cfg, 2.0 * d.data.size)


def mse_loss(p, y, cfg: LossConfig, g: Graph | None = None) -> Tensor:
    """Class-weighted batch mean of (y_i - p_i)^2."""
    p, y = _batch(p, y)
    diff = ops.sub(g, Tensor(y), p)
    return _weighted_mean(g, ops.mul(g, diff, diff), y, cfg, float(p.data.size))


def bce_loss(p, y, cfg: LossConfig, g: Graph | None = None) -> Tensor:
    """Class-weighted batch mean of -[y ln p + (1-y) ln(1-p)], p clamped."""
    p, y = _batch(p, y)
    pc = ops.clamp(g, p, _BCE_CLAMP_EPS, 1.0 - _BCE_CLAMP_EPS)
    ll = ops.add(g,
                 ops.mul(g, Tensor(y), ops.log(g, pc)),
                 ops.mul(g, Tensor(1.0 - y), ops.log(g, ops.sub(g, Tensor(1.0), pc))))
    return ops.neg(g, _weighted_mean(g, ll, y, cfg, float(p.data.size)))


def class_weights(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Inverse-frequency weights normalized so the dataset-mean weight is 1."""
    if n_pos <= 0 or n_neg <= 0:
        raise ConfigError(f"class_weights needs both classes, got {n_pos} pos / {n_neg} neg")
    total = n_pos + n_neg
    return total / (2.0 * n_pos), total / (2.0 * n_neg)


def total_loss(d, p, y, cfg: LossConfig, g: Graph | None = None) -> LossBreakdown:
    """Sum of enabled components; disabled ones report 0 and are excluded."""
    d, y = _batch(d, y)
    p, _ = _batch(p, y)
    total = lc = contrastive_loss(d, y, cfg, g)
    lr_val = lbce_val = 0.0
    if cfg.enable_lr:
        lr = mse_loss(p, y, cfg, g)
        lr_val = lr.item()
        total = ops.add(g, total, lr)
    if cfg.enable_lbce:
        lbce = bce_loss(p, y, cfg, g)
        lbce_val = lbce.item()
        total = ops.add(g, total, lbce)
    return LossBreakdown(l_c=lc.item(), l_r=lr_val, l_bce=lbce_val,
                         l_total=total.item(), p=p.data.copy(),
                         total_node=total)
