"""Central-difference validation of recorded gradients.

A central difference only estimates the derivative when both evaluation
points lie in the same smooth cell of the loss; stepping across a ReLU kink,
a pooling argmax flip, or an abs sign change produces a meaningless value.
``grad_check`` therefore collects the activation pattern that every non-smooth
primitive records on the tape ("kink signature") at each evaluation and skips
coordinates whose +/-eps stencil changes the pattern.  With random inputs such coordinates are
rare; the skipped count is reported via ``GradCheckResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, check_int, check_real
from .tensor import Graph


def _kink_signature(graph: Graph) -> list[np.ndarray]:
    return [pattern for _, _, _, pattern in graph.nodes if pattern is not None]


def _same_signature(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass
class GradCheckResult:
    max_relative_error: float
    checked: int
    skipped: int  # coordinates whose FD stencil straddled a kink


def grad_check(loss_fn, params, eps: float = 1e-5,
               max_coords_per_tensor: int | None = None,
               seed: int = 0) -> GradCheckResult:
    """Compare analytic gradients against central differences.

    ``loss_fn(graph_or_None)`` must evaluate the scalar loss from the current
    parameter values, recording on the graph when one is given.  Returns a
    ``GradCheckResult``: the worst relative error over all checked
    coordinates (0 when none is checked) and the checked and skipped counts.
    Every graph it builds differentiates ``params``, so the base and the
    perturbed kink signatures come from the same recorded ops.
    ``max_coords_per_tensor`` deterministically subsamples coordinates of
    large tensors; by default every coordinate is checked.
    """
    check_real("eps", eps, 1e-7, 1e-3)
    if max_coords_per_tensor is not None:
        check_int("max_coords_per_tensor", max_coords_per_tensor, 1)
    params = list(params)
    graph = Graph(params)
    out = loss_fn(graph)
    if out.shape != ():
        raise ConfigError(f"loss_fn must return a scalar, got shape {out.shape}")
    base_sig = _kink_signature(graph)
    grads = graph.backward(out)
    analytic = [grads[p] if p in grads else np.zeros_like(p.data) for p in params]

    def evaluate() -> tuple[float, list[np.ndarray]]:
        g = Graph(params)
        value = float(loss_fn(g).data)
        return value, _kink_signature(g)

    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = skipped = 0
    for p, an in zip(params, analytic):
        n = p.data.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = range(n)
        flat = p.data.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus, sig_plus = evaluate()
            flat[i] = orig - eps
            f_minus, sig_minus = evaluate()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss at perturbed coordinate {i}")
            if not (_same_signature(sig_plus, base_sig)
                    and _same_signature(sig_minus, base_sig)):
                skipped += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = an.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
            checked += 1
    return GradCheckResult(worst, checked, skipped)
