"""Dense float64 tensors and the recording tape for reverse-mode gradients.

A ``Graph`` records every primitive application during a forward pass.
``Graph.backward`` consumes the tape in exact reverse order and accumulates
gradients into the ``grad`` slot of every leaf it reaches, a leaf being a
tensor that no node produced.  Intermediate tensors and leaves that no node
touches keep ``grad=None``.  A tape runs backward once.
"""

from __future__ import annotations

import numpy as np

from .errors import StateError


class Tensor:
    """n-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None if grad is None else np.asarray(grad, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), None if self.grad is None else self.grad.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Graph:
    """Tape of primitive applications, topologically ordered by construction."""

    def __init__(self):
        self._nodes = []  # (output, inputs tuple, backward closure, kink pattern)

    def record(self, output: Tensor, inputs, backward_fn, pattern=None):
        """Append a node; ``backward_fn(grad_out) -> per-input grads (or None)``.

        ``pattern`` is the activation pattern a non-smooth op's backward uses
        (relu mask, abs sign, clamp inside, maxpool argmax); ``None`` if smooth.
        """
        self._nodes.append((output, tuple(inputs), backward_fn, pattern))

    @property
    def nodes(self):
        return tuple(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def backward(self, output: Tensor, seed: float = 1.0):
        """Populate leaf grad slots for everything reachable from ``output``.

        ``output`` must be the result of a recorded forward pass; the usual
        call seeds a scalar loss with 1.  Each node is popped as it runs, so
        its closure is freed and the tape is empty afterwards.
        """
        if not self._nodes:
            raise StateError("backward on an empty tape: nothing recorded, or backward already ran")
        produced = {id(out) for out, _, _, _ in self._nodes}
        if id(output) not in produced:
            raise StateError("backward target was not produced by this graph")

        grads = {id(output): np.full(output.data.shape, seed, dtype=np.float64)}
        leaves = {}
        while self._nodes:
            out, inputs, backward_fn, _ = self._nodes.pop()
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for tin, gin in zip(inputs, backward_fn(g)):
                if gin is None:
                    continue
                key = id(tin)
                if key not in produced:
                    leaves[key] = tin
                grads[key] = grads[key] + gin if key in grads else gin
        for key, t in leaves.items():
            g = grads[key]
            t.grad = g if t.grad is None else t.grad + g
