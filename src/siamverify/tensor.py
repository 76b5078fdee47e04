"""Dense float64 tensors and the recording tape for reverse-mode gradients.

A ``Graph`` records every primitive application during a forward pass.
``Graph.backward`` consumes the tape in exact reverse order and accumulates
gradients into the ``grad`` slot of every leaf it reaches, a leaf being a
tensor that no node produced.  Intermediate tensors and leaves that no node
touches keep ``grad=None``.  A tape runs backward once.

The tape refers to the tensors it produced by a token, an integer unique in
the process, and holds references only to leaves; each backward closure keeps
just the arrays it reads.  An intermediate tensor therefore dies as soon as
the forward pass drops it, and a tensor made later cannot take its place on
the tape, as one that reused its ``id()`` could.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .errors import StateError


class Tensor:
    """n-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "token")

    def __init__(self, data, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
        self.token = None  # set when a graph records this tensor as an op's output

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), None if self.grad is None else self.grad.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


_tokens = count()


class Graph:
    """Tape of primitive applications, topologically ordered by construction."""

    def __init__(self):
        self._nodes = []  # (output token, inputs tuple, backward closure, kink pattern)
        self._produced = set()  # tokens of this graph's outputs

    def record(self, output: Tensor, inputs, backward_fn, pattern=None):
        """Append a node; ``backward_fn(grad_out) -> per-input grads (or None)``.

        ``pattern`` is the activation pattern a non-smooth op's backward uses
        (relu mask, abs sign, clamp inside, maxpool argmax); ``None`` if smooth.
        The node keeps an input this graph produced by its token, any other
        input (a leaf) by reference.
        """
        refs = tuple(t.token if t.token in self._produced else t for t in inputs)
        output.token = next(_tokens)
        self._produced.add(output.token)
        self._nodes.append((output.token, refs, backward_fn, pattern))

    @property
    def nodes(self):
        return tuple(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def backward(self, output: Tensor):
        """Populate leaf grad slots for everything reachable from ``output``.

        ``output`` must be the result of a recorded forward pass; its gradient
        is seeded with 1.  Each node is popped as it runs, so its closure is
        freed and the tape is empty afterwards.
        """
        if not self._nodes:
            raise StateError("backward on an empty tape: nothing recorded, or backward already ran")
        if output.token not in self._produced:
            raise StateError("backward target was not produced by this graph")

        # keyed by token for produced tensors, by the tensor itself for leaves
        grads = {output.token: np.ones(output.data.shape)}
        leaves = []
        while self._nodes:
            token, refs, backward_fn, _ = self._nodes.pop()
            g = grads.pop(token, None)
            if g is None:
                continue
            for ref, gin in zip(refs, backward_fn(g)):
                if gin is None:
                    continue
                if ref in grads:
                    grads[ref] = grads[ref] + gin
                else:
                    grads[ref] = gin
                    if isinstance(ref, Tensor):
                        leaves.append(ref)
        self._produced.clear()
        for t in leaves:
            g = grads[t]
            t.grad = g if t.grad is None else t.grad + g
