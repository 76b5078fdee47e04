"""Dense float64 tensors and the recording tape for reverse-mode gradients.

A ``Graph`` is built for a list of leaf tensors to differentiate, its
``wrt``, and records a primitive application only if it keeps one of its
inputs (``Graph.keeps``): one in ``wrt`` or produced by a recorded node.  An
op that no wanted tensor reaches leaves nothing on the tape, and its output's
token stays ``None``.
``Graph.backward`` consumes the tape in exact reverse order and returns the
gradient of every ``wrt`` tensor it reached.  A tape runs backward once.

A node keeps a ``wrt`` input by reference, a produced input by its token, an
integer unique in the process, and no other input; each backward closure
keeps just the arrays it reads.  An intermediate tensor, an input image or a
loss constant therefore dies as soon as the forward pass drops it, and a
tensor made later cannot take its place on the tape, as one that reused its
``id()`` could.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .errors import StateError


class Tensor:
    """n-dimensional float64 array; ``token`` names it on the tape that produced it."""

    __slots__ = ("data", "token")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.token = None  # set when a graph records this tensor as an op's output

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


_tokens = count()


class Graph:
    """Tape of primitive applications, topologically ordered by construction."""

    def __init__(self, wrt):
        self._wrt = set(wrt)  # tensors hash by identity
        self._nodes = []  # (output token, input refs, backward closure, kink pattern)
        self._produced = set()  # tokens of this graph's outputs

    def keeps(self, t: Tensor) -> bool:
        """Whether a node would keep ``t``: it is in ``wrt`` or this graph produced it."""
        return t.token in self._produced or t in self._wrt

    def record(self, output: Tensor, inputs, backward_fn, pattern=None):
        """Append a node; ``backward_fn(grad_out) -> per-input grads (or None)``.

        ``pattern`` is the activation pattern a non-smooth op's backward uses
        (relu mask, abs sign, clamp inside, maxpool argmax); ``None`` if smooth.
        The node keeps an input this graph produced by its token, a ``wrt``
        input by reference and any other as ``None``; with no input kept,
        nothing is recorded.
        """
        refs = tuple((t.token if t.token in self._produced else t) if self.keeps(t) else None
                     for t in inputs)
        if all(ref is None for ref in refs):
            return
        output.token = next(_tokens)
        self._produced.add(output.token)
        self._nodes.append((output.token, refs, backward_fn, pattern))

    @property
    def nodes(self):
        return tuple(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def backward(self, output: Tensor) -> dict:
        """Gradients of ``output`` as ``{wrt tensor: array}`` for each one it reaches.

        ``output``'s gradient is seeded with 1.  An output that no ``wrt``
        tensor reaches has no token and gets ``{}``.  Each node is popped as
        it runs, so its closure is freed and the tape is empty afterwards.
        """
        if output.token is None:
            return {}
        if output.token not in self._produced:
            raise StateError("backward target was not produced by this graph, "
                             "or backward already ran")

        # keyed by token for produced tensors, by the tensor itself for wrt ones;
        # each token is popped at the node that produced it, so the wrt ones remain
        grads = {output.token: np.ones(output.data.shape)}
        while self._nodes:
            token, refs, backward_fn, _ = self._nodes.pop()
            g = grads.pop(token, None)
            if g is None:
                continue
            for ref, gin in zip(refs, backward_fn(g)):
                if ref is None or gin is None:
                    continue
                grads[ref] = grads[ref] + gin if ref in grads else gin
        self._produced.clear()
        return grads
