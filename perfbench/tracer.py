"""In-memory span tracer that wraps siamverify's public functions from outside.

Each wrapped function records a span (name, start, end, parent span, phase,
step or pair id).  A function is wrapped under every name a siamverify
module binds it to, so a caller that imported it by name (``trainer`` binds
``augment``, ``load_image``, ``siamese_forward`` and ``total_loss`` at
import) is traced as well as one that looks it up on its module.

Backward is timed per op: ``Graph.record`` is wrapped so that each backward
closure it stores is timed, when ``Graph.backward`` runs it, under the label
of the ``ops`` wrapper that recorded it.  Multiply-accumulates and im2col
bytes are computed from shapes, not measured.

Nothing is patched outside ``with tracer.active():``, so an untraced round
runs the program's own code.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from siamverify import dataset, evaluator, images, losses, network, ops, tensor, trainer

# (module, attribute, span name); ops are listed separately below
FUNCTIONS = [
    (images, "read_image", "images.read_image"),
    (images, "bilinear_resize", "images.bilinear_resize"),
    (images, "rotate", "images.rotate"),
    (dataset, "load_image", "dataset.load_image"),
    (dataset, "augment", "dataset.augment"),
    (dataset, "parse_manifest", "dataset.parse_manifest"),
    (dataset, "generate_pairs", "dataset.generate_pairs"),
    (network, "build_network", "network.build_network"),
    (network, "save_params", "network.save_params"),
    (network, "load_params", "network.load_params"),
    (network, "siamese_forward", "network.siamese_forward"),
    (network, "forward_embedding", "network.forward_embedding"),
    (network, "forward_head", "network.forward_head"),
    (losses, "total_loss", "losses.total_loss"),
    (losses, "cosine_distance", "losses.cosine_distance"),
    (trainer, "train", "trainer.train"),
    (trainer, "make_batches", "trainer.make_batches"),
    (trainer, "sgd_step", "trainer.sgd_step"),
    (evaluator, "score_pairs", "evaluator.score_pairs"),
    (evaluator, "metrics_report", "evaluator.metrics_report"),
    (evaluator, "roc_curve", "evaluator.roc_curve"),
]

OPS = ["add", "sub", "mul", "div", "neg", "relu", "sigmoid", "log", "sqrt",
       "absolute", "clamp", "tsum", "reshape", "stack", "linear", "conv2d", "maxpool2"]

NAMED_OPS = ("conv2d", "linear", "maxpool2", "relu")


def family(kind: str) -> str:
    """Op family a per-layer metric reports: a named op, or ``other``."""
    return kind if kind in NAMED_OPS else "other"


class Tracer:
    """Collects spans and shape-derived counters while active."""

    def __init__(self, boundary: str):
        self.boundary = boundary  # span whose return ends a step or pair
        self.spans = []  # [name, start, end, parent index, phase, op id]
        self.counters = defaultdict(float)
        self.tape_lengths = []
        self.phase = ""
        self._stack = []
        self._op_id = 0
        self._op_meta = None  # [family, MACs] of the ops call now recording

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._op_id = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.phase, self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[0] == self.boundary:
            self._op_id += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def wrap_op(self, kind, fn):
        name = f"ops.{kind}"

        def traced(*args, **kwargs):
            meta = [kind, 0]
            outer, self._op_meta = self._op_meta, meta
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
                self._op_meta = outer
            if kind == "conv2d":
                cin, _, _ = args[1].shape
                cout, _, kh, kw = args[2].shape
                _, ho, wo = out.shape
                meta[1] = cout * cin * kh * kw * ho * wo
                self.counters["ops.conv2d.cols_mb"] += cin * kh * kw * ho * wo * 8 / 1e6
            elif kind == "linear":
                rows, cols = args[2].shape
                meta[1] = rows * cols
            if meta[1]:
                self.counters[f"ops.{kind}.gmac"] += meta[1] / 1e9
            return out
        return traced

    def _timed_backward(self, meta, backward_fn):
        name = f"ops.{meta[0]}.bwd"

        def timed(grad_out):
            rec = self._open(name)
            try:
                return backward_fn(grad_out)
            finally:
                self._close(rec)
                if meta[1]:
                    # dW and dX each cost one forward's MACs
                    self.counters[f"ops.{meta[0]}.gmac"] += 2 * meta[1] / 1e9
        return timed

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        patches = []
        modules = [m for n, m in sys.modules.items()
                   if n == "siamverify" or n.startswith("siamverify.")]

        def patch_everywhere(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)

        for mod, attr, name in FUNCTIONS:
            original = getattr(mod, attr)
            patch_everywhere(original, self.wrap(name, original))
        for kind in OPS:
            original = getattr(ops, kind)
            patch_everywhere(original, self.wrap_op(kind, original))

        graph = tensor.Graph
        record, backward = graph.record, graph.backward
        tracer = self

        def traced_record(g, output, inputs, backward_fn, op=""):
            meta = tracer._op_meta or ["other", 0]
            return record(g, output, inputs, tracer._timed_backward(meta, backward_fn), op)

        traced_backward = self.wrap("tensor.backward", backward)

        def counted_backward(g, *args, **kwargs):
            tracer.tape_lengths.append(len(g))
            return traced_backward(g, *args, **kwargs)

        graph.record, graph.backward = traced_record, counted_backward
        try:
            yield self
        finally:
            graph.record, graph.backward = record, backward
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def summary(self, phases) -> dict:
        """Per span name: calls, total ms and self ms over the given phases."""
        child = defaultdict(float)
        for name, start, end, parent, phase, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _, phase, _) in enumerate(self.spans):
            if phase not in phases:
                continue
            s = out[name]
            s["calls"] += 1
            s["ms"] += (end - start) * 1e3
            s["self_ms"] += (end - start - child[i]) * 1e3
        return out

    def write(self, path: str, header: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {header}\n")
            f.write("index\tname\tstart_s\tend_s\tparent\tphase\top_id\n")
            for i, (name, start, end, parent, phase, op_id) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{phase}\t{op_id}\n")
