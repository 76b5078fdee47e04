"""Configurable VGG-style Siamese embedding network with tied weights.

Both streams run the same parameter set.  The embedding is tapped at FC2
after rectification so its entries are nonnegative and cosine similarity
between embeddings lands in [0, 1].  The verification head consumes the
elementwise absolute difference of the two embeddings and ends in a sigmoid,
which makes the score exactly symmetric in its two inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import ops
from .atomic import atomic_open
from .errors import ConfigError, FormatError, ShapeError, check_int
from .tensor import Graph, Tensor

CHECKPOINT_MAGIC = b"DGNETv1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Layer:
    """One weighted layer; its bias has shape ``(weight[0],)``."""

    kind: str  # "conv", "fc" or "head"
    weight: tuple[int, ...]
    out: tuple[int, ...]  # for one image or one pair, before any pool
    pool: bool = False  # a maxpool2 follows


@dataclass(frozen=True)
class NetworkSpec:
    """Topology: conv stages, two fc widths, then head widths ending in 1."""

    input_shape: tuple[int, int, int]
    stages: tuple[tuple[int, int], ...]  # (out_channels, convs before a maxpool2)
    fc: tuple[int, int]
    head: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self):
        dims = [*self.input_shape, *self.fc, *self.head, *(d for s in self.stages for d in s)]
        if (len(self.input_shape) != 3 or any(len(s) != 2 for s in self.stages)
                or not all(type(d) is int and d > 0 for d in dims)):  # bool is no size
            raise ConfigError("input (C, H, W), stage (out_channels, n_convs), fc and head "
                              f"sizes must be positive ints, got {self!r}")
        if not isinstance(self.name, str):
            raise ConfigError(f"spec name must be a string, got {self.name!r}")
        if not self.stages:
            raise ConfigError("conv stage list must be nonempty")
        if len(self.fc) != 2 or self.fc[1] < 2:
            raise ConfigError(f"fc widths must be [fc1, fc2] with fc2 >= 2, got {self.fc}")
        if not self.head or self.head[-1] != 1:
            raise ConfigError(f"head widths must end in 1, got {self.head}")
        _, h, w = self.input_shape
        if h % (1 << len(self.stages)) or w % (1 << len(self.stages)):
            raise ConfigError(f"spatial extent {h}x{w} not divisible by maxpool2 stages")

    @property
    def weighted_layer_count(self) -> int:
        """``len(layers)``, counted without building a row: ``load_params``' payload bound."""
        return sum(n for _, n in self.stages) + len(self.fc) + len(self.head)

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """One row per weighted layer; row i owns ``tensors[2i]`` and ``tensors[2i + 1]``."""
        c, h, w = self.input_shape
        rows = []
        for out_c, n_convs in self.stages:
            for j in range(n_convs):
                rows.append(Layer("conv", (out_c, c, 3, 3), (out_c, h, w), pool=j == n_convs - 1))
                c = out_c
            h, w = h // 2, w // 2
        n_in = c * h * w
        for kind, widths in (("fc", self.fc), ("head", self.head)):
            for width in widths:  # the head reads |embA - embB|, fc2 wide
                rows.append(Layer(kind, (width, n_in), (width,)))
                n_in = width
        return tuple(rows)

    def to_dict(self) -> dict:
        """Every field by name; its tuples serialise as the JSON arrays ``from_dict`` reads."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        """The spec of ``d``'s fields, lists as tuples; other keys ignored, absent ones default."""
        return cls(**{f.name: _tuples(d[f.name]) for f in fields(cls) if f.name in d})

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def tiny(cls) -> "NetworkSpec":
        return cls(input_shape=(1, 32, 32), stages=((8, 2), (16, 2)),
                   fc=(64, 32), head=(16, 1), name="tiny")

    @classmethod
    def vggface16(cls) -> "NetworkSpec":
        # 13 conv + 2 fc + 1 head linear = 16 weighted layers
        return cls(input_shape=(3, 224, 224),
                   stages=((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)),
                   fc=(4096, 4096), head=(1,), name="vggface16")

    @classmethod
    def profile(cls, name: str) -> "NetworkSpec":
        if name not in DEFAULT_FREEZE:  # the profiles, each a constructor of its name
            raise ConfigError(f"unknown profile {name!r}")
        return getattr(cls, name)()


DEFAULT_FREEZE = {"tiny": 1, "vggface16": 4}


def _tuples(value):
    """A JSON list as a tuple, and each list in it too (a ``stages`` entry); else ``value``."""
    if not isinstance(value, list):
        return value
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


@dataclass
class NetworkParams:
    """Learnable tensors in declaration order, plus a per-tensor freeze mask."""

    spec: NetworkSpec
    tensors: list[Tensor]
    freeze: list[bool] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if not self.freeze:
            self.freeze = [False] * len(self.tensors)


def build_network(spec: NetworkSpec, seed: int) -> NetworkParams:
    """He-uniform weights, zero biases; deterministic for a fixed seed (an int >= 0)."""
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    tensors = []
    for layer in spec.layers:
        limit = np.sqrt(6.0 / math.prod(layer.weight[1:]))
        tensors.append(Tensor(rng.uniform(-limit, limit, size=layer.weight)))
        tensors.append(Tensor(np.zeros(layer.weight[:1])))
    return NetworkParams(spec=spec, tensors=tensors, seed=int(seed))  # a JSON int in checkpoints


def freeze_prefix(params: NetworkParams, k: int) -> NetworkParams:
    """Mark the weights and biases of the first k conv layers frozen."""
    n_conv = sum(layer.kind == "conv" for layer in params.spec.layers)
    check_int("freeze prefix", k, 0, n_conv)
    params.freeze = [i < 2 * int(k) for i in range(len(params.tensors))]  # JSON bools
    return params


def forward_embedding(params: NetworkParams, x: Tensor, g: Graph | None = None) -> Tensor:
    """One stream: conv stages -> flatten -> fc1 -> fc2, rectified throughout.

    ``x`` is one (C, H, W) image, embedded to an (fc2,) vector, or an
    (n, C, H, W) stack, embedded to (n, fc2) rows as one tensor per layer:
    the convs read the n images' channels back to back and fc1 and fc2 run
    over rows, so each row and each input gradient has the bits of its image
    embedded alone.  A parameter gradient is the stack's own sum over its
    images (see ``ops``).
    """
    shape = params.spec.input_shape
    if x.shape[-3:] != shape or x.data.ndim not in (3, 4):
        raise ShapeError(f"input shape {x.shape} is not spec {shape} or a stack of it")
    lead = x.shape[:-3]  # () for one image, (n,) for a stack
    h = ops.reshape(g, x, (-1, *shape[1:])) if lead else x
    for layer, w, b in zip(params.spec.layers, params.tensors[::2], params.tensors[1::2]):
        if layer.kind == "head":
            break
        if layer.kind == "fc" and h.data.ndim == 3:  # fc1 reads the last pool's output flat
            h = ops.reshape(g, h, (*lead, layer.weight[1]))
        h = ops.relu(g, (ops.conv2d if layer.kind == "conv" else ops.linear)(g, h, w, b))
        if layer.pool:
            h = ops.maxpool2(g, h)
    return h


def forward_head(params: NetworkParams, emb_a: Tensor, emb_b: Tensor,
                 g: Graph | None = None) -> Tensor:
    """Verification head over |embA - embB|: a score in (0,1) for two embeddings.

    Given two (n, fc2) matrices it returns one score per row, each with the
    bits of that row's pair scored alone.
    """
    t = params.tensors[-2 * len(params.spec.head):]  # the head layers come last
    h = ops.absolute(g, ops.sub(g, emb_a, emb_b))
    for w, b in zip(t[:-2:2], t[1:-2:2]):
        h = ops.relu(g, ops.linear(g, h, w, b))
    h = ops.sigmoid(g, ops.linear(g, h, t[-2], t[-1]))
    return ops.reshape(g, h, h.shape[:-1])


def siamese_forward(params: NetworkParams, x_a: Tensor, x_b: Tensor,
                    g: Graph | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Tied-weight forward of both streams; returns (embA, embB, p)."""
    emb_a = forward_embedding(params, x_a, g)
    emb_b = forward_embedding(params, x_b, g)
    p = forward_head(params, emb_a, emb_b, g)
    return emb_a, emb_b, p


def save_params(params: NetworkParams, path) -> None:
    header = {
        "spec": params.spec.to_dict(),
        "fingerprint": params.spec.fingerprint(),
        "seed": params.seed,
        "freeze": params.freeze,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for t in params.tensors:
            f.write(np.ascontiguousarray(t.data, dtype="<f8"))  # no copy of a C-order float64


def load_params(path, expect_spec: NetworkSpec | None = None) -> NetworkParams:
    """Read a checkpoint, each tensor straight from the file into its own array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        try:
            version, blob_len = struct.unpack("<II", f.read(8))
        except struct.error as exc:
            raise FormatError("truncated checkpoint header") from exc
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(f.read(min(blob_len, size - f.tell())))
        except (ValueError, RecursionError) as exc:
            raise FormatError("corrupt checkpoint header") from exc
        if (not isinstance(header, dict) or not isinstance(header.get("spec"), dict)
                or "fingerprint" not in header):
            raise FormatError("checkpoint header needs a spec object and a fingerprint")
        try:
            spec = NetworkSpec.from_dict(header["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed spec in checkpoint header: {exc}") from exc
        if spec.fingerprint() != header["fingerprint"]:
            raise FormatError("spec fingerprint mismatch inside checkpoint")
        if expect_spec is not None and expect_spec.fingerprint() != header["fingerprint"]:
            raise FormatError(
                f"checkpoint built for spec {spec.name!r}, expected {expect_spec.name!r}")
        left = size - f.tell()
        if 16 * spec.weighted_layer_count > left:  # 2 float64s a layer, at least
            raise FormatError("truncated checkpoint payload")
        tensors = []
        for layer in spec.layers:
            for shape in (layer.weight, layer.weight[:1]):
                n = math.prod(shape) * 8  # a Python int: no int64 wrap on a huge spec
                if n > left:  # checked before the array is allocated
                    raise FormatError("truncated checkpoint payload")
                data = np.empty(shape, dtype="<f8")
                if f.readinto(data) != n:
                    raise FormatError("truncated checkpoint payload")
                tensors.append(Tensor(data))
                left -= n
        if left:
            raise FormatError("trailing bytes in checkpoint")
    freeze = header.get("freeze", [False] * len(tensors))
    if (not isinstance(freeze, list) or len(freeze) != len(tensors)
            or not all(isinstance(f, bool) for f in freeze)):
        raise FormatError(f"freeze mask must be {len(tensors)} booleans, one per tensor")
    seed = header.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FormatError(f"checkpoint seed must be an integer, got {seed!r}")
    return NetworkParams(spec=spec, tensors=tensors, freeze=freeze, seed=seed)
