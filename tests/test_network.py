"""Topology, initialization, tied-weight forward, and checkpoint round trips."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from siamverify import (DEFAULT_FREEZE, LossConfig, NetworkSpec, Tensor, build_network,
                        forward_embedding, forward_head, freeze_prefix, grad_check,
                        load_params, ops, save_params, siamese_forward)
from siamverify.errors import ConfigError, FormatError, ShapeError
from siamverify.network import Layer
from siamverify.trainer import pair_batch_loss

TINY = NetworkSpec.tiny()


def rand_input(seed, spec=TINY):
    return Tensor(np.random.default_rng(seed).random(spec.input_shape))


def pooled_rows(spec):
    """Each stage's last conv, counted from the stage list: the rows a maxpool2 follows."""
    return [int(i) - 1 for i in np.cumsum([n for _, n in spec.stages])]


class TestSpec:
    def test_tiny_counts(self):
        layers = TINY.layers
        assert [layer.kind for layer in layers] == ["conv"] * 4 + ["fc"] * 2 + ["head"] * 2
        assert TINY.weighted_layer_count == len(layers) == 8
        assert [layer.out for layer in layers] == [
            (8, 32, 32), (8, 32, 32), (16, 16, 16), (16, 16, 16), (64,), (32,), (16,), (1,)]
        assert [i for i, layer in enumerate(layers) if layer.pool] == pooled_rows(TINY) == [1, 3]
        assert layers[4].weight[1] == 16 * 8 * 8  # fc1 reads the last pool's output flat

    def test_vggface16_counts(self):
        spec = NetworkSpec.vggface16()
        assert sum(layer.kind == "conv" for layer in spec.layers) == 13
        assert spec.weighted_layer_count == len(spec.layers) == 16
        assert spec.layers[13].weight[1] == 512 * 7 * 7
        assert [i for i, layer in enumerate(spec.layers) if layer.pool] == pooled_rows(spec) \
            == [1, 3, 6, 9, 12]

    def test_vggface16_layer_shapes(self):
        layers = NetworkSpec.vggface16().layers
        assert layers[0] == Layer("conv", (64, 3, 3, 3), (64, 224, 224), False)
        assert layers[1] == Layer("conv", (64, 64, 3, 3), (64, 224, 224), True)
        assert layers[2] == Layer("conv", (128, 64, 3, 3), (128, 112, 112), False)
        assert layers[11] == Layer("conv", (512, 512, 3, 3), (512, 14, 14), False)
        assert layers[12] == Layer("conv", (512, 512, 3, 3), (512, 14, 14), True)
        assert layers[13] == Layer("fc", (4096, 512 * 7 * 7), (4096,), False)
        assert layers[14] == Layer("fc", (4096, 4096), (4096,), False)
        assert layers[15] == Layer("head", (1, 4096), (1,), False)

    def test_default_freeze(self):
        assert DEFAULT_FREEZE == {"tiny": 1, "vggface16": 4}

    def test_profile_lookup(self):
        assert NetworkSpec.profile("tiny") == TINY
        with pytest.raises(ConfigError):
            NetworkSpec.profile("resnet")

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkSpec((1, 32, 32), (), (64, 32), (1,))
        with pytest.raises(ConfigError):
            NetworkSpec((1, 32, 32), ((8, 1),), (64, 1), (1,))
        with pytest.raises(ConfigError):
            NetworkSpec((1, 32, 32), ((8, 1),), (64, 32), (16, 2))
        with pytest.raises(ConfigError):
            NetworkSpec((1, 30, 30), ((8, 1), (16, 1)), (64, 32), (1,))

    @pytest.mark.parametrize("input_shape,stages,fc,head", [
        ((1, 32, 32), ((8, 0),), (64, 32), (1,)),
        ((1, 32, 32), ((-8, 2),), (64, 32), (1,)),
        ((1, 32, 32), ((8, "2"),), (64, 32), (1,)),
        ((1, 32, 32), ((8, 2.5),), (64, 32), (1,)),
        ((1, 32, 32), ((8,),), (64, 32), (1,)),
        ((1, 32, 32), ((8, True),), (64, 32), (1,)),
        ((0, 32, 32), ((8, 1),), (64, 32), (1,)),
        ((1, 32), ((8, 1),), (64, 32), (1,)),
        ((1, 32, 32), ((8, 1),), (0, 32), (1,)),
        ((1, 32, 32), ((8, 1),), (64, 32), (0, 1)),
    ], ids=["zero-convs", "negative-channels", "string", "float", "short-stage", "bool",
            "zero-channels", "2d-input", "zero-fc", "zero-head"])
    def test_sizes_must_be_positive_ints(self, input_shape, stages, fc, head):
        with pytest.raises(ConfigError, match="positive ints"):
            NetworkSpec(input_shape, stages, fc, head)

    @pytest.mark.parametrize("name", [5, None, True, {"a": 1}],
                             ids=["int", "null", "bool", "object"])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ConfigError, match=f"^spec name must be a string, got {name!r}$"):
            replace(TINY, name=name)

    def test_dict_roundtrip_and_fingerprint(self):
        again = NetworkSpec.from_dict(TINY.to_dict())
        assert again == TINY
        assert again.fingerprint() == TINY.fingerprint()
        assert NetworkSpec.vggface16().fingerprint() != TINY.fingerprint()


class TestCheckpointBytes:
    """Spec fingerprints and checkpoint header bytes recorded at commit e0d9a05.

    Any change here changes the bytes of every saved checkpoint.
    """

    FINGERPRINTS = {
        "tiny": "af3eca937ca2a6d1aa8e109d593cefff42292c0e096e9e4aafdad99eb16b825b",
        "vggface16": "9619c5f7c25a0b5ece1910666081d716f0f46042595d6404cb603c5fe088ad34",
        "positional-walk": "00d147ac5aa082ea442774ee7c8956dd120be233191978d8562544a58e2c844c",
    }
    TINY_HEADER = (
        b'DGNETv1\x01\x00\x00\x00N\x01\x00\x00{"fingerprint": "af3eca937ca2a6d1aa8e109d593cefff'
        b'42292c0e096e9e4aafdad99eb16b825b", "freeze": [false, false, false, false, false, '
        b'false, false, false, false, false, false, false, false, false, false, false], '
        b'"seed": 0, "spec": {"fc": [64, 32], "head": [16, 1], "input_shape": [1, 32, 32], '
        b'"name": "tiny", "stages": [[8, 2], [16, 2]]}}')

    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_fingerprint(self, name):
        spec = {"tiny": TINY, "vggface16": NetworkSpec.vggface16(),
                "positional-walk": TestPositionalWalk.SPEC}[name]
        assert spec.fingerprint() == self.FINGERPRINTS[name]

    def test_tiny_checkpoint_header(self, tmp_path):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        raw = path.read_bytes()
        assert raw[:len(self.TINY_HEADER)] == self.TINY_HEADER
        assert len(raw) == len(self.TINY_HEADER) + 8 * sum(t.data.size for t in
                                                            load_params(path).tensors)


class TestBuild:
    def test_tensor_count_and_shapes(self):
        params = build_network(TINY, seed=0)
        assert len(params.tensors) == 2 * len(TINY.layers)
        for layer, w, b in zip(TINY.layers, params.tensors[::2], params.tensors[1::2]):
            assert w.shape == layer.weight and b.shape == (layer.weight[0],)
            assert np.all(b.data == 0.0)

    def test_tiny_param_count_closed_form(self):
        params = build_network(TINY, seed=0)
        n = sum(t.data.size for t in params.tensors)
        conv = (8 * 1 * 9 + 8) + (8 * 8 * 9 + 8) + (16 * 8 * 9 + 16) + (16 * 16 * 9 + 16)
        fc = (64 * 1024 + 64) + (32 * 64 + 32)
        head = (16 * 32 + 16) + (1 * 16 + 1)
        assert n == conv + fc + head

    def test_seed_determinism(self):
        a = build_network(TINY, seed=5)
        b = build_network(TINY, seed=5)
        c = build_network(TINY, seed=6)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a.tensors, b.tensors))
        assert any(not np.array_equal(x.data, y.data) for x, y in zip(a.tensors, c.tensors))

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            build_network(TINY, seed=seed)

    def test_numpy_int_seed_saves_as_an_int(self, tmp_path):
        a, b = tmp_path / "np.dgnet", tmp_path / "int.dgnet"
        save_params(build_network(TINY, seed=np.int64(3)), a)
        save_params(build_network(TINY, seed=3), b)
        assert a.read_bytes() == b.read_bytes() and load_params(a).seed == 3

    def test_he_uniform_bounds(self):
        params = build_network(TINY, seed=1)
        for layer, w in zip(TINY.layers, params.tensors[::2]):
            limit = np.sqrt(6.0 / np.prod(layer.weight[1:]))
            assert np.all(np.abs(w.data) <= limit)


class TestFreeze:
    def test_prefix_marks_weight_and_bias(self):
        params = freeze_prefix(build_network(TINY, seed=0), 2)
        assert params.freeze == [True] * 4 + [False] * (len(params.tensors) - 4)
        assert len([t for t, f in zip(params.tensors, params.freeze) if f]) == 4

    def test_k_zero(self):
        params = freeze_prefix(build_network(TINY, seed=0), 0)
        assert not any(params.freeze)

    def test_vggface_default_prefix_is_eight_tensors(self):
        spec = NetworkSpec.vggface16()
        k = DEFAULT_FREEZE["vggface16"]
        assert all(layer.kind == "conv" for layer in spec.layers[:k])
        assert 2 * k == 8

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            freeze_prefix(build_network(TINY, seed=0), 5)
        with pytest.raises(ConfigError):
            freeze_prefix(build_network(TINY, seed=0), -1)

    @pytest.mark.parametrize("k", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ConfigError, match="freeze prefix must be an int"):
            freeze_prefix(build_network(TINY, seed=0), k)


class TestForward:
    def test_embedding_shape_and_nonneg(self):
        params = build_network(TINY, seed=0)
        emb = forward_embedding(params, rand_input(0))
        assert emb.shape == (32,)
        assert np.all(emb.data >= 0.0)  # post-relu tap

    def test_bad_input_shape(self):
        params = build_network(TINY, seed=0)
        with pytest.raises(ShapeError):
            forward_embedding(params, Tensor(np.zeros((1, 16, 16))))

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_weights_identical_inputs(self, seed):
        params = build_network(TINY, seed=seed)
        x = rand_input(seed + 100)
        emb_a, emb_b, p = siamese_forward(params, x, x.copy())
        assert np.array_equal(emb_a.data, emb_b.data)
        d = 1.0 - (emb_a.data @ emb_b.data) / (
            np.linalg.norm(emb_a.data) * np.linalg.norm(emb_b.data))
        assert abs(d) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_head_symmetry_and_range(self, seed):
        params = build_network(TINY, seed=seed)
        a = forward_embedding(params, rand_input(seed))
        b = forward_embedding(params, rand_input(seed + 50))
        p_ab = forward_head(params, a, b)
        p_ba = forward_head(params, b, a)
        assert p_ab.shape == ()
        assert p_ab.item() == p_ba.item()
        assert 0.0 < p_ab.item() < 1.0


class TestPositionalWalk:
    """Layer i's weight and bias are ``tensors[2*i]`` and ``tensors[2*i + 1]``."""

    # two hidden head layers, and stages of different widths and depths
    SPEC = NetworkSpec((1, 8, 8), ((2, 1), (3, 2)), fc=(6, 5), head=(4, 3, 1))

    @staticmethod
    def reference(spec, params, x_a, x_b):
        """Plain-numpy siamese forward that walks ``spec.layers`` in order."""
        arrays = iter(t.data for t in params.tensors)
        layers = {"conv": [], "fc": [], "head": []}
        for layer in spec.layers:
            layers[layer.kind].append((next(arrays), next(arrays)))

        def conv3x3(x, w, b):
            c, h, wd = x.shape
            xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
            return np.stack([b[o] + sum(w[o, ci, dy, dx] * xp[ci, dy:dy + h, dx:dx + wd]
                                        for ci in range(c) for dy in range(3) for dx in range(3))
                             for o in range(len(b))])

        def embed(x):
            convs = iter(layers["conv"])
            for _, n_convs in spec.stages:
                for _ in range(n_convs):
                    x = np.maximum(conv3x3(x, *next(convs)), 0.0)
                c, h, wd = x.shape
                x = x.reshape(c, h // 2, 2, wd // 2, 2).max(axis=(2, 4))
            x = x.reshape(-1)
            for w, b in layers["fc"]:
                x = np.maximum(w @ x + b, 0.0)
            return x

        emb_a, emb_b = embed(x_a), embed(x_b)
        h = np.abs(emb_a - emb_b)
        for w, b in layers["head"][:-1]:
            h = np.maximum(w @ h + b, 0.0)
        w, b = layers["head"][-1]
        return emb_a, emb_b, 1.0 / (1.0 + np.exp(-(w @ h + b)[0]))

    def test_forward_matches_numpy_reference(self):
        params = build_network(self.SPEC, seed=3)
        x_a, x_b = rand_input(1, self.SPEC), rand_input(2, self.SPEC)
        want = self.reference(self.SPEC, params, x_a.data, x_b.data)
        emb_a, emb_b = forward_embedding(params, x_a), forward_embedding(params, x_b)
        got = emb_a.data, emb_b.data, forward_head(params, emb_a, emb_b).item()
        assert want[2] != 0.5 and np.any(want[0] != want[1])  # the walk reaches every layer
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_grad_check_over_every_tensor(self):
        params = build_network(self.SPEC, seed=3)
        batch = [(rand_input(2 * k, self.SPEC), rand_input(2 * k + 1, self.SPEC), y)
                 for k, y in enumerate((1, 0))]

        def loss_fn(g):
            return pair_batch_loss(params, batch, LossConfig(), g).total_node

        assert grad_check(loss_fn, params.tensors, eps=1e-5).max_relative_error < 1e-4


def test_untaped_embedding_peak_is_bounded_by_the_band_budget():
    # conv1_2's whole-layer columns (64*9 x 64*64 float64, 18.9 MB) exceed the budget
    spec = NetworkSpec(input_shape=(3, 64, 64), stages=((64, 2),), fc=(8, 4), head=(1,))
    tracemalloc.start()
    try:
        params = build_network(spec, seed=0)
        x = rand_input(0, spec)
        forward_embedding(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    param_bytes = sum(t.data.nbytes for t in params.tensors)
    largest_activation = 64 * 64 * 64 * 8
    assert peak < param_bytes + 4 * largest_activation + ops._COLS_BYTES


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = freeze_prefix(build_network(TINY, seed=3), 1)
        path = tmp_path / "net.dgnet"
        save_params(params, path)
        again = load_params(path, expect_spec=TINY)
        assert again.spec == TINY
        assert again.freeze == params.freeze
        assert again.seed == 3
        for t1, t2 in zip(params.tensors, again.tensors):
            assert np.array_equal(t1.data, t2.data)

    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        raw = bytearray(path.read_bytes())
        bad = tmp_path / "bad.dgnet"
        bad.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
        with pytest.raises(FormatError):
            load_params(bad)
        raw[7] = 9  # version field
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_params(bad)

    def test_truncated_and_trailing(self, tmp_path):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.dgnet"
        cut.write_bytes(raw[:-16])
        with pytest.raises(FormatError):
            load_params(cut)
        padded = tmp_path / "pad.dgnet"
        padded.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_params(padded)

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: raw[:5], "bad checkpoint magic"),
        (lambda raw: raw[:11], "truncated checkpoint header"),
        (lambda raw: raw[:40], "corrupt checkpoint header"),
        (lambda raw: raw[:400], "truncated checkpoint payload"),
        (lambda raw: raw[:-2000], "truncated checkpoint payload"),
        (lambda raw: raw[:-16], "truncated checkpoint payload"),
        (lambda raw: raw + bytes(8), "trailing bytes in checkpoint"),
    ], ids=["magic", "version", "header", "first-tensor", "mid-payload", "last-tensor",
            "trailing"])
    def test_truncated_and_trailing_messages(self, tmp_path, edit, message):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=f"^{message}$"):
            load_params(path)

    def test_header_length_past_the_end_is_a_corrupt_header(self, tmp_path):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[11:15] = (2 ** 32 - 1).to_bytes(4, "little")  # header length field
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="corrupt checkpoint header"):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(raw)  # bytes the file holds, not the 4 GiB its header claims

    def test_checkpoint_io_keeps_no_second_copy(self, tmp_path):
        # fc1 is 16384 x 512 float64: 64 MiB
        spec = NetworkSpec(input_shape=(1, 64, 64), stages=((16, 1),), fc=(512, 8), head=(4, 1))
        params = build_network(spec, seed=0)
        path = tmp_path / "big.dgnet"
        tracemalloc.start()
        try:
            save_params(params, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            del params
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            again = load_params(path, expect_spec=spec)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        result = sum(t.data.nbytes for t in again.tensors)
        assert result >= 64 * 2 ** 20
        assert save_peak < 2 ** 20
        assert load_peak <= result + 2 ** 20, (load_peak, result)

    def test_failed_save_keeps_old_file(self, tmp_path):
        class Unreadable:
            @property
            def data(self):
                raise OSError("simulated write failure")

        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        before = path.read_bytes()
        params = build_network(TINY, seed=1)
        params.tensors[3] = Unreadable()  # fails after the header and three tensors
        with pytest.raises(OSError, match="simulated"):
            save_params(params, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.dgnet"]

    def test_spec_mismatch(self, tmp_path):
        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        other = NetworkSpec((1, 32, 32), ((4, 1),), (16, 8), (1,), name="other")
        with pytest.raises(FormatError):
            load_params(path, expect_spec=other)

    def test_header_fingerprint_guard(self, tmp_path):
        import json
        import struct

        path = tmp_path / "net.dgnet"
        save_params(build_network(TINY, seed=0), path)
        raw = path.read_bytes()
        blob_len = struct.unpack_from("<II", raw, 7)[1]
        header = json.loads(raw[15:15 + blob_len])
        header["fingerprint"] = "0" * 64
        blob = json.dumps(header, sort_keys=True).encode()
        tampered = tmp_path / "t.dgnet"
        tampered.write_bytes(raw[:7] + struct.pack("<II", 1, len(blob))
                             + blob + raw[15 + blob_len:])
        with pytest.raises(FormatError):
            load_params(tampered)


def _with_header(tmp_path, mutate):
    """Save a tiny network, apply ``mutate`` to its JSON header, return the path."""
    import json
    import struct

    path = tmp_path / "net.dgnet"
    save_params(build_network(TINY, seed=0), path)
    raw = path.read_bytes()
    blob_len = struct.unpack_from("<II", raw, 7)[1]
    header = mutate(json.loads(raw[15:15 + blob_len]))
    blob = json.dumps(header, sort_keys=True).encode()
    out = tmp_path / "mutated.dgnet"
    out.write_bytes(raw[:7] + struct.pack("<II", 1, len(blob)) + blob + raw[15 + blob_len:])
    return out


class TestCheckpointHeader:
    @pytest.mark.parametrize("mutate", [
        lambda h: {k: v for k, v in h.items() if k != "spec"},
        lambda h: {k: v for k, v in h.items() if k != "fingerprint"},
        lambda h: {**h, "spec": [1, 2]}, lambda h: {**h, "spec": "tiny"},
        lambda h: {**h, "spec": {"name": "tiny"}}, lambda h: [h],
        lambda h: {**h, "seed": {"x": [1]}}, lambda h: {**h, "seed": "7"},
        lambda h: {**h, "seed": True}, lambda h: {**h, "seed": 1.5},
        lambda h: {**h, "seed": None},
    ], ids=["no-spec", "no-fingerprint", "spec-list", "spec-string", "spec-incomplete",
            "header-list", "seed-object", "seed-string", "seed-bool", "seed-float",
            "seed-null"])
    def test_malformed_header_is_format_error(self, tmp_path, mutate):
        with pytest.raises(FormatError):
            load_params(_with_header(tmp_path, mutate))

    @pytest.mark.parametrize("mask", [
        [True], [], [False] * 15, [False] * 17, [0] * 16, ["false"] * 16, None, "none",
        {"0": True},
    ], ids=["one-entry", "empty", "short", "long", "ints", "strings", "null", "string",
            "object"])
    def test_bad_freeze_mask_is_format_error(self, tmp_path, mask):
        with pytest.raises(FormatError):
            load_params(_with_header(tmp_path, lambda h: {**h, "freeze": mask}))

    def test_missing_freeze_means_unfrozen(self, tmp_path):
        params = load_params(_with_header(
            tmp_path, lambda h: {k: v for k, v in h.items() if k != "freeze"}), expect_spec=TINY)
        assert params.freeze == [False] * len(params.tensors)

    def test_missing_seed_means_zero(self, tmp_path):
        params = load_params(_with_header(
            tmp_path, lambda h: {k: v for k, v in h.items() if k != "seed"}), expect_spec=TINY)
        assert params.seed == 0

    @pytest.mark.parametrize("stages,input_shape,table", [
        ([[8, "2"]], [1, 32, 32], True), ([[8, 2.5]], [1, 32, 32], True),
        ([[8]], [1, 32, 32], True), ([[-8, 2]], [1, 32, 32], True), ([[8, 0]], [1, 32, 32], True),
        # 2**33 * 2**31 * 3 * 3 elements wrap to 0 in int64
        ([[2 ** 33, 1]], [2 ** 31, 2, 2], True),
        # 2**40 conv layers: rejected from the payload size, not by listing them
        ([[8, 2 ** 40]], [1, 32, 32], False),
    ], ids=["string", "float", "short", "negative", "zero", "int64-wrap", "huge-layer-count"])
    def test_malformed_topology_is_format_error(self, tmp_path, monkeypatch, stages,
                                                input_shape, table):
        def mutate(h):
            spec = {**h["spec"], "stages": stages, "input_shape": input_shape}
            blob = json.dumps(spec, sort_keys=True).encode()
            return {**h, "spec": spec, "fingerprint": hashlib.sha256(blob).hexdigest()}

        def unbuilt(spec):
            raise AssertionError(f"layer table of {spec.weighted_layer_count} rows built")

        path = _with_header(tmp_path, mutate)
        if not table:  # the payload bound must come first: the table would exhaust memory
            monkeypatch.setattr(NetworkSpec, "layers", property(unbuilt))
        with pytest.raises(FormatError):
            load_params(path)

    def test_deeply_nested_header_is_format_error(self, tmp_path):
        import struct

        blob = b"[" * 100000
        path = tmp_path / "deep.dgnet"
        path.write_bytes(b"DGNETv1" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(FormatError):
            load_params(path)

    @pytest.mark.parametrize("spec,name", [
        ({**TINY.to_dict(), "extra": [1]}, "tiny"),
        ({k: v for k, v in TINY.to_dict().items() if k != "name"}, "custom"),
    ], ids=["unknown-key", "missing-name"])
    def test_unknown_key_is_ignored_and_missing_name_is_custom(self, tmp_path, spec, name):
        # the fingerprint is the loaded spec's own: the extra key is not in it
        expect = replace(TINY, name=name)
        params = load_params(_with_header(
            tmp_path, lambda h: {**h, "spec": spec, "fingerprint": expect.fingerprint()}))
        assert params.spec == expect

    @pytest.mark.parametrize("field", ["input_shape", "stages", "fc", "head", "stage-entry"])
    @pytest.mark.parametrize("value", ["abc", 3, {"a": 1, "b": 2, "c": 3}, None],
                             ids=["string", "int", "object", "null"])
    def test_field_that_is_no_list_is_format_error(self, tmp_path, field, value):
        def mutate(h):
            spec = ({**h["spec"], "stages": [value, [16, 2]]} if field == "stage-entry"
                    else {**h["spec"], field: value})
            blob = json.dumps(spec, sort_keys=True).encode()
            return {**h, "spec": spec, "fingerprint": hashlib.sha256(blob).hexdigest()}

        with pytest.raises(FormatError, match="^malformed spec in checkpoint header: "):
            load_params(_with_header(tmp_path, mutate))

    @pytest.mark.parametrize("name", [5, None, True, {"a": 1}],
                             ids=["int", "null", "bool", "object"])
    def test_name_that_is_no_string_is_format_error(self, tmp_path, name):
        def mutate(h):  # the fingerprint recomputed, so only the name check can refuse it
            spec = {**h["spec"], "name": name}
            blob = json.dumps(spec, sort_keys=True).encode()
            return {**h, "spec": spec, "fingerprint": hashlib.sha256(blob).hexdigest()}

        with pytest.raises(FormatError, match="^malformed spec in checkpoint header: spec name "):
            load_params(_with_header(tmp_path, mutate))

    def test_valid_mask_loads(self, tmp_path):
        mask = [True] * 2 + [False] * 14
        params = load_params(_with_header(tmp_path, lambda h: {**h, "freeze": mask}))
        assert params.freeze == mask
