"""Topology, initialization, tied-weight forward, and checkpoint round trips."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from siamverify import (DEFAULT_FREEZE, NetworkSpec, Tensor, build_network,
                        forward_embedding, forward_head, freeze_prefix,
                        load_params, ops, save_params, siamese_forward)
from siamverify.errors import ConfigError, FormatError, ShapeError

TINY = NetworkSpec.tiny()


def rand_input(seed, spec=TINY):
    return Tensor(np.random.default_rng(seed).random(spec.input_shape))


class TestSpec:
    def test_tiny_counts(self):
        assert TINY.conv_layer_count == 4
        assert TINY.weighted_layer_count == 8
        assert TINY.flat_size() == 16 * 8 * 8

    def test_vggface16_counts(self):
        spec = NetworkSpec.vggface16()
        assert spec.conv_layer_count == 13
        assert spec.weighted_layer_count == 16
        assert spec.flat_size() == 512 * 7 * 7

    def test_vggface16_layer_shapes(self):
        shapes = NetworkSpec.vggface16().layer_shapes()
        assert shapes[0] == ("conv", (64, 3, 3, 3), (64,))
        assert shapes[12] == ("conv", (512, 512, 3, 3), (512,))
        assert shapes[13] == ("fc", (4096, 512 * 7 * 7), (4096,))
        assert shapes[14] == ("fc", (4096, 4096), (4096,))
        assert shapes[15] == ("head", (1, 4096), (1,))

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

    def test_dict_roundtrip_and_fingerprint(self):
        again = NetworkSpec.from_dict(TINY.to_dict())
        assert again == TINY
        assert again.fingerprint() == TINY.fingerprint()
        assert NetworkSpec.vggface16().fingerprint() != TINY.fingerprint()


class TestBuild:
    def test_tensor_count_and_shapes(self):
        params = build_network(TINY, seed=0)
        shapes = TINY.layer_shapes()
        assert len(params.tensors) == 2 * len(shapes)
        for (kind, w_shape, b_shape), (k2, w, b) in zip(shapes, params.layer_params()):
            assert kind == k2
            assert w.shape == w_shape and b.shape == b_shape
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

    def test_he_uniform_bounds(self):
        params = build_network(TINY, seed=1)
        for (_, w_shape, _), (_, w, _) in zip(TINY.layer_shapes(), params.layer_params()):
            limit = np.sqrt(6.0 / np.prod(w_shape[1:]))
            assert np.all(np.abs(w.data) <= limit)


class TestFreeze:
    def test_prefix_marks_weight_and_bias(self):
        params = freeze_prefix(build_network(TINY, seed=0), 2)
        assert params.freeze == [True] * 4 + [False] * (len(params.tensors) - 4)
        assert len(params.frozen_tensors()) == 4

    def test_k_zero(self):
        params = freeze_prefix(build_network(TINY, seed=0), 0)
        assert not any(params.freeze)

    def test_vggface_default_prefix_is_eight_tensors(self):
        spec = NetworkSpec.vggface16()
        shapes = spec.layer_shapes()
        k = DEFAULT_FREEZE["vggface16"]
        assert all(kind == "conv" for kind, _, _ in shapes[:k])
        assert 2 * k == 8

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            freeze_prefix(build_network(TINY, seed=0), 5)
        with pytest.raises(ConfigError):
            freeze_prefix(build_network(TINY, seed=0), -1)


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

    @pytest.mark.parametrize("stages,input_shape", [
        ([[8, "2"]], [1, 32, 32]), ([[8, 2.5]], [1, 32, 32]), ([[8]], [1, 32, 32]),
        ([[-8, 2]], [1, 32, 32]), ([[8, 0]], [1, 32, 32]),
        # 2**33 * 2**31 * 3 * 3 elements wrap to 0 in int64
        ([[2 ** 33, 1]], [2 ** 31, 2, 2]),
        # 2**40 conv layers: rejected from the payload size, not by listing them
        ([[8, 2 ** 40]], [1, 32, 32]),
    ], ids=["string", "float", "short", "negative", "zero", "int64-wrap", "huge-layer-count"])
    def test_malformed_topology_is_format_error(self, tmp_path, stages, input_shape):
        def mutate(h):
            spec = {**h["spec"], "stages": stages, "input_shape": input_shape}
            blob = json.dumps(spec, sort_keys=True).encode()
            return {**h, "spec": spec, "fingerprint": hashlib.sha256(blob).hexdigest()}

        with pytest.raises(FormatError):
            load_params(_with_header(tmp_path, mutate))

    def test_deeply_nested_header_is_format_error(self, tmp_path):
        import struct

        blob = b"[" * 100000
        path = tmp_path / "deep.dgnet"
        path.write_bytes(b"DGNETv1" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(FormatError):
            load_params(path)

    def test_valid_mask_loads(self, tmp_path):
        mask = [True] * 2 + [False] * 14
        params = load_params(_with_header(tmp_path, lambda h: {**h, "freeze": mask}))
        assert params.freeze == mask
