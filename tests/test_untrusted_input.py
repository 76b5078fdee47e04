"""Untrusted input raises only the package's own typed errors.

Manifests, PNM/``.f64`` images and ``.dgnet`` checkpoints come from outside
the program. Whatever their bytes, reading them either succeeds or raises
``ManifestError``, ``FormatError`` or ``DomainError``.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siamverify import NetworkSpec, build_network, load_params, parse_manifest, save_params
from siamverify.errors import DomainError, FormatError, ManifestError
from imagefiles import write_f64, write_pgm, write_ppm
from siamverify.images import read_image

TYPED = (ManifestError, FormatError, DomainError)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
SMALL = NetworkSpec((1, 4, 4), ((2, 1),), (4, 2), (1,), name="small")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

# records that get past the first checks more often than arbitrary JSON does
record_like = st.fixed_dictionaries(
    {"identity": json_values | st.sampled_from(["id01", "id02"]),
     "path": json_values | st.just("a.pgm"),
     "kind": json_values | st.sampled_from(["genuine", "disguised", "impostor"])},
    optional={"source": json_values | st.sampled_from(["dfw", "web"]),
              "split": json_values | st.sampled_from(["train", "val", "test"]),
              "bbox": json_values | st.just([0, 0, 2, 2])})

# (position, byte) overwrites, then an optional cut
mutations = st.tuples(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                               max_size=6),
                      st.none() | st.integers(0, 10 ** 6))


def mutate(raw: bytes, mutation) -> bytes:
    overwrites, cut = mutation
    buf = bytearray(raw)
    for pos, value in overwrites:
        buf[pos % len(buf)] = value
    return bytes(buf[:cut] if cut is not None else buf)


@pytest.fixture(scope="module")
def image_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("images")
    rng = np.random.default_rng(0)
    out = {}
    for name, write, shape in (("a.pgm", write_pgm, (1, 3, 4)), ("a.ppm", write_ppm, (3, 2, 3)),
                               ("a.f64", write_f64, (2, 2, 3))):
        write(root / name, rng.random(shape))
        out[name] = (root / name).read_bytes()
    return out


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.dgnet"
    save_params(build_network(SMALL, seed=0), path)
    return path.read_bytes()


@FUZZ
@given(lines=st.lists(st.one_of(json_values, record_like).map(lambda v: json.dumps(v).encode())
                      | st.binary(max_size=24), min_size=1, max_size=5))
def test_parse_manifest_on_json_and_byte_lines(tmp_path, lines):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    try:
        records = parse_manifest(path)
    except ManifestError:
        return
    assert all(isinstance(r.identity, str) and isinstance(r.path, str) for r in records)


@FUZZ
@given(name=st.sampled_from(["a.pgm", "a.ppm", "a.f64"]), mutation=mutations)
def test_read_image_on_mutated_bytes(tmp_path, image_bytes, name, mutation):
    path = tmp_path / name
    path.write_bytes(mutate(image_bytes[name], mutation))
    try:
        img = read_image(path)
    except TYPED:
        return
    assert img.ndim == 3 and img.dtype == np.float64


@FUZZ
@given(mutation=mutations)
def test_load_params_on_mutated_bytes(tmp_path, checkpoint_bytes, mutation):
    path = tmp_path / "m.dgnet"
    path.write_bytes(mutate(checkpoint_bytes, mutation))
    try:
        load_params(path)
    except TYPED:
        pass


sizes = st.integers(-2, 8) | st.integers(2 ** 30, 2 ** 66) | json_values


def near(valid: list):
    """``valid``, with one entry or the whole list replaced by a generated value."""
    one_entry = st.tuples(st.integers(0, len(valid) - 1), sizes).map(
        lambda iv: valid[:iv[0]] + [iv[1]] + valid[iv[0] + 1:])
    return st.just(valid) | one_entry | st.lists(sizes, max_size=4) | json_values


def one_field_changed(base: dict):
    """``base`` with one of its fields replaced by a near-valid or arbitrary value."""
    variants = {"input_shape": near(base["input_shape"]), "fc": near(base["fc"]),
                "head": near(base["head"]), "name": json_values,
                "stages": st.lists(near(base["stages"][0]), max_size=3) | json_values}
    return st.sampled_from(sorted(variants)).flatmap(
        lambda key: variants[key].map(lambda value: {**base, key: value}))


@FUZZ
@given(spec=one_field_changed(json.loads(json.dumps(SMALL.to_dict()))),
       payload=st.binary(max_size=512))
def test_load_params_on_generated_specs(tmp_path, checkpoint_bytes, spec, payload):
    """A spec whose fingerprint matches reaches every check after the fingerprint."""
    fingerprint = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    blob = json.dumps({"spec": spec, "fingerprint": fingerprint}, sort_keys=True).encode()
    path = tmp_path / "g.dgnet"
    path.write_bytes(checkpoint_bytes[:7] + struct.pack("<II", 1, len(blob)) + blob + payload)
    try:
        load_params(path)
    except TYPED:
        pass
