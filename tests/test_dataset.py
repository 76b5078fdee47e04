"""Manifest parsing, image loading, pair protocols, augmentation."""

import json
import re
import struct
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from siamverify import (AugmentConfig, ImageRecord, augment, generate_pairs,
                        load_image, merge_weak_labels, parse_manifest)
from siamverify import dataset, images
from siamverify.dataset import (PairRecord, distinct_images, export_pairs_csv, load_images,
                               pair_rng, PAIR_CSV_HEADER)
from siamverify.errors import ConfigError, DomainError, FormatError, ManifestError
from imagefiles import write_f64, write_pgm, write_ppm
from siamverify.tensor import Tensor


def rec(identity="id01", path="a.pgm", kind="genuine", **kw):
    return ImageRecord(identity=identity, path=path, kind=kind, **kw)


def write_manifest(path, rows):
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return path


GOOD_ROW = {"identity": "id01", "path": "a.pgm", "kind": "genuine"}


class TestParseManifest:
    def test_basic(self, tmp_path):
        p = write_manifest(tmp_path / "m.jsonl", [
            GOOD_ROW,
            {"identity": "id01", "path": "b.pgm", "kind": "disguised",
             "source": "dfw", "split": "val", "bbox": [1, 2, 8, 8]},
        ])
        records = parse_manifest(p)
        assert len(records) == 2
        assert records[0] == ImageRecord("id01", "a.pgm", "genuine")
        assert records[1].bbox == (1, 2, 8, 8)
        assert records[1].split == "val"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(GOOD_ROW) + "\n\n\n")
        assert len(parse_manifest(p)) == 1

    @pytest.mark.parametrize("row,needle", [
        ({"identity": "x", "kind": "genuine"}, "path"),
        ({"identity": "x", "path": "a", "kind": "wig"}, "kind"),
        ({"identity": "x", "path": "a", "kind": "genuine", "source": "tv"}, "source"),
        ({"identity": "x", "path": "a", "kind": "genuine", "split": "dev"}, "split"),
        ({"identity": "x", "path": "a", "kind": "disguised", "source": "web"}, "web"),
        ({"identity": "x", "path": "a", "kind": "genuine", "bbox": [1, 2, 3]}, "bbox"),
        ({"identity": "x", "path": "a", "kind": "genuine", "bbox": [1, -2, 3, 4]}, "bbox"),
        ({"identity": "x", "path": "a", "kind": "genuine", "bbox": [True, 0, 2, 2]}, "bbox"),
        ({"identity": "x", "path": "a", "kind": "genuine", "bbox": [0, 0, 2, False]}, "bbox"),
    ])
    def test_bad_rows(self, tmp_path, row, needle):
        p = write_manifest(tmp_path / "m.jsonl", [GOOD_ROW, row])
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest(p)

    def test_invalid_json_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(GOOD_ROW) + "\n{oops\n")
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest(p)

    @pytest.mark.parametrize("line", [
        "123", "null", '"identity path kind"', '["id01", "a.pgm", "genuine"]',
        '{"identity": ["id01"], "path": "a.pgm", "kind": "genuine"}',
        '{"identity": "id01", "path": ["a.pgm"], "kind": "genuine"}',
        '{"identity": 7, "path": "a.pgm", "kind": "genuine"}',
        '{"identity": "id01", "path": null, "kind": "genuine"}',
    ], ids=["int", "null", "string", "list", "identity-list", "path-list", "identity-int",
            "path-null"])
    def test_non_object_or_non_string_key_fields(self, tmp_path, line):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(GOOD_ROW) + "\n" + line + "\n")
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest(p)

    @pytest.mark.parametrize("raw", [b'{"identity": "id\xff", "path": "b", "kind": "genuine"}',
                                     b"[" * 100000], ids=["not-utf8", "deeply-nested"])
    def test_undecodable_line_number(self, tmp_path, raw):
        p = tmp_path / "m.jsonl"
        p.write_bytes(json.dumps(GOOD_ROW).encode() + b"\n" + raw + b"\n")
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest(p)

    def test_duplicate_identity_path(self, tmp_path):
        p = write_manifest(tmp_path / "m.jsonl", [GOOD_ROW, GOOD_ROW])
        with pytest.raises(ManifestError, match="duplicate"):
            parse_manifest(p)


class TestLoadImage:
    def test_pgm_scaling(self, tmp_path):
        img = np.array([[[0, 128], [255, 64]]], dtype=float) / 255.0
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        out = load_image(rec(path=str(path)), (1, 2, 2))
        assert out.shape == (1, 2, 2)
        assert np.allclose(out.data, img, atol=1 / 255)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_f64_roundtrip_exact(self, tmp_path):
        img = np.random.default_rng(0).random((1, 4, 4))
        path = tmp_path / "a.f64"
        write_f64(path, img)
        out = load_image(rec(path=str(path)), (1, 4, 4))
        assert np.array_equal(out.data, img)  # same size: resize is identity

    def test_bbox_crop(self, tmp_path):
        img = np.zeros((1, 8, 8))
        img[0, 2:6, 3:7] = 1.0
        path = tmp_path / "a.f64"
        write_f64(path, img)
        out = load_image(rec(path=str(path), bbox=(3, 2, 4, 4)), (1, 4, 4))
        assert np.array_equal(out.data, np.ones((1, 4, 4)))

    def test_bbox_out_of_bounds(self, tmp_path):
        path = tmp_path / "a.f64"
        write_f64(path, np.zeros((1, 8, 8)))
        with pytest.raises(DomainError):
            load_image(rec(path=str(path), bbox=(6, 6, 4, 4)), (1, 4, 4))

    def test_rgb_to_gray_mean(self, tmp_path):
        img = np.stack([np.full((2, 2), v) for v in (0.3, 0.6, 0.9)])
        path = tmp_path / "a.f64"
        write_f64(path, img)
        out = load_image(rec(path=str(path)), (1, 2, 2))
        assert np.allclose(out.data, 0.6)

    def test_gray_to_rgb_repeat(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.full((1, 2, 2), 0.5))
        out = load_image(rec(path=str(path)), (3, 2, 2))
        assert out.shape == (3, 2, 2)
        assert np.array_equal(out.data[0], out.data[2])

    def test_ppm_reads_three_channels(self, tmp_path):
        img = np.random.default_rng(1).random((3, 4, 4))
        path = tmp_path / "a.ppm"
        write_ppm(path, img)
        out = load_image(rec(path=str(path)), (3, 4, 4))
        assert np.allclose(out.data, img, atol=1 / 255)

    @pytest.mark.parametrize("dims", [b"-1 -1", b"-2 -3", b"0 4", b"4 0", b"0 0", b"-4 -1"])
    def test_pnm_nonpositive_dimensions(self, tmp_path, dims):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(16))
        with pytest.raises(FormatError, match="positive"):
            load_image(rec(path=str(path)), (1, 4, 4))

    def test_pnm_comment_after_magic_is_no_field(self, tmp_path):
        # P5 then a comment: a gray image, read from the first 4 of 12 payload bytes
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5#note\n2 2\n255\n" + bytes(range(12)))
        out = load_image(rec(path=str(path)), (1, 2, 2))
        assert out.data.tobytes() == (np.arange(4.0).reshape(1, 2, 2) / 255.0).tobytes()

    @pytest.mark.parametrize("magic", [b"P5x", b"P55", b"P6P6"])
    def test_pnm_magic_is_p5_or_p6_alone(self, tmp_path, magic):
        path = tmp_path / "a.ppm"
        path.write_bytes(magic + b" 2 2 255\n" + bytes(12))
        with pytest.raises(FormatError, match="PNM header"):
            load_image(rec(path=str(path)), (3, 2, 2))

    @pytest.mark.parametrize("chw", [(0, 4, 4), (1, 0, 4), (1, 4, 0), (0, 0, 0)])
    def test_f64_zero_dimensions(self, tmp_path, chw):
        path = tmp_path / "a.f64"
        path.write_bytes(struct.pack("<III", *chw))
        with pytest.raises(FormatError, match="positive"):
            load_image(rec(path=str(path)), (1, 4, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_f64_non_finite_pixel_names_the_file(self, tmp_path, bad):
        img = np.zeros((1, 4, 4))
        img[0, 2, 1] = bad
        path = tmp_path / "a.f64"
        write_f64(path, img)
        with pytest.raises(FormatError, match="non-finite.*a.f64"):
            load_image(rec(path=str(path)), (1, 4, 4))


class TestLoadImages:
    def mixed_records(self, tmp_path):
        """Two source sizes, a bbox crop, an RGB image, a ``.f64`` image and one
        already at 24x24, with runs of one shape both next to each other and apart."""
        rng = np.random.default_rng(8)
        files = {"a.pgm": (1, 40, 36), "b.pgm": (1, 40, 36), "c.pgm": (1, 32, 32),
                 "rgb.ppm": (3, 32, 32), "d.f64": (1, 30, 30), "e.pgm": (1, 24, 24)}
        for name, shape in files.items():
            write = {".pgm": write_pgm, ".ppm": write_ppm, ".f64": write_f64}[name[-4:]]
            write(tmp_path / name, rng.random(shape))
        path = {name: str(tmp_path / name) for name in files}
        return [rec(path=path["a.pgm"]), rec(path=path["b.pgm"]), rec(path=path["c.pgm"]),
                rec(path=path["c.pgm"], bbox=(2, 1, 28, 30)), rec(path=path["rgb.ppm"]),
                rec(path=path["d.f64"]), rec(path=path["e.pgm"]), rec(path=path["e.pgm"]),
                rec(path=path["a.pgm"])]

    @staticmethod
    def one_by_one(r, target):
        """Each image read, cropped, adapted and resized alone."""
        img = images.read_image(r.path)
        if r.bbox is not None:
            x, y, w, h = r.bbox
            img = img[:, y:y + h, x:x + w]
        if img.shape[0] != target[0]:
            img = (img.mean(axis=0, keepdims=True) if target[0] == 1
                   else np.repeat(img, target[0], axis=0))
        return images.bilinear_resize(img, *target[1:])

    @pytest.mark.parametrize("target", [(1, 24, 24), (3, 24, 24)])
    def test_equals_each_record_loaded_alone(self, tmp_path, target):
        records = self.mixed_records(tmp_path)
        out = load_images(records, target)
        assert out.shape == (len(records),) + target
        for r, img in zip(records, out):
            assert img.tobytes() == load_image(r, target).data.tobytes()
            assert img.tobytes() == self.one_by_one(r, target).tobytes()

    def test_one_resize_per_run_of_one_shape(self, tmp_path, monkeypatch):
        resized = []
        real = images.bilinear_resize

        def recording(img, out_h, out_w):
            resized.append(img.shape)
            return real(img, out_h, out_w)

        monkeypatch.setattr(images, "bilinear_resize", recording)
        load_images(self.mixed_records(tmp_path), (1, 24, 24))
        assert resized == [(2, 40, 36), (1, 32, 32), (1, 30, 28), (1, 32, 32), (1, 30, 30),
                           (2, 24, 24), (1, 40, 36)]

    def test_no_records(self):
        assert load_images([], (3, 8, 8)).shape == (0, 3, 8, 8)

    def test_runs_split_at_the_budget_keep_their_bits(self, tmp_path, monkeypatch):
        # a budget of three 40x36 sources splits every run longer than that
        records = self.mixed_records(tmp_path) * 3
        monkeypatch.setattr(dataset, "_RUN_BYTES", 3 * 8 * 40 * 36)
        out = load_images(records, (1, 24, 24))
        for r, img in zip(records, out):
            assert img.tobytes() == load_image(r, (1, 24, 24)).data.tobytes()

    def test_a_run_holds_each_source_once(self, tmp_path):
        # 48 same-shape sources: the peak holds one copy of them, the output and
        # the resize's three output-sized arrays, and a few images' worth of
        # reading, not a second copy of the sources
        n, shape, target = 48, (1, 64, 64), (1, 16, 16)
        rng = np.random.default_rng(3)
        for i in range(n):
            write_f64(tmp_path / f"{i}.f64", rng.random(shape))
        records = [rec(path=str(tmp_path / f"{i}.f64")) for i in range(n)]
        load_images(records[:1], target)  # the resize taps, memoised
        tracemalloc.start()
        try:
            out = load_images(records, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        source = 8 * np.prod(shape)
        assert peak < n * source + 4 * out.nbytes + 8 * source


class TestDistinctImages:
    def test_first_appearance_order_and_rows(self):
        whole = rec(path="a.pgm")
        crop = rec(path="a.pgm", kind="disguised", bbox=(1, 2, 3, 4))
        other = rec(path="b.pgm", kind="impostor")
        web_twin = rec(identity="id02", path="a.pgm", source="web")  # whole's file and crop
        pairs = [PairRecord(a, b, y, "overall") for a, b, y in [
            (other, crop, 0), (crop, whole, 1), (web_twin, other, 0), (whole, web_twin, 1),
            (crop, crop, 1)]]
        records, rows = distinct_images(pairs)
        assert records == [other, crop, whole]
        assert rows.tolist() == [[0, 1], [1, 2], [2, 0], [2, 2], [1, 1]]
        for pair, (ra, rb) in zip(pairs, rows):
            assert (records[ra].path, records[ra].bbox) == (pair.a.path, pair.a.bbox)
            assert (records[rb].path, records[rb].bbox) == (pair.b.path, pair.b.bbox)

    def test_no_pairs(self):
        records, rows = distinct_images([])
        assert records == [] and rows.shape == (0, 2)


class TestMergeWeakLabels:
    def test_reflags_web_records(self):
        dfw = [rec(), rec(path="b.pgm", kind="disguised")]
        web = [ImageRecord("id01", "w1.pgm", "genuine", source="dfw")]
        merged = merge_weak_labels(dfw, web)
        assert len(merged) == 3
        assert merged[2].source == "web" and merged[2].kind == "genuine"
        assert merged[:2] == dfw

    def test_unknown_identities_listed(self):
        with pytest.raises(ConfigError, match="id98, id99"):
            merge_weak_labels([rec()], [ImageRecord("id99", "w", "genuine"),
                                        ImageRecord("id98", "v", "genuine")])

    def test_repeated_identity_path_listed(self):
        # a web record of a curated image would give that image a second label
        dfw = [rec(), rec(path="b.pgm"), rec(identity="id02", path="b.pgm")]
        web = [rec(path="b.pgm", bbox=(0, 0, 4, 4)), rec(path="a.pgm"), rec(path="w.pgm")]
        with pytest.raises(ConfigError, match=r"\('id01', 'a.pgm'\), \('id01', 'b.pgm'\)$"):
            merge_weak_labels(dfw, web)

    def test_web_records_not_genuine_listed(self):
        # relabelled as genuine, an impostor would train as a positive of its identity
        web = [ImageRecord("id01", "x.pgm", "impostor"), ImageRecord("id01", "w.pgm", "genuine"),
               ImageRecord("id01", "d.pgm", "disguised", source="web")]
        with pytest.raises(ConfigError, match=r"\('id01', 'd.pgm'\), \('id01', 'x.pgm'\)$"):
            merge_weak_labels([rec()], web)


def brute_force_pairs(records, protocol):
    """Independent enumeration over unordered pairs."""
    out = []
    for a, b in combinations(records, 2):
        if a.identity != b.identity:
            continue
        a, b = sorted((a, b), key=lambda r: r.path)
        kinds = (a.kind, b.kind)
        if protocol == "impersonation":
            if kinds in (("genuine", "impostor"), ("impostor", "genuine")):
                out.append((a.path, b.path, 0))
        elif protocol == "obfuscation":
            if kinds in (("genuine", "disguised"), ("disguised", "genuine")):
                out.append((a.path, b.path, 1))
        else:
            if kinds == ("impostor", "impostor"):
                continue
            y = 0 if "impostor" in kinds else 1
            out.append((a.path, b.path, y))
    return sorted(out)


class TestGeneratePairs:
    RECORDS = [rec(path="g1"), rec(path="g2"),
               rec(path="d1", kind="disguised"), rec(path="d2", kind="disguised"),
               rec(path="m1", kind="impostor")]

    def test_worked_example_counts(self):
        # 2 genuine, 2 disguised, 1 impostor under one identity
        imp = generate_pairs(self.RECORDS, "impersonation")
        obf = generate_pairs(self.RECORDS, "obfuscation")
        ovr = generate_pairs(self.RECORDS, "overall")
        assert [(p.a.path, p.b.path, p.y) for p in imp] == [("g1", "m1", 0), ("g2", "m1", 0)]
        assert {(p.a.path, p.b.path) for p in obf} == {("g1", "d1"), ("g1", "d2"),
                                                       ("g2", "d1"), ("g2", "d2")}
        assert all(p.y == 1 for p in obf)
        # C(4,2)=6 same-person pairs + 4 (true, impostor) pairs
        assert len(ovr) == 10
        assert sum(p.y for p in ovr) == 6

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            generate_pairs(self.RECORDS, "verification")

    def test_no_cross_identity_pairs(self):
        records = self.RECORDS + [rec(identity="id02", path="x1"),
                                  rec(identity="id02", path="x2", kind="impostor")]
        for protocol in ("impersonation", "obfuscation", "overall"):
            for p in generate_pairs(records, protocol):
                assert p.a.identity == p.b.identity

    @pytest.mark.parametrize("protocol", ["impersonation", "obfuscation", "overall"])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, protocol, seed):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(int(rng.integers(1, 11))):
            for j in range(int(rng.integers(0, 7))):
                kind = ("genuine", "disguised", "impostor")[int(rng.integers(0, 3))]
                records.append(rec(identity=f"id{i:02d}", path=f"p{i:02d}_{j}", kind=kind))
        got = sorted((min(p.a.path, p.b.path), max(p.a.path, p.b.path), p.y)
                     for p in generate_pairs(records, protocol))
        assert got == brute_force_pairs(records, protocol)

    def test_determinism(self):
        records = [rec(path=f"g{i}") for i in range(6)] + \
                  [rec(path=f"d{i}", kind="disguised") for i in range(4)]
        full = generate_pairs(records, "overall")
        assert generate_pairs(records, "overall") == full

    def test_csv_export(self, tmp_path):
        path = tmp_path / "pairs.csv"
        export_pairs_csv(generate_pairs(self.RECORDS, "obfuscation"), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(PAIR_CSV_HEADER)
        assert lines[1] == "id01,g1,d1,1,obfuscation"
        assert len(lines) == 5


class TestAugment:
    IMG = Tensor(np.random.default_rng(0).random((1, 16, 16)))

    def test_disabled_is_identity(self):
        cfg = AugmentConfig(gaussian_sigma=0.0, flip_prob=0.0,
                            max_rotation_deg=0.0, max_translate_px=0)
        out = augment(self.IMG, cfg, np.random.default_rng(0))
        assert np.array_equal(out.data, self.IMG.data)

    def test_flip_involution(self):
        cfg = AugmentConfig(gaussian_sigma=0.0, flip_prob=1.0,
                            max_rotation_deg=0.0, max_translate_px=0)
        once = augment(self.IMG, cfg, np.random.default_rng(0))
        twice = augment(once, cfg, np.random.default_rng(1))
        assert np.array_equal(once.data, self.IMG.data[:, :, ::-1])
        assert np.array_equal(twice.data, self.IMG.data)

    def test_translate_moves_content(self):
        img = np.zeros((1, 8, 8))
        img[0, 4, 4] = 1.0
        cfg = AugmentConfig(gaussian_sigma=0.0, flip_prob=0.0,
                            max_rotation_deg=0.0, max_translate_px=2)
        out = augment(Tensor(img), cfg, np.random.default_rng(7))
        assert out.data.sum() in (0.0, 1.0)  # shifted or pushed off the edge

    @pytest.mark.parametrize("seed", range(10))
    def test_shape_and_range_preserved(self, seed):
        cfg = AugmentConfig()
        out = augment(self.IMG, cfg, np.random.default_rng(seed))
        assert out.shape == self.IMG.shape
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_deterministic_per_stream(self):
        cfg = AugmentConfig()
        a = augment(self.IMG, cfg, pair_rng(0, 3, 17))
        b = augment(self.IMG, cfg, pair_rng(0, 3, 17))
        c = augment(self.IMG, cfg, pair_rng(0, 3, 18))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            AugmentConfig(gaussian_sigma=-0.1)
        with pytest.raises(ConfigError):
            AugmentConfig(flip_prob=1.5)

    # augment draws the shift with rng.integers, which takes int64 bounds only
    @pytest.mark.parametrize("value", [2.5, 2.0, True, pytest.param(2 ** 63, id="2**63"),
                                       pytest.param(2 ** 64, id="2**64")])
    def test_translate_must_be_an_int(self, value):
        with pytest.raises(ConfigError, match="max_translate_px must be an int"):
            AugmentConfig(max_translate_px=value)
        assert AugmentConfig(max_translate_px=np.int64(2)).max_translate_px == 2

    @pytest.mark.parametrize("value", [pytest.param(2 ** 63 - 1, id="2**63-1"),
                                       pytest.param(np.int64(2 ** 63 - 1), id="int64-max"),
                                       pytest.param(np.uint64(2), id="uint64")])
    def test_any_accepted_translate_augments(self, value):
        cfg = AugmentConfig(max_translate_px=value)
        out = augment(self.IMG, cfg, pair_rng(0, 0, 0))
        assert out.data.shape == self.IMG.data.shape

    @pytest.mark.parametrize("field,value", [
        ("gaussian_sigma", "0.1"), ("flip_prob", None), ("max_rotation_deg", [10.0]),
        ("flip_prob", True), ("gaussian_sigma", np.bool_(False)), ("max_translate_px", "2")])
    def test_magnitude_that_is_no_real_number_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            AugmentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gaussian_sigma", "max_rotation_deg", "max_translate_px"])
    # 10**400 is an int past float64's largest finite value
    @pytest.mark.parametrize("value", [np.nan, np.inf, pytest.param(10 ** 400, id="10**400")])
    def test_non_finite_magnitude_rejected(self, field, value):
        span = (f"an int from 0 to {2 ** 63 - 1}" if field == "max_translate_px"
                else "a finite number >= 0")
        needle = f"{field} must be {span}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(needle)}$"):
            AugmentConfig(**{field: value})

