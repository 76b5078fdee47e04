"""Exact ROC/GAR sweeps checked against a brute-force threshold scan."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import fresh_process_count, glibc_mallopt
from imagefiles import write_pgm, write_ppm
from siamverify import (NetworkSpec, ScoreSet, TrainConfig, TrainLog, accuracy_at,
                        best_accuracy, build_network, gar_at_far, metrics_report,
                        roc_curve, run_ablation, score_pairs)
from siamverify import evaluator
from siamverify.dataset import ImageRecord, PairRecord
from siamverify.errors import ConfigError, DomainError

# Two score_pairs rounds over 165 pairs of 40 tiny images, in a fresh process;
# prints the minor page faults of the second round.
TWO_ROUNDS = """
import resource, sys
import numpy as np
from imagefiles import write_pgm
from siamverify import NetworkSpec, build_network, generate_pairs, score_pairs
from siamverify.dataset import ImageRecord

rng = np.random.default_rng(0)
records = []
for i in range(40):
    path = f"{sys.argv[1]}/im{i}.pgm"
    write_pgm(path, rng.random((1, 48, 48)))
    records.append(ImageRecord(f"id{i % 4}", path, ("genuine", "disguised", "impostor")[i % 3]))
pairs = generate_pairs(records, "overall")
params = build_network(NetworkSpec.tiny(), seed=0)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    score_pairs(params, pairs)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""

EXAMPLE = ScoreSet(genuine=np.array([0.9, 0.8, 0.7, 0.4]),
                   impostor=np.array([0.6, 0.3, 0.2, 0.1]))


def brute_force_gar(s: ScoreSet, far_target: float):
    """Scan every observed threshold ascending; first with FAR <= target wins."""
    best = (0.0, np.inf)
    for t in sorted(set(s.genuine) | set(s.impostor)):
        far = np.mean(s.impostor >= t)
        if far <= far_target:
            return float(np.mean(s.genuine >= t)), float(t)
    return best


def brute_force_best_acc(s: ScoreSet):
    total = s.genuine.size + s.impostor.size
    best_acc, best_t = -1.0, None
    for t in sorted(set(s.genuine) | set(s.impostor) | {np.inf}):
        acc = (np.sum(s.genuine >= t) + np.sum(s.impostor < t)) / total
        if acc > best_acc:
            best_acc, best_t = float(acc), float(t)
    return best_acc, best_t


def random_scores(seed):
    rng = np.random.default_rng(seed)
    n_g = int(rng.integers(1, 40))
    n_i = int(rng.integers(1, 40))
    # small value grid so score ties actually occur
    pool = rng.random(8)
    return ScoreSet(genuine=rng.choice(pool, n_g), impostor=rng.choice(pool, n_i))


class TestGarAtFar:
    def test_hand_example_quarter(self):
        gar, t = gar_at_far(EXAMPLE, 0.25)
        assert gar == 1.0 and t == 0.4

    def test_hand_example_fifth(self):
        # FAR 0.25 is not allowed at 0.2; next feasible threshold is 0.7
        gar, t = gar_at_far(EXAMPLE, 0.2)
        assert gar == 0.75 and t == 0.7

    def test_unreachable_target(self):
        s = ScoreSet(genuine=np.array([0.2]), impostor=np.array([0.9]))
        gar, t = gar_at_far(s, 0.5)
        assert gar == 0.0 and t == np.inf

    def test_target_one_accepts_everything(self):
        gar, t = gar_at_far(EXAMPLE, 1.0)
        assert gar == 1.0 and t == 0.1

    def test_bad_target(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                gar_at_far(EXAMPLE, bad)

    def test_empty_population(self):
        with pytest.raises(DomainError):
            gar_at_far(ScoreSet(np.array([]), np.array([0.5])), 0.1)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_brute_force(self, seed):
        s = random_scores(seed)
        for target in (0.001, 0.01, 0.1, 0.25, 0.5, 1.0):
            assert gar_at_far(s, target) == brute_force_gar(s, target)


class TestBestAccuracy:
    def test_hand_example(self):
        # 0.875 at both t=0.4 (4 genuine in, 3 impostors out) and t=0.7
        # (3 genuine in, 4 impostors out); tie resolves to the lower threshold
        acc, t = best_accuracy(EXAMPLE)
        assert acc == 0.875 and t == 0.4

    def test_perfect_separation(self):
        s = ScoreSet(genuine=np.array([0.8, 0.9]), impostor=np.array([0.1, 0.2]))
        acc, t = best_accuracy(s)
        assert acc == 1.0 and t == 0.8

    def test_majority_class_lower_bound(self):
        for seed in range(100):
            s = random_scores(seed)
            acc, _ = best_accuracy(s)
            total = s.genuine.size + s.impostor.size
            assert acc >= max(s.genuine.size, s.impostor.size) / total

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_brute_force(self, seed):
        assert best_accuracy(random_scores(seed)) == brute_force_best_acc(random_scores(seed))

    def test_accuracy_at_threshold(self):
        assert accuracy_at(EXAMPLE, 0.5) == pytest.approx(6 / 8)
        assert accuracy_at(EXAMPLE, np.inf) == 0.5  # rejects everything


class TestRocCurve:
    def test_starts_at_origin(self):
        points = roc_curve(EXAMPLE).points
        assert points[0] == (np.inf, 0.0, 0.0)
        assert points[-1] == (0.1, 1.0, 1.0)

    def test_thresholds_descend_rates_ascend(self):
        for seed in range(50):
            points = roc_curve(random_scores(seed)).points
            ts = [p[0] for p in points]
            fars = [p[1] for p in points]
            gars = [p[2] for p in points]
            assert ts == sorted(ts, reverse=True)
            assert fars == sorted(fars)
            assert gars == sorted(gars)
            assert fars[-1] == 1.0 and gars[-1] == 1.0

    def test_distinct_thresholds_only(self):
        s = ScoreSet(genuine=np.array([0.5, 0.5, 0.9]), impostor=np.array([0.5, 0.1]))
        points = roc_curve(s).points
        assert [p[0] for p in points] == [np.inf, 0.9, 0.5, 0.1]

    def test_csv_contract(self, tmp_path):
        path = tmp_path / "roc.csv"
        roc_curve(EXAMPLE).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,far,gar"
        assert lines[1].startswith("inf,0,0")
        assert len(lines) == 1 + len(roc_curve(EXAMPLE).points)


class TestInvariances:
    @pytest.mark.parametrize("seed", range(50))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed + 1000)
        s = random_scores(seed)
        # strictly increasing map preserves score ordering, hence FAR/GAR values
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-1.0, 1.0))
        f = lambda x: a * np.asarray(x) + b
        t = ScoreSet(genuine=f(s.genuine), impostor=f(s.impostor))
        for target in (0.01, 0.1, 0.5):
            assert gar_at_far(s, target)[0] == gar_at_far(t, target)[0]
        assert best_accuracy(s)[0] == best_accuracy(t)[0]
        assert [(p[1], p[2]) for p in roc_curve(s).points] == \
               [(p[1], p[2]) for p in roc_curve(t).points]

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_gar_weakly_increasing_in_target(self, seed):
        s = random_scores(seed)
        gars = [gar_at_far(s, t)[0] for t in (0.001, 0.01, 0.1, 0.5, 1.0)]
        assert gars == sorted(gars)


class TestScorePairs:
    def make_pairs(self, tmp_path, n=3):
        rng = np.random.default_rng(0)
        recs = []
        for i in range(2 * n):
            p = tmp_path / f"im{i}.pgm"
            write_pgm(p, rng.random((1, 32, 32)))
            recs.append(ImageRecord("id01", str(p), "genuine"))
        pairs = [PairRecord(recs[2 * i], recs[2 * i + 1], i % 2, "overall")
                 for i in range(n)]
        return pairs

    def test_head_scores_in_unit_interval(self, tmp_path):
        params = build_network(NetworkSpec.tiny(), seed=0)
        pairs = self.make_pairs(tmp_path, n=4)
        s = score_pairs(params, pairs, mode="head")
        assert s.genuine.size == 2 and s.impostor.size == 2
        all_scores = np.concatenate([s.genuine, s.impostor])
        assert np.all((all_scores > 0) & (all_scores < 1))

    def test_cosine_mode_and_determinism(self, tmp_path):
        params = build_network(NetworkSpec.tiny(), seed=0)
        pairs = self.make_pairs(tmp_path, n=2)
        s1 = score_pairs(params, pairs, mode="cosine")
        s2 = score_pairs(params, pairs, mode="cosine")
        assert np.array_equal(s1.genuine, s2.genuine)
        assert np.all((s1.genuine >= 0) & (s1.genuine <= 1))  # nonneg embeddings

    def shared_pairs(self, tmp_path, n_images=4):
        """Every unordered pair of n_images images: each image is in n_images - 1 pairs."""
        rng = np.random.default_rng(1)
        recs = []
        for i in range(n_images):
            p = tmp_path / f"sh{i}.pgm"
            write_pgm(p, rng.random((1, 32, 32)))
            recs.append(ImageRecord("id01", str(p), "genuine"))
        return [PairRecord(a, b, (i + j) % 2, "overall")
                for i, a in enumerate(recs) for j, b in enumerate(recs) if i < j]

    @pytest.mark.parametrize("mode", ["head", "cosine"])
    def test_each_image_embedded_once(self, tmp_path, monkeypatch, mode):
        from siamverify import evaluator
        calls = []
        embed = evaluator.forward_embedding

        def counting(params, x, g=None):
            calls.append(x)
            return embed(params, x, g)

        monkeypatch.setattr(evaluator, "forward_embedding", counting)
        params = build_network(NetworkSpec.tiny(), seed=0)
        score_pairs(params, self.shared_pairs(tmp_path), mode=mode)
        embedded = np.concatenate([x.data for x in calls])
        assert embedded.shape[0] == 4  # 6 pairs over 4 images
        assert np.unique(embedded.reshape(4, -1), axis=0).shape[0] == 4

    def crop_pair(self, tmp_path):
        """A whole image and its crop, filed under one (identity, path)."""
        path = tmp_path / "big.pgm"
        write_pgm(path, np.random.default_rng(3).random((1, 48, 48)))
        whole = ImageRecord("id01", str(path), "genuine")
        return PairRecord(whole, replace(whole, kind="disguised", bbox=(6, 10, 30, 28)),
                          1, "overall")

    @pytest.mark.parametrize("mode", ["head", "cosine"])
    def test_crop_scores_like_its_pair_alone(self, tmp_path, mode):
        from siamverify import cosine_similarity, load_image, siamese_forward
        params = build_network(NetworkSpec.tiny(), seed=3)
        pair, shape = self.crop_pair(tmp_path), params.spec.input_shape
        emb_a, emb_b, p = siamese_forward(params, load_image(pair.a, shape),
                                          load_image(pair.b, shape))
        want = p if mode == "head" else cosine_similarity(emb_a, emb_b)
        assert score_pairs(params, [pair], mode=mode).genuine.tobytes() == want.data.tobytes()

    def test_file_and_crop_under_two_identities_loaded_once(self, tmp_path, monkeypatch):
        crop = self.crop_pair(tmp_path).b
        twin = replace(crop, identity="id02", source="web")
        other = self.make_pairs(tmp_path, n=1)[0].a
        real, loaded = evaluator.load_images, []

        def counting(records, target):
            loaded.extend((rec.path, rec.bbox) for rec in records)
            return real(records, target)

        monkeypatch.setattr(evaluator, "load_images", counting)
        pairs = [PairRecord(crop, other, 0, "overall"), PairRecord(other, twin, 1, "overall")]
        score_pairs(build_network(NetworkSpec.tiny(), seed=0), pairs, mode="cosine")
        assert loaded == [(crop.path, crop.bbox), (other.path, None)]

    @pytest.mark.skipif(not glibc_mallopt(), reason="needs glibc's mallopt")
    def test_second_round_does_not_fault_its_memory_in_again(self, tmp_path):
        # without keep_freed_memory glibc trims its heap after each stack of 4 images
        assert fresh_process_count(TWO_ROUNDS, tmp_path) < 1000

    def test_scores_equal_per_pair_forward(self, tmp_path):
        from siamverify import cosine_similarity, load_image, siamese_forward
        params = build_network(NetworkSpec.tiny(), seed=2)
        pairs = self.shared_pairs(tmp_path)
        shape = params.spec.input_shape
        ref = {"head": ([], []), "cosine": ([], [])}
        for pair in pairs:
            emb_a, emb_b, p = siamese_forward(params, load_image(pair.a, shape),
                                              load_image(pair.b, shape))
            side = 0 if pair.y == 1 else 1
            ref["head"][side].append(p.item())
            ref["cosine"][side].append(cosine_similarity(emb_a, emb_b).item())
        for mode, (gen, imp) in ref.items():
            s = score_pairs(params, pairs, mode=mode)
            assert s.genuine.tobytes() == np.array(gen).tobytes()
            assert s.impostor.tobytes() == np.array(imp).tobytes()

    def mixed_pairs(self, tmp_path):
        """Pairs over 11 distinct images: two source sizes, a bbox crop and an RGB image."""
        rng = np.random.default_rng(5)
        recs = []
        for i in range(11):
            shape = (1, 32, 32) if i % 2 else (1, 40, 36)
            p = tmp_path / f"mx{i}.pgm"
            write_pgm(p, rng.random(shape))
            recs.append(ImageRecord(f"id{i % 3}", str(p), "genuine"))
        recs[3] = replace(recs[3], bbox=(2, 1, 20, 24))  # a crop of its 32x32 image
        write_ppm(tmp_path / "mx5.ppm", rng.random((3, 30, 34)))
        recs[5] = replace(recs[5], path=str(tmp_path / "mx5.ppm"))  # 3 channels to 1
        return [PairRecord(recs[i], recs[j], (i + j) % 2, "overall")
                for i in range(11) for j in (i + 1, i + 4) if j < 11]

    @pytest.mark.parametrize("mode", ["head", "cosine"])
    def test_stacks_score_like_per_pair_forward(self, tmp_path, monkeypatch, mode):
        from siamverify import cosine_similarity, load_image, siamese_forward
        params = build_network(NetworkSpec.tiny(), seed=6)
        one_image = 8 * 8 * 32 * 32  # conv1's float64 output for one tiny image
        monkeypatch.setattr(evaluator, "_STACK_BYTES", 4 * one_image + one_image // 2)
        stacks = []
        embed = evaluator.forward_embedding

        def recording(params, x, g=None):
            stacks.append(x.shape[0])
            return embed(params, x, g)

        monkeypatch.setattr(evaluator, "forward_embedding", recording)
        pairs, shape, gen, imp = self.mixed_pairs(tmp_path), params.spec.input_shape, [], []
        for pair in pairs:
            emb_a, emb_b, p = siamese_forward(params, load_image(pair.a, shape),
                                              load_image(pair.b, shape))
            score = p if mode == "head" else cosine_similarity(emb_a, emb_b)
            (gen if pair.y == 1 else imp).append(score.item())
        s = score_pairs(params, pairs, mode=mode)
        assert stacks == [4, 4, 3]
        assert s.genuine.tobytes() == np.array(gen).tobytes()
        assert s.impostor.tobytes() == np.array(imp).tobytes()

    def test_image_over_the_budget_is_embedded_alone(self, tmp_path, monkeypatch):
        spec = NetworkSpec(input_shape=(1, 64, 64), stages=((9, 1),), fc=(8, 4), head=(4, 1))
        assert 8 * 9 * 64 * 64 > evaluator._STACK_BYTES  # conv1's output for one image
        stacks = []
        embed = evaluator.forward_embedding

        def recording(params, x, g=None):
            stacks.append(x.shape)
            return embed(params, x, g)

        monkeypatch.setattr(evaluator, "forward_embedding", recording)
        score_pairs(build_network(spec, seed=0), self.shared_pairs(tmp_path), mode="head")
        assert stacks == [(1, 1, 64, 64)] * 4

    def block_pairs(self, tmp_path, n_pairs, n_images=5):
        """``n_pairs`` pairs over ``n_images`` images, some of an image with itself."""
        rng = np.random.default_rng(3)
        recs = []
        for i in range(n_images):
            p = tmp_path / f"bl{i}.pgm"
            write_pgm(p, rng.random((1, 32, 32)))
            recs.append(ImageRecord("id01", str(p), "genuine"))
        return [PairRecord(recs[i % n_images], recs[(3 * i + 1) % n_images], i % 3 % 2, "overall")
                for i in range(n_pairs)]

    @pytest.mark.parametrize("mode", ["head", "cosine"])
    def test_scores_across_block_boundary_equal_per_pair(self, tmp_path, mode):
        from siamverify import cosine_similarity, load_image, siamese_forward
        params = build_network(NetworkSpec.tiny(), seed=4)
        pairs = self.block_pairs(tmp_path, 2 * evaluator._BLOCK_PAIRS + 7)
        shape = params.spec.input_shape
        ref, gen, imp = {}, [], []
        for pair in pairs:
            key = (pair.a.path, pair.b.path)
            if key not in ref:
                emb_a, emb_b, p = siamese_forward(params, load_image(pair.a, shape),
                                                  load_image(pair.b, shape))
                ref[key] = p if mode == "head" else cosine_similarity(emb_a, emb_b)
            (gen if pair.y == 1 else imp).append(ref[key].item())
        s = score_pairs(params, pairs, mode=mode)
        assert s.genuine.tobytes() == np.array(gen).tobytes()
        assert s.impostor.tobytes() == np.array(imp).tobytes()

    def test_zero_embeddings_score_cosine_zero(self, tmp_path):
        params = build_network(NetworkSpec.tiny(), seed=0)
        fc2 = 2 * (len(params.spec.layers) - len(params.spec.head) - 1)  # fc2's weight, bias
        for t in params.tensors[fc2:fc2 + 2]:
            t.data[...] = 0.0
        s = score_pairs(params, self.block_pairs(tmp_path, evaluator._BLOCK_PAIRS + 1),
                        mode="cosine")
        scores = np.concatenate([s.genuine, s.impostor])
        assert scores.size == evaluator._BLOCK_PAIRS + 1
        assert scores.tobytes() == np.zeros(scores.size).tobytes()

    @pytest.mark.parametrize("mode", ["head", "cosine"])
    def test_peak_memory_bounded_by_block(self, tmp_path, mode):
        """8x the pairs over the same images adds less than one (pairs, fc2) matrix."""
        params = build_network(NetworkSpec.tiny(), seed=0)
        n = 2 * evaluator._BLOCK_PAIRS
        peaks = []
        for pairs in (self.block_pairs(tmp_path, n), self.block_pairs(tmp_path, 8 * n)):
            tracemalloc.start()
            try:
                score_pairs(params, pairs, mode=mode)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * n * params.spec.fc[1] * 8

    def test_bad_mode_and_empty(self, tmp_path):
        params = build_network(NetworkSpec.tiny(), seed=0)
        with pytest.raises(ConfigError):
            score_pairs(params, self.make_pairs(tmp_path), mode="euclid")
        with pytest.raises(ConfigError):
            score_pairs(params, [], mode="head")


class TestScoreSet:
    @pytest.mark.parametrize("side", ["genuine", "impostor"])
    def test_nan_rejected(self, side):
        scores = {"genuine": [0.9, 0.5], "impostor": [0.1, 0.2]}
        scores[side][1] = np.nan
        with pytest.raises(DomainError):
            ScoreSet(**scores)

    def test_infinite_scores_match_brute_force(self):
        s = ScoreSet(genuine=np.array([np.inf, 0.8, -np.inf, 0.4]),
                     impostor=np.array([np.inf, np.inf, 0.3, -np.inf]))
        assert best_accuracy(s) == brute_force_best_acc(s)
        for ft in (0.25, 0.5, 0.75, 1.0):
            assert gar_at_far(s, ft) == brute_force_gar(s, ft)
        thresholds = [t for t, _, _ in roc_curve(s).points]
        assert thresholds == [np.inf, np.inf, 0.8, 0.4, 0.3, -np.inf]


class TestMetricsReport:
    def test_shape_and_values(self):
        report = metrics_report(EXAMPLE, mode="head")
        assert report["mode"] == "head"
        assert report["n_genuine"] == 4 and report["n_impostor"] == 4
        assert set(report["gar_at"]) == {"0.001", "0.01", "0.1"}
        assert report["best_accuracy"] == 0.875
        assert report["acc_at_0.5"] == 0.75

    def test_report_and_roc_sort_once(self, monkeypatch):
        sorts = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(1) or unique(*a, **kw))
        s = random_scores(4)
        metrics_report(s, mode="head")
        roc_curve(s)
        assert len(sorts) == 1


class TestRunAblation:
    """Grid entries are ``label``/``use_web`` plus settings, read by ``apply_settings``."""

    RECORDS = [ImageRecord("id01", "g.pgm", "genuine"), ImageRecord("id01", "d.pgm", "disguised"),
               ImageRecord("id01", "i.pgm", "impostor")]
    WEB = [ImageRecord("id01", "w.pgm", "genuine", source="web")]

    def _run(self, monkeypatch, grid, base_cfg, web_records=None, pair_counts=None):
        seen = []

        def fake_train(params, pairs, cfg, out_dir=None):
            seen.append(cfg)
            if pair_counts is not None:
                pair_counts.append(len(pairs))
            return params, TrainLog(), []

        monkeypatch.setattr(evaluator, "train", fake_train)
        monkeypatch.setattr(evaluator, "score_pairs", lambda params, pairs: EXAMPLE)
        rows = run_ablation(grid, self.RECORDS, self.RECORDS, base_cfg, NetworkSpec.tiny(),
                            web_records=web_records)
        return rows, seen

    def test_seeds_follow_base_cfg(self, monkeypatch):
        _, seen = self._run(monkeypatch, [{}, {"label": "b"}], TrainConfig(seed=5))
        assert [cfg.seed for cfg in seen] == [5, 6]

    def test_unknown_key_is_that_rows_error(self, monkeypatch):
        rows, seen = self._run(monkeypatch, [{"label": "typo", "enable_bce": False},
                                             {"label": "ok"}], TrainConfig())
        assert rows[0].error.startswith("ConfigError") and "'enable_bce'" in rows[0].error
        assert rows[1].error is None and rows[1].best_accuracy == 0.875
        assert len(seen) == 1 and seen[0].loss.enable_lbce is True

    @pytest.mark.parametrize("use_web", ["yes", 1, None, [True]])
    def test_non_boolean_use_web_is_that_rows_error(self, monkeypatch, use_web):
        rows, seen = self._run(monkeypatch, [{"label": "bad", "use_web": use_web},
                                             {"label": "ok"}], TrainConfig(),
                               web_records=self.WEB)
        assert rows[0].error.startswith("ConfigError") and "use_web" in rows[0].error
        assert rows[1].error is None and len(seen) == 1

    def test_use_web_without_web_records_is_that_rows_error(self, monkeypatch):
        rows, seen = self._run(monkeypatch, [{"label": "weak", "use_web": True},
                                             {"label": "ok"}], TrainConfig())
        assert rows[0].error.startswith("ConfigError") and "web records" in rows[0].error
        assert rows[1].error is None and len(seen) == 1

    def test_use_web_adds_the_web_records(self, monkeypatch):
        counts = []
        rows, _ = self._run(monkeypatch, [{"use_web": False}, {"use_web": True}, {}],
                            TrainConfig(), web_records=self.WEB, pair_counts=counts)
        assert all(r.error is None for r in rows)
        assert counts[1] > counts[0] == counts[2]

    def test_entry_settings_apply(self, monkeypatch):
        rows, seen = self._run(monkeypatch, [{"label": "fast", "lr": 0.5, "use_web": False,
                                              "enable_lr": False}], TrainConfig(lr=1e-3))
        assert rows[0].error is None
        assert seen[0].lr == 0.5 and seen[0].loss.enable_lr is False
