"""Acceptance gate: seven end-to-end criteria, one printed line per criterion.

Each test re-derives its expected values independently (hand computation or
brute force) rather than calling back into the code under test.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS
from corpus import build_corpus
from siamverify import (AugmentConfig, LossConfig, NetworkSpec, ScoreSet,
                        Tensor, TrainConfig, bce_loss, best_accuracy,
                        build_network, class_weights, contrastive_loss,
                        cosine_similarity, forward_embedding, forward_head,
                        gar_at_far, generate_pairs, grad_check, load_params,
                        freeze_prefix, mse_loss, parse_manifest, roc_curve,
                        score_pairs, siamese_forward, total_loss, train)
from siamverify import losses, ops
from siamverify.evaluator import run_ablation
from siamverify.gradcheck import GradCheckResult

TINY = NetworkSpec.tiny()


def _report(number, description, body):
    ok = False
    try:
        body()
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        ACCEPTANCE_RESULTS.append(f"ACCEPTANCE {number}: {status} - {description}")


@pytest.fixture(scope="module")
def corpus_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    manifest, _ = build_corpus(root, n_identities=8, seed=7)
    return manifest


@pytest.fixture(scope="module")
def trained_model(corpus_manifest):
    """One tuned training run shared by criteria 5 and 7's frozen check."""
    records = parse_manifest(corpus_manifest)
    train_pairs = generate_pairs([r for r in records if r.split == "train"], "overall")
    val_pairs = generate_pairs([r for r in records if r.split == "val"], "overall")
    aug = AugmentConfig(gaussian_sigma=0.01, flip_prob=0.0,
                        max_rotation_deg=3.0, max_translate_px=1)
    cfg = TrainConfig(lr=1e-3, epochs=130, batch_size=4,
                      loss=LossConfig(margin=0.5), augment=aug, seed=0)
    params = freeze_prefix(build_network(TINY, seed=0), 1)
    frozen_before = [t.data.copy() for t, f in zip(params.tensors, params.freeze) if f]
    t0 = time.perf_counter()
    params, log, _ = train(params, train_pairs, cfg)
    seconds = time.perf_counter() - t0
    return params, log, seconds, val_pairs, frozen_before


def test_acceptance_1_gradient_correctness():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        # every differentiable primitive in isolation, inputs off the kinks
        x = Tensor(rng.uniform(0.2, 1.0, (2, 8, 8)))
        prim_cases = {
            "relu": lambda g: ops.tsum(g, ops.relu(g, ops.sub(g, x, Tensor(0.5)))),
            "maxpool2": lambda g: ops.tsum(g, ops.maxpool2(g, x)),
            "sigmoid": lambda g: ops.tsum(g, ops.sigmoid(g, x)),
            "abs": lambda g: ops.tsum(g, ops.absolute(g, ops.sub(g, x, Tensor(0.6)))),
            "log": lambda g: ops.tsum(g, ops.log(g, x)),
            "sqrt": lambda g: ops.tsum(g, ops.sqrt(g, x)),
            "clamp": lambda g: ops.tsum(g, ops.clamp(g, x, 0.3, 0.9)),
            "mul_div": lambda g: ops.tsum(g, ops.div(g, ops.mul(g, x, x),
                                                     Tensor(3.0))),
        }
        for name, fn in prim_cases.items():
            err = grad_check(fn, [x], eps=1e-5).max_relative_error
            assert err < 1e-4, f"{name}: {err}"
        w = Tensor(rng.uniform(-0.5, 0.5, (4, 2, 3, 3)))
        b = Tensor(rng.uniform(-0.1, 0.1, 4))
        conv_err = grad_check(
            lambda g: ops.tsum(g, ops.conv2d(g, x, w, b)),
            [x, w, b], eps=1e-5).max_relative_error
        assert conv_err < 1e-4

        # full tiny network, all three loss terms, mixed labels
        params = build_network(TINY, seed=0)
        batch = [(Tensor(rng.random(TINY.input_shape)),
                  Tensor(rng.random(TINY.input_shape)), y) for y in (1, 0, 1, 0)]
        cfg = LossConfig(margin=0.5)

        def loss_fn(g):
            ds, ps, ys = [], [], []
            for xa, xb, y in batch:
                emb_a, emb_b, p = siamese_forward(params, xa, xb, g)
                ds.append(losses.cosine_distance(emb_a, emb_b, g))
                ps.append(p)
                ys.append(y)
            return total_loss(ops.stack(g, ds), ops.stack(g, ps),
                              np.array(ys, dtype=float), cfg, g).total_node

        result = grad_check(loss_fn, params.tensors, eps=1e-5,
                            max_coords_per_tensor=20, seed=0)
        assert isinstance(result, GradCheckResult)
        assert result.max_relative_error < 1e-4
        assert result.checked > 100
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    _report(1, "gradient correctness (primitives + full tiny network, eps 1e-5)",
            body)


def test_acceptance_2_loss_oracles():
    def body():
        unit = LossConfig(margin=0.5)
        # hand-worked single values
        assert abs(contrastive_loss([0.3], [1.0], unit).item() - 0.045) < 1e-12
        assert abs(contrastive_loss([0.2, 0.1], [1.0, 0.0], unit).item() - 0.05) < 1e-12
        assert abs(mse_loss([0.9, 0.2], [1.0, 0.0], unit).item() - 0.025) < 1e-12
        assert abs(bce_loss([0.5], [1.0], unit).item() - np.log(2)) < 1e-12
        assert class_weights(6, 3) == (0.75, 1.5)
        sim = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0])).item()
        assert abs(sim - np.sqrt(0.5)) < 1e-12

        # 100 random batches vs a scalar-loop re-implementation
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 17))
            d = rng.random(n)
            p = rng.uniform(1e-4, 1 - 1e-4, n)
            y = rng.integers(0, 2, n).astype(float)
            cfg = LossConfig(margin=float(rng.uniform(0.05, 1.0)),
                             w_pos=float(rng.uniform(0.2, 3.0)),
                             w_neg=float(rng.uniform(0.2, 3.0)))
            bd = total_loss(d, p, y, cfg)
            lc = lr = lb = 0.0
            for i in range(n):
                w = cfg.w_pos if y[i] == 1 else cfg.w_neg
                hinge = max(cfg.margin - d[i], 0.0)
                lc += w * (y[i] * d[i] ** 2 + (1 - y[i]) * hinge ** 2)
                lr += w * (y[i] - p[i]) ** 2
                pc = min(max(p[i], 1e-7), 1 - 1e-7)
                lb += -w * (y[i] * np.log(pc) + (1 - y[i]) * np.log(1 - pc))
            lc /= 2 * n
            lr /= n
            lb /= n
            assert abs(bd.l_c - lc) < 1e-12
            assert abs(bd.l_r - lr) < 1e-12
            assert abs(bd.l_bce - lb) < 1e-12
            assert abs(bd.l_total - (lc + lr + lb)) < 1e-12

    _report(2, "loss oracles (hand values + 100 random batches, 1e-12)", body)


def test_acceptance_3_metric_oracle():
    def body():
        def brute_gar(s, target):
            for t in sorted(set(s.genuine) | set(s.impostor)):
                if np.mean(s.impostor >= t) <= target:
                    return float(np.mean(s.genuine >= t)), float(t)
            return 0.0, np.inf

        def brute_best(s):
            total = s.genuine.size + s.impostor.size
            best = (-1.0, None)
            for t in sorted(set(s.genuine) | set(s.impostor) | {np.inf}):
                acc = (np.sum(s.genuine >= t) + np.sum(s.impostor < t)) / total
                if acc > best[0]:
                    best = (float(acc), float(t))
            return best

        rng = np.random.default_rng(42)
        for i in range(1000):
            pool = rng.random(int(rng.integers(2, 12)))
            s = ScoreSet(genuine=rng.choice(pool, int(rng.integers(1, 201))),
                         impostor=rng.choice(pool, int(rng.integers(1, 201))))
            for target in (0.001, 0.01, 0.1, 0.5, 1.0):
                assert gar_at_far(s, target) == brute_gar(s, target)
            assert best_accuracy(s) == brute_best(s)
            points = roc_curve(s).points
            assert [p[0] for p in points] == sorted((p[0] for p in points),
                                                    reverse=True)
            assert [p[1] for p in points] == sorted(p[1] for p in points)
            assert [p[2] for p in points] == sorted(p[2] for p in points)
            if i < 100:  # monotone transform invariance on the first hundred
                a = float(rng.uniform(0.5, 4.0))
                b = float(rng.uniform(-2.0, 2.0))
                t = ScoreSet(genuine=a * s.genuine + b, impostor=a * s.impostor + b)
                for target in (0.01, 0.1, 1.0):
                    assert gar_at_far(s, target)[0] == gar_at_far(t, target)[0]
                assert best_accuracy(s)[0] == best_accuracy(t)[0]

    _report(3, "metric oracle (1000 ScoreSets exact, ROC monotone, "
               "100 monotone transforms)", body)


def test_acceptance_4_pair_protocol_oracle():
    def body():
        from siamverify.dataset import ImageRecord

        def brute(records, protocol):
            out = []
            for a, b in combinations(records, 2):
                if a.identity != b.identity:
                    continue
                a, b = sorted((a, b), key=lambda r: r.path)
                kinds = {a.kind, b.kind}
                if protocol == "impersonation":
                    if kinds == {"genuine", "impostor"}:
                        out.append((a.path, b.path, 0))
                elif protocol == "obfuscation":
                    if kinds == {"genuine", "disguised"}:
                        out.append((a.path, b.path, 1))
                else:
                    if kinds == {"impostor"}:
                        continue  # impostor-impostor ground truth is undefined
                    out.append((a.path, b.path, 0 if "impostor" in kinds else 1))
            return sorted(out)

        rng = np.random.default_rng(5)
        for trial in range(30):
            records = []
            for i in range(int(rng.integers(1, 11))):
                for j in range(int(rng.integers(0, 7))):
                    kind = ("genuine", "disguised", "impostor")[int(rng.integers(3))]
                    records.append(ImageRecord(f"id{i:02d}", f"p{i:02d}_{j}", kind))
            for protocol in ("impersonation", "obfuscation", "overall"):
                got = sorted((min(p.a.path, p.b.path), max(p.a.path, p.b.path), p.y)
                             for p in generate_pairs(records, protocol))
                assert got == brute(records, protocol), (trial, protocol)

    _report(4, "pair-protocol enumeration equals brute force (all protocols)", body)


def test_acceptance_5_synthetic_end_to_end(trained_model):
    def body():
        params, log, seconds, val_pairs, _ = trained_model
        assert len(log.rows) <= 200
        assert seconds < 300.0, f"training took {seconds:.0f}s"
        assert log.rows[-1].train_acc >= 0.95

        scores = score_pairs(params, val_pairs, mode="head")
        gar, _ = gar_at_far(scores, 0.1)
        assert gar >= 0.80, f"GAR@10%FAR = {gar}"

        pos_d, neg_d = [], []
        from siamverify.dataset import load_image
        for pair in val_pairs:
            emb_a = forward_embedding(params, load_image(pair.a, TINY.input_shape))
            emb_b = forward_embedding(params, load_image(pair.b, TINY.input_shape))
            d = 1.0 - cosine_similarity(emb_a, emb_b).item()
            (pos_d if pair.y == 1 else neg_d).append(d)
        assert np.mean(pos_d) < np.mean(neg_d)

    _report(5, "synthetic end-to-end (train acc >= 0.95, GAR@10%FAR >= 0.80, "
               "pos dist < neg dist)", body)


def test_acceptance_6_ablation_harness(corpus_manifest, tmp_path):
    def body():
        records = parse_manifest(corpus_manifest)
        train_records = [r for r in records if r.split == "train"]
        val_records = [r for r in records if r.split == "val"]
        # synthetic extra genuine records stand in for the weakly labelled set
        web_records = [r for r in train_records if r.kind == "genuine"][:4]
        web_records = [type(r)(identity=r.identity, path=r.path + ".extra.pgm",
                               kind="genuine", source="dfw", split="train")
                       for r in web_records]
        import shutil
        for r in web_records:
            shutil.copy(r.path[: -len(".extra.pgm")], r.path)

        grid = ([{"label": f"margin_{m}", "margin": m} for m in (0.1, 0.5, 0.6)]
                + [{"label": "lc_only", "enable_lr": False, "enable_lbce": False},
                   {"label": "lc_lr", "enable_lbce": False},
                   {"label": "full_loss"}]
                + [{"label": "dfw_only"}, {"label": "dfw_plus_weak", "use_web": True}])
        aug = AugmentConfig(gaussian_sigma=0.01, flip_prob=0.0,
                            max_rotation_deg=3.0, max_translate_px=1)
        base_cfg = TrainConfig(lr=1e-3, epochs=8, batch_size=8,
                               loss=LossConfig(margin=0.5), augment=aug,
                               seed=0, freeze_k=1)
        out = tmp_path / "ablation"
        rows = run_ablation(grid, train_records, val_records, base_cfg, TINY,
                            out_dir=out, web_records=web_records)
        assert len(rows) == 8
        assert [r.label for r in rows] == [e["label"] for e in grid]
        for r in rows:
            assert r.error is None, f"{r.label}: {r.error}"
            assert 0.0 <= r.best_accuracy <= 1.0
            assert set(r.gar_at) == {"0.001", "0.01", "0.1"}
        report = json.loads((out / "ablation.json").read_text())
        assert len(report) == 8
        csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 9
        # orderings are dataset-dependent: recorded, not asserted
        ACCEPTANCE_RESULTS.append(
            "  (recorded) margin accs: "
            + ", ".join(f"{r.label}={r.best_accuracy:.3f}" for r in rows[:3])
            + "; loss accs: "
            + ", ".join(f"{r.label}={r.best_accuracy:.3f}" for r in rows[3:6])
            + "; data accs: "
            + ", ".join(f"{r.label}={r.best_accuracy:.3f}" for r in rows[6:]))

    _report(6, "ablation harness (3 margin + 3 loss + 2 data rows, full reports)",
            body)


def test_acceptance_7_invariance_suite(trained_model, corpus_manifest, tmp_path):
    def body():
        params, _, _, _, frozen_before = trained_model
        # frozen parameters bitwise unchanged by 130 epochs of training
        frozen = [t for t, f in zip(params.tensors, params.freeze) if f]
        assert all(np.array_equal(t.data, before)
                   for t, before in zip(frozen, frozen_before))

        # tied weights: identical inputs give identical embeddings, d = 0
        rng = np.random.default_rng(3)
        x = Tensor(rng.random(TINY.input_shape))
        emb_a, emb_b, _ = siamese_forward(params, x, x.copy())
        assert np.array_equal(emb_a.data, emb_b.data)
        assert abs(1.0 - cosine_similarity(emb_a, emb_b).item()) < 1e-12

        # head symmetry
        other = forward_embedding(params, Tensor(rng.random(TINY.input_shape)))
        assert forward_head(params, emb_a, other).item() \
            == forward_head(params, other, emb_a).item()

        # seed determinism: two identical short runs, bitwise checkpoints,
        # logs identical except the wall-clock seconds column
        records = [r for r in parse_manifest(corpus_manifest) if r.split == "train"]
        pairs = generate_pairs(records, "overall")
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=8,
                          loss=LossConfig(margin=0.5),
                          augment=AugmentConfig(gaussian_sigma=0.01), seed=12)
        logs = []
        blobs = []
        for run in range(2):
            out = tmp_path / f"det{run}"
            out.mkdir()
            p = freeze_prefix(build_network(TINY, seed=12), 1)
            _, log, ckpts = train(p, pairs, cfg, out_dir=out)
            logs.append([(r.epoch, r.l_c, r.l_r, r.l_bce, r.l_total, r.train_acc)
                         for r in log.rows])
            with open(ckpts[-1], "rb") as f:
                blobs.append(f.read())
        assert logs[0] == logs[1]
        assert blobs[0] == blobs[1]

    _report(7, "invariance suite (frozen bitwise, tied weights, head symmetry, "
               "seed determinism)", body)
