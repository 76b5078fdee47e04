"""Batching, SGD updates, determinism, and loss descent on a fixed batch."""

import tracemalloc

import numpy as np
import pytest

from siamverify import (AugmentConfig, Graph, LossConfig, NetworkParams, NetworkSpec,
                        TrainConfig, Tensor, build_network, freeze_prefix, grad_check, load_params,
                        make_batches, sgd_step, train)
from siamverify.trainer import NO_AUGMENT, apply_settings, pair_batch_loss, settings_of
from siamverify.dataset import ImageRecord, PairRecord
from siamverify.errors import ConfigError, NumericError
from imagefiles import write_pgm
from sums import assert_within_summation_bound

TINY = NetworkSpec.tiny()
NO_AUG = AugmentConfig(gaussian_sigma=0.0, flip_prob=0.0,
                       max_rotation_deg=0.0, max_translate_px=0)


def make_pairs(tmp_path, n_pos=5, n_neg=5, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n_pos + n_neg):
        recs = []
        for side in "ab":
            p = tmp_path / f"im{i}{side}.pgm"
            write_pgm(p, rng.random((1, 32, 32)))
            recs.append(ImageRecord("id01", str(p), "genuine"))
        pairs.append(PairRecord(recs[0], recs[1], 1 if i < n_pos else 0, "overall"))
    return pairs


def fast_cfg(**kw):
    defaults = dict(lr=1e-3, epochs=1, batch_size=4, augment=NO_AUG, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMakeBatches:
    PAIRS = [PairRecord(ImageRecord("x", f"p{i}", "genuine"),
                        ImageRecord("x", f"q{i}", "genuine"),
                        1 if i < 6 else 0, "overall") for i in range(10)]

    def test_partition_sizes(self):
        batches = make_batches(self.PAIRS, 4, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]
        flat = sorted(i for b in batches for i, _ in b)
        assert flat == list(range(10))

    def test_seeded_shuffle(self):
        a = make_batches(self.PAIRS, 4, seed=1)
        b = make_batches(self.PAIRS, 4, seed=1)
        c = make_batches(self.PAIRS, 4, seed=2)
        assert a == b
        assert a != c

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            make_batches([], 4, seed=0)


class TestSgdStep:
    def test_update_rule(self):
        params = build_network(TINY, seed=0)
        t = params.tensors[0]
        before = t.data.copy()
        sgd_step(params, {t: np.ones_like(t.data)}, lr=1e-3)
        assert np.allclose(t.data, before - 1e-3)

    def test_frozen_tensor_untouched(self):
        # a frozen tensor is not differentiated, so the step has no gradient for it
        params = freeze_prefix(build_network(TINY, seed=0), 1)
        frozen, live = params.tensors[0], params.tensors[2]
        f_before, l_before = frozen.data.copy(), live.data.copy()
        _, _, grads = _recorded_step(params, _batch8()[:2])
        sgd_step(params, grads, lr=0.5)
        assert np.array_equal(frozen.data, f_before)
        assert not np.array_equal(live.data, l_before)

    def test_none_grad_skipped(self):
        params = build_network(TINY, seed=0)
        before = [t.data.copy() for t in params.tensors]
        sgd_step(params, {}, lr=1.0)
        assert all(np.array_equal(t.data, b) for t, b in zip(params.tensors, before))

    def test_nonfinite_grad_names_tensor(self):
        params = build_network(TINY, seed=0)
        t = params.tensors[3]
        with pytest.raises(NumericError, match="tensor 3"):
            sgd_step(params, {t: np.full(t.shape, np.nan)}, lr=1e-3)


    def test_nonfinite_grad_leaves_every_tensor_unchanged(self):
        params = build_network(TINY, seed=0)
        grads = {t: np.ones_like(t.data) for t in params.tensors}
        grads[params.tensors[3]][0] = np.nan
        before = [t.data.copy() for t in params.tensors]
        with pytest.raises(NumericError, match="tensor 3"):
            sgd_step(params, grads, lr=1e-3)
        assert all(t.data.tobytes() == b.tobytes() for t, b in zip(params.tensors, before))


    @pytest.mark.parametrize("shape", [(300_001,), (70, 2500), (40, 40, 11, 11)])
    def test_blocked_update_equals_whole_array_update(self, shape):
        # 3, 2 and 2 blocks of rows, the last one short: 2.4, 1.4 and 1.5 MB of float64
        rng = np.random.default_rng(len(shape))
        t, grad = Tensor(rng.standard_normal(shape)), rng.standard_normal(shape)
        want = t.data - 0.37 * grad
        sgd_step(NetworkParams(spec=TINY, tensors=[t]), {t: grad}, lr=0.37)
        assert t.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1 << 23,), (1 << 10, 1 << 13), (64, 128, 32, 32)])
    def test_update_keeps_no_full_size_temporary(self, shape):
        t, grad = Tensor(np.ones(shape)), np.full(shape, 0.5)  # 64 MiB each
        params = NetworkParams(spec=TINY, tensors=[t])
        tracemalloc.start()
        try:
            sgd_step(params, {t: grad}, lr=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert np.all(t.data == 0.5)


class TestPairBatchLoss:
    @pytest.mark.parametrize("zero_pair", [False, True])
    @pytest.mark.parametrize("seed", [4, 5, 6])
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_matches_inline_per_pair_tape(self, n, seed, zero_pair):
        """The rows path has the per-pair tape's loss bits.  Its parameter
        gradients, and the per-pair tape's, are sums of the terms the per-pair
        tape's one-image and one-pair calls pass back, within the summation
        bound.  An all-zero image embeds to a zero vector at init (the biases
        are 0), so ``zero_pair`` gives pair 1 a ~0-norm cosine row."""
        from siamverify import cosine_distance, ops, siamese_forward, total_loss
        rng = np.random.default_rng(seed)
        labels = [(1, 0, 0)[i % 3] for i in range(n)]
        batch = [(Tensor(rng.random(TINY.input_shape)), Tensor(rng.random(TINY.input_shape)), y)
                 for y in labels]
        if zero_pair:
            zero = Tensor(np.zeros(TINY.input_shape))
            batch[1] = (zero, zero, batch[1][2])
        cfg = LossConfig(w_pos=1.5, w_neg=0.75)

        def grads(loss_fn):
            params = build_network(TINY, seed=3)
            g = Graph(params.tensors)
            with pytest.MonkeyPatch.context() as mp:
                terms = _collect_terms(mp, params.tensors)
                bd = loss_fn(params, g)
                got = g.backward(bd.total_node)
            return bd, [got[t] for t in params.tensors], terms

        def inline(params, g):
            d, p = [], []
            for xa, xb, _ in batch:
                emb_a, emb_b, score = siamese_forward(params, xa, xb, g)
                d.append(cosine_distance(emb_a, emb_b, g))
                p.append(score)
            return total_loss(ops.stack(g, d), ops.stack(g, p),
                              np.array(labels, dtype=float), cfg, g)

        got, got_grads, _ = grads(lambda params, g: pair_batch_loss(params, batch, cfg, g))
        want, want_grads, terms = grads(inline)
        assert (got.l_c, got.l_r, got.l_bce, got.l_total) == \
            (want.l_c, want.l_r, want.l_bce, want.l_total)
        for stacked, per_pair, parts in zip(got_grads, want_grads, terms):
            assert len(parts) in (n, 2 * n)  # one a pair (head) or one an image
            assert_within_summation_bound(parts, stacked, per_pair)


def _collect_terms(mp, tensors) -> list[list]:
    """Patch ``Graph.record`` through ``mp`` so that every gradient a recorded
    node's backward passes to ``tensors[i]`` is also appended to the i-th list
    returned."""
    record = Graph.record
    terms = [[] for _ in tensors]
    slot = {id(t): i for i, t in enumerate(tensors)}

    def collecting(self, output, inputs, backward_fn, pattern=None):
        slots = [slot.get(id(t)) for t in inputs]

        def backward(go):
            grads = backward_fn(go)
            for i, grad in zip(slots, grads):
                if i is not None and grad is not None:
                    terms[i].append(grad)
            return grads

        record(self, output, inputs, backward, pattern)

    mp.setattr(Graph, "record", collecting)
    return terms


def _batch8(seed=0):
    rng = np.random.default_rng(seed)
    return [(Tensor(rng.random(TINY.input_shape)), Tensor(rng.random(TINY.input_shape)), y)
            for y in (1, 0) * 4]


def _recorded_step(params, batch, also=()):
    """(tape length, loss, gradients) of one forward and backward over the
    unfrozen tensors and the tensors in ``also``."""
    g = Graph([t for t, f in zip(params.tensors, params.freeze) if not f] + list(also))
    bd = pair_batch_loss(params, batch, LossConfig(w_pos=1.2, w_neg=0.8), g)
    n = len(g)
    return n, bd.l_total, g.backward(bd.total_node)


class TestTape:
    def test_forward_retains_only_what_backward_reads(self):
        # B=8, nothing frozen, 1x32x32 inputs: a tape that pins every op's
        # output and input retained 11.7 MB here; masks, padded conv inputs,
        # argmaxes and linear inputs alone come to 3.6 MB
        params, batch = build_network(TINY, seed=0), _batch8()
        tracemalloc.start()
        try:
            g = Graph(params.tensors)
            bd = pair_batch_loss(params, batch, LossConfig(), g)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g) > 0 and bd.total_node is not None
        assert retained < 6_000_000

    def test_frozen_prefix_is_off_the_tape(self):
        batch = _batch8(1)
        full = build_network(TINY, seed=3)
        n_full, loss_full, grads_full = _recorded_step(full, batch)
        frozen = freeze_prefix(build_network(TINY, seed=3), 1)
        n_frozen, loss_frozen, grads = _recorded_step(frozen, batch)
        assert loss_frozen == loss_full
        assert n_full - n_frozen == 2  # conv1 and its relu, once per step
        for t, t_full, f in zip(frozen.tensors, full.tensors, frozen.freeze):
            if f:
                assert t not in grads
            else:
                assert grads[t].tobytes() == grads_full[t_full].tobytes()

    def test_one_node_per_layer_whatever_the_batch_size(self):
        # the 2B images are embedded as one stack, so the tape's length does not grow with B
        params = freeze_prefix(build_network(TINY, seed=3), 1)
        batch = _batch8(3)
        lengths = {_recorded_step(params, batch[:n])[0] for n in (1, 3, 8)}
        assert len(lengths) == 1

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_skipped_input_gradients_move_no_bit(self, k):
        # with the images in wrt every conv computes its input's gradient; without
        # them the first recorded conv skips it, and no unfrozen gradient may move
        batch = _batch8(2)
        params = freeze_prefix(build_network(TINY, seed=4), k)
        _, _, grads = _recorded_step(params, batch)
        images = [x for xa, xb, _ in batch for x in (xa, xb)]
        _, _, forced = _recorded_step(params, batch, also=images)
        assert all(forced[x].shape == x.shape for x in images)
        live = [t for t, f in zip(params.tensors, params.freeze) if not f]
        assert set(grads) == set(live)
        for t in live:
            assert grads[t].tobytes() == forced[t].tobytes()

    def test_non_prefix_mask_records_every_layer(self, tmp_path):
        # conv2 frozen alone: the tape still runs through it to conv1, which
        # trains, but conv2 itself gets no gradient and no update
        batch = _batch8(1)
        full = build_network(TINY, seed=3)
        n_full, _, grads_full = _recorded_step(full, batch)
        conv2 = build_network(TINY, seed=3)
        conv2.freeze = [False, False, True, True] + [False] * (len(conv2.tensors) - 4)
        n_conv2, _, grads = _recorded_step(conv2, batch)
        assert n_conv2 == n_full
        assert len(grads) == len(conv2.tensors) - 2
        for t, t_full, f in zip(conv2.tensors, full.tensors, conv2.freeze):
            if f:
                assert t not in grads
            else:
                assert grads[t].tobytes() == grads_full[t_full].tobytes()
        before = [t.data.copy() for t in conv2.tensors]
        train(conv2, make_pairs(tmp_path, 2, 2), fast_cfg(epochs=1))
        assert all(conv2.tensors[i].data.tobytes() == before[i].tobytes() for i in (2, 3))
        assert not np.array_equal(conv2.tensors[0].data, before[0])

    def test_grad_check_with_frozen_prefix(self):
        params = freeze_prefix(build_network(TINY, seed=0), 1)
        rng = np.random.default_rng(0)
        batch = [(Tensor(rng.random(TINY.input_shape)),
                  Tensor(rng.random(TINY.input_shape)), y) for y in (1, 0, 1, 0)]
        live = [t for t, f in zip(params.tensors, params.freeze) if not f]
        tape_lengths = set()

        def loss_fn(g):
            out = pair_batch_loss(params, batch, LossConfig(margin=0.5), g).total_node
            tape_lengths.add(len(g))
            return out

        result = grad_check(loss_fn, live, eps=1e-5, max_coords_per_tensor=20, seed=0)
        assert result.max_relative_error < 1e-4
        assert result.checked > 100
        # every graph grad_check builds leaves the frozen prefix off its tape
        assert tape_lengths == {_recorded_step(params, batch)[0]}


class TestTrainLoop:
    def test_zero_epochs_is_identity(self, tmp_path):
        pairs = make_pairs(tmp_path, 2, 2)
        params = build_network(TINY, seed=0)
        before = [t.data.copy() for t in params.tensors]
        params, log, checkpoints = train(params, pairs, fast_cfg(epochs=0))
        assert log.rows == [] and checkpoints == []
        assert all(np.array_equal(t.data, b) for t, b in zip(params.tensors, before))

    def test_log_and_checkpoint_outputs(self, tmp_path):
        pairs = make_pairs(tmp_path, 3, 3)
        out = tmp_path / "run"
        out.mkdir()
        params = build_network(TINY, seed=0)
        params, log, checkpoints = train(
            params, pairs, fast_cfg(epochs=4, checkpoint_every=2), out_dir=out)
        assert [r.epoch for r in log.rows] == [0, 1, 2, 3]
        import os
        assert [os.path.basename(c) for c in checkpoints] == \
            ["checkpoint_1.dgnet", "checkpoint_3.dgnet", "checkpoint_final.dgnet"]
        loaded = load_params(checkpoints[-1], expect_spec=TINY)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(loaded.tensors, params.tensors))
        csv = tmp_path / "log.csv"
        log.write_csv(csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "epoch,l_c,l_r,l_bce,l_total,train_acc,seconds"
        assert len(lines) == 5

    def test_row_totals_consistent(self, tmp_path):
        pairs = make_pairs(tmp_path, 3, 3)
        _, log, _ = train(build_network(TINY, seed=0), pairs, fast_cfg(epochs=2))
        for r in log.rows:
            assert r.l_total == pytest.approx(r.l_c + r.l_r + r.l_bce, abs=1e-9)
            assert 0.0 <= r.train_acc <= 1.0

    def test_deterministic_given_seed(self, tmp_path):
        pairs = make_pairs(tmp_path, 3, 3)
        cfg = fast_cfg(epochs=2, augment=AugmentConfig())
        p1, log1, _ = train(build_network(TINY, seed=1), pairs, cfg)
        p2, log2, _ = train(build_network(TINY, seed=1), pairs, cfg)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(p1.tensors, p2.tensors))
        strip = lambda log: [(r.epoch, r.l_c, r.l_r, r.l_bce, r.l_total, r.train_acc)
                             for r in log.rows]
        assert strip(log1) == strip(log2)

    def test_frozen_tensors_bitwise_after_training(self, tmp_path):
        pairs = make_pairs(tmp_path, 3, 3)
        params = freeze_prefix(build_network(TINY, seed=0), 2)
        frozen_before = [t.data.copy() for t, f in zip(params.tensors, params.freeze) if f]
        live_before = params.tensors[-2].data.copy()
        params, _, _ = train(params, pairs, fast_cfg(epochs=2))
        frozen = [t for t, f in zip(params.tensors, params.freeze) if f]
        assert all(np.array_equal(t.data, b) for t, b in zip(frozen, frozen_before))
        assert not np.array_equal(params.tensors[-2].data, live_before)

    def test_loss_decreases_on_fixed_batch(self, tmp_path):
        # single batch, no augmentation: SGD should descend most epochs
        pairs = make_pairs(tmp_path, 2, 2)
        cfg = fast_cfg(epochs=50, batch_size=4, lr=1e-2)
        _, log, _ = train(build_network(TINY, seed=0), pairs, cfg)
        totals = [r.l_total for r in log.rows]
        drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a + 1e-12)
        assert drops >= 45
        assert totals[-1] < totals[0]

    def test_contrastive_only_leaves_head_untrained(self, tmp_path):
        # without L_R and L_BCE no gradient reaches the head layers
        pairs = make_pairs(tmp_path, 2, 2)
        params = build_network(TINY, seed=0)
        head_before = [t.data.copy() for t in params.tensors[-4:]]
        conv_before = params.tensors[0].data.copy()
        cfg = fast_cfg(epochs=2, loss=LossConfig(enable_lr=False, enable_lbce=False))
        params, log, _ = train(params, pairs, cfg)
        assert all(np.array_equal(t.data, b)
                   for t, b in zip(params.tensors[-4:], head_before))
        assert not np.array_equal(params.tensors[0].data, conv_before)
        assert all(r.l_r == 0.0 and r.l_bce == 0.0 for r in log.rows)

    def test_all_frozen_mask_runs_without_update(self, tmp_path):
        params = build_network(TINY, seed=0)
        params.freeze = [True] * len(params.tensors)
        before = [t.data.tobytes() for t in params.tensors]
        out = tmp_path / "run"
        out.mkdir()
        _, log, checkpoints = train(params, make_pairs(tmp_path, 2, 2), fast_cfg(epochs=1),
                                    out_dir=out)
        assert len(log.rows) == 1
        saved = load_params(checkpoints[-1], expect_spec=TINY)
        assert [t.data.tobytes() for t in saved.tensors] == before

    def test_empty_pairs_rejected(self):
        with pytest.raises(ConfigError):
            train(build_network(TINY, seed=0), [], fast_cfg())

    def test_numeric_abort_keeps_checkpoint(self, tmp_path):
        pairs = make_pairs(tmp_path, 2, 2)
        params = build_network(TINY, seed=0)
        # poison a weight so the forward pass overflows to non-finite loss
        params.tensors[0].data[:] = 1e200
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            train(params, pairs, fast_cfg(epochs=1), out_dir=out)
        assert (out / "checkpoint_abort.dgnet").exists()
        assert not (out / "checkpoint_0.dgnet").exists()

    def test_numeric_abort_checkpoint_is_last_completed_step(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from siamverify import trainer

        real, calls, after_step_2 = trainer.pair_batch_loss, [], []

        def nan_on_third_batch(params, batch, cfg, g=None):
            calls.append(1)
            bd = real(params, batch, cfg, g)
            if len(calls) < 3:
                return bd
            after_step_2.extend(t.data.copy() for t in params.tensors)
            return replace(bd, l_total=float("nan"))

        monkeypatch.setattr(trainer, "pair_batch_loss", nan_on_third_batch)
        pairs = make_pairs(tmp_path, 3, 3)
        params = build_network(TINY, seed=0)
        initial = [t.data.copy() for t in params.tensors]
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(NumericError):
            train(params, pairs, fast_cfg(epochs=1, batch_size=2), out_dir=out)
        saved = load_params(out / "checkpoint_abort.dgnet", expect_spec=TINY)
        assert len(calls) == 3
        assert not all(np.array_equal(a, b) for a, b in zip(after_step_2, initial))
        assert all(np.array_equal(t.data, b) for t, b in zip(saved.tensors, after_step_2))


class TestTrainAppliesConfig:
    def test_freeze_k_applied(self, tmp_path):
        params = build_network(TINY, seed=0)
        assert not any(params.freeze)
        before = [t.data.copy() for t in params.tensors]
        params, _, _ = train(params, make_pairs(tmp_path, 3, 3), fast_cfg(epochs=2, freeze_k=2))
        assert params.freeze[:4] == [True] * 4 and not any(params.freeze[4:])
        assert all(t.data.tobytes() == b.tobytes() for t, b in zip(params.tensors[:4], before))
        assert not np.array_equal(params.tensors[4].data, before[4])

    def test_freeze_k_none_keeps_mask(self, tmp_path):
        params = freeze_prefix(build_network(TINY, seed=0), 1)
        mask = list(params.freeze)
        before = [t.data.copy() for t in params.tensors[:2]]
        params, _, _ = train(params, make_pairs(tmp_path, 3, 3), fast_cfg(epochs=1))
        assert params.freeze == mask
        assert all(t.data.tobytes() == b.tobytes() for t, b in zip(params.tensors[:2], before))

    def _loss_weights(self, tmp_path, monkeypatch, cfg):
        from siamverify import trainer

        real, seen = trainer.pair_batch_loss, []

        def capture(params, batch, loss_cfg, g=None):
            seen.append((loss_cfg.w_pos, loss_cfg.w_neg))
            return real(params, batch, loss_cfg, g)

        monkeypatch.setattr(trainer, "pair_batch_loss", capture)
        train(build_network(TINY, seed=0), make_pairs(tmp_path, 6, 4), cfg)
        return seen

    def test_class_weights_every_epoch(self, tmp_path, monkeypatch):
        # 6 positive / 4 negative pairs, 3 batches per epoch
        seen = self._loss_weights(tmp_path, monkeypatch, fast_cfg(epochs=2))
        assert seen == [(10 / 12, 10 / 8)] * 6

    def test_given_weights_used_without_balance(self, tmp_path, monkeypatch):
        cfg = fast_cfg(epochs=2, class_balance=False, loss=LossConfig(w_pos=3.0, w_neg=0.5))
        seen = self._loss_weights(tmp_path, monkeypatch, cfg)
        assert seen == [(3.0, 0.5)] * 6

    def test_zero_epochs_single_class_raises_nothing(self, tmp_path):
        _, log, _ = train(build_network(TINY, seed=0), make_pairs(tmp_path, 2, 0),
                          fast_cfg(epochs=0))
        assert log.rows == []


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 2.5), ("epochs", float("inf")), ("epochs", True), ("seed", 1.0),
        ("checkpoint_every", "1"), ("freeze_k", 1.5), ("freeze_k", False),
    ])
    def test_counts_are_ints(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("freeze_k", -3), ("epochs", -1), ("checkpoint_every", -1),
    ])
    def test_negative_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be >= 0, got {value}"):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field,value,needle", [
        ("lr", "0.1", "lr must be a finite"), ("lr", True, "lr must be a finite"),
        pytest.param("lr", 10 ** 400, "lr must be a finite", id="lr-10**400"),
        ("class_balance", "no", "class_balance must be"), ("loss", None, "loss must be"),
        ("augment", None, "augment must be"),
    ])
    def test_mistyped_fields_rejected(self, field, value, needle):
        with pytest.raises(ConfigError, match=needle):
            TrainConfig(**{field: value})

    def test_negative_checkpoint_every(self):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            TrainConfig(checkpoint_every=-1)
        assert TrainConfig(checkpoint_every=0).checkpoint_every == 0


class TestSettings:
    def test_apply_then_report_round_trips(self):
        settings = {"lr": 0.01, "epochs": 3, "batch_size": 2, "freeze_k": None, "seed": 4,
                    "checkpoint_every": 1, "class_balance": False, "augment": False,
                    "margin": 0.3, "enable_lr": False, "enable_lbce": False}
        cfg = apply_settings(TrainConfig(), settings)
        assert settings_of(cfg) == settings
        assert cfg.augment == NO_AUGMENT and cfg.loss.margin == 0.3

    def test_empty_settings_keep_the_config(self):
        cfg = fast_cfg(loss=LossConfig(w_pos=2.0))
        assert apply_settings(cfg, {}) == cfg

    def test_augment_true_keeps_the_configs_augmentation(self):
        custom = AugmentConfig(gaussian_sigma=0.01, flip_prob=0.0)
        assert apply_settings(fast_cfg(augment=custom), {"augment": True}).augment == custom
        assert apply_settings(fast_cfg(augment=NO_AUG), {"augment": True}).augment == \
            AugmentConfig()

    @pytest.mark.parametrize("settings,needle", [
        ({"epoch": 2}, "'epoch'"), ({"w_pos": 2.0}, "'w_pos'"), ({"loss": None}, "'loss'"),
        ({"enable_lr": "false"}, "'enable_lr'"), ({"augment": 1}, "'augment'"),
        ({"epochs": True}, "'epochs'"), ({"epochs": 2.0}, "'epochs'"),
        ({"lr": "0.1"}, "'lr'"), ({"freeze_k": 1.0}, "'freeze_k'"),
        ({"margin": 2.0}, "margin"),
        ({"lr": float("inf")}, "lr must be a finite"),
        ({"lr": float("-inf")}, "lr must be a finite"),
        ({"lr": float("nan")}, "lr must be a finite"),
        pytest.param({"lr": 10 ** 400}, "lr must be a finite", id="lr-10**400"),
    ])
    def test_rejected(self, settings, needle):
        with pytest.raises(ConfigError, match=needle):
            apply_settings(TrainConfig(), settings)
