"""Loss oracles: hand values, straight-line re-implementation, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamverify import (Graph, LossConfig, Tensor, bce_loss, class_weights,
                        contrastive_loss, cosine_distance, cosine_similarity,
                        grad_check, mse_loss, total_loss)
from siamverify import losses, ops
from siamverify.errors import ConfigError, DomainError, ShapeError

UNIT = LossConfig(margin=0.5)


def straight_line_total(d, p, y, margin, w_pos, w_neg, enable_lr, enable_lbce, eps=1e-7):
    """Independent scalar-loop re-implementation of all loss components."""
    b = len(d)
    l_c = l_r = l_bce = 0.0
    for i in range(b):
        w = w_pos if y[i] == 1 else w_neg
        hinge = max(margin - d[i], 0.0)
        l_c += w * (y[i] * d[i] ** 2 + (1 - y[i]) * hinge ** 2)
        l_r += w * (y[i] - p[i]) ** 2
        pc = min(max(p[i], eps), 1 - eps)
        l_bce += -w * (y[i] * np.log(pc) + (1 - y[i]) * np.log(1 - pc))
    l_c /= 2 * b
    l_r /= b
    l_bce /= b
    total = l_c + (l_r if enable_lr else 0.0) + (l_bce if enable_lbce else 0.0)
    return l_c, l_r, l_bce, total


class TestCosine:
    def test_identical_vectors(self):
        a = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(a, a).item() == pytest.approx(1.0)
        assert cosine_distance(a, a).item() == pytest.approx(0.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item() == 0.0
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item() == 1.0

    def test_hand_value(self):
        s = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0])).item()
        assert s == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector_convention(self):
        z = np.zeros(3)
        assert cosine_similarity(z, np.array([1.0, 2.0, 3.0])).item() == 0.0
        assert cosine_distance(z, np.array([1.0, 2.0, 3.0])).item() == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("zero_rows", [(), (2,), (0, 2, 4)])
    def test_rows_equal_vector_calls(self, zero_rows):
        """One score per row, each with its vector call's bits, recorded or not; a ~0
        norm row scores +0.0 and gets zero gradient, and every other row's gradient
        has its vector call's bits."""
        rng = np.random.default_rng(6)
        a, b = rng.random((5, 33)), rng.random((5, 33))
        a[list(zero_rows)] = 0.0
        go = rng.standard_normal(5)

        def run(xa, xb, gd):
            ta, tb = Tensor(xa), Tensor(xb)
            g = Graph([ta, tb])
            score = cosine_similarity(ta, tb, g)
            grads = g.backward(ops.tsum(g, ops.mul(g, score, Tensor(gd))))
            return score.data, grads[ta], grads[tb]

        rows = cosine_similarity(a, b).data
        recorded, grad_a, grad_b = run(a, b, go)
        vectors = [run(x, y, gd) for x, y, gd in zip(a, b, go)]
        assert rows.shape == (5,)
        assert rows.tobytes() == recorded.tobytes() == np.array(
            [cosine_similarity(x, y).item() for x, y in zip(a, b)]).tobytes()
        assert rows[list(zero_rows)].tobytes() == np.zeros(len(zero_rows)).tobytes()
        for i, (_, va, vb) in enumerate(vectors):
            if i in zero_rows:
                assert not grad_a[i].any() and not grad_b[i].any()
            else:
                assert grad_a[i].tobytes() == va.tobytes()
                assert grad_b[i].tobytes() == vb.tobytes()

    def test_norms_straddling_eps(self):
        """A row scores +0.0, with no gradient, exactly when either side's
        ``np.linalg.norm`` is below ``_NORM_EPS``; rows just below, at and just
        above it fall on both sides."""
        rng = np.random.default_rng(8)
        eps = losses._NORM_EPS
        small = []
        for s in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
            small += [np.array([s, 0.0, 0.0, 0.0]), np.full(4, s / 2.0)]
            u = rng.random(4)
            small.append(u / np.linalg.norm(u) * s)
        big = list(rng.random((len(small), 4)) + 0.5)
        a, b = np.array(small + big), np.array(big + small)
        degenerate = ((np.linalg.norm(a, axis=-1) < eps)
                      | (np.linalg.norm(b, axis=-1) < eps))
        assert degenerate[0:9:3].tolist() == [True, False, False]  # the [s, 0, 0, 0] rows
        ta, tb = Tensor(a), Tensor(b)
        g = Graph([ta, tb])
        score = cosine_similarity(ta, tb, g)
        grads = g.backward(ops.tsum(g, score))
        assert score.data.tobytes() == cosine_similarity(a, b).data.tobytes()
        assert ((score.data == 0.0) == degenerate).all()
        assert score.data[degenerate].tobytes() == np.zeros(degenerate.sum()).tobytes()
        assert not grads[ta][degenerate].any() and not grads[tb][degenerate].any()
        live = ~degenerate
        assert grads[ta][live].any(axis=-1).all() and grads[tb][live].any(axis=-1).all()

    def test_rows_rejects_3d(self):
        with pytest.raises(ShapeError):
            cosine_similarity(np.ones((2, 2, 3)), np.ones((2, 2, 3)))


class TestContrastive:
    def test_perfect_positive(self):
        assert contrastive_loss(np.array([0.0]), np.array([1.0]), UNIT).item() == 0.0

    def test_satisfied_margin(self):
        assert contrastive_loss(np.array([0.7]), np.array([0.0]), UNIT).item() == 0.0

    def test_hand_values(self):
        assert contrastive_loss(np.array([0.3]), np.array([1.0]), UNIT).item() \
            == pytest.approx(0.045, abs=1e-12)
        l = contrastive_loss(np.array([0.2, 0.1]), np.array([1.0, 0.0]), UNIT).item()
        assert l == pytest.approx(0.05, abs=1e-12)

    def test_class_weighting(self):
        cfg = LossConfig(margin=0.5, w_pos=0.75, w_neg=1.5)
        l = contrastive_loss(np.array([0.2, 0.1]), np.array([1.0, 0.0]), cfg).item()
        expected = (0.75 * 0.04 + 1.5 * 0.16) / 4
        assert l == pytest.approx(expected, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ConfigError):
            contrastive_loss(np.array([]), np.array([]), UNIT)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            contrastive_loss(np.array([1.5]), np.array([1.0]), UNIT)

    def test_margin_zero_excluded_by_config(self):
        with pytest.raises(ConfigError):
            LossConfig(margin=0.0)

    @pytest.mark.parametrize("w_pos,w_neg", [(np.nan, 1.0), (1.0, np.inf), (np.nan, np.inf),
                                             (0.0, 1.0), (1.0, -2.0), ("1", 1.0), (True, 1.0),
                                             pytest.param(1.0, 10 ** 400, id="1.0-10**400")])
    def test_class_weights_finite_and_positive(self, w_pos, w_neg):
        with pytest.raises(ConfigError, match="class weights"):
            LossConfig(w_pos=w_pos, w_neg=w_neg)

    @pytest.mark.parametrize("field,value,needle", [
        ("margin", "0.5", "margin must be"), ("margin", True, "margin must be"),
        ("enable_lr", "no", "enable_lr and enable_lbce must be bools"),
        ("enable_lbce", 1, "enable_lr and enable_lbce must be bools")])
    def test_mistyped_config_rejected(self, field, value, needle):
        with pytest.raises(ConfigError, match=needle):
            LossConfig(**{field: value})

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_positives_zero_negatives_past_margin(self, ds, data):
        ys = data.draw(st.lists(st.integers(0, 1), min_size=len(ds), max_size=len(ds)))
        d = np.array(ds)
        y = np.array(ys, dtype=float)
        l = contrastive_loss(d, y, UNIT).item()
        # squaring underflows to exactly 0.0 for |x| below ~1.5e-154
        satisfied = all((yi == 1 and di * di == 0.0)
                        or (yi == 0 and max(0.5 - di, 0.0) ** 2 == 0.0)
                        for di, yi in zip(ds, ys))
        assert (l == 0.0) == satisfied

    def test_monotonicity(self):
        grid = np.linspace(0, 1, 21)
        pos = [contrastive_loss(np.array([d]), np.array([1.0]), UNIT).item() for d in grid]
        neg = [contrastive_loss(np.array([d]), np.array([0.0]), UNIT).item() for d in grid]
        assert all(a <= b + 1e-15 for a, b in zip(pos, pos[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(neg, neg[1:]))


class TestMse:
    def test_exact_fit(self):
        assert mse_loss(np.array([1.0]), np.array([1.0]), UNIT).item() == 0.0

    def test_hand_values(self):
        assert mse_loss(np.array([0.5]), np.array([0.0]), UNIT).item() \
            == pytest.approx(0.25, abs=1e-12)
        l = mse_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]), UNIT).item()
        assert l == pytest.approx(0.025, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.array([0.5, 0.5]), np.array([1.0]), UNIT)


class TestBce:
    def test_hand_values(self):
        assert bce_loss(np.array([0.5]), np.array([1.0]), UNIT).item() \
            == pytest.approx(np.log(2), abs=1e-12)
        l = bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]), UNIT).item()
        assert l == pytest.approx(np.log(2), abs=1e-12)

    def test_clamp_behavior(self):
        l = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), UNIT).item()
        assert 0 < l <= -np.log(1 - 1e-7) + 1e-15


class TestClassWeights:
    def test_balanced(self):
        assert class_weights(5, 5) == (1.0, 1.0)

    def test_hand_value(self):
        assert class_weights(6, 3) == (0.75, 1.5)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            class_weights(4, 0)

    @given(st.integers(1, 1000), st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_weighted_counts_balance(self, n_pos, n_neg):
        w_pos, w_neg = class_weights(n_pos, n_neg)
        assert w_pos * n_pos == pytest.approx(w_neg * n_neg)
        assert (w_pos * n_pos + w_neg * n_neg) / (n_pos + n_neg) == pytest.approx(1.0)


class TestTotal:
    def test_component_sum(self):
        d = np.array([0.3, 0.2, 0.1])
        p = np.array([0.6, 0.9, 0.2])
        y = np.array([1.0, 1.0, 0.0])
        bd = total_loss(d, p, y, UNIT)
        assert bd.l_total == pytest.approx(bd.l_c + bd.l_r + bd.l_bce, abs=1e-12)

    @pytest.mark.parametrize("shapes", [((3,), (3,), ()), ((3,), (3,), (4,)),
                                        ((3,), (2,), (3,)), ((2,), (3,), (3,)),
                                        ((3,), (), (3,))])
    @pytest.mark.parametrize("switches", [(True, True), (False, False)])
    def test_misaligned_batch_is_a_shape_error(self, shapes, switches):
        """Checked whether or not a component reads ``p``."""
        d, p, y = (np.full(s, 0.5) for s in shapes)
        cfg = LossConfig(enable_lr=switches[0], enable_lbce=switches[1])
        with pytest.raises(ShapeError):
            total_loss(d, p, y, cfg)

    def test_hand_sum(self):
        # components 0.045, 0.025, ln 2 from single-op oracles
        bd = total_loss(np.array([0.3, 0.3]), np.array([0.9, 0.2]),
                        np.array([1.0, 0.0]), UNIT)
        exp = straight_line_total([0.3, 0.3], [0.9, 0.2], [1, 0], 0.5, 1, 1, True, True)
        assert bd.l_total == pytest.approx(exp[3], abs=1e-12)

    def test_ablation_contrastive_only(self):
        cfg = LossConfig(margin=0.5, enable_lr=False, enable_lbce=False)
        d = np.array([0.3, 0.1])
        p = np.array([0.6, 0.4])
        y = np.array([1.0, 0.0])
        bd = total_loss(d, p, y, cfg)
        assert bd.l_r == 0.0 and bd.l_bce == 0.0
        assert bd.l_total == contrastive_loss(d, y, cfg).item()

    def test_all_perfect_near_zero(self):
        bd = total_loss(np.array([0.0, 0.9]), np.array([1.0, 0.0]),
                        np.array([1.0, 0.0]), UNIT)
        assert bd.l_total < 1e-6

    @pytest.mark.parametrize("seed", range(100))
    def test_random_batches_match_straight_line(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 17))
        d = rng.random(b)
        p = rng.uniform(1e-4, 1 - 1e-4, b)
        y = rng.integers(0, 2, b).astype(float)
        margin = float(rng.uniform(0.05, 1.0))
        w_pos = float(rng.uniform(0.2, 3.0))
        w_neg = float(rng.uniform(0.2, 3.0))
        enable_lr = bool(rng.integers(0, 2))
        enable_lbce = bool(rng.integers(0, 2))
        cfg = LossConfig(margin=margin, w_pos=w_pos, w_neg=w_neg,
                         enable_lr=enable_lr, enable_lbce=enable_lbce)
        bd = total_loss(d, p, y, cfg)
        exp = straight_line_total(d, p, y, margin, w_pos, w_neg, enable_lr, enable_lbce)
        assert bd.l_c == pytest.approx(exp[0], abs=1e-12)
        if enable_lr:
            assert bd.l_r == pytest.approx(exp[1], abs=1e-12)
        if enable_lbce:
            assert bd.l_bce == pytest.approx(exp[2], abs=1e-12)
        assert bd.l_total == pytest.approx(exp[3], abs=1e-12)


class TestLossGradients:
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3])
    def test_contrastive_gradient_near_hinge(self, offset):
        cfg = LossConfig(margin=0.5)
        d = Tensor(np.array([0.5 + offset, 0.2]))
        y = np.array([0.0, 1.0])
        err = grad_check(lambda g: contrastive_loss(d, y, cfg, g), [d], eps=1e-5).max_relative_error
        assert err < 1e-4

    def test_hinge_boundary_subgradient_zero(self):
        cfg = LossConfig(margin=0.5)
        d = Tensor(np.array([0.5]))
        g = Graph([d])
        out = contrastive_loss(d, np.array([0.0]), cfg, g)
        assert g.backward(out)[d][0] == 0.0

    def test_gradients_through_embeddings_and_head(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(0.1, 1.0, 8))
        b = Tensor(rng.uniform(0.1, 1.0, 8))
        p = Tensor(np.array([0.37]))
        cfg = LossConfig(margin=0.5)

        def loss_fn(g):
            d = ops.stack(g, [cosine_distance(a, b, g)])
            return total_loss(d, p, np.array([0.0]), cfg, g).total_node

        assert grad_check(loss_fn, [a, b, p], eps=1e-5).max_relative_error < 1e-4
