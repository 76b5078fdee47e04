"""Tensor core: forward primitives, backward pass, finite-difference checks."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamverify import Graph, NetworkSpec, Tensor, build_network, forward_embedding, grad_check
from siamverify import ops
from siamverify.errors import ConfigError, NumericError, ShapeError, StateError
from siamverify.gradcheck import GradCheckResult, _kink_signature
from sums import assert_within_summation_bound


class TestConv2d:
    def test_identity_centre_tap_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 5, 5)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ops.conv2d(None, x, Tensor(k), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_cross_correlation(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 2, 2] = 1.0
        out = ops.conv2d(None, x, Tensor(k), Tensor(np.zeros(1)))
        # cross-correlation, no kernel flip: output (r, c) reads padded input (r + 2, c + 2),
        # so each output takes the pixel below and to its right, and zero past the edge
        np.testing.assert_array_equal(out.data, [[[4.0, 0.0], [0.0, 0.0]]])

    def test_zero_kernel_gives_bias(self):
        x = Tensor(np.random.default_rng(1).random((2, 4, 4)))
        k = Tensor(np.zeros((3, 2, 3, 3)))
        b = Tensor([1.0, -2.0, 0.5])
        out = ops.conv2d(None, x, k, b)
        for c, v in enumerate(b.data):
            np.testing.assert_array_equal(out.data[c], np.full((4, 4), v))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(None, Tensor(np.zeros((2, 4, 4))),
                       Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("kh,kw", [(1, 1), (5, 5), (3, 2)])
    def test_kernels_not_3x3_raise(self, kh, kw):
        with pytest.raises(ShapeError, match=rf"\(1, 1, {kh}, {kw}\)"):
            ops.conv2d(None, Tensor(np.zeros((1, 6, 6))),
                       Tensor(np.zeros((1, 1, kh, kw))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (1, 0, 4), (1, 4, 0)])
    def test_empty_input_raises(self, shape):
        with pytest.raises(ShapeError):
            ops.conv2d(None, Tensor(np.zeros(shape)),
                       Tensor(np.zeros((1, shape[0], 3, 3))), Tensor(np.zeros(1)))


def _whole_layer_conv(x, k, b, stride, pad, go):
    """Reference: one whole-layer im2col conv, forward and parameter gradients for ``go``.

    Returns (y, dk, db).
    """
    cin = x.shape[0]
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    cols = np.empty((cin, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
    cols = cols.reshape(cin * kh * kw, ho * wo)
    kmat = k.reshape(cout, -1)
    y = (kmat @ cols).reshape(cout, ho, wo) + b[:, None, None]
    gmat = go.reshape(cout, -1)
    return y, (gmat @ cols.T).reshape(k.shape), gmat.sum(axis=1)


def _dx_terms(k, go):
    """The cout * 9 products whose sum is a 3x3, pad-1 conv's input gradient for ``go``.

    Product (o, i, j) at input pixel (c, r, s) is k[o, c, i, j] times ``go`` at
    output pixel (o, r + 1 - i, s + 1 - j), or zero past the edge.
    """
    cout, (h, w) = k.shape[0], go.shape[1:]
    gop = np.pad(go, ((0, 0), (1, 1), (1, 1)))
    return [k[o, :, i, j, None, None] * gop[o, None, 2 - i:2 - i + h, 2 - j:2 - j + w]
            for o in range(cout) for i in range(3) for j in range(3)]


class TestConv2dBands:
    """Banded im2col gives the whole-layer conv's bytes, forward and parameter gradients."""

    @pytest.mark.parametrize("cin,extra_row", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("rows", [1, 2, 3, None])  # None: the default budget, one band
    def test_bands_match_whole_layer(self, monkeypatch, cin, extra_row, rows):
        # bitwise equality holds for these small 1- or 2->3-channel, 8-column-wide
        # convs on the BLAS builds tried; it is no general rule: other banded shapes
        # (an 8->14-channel conv 27 columns wide in 8-row bands) move the last bits
        w = 8
        rng = np.random.default_rng(10 * cin + extra_row)
        xv = rng.standard_normal((cin, 12 + extra_row, w))
        kv, bv = rng.standard_normal((3, cin, 3, 3)), rng.standard_normal(3)
        if rows is not None:
            # 2, 3: 12 rows split into whole bands; with the extra row the last band
            # is shorter, as 13 rows are no multiple of either
            monkeypatch.setattr(ops, "_COLS_BYTES", rows * 8 * cin * 3 * 3 * w)
        x, k, b = Tensor(xv), Tensor(kv), Tensor(bv)
        g = Graph([x, k, b])
        out = ops.conv2d(g, x, k, b)
        go = rng.standard_normal(out.shape)
        grads = g.backward(ops.tsum(g, ops.mul(g, out, Tensor(go))))
        y, dk, db = _whole_layer_conv(xv, kv, bv, 1, 1, go)
        for got, ref in zip((out.data, grads[k], grads[b]), (y, dk, db)):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        # the input gradient is a correlation of its own, summed in its own order
        assert_within_summation_bound(_dx_terms(kv, go), grads[x])

    @pytest.mark.parametrize("cin,extra_row", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("rows", [1, 2, 3, None])  # None: the default budget, one band
    def test_input_gradient_is_the_flipped_kernels_forward(self, monkeypatch, cin, extra_row,
                                                          rows):
        # the input gradient of a stride-1, pad-1 correlation is the correlation
        # of the output gradient with each kernel turned 180 degrees and its in
        # and out channels swapped (Dumoulin and Visin 2016, sec. 4)
        w = 8
        rng = np.random.default_rng(10 * cin + extra_row)
        xv = rng.standard_normal((cin, 12 + extra_row, w))
        kv, bv = rng.standard_normal((3, cin, 3, 3)), rng.standard_normal(3)
        if rows is not None:
            monkeypatch.setattr(ops, "_COLS_BYTES", rows * 8 * cin * 3 * 3 * w)
        go = rng.standard_normal((3, 12 + extra_row, w))
        _, dx, _, _ = _conv_closure(xv, kv, bv, go)
        flipped = np.ascontiguousarray(kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        want = ops.conv2d(None, Tensor(go), Tensor(flipped), Tensor(np.zeros(cin)))
        np.testing.assert_array_equal(dx, want.data)

    def test_recorded_conv_keeps_padded_input_not_columns(self):
        # the 9x column matrix of a 3x3 conv must not wait on the tape for backward
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 64, 64)))
        k, b = Tensor(rng.standard_normal((64, 64, 3, 3))), Tensor(np.zeros(64))
        g = Graph([x, k, b])
        tracemalloc.start()
        try:
            out = ops.conv2d(g, x, k, b)
            retained = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert retained < 2 * (64 * 66 * 66 * 8)
        grads = g.backward(ops.tsum(g, out))
        assert grads[x].shape == x.shape and grads[k].shape == k.shape

    @pytest.mark.parametrize("extra_col", [0, 1])  # 1: a 7x8 input, height != width
    def test_unkept_input_gets_no_gradient(self, monkeypatch, extra_col):
        # an input the tape does not keep gets None from the closure, and backward
        # runs no correlation for it; the kernel and bias gradients keep their bytes
        rng = np.random.default_rng(extra_col)
        xv, kv, bv = (rng.standard_normal((2, 7, 7 + extra_col)),
                      rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3))
        go = rng.standard_normal((3, 7, 7 + extra_col))
        calls = []
        correlate = ops._correlate
        monkeypatch.setattr(ops, "_correlate", lambda *a: calls.append(a) or correlate(*a))

        def closure_grads(wrt_x):
            x, k, b = Tensor(xv), Tensor(kv), Tensor(bv)
            g = Graph([x, k, b] if wrt_x else [k, b])
            ops.conv2d(g, x, k, b)
            assert len(calls) == 1  # the forward's
            (_, _, backward_fn, _), = g.nodes
            grads = backward_fn(go)
            assert len(calls) == 1 + wrt_x
            calls.clear()
            return grads

        dx, dk, db = closure_grads(False)
        assert dx is None
        want_dx, want_dk, want_db = closure_grads(True)
        assert want_dx.shape == xv.shape
        assert dk.tobytes() == want_dk.tobytes() and db.tobytes() == want_db.tobytes()


def _conv_closure(xv, kv, bv, go):
    """(output, dx, dk, db) of one recorded conv2d and its backward closure for ``go``."""
    x, k, b = Tensor(xv), Tensor(kv), Tensor(bv)
    g = Graph([x, k, b])
    out = ops.conv2d(g, x, k, b)
    (_, _, backward_fn, _), = g.nodes
    return (out.data, *backward_fn(go))


class TestConv2dStack:
    """n images' channels back to back run as n one-image convs would."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), cin=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
           rows=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2 ** 32 - 1))
    def test_images_keep_their_bits(self, n, cin, h, w, rows, seed):
        # rows: a forward band of that many output rows; None: the default budget, one band
        rng = np.random.default_rng(seed)
        cout = 2
        xv, go = rng.standard_normal((n * cin, h, w)), rng.standard_normal((n * cout, h, w))
        kv, bv = rng.standard_normal((cout, cin, 3, 3)), rng.standard_normal(cout)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(ops, "_COLS_BYTES", rows * 8 * cin * 3 * 3 * w)
            y, dx, dk, db = _conv_closure(xv, kv, bv, go)
            alone = [_conv_closure(xv[i * cin:(i + 1) * cin], kv, bv, go[i * cout:(i + 1) * cout])
                     for i in range(n)]
        assert y.shape == go.shape and dx.shape == xv.shape
        for i, (yi, dxi, _, _) in enumerate(alone):
            assert y[i * cout:(i + 1) * cout].tobytes() == yi.tobytes()
            assert dx[i * cin:(i + 1) * cin].tobytes() == dxi.tobytes()
        # the kernel and bias gradients are the stack's sums of the one-image terms
        assert_within_summation_bound([dki for _, _, dki, _ in alone], dk)
        assert_within_summation_bound([dbi for _, _, _, dbi in alone], db)

    @pytest.mark.parametrize("channels,cin", [(3, 2), (5, 2), (0, 2), (2, 0)])
    def test_channels_not_a_multiple_of_cin_raise(self, channels, cin):
        with pytest.raises(ShapeError):
            ops.conv2d(None, Tensor(np.zeros((channels, 4, 4))),
                       Tensor(np.zeros((1, cin, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_embedding_rows_are_the_images_embedded_alone(self, n):
        spec = NetworkSpec.tiny()
        params = build_network(spec, seed=1)
        xs = np.random.default_rng(n).random((n, *spec.input_shape))
        rows = forward_embedding(params, Tensor(xs)).data
        assert rows.shape == (n, spec.fc[1])
        assert rows.tobytes() == np.stack(
            [forward_embedding(params, Tensor(x)).data for x in xs]).tobytes()

    @pytest.mark.parametrize("shape", [(0, 1, 32, 32), (2, 2, 32, 32), (1, 1, 1, 32, 32)])
    def test_embedding_of_an_empty_or_misshapen_stack_raises(self, shape):
        with pytest.raises(ShapeError):
            forward_embedding(build_network(NetworkSpec.tiny(), seed=1), Tensor(np.zeros(shape)))


class TestPrimitives:
    def test_relu_definition(self):
        out = ops.relu(None, Tensor([-2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_relu_idempotent(self):
        x = Tensor(np.random.default_rng(2).standard_normal(50))
        once = ops.relu(None, x)
        twice = ops.relu(None, once)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_maxpool_hand(self):
        out = ops.maxpool2(None, Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out.data, [[[4.0]]])

    def test_maxpool_window_permutation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.random((1, 2, 2))
        expected = ops.maxpool2(None, Tensor(x)).data
        for perm in range(4):
            shuffled = x.reshape(4).copy()
            rng.shuffle(shuffled)
            out = ops.maxpool2(None, Tensor(shuffled.reshape(1, 2, 2)))
            np.testing.assert_array_equal(out.data, expected)

    def test_maxpool_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            ops.maxpool2(None, Tensor(np.zeros((1, 3, 4))))

    @staticmethod
    def _ties_and_nans(seed):
        """Small integers with signed zeros, so windows tie, plus NaN in some windows."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, (3, 6, 8)).astype(np.float64)
        x[rng.random(x.shape) < 0.15] = -0.0
        x[rng.random(x.shape) < 0.1] = np.nan
        return x

    @staticmethod
    def _windows(x):
        c, h, w = x.shape
        return x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
            c, h // 2, w // 2, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_maxpool_unrecorded_forward_equals_recorded(self, seed):
        x = Tensor(self._ties_and_nans(seed))
        g = Graph([x])
        recorded = ops.maxpool2(g, x)
        assert len(g) == 1
        unkept = Graph([Tensor(0.0)])
        for out in (ops.maxpool2(None, x), ops.maxpool2(unkept, x)):
            assert out.data.tobytes() == recorded.data.tobytes()
        assert len(unkept) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_maxpool_pattern_and_backward_follow_window_argmax(self, seed):
        xv = self._ties_and_nans(seed)
        x = Tensor(xv)
        g = Graph([x])
        out = ops.maxpool2(g, x)
        (_, _, backward_fn, pattern), = g.nodes
        win = self._windows(xv)
        want = win.argmax(axis=-1)  # first maximum, first NaN
        assert pattern.dtype == np.uint8 and np.array_equal(pattern, want.astype(np.uint8))
        picked = np.take_along_axis(win, want[..., None], axis=-1)[..., 0]
        assert out.data.tobytes() == picked.tobytes()
        go = np.random.default_rng(seed + 100).standard_normal(out.shape)
        dx, = backward_fn(go)
        c, h, w = xv.shape
        routed = np.zeros(win.shape)
        np.put_along_axis(routed, want[..., None], go[..., None], axis=-1)
        routed = routed.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4)
        assert dx.tobytes() == routed.reshape(c, h, w).tobytes()

    def test_sigmoid_symmetry_point(self):
        assert ops.sigmoid(None, Tensor(0.0)).item() == 0.5

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(None, Tensor(np.zeros(4)), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("x_shape", [(2, 3, 5), (2, 4), (4,)])
    def test_linear_rows_shape_checked(self, x_shape):
        with pytest.raises(ShapeError):
            ops.linear(None, Tensor(np.zeros(x_shape)), Tensor(np.zeros((3, 5))),
                       Tensor(np.zeros(3)))

    @pytest.mark.parametrize("m, k, n", [(16, 32, 5), (1, 16, 7), (64, 1024, 3),
                                         (1, 16, 8), (1, 3, 40), (4, 9, 12)])
    def test_linear_rows_bitwise_equal_vector_calls(self, m, k, n):
        """Rows have the bits of n vector calls on one tape in the outputs and
        the input-gradient rows.  dW and db, on both paths, are sums of the
        rows' terms (outer(go_i, x_i) and go_i) within the summation bound."""
        rng = np.random.default_rng(m + k + n)
        w, b = Tensor(rng.standard_normal((m, k))), Tensor(rng.standard_normal(m))
        x, go = rng.standard_normal((n, k)), rng.standard_normal((n, m))

        def run(xs, gos):
            xts = [Tensor(xi) for xi in xs]
            g = Graph([w, b, *xts])
            outs = [ops.linear(g, xt, w, b) for xt in xts]
            terms = [ops.tsum(g, ops.mul(g, o, Tensor(gi))) for o, gi in zip(outs, gos)]
            grads = g.backward(ops.tsum(g, ops.stack(g, terms)))
            return (np.stack([o.data for o in outs]), np.stack([grads[xt] for xt in xts]),
                    grads[w], grads[b])

        rows, vectors = run([x], [go]), run(x, go)
        for got, want in zip(rows[:2], vectors[:2]):
            assert got.reshape(want.shape).tobytes() == want.tobytes()
        assert_within_summation_bound([np.outer(gi, xi) for gi, xi in zip(go, x)],
                                      rows[2], vectors[2])
        assert_within_summation_bound(go, rows[3], vectors[3])

    def test_linear_weight_gradient_is_its_only_weight_sized_array(self):
        # 4 rows through a (1024, 8192) weight: dW is 64 MiB, made by one gemm
        rng = np.random.default_rng(11)
        x, w = Tensor(rng.standard_normal((4, 8192))), Tensor(np.full((1024, 8192), 0.5))
        b = Tensor(np.zeros(1024))
        g = Graph([x, w, b])
        out = ops.linear(g, x, w, b)
        (_, _, backward_fn, _), = g.nodes
        go = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            _, dw, _ = backward_fn(go)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dw.shape == w.shape and peak <= dw.nbytes + 2 ** 20

    @pytest.mark.parametrize("shapes", [[], [(), (2,)], [(3,), (3,), (4,)]])
    def test_stack_needs_tensors_of_one_shape(self, shapes):
        with pytest.raises(ShapeError):
            ops.stack(None, [Tensor(np.zeros(s)) for s in shapes])

    def test_every_other_row_gradients_add_back_bit_for_bit(self):
        # the two streams' gradients, signed zeros included, come back interleaved
        rng = np.random.default_rng(6)
        ca, cb = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        ca[0, :2], cb[1, 1:3] = -0.0, [0.0, -0.0]
        a = Tensor(rng.standard_normal((6, 4)))
        g = Graph([a])
        ea, eb = ops.every_other_row(g, a, 0), ops.every_other_row(g, a, 1)
        assert ea.data.tobytes() == a.data[0::2].tobytes()
        assert eb.data.tobytes() == a.data[1::2].tobytes()
        loss = ops.add(g, ops.tsum(g, ops.mul(g, ea, Tensor(ca))),
                       ops.tsum(g, ops.mul(g, eb, Tensor(cb))))
        assert g.backward(loss)[a].tobytes() == np.stack([ca, cb], axis=1).reshape(6, 4).tobytes()

    def test_rowsum_rows_bitwise_equal_vector_sums(self):
        x = np.random.default_rng(5).random((6, 131))
        out = ops.rowsum(None, Tensor(x)).data
        assert out.shape == (6,)
        assert out.tobytes() == np.array([ops.tsum(None, Tensor(r)).item() for r in x]).tobytes()
        assert ops.rowsum(None, Tensor(x[0])).shape == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_no_nan_inf_from_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 4)) * 100)
        for out in (ops.relu(None, x), ops.sigmoid(None, x), ops.maxpool2(None, x),
                    ops.conv2d(None, x, Tensor(rng.standard_normal((3, 2, 3, 3))),
                               Tensor(rng.standard_normal(3)))):
            assert np.all(np.isfinite(out.data))


# float64 bit patterns that elementwise kernels may treat differently from
# np.where and a sequential scan: NaN payloads of both signs, quiet and
# signalling, signed zeros, infinities, subnormals and a few normal values
_ADVERSARIAL_BITS = np.array([
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000123,  # quiet NaNs
    0x7FF0000000000005, 0xFFF0000000000007,  # signalling NaNs
    0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x3FF0000000000000, 0xBFF0000000000000, 0x4004000000000000,
], dtype=np.uint64)


def _adversarial(rng, shape, values=_ADVERSARIAL_BITS):
    """An array of ``shape`` drawn from ``values`` (float64 bits), so elements tie often."""
    return rng.choice(values, size=shape).view(np.float64)


def _grad_with_nan_and_negative_zero(rng, shape):
    go = rng.standard_normal(shape)
    go[rng.random(shape) < 0.2] = np.nan
    go[rng.random(shape) < 0.2] = -0.0
    return go


def _relu_oracle(x):
    """The earlier relu: (output, mask)."""
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def _maxpool_oracle(x):
    """The earlier maxpool2, a sequential scan of the window: (output, argmax as intp)."""
    views = [x[:, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
    out = views[0].copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for k, v in enumerate(views[1:], 1):
        take = ~(v <= out) & (out == out)  # v > out, or v is the first NaN
        np.copyto(out, v, where=take)
        np.copyto(idx, k, where=take)
    return out, idx


def _maxpool_backward_oracle(go, idx):
    c, h, w = go.shape
    dx = np.zeros((c, 2 * h, 2 * w))
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        dx[:, i::2, j::2] = np.where(idx == k, go, 0.0)
    return dx


class TestExactKernels:
    """relu and maxpool2 have the bits of the earlier kernels kept above as oracles."""

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (7,), (17,), (4, 9), (3, 8, 10), (16, 16, 16)])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_relu_matches_oracle(self, shape, strided, recorded):
        rng = np.random.default_rng(sum(shape))
        xv = _adversarial(rng, shape + (2,))[..., 0] if strided else _adversarial(rng, shape)
        x = Tensor(xv)
        g = Graph([x] if recorded else [Tensor(0.0)])
        out = ops.relu(g, x)
        want, mask = _relu_oracle(xv)
        assert out.data.tobytes() == want.tobytes()
        assert len(g) == recorded
        if recorded:
            (_, _, backward_fn, pattern), = g.nodes
            assert pattern.tobytes() == mask.tobytes()
            go = _grad_with_nan_and_negative_zero(rng, shape)
            dx, = backward_fn(go)
            assert dx.tobytes() == (go * mask).tobytes()

    def test_unrecorded_relu_builds_no_mask(self):
        x = Tensor(np.random.default_rng(5).standard_normal((64, 32, 32)))
        recorded = ops.relu(Graph([x]), x)
        unkept = Graph([Tensor(0.0)])
        for g in (None, unkept):
            tracemalloc.start()
            try:
                out = ops.relu(g, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.data.tobytes() == recorded.data.tobytes()
            # the output alone; a mask would add another x.data.size bytes
            assert peak < out.data.nbytes + x.data.size // 2
        assert len(unkept) == 0

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("negative_zero", [True, False], ids=["with-0", "without-0"])
    @pytest.mark.parametrize("seed", range(8))
    def test_maxpool_matches_oracle(self, seed, negative_zero, recorded):
        rng = np.random.default_rng(seed)
        c, h, w = int(rng.integers(1, 6)), 2 * int(rng.integers(1, 9)), 2 * int(rng.integers(1, 9))
        values = _ADVERSARIAL_BITS if negative_zero else \
            _ADVERSARIAL_BITS[_ADVERSARIAL_BITS != 0x8000000000000000]
        xv = _adversarial(rng, (c, h, w), values)
        x = Tensor(xv)
        g = Graph([x] if recorded else [Tensor(0.0)])
        out = ops.maxpool2(g, x)
        want, idx = _maxpool_oracle(xv)
        assert out.data.tobytes() == want.tobytes()
        assert len(g) == recorded
        if recorded:
            (_, _, backward_fn, pattern), = g.nodes
            assert pattern.dtype == np.uint8 and pattern.tobytes() == idx.astype(np.uint8).tobytes()
            go = _grad_with_nan_and_negative_zero(rng, out.shape)
            dx, = backward_fn(go)
            assert dx.tobytes() == _maxpool_backward_oracle(go, idx).tobytes()

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "unrecorded"])
    def test_maxpool_negative_zero_first_tie_keeps_its_sign(self, recorded):
        # windows whose maximum is a tie of zeros led by -0.0, next to windows led
        # by +0.0; numpy's SIMD maximum(-0.0, 0.0) is +0.0, so np.maximum alone fails
        windows = [(-0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, 0.0, -0.0), (0.0, -0.0, -0.0, 0.0),
                   (-1.0, -0.0, 0.0, 0.0), (-0.0, -2.0, 0.0, -0.0)]
        win = np.array(windows * 8).reshape(2, 4, 5, 2, 2)  # (c, h/2, w/2, 2, 2)
        xv = win.transpose(0, 1, 3, 2, 4).reshape(2, 8, 10)
        x = Tensor(xv)
        out = ops.maxpool2(Graph([x]) if recorded else None, x)
        want, _ = _maxpool_oracle(xv)
        assert np.signbit(want).any() and not np.signbit(want).all()
        assert out.data.tobytes() == want.tobytes()


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0)
        g = Graph([x])
        y = ops.mul(g, x, x)
        assert g.backward(y)[x] == pytest.approx(6.0)

    def test_constant_gradient_zero(self):
        x = Tensor(2.0)
        g = Graph([x])
        y = ops.mul(g, x, Tensor(0.0))
        assert g.backward(y)[x] == pytest.approx(0.0)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(0.0)
        g = Graph([x])
        y = ops.sigmoid(g, x)
        assert g.backward(y)[x] == pytest.approx(0.25)

    def test_backward_on_unrecorded_output_returns_nothing(self):
        assert Graph([]).backward(Tensor(1.0)) == {}
        x = Tensor(2.0)
        g = Graph([x])
        y = ops.mul(g, Tensor(3.0), Tensor(4.0))  # no wanted tensor reaches y
        assert y.token is None and len(g) == 0
        assert g.backward(y) == {}

    def test_backward_foreign_tensor_raises(self):
        x = Tensor(1.0)
        g, other = Graph([x]), Graph([x])
        ops.mul(g, x, Tensor(2.0))
        with pytest.raises(StateError):
            g.backward(ops.mul(other, x, Tensor(5.0)))
        with pytest.raises(StateError):  # an empty tape is no exception
            Graph([x]).backward(ops.mul(other, x, Tensor(5.0)))

    def test_shared_input_accumulates(self):
        x = Tensor(2.0)
        g = Graph([x])
        y = ops.add(g, ops.mul(g, x, x), ops.mul(g, x, Tensor(3.0)))
        assert g.backward(y)[x] == pytest.approx(7.0)  # 2x + 3

    def test_backward_consumes_tape_and_writes_leaves_only(self):
        x, w, b = Tensor([1.0, -2.0]), Tensor([[0.5, 1.5], [-1.0, 2.0]]), Tensor([0.1, 0.2])
        g = Graph([w, b])
        h = ops.linear(g, x, w, b)
        r = ops.relu(g, h)
        loss = ops.tsum(g, r)
        grads = g.backward(loss)
        assert len(g) == 0
        assert set(grads) == {w, b}  # nothing for x, h, r or loss
        np.testing.assert_array_equal(grads[w], np.outer(h.data > 0, x.data))
        np.testing.assert_array_equal(grads[b], (h.data > 0).astype(float))

    def test_unwanted_input_dies_with_the_caller(self):
        # the tape keeps the conv's padded copy of the image, never the image
        # itself; a Tensor takes no weak reference, so the test watches its array
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 6, 6)))
        w, b = Tensor(rng.standard_normal((3, 2, 3, 3))), Tensor(np.zeros(3))
        g = Graph([w])
        out = ops.conv2d(g, x, w, b)
        image = weakref.ref(x.data)
        del x
        assert image() is None
        assert len(g) == 1
        assert set(g.backward(ops.tsum(g, out))) == {w}

    def test_second_backward_raises(self):
        x = Tensor(3.0)
        g = Graph([x])
        y = ops.mul(g, x, x)
        grads = g.backward(y)
        with pytest.raises(StateError):
            g.backward(y)
        assert grads[x] == pytest.approx(6.0)


def _derived_signature(graph, kept):
    """Reference: re-derive each non-smooth node's pattern from its input.

    The op is read from the backward closure's qualified name, e.g.
    ``relu.<locals>.<lambda>``.  The tape holds no produced tensors, so
    ``kept`` gives the (input, output) of each relu, abs, clamp and maxpool2
    node in recording order, as the test itself kept them.
    """
    sig = []
    kept = iter(kept)
    for _, _, backward_fn, _ in graph.nodes:
        op = backward_fn.__qualname__.split(".")[0]
        if op not in ("relu", "absolute", "clamp", "maxpool2"):
            continue
        tin, tout = next(kept)
        if op == "relu":
            sig.append(tin.data > 0)
        elif op == "absolute":
            sig.append(np.sign(tin.data))
        elif op == "clamp":
            sig.append(np.equal(tin.data, tout.data))
        else:
            x = tin.data
            c, h, w = x.shape
            win = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
            sig.append(win.argmax(axis=1).astype(np.uint8))  # maxpool2 keeps its argmax as uint8
    assert next(kept, None) is None
    return sig


@pytest.mark.parametrize("seed", range(5))
def test_kink_signature_matches_per_op_derivation(seed):
    # continuous random inputs never land exactly on a clamp bound
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 4)))
    g = Graph([x])
    r = ops.relu(g, x)
    m = ops.maxpool2(g, r)
    s = ops.sub(g, ops.reshape(g, m, (8,)), Tensor(rng.standard_normal(8)))
    h = ops.absolute(g, s)
    sg = ops.sigmoid(g, h)
    c = ops.clamp(g, sg, 0.6, 0.8)
    ops.tsum(g, c)
    kept = [(x, r), (r, m), (s, h), (sg, c)]
    ours, oracle = _kink_signature(g), _derived_signature(g, kept)
    assert len(ours) == len(oracle) == 4
    for a, b in zip(ours, oracle):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(np.ravel(a), np.ravel(b))


# ops under test: (builder making (loss_fn, params)) for FD agreement
def _primitive_cases(seed):
    rng = np.random.default_rng(seed)
    # keep relu/abs inputs away from their kinks so FD is directly valid
    xv = Tensor(np.where(rng.standard_normal(20) >= 0, 1.0, -1.0)
                * rng.uniform(0.1, 2.0, 20))
    xc = Tensor(rng.uniform(0.1, 1.0, (2, 6, 6)))
    k = Tensor(rng.standard_normal((3, 2, 3, 3)))
    b = Tensor(rng.standard_normal(3))
    w = Tensor(rng.standard_normal((4, 20)))
    bb = Tensor(rng.standard_normal(4))
    pos = Tensor(rng.uniform(0.2, 0.8, 10))
    xm = Tensor(rng.standard_normal((3, 20)))
    xr = Tensor(rng.standard_normal((4, 5)))
    kr = Tensor(rng.standard_normal((3, 1, 3, 3)))  # reads xc as two one-channel images
    cases = {
        "relu": (lambda g: ops.tsum(g, ops.relu(g, xv)), [xv]),
        "sigmoid": (lambda g: ops.tsum(g, ops.sigmoid(g, xv)), [xv]),
        "abs": (lambda g: ops.tsum(g, ops.mul(g, ops.absolute(g, xv), ops.absolute(g, xv))), [xv]),
        "log": (lambda g: ops.tsum(g, ops.log(g, pos)), [pos]),
        "sqrt": (lambda g: ops.tsum(g, ops.sqrt(g, pos)), [pos]),
        "div": (lambda g: ops.tsum(g, ops.div(g, xv, Tensor(3.0))), [xv]),
        "linear": (lambda g: ops.tsum(g, ops.mul(g, ops.linear(g, xv, w, bb),
                                                 ops.linear(g, xv, w, bb))), [xv, w, bb]),
        "linear_rows": (lambda g: ops.tsum(g, ops.mul(g, ops.linear(g, xm, w, bb),
                                                      ops.linear(g, xm, w, bb))), [xm, w, bb]),
        "rowsum": (lambda g: ops.add(g, ops.tsum(g, ops.mul(g, ops.rowsum(g, xm),
                                                            ops.rowsum(g, xm))),
                                     ops.mul(g, ops.rowsum(g, xv), ops.rowsum(g, xv))), [xm, xv]),
        "every_other_row": (lambda g: ops.tsum(g, ops.mul(g, ops.every_other_row(g, xr, 0),
                                                          ops.every_other_row(g, xr, 1))), [xr]),
        "conv2d": (lambda g: ops.tsum(g, ops.mul(g, ops.conv2d(g, xc, k, b),
                                                 ops.conv2d(g, xc, k, b))), [xc, k, b]),
        "conv2d_stack": (lambda g: ops.tsum(g, ops.mul(g, ops.conv2d(g, xc, kr, b),
                                                       ops.conv2d(g, xc, kr, b))), [xc, kr, b]),
        "maxpool2": (lambda g: ops.tsum(g, ops.mul(g, ops.maxpool2(g, xc),
                                                   ops.maxpool2(g, xc))), [xc]),
        "stack": (lambda g: ops.tsum(g, ops.stack(g, [ops.tsum(g, xv), ops.tsum(g, pos)])),
                  [xv, pos]),
        "stack_rows": (lambda g: ops.tsum(g, ops.mul(g, ops.stack(g, [xv, ops.neg(g, xv), xv]),
                                                     xm)), [xv]),
    }
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_fd_agreement_all_primitives(seed):
    for name, (loss_fn, params) in _primitive_cases(seed).items():
        err = grad_check(loss_fn, params, eps=1e-5).max_relative_error
        assert err < 1e-4, f"{name} seed {seed}: {err}"


class TestGradCheck:
    def test_linear_mse_tight(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((3, 5)))
        b = Tensor(rng.standard_normal(3))
        x = Tensor(rng.random(5))
        target = rng.random(3)

        def loss_fn(g):
            diff = ops.sub(g, ops.linear(g, x, w, b), Tensor(target))
            return ops.tsum(g, ops.mul(g, diff, diff))

        assert grad_check(loss_fn, [w, b], eps=1e-5).max_relative_error < 1e-6

    def test_planted_fault_detected(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 5)))
        x = Tensor(rng.random(5))

        def loss_fn(g):
            out = ops.linear(g, x, w, Tensor(np.zeros(3)))
            return ops.tsum(g, ops.mul(g, out, out))

        err_clean = grad_check(loss_fn, [w], eps=1e-5).max_relative_error
        assert err_clean < 1e-6
        # corrupt analytic grads by x1.1 and re-measure via manual comparison
        g = Graph([w])
        out = loss_fn(g)
        corrupted = g.backward(out)[w] * 1.1
        flat = w.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            f1 = loss_fn(None).item()
            flat[i] = orig - 1e-5
            f2 = loss_fn(None).item()
            flat[i] = orig
            num = (f1 - f2) / 2e-5
            a = corrupted.reshape(-1)[i]
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-12))
        assert worst == pytest.approx(0.1, abs=0.01)

    def test_empty_params_zero(self):
        assert grad_check(lambda g: Tensor(1.0), [], eps=1e-5).max_relative_error == 0.0

    @pytest.mark.parametrize("loss_fn", [
        lambda g: Tensor(1.0),  # nothing recorded
        lambda g: ops.tsum(g, ops.mul(g, Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))),
    ])
    def test_unreached_params_zero(self, loss_fn):
        assert grad_check(loss_fn, [Tensor([5.0])], eps=1e-5).max_relative_error == 0.0

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True])
    def test_max_coords_must_be_a_positive_int(self, cap):
        with pytest.raises(ConfigError, match=f"max_coords_per_tensor must be an int >= 1, "
                                              f"got {cap!r}"):
            grad_check(lambda g: Tensor(1.0), [Tensor([1.0, 2.0])], max_coords_per_tensor=cap)
        res = grad_check(lambda g: Tensor(1.0), [Tensor([1.0, 2.0])],
                         max_coords_per_tensor=np.int64(1))
        assert res.checked == 1

    def test_eps_out_of_range(self):
        with pytest.raises(ConfigError):
            grad_check(lambda g: Tensor(1.0), [Tensor(1.0)], eps=1e-2)

    @pytest.mark.parametrize("eps", ["1e-5", None], ids=["string", "none"])
    def test_eps_that_is_no_number_is_a_config_error(self, eps):
        with pytest.raises(ConfigError, match=f"got {eps!r}$"):
            grad_check(lambda g: Tensor(1.0), [Tensor(1.0)], eps=eps)

    def test_nonfinite_loss_raises(self):
        x = Tensor(5e-6)  # x - eps goes negative, log turns non-finite

        def loss_fn(g):
            return ops.log(g, x)

        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            grad_check(loss_fn, [x], eps=1e-5)

    def test_full_result_reports_counts(self):
        x = Tensor(np.array([1.0, -1.0]))
        res = grad_check(lambda g: ops.tsum(g, ops.relu(g, x)), [x], eps=1e-5)
        assert isinstance(res, GradCheckResult)
        assert res.checked == 2 and res.skipped == 0
