"""Forward primitives with recorded backward closures.

Every op takes the tape as its first argument, then ``Tensor`` operands;
pass ``g=None`` for a pure forward evaluation (used by finite differencing
and scoring).  Elementwise binary ops accept equal shapes or a scalar on
either side; no general broadcasting.  A backward closure keeps only the
arrays and shapes it reads, never an operand tensor, so a recorded op's
input dies when the forward pass drops it unless backward needs its values.

The one convolution is VGG's: a 3x3 kernel at stride 1 over the input
zero-padded by one pixel, so the output keeps the input's height and width.
It uses the cross-correlation convention (no kernel flip), matching
mainstream CNN practice.  Its input is n images' channels back to back,
``(n * cin, h, w)``, and its output likewise ``(n * cout, h, w)``; n = 1 is one
CHW image, and ``relu`` and ``maxpool2`` act on each channel alike, so a
stack of images runs through the conv stages as one tensor.  The forward
lowers each image to im2col columns one band of output rows at a time, each
band at most ``_COLS_BYTES`` (16 MiB) of float64 where one output row fits,
so no whole-layer column matrix is built; a layer whose columns fit is one
band.  No padded copy of the input is made either: each band's rows, with
the row above and the row below, are copied into one zero-bordered slab
that the call reuses for every image and band (``_im2col``).  A band's gemm
may round differently from a whole-layer gemm in the last bits, wherever
the band starts; a one-band layer is unaffected.  On the tape a conv keeps
its input array itself, neither a padded copy nor its columns.  Backward
adds the kernel gradient image by image from each image's whole column
matrix, lowered through a slab of one padded image; the input gradient is
the forward's banded correlation of the output gradient with flipped
kernels (see ``conv2d``), or ``None`` for an input the tape does not keep
(``Graph.keeps``), such as an image or a frozen prefix's output.

What keeps its bits across a stack: each forward row or image, and each
input gradient, has the bits of that row or image passed alone.  A
parameter gradient is the stack's own sum of its rows' or images' terms
(``linear``: one gemm and one sum over the rows; ``conv2d``: each image's
kernel and bias gradient, added in stack order), so it can differ in the
last bits from the sum that a tape of one-row or one-image calls makes.  It
is deterministic for a fixed batch, BLAS build and thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Graph, Tensor

_COLS_BYTES = 1 << 24  # im2col band budget of conv2d's forward
_NEGATIVE_ZERO = np.iinfo(np.int64).min  # the bits of -0.0 read as an int64


def _rec(g: Graph | None, out: Tensor, inputs, backward_fn, pattern=None) -> Tensor:
    if g is not None:
        g.record(out, inputs, backward_fn, pattern)
    return out


def _binary_shapes(a: Tensor, b: Tensor):
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"elementwise op on shapes {a.shape} and {b.shape}")


def _reduce_to(grad: np.ndarray, shape) -> np.ndarray:
    # scalar operand in an elementwise op collects the summed gradient
    if shape == () and grad.shape != ():
        return np.asarray(grad.sum())
    return grad


def add(g, a, b) -> Tensor:
    _binary_shapes(a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape
    return _rec(g, out, (a, b), lambda go: (_reduce_to(go, sa), _reduce_to(go, sb)))


def sub(g, a, b) -> Tensor:
    _binary_shapes(a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape
    return _rec(g, out, (a, b), lambda go: (_reduce_to(go, sa), _reduce_to(-go, sb)))


def mul(g, a, b) -> Tensor:
    _binary_shapes(a, b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return _rec(g, out, (a, b),
                lambda go: (_reduce_to(go * bd, ad.shape), _reduce_to(go * ad, bd.shape)))


def div(g, a, b) -> Tensor:
    _binary_shapes(a, b)
    ad, bd = a.data, b.data
    out = Tensor(ad / bd)
    return _rec(g, out, (a, b),
                lambda go: (_reduce_to(go / bd, ad.shape),
                            _reduce_to(-go * ad / (bd * bd), bd.shape)))


def neg(g, a) -> Tensor:
    out = Tensor(-a.data)
    return _rec(g, out, (a,), lambda go: (-go,))


def relu(g, a) -> Tensor:
    """max(a, 0) with the bits of ``np.where(a > 0, a, 0.0)``: a NaN or -0.0 gives +0.0.

    Adding +0.0 turns -0.0 into +0.0 and a signalling NaN into a quiet one
    (``np.fmax`` alone can pass a signalling NaN through as a quiet NaN);
    ``np.fmax`` then takes the 0.0 for every NaN and keeps infinities and
    subnormals.  The mask ``a > 0`` (subgradient 0 at the kink) is built only
    when the tape records this call (``g`` keeps ``a``).
    """
    out = np.empty(a.shape)
    with np.errstate(invalid="ignore"):  # a signalling NaN
        np.add(a.data, 0.0, out=out)
    np.fmax(out, 0.0, out=out)
    mask = a.data > 0 if g is not None and g.keeps(a) else None
    return _rec(g, Tensor(out), (a,), lambda go: (go * mask,), mask)


def sigmoid(g, a) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    return _rec(g, out, (a,), lambda go: (go * s * (1.0 - s),))


def log(g, a) -> Tensor:
    x = a.data
    out = Tensor(np.log(x))
    return _rec(g, out, (a,), lambda go: (go / x,))


def sqrt(g, a) -> Tensor:
    r = np.sqrt(a.data)
    out = Tensor(r)
    return _rec(g, out, (a,), lambda go: (go / (2.0 * r),))


def absolute(g, a) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at 0
    out = Tensor(np.abs(a.data))
    return _rec(g, out, (a,), lambda go: (go * sign,), sign)


def clamp(g, a, lo: float, hi: float) -> Tensor:
    inside = (a.data > lo) & (a.data < hi)
    out = Tensor(np.clip(a.data, lo, hi))
    return _rec(g, out, (a,), lambda go: (go * inside,), inside)


def tsum(g, a) -> Tensor:
    """Sum of all elements, returning a scalar tensor."""
    out = Tensor(a.data.sum())
    sa = a.shape
    return _rec(g, out, (a,), lambda go: (np.full(sa, float(go)),))


def rowsum(g, a) -> Tensor:
    """Sum over the last axis: a scalar for a vector, one sum per row of a matrix."""
    out = Tensor(a.data.sum(axis=-1))
    sa = a.shape
    return _rec(g, out, (a,), lambda go: (np.repeat(go[..., None], sa[-1], axis=-1),))


def reshape(g, a, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    sa = a.shape
    return _rec(g, out, (a,), lambda go: (go.reshape(sa),))


def stack(g, tensors) -> Tensor:
    """Stack tensors of one shape on a new first axis: scalars, vectors or images."""
    if not tensors or any(t.shape != tensors[0].shape for t in tensors):
        raise ShapeError(f"stack expects tensors of one shape, got {[t.shape for t in tensors]}")
    out = Tensor(np.stack([t.data for t in tensors]))
    return _rec(g, out, tuple(tensors), lambda go: tuple(np.asarray(v) for v in go))


def linear(g, x, w, b) -> Tensor:
    """Affine map w @ x + b of a flat input vector, or of each row of an (n, k) matrix.

    Both run as one gemv per row, so a row's output and input gradient have
    the bits of the row passed alone.  ``dW`` is one gemm over the rows and
    ``db`` one sum over them.
    """
    if x.data.ndim not in (1, 2) or w.data.ndim != 2:
        raise ShapeError(f"linear expects 1-D or 2-D input, 2-D weight: {x.shape}, {w.shape}")
    if w.shape[1] != x.shape[-1] or b.shape != (w.shape[0],):
        raise ShapeError(f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    xd, wd = x.data, w.data
    out = Tensor(np.matmul(wd, xd[..., None])[..., 0] + b.data)

    def backward(go):
        gs, xs = go.reshape(-1, go.shape[-1]), xd.reshape(-1, xd.shape[-1])
        return (np.matmul(wd.T, go[..., None])[..., 0], gs.T @ xs, gs.sum(axis=0))

    return _rec(g, out, (x, w, b), backward)


def every_other_row(g, a, start: int) -> Tensor:
    """Rows start, start + 2, ... of ``a``: one of two streams stacked alternately.

    Backward scatters the gradient into an array of -0.0, the identity of
    float addition, so where the tape adds the two streams' gradients every
    bit is kept, the sign of a zero included.
    """
    out = Tensor(a.data[start::2])
    sa = a.shape

    def backward(go):
        grad = np.full(sa, -0.0)
        grad[start::2] = go
        return (grad,)

    return _rec(g, out, (a,), backward)


def _im2col(xi: np.ndarray, slab: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """The 3x3 columns of output rows r0..r1 of one (c, h, w) image ``xi``.

    ``slab`` is a C-contiguous, zero-bordered (c, rows + 2, w + 2) array with
    rows >= r1 - r0, reused from band to band: input rows r0 - 1..r1 are
    copied into it and any of them past the image's edge is zeroed, so no
    halo row of an earlier band or image is read.  The columns are one
    strided view over the slab's buffer, then one copy.
    """
    c, h, w = xi.shape
    nr, top, bottom = r1 - r0, r0 == 0, r1 == h
    slab[:, top:nr + 2 - bottom, 1:w + 1] = xi[:, r0 - 1 + top:r1 + 1 - bottom]
    if top:
        slab[:, 0] = 0.0
    if bottom:
        slab[:, nr + 1] = 0.0
    s0, s1, s2 = slab.strides
    view = np.ndarray((c, 3, 3, nr, w), buffer=slab, strides=(s0, s1, s2, s1, s2))
    return view.reshape(c * 9, nr * w)


def _correlate(x: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """The 3x3 correlation, zero-padded by one pixel, of the stack of (n, c, h, w) images
    ``x`` with the (cout, c * 9) ``kmat``, (n, cout, h * w): one gemm per image and band of
    output rows, each band lowered through one slab of its rows."""
    n, c, h, w = x.shape
    rows = min(h, max(1, _COLS_BYTES // (8 * c * 9 * w)))
    y = np.empty((n, kmat.shape[0], h * w))
    slab = np.zeros((c, rows + 2, w + 2))  # after y: glibc's heap then peaks lower
    for xi, yi in zip(x, y):
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            # BLAS may round a band's gemm differently from the whole layer's in the last bits
            np.matmul(kmat, _im2col(xi, slab, r0, r1), out=yi[:, r0 * w:r1 * w])
    return y


def conv2d(g, x, kernels, bias) -> Tensor:
    """3x3 cross-correlation at stride 1, zero-padded by one pixel, of each image in ``x``.

    ``x`` is n images' channels back to back, ``(n * cin, h, w)`` with cin
    ``kernels.shape[1]``, and the output is ``(n * cout, h, w)``: each image
    keeps its height and width, as every VGG convolution does.  The padding
    is built band by band as each band is lowered (``_im2col``), for the
    forward, the kernel gradient and the input gradient alike.  A recorded
    call keeps ``x``'s array by reference, as ``linear`` and ``mul`` do,
    until backward pops its node.
    """
    if x.data.ndim != 3 or not x.data.size or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d expects nonempty (n * cin, h, w) input and OIHW kernels, "
                         f"got {x.shape}, {kernels.shape}")
    cout, cin = kernels.shape[:2]
    if kernels.shape[2:] != (3, 3) or not cin or x.shape[0] % cin:
        raise ShapeError(f"kernels {kernels.shape} are not (cout, cin, 3, 3) with cin "
                         f"dividing the input's {x.shape[0]} channels")
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
    n, h, w = x.shape[0] // cin, x.shape[1], x.shape[2]

    kmat = kernels.data.reshape(cout, -1)
    xd = x.data.reshape(n, cin, h, w)  # a view: the tape keeps the input itself
    y = _correlate(xd, kmat)
    y += bias.data[:, None]
    out = Tensor(y.reshape(n * cout, h, w))

    kshape = kernels.shape
    want_dx = g is not None and g.keeps(x)

    def backward(go):
        gmats = go.reshape(n, cout, h * w)
        dk = np.zeros((cout, cin * 9))
        slab = np.zeros((cin, h + 2, w + 2))  # one band of the whole image
        for xi, gmat in zip(xd, gmats):
            dk += gmat @ _im2col(xi, slab, 0, h).T
        db = gmats.sum(axis=2).sum(axis=0)
        dx = None  # after dk: an image's whole column matrix and dx are never held together
        if want_dx:  # go's correlation with each kernel turned 180 degrees, cin and cout swapped
            flipped = kmat.reshape(kshape)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            dx = _correlate(go.reshape(n, cout, h, w), flipped)
        return (None if dx is None else dx.reshape(n * cin, h, w), dk.reshape(kshape), db)

    return _rec(g, out, (x, kernels, bias), backward)


def maxpool2(g, x) -> Tensor:
    """2x2 max pooling with stride 2; spatial extents must be even.

    Each output is, bit for bit, its window's first maximum, and a NaN counts
    as the maximum: the window's first NaN, payload included.  That is the
    element ``np.argmax`` picks in window order (row-major within the 2x2
    window), and the kink pattern is that argmax, 0..3.  The forward takes
    ``np.maximum`` over the four strided window views in window order, in
    place in one array; ``np.maximum`` returns the first of two NaNs.  For a
    tie of zeros the first zero's sign wins, but numpy's SIMD
    ``maximum(-0.0, 0.0)`` gives +0.0; so when ``x`` holds a -0.0 the output
    is gathered from the views by the argmax instead.  The argmax is built
    only for that or when the tape records this call (``g`` keeps ``x``), and
    the tape keeps only it.  Backward masks ``go``'s bits into each view's
    quadrant of ``dx``: ``go`` where the argmax picks the view, NaN and -0.0
    included, and +0.0 elsewhere.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2 expects CHW input, got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial extents, got {h}x{w}")
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    views = [x.data[:, i::2, j::2] for i, j in offsets]
    out = np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(out, v, out=out)
    recorded = g is not None and g.keeps(x)
    signed_zero = x.data.view(np.int64).min(initial=0) == _NEGATIVE_ZERO
    idx = None
    if recorded or signed_zero:
        # 1 where view k holds neither the maximum nor a NaN; the argmax is the first 0
        m0, m1, m2 = (((v != out) & (v == v)).view(np.uint8) for v in views[:3])
        idx = m0 * (1 + m1 * (1 + m2))  # uint8, 0..3
        if signed_zero:
            out = np.choose(idx, views)

    def backward(go):
        dx = np.empty((c, h, w))
        bits = go.view(np.uint64)
        for k, (i, j) in enumerate(offsets):  # all ones where the argmax is k, else zeros
            np.bitwise_and(bits, np.negative(idx == k, dtype=np.uint64),
                           out=dx[:, i::2, j::2].view(np.uint64))
        return (dx,)

    return _rec(g, Tensor(out), (x,), backward, idx)
