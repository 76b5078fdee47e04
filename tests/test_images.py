"""The bilinear sampler, bit for bit against the meshgrid/np.clip sampler it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamverify import images as imagemod  # `images` names the strategy below
from siamverify.images import bilinear_resize, bilinear_sample, rotate

EXAMPLES = settings(max_examples=300, deadline=None)


def _reference_sample(img, rows, cols):
    """Four taps over full (row, col) grids, each masked by its validity and clipped."""
    _, h, w = img.shape
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    fr = rows - r0
    fc = cols - c0
    out = np.zeros((img.shape[0],) + rows.shape)
    for dr, dc, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                        (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr = r0 + dr
        cc = c0 + dc
        valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        rs = np.clip(rr, 0, h - 1)
        cs = np.clip(cc, 0, w - 1)
        out += img[:, rs, cs] * (wgt * valid)
    return out


def _reference_resize(img, out_h, out_w):
    _, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    rows = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    cols = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    rgrid, cgrid = np.meshgrid(rows, cols, indexing="ij")
    rgrid = np.clip(rgrid, 0, h - 1)
    cgrid = np.clip(cgrid, 0, w - 1)
    return _reference_sample(img, rgrid, cgrid)


def _reference_rotate(img, degrees):
    if degrees == 0.0:
        return img.copy()
    _, h, w = img.shape
    theta = np.deg2rad(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = rr - cy, cc - cx
    src_r = cy + np.cos(theta) * dy - np.sin(theta) * dx
    src_c = cx + np.sin(theta) * dy + np.cos(theta) * dx
    return _reference_sample(img, src_r, src_c)


@st.composite
def images(draw):
    """A CHW image of 1 or 3 channels, 1x1 to 60x60, possibly a flipped (strided) view.

    Pixels are uniform in [0, 1], signed, or small integers with signed zeros,
    so the taps meet negative products and exact zeros.
    """
    c = draw(st.sampled_from([1, 3]))
    h, w = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["unit", "signed", "ties"]))
    if kind == "unit":
        img = rng.random((c, h, w))
    elif kind == "signed":
        img = rng.standard_normal((c, h, w))
    else:
        img = rng.integers(-2, 3, (c, h, w)).astype(np.float64)
        img[rng.random(img.shape) < 0.2] = -0.0
    flip = draw(st.sampled_from([None, "cols", "rows"]))
    if flip == "cols":
        img = img[:, :, ::-1]  # as augment passes a flipped image
    elif flip == "rows":
        img = img[:, ::-1]
    return img


@EXAMPLES
@given(img=images(), size=st.sampled_from(["up", "down", "same", "any"]), data=st.data())
def test_resize_matches_reference_bitwise(img, size, data):
    _, h, w = img.shape
    if size == "same":
        out_h, out_w = h, w
    elif size == "up":
        out_h, out_w = data.draw(st.integers(h, 60)), data.draw(st.integers(w, 60))
    elif size == "down":
        out_h, out_w = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    else:
        out_h, out_w = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
    assert bilinear_resize(img, out_h, out_w).tobytes() == \
        _reference_resize(img, out_h, out_w).tobytes()


@EXAMPLES
@given(img=images(), degrees=st.sampled_from([0.0, 90.0, -90.0, 180.0, -180.0])
       | st.floats(-180.0, 180.0))
def test_rotate_matches_reference_bitwise(img, degrees):
    assert rotate(img, degrees).tobytes() == _reference_rotate(img, degrees).tobytes()


def test_rows_and_cols_broadcast():
    rng = np.random.default_rng(4)
    img = rng.standard_normal((2, 7, 9))
    rows, cols = rng.uniform(-2, 9, 5), rng.uniform(-2, 11, 6)
    want = _reference_sample(img, *np.meshgrid(rows, cols, indexing="ij"))
    assert bilinear_sample(img, rows[:, None], cols).tobytes() == want.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resize_peak_is_at_most_half_the_reference():
    img = np.random.default_rng(5).random((3, 160, 144))
    ours = _traced_peak(bilinear_resize, img, 224, 224)
    reference = _traced_peak(_reference_resize, img, 224, 224)
    assert ours <= reference / 2, (ours, reference)


def test_resize_taps_are_read_only():
    bilinear_resize(np.random.default_rng(6).random((1, 12, 10)), 7, 9)
    for tap in imagemod._resize_taps(12, 7) + imagemod._resize_taps(10, 9):
        for arr in tap:
            with pytest.raises(ValueError):
                arr[0] = 1


def test_resize_taps_memo_keeps_at_most_its_bound():
    bound = imagemod._RESIZE_TAPS
    assert imagemod._resize_taps.cache_info().maxsize == bound
    for n in range(2, bound + 40):
        img = np.full((1, 2, n), 0.5)
        assert bilinear_resize(img, 3, 5).tobytes() == _reference_resize(img, 3, 5).tobytes()
        assert imagemod._resize_taps.cache_info().currsize <= bound
