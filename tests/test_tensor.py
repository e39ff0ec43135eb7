"""Structured mixers against dense-matrix oracles, plus MAC accounting."""

import hashlib
import io
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padre import tensor
from padre.tensor import (
    FlopLedger,
    LayoutError,
    Mixer,
    MixerKind,
    NumericError,
    PadMode,
    ShapeError,
    Side,
    apply_mixer,
    apply_mixer_transpose,
    conv_kernel_grad,
    hadamard,
    mixer_from_record,
    mixer_to_record,
    read_records,
    write_records,
)

from conftest import dense_of


def naive_conv1d_matrix(kernel, n, circular=False):
    """Dense matrix of the same-size correlation, built by explicit loops."""
    k = len(kernel)
    anchor = k // 2
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(k):
            src = i + j - anchor
            if circular:
                m[i, src % n] += kernel[j]
            elif 0 <= src < n:
                m[i, src] += kernel[j]
    return m


def naive_conv2d_matrix(kernel, h, w, circular=False):
    kh, kw = kernel.shape
    ah, aw = kh // 2, kw // 2
    n = h * w
    m = np.zeros((n, n))
    for r in range(h):
        for c in range(w):
            for dr in range(kh):
                for dc in range(kw):
                    sr, sc = r + dr - ah, c + dc - aw
                    if circular:
                        sr, sc = sr % h, sc % w
                    elif not (0 <= sr < h and 0 <= sc < w):
                        continue
                    m[r * w + c, sr * w + sc] += kernel[dr, dc]
    return m


def random_mixers(rng, dim, side):
    grid = None
    r = int(np.sqrt(dim))
    if r * r == dim and dim > 1:
        grid = (r, r)
    out = [
        Mixer.identity(side, dim),
        Mixer.dense(side, rng.uniform(-1, 1, (dim, dim))),
        Mixer.diagonal(side, rng.uniform(-1, 1, dim)),
        Mixer.low_rank(side, rng.uniform(-1, 1, (dim, 2)), rng.uniform(-1, 1, (2, dim))),
        Mixer.conv1d(side, rng.uniform(-1, 1, 3), dim),
        Mixer.conv1d(side, rng.uniform(-1, 1, 4), dim, PadMode.CIRCULAR),
    ]
    if grid:
        kh, kw = min(3, grid[0]), min(3, grid[1])
        out.append(Mixer.conv2d(side, rng.uniform(-1, 1, (kh, kw)), *grid))
        out.append(Mixer.conv2d(side, rng.uniform(-1, 1, (min(2, grid[0]), kw)),
                                *grid, PadMode.CIRCULAR))
    return out


class TestApplyMixer:
    def test_identity_noop_and_free(self, rng):
        x = rng.uniform(-1, 1, (5, 3))
        led, m = FlopLedger(), Mixer.identity(Side.TOKEN, 5)
        out = apply_mixer(m, x)
        led.count(m, x.size)
        np.testing.assert_array_equal(out, x)
        assert led.macs == 0

    def test_dense_permutation_swaps_rows(self, rng):
        x = rng.uniform(-1, 1, (2, 3))
        perm = Mixer.dense(Side.TOKEN, np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(apply_mixer(perm, x), x[::-1])

    def test_conv1d_matches_spec_example(self):
        m = Mixer.conv1d(Side.TOKEN, [1.0, 2.0, 1.0], 4)
        x = np.array([[1.0], [0.0], [0.0], [0.0]])
        expected = naive_conv1d_matrix([1.0, 2.0, 1.0], 4) @ x
        np.testing.assert_allclose(apply_mixer(m, x), expected)
        np.testing.assert_array_equal(expected.ravel(), [2.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("side", [Side.TOKEN, Side.CHANNEL])
    def test_every_kind_matches_dense_oracle(self, rng, side):
        for dim in (4, 9, 16):
            for m in random_mixers(rng, dim, side):
                shape = (dim, 5) if side == Side.TOKEN else (5, dim)
                dense = dense_of(m)
                for _ in range(6):
                    x = rng.uniform(-1, 1, shape)
                    ref = dense @ x if side == Side.TOKEN else x @ dense
                    got = apply_mixer(m, x)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1, np.max(np.abs(ref)))

    def test_conv_dense_oracle_is_independent(self, rng):
        kern = rng.uniform(-1, 1, 5)
        m = Mixer.conv1d(Side.TOKEN, kern, 8)
        np.testing.assert_allclose(dense_of(m), naive_conv1d_matrix(kern, 8),
                                   atol=1e-14)
        kern2 = rng.uniform(-1, 1, (3, 3))
        m2 = Mixer.conv2d(Side.TOKEN, kern2, 3, 4)
        np.testing.assert_allclose(dense_of(m2), naive_conv2d_matrix(kern2, 3, 4),
                                   atol=1e-14)
        m3 = Mixer.conv2d(Side.TOKEN, kern2, 3, 4, PadMode.CIRCULAR)
        np.testing.assert_allclose(dense_of(m3),
                                   naive_conv2d_matrix(kern2, 3, 4, circular=True),
                                   atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
    def test_linearity(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        mixers = random_mixers(rng, 9, Side.TOKEN)
        m = mixers[int(rng.integers(len(mixers)))]
        x = rng.uniform(-1, 1, (9, 4))
        y = rng.uniform(-1, 1, (9, 4))
        lhs = apply_mixer(m, alpha * x + beta * y)
        rhs = alpha * apply_mixer(m, x) + beta * apply_mixer(m, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_transpose_matches_dense_transpose(self, rng):
        for side in (Side.TOKEN, Side.CHANNEL):
            for m in random_mixers(rng, 9, side):
                dense = dense_of(m)
                g = rng.uniform(-1, 1, (9, 9))
                ref = dense.T @ g if side == Side.TOKEN else g @ dense.T
                np.testing.assert_allclose(apply_mixer_transpose(m, g), ref, atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: Mixer.conv1d(Side.TOKEN, np.zeros(0), 4),
        lambda: Mixer.conv2d(Side.TOKEN, np.zeros((0, 3)), 3, 12),
        lambda: Mixer.conv2d(Side.TOKEN, np.zeros((3, 0)), 3, 12),
    ], ids=["conv1d-empty", "conv2d-kernel-0x3", "conv2d-kernel-3x0"])
    def test_empty_kernel_rejected(self, build):
        with pytest.raises(ShapeError):
            build()

    @pytest.mark.parametrize("build,error", [
        (lambda: Mixer.identity(Side.TOKEN, 0), ShapeError),
        (lambda: Mixer.dense(Side.TOKEN, np.ones((2, 3))), ShapeError),
        (lambda: Mixer(Side.TOKEN, MixerKind.DIAGONAL, 3, diag=np.ones(2)), ShapeError),
        (lambda: Mixer(Side.TOKEN, MixerKind.LOW_RANK, 3, left=np.ones((3, 1))), ShapeError),
        (lambda: Mixer.low_rank(Side.TOKEN, np.ones((3, 1)), np.ones((2, 3))), ShapeError),
        (lambda: Mixer.low_rank(Side.TOKEN, np.ones((2, 3)), np.ones((3, 2))), ShapeError),
        (lambda: Mixer.conv1d(Side.TOKEN, np.ones((2, 2)), 4), ShapeError),
        (lambda: Mixer.conv1d(Side.TOKEN, np.ones(5), 4), ShapeError),
        (lambda: Mixer.conv2d(Side.TOKEN, np.ones(3), 3, 3), ShapeError),
        (lambda: Mixer(Side.TOKEN, MixerKind.CONV2D, 10, kernel=np.ones((2, 2)), grid_h=3,
                       grid_w=3), LayoutError),
        (lambda: Mixer.conv2d(Side.TOKEN, np.ones((4, 2)), 3, 3), ShapeError),
        (lambda: Mixer(Side.TOKEN, 9, 3), ShapeError),
        (lambda: Mixer.dense(Side.CHANNEL, [[np.nan]]), NumericError),
    ], ids=["dim-0", "dense-2x3", "diagonal-length", "low-rank-no-right",
            "low-rank-factor-shapes", "low-rank-rank-above-dim", "conv1d-2d-kernel",
            "conv1d-kernel-too-long", "conv2d-1d-kernel", "conv2d-grid-not-dim",
            "conv2d-kernel-above-grid", "unknown-kind", "non-finite-params"])
    def test_constructor_rejects(self, build, error):
        # one case per check in Mixer.__post_init__
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Mixer.conv1d(Side.TOKEN, np.ones(3), 48, 7),
        lambda: Mixer.conv2d(Side.CHANNEL, np.ones((2, 2)), 3, 3, -1),
        lambda: Mixer.dense(-1, np.eye(2)),
        lambda: Mixer.identity(2, 3),
        lambda: Mixer.low_rank(Side.TOKEN, np.ones(3), np.ones(3)),
        lambda: Mixer.low_rank(Side.TOKEN, np.ones(3), np.ones((1, 3))),
    ], ids=["conv1d-padding-7", "conv2d-padding--1", "dense-side--1", "identity-side-2",
            "low-rank-1d-factors", "low-rank-1d-left"])
    def test_fields_outside_their_enums_rejected(self, build):
        # a padding or side that no container can hold, and a factor that used
        # to fail with IndexError, are shape errors when the mixer is built
        with pytest.raises(ShapeError):
            build()

    def test_shape_and_layout_errors(self, rng):
        x = rng.uniform(-1, 1, (5, 3))
        with pytest.raises(ShapeError):
            apply_mixer(Mixer.diagonal(Side.TOKEN, np.ones(4)), x)
        with pytest.raises(LayoutError):
            apply_mixer(Mixer.conv2d(Side.TOKEN, np.ones((2, 2)), 2, 3), x)
        with pytest.raises(LayoutError):
            Mixer(side=Side.TOKEN, kind=MixerKind.CONV2D, dim=5,
                  kernel=np.ones((2, 2)), grid_h=2, grid_w=2)


def pad_view(xv, kshape, axes, circular, transpose=False):
    """``np.pad`` of the view ``xv`` for a same-size correlation with kernel ``kshape``."""
    pad = [(0, 0)] * xv.ndim
    for ax, k in zip(axes, kshape):
        before = k - 1 - k // 2 if transpose else k // 2
        pad[ax] = (before, k - 1 - before)
    return np.pad(xv, pad, mode="wrap" if circular else "constant")


def shifted_windows(xp, axes, kshape, size):
    """Yield ``(tap, window)``: the whole padded array ``xp`` shifted by each tap."""
    for tap in itertools.product(*map(range, kshape)):
        sl = [slice(None)] * xp.ndim
        for ax, t in zip(axes, tap):
            sl[ax] = slice(t, t + size[ax])
        yield tap, xp[tuple(sl)]


def padded_correlation(xv, kern, axes, circular, transpose):
    """Same-size correlation of the view ``xv``: ``np.pad``, then one pass per tap.

    The transpose is correlation with the flipped kernel at the mirrored anchor.
    """
    if transpose:
        kern = np.flip(kern)
    xp = pad_view(xv, kern.shape, axes, circular, transpose)
    out = np.zeros_like(xv)
    for tap, win in shifted_windows(xp, axes, kern.shape, xv.shape):
        out += kern[tap] * win
    return out


def assert_within_rounding(got, xv, kern, axes, circular, transpose):
    """``got`` is the correlation of ``xv`` up to rounding, elementwise:
    ``|got - exact| <= 1e-13 * sum_tap |kernel[tap] * window|``."""
    ref = padded_correlation(xv, kern, axes, circular, transpose)
    scale = padded_correlation(np.abs(xv), np.abs(kern), axes, circular, transpose)
    assert np.all(np.abs(got.reshape(ref.shape) - ref) <= 1e-13 * scale)


def assert_kernel_grad_within_rounding(rng, m, x, xv, kern, axes, circular):
    """``conv_kernel_grad`` for a random ``g`` matches each tap's whole-tensor sum:
    ``|got[tap] - sum(g * window)| <= 1e-13 * sum(|g * window|)``."""
    gv = rng.uniform(-1, 1, xv.shape)
    got = tensor.conv_kernel_grad(m, x, gv.reshape(x.shape))
    xp = pad_view(xv, kern.shape, axes, circular)
    for tap, win in shifted_windows(xp, axes, kern.shape, xv.shape):
        assert abs(got[tap] - np.sum(gv * win)) <= 1e-13 * np.sum(np.abs(gv * win))


def conv_cases(test, *more):
    """Parametrize ``test`` over conv kind and side, padding, then the ``more`` marks."""
    for mark in (
        pytest.mark.parametrize("kind,side", [
            (MixerKind.CONV1D, Side.TOKEN), (MixerKind.CONV1D, Side.CHANNEL),
            (MixerKind.CONV2D, Side.TOKEN), (MixerKind.CONV2D, Side.CHANNEL),
        ], ids=["conv1d-token", "conv1d-channel", "conv2d-token", "conv2d-channel"]),
        pytest.mark.parametrize("padding", list(PadMode), ids=lambda p: p.name.lower()),
        *more,
    ):
        test = mark(test)
    return test


def banded_cases(test):
    """Parametrize ``test`` over conv kind and side, padding and kernel parity."""
    return conv_cases(test, pytest.mark.parametrize("even", [False, True], ids=["odd", "even"]))


class TestBandedConv:
    """Fixed inputs, a 14-long leading axis by 10 x 819: conv1d axes of 14
    and 8,190 outputs and conv2d grids of 14 x 10 and 10 x 819, each ending
    in a partial tile, with kernels that reach across most of a short axis."""

    LEAD, GRID_H, GRID_W = 14, 10, 819

    def case(self, rng, kind, side, padding, even):
        """A conv mixer, its input ``x``, the conv view ``xv`` of ``x``, kernel and axes."""
        lead, h, w = self.LEAD, self.GRID_H, self.GRID_W
        xv = rng.uniform(-1, 1, (lead, h, w))
        # odd kernels reach across most of a grid; even ones exercise the anchor
        kshape = (4, 2) if even else (9, 3)
        if kind == MixerKind.CONV1D:
            xv = xv.reshape(lead, h * w)
            kern = rng.uniform(-1, 1, kshape[0])
            if side == Side.TOKEN:
                m, axes = Mixer.conv1d(side, kern, lead, padding), (0,)
            else:
                m, axes = Mixer.conv1d(side, kern, h * w, padding), (1,)
            x = xv
        else:
            kern = rng.uniform(-1, 1, kshape)
            if side == Side.TOKEN:
                m, axes = Mixer.conv2d(side, kern, lead, h, padding), (0, 1)
                x = xv.reshape(lead * h, w)
            else:
                m, axes = Mixer.conv2d(side, kern, h, w, padding), (1, 2)
                x = xv.reshape(lead, h * w)
        return m, x, xv, kern, axes

    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "transpose"])
    @banded_cases
    def test_within_rounding_of_unbanded_reference(self, rng, kind, side, padding, even,
                                                   transpose):
        m, x, xv, kern, axes = self.case(rng, kind, side, padding, even)
        got = apply_mixer_transpose(m, x) if transpose else apply_mixer(m, x)
        assert_within_rounding(got, xv, kern, axes, padding == PadMode.CIRCULAR, transpose)

    @banded_cases
    def test_kernel_grad_matches_whole_tensor_sums(self, rng, kind, side, padding, even):
        # tiling splits each tap's sum, so only the rounding may differ
        m, x, xv, kern, axes = self.case(rng, kind, side, padding, even)
        assert_kernel_grad_within_rounding(rng, m, x, xv, kern, axes,
                                           padding == PadMode.CIRCULAR)


def conv_case(rng, kind, side, padding, n, k, lanes=3):
    """A conv mixer over convolved axes ``n`` long with ``k``-wide kernel axes.

    ``n`` and ``k`` are one size for every axis or an ``(h, w)`` pair, of
    which a conv1d takes the last.  Returns the mixer, its input ``x``
    (``lanes`` vectors), the conv view of ``x``, the kernel and the view's
    convolved axes.
    """
    conv, kshape = (tuple(np.broadcast_to(v, 2).tolist()) for v in (n, k))
    if kind == MixerKind.CONV1D:
        conv, kshape = conv[1:], kshape[1:]
    kern = rng.uniform(-1, 1, kshape)
    m = (Mixer.conv1d(side, kern, *conv, padding) if kind == MixerKind.CONV1D
         else Mixer.conv2d(side, kern, *conv, padding))
    if side == Side.TOKEN:
        xv = rng.uniform(-1, 1, conv + (lanes,))
        return m, xv.reshape(-1, lanes), xv, kern, tuple(range(len(conv)))
    xv = rng.uniform(-1, 1, (lanes,) + conv)
    return m, xv.reshape(lanes, -1), xv, kern, tuple(range(1, len(conv) + 1))


class TestConvTiles:
    """Convolved axes cut into ``TILE``-output tiles: whole, partial and single
    tiles.  A convolution of ``dim <= TILE`` outputs runs as its dense matrix
    instead, whatever its axes; one of ``TILE + 1`` outputs, or a grid whose
    rows are shorter than a tile, is on the Toeplitz route.  One kernel row
    (conv1d, or a ``kh = 1`` conv2d) reads its slabs in place; a taller kernel reads them from a strip with ``kh - 1`` halo rows,
    which wrap under circular padding, all of them when ``kh`` is the grid's
    height."""

    SIZES = pytest.mark.parametrize("n,k", [
        (16, 3), (13, 4), (5, 3), (13, 11), (tensor.TILE, 3), (tensor.TILE, 4),
        (tensor.TILE + 1, 3), (tensor.TILE + 1, 4),
        ((3, 13), 3), ((13, 3), 3), ((6, 24), (1, 5)), ((6, 24), (5, 1)), ((4, 13), (4, 3)),
        ((2, 4), (2, 3)), ((2, 2), 2), ((3, 3), 3),
    ], ids=["whole-tiles", "partial-tile", "shorter-than-tile", "kernel-wider-than-tile",
            "one-tile", "one-tile-even", "tile-plus-one", "tile-plus-one-even",
            "grid-3x13", "grid-13x3", "kernel-1x5", "kernel-5x1", "halo-rows-wrap",
            "dense-grid-2x4", "dense-grid-2x2", "grid-3x3"])

    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "transpose"])
    @SIZES
    @conv_cases
    def test_within_rounding_of_reference(self, rng, monkeypatch, kind, side, padding, n, k,
                                          transpose):
        tiled = []
        real = tensor._tiled
        monkeypatch.setattr(tensor, "_tiled", lambda *a: tiled.append(a) or real(*a))
        m, x, xv, kern, axes = conv_case(rng, kind, side, padding, n, k)
        got = apply_mixer_transpose(m, x) if transpose else apply_mixer(m, x)
        assert len(tiled) == (m.dim > tensor.TILE)     # the operator's size picks
        assert_within_rounding(got, xv, kern, axes, padding == PadMode.CIRCULAR, transpose)

    @SIZES
    @conv_cases
    def test_kernel_grad_within_rounding_of_tap_sums(self, rng, kind, side, padding, n, k):
        # the tiled route's adjoint on every axis length: g zero-extended to whole tiles
        m, x, xv, kern, axes = conv_case(rng, kind, side, padding, n, k)
        assert_kernel_grad_within_rounding(rng, m, x, xv, kern, axes,
                                           padding == PadMode.CIRCULAR)

    @SIZES
    @conv_cases
    def test_batch_stacks_and_transpose_is_adjoint(self, rng, kind, side, padding, n, k):
        m, x, xv, kern, axes = conv_case(rng, kind, side, padding, n, k)
        for batch in ((6,), (2, 3)):
            xs = rng.uniform(-1, 1, batch + x.shape)
            for apply in (apply_mixer, apply_mixer_transpose):
                want = np.stack([apply(m, s) for s in xs.reshape(6, *x.shape)])
                assert np.array_equal(apply(m, xs), want.reshape(xs.shape))
        # <M x, g> = <x, M^T g>, relative to sum |M| |x| |g|
        g = rng.uniform(-1, 1, x.shape)
        lhs, rhs = np.vdot(apply_mixer(m, x), g), np.vdot(x, apply_mixer_transpose(m, g))
        scale = padded_correlation(np.abs(xv), np.abs(kern), axes,
                                   padding == PadMode.CIRCULAR, False)
        assert abs(lhs - rhs) <= 1e-13 * np.vdot(scale, np.abs(g).reshape(scale.shape))

    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "transpose"])
    @pytest.mark.parametrize("k", [3, 4], ids=["odd", "even"])
    @conv_cases
    def test_inf_reaches_every_output_whose_taps_read_it(self, rng, kind, side, padding, k,
                                                         transpose):
        # an 8-long conv1d runs as a dense matrix, an 8 x 8 conv2d in Toeplitz tiles;
        # both spread an inf further (0 * inf is NaN), so only this much holds
        m, x, xv, kern, axes = conv_case(rng, kind, side, padding, tensor.TILE, k)
        circular = padding == PadMode.CIRCULAR
        for pos in ((0,) * xv.ndim, tuple(s // 2 for s in xv.shape)):
            hit = np.zeros(xv.shape)
            hit[pos] = 1.0
            xi = xv.copy()
            xi[pos] = np.inf
            xi = xi.reshape(x.shape)
            with np.errstate(invalid="ignore"):
                got = apply_mixer_transpose(m, xi) if transpose else apply_mixer(m, xi)
            reads = padded_correlation(hit, np.ones(kern.shape), axes, circular, transpose)
            assert not np.isfinite(got.reshape(xv.shape)[reads > 0]).any()


def strip_requests(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the ``_strip`` requests made from now on, as they are made."""
    shapes, strip = [], tensor._strip
    monkeypatch.setattr(tensor, "_strip", lambda shape: shapes.append(shape) or strip(shape))
    return shapes


class TestStripBlocks:
    """``kh > 1`` strips cut into several blocks, at 193 lanes on a 77 x 62
    grid.  On the token side an 11 x 11 kernel's strips hold 26, 26 and 25
    output rows, a 5 x 7 kernel's 39 and 38; on the channel side both hold
    97 and 96 lanes of all 77 rows.  The last tile of each row holds 2 of
    its ``STRIP_TILE`` outputs."""

    CASES = pytest.mark.parametrize("k,rows", [((11, 11), {26, 25}), ((5, 7), {39, 38})],
                                    ids=["11x11", "5x7"])
    SIDES = pytest.mark.parametrize("side", list(Side), ids=["token", "channel"])
    PADDINGS = pytest.mark.parametrize("padding", list(PadMode), ids=lambda p: p.name.lower())

    @staticmethod
    def case(rng, side, padding, k):
        return conv_case(rng, MixerKind.CONV2D, side, padding, (77, 62), k, lanes=193)

    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "transpose"])
    @CASES
    @SIDES
    @PADDINGS
    def test_within_rounding_of_reference(self, rng, monkeypatch, side, padding, k, rows,
                                          transpose):
        shapes = strip_requests(monkeypatch)
        m, x, xv, kern, axes = self.case(rng, side, padding, k)
        got = apply_mixer_transpose(m, x) if transpose else apply_mixer(m, x)
        if side == Side.TOKEN:      # (rows + kh - 1, span, lanes)
            assert {(s[0] - (k[0] - 1), s[2]) for s in shapes} == {(r, 193) for r in rows}
        else:                       # (lanes, rows + kh - 1, span)
            assert {s[:2] for s in shapes} == {(97, 77 + k[0] - 1), (96, 77 + k[0] - 1)}
        assert_within_rounding(got, xv, kern, axes, padding == PadMode.CIRCULAR, transpose)

    @CASES
    @SIDES
    @PADDINGS
    def test_kernel_grad_within_rounding_of_tap_sums(self, rng, side, padding, k, rows):
        m, x, xv, kern, axes = self.case(rng, side, padding, k)
        assert_kernel_grad_within_rounding(rng, m, x, xv, kern, axes,
                                           padding == PadMode.CIRCULAR)

    @CASES
    @SIDES
    @PADDINGS
    def test_batch_stacks(self, rng, side, padding, k, rows):
        m, x, _, _, _ = self.case(rng, side, padding, k)
        for batch in ((2,), (2, 1)):
            xs = rng.uniform(-1, 1, batch + x.shape)
            for apply in (apply_mixer, apply_mixer_transpose):
                want = np.stack([apply(m, s) for s in xs.reshape(2, *x.shape)])
                assert np.array_equal(apply(m, xs), want.reshape(xs.shape))

    @SIDES
    def test_no_lanes(self, side):
        m = Mixer.conv2d(side, np.ones((3, 3)), 8, 8)
        x = np.ones((64, 0) if side == Side.TOKEN else (0, 64))
        assert apply_mixer(m, x).shape == apply_mixer_transpose(m, x).shape == x.shape
        assert np.array_equal(conv_kernel_grad(m, x, x), np.zeros((3, 3)))

    def test_strips_fit_in_a_mebibyte(self, rng, monkeypatch):
        # grid-infer's 64 x 64 x 192 token grid: the forward, the transpose and
        # the kernel gradient; then a channel grid of 4,096 tokens
        shapes = strip_requests(monkeypatch)
        m = Mixer.conv2d(Side.TOKEN, rng.uniform(-1, 1, (11, 11)), 64, 64)
        x, g = rng.uniform(-1, 1, (2, 4096, 192))
        apply_mixer(m, x)
        apply_mixer_transpose(m, g)
        conv_kernel_grad(m, x, g)
        assert len(shapes) == 3 * 2 * 16        # per call, 2 row blocks of 16 tile columns
        apply_mixer(Mixer.conv2d(Side.CHANNEL, rng.uniform(-1, 1, (11, 11)), 16, 12), x)
        assert len(shapes) > 3 * 2 * 16
        assert max(8 * np.prod(s) for s in shapes) <= 2 ** 20


class TestBatch:
    """Leading batch axes: each sample is mixed exactly as it is alone."""

    @pytest.mark.parametrize("batch", [(6,), (2, 3)], ids=["batch-6", "batch-2x3"])
    @pytest.mark.parametrize("side", [Side.TOKEN, Side.CHANNEL], ids=["token", "channel"])
    def test_every_kind_and_padding_stacks(self, rng, side, batch):
        x = rng.uniform(-1, 1, batch + ((9, 4) if side == Side.TOKEN else (4, 9)))
        samples = x.reshape(6, *x.shape[-2:])
        for m in random_mixers(rng, 9, side):
            batched, one = FlopLedger(), FlopLedger()
            got = apply_mixer(m, x)
            batched.count(m, x.size)
            want = np.stack([apply_mixer(m, s) for s in samples]).reshape(x.shape)
            assert np.array_equal(got, want)
            want_t = np.stack([apply_mixer_transpose(m, s) for s in samples]).reshape(x.shape)
            assert np.array_equal(apply_mixer_transpose(m, x), want_t)
            one.count(m, samples[0].size)
            assert batched.macs == 6 * one.macs

    def test_vectors_rejected(self):
        with pytest.raises(ShapeError):
            apply_mixer(Mixer.diagonal(Side.CHANNEL, np.ones(3)), np.ones(3))


class TestStripBuffer:
    """Every padded piece of the Toeplitz route is a view of one buffer per
    thread, kept across calls: no convolution's result depends on which ran
    before it, on its own thread or on another."""

    @staticmethod
    def calls(rng):
        big = Mixer.conv2d(Side.TOKEN, rng.uniform(-1, 1, (11, 11)), 24, 24)
        small = Mixer.conv2d(Side.CHANNEL, rng.uniform(-1, 1, (3, 5)), 4, 5, PadMode.CIRCULAR)
        seq = Mixer.conv1d(Side.TOKEN, rng.uniform(-1, 1, 11), 100)     # one row: edge pieces
        x_big, x_small = rng.uniform(-1, 1, (576, 16)), rng.uniform(-1, 1, (7, 20))
        x_seq, g_big = rng.uniform(-1, 1, (100, 12)), rng.uniform(-1, 1, (576, 16))
        return {"big": lambda: apply_mixer(big, x_big),
                "small": lambda: apply_mixer(small, x_small),
                "seq": lambda: apply_mixer_transpose(seq, x_seq),
                "grad": lambda: conv_kernel_grad(big, x_big, g_big)}

    def test_interleaved_shapes_on_one_thread(self, rng):
        calls = self.calls(rng)
        first = {name: call().tobytes() for name, call in calls.items()}
        for name in ("big", "small", "seq", "big", "grad", "small", "seq", "big"):
            assert calls[name]().tobytes() == first[name], name

    def test_two_threads_match_serial(self, rng):
        rounds = 30
        cases = [(Mixer.conv2d(Side.TOKEN, rng.uniform(-1, 1, (11, 11)), 24, 24),
                  rng.uniform(-1, 1, (576, 64))),
                 (Mixer.conv2d(Side.TOKEN, rng.uniform(-1, 1, (5, 7)), 16, 20, PadMode.CIRCULAR),
                  rng.uniform(-1, 1, (320, 48)))]
        serial = [apply_mixer(m, x).tobytes() for m, x in cases]
        results: list[list[bytes]] = [[], []]
        start = threading.Barrier(2, timeout=60)

        def work(j):
            m, x = cases[j]
            start.wait()
            for _ in range(rounds):
                results[j].append(apply_mixer(m, x).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for j in range(2):
            assert results[j] == [serial[j]] * rounds, j


#: sha256 of ``conv2d_case_bytes()``, as the Toeplitz route computes it with
#: ``STRIP_TILE``-wide strip tiles; where the strip buffer lies changes no bit
CONV2D_SHA256 = "05b88e7ac4dc05e42fa01c024729d64d87b7dc7d405073cd4bd34d59cbe1f208"


def conv2d_case_bytes() -> bytes:
    """Forward, transpose and kernel gradient of seeded conv2d mixers, back to
    back: both sides, ``kh > 1`` and ``kh = 1``, zero and circular padding,
    unbatched and batched, on a 12 x 20 grid (every route is the tiled one)."""
    rng = np.random.default_rng(2323)
    parts = []
    for side, kshape, pad, batch in itertools.product(
            Side, [(5, 7), (1, 5)], PadMode, [(), (2,)]):
        m = Mixer.conv2d(side, rng.uniform(-1, 1, kshape), 12, 20, pad)
        shape = batch + ((240, 6) if side == Side.TOKEN else (5, 240))
        x, g = rng.uniform(-1, 1, (2,) + shape)
        parts += [apply_mixer(m, x), apply_mixer_transpose(m, g), conv_kernel_grad(m, x, g)]
    return b"".join(p.tobytes() for p in parts)


class TestStripAlignment:
    """The strip buffer starts on a 64-byte cache line, so the ``kh > 1``
    slabs that the tile GEMMs read have cache-line-aligned rows; the bits
    do not depend on where the buffer lies."""

    @staticmethod
    def offsets_while_growing() -> list[int]:
        # a fresh thread starts with no buffer, so each larger shape reallocates
        # it; every allocation is kept alive, so none reuses another's memory
        offsets, owners = [], []

        def grow():
            for size in range(1000, 20_000, 1500):
                view = tensor._strip((size // 10, 10))
                offsets.append(view.ctypes.data % 64)
                owners.append(view.base)
        thread = threading.Thread(target=grow)
        thread.start()
        thread.join(timeout=60)
        assert len(offsets) == len(set(map(id, owners))) == 13
        return offsets

    def test_every_view_starts_on_a_cache_line(self):
        assert self.offsets_while_growing() == [0] * 13
        assert self.offsets_while_growing() == [0] * 13      # a second thread's own buffer

    def test_conv_pieces_start_on_a_cache_line(self, monkeypatch):
        offsets = []
        strip = tensor._strip

        def recording(shape):
            view = strip(shape)
            offsets.append(view.ctypes.data % 64)
            return view
        monkeypatch.setattr(tensor, "_strip", recording)
        conv2d_case_bytes()
        assert len(offsets) > 100 and set(offsets) == {0}

    def test_outputs_unchanged(self):
        assert hashlib.sha256(conv2d_case_bytes()).hexdigest() == CONV2D_SHA256


class TestFlops:
    def test_diagonal_ratio_exactly_two(self):
        counts = []
        for dim in (8, 16, 32, 64):
            led = FlopLedger()
            led.count(Mixer.diagonal(Side.TOKEN, np.ones(dim)), np.ones((dim, 3)).size)
            counts.append(led.macs)
        for a, b in zip(counts, counts[1:]):
            assert b == 2 * a

    @pytest.mark.parametrize("circular", [False, True])
    def test_conv_ratio_near_two(self, circular):
        pad = PadMode.CIRCULAR if circular else PadMode.ZERO
        counts = []
        for dim in (32, 64, 128, 256):
            led = FlopLedger()
            m = Mixer.conv1d(Side.TOKEN, np.ones(5), dim, pad)
            led.count(m, np.ones((dim, 2)).size)
            counts.append(led.macs)
        for a, b in zip(counts, counts[1:]):
            ratio = b / a
            assert 1.8 <= ratio <= 2.2
            if circular:
                assert ratio == 2.0

    def test_conv_count_skips_zero_padding(self):
        led = FlopLedger()
        led.count(Mixer.conv1d(Side.TOKEN, np.ones(3), 4), np.ones((4, 1)).size)
        # interior rows use 3 taps, the two boundary rows 2 taps
        assert led.macs == 3 * 4 - 2

    def test_ledger_breakdown_sums(self, rng):
        led = FlopLedger()
        x = rng.uniform(-1, 1, (6, 4))
        led.count(Mixer.dense(Side.TOKEN, np.eye(6)), x.size)
        led.count(Mixer.dense(Side.CHANNEL, np.eye(4)), x.size)
        led.add("hadamard", hadamard(x, x).size)
        assert led.macs == led.token_mix + led.channel_mix + led.hadamard
        assert led.flops == 2 * led.macs


class TestHadamard:
    def test_identity_annihilator_and_oracle(self, rng):
        a = rng.uniform(-1, 1, (3, 4))
        np.testing.assert_array_equal(hadamard(a, np.ones_like(a)), a)
        np.testing.assert_array_equal(hadamard(a, np.zeros_like(a)), np.zeros_like(a))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = x[i, j] * y[i, j]
        np.testing.assert_array_equal(hadamard(x, y), expected)
        np.testing.assert_array_equal(expected, [[5.0, 12.0], [21.0, 32.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))


class TestOracleCaps:
    def test_diag_and_delta_examples(self):
        np.testing.assert_array_equal(
            dense_of(Mixer.diagonal(Side.TOKEN, [2.0, 3.0])),
            [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(
            dense_of(Mixer.conv1d(Side.TOKEN, [1.0], 3)), np.eye(3))
        np.testing.assert_array_equal(
            dense_of(Mixer.low_rank(Side.TOKEN, [[1.0], [1.0]], [[1.0, -1.0]])),
            [[1.0, -1.0], [1.0, -1.0]])


class TestMixerSerialization:
    def test_round_trip_every_kind(self, rng):
        for side in (Side.TOKEN, Side.CHANNEL):
            for m in random_mixers(rng, 9, side):
                buf = io.BytesIO()
                write_records(buf, [mixer_to_record(m)])
                buf.seek(0)
                back = mixer_from_record(read_records(buf)[0])
                assert back.kind == m.kind and back.side == m.side
                assert back.dim == m.dim and back.padding == m.padding
                for (na, a), (nb, b) in zip(m.param_arrays(), back.param_arrays()):
                    assert na == nb
                    np.testing.assert_array_equal(a, b)
