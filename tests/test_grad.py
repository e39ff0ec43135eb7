"""Reverse-mode gradients against hand results and central differences."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from padre import block as block_mod, grad as grad_mod
from padre.block import (
    RMS_EPS,
    Grid,
    Seq1d,
    WMode,
    build_conv_instance,
    forward,
    iter_parameters,
    random_block,
)
from padre.grad import backward, gradcheck, mixer_param_grad
from padre.rational import random_rational_block, rational_backward, rational_forward
from padre.tensor import (
    Mixer,
    MixerKind,
    NumericError,
    PadMode,
    ShapeError,
    Side,
    apply_mixer,
    apply_mixer_transpose,
    conv_kernel_grad,
)
from padre.verify import conditioned_norm_block

from test_block import identity_block


class TestBackwardExamples:
    def test_identity_configuration_passes_upstream(self, rng):
        block = identity_block(4, 3, 1, [1.0], {1})
        x = rng.uniform(-1, 1, (4, 3))
        _, trace = forward(block, x)
        g = rng.uniform(-1, 1, (4, 3))
        np.testing.assert_array_equal(backward(block, trace, g).d_x, g)

    def test_scalar_hand_derivative(self):
        # P = x + x^2, dP/dx at x=3 is 1 + 2*3 = 7
        block = identity_block(1, 1, 2, [1.0, 1.0], {1, 2})
        x = np.array([[3.0]])
        _, trace = forward(block, x)
        bundle = backward(block, trace, np.array([[1.0]]))
        assert bundle.d_x[0, 0] == pytest.approx(7.0, abs=1e-12)
        h = 1e-6
        fd = (forward(block, x + h)[0] - forward(block, x - h)[0]) / (2 * h)
        assert bundle.d_x[0, 0] == pytest.approx(fd[0, 0], rel=1e-8)

    def test_zero_input_kills_weight_grads_without_degree_one(self, rng):
        block = random_block(5, 3, 3, seed=0, degree_mask=frozenset({2, 3}))
        _, trace = forward(block, np.zeros((5, 3)))
        d_w = backward(block, trace, rng.uniform(-1, 1, (5, 3))).by_label()["W"]
        np.testing.assert_array_equal(d_w, np.zeros_like(d_w))

    def test_batched_trace_rejected(self, rng):
        block = random_block(4, 3, 2, seed=2)
        x = rng.uniform(-1, 1, (2, 4, 3))
        out, trace = forward(block, x)
        with pytest.raises(ShapeError):
            backward(block, trace, np.ones_like(out))

    def test_vjp_linear_in_upstream(self, rng):
        # a trace serves one backward, so each gets its own (deterministic) forward
        block = random_block(6, 4, 3, seed=1, with_bias=True)
        x = rng.uniform(-1, 1, (6, 4))
        g1 = rng.uniform(-1, 1, (6, 4))
        g2 = rng.uniform(-1, 1, (6, 4))
        joint = backward(block, forward(block, x)[1], g1 + g2)
        a = backward(block, forward(block, x)[1], g1)
        b = backward(block, forward(block, x)[1], g2)
        for label, arr in joint.by_label().items():
            other = a.by_label()[label] + b.by_label()[label]
            assert np.max(np.abs(arr - other)) <= 1e-12 * max(1, np.max(np.abs(arr)))
        assert np.max(np.abs(joint.d_x - a.d_x - b.d_x)) <= 1e-12


class TestLabels:
    # a single-degree mask: the masked degrees' mixers get their labels too
    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "bias-resize"])
    @pytest.mark.parametrize("w_mode", list(WMode), ids=lambda m: m.name.lower())
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_labels_and_shapes_are_the_blocks_own(self, rng, d, w_mode, extras):
        block = random_block(9, 4, d, seed=d, w_mode=w_mode, with_bias=extras,
                             degree_mask=frozenset({d}))
        if extras:
            block.resize_left = rng.uniform(-1, 1, (3, 9))
            block.resize_right = rng.uniform(-1, 1, (4, 2))
        x = rng.uniform(-1, 1, (9, 4))
        out, trace = forward(block, x)
        bundle = backward(block, trace, rng.uniform(-1, 1, out.shape))
        params = dict(iter_parameters(block))
        assert set(bundle.by_label()) == set(params)
        for label, arr in params.items():
            assert bundle.by_label()[label].shape == arr.shape, label
        assert bundle.d_x.shape == x.shape


class TestTraceConsumed:
    """A trace serves one backward: ``backward`` frees each feature and
    cascade tensor at its last use and leaves the trace's lists empty."""

    @pytest.mark.parametrize("normalize_y", [False, True], ids=["plain", "rms"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lists_end_empty(self, rng, d, normalize_y):
        block = random_block(5, 4, d, seed=d, with_bias=True, normalize_y=normalize_y)
        _, trace = forward(block, rng.uniform(-1, 1, (5, 4)))
        backward(block, trace, rng.uniform(-1, 1, (5, 4)))
        assert (trace.y, trace.y_raw, trace.t, trace.z) == ([], [], [], [])

    @pytest.mark.parametrize("square", [False, True], ids=["plain", "squared"])
    def test_both_rational_chains_end_empty(self, rng, square):
        block = random_rational_block(5, 4, 3, 2, seed=7, square_denominator=square)
        _, trace = rational_forward(block, rng.uniform(-1, 1, (5, 4)))
        rational_backward(block, trace, rng.uniform(-1, 1, (5, 4)))
        for chain in (trace.num_trace, trace.den_trace):
            assert (chain.y, chain.y_raw, chain.t) == ([], [], [])

    @pytest.mark.parametrize("d", [1, 3])
    def test_second_backward_raises(self, rng, d):
        block = random_block(5, 4, d, seed=d)
        _, trace = forward(block, rng.uniform(-1, 1, (5, 4)))
        g = rng.uniform(-1, 1, (5, 4))
        backward(block, trace, g)
        with pytest.raises(ShapeError, match="was consumed"):
            backward(block, trace, g)

    def test_short_trace_raises_before_any_arithmetic(self, rng, monkeypatch):
        block = random_block(5, 4, 3, seed=1)
        _, trace = forward(random_block(5, 4, 2, seed=1), rng.uniform(-1, 1, (5, 4)))
        held = [list(trace.y), list(trace.t)]
        monkeypatch.setattr(grad_mod, "_pair_backward", None)   # any call would fail
        with pytest.raises(ShapeError, match="needs 3 features and 2 mixed terms"):
            backward(block, trace, np.full((5, 4), np.nan))
        assert [trace.y, trace.t] == held

    @pytest.mark.parametrize("d", [2, 3])
    def test_float32_trace_keeps_float64_gradients(self, rng, d):
        # identity mixers keep a float32 input's trace float32; writing dL/dY_i
        # into a freed float32 buffer would round it, and carry it into d_x
        block = identity_block(5, 4, d, rng.uniform(-1, 1, d), range(1, d + 1))
        _, trace = forward(block, rng.uniform(-1, 1, (5, 4)).astype(np.float32))
        assert trace.t[0].dtype == np.float32
        got = backward(block, trace, rng.uniform(-1, 1, (5, 4)))
        assert got.d_x.dtype == np.float64
        for label, arr in got.by_label().items():
            assert arr.dtype == np.float64, label


class TestUpstream:
    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
    def test_every_gradient_is_float64_with_the_cast_bits(self, dtype, rng):
        block = random_block(4, 3, 2, seed=0, with_bias=True)
        x = rng.uniform(-1, 1, (4, 3))
        g = rng.uniform(-3, 3, (4, 3)).astype(dtype)
        got = backward(block, forward(block, x)[1], g)
        want = backward(block, forward(block, x)[1], g.astype(np.float64))
        assert got.by_label()["L"].dtype == np.float64
        for label, arr in want.by_label().items():
            assert got.by_label()[label].dtype == np.float64, label
            assert got.by_label()[label].tobytes() == arr.tobytes(), label
        assert got.d_x.tobytes() == want.d_x.tobytes()

    def test_wrong_shape_raises_shape_error(self, rng):
        block = random_block(4, 3, 2, seed=0)
        _, trace = forward(block, rng.uniform(-1, 1, (4, 3)))
        with pytest.raises(ShapeError, match="upstream shape"):
            backward(block, trace, np.ones((3, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_without_warning(self, value, rng):
        block = random_block(4, 3, 2, seed=0, with_bias=True)
        _, trace = forward(block, rng.uniform(-1, 1, (4, 3)))
        g = rng.uniform(-1, 1, (4, 3))
        g[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                backward(block, trace, g)
        assert err.value.stage == "upstream"


def recompute_pair_backward(t: Mixer, m: Mixer, u: np.ndarray, grads: list, i: int,
                            out: dict, tags: tuple[str, str]) -> np.ndarray:
    """The pair backward in the order that recomputes ``u M``: dT from
    ``(u M, g)``, dM from ``(u, w = T^T g)`` and ``dL/du = w M^T``."""
    g, grads[i] = grads[i], None
    w = apply_mixer_transpose(t, g)
    for tag, parts in ((tags[0], mixer_param_grad(t, apply_mixer(m, u), g)),
                       (tags[1], mixer_param_grad(m, u, w))):
        out.update((f"{tag}.{pname}", arr) for pname, arr in parts.items())
    return apply_mixer_transpose(m, w)


def grads_of(monkeypatch, pair_backward, block, x, g) -> dict:
    with monkeypatch.context() as patch:
        if pair_backward is not None:
            patch.setattr(grad_mod, "_pair_backward", pair_backward)
        bundle = backward(block, forward(block, x)[1], g)
    return {**bundle.by_label(), "x": bundle.d_x}


def moduli_grads(monkeypatch, block, x, g) -> dict:
    """The recompute order's gradients with every factor replaced by its modulus.

    Parameters, x and the upstream become their absolute values; under RMS
    normalization each row scale stays the original block's and the
    normalization's backward adds its two terms' moduli.  Each entry is then
    the sum of the moduli of the products that the entry sums, which bounds
    the rounding of any order of summing them.
    """
    scales = [np.sqrt(np.mean(y * y, axis=1, keepdims=True) + RMS_EPS)
              for y in forward(block, x)[1].y_raw]
    held = {}

    def normalize(y):
        held[id(y)] = s = scales[len(held)]
        return y / s

    def rms_backward(m_pre, g_y):
        s = held[id(m_pre)]
        dot = np.sum(g_y * m_pre, axis=1, keepdims=True)
        return g_y / s + m_pre * dot / (m_pre.shape[1] * s ** 3)

    block = copy.deepcopy(block)
    for _, arr in iter_parameters(block):
        np.abs(arr, out=arr)
    with monkeypatch.context() as patch:
        patch.setattr(block_mod, "rms_normalize_rows", normalize)
        patch.setattr(grad_mod, "_rms_backward", rms_backward)
        return grads_of(monkeypatch, recompute_pair_backward, block, np.abs(x), np.abs(g))


class TestPairBackward:
    """The pair backward, which never recomputes ``u M``, differs from the
    order that does only in rounding.

    Stated bound: each gradient entry of the two agrees within ``1e-14 * S``,
    S being that entry of ``moduli_grads``.  Measured over these blocks: at
    most 2.4e-16 * S.
    """

    @pytest.mark.parametrize("normalize_y", [False, True], ids=["plain", "rms"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_within_the_moduli_bound(self, monkeypatch, degree, normalize_y):
        differs = 0
        for k, ((n, dc), w_mode) in enumerate(zip(
                [(4, 3), (9, 4), (16, 3), (12, 12)] * 3, list(WMode) * 4)):
            block = random_block(n, dc, degree, seed=10 * degree + k, w_mode=w_mode,
                                 with_bias=k % 2 == 1, normalize_y=normalize_y)
            rng = np.random.default_rng(k)
            x, g = rng.uniform(-1, 1, (n, dc)), rng.uniform(-1, 1, (n, dc))
            got = grads_of(monkeypatch, None, block, x, g)
            ref = grads_of(monkeypatch, recompute_pair_backward, block, x, g)
            moduli = moduli_grads(monkeypatch, block, x, g)
            for label, arr in ref.items():
                assert np.all(np.abs(got[label] - arr) <= 1e-14 * moduli[label]), (k, label)
                differs += not np.array_equal(got[label], arr)
        assert differs      # the patch did swap in the other order


def peak_bytes(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates above what is live when it starts;
    tracemalloc counts numpy's allocations exactly."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


class TestBackwardMemory:
    """``backward`` starts each gradient buffer at its first contribution and
    frees it, each recomputed tensor and each trace tensor once used."""

    # The trace holds 2d copies of x (Y_1..Y_d, t_1..t_{d-1}, P) and the
    # backward adds at most 2.25 more (two working buffers and conv scratch):
    # forward + backward measured 6.07 / 8.29 / 10.31 |x| (seq) and
    # 5.35 / 8.15 / 10.14 (grid) at d = 2 / 3 / 4.  A backward that keeps the
    # whole trace to its end peaks at 7.49 / 10.62 / 13.74 and 7.20 / 10.24 /
    # 13.27, above this bound at every d.
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n,layout", [(256, Seq1d()), (1024, Grid(32, 32))],
                             ids=["seq", "grid"])
    def test_forward_and_backward_peak(self, rng, n, layout, d):
        block = build_conv_instance(n, 24, d, layout, seed=d)
        x = rng.uniform(-1, 1, (n, 24))
        g = rng.uniform(-1, 1, x.shape)
        backward(block, forward(block, x)[1], g)      # sizes the conv strip buffer

        def step():
            return backward(block, forward(block, x)[1], g)

        assert peak_bytes(step) <= (2 * d + 3) * x.nbytes

    # the measured peaks over |x| are 1.86 (conv2d, whose strip is 1.42 of
    # it) and 0.34 (conv1d) on both sides and paddings; an adjoint that holds
    # every tile's product at once peaks at 4.5 and 1.9, and 8-wide conv2d
    # strip tiles at 2.73
    @pytest.mark.parametrize("kind,peak", [("conv2d", 1.9), ("conv1d", 0.35)])
    @pytest.mark.parametrize("padding", list(PadMode), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name.lower())
    def test_conv_kernel_grad_peak(self, rng, kind, peak, padding, side):
        # D = 24 lanes against an 11-wide kernel: a tile's product is large
        # beside its share of x, so the products are summed chunk by chunk
        if kind == "conv2d":
            m = Mixer.conv2d(side, rng.uniform(-1, 1, (11, 11)), 16, 16, padding)
        else:
            m = Mixer.conv1d(side, rng.uniform(-1, 1, 11), 256, padding)
        shape = (256, 24) if side == Side.TOKEN else (24, 256)
        x, g = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
        # the first call sizes the thread's strip buffer, kept across calls, and
        # numpy's caches of small freed buffers (shapes, strides) fill over the
        # first ~10 calls: both would count in a cold process and not in a warm one
        for _ in range(12):
            conv_kernel_grad(m, x, g)
        assert peak_bytes(conv_kernel_grad, m, x, g) <= peak * x.nbytes


class TestConvKernelGrad:
    # tokens form a 4 x 5 grid, channels a 3 x 3 grid
    N, D = 20, 9
    KERNELS = {("conv1d", "odd"): (5,), ("conv1d", "even"): (4,),
               ("conv2d", "odd"): (3, 3), ("conv2d", "even"): (2, 2)}

    def make(self, kind, side, padding, kernel):
        if kind == "conv1d":
            return Mixer.conv1d(side, kernel, self.N if side == Side.TOKEN else self.D, padding)
        grid = (4, 5) if side == Side.TOKEN else (3, 3)
        return Mixer.conv2d(side, kernel, *grid, padding)

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("padding", list(PadMode))
    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("kind", ["conv1d", "conv2d"])
    def test_each_tap_is_the_unit_kernel_response(self, kind, side, padding, parity, rng):
        shape = self.KERNELS[kind, parity]
        m = self.make(kind, side, padding, rng.uniform(-1, 1, shape))
        x = rng.uniform(-1, 1, (self.N, self.D))
        g = rng.uniform(-1, 1, (self.N, self.D))
        got = mixer_param_grad(m, x, g)["kernel"]
        assert got.shape == shape
        for tap in np.ndindex(*shape):
            unit = np.zeros(shape)
            unit[tap] = 1.0
            want = float(np.sum(g * apply_mixer(self.make(kind, side, padding, unit), x)))
            assert abs(got[tap] - want) <= 1e-12 * abs(want), tap


class TestGradcheck:
    def test_conv_instances(self, rng):
        for n, d_ch, deg, layout in [(64, 16, 4, Seq1d()), (16, 4, 2, Grid(4, 4)),
                                     (36, 8, 3, Grid(6, 6))]:
            block = build_conv_instance(n, d_ch, deg, layout, seed=deg)
            x = rng.uniform(-1, 1, (n, d_ch))
            rep = gradcheck(block, x, probes=200, seed=deg)
            assert rep.max_rel_err < 1e-5, (n, d_ch, deg, rep.max_rel_err)

    @pytest.mark.parametrize("n,layout", [(256, Seq1d()), (16 * 16, Grid(16, 16))],
                             ids=["seq", "grid"])
    def test_conv_instance(self, n, layout, rng):
        # the workloads' mixers: conv1d k=11 or conv2d 11x11 token mixers and dense channel ones
        block = build_conv_instance(n, 24, 3, layout, seed=5)
        rep = gradcheck(block, rng.uniform(-1, 1, (n, 24)), probes=120, seed=6)
        assert rep.max_rel_err < 1e-5

    def test_linear_block_is_exact_to_rounding(self, rng):
        block = identity_block(5, 4, 1, [1.0], {1})
        rep = gradcheck(block, rng.uniform(-1, 1, (5, 4)), probes=50)
        assert rep.max_rel_err < 1e-12

    def test_normalized_block_passes(self, rng):
        x = rng.uniform(-1, 1, (9, 4))
        block = conditioned_norm_block(9, 4, 3, seed=21, x=x)
        rep = gradcheck(block, x, probes=200, seed=2)
        assert rep.max_rel_err < 1e-5

    def test_every_kind_and_degree(self, rng):
        seen = set()
        worst = 0.0
        for deg in (1, 2, 3, 4):
            for seed in range(3):
                block = random_block(9, 4, deg, seed=100 + 10 * deg + seed,
                                     with_bias=bool(seed == 1))
                for m in (block.token_mixers + block.channel_mixers
                          + block.inter_token + block.inter_channel):
                    seen.add(m.kind)
                x = rng.uniform(-1, 1, (9, 4))
                rep = gradcheck(block, x, probes=200, seed=seed)
                worst = max(worst, rep.max_rel_err)
                assert rep.max_rel_err < 1e-5, (deg, seed, rep.max_rel_err)
        assert seen == set(MixerKind), f"kinds not all covered: {seen}"

    def test_with_resize_operators(self, rng):
        block = random_block(6, 4, 2, seed=3)
        block.resize_left = rng.uniform(-1, 1, (3, 6))
        block.resize_right = rng.uniform(-1, 1, (4, 2))
        rep = gradcheck(block, rng.uniform(-1, 1, (6, 4)), probes=200, seed=4)
        assert rep.max_rel_err < 1e-5

    def test_w_modes(self, rng):
        for mode in (WMode.FULL, WMode.CHANNEL_BROADCAST, WMode.SCALAR_PER_DEGREE):
            block = random_block(6, 3, 3, seed=5, w_mode=mode)
            rep = gradcheck(block, rng.uniform(-1, 1, (6, 3)), probes=150, seed=5)
            assert rep.max_rel_err < 1e-5, mode
