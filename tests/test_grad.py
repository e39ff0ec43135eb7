"""Reverse-mode gradients against hand results and central differences."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from padre import block as block_mod, grad as grad_mod, tensor as tensor_mod
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

from conftest import rel_dev
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


class TestComposedBackward:
    """A composed trace's degree-1 chain goes through one ``_chain_backward``.

    Stated bound: each gradient entry of the composed and the general route
    agrees within ``1e-13 * S``, S being that entry of ``moduli_grads`` (as in
    ``test_block.TestComposedRoute``).  Measured over these cases: at most
    2.5e-18 * S.
    """

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n,layout", [(48, Seq1d()), (64, Grid(8, 8))], ids=["seq", "grid"])
    def test_within_the_moduli_bound(self, monkeypatch, rng, n, layout, d):
        block = build_conv_instance(n, 12, d, layout, seed=d)
        x, g = rng.uniform(-1, 1, (2, n, 12))
        got = grads_of(monkeypatch, None, block, x, g)
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            want = grads_of(monkeypatch, None, block, x, g)
            moduli = moduli_grads(monkeypatch, block, x, g)
        assert set(got) == set(want)
        for label, arr in want.items():
            assert np.all(np.abs(got[label] - arr) <= 1e-13 * moduli[label]), label

    @pytest.mark.parametrize("composed", [True, False], ids=["composed", "general"])
    def test_the_trace_picks_the_route(self, monkeypatch, rng, composed):
        # a trace is differentiated the way its forward ran, whatever the rule says now
        block = build_conv_instance(48, 12, 3, Seq1d(), seed=2)
        x, g = rng.uniform(-1, 1, (2, 48, 12))
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: composed)
            trace = forward(block, x)[1]
            want = backward(block, forward(block, x)[1], g)
        assert (trace.v1 is not None) == composed
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: not composed)
            got = backward(block, trace, g)
        assert (trace.y, trace.y_raw, trace.t, trace.v1) == ([], [], [], None)
        for label, arr in want.by_label().items():
            assert got.by_label()[label].tobytes() == arr.tobytes(), label
        assert got.d_x.tobytes() == want.d_x.tobytes()
        with pytest.raises(ShapeError, match="was consumed"):
            backward(block, trace, g)


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

    # The trace holds 2d copies of x (V_1 or Y_1, Y_2..Y_d, t_1..t_{d-1}, P)
    # and the backward adds at most 2.25 more (two working buffers and conv
    # scratch): forward + backward on the composed route measured
    # 6.09 / 8.32 / 10.34 |x| (seq) and 5.35 / 8.13 / 10.13 (grid) at
    # d = 2 / 3 / 4.  A backward that keeps the whole trace to its end peaks
    # at 7.49 / 10.62 / 13.74 and 7.20 / 10.24 / 13.27, above this bound at
    # every d.
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

    #: Python objects (generator frames, array headers, slices) and numpy's
    #: small-buffer caches, which move a reading by up to ~1 KB from call to
    #: call; measured at 4.2-4.5 KB above the arrays below
    OBJECT_BYTES = 8192

    @pytest.mark.parametrize("kind", ["conv2d", "conv1d"])
    @pytest.mark.parametrize("padding", list(PadMode), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name.lower())
    def test_conv_kernel_grad_peak(self, rng, kind, padding, side):
        # D = 24 lanes against an 11-wide kernel: a tile's product is large
        # beside its share of x, so the products are summed chunk by chunk
        if kind == "conv2d":
            m = Mixer.conv2d(side, rng.uniform(-1, 1, (11, 11)), 16, 16, padding)
        else:
            m = Mixer.conv1d(side, rng.uniform(-1, 1, 11), 256, padding)
        shape = (256, 24) if side == Side.TOKEN else (24, 256)
        x, g = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
        conv_kernel_grad(m, x, g)      # sizes the thread's strip buffer, kept across calls
        # what the adjoint allocates: dt and a chunk's sum, kh (w + kw - 1) x w
        # values each, and one chunk's products, at most max(|x| / TILE, |dt|)
        # values, which go before the next chunk's are made.  Measured
        # 12.7 KB against 16.6 KB (conv1d) and 20.5 KB against 24.2 KB (conv2d,
        # one tile per chunk, whose peak is the sum of a chunk, not the next
        # chunk); holding the last chunk's products while the next are made
        # peaks at 17.1 KB on conv1d
        kh, kw = m.kernel.reshape(-1, m.kernel.shape[-1]).shape
        w = tensor_mod._width(kh)
        dt = kh * (w + kw - 1) * w
        chunk = max(x.size // tensor_mod.TILE, dt)
        bound = 8 * (2 * dt + chunk) + self.OBJECT_BYTES
        assert bound < 8 * (m.dim // w) * dt       # every tile's product at once
        assert peak_bytes(conv_kernel_grad, m, x, g) <= bound


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

    @pytest.mark.parametrize("scale", [1e103, 1e160])
    def test_normalized_block_at_large_input_scales(self, rng, scale):
        # a feature row's RMS s follows the scale: D s^3 overflows from ~4e102
        # and the squares from ~1.3e154.  The output is scale-invariant, so each
        # parameter gradient is the one at a moderate scale, and d_x * scale is too
        x = rng.uniform(-1, 1, (9, 4))
        block = conditioned_norm_block(9, 4, 3, seed=21, x=x)
        rep = gradcheck(block, scale * x, probes=200, seed=2)
        assert rep.max_rel_err < 1e-5
        g = rng.uniform(-1, 1, (9, 4))
        want = backward(block, forward(block, 1e50 * x)[1], g)
        got = backward(block, forward(block, scale * x)[1], g)
        assert rel_dev(got.d_x * scale, want.d_x * 1e50) <= 1e-12
        # a diagonal token mixer scales whole rows, which the normalization
        # undoes, so its gradient is zero up to rounding
        top = max(np.max(np.abs(arr)) for arr in want.grads.values())
        for label, arr in want.grads.items():
            assert np.max(np.abs(got.grads[label] - arr)) <= 1e-12 * top, label

    def test_every_kind_and_degree(self, rng):
        seen = set()
        worst = 0.0
        cases = [(deg, seed, None) for deg in (1, 2, 3, 4) for seed in range(3)]
        # top degrees masked out: the backward starts below them from dL/dZ = 0
        cases += [(3, 0, frozenset({1})), (3, 1, frozenset({2})), (4, 2, frozenset({1, 2}))]
        for deg, seed, mask in cases:
            block = random_block(9, 4, deg, seed=100 + 10 * deg + seed,
                                 with_bias=bool(seed == 1), degree_mask=mask)
            for m in (block.token_mixers + block.channel_mixers
                      + block.inter_token + block.inter_channel):
                seen.add(m.kind)
            x = rng.uniform(-1, 1, (9, 4))
            rep = gradcheck(block, x, probes=200, seed=seed)
            worst = max(worst, rep.max_rel_err)
            assert rep.max_rel_err < 1e-5, (deg, seed, mask, rep.max_rel_err)
        assert seen == set(MixerKind), f"kinds not all covered: {seen}"

    def test_an_array_at_two_places_is_checked_against_its_summed_gradient(self, rng):
        # A1 (low-rank) also at C2: a difference moves the array at both places
        block = random_block(6, 4, 3, seed=1)
        block.inter_token[1] = block.token_mixers[0]
        assert block.token_mixers[0].kind == MixerKind.LOW_RANK
        rep = gradcheck(block, rng.uniform(-1, 1, (6, 4)), probes=300)
        assert rep.passed, rep

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
