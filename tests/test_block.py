"""Block forward semantics, the concrete instance builder, and homogeneity."""

import copy
import itertools
import time
import tracemalloc
import warnings
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padre import block as block_mod
from padre.block import (
    MIXER_MENU,
    Grid,
    PadreBlock,
    Seq1d,
    WMode,
    block_config,
    block_from_config,
    build_conv_instance,
    config_from_json,
    config_to_json,
    count_forward,
    forward,
    iter_parameters,
    param_count,
    random_block,
    rms_normalize_rows,
)
from padre.grad import backward
from padre.multimodal import build_multimodal, multimodal_forward
from padre.rational import random_rational_block, rational_forward
from padre.tensor import (
    FlopLedger, LayoutError, Mixer, MixerKind, NumericError, ShapeError, Side, SizeCapError,
    apply_mixer,
)

from conftest import rel_dev


def identity_block(n, d_ch, degree, weights, mask, w_mode=WMode.SCALAR_PER_DEGREE,
                   bias=None):
    return PadreBlock(
        degree=degree, n_tokens=n, n_channels=d_ch,
        token_mixers=[Mixer.identity(Side.TOKEN, n)] * degree,
        channel_mixers=[Mixer.identity(Side.CHANNEL, d_ch)] * degree,
        inter_token=[Mixer.identity(Side.TOKEN, n)] * (degree - 1),
        inter_channel=[Mixer.identity(Side.CHANNEL, d_ch)] * (degree - 1),
        w_mode=w_mode, weights=np.asarray(weights, dtype=float),
        degree_mask=frozenset(mask), bias=bias,
    )


class TestForward:
    def test_zero_input_returns_bias(self, rng):
        n, d_ch = 5, 3
        bias = rng.uniform(-1, 1, (n, d_ch))
        block = random_block(n, d_ch, 3, seed=0)
        block.bias = bias
        out, _ = forward(block, np.zeros((n, d_ch)))
        np.testing.assert_array_equal(out, bias)

    def test_zero_input_no_bias_is_zero(self):
        block = random_block(4, 4, 4, seed=1)
        out, _ = forward(block, np.zeros((4, 4)))
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_scalar_polynomial_example(self):
        # P = w1 x + w2 x^2 at x = 3 with unit weights
        block = identity_block(1, 1, 2, [1.0, 1.0], {1, 2})
        out, trace = forward(block, np.array([[3.0]]))
        assert out[0, 0] == 12.0
        assert trace.z[0][0, 0] == 3.0 and trace.z[1][0, 0] == 9.0

    def test_degree_one_identity_configuration(self, rng):
        block = identity_block(4, 3, 1, [1.0], {1})
        x = rng.uniform(-1, 1, (4, 3))
        out, _ = forward(block, x)
        np.testing.assert_array_equal(out, x)

    def test_trace_z1_equals_y1(self, rng):
        block = random_block(6, 4, 3, seed=2)
        _, trace = forward(block, rng.uniform(-1, 1, (6, 4)))
        np.testing.assert_array_equal(trace.z[0], trace.y[0])

    def test_deterministic_bit_identical(self, rng):
        block = random_block(8, 4, 3, seed=3)
        x = rng.uniform(-1, 1, (8, 4))
        a, _ = forward(block, x)
        b, _ = forward(block, x)
        assert np.array_equal(a, b)

    def test_non_finite_names_stage(self):
        block = identity_block(2, 2, 2, [1.0, 1.0], {1, 2})
        x = np.array([[1.0, 1.0], [1.0, 1e308]])
        block.channel_mixers[0] = Mixer.dense(Side.CHANNEL, np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            forward(block, x)
        assert exc.value.stage == "Y[1]"

    def test_non_finite_raises_without_warning(self):
        block = identity_block(2, 2, 2, [1.0, 1.0], {1, 2})
        block.channel_mixers[0] = Mixer.dense(Side.CHANNEL, np.full((2, 2), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as exc:
                forward(block, np.array([[1.0, 1.0], [1.0, 1e308]]))
        assert exc.value.stage == "Y[1]"

    def test_shape_mismatch(self):
        block = random_block(4, 3, 2, seed=4)
        with pytest.raises(ShapeError):
            forward(block, np.zeros((3, 4)))

    def test_resize_applies_and_counts(self, rng):
        block = random_block(4, 3, 2, seed=5)
        block.resize_left = rng.uniform(-1, 1, (2, 4))
        block.resize_right = rng.uniform(-1, 1, (3, 5))
        led = FlopLedger()
        out, trace = forward(block, rng.uniform(-1, 1, (4, 3)), led)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(
            out, block.resize_left @ trace.pre_resize @ block.resize_right)
        assert led.resize == 2 * 4 * 3 + 2 * 3 * 5


def trace_tensors(trace) -> list[np.ndarray]:
    """Every tensor a forward's trace holds, Z_1..Z_d included."""
    return [trace.x, trace.pre_resize, trace.output, *trace.y, *trace.y_raw, *trace.t, *trace.z]


class TestInputDtype:
    """x is cast to float64 once, at entry: bool, integer and float32 inputs run
    as their float64 cast in the forward and the backward."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool, np.float32])
    @pytest.mark.parametrize("blocks", ["random", "identity"])
    def test_same_bits_as_float64_cast(self, rng, dtype, blocks):
        # an identity chain would otherwise multiply in the input's dtype:
        # integers wrap silently (2**31 squared is 2**62, cubed 2**93) and
        # float32 taps round
        if blocks == "random":
            block = random_block(4, 3, 2, seed=0, with_bias=True)
            x = np.arange(12).reshape(4, 3) % 3
        else:
            block = identity_block(4, 3, 3, [1.0, 2.0, 3.0], {1, 2, 3})
            x = np.full((4, 3), 2**31 if dtype == np.int64 else 2)
        x = (rng.uniform(-1, 1, x.shape) if dtype == np.float32 else x).astype(dtype)
        g = rng.uniform(-1, 1, x.shape)
        out, trace = forward(block, x)
        want, want_trace = forward(block, x.astype(np.float64))
        assert out.dtype == np.float64 and out.tobytes() == want.tobytes()
        for got, ref in zip(trace_tensors(trace), trace_tensors(want_trace), strict=True):
            assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()
        got, ref = backward(block, trace, g), backward(block, want_trace, g)
        assert got.d_x.tobytes() == ref.d_x.tobytes()
        for label, arr in ref.by_label().items():
            assert got.by_label()[label].tobytes() == arr.tobytes(), label

    @pytest.mark.parametrize("entry", ["forward", "multimodal", "rational"])
    @pytest.mark.parametrize("values", ["int", "float"])
    def test_nested_lists_give_their_float64_arrays_bits(self, rng, entry, values):
        # np.result_type read a nested list as a dtype spec; rational_forward read x.shape
        def draw(shape):
            a = rng.integers(-3, 4, shape) if values == "int" else rng.uniform(-1, 1, shape)
            return a.tolist()

        x = draw((4, 3))
        if entry == "forward":
            block = random_block(4, 3, 3, seed=1, with_bias=True)
            run = lambda v: forward(block, v)[0]
        elif entry == "rational":
            block = random_rational_block(4, 3, 2, 1, seed=1)
            run = lambda v: rational_forward(block, v)[0]
        else:
            block = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab", "ba"], seed=1)
            x = {"a": x, "b": draw((5, 2))}
            run = lambda v: multimodal_forward(block, v)[0]
        arrays = ({k: np.array(v, dtype=np.float64) for k, v in x.items()}
                  if isinstance(x, dict) else np.array(x, dtype=np.float64))
        assert run(x).tobytes() == run(arrays).tobytes()

    def test_float32_input_returns_float64(self, rng):
        x = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
        out, trace = forward(random_block(4, 3, 2, seed=0), x)
        assert out.dtype == np.float64 and trace.pre_resize.dtype == np.float64


class TestForwardMemory:
    # the combine sums in place, the convolutions' padded pieces reuse one
    # per-thread buffer, and each Z_i past Y_1 is summed into its own buffer
    # and dropped as the cascade runs, since the trace keeps t_i.  Measured
    # peaks over |x|: 0.13, 1.13, 1.34, 2.03 and, summing every degree on the
    # general route, 2.03; keeping every Z_i alive until the combine, beside
    # t_i, gives 2.13 and 2.16 on the d = 4 blocks, and keeping each Z_i
    # alive one cascade step too long 3.04
    @pytest.mark.parametrize("n,dc,d,layout,bound,mask", [
        (32 * 32, 64, 2, Grid(32, 32), 0.25, None),
        (4096, 192, 3, Seq1d(), 1.2, None),
        (32 * 32, 24, 3, Grid(32, 32), 1.4, None),
        (256, 24, 4, Seq1d(), 2.1, None),
        (256, 24, 4, Seq1d(), 2.1, frozenset({1, 2, 3, 4})),
    ], ids=["grid-d2", "seq-train-d3", "grid-d3", "seq-d4", "seq-d4-every-degree"])
    def test_peak_above_retained_trace(self, rng, n, dc, d, layout, bound, mask):
        block = build_conv_instance(n, dc, d, layout, seed=0)
        block = replace(block, degree_mask=mask or block.degree_mask)
        x = rng.uniform(-1, 1, (n, dc))
        forward(block, x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = forward(block, x)
            retained, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert result[0].shape == x.shape
        # the output and 2d - 1 more arrays of x's size: Y_1..Y_d, t_1..t_{d-1}
        assert abs(retained - 2 * d * x.nbytes) <= x.nbytes / 4
        assert peak - retained <= bound * x.nbytes


class TestTrace:
    def test_mixed_terms_and_taps_are_the_cascade(self, rng):
        block = random_block(9, 4, 4, seed=3)
        _, trace = forward(block, rng.uniform(-1, 1, (9, 4)))
        z = trace.z
        assert z[0] is trace.y[0] and len(trace.t) == 3
        for i, (c, dm) in enumerate(zip(block.inter_token, block.inter_channel)):
            t = apply_mixer(c, apply_mixer(dm, z[i]))
            assert trace.t[i].tobytes() == t.tobytes()
            assert z[i + 1].tobytes() == (t * trace.y[i + 1]).tobytes()


def moduli_block(block):
    """``block`` with every parameter replaced by its modulus."""
    block = copy.deepcopy(block)
    for _, arr in iter_parameters(block):
        np.abs(arr, out=arr)
    return block


#: conv instances at d = 2, 3, 4 on both layouts; each composes its degree-1 chain
COMPOSED_CASES = [(48, 12, d, Seq1d()) for d in (2, 3, 4)] + [(64, 12, d, Grid(8, 8))
                                                               for d in (2, 3, 4)]
COMPOSED_IDS = [f"{kind}-d{d}" for kind in ("seq", "grid") for d in (2, 3, 4)]


class TestComposedRoute:
    """A block that does not sum degree 1 runs ``t_1 = C_1 A_1 X (B_1 D_1)``.

    Stated bound: each output entry of the composed and the general route
    agrees within ``1e-13 * M``, M being that entry of the block run (the
    general way) on the moduli of its parameters and of x.  Both routes sum the
    same products in another order, and M sums their moduli, so each errs by at
    most ``gamma_c * M`` for c roundings in a row; ``2 gamma_c < 1e-13`` for the
    c < 450 of these cases.  Measured over them: at most 4.9e-18 * M.
    """

    @pytest.mark.parametrize("batch", [(), (2,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("n,dc,d,layout", COMPOSED_CASES, ids=COMPOSED_IDS)
    def test_outputs_within_the_moduli_bound(self, monkeypatch, rng, n, dc, d, layout, batch):
        block = build_conv_instance(n, dc, d, layout, seed=d)
        x = rng.uniform(-1, 1, (*batch, n, dc))
        got, trace = forward(block, x)
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            want, general = forward(block, x)
            moduli = forward(moduli_block(block), np.abs(x))[0]
        assert trace.v1 is not None and general.v1 is None
        assert np.all(np.abs(got - want) <= 1e-13 * moduli)

    def test_trace_holds_v1_in_y1s_place(self, monkeypatch, rng):
        block = build_conv_instance(48, 12, 3, Seq1d(), seed=3)
        x = rng.uniform(-1, 1, (48, 12))
        _, trace = forward(block, x)
        assert trace.y[0] is None and trace.y_raw[0] is None and trace.z[0] is None
        e = block.channel_mixers[0].matrix @ block.inter_channel[0].matrix
        assert trace.v1.tobytes() == apply_mixer(block.token_mixers[0], x @ e).tobytes()
        assert trace.t[0].tobytes() == apply_mixer(block.inter_token[0], trace.v1).tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            _, general = forward(block, x)
        for got, want in zip(trace.y[1:], general.y[1:]):
            assert got.tobytes() == want.tobytes()      # Y_2..Y_d take the general route
        np.testing.assert_allclose(trace.v1, apply_mixer(block.inter_channel[0], general.y[0]),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n,dc,d,layout", COMPOSED_CASES, ids=COMPOSED_IDS)
    def test_ledger_counts_operators_not_routes(self, monkeypatch, rng, n, dc, d, layout):
        block = build_conv_instance(n, dc, d, layout, seed=d)
        x = rng.uniform(-1, 1, (n, dc))
        composed, general = FlopLedger(), FlopLedger()
        forward(block, x, composed)
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            forward(block, x, general)
        assert vars(composed) == vars(general)

    def test_the_rule(self):
        # both timed workloads' blocks compose; oracle-fit's random blocks sum degree 1
        assert block_mod._composes(build_conv_instance(4096, 192, 3, Seq1d(), seed=0))
        assert block_mod._composes(build_conv_instance(64 * 64, 192, 2, Grid(64, 64), seed=0))
        assert not block_mod._composes(random_block(16, 4, 3, seed=0))
        conv = build_conv_instance(48, 12, 3, Seq1d(), seed=0)
        identity = Mixer.identity(Side.CHANNEL, 12)
        for other in (replace(conv, normalize_y=True),
                      replace(conv, channel_mixers=[identity, *conv.channel_mixers[1:]]),
                      replace(conv, inter_channel=[identity, *conv.inter_channel[1:]]),
                      build_conv_instance(12, 12, 3, Seq1d(), seed=0)):     # N = D
            assert not block_mod._composes(other)

    @pytest.mark.parametrize("scale,b1,d1", [
        (1e-250, 1e200, 1e200),       # E overflows; the general route's output is finite
        (1.0, 1e200, 1e200),          # E overflows; the general route raises
        (1e150, 1e100, 1e100),        # E is finite, V_1 = A_1 X E overflows
    ], ids=["e-inf-finite-output", "e-inf-raises", "v1-inf-raises"])
    def test_non_finite_chain_runs_the_general_route(self, monkeypatch, rng, scale, b1, d1):
        conv = build_conv_instance(48, 12, 2, Seq1d(), seed=1)
        block = replace(conv, channel_mixers=[Mixer.dense(Side.CHANNEL, np.full((12, 12), b1)),
                                              conv.channel_mixers[1]],
                        inter_channel=[Mixer.dense(Side.CHANNEL, np.full((12, 12), d1))])
        x = scale * rng.uniform(-1, 1, (48, 12))

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out, trace = forward(block, x)
                except NumericError as exc:
                    return exc.stage, None
            return out.tobytes(), trace.v1

        got = run()
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            want = run()
        assert got == want
        assert isinstance(got[0], bytes) == (scale < 1e-200)

    def test_failed_check_reruns_and_counts_once(self, monkeypatch):
        # rows (a, a) times B_1's rows (1, 1) and (-1, -1) cancel to 0 on the general
        # route, but X (B_1 D_1) sums a * 2e300 - a * 2e300 = inf - inf: the composed
        # P is NaN, so the forward reruns the general route, which is finite
        conv = build_conv_instance(48, 2, 2, Seq1d(), seed=0)
        block = replace(conv, channel_mixers=[Mixer.dense(Side.CHANNEL, np.array([[1.0, 1.0],
                                                                                  [-1.0, -1.0]])),
                                              conv.channel_mixers[1]],
                        inter_channel=[Mixer.dense(Side.CHANNEL, np.full((2, 2), 1e300))])
        x = np.full((48, 2), 1e10)
        composed, general = FlopLedger(), FlopLedger()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, trace = forward(block, x, composed)
        with monkeypatch.context() as patch:
            patch.setattr(block_mod, "_composes", lambda b: False)
            want, _ = forward(block, x, general)
        assert trace.v1 is None and got.tobytes() == want.tobytes()
        assert vars(composed) == vars(general)


class TestCountForward:
    """``count_forward`` is a rule of the block; it must equal a tally of the
    operators that the general route actually runs."""

    @pytest.mark.parametrize("w_mode", list(WMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_closed_form_equals_operators_run(self, monkeypatch, d, w_mode):
        tally = {}
        apply, had = block_mod.apply_mixer, block_mod.hadamard

        def add(field, macs):
            tally[field] = tally.get(field, 0) + macs

        def applied(m, x):
            add("token_mix" if m.side == Side.TOKEN else "channel_mix",
                m.macs_per_vector() * (x.size // m.dim))
            return apply(m, x)

        def multiplied(a, b):
            add("hadamard", a.size)
            return had(a, b)

        monkeypatch.setattr(block_mod, "_composes", lambda b: False)
        monkeypatch.setattr(block_mod, "apply_mixer", applied)
        monkeypatch.setattr(block_mod, "hadamard", multiplied)
        cases = itertools.product([(9, 4), (16, 9), (4, 16)],
                                  [None, frozenset({d}), frozenset({1, d})],
                                  [False, True], [False, True], [(), (3,), (2, 2)])
        for k, ((n, dc), mask, bias, resize, batch) in enumerate(cases):
            block = random_block(n, dc, d, seed=k, w_mode=w_mode, degree_mask=mask,
                                 with_bias=bias)
            rng = np.random.default_rng(k)
            if resize:
                block = replace(block, resize_left=rng.uniform(-1, 1, (5, n)),
                                resize_right=rng.uniform(-1, 1, (dc, 2)))
            tally.clear()
            out, trace = forward(block, rng.uniform(-1, 1, batch + (n, dc)))
            p = trace.pre_resize
            add("combine", len(block.degree_mask) * p.size)
            if resize:      # U P, then (U P) V
                add("resize", block.resize_left.shape[0] * p.size + out.size * dc)
            want = count_forward(block, batch + (n, dc), FlopLedger())
            assert {f: tally.get(f, 0) for f in vars(want)} == vars(want), k


class TestConstructor:
    @pytest.mark.parametrize("change,error", [
        (dict(degree=0), ShapeError),
        (dict(layout=Grid(3, 3)), LayoutError),
        (dict(token_mixers=[Mixer.identity(Side.TOKEN, 4)]), ShapeError),
        (dict(inter_token=[]), ShapeError),
        (dict(token_mixers=[Mixer.identity(Side.CHANNEL, 4)] * 2), ShapeError),
        (dict(channel_mixers=[Mixer.identity(Side.CHANNEL, 4)] * 2), ShapeError),
        (dict(weights=np.ones(2)), ShapeError),
        (dict(degree_mask=frozenset({3})), ShapeError),
        (dict(bias=np.ones((3, 4))), ShapeError),
        (dict(resize_left=np.ones((2, 4))), ShapeError),
        (dict(resize_left=np.ones((2, 3)), resize_right=np.ones((3, 2))), ShapeError),
        (dict(weights=np.full((4, 3, 2), np.inf)), NumericError),
    ], ids=["degree-0", "grid-not-n", "token-mixer-count", "inter-pair-count",
            "token-mixer-side", "channel-mixer-dim", "weights-shape", "degree-mask",
            "bias-shape", "resize-alone", "resize-shapes", "non-finite-weights"])
    def test_rejects(self, change, error):
        # one case per check in PadreBlock.__post_init__, each on a valid 4 x 3 block
        block = random_block(4, 3, 2, seed=0)
        with pytest.raises(error):
            replace(block, **change)


class TestBatchedForward:
    """A (2, 3) stack of inputs gives the stacked single-input outputs, bit for bit."""

    @pytest.mark.parametrize("w_mode", list(WMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("kind", [*MIXER_MENU, None],
                             ids=[*(k.name for k in MIXER_MENU), "menu"])
    def test_seeded_blocks_stack(self, kind, w_mode, monkeypatch):
        # square sides on both ends, so conv2d draws on the token and channel side
        if kind is not None:
            monkeypatch.setattr(block_mod, "MIXER_MENU", (kind,))
        for seed, (n, dc) in enumerate([(4, 9), (9, 4), (16, 9), (9, 16)]):
            rng = np.random.default_rng(seed)
            block = random_block(n, dc, 3, seed=seed, w_mode=w_mode,
                                 degree_mask=[None, frozenset({3}), frozenset({1, 3}),
                                              frozenset({2, 3})][seed],
                                 with_bias=seed % 2 == 0, normalize_y=seed >= 2)
            if seed == 3:
                block = replace(block, resize_left=rng.uniform(-1, 1, (5, n)),
                                resize_right=rng.uniform(-1, 1, (dc, 2)))
            x = rng.uniform(-1, 1, (2, 3, n, dc))
            batched, one = FlopLedger(), FlopLedger()
            out, _ = forward(block, x, batched)
            want = np.stack([[forward(block, s)[0] for s in row] for row in x])
            assert np.array_equal(out, want)
            forward(block, x[0, 0], one)
            for field in ("token_mix", "channel_mix", "hadamard", "combine", "resize"):
                assert getattr(batched, field) == 6 * getattr(one, field)

    def test_conv_instance_stacks(self, rng):
        block = build_conv_instance(16, 4, 3, Grid(4, 4), seed=2)
        x = rng.uniform(-1, 1, (3, 16, 4))
        assert np.array_equal(forward(block, x)[0], np.stack([forward(block, s)[0] for s in x]))


class TestHomogeneity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, -1.0])
    def test_degree_taps_scale(self, rng, alpha):
        block = random_block(9, 4, 4, seed=6)
        x = rng.uniform(-1, 1, (9, 4))
        _, base = forward(block, x)
        _, scaled = forward(block, alpha * x)
        for i in range(4):
            assert rel_dev(scaled.z[i], alpha ** (i + 1) * base.z[i]) <= 1e-10

    def test_single_degree_mask_scales_forward(self, rng):
        for j in (1, 2, 3):
            block = random_block(6, 4, 3, seed=10 + j, degree_mask=frozenset({j}))
            x = rng.uniform(-1, 1, (6, 4))
            base, _ = forward(block, x)
            scaled, _ = forward(block, 1.7 * x)
            assert rel_dev(scaled, 1.7 ** j * base) <= 1e-10


class TestNormalize:
    def test_row_example(self):
        row = np.array([[3.0, 4.0]])
        expected = row / np.sqrt(12.5 + 1e-6)
        np.testing.assert_allclose(rms_normalize_rows(row), expected, rtol=1e-15)

    def test_zero_row_stays_zero(self):
        np.testing.assert_array_equal(rms_normalize_rows(np.zeros((2, 4))),
                                      np.zeros((2, 4)))

    def test_unit_rms_row_fixed_point(self, rng):
        row = rng.uniform(-1, 1, (1, 8))
        row /= np.sqrt(np.mean(row ** 2))
        assert np.max(np.abs(rms_normalize_rows(row) - row)) <= 1e-6

    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e200, 1e300])
    def test_rows_whose_squares_overflow(self, rng, scale):
        # squaring first would give such a row an infinite RMS and a zero output;
        # each row is its own, so the ordinary row in the same array keeps its bits
        rows = rng.uniform(-1, 1, (3, 8))
        got = rms_normalize_rows(np.vstack([scale * rows[:2], rows[2:]]))
        assert rel_dev(got[:2], rms_normalize_rows(1e50 * rows[:2])) <= 1e-15
        np.testing.assert_array_equal(got[2:], rms_normalize_rows(rows[2:]))

    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e300])
    def test_normalized_forward_is_scale_invariant_past_the_squares(self, scale):
        x = np.random.default_rng(0).uniform(-1, 1, (9, 4))
        block = random_block(9, 4, 2, seed=0, normalize_y=True)
        want, _ = forward(block, 1e50 * x)
        assert np.max(np.abs(want)) > 1
        assert rel_dev(forward(block, scale * x)[0], want) <= 1e-13


class TestConvInstance:
    def test_grid_instance_structure(self):
        block = build_conv_instance(64, 8, 2, Grid(8, 8), seed=0)
        assert len(block.token_mixers) == 2 and len(block.channel_mixers) == 2
        assert len(block.inter_token) == 1 and len(block.inter_channel) == 1
        assert all(m.kind == MixerKind.CONV2D for m in block.token_mixers)
        assert all(m.kind == MixerKind.DENSE for m in block.channel_mixers)
        assert block.degree_mask == frozenset({2})
        assert block.bias is None
        assert block.w_mode == WMode.CHANNEL_BROADCAST
        assert block.token_mixers[0].kernel.shape == (8, 8)   # clipped from 11

    def test_seq_instance_structure(self):
        block = build_conv_instance(16, 4, 3, Seq1d(), seed=0)
        assert all(m.kind == MixerKind.CONV1D for m in block.token_mixers)
        assert len(block.inter_token) == 2
        assert block.degree_mask == frozenset({2, 3})
        assert block.token_mixers[0].kernel.shape == (11,)

    def test_degenerate_degree_rejected(self):
        with pytest.raises(ShapeError):
            build_conv_instance(6, 2, 1, Seq1d())

    def test_grid_layout_mismatch(self):
        with pytest.raises(Exception):
            build_conv_instance(10, 2, 2, Grid(3, 3))

    def test_flops_grow_linearly(self):
        flops = {}
        for n in (256, 512, 1024, 2048, 4096):
            block = build_conv_instance(n, 16, 2, Seq1d(), seed=0)
            led = FlopLedger()
            forward(block, np.zeros((n, 16)), led)
            flops[n] = led.flops
        for n in (256, 512, 1024, 2048):
            ratio = flops[2 * n] / flops[n]
            assert 1.8 <= ratio <= 2.2, f"N={n}: ratio {ratio}"


class TestParamCount:
    def test_full_w_only(self):
        block = identity_block(4, 3, 2, np.zeros((4, 3, 2)), {1, 2}, w_mode=WMode.FULL)
        assert param_count(block) == 24

    def test_structured_token_mixers_add_linearly(self, rng):
        def diag_block(n):
            return PadreBlock(
                degree=2, n_tokens=n, n_channels=3,
                token_mixers=[Mixer.diagonal(Side.TOKEN, np.ones(n))] * 2,
                channel_mixers=[Mixer.identity(Side.CHANNEL, 3)] * 2,
                inter_token=[Mixer.diagonal(Side.TOKEN, np.ones(n))],
                inter_channel=[Mixer.identity(Side.CHANNEL, 3)],
                w_mode=WMode.CHANNEL_BROADCAST, weights=np.zeros((3, 2)),
                degree_mask=frozenset({1, 2}),
            )
        base, doubled = param_count(diag_block(8)), param_count(diag_block(16))
        assert doubled - base == 3 * 8   # three diagonal token mixers

    def test_dense_token_mixer_quadruples(self):
        def dense_block(n):
            return PadreBlock(
                degree=1, n_tokens=n, n_channels=2,
                token_mixers=[Mixer.dense(Side.TOKEN, np.eye(n))],
                channel_mixers=[Mixer.identity(Side.CHANNEL, 2)],
                inter_token=[], inter_channel=[],
                w_mode=WMode.SCALAR_PER_DEGREE, weights=np.ones(1),
                degree_mask=frozenset({1}),
            )
        a = param_count(dense_block(8)) - 1
        b = param_count(dense_block(16)) - 1
        assert b == 4 * a

    def test_conv_instance_full_w_linear_in_n(self):
        counts = {n: param_count(build_conv_instance(n, 8, 2, Seq1d(), seed=0,
                                                     w_mode=WMode.FULL))
                  for n in (1024, 2048)}
        ratio = counts[2048] / counts[1024]
        assert 1.8 <= ratio <= 2.2


class TestConfig:
    def test_json_round_trip(self):
        for layout, listed in ((Grid(4, 4), ["grid", 4, 4]), (Seq1d(), ["seq1d"])):
            block = build_conv_instance(16, 4, 2, layout, seed=7)
            cfg = block_config(block, seed=7)
            back = config_from_json(config_to_json(cfg))
            assert back == cfg
            assert back["degree"] == 2 and back["N"] == 16 and back["D"] == 4
            assert back["degree_mask"] == [2]
            assert back["layout"] == listed
            assert back["seed"] == 7
            assert block_from_config(back).layout == layout

    @pytest.mark.parametrize("mask", [[1, 2], [1], [2]], ids=["mask-1-2", "mask-1", "mask-2"])
    def test_layout_must_cover_n_for_every_mask(self, mask):
        cfg = {"degree": 2, "N": 16, "D": 3, "layout": ["grid", 2, 3], "degree_mask": mask}
        with pytest.raises(LayoutError):
            block_from_config(cfg)

    @pytest.mark.parametrize("layout", [["grdi", 4, 4], ["grid", 4], "grid", []],
                             ids=["misspelt", "one-extent", "bare-string", "empty"])
    def test_malformed_layout_rejected(self, layout):
        with pytest.raises(LayoutError):
            block_from_config({"degree": 2, "N": 16, "D": 3, "layout": layout})

    def test_generic_mask_keeps_grid_layout(self):
        cfg = {"degree": 2, "N": 16, "D": 3, "layout": ["grid", 4, 4], "degree_mask": [1, 2]}
        assert block_from_config(cfg).layout == Grid(4, 4)

    @pytest.mark.parametrize("name", ["NOPE", 1, ["FULL"]], ids=["NOPE", "int", "list"])
    def test_unknown_w_mode_names_valid_modes(self, name):
        with pytest.raises(ShapeError, match="CHANNEL_BROADCAST"):
            block_from_config({"degree": 2, "N": 16, "D": 3, "w_mode": name})

    @pytest.mark.parametrize("cfg", [
        {"N": 16, "D": 3},
        {"degree": "x", "N": 16, "D": 3},
        {"degree": 2, "N": 16, "D": 3, "seed": "abc"},
        {"degree": 2, "N": 16, "D": 3, "normalize_y": "no"},
        {"degree": 2, "N": 16, "D": 2.7},
        {"degree": 2, "N": "4", "D": 3},
        {"degree": True, "N": 16, "D": 3},
        {"degree": 2, "N": 16, "D": 3, "degree_mask": [2.0]},
    ], ids=["missing-degree", "degree-str", "seed-str", "normalize-str", "D-float", "N-str",
            "degree-bool", "mask-float"])
    def test_malformed_field_raises_shape_error(self, cfg):
        with pytest.raises(ShapeError):
            block_from_config(cfg)

    def test_grid_extent_must_be_int(self):
        with pytest.raises(LayoutError):
            block_from_config({"degree": 2, "N": 16, "D": 3, "layout": ["grid", 4.0, 4]})

    @pytest.mark.parametrize("cfg", [
        {"degree": 2 ** 40, "N": 16, "D": 3},
        {"degree": 2, "N": 10 ** 6, "D": 3},
    ], ids=["degree-2**40", "dense-N-1e6"])
    def test_oversized_config_fails_fast(self, cfg):
        start = time.perf_counter()
        with pytest.raises(SizeCapError):
            block_from_config(cfg)
        assert time.perf_counter() - start < 0.1

    def test_empty_mask_means_every_degree(self):
        cfg = {"degree": 2, "N": 4, "D": 3, "degree_mask": []}
        assert block_from_config(cfg).degree_mask == frozenset({1, 2})


#: values of every JSON type, sizes beyond the caps among them
_CONFIG_JUNK = (st.integers(-2, 12) | st.sampled_from([65, 10 ** 6, 2 ** 40, 2 ** 64])
                | st.booleans() | st.none() | st.floats(allow_nan=True) | st.text(max_size=4)
                | st.lists(st.integers(-2, 5) | st.text(max_size=2), max_size=3))


@st.composite
def _configs(draw):
    """A valid small config with up to three fields deleted or replaced by junk."""
    n = draw(st.sampled_from([4, 6, 16]))
    h = draw(st.sampled_from([h for h in range(1, n + 1) if n % h == 0]))
    cfg = {"degree": draw(st.integers(1, 4)), "N": n, "D": draw(st.integers(1, 6)),
           "seed": draw(st.integers(0, 2 ** 32)),
           "layout": draw(st.sampled_from([["seq1d"], ["grid", h, n // h]])),
           "w_mode": draw(st.sampled_from(list(WMode.__members__))),
           "degree_mask": draw(st.lists(st.integers(1, 4), max_size=4)),
           "normalize_y": draw(st.booleans())}
    for key in draw(st.sets(st.sampled_from(sorted(cfg)), max_size=3)):
        if draw(st.booleans()):
            del cfg[key]
        else:
            cfg[key] = draw(_CONFIG_JUNK)
    return cfg


class TestConfigFuzz:
    @settings(max_examples=1000, deadline=timedelta(seconds=2), derandomize=True,
              database=None)
    @given(cfg=_configs())
    def test_builds_the_configured_block_or_raises_a_typed_error(self, cfg):
        try:
            block = block_from_config(cfg)
        except (ShapeError, LayoutError, SizeCapError):
            return
        assert (block.degree, block.n_tokens, block.n_channels) == (
            cfg["degree"], cfg["N"], cfg["D"])
        assert block.w_mode.name == cfg.get("w_mode", "CHANNEL_BROADCAST")
