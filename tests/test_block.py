"""Block forward semantics, the concrete instance builder, and homogeneity."""

import time
from dataclasses import replace

import numpy as np
import pytest

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
    forward,
    param_count,
    random_block,
    rms_normalize_rows,
)
from padre.tensor import (
    FlopLedger, LayoutError, Mixer, MixerKind, NumericError, ShapeError, Side, SizeCapError,
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
