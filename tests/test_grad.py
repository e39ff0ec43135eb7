"""Reverse-mode gradients against hand results and central differences."""

import numpy as np
import pytest

from padre.block import (
    Grid,
    Seq1d,
    WMode,
    build_conv_instance,
    forward,
    random_block,
)
from padre.grad import backward, gradcheck, mixer_param_grad
from padre.tensor import Mixer, MixerKind, PadMode, ShapeError, Side, apply_mixer
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
        bundle = backward(block, trace, rng.uniform(-1, 1, (5, 3)))
        np.testing.assert_array_equal(bundle.d_w, np.zeros_like(bundle.d_w))

    def test_batched_trace_rejected(self, rng):
        block = random_block(4, 3, 2, seed=2)
        x = rng.uniform(-1, 1, (2, 4, 3))
        out, trace = forward(block, x)
        with pytest.raises(ShapeError):
            backward(block, trace, np.ones_like(out))

    def test_vjp_linear_in_upstream(self, rng):
        block = random_block(6, 4, 3, seed=1, with_bias=True)
        x = rng.uniform(-1, 1, (6, 4))
        _, trace = forward(block, x)
        g1 = rng.uniform(-1, 1, (6, 4))
        g2 = rng.uniform(-1, 1, (6, 4))
        joint = backward(block, trace, g1 + g2)
        a = backward(block, trace, g1)
        b = backward(block, trace, g2)
        for label, arr in joint.by_label().items():
            other = a.by_label()[label] + b.by_label()[label]
            assert np.max(np.abs(arr - other)) <= 1e-12 * max(1, np.max(np.abs(arr)))
        assert np.max(np.abs(joint.d_x - a.d_x - b.d_x)) <= 1e-12


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
