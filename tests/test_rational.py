"""Elementwise-ratio blocks: reduction, scale law, stabilization, gradients."""

import copy
import warnings

import numpy as np
import pytest

from padre.block import PadreBlock, WMode, forward
from padre.grad import backward
from padre.rational import (
    DenominatorError,
    RationalPadreBlock,
    iter_rational_parameters,
    random_rational_block,
    rational_backward,
    rational_forward,
    rational_gradcheck,
)
from padre.adapters import SimaParams, sima_as_padre, sima_forward
from padre.oracle import assert_homogeneous
from padre.tensor import Mixer, NumericError, ShapeError, Side
from padre.verify import check_rational_scale_law

from conftest import rel_dev


def identity_rational(n, d_ch, d, e, w_num, bias_num, w_den, bias_den, **kw):
    total = d + e
    return RationalPadreBlock(
        num_degree=d, den_degree=e, n_tokens=n, n_channels=d_ch,
        token_mixers=[Mixer.identity(Side.TOKEN, n)] * total,
        channel_mixers=[Mixer.identity(Side.CHANNEL, d_ch)] * total,
        w_num=np.asarray(w_num, dtype=float).reshape(n, d_ch, d),
        bias_num=np.asarray(bias_num, dtype=float).reshape(n, d_ch),
        w_den=np.asarray(w_den, dtype=float).reshape(n, d_ch, e),
        bias_den=np.asarray(bias_den, dtype=float).reshape(n, d_ch), **kw)


class TestForward:
    def test_scalar_ratio_example(self):
        # numerator x, denominator 1 + x^2, at x = 2 -> 0.4
        block = identity_rational(1, 1, 1, 2, [1.0], [0.0], [0.0, 1.0], [1.0],
                                  epsilon=0.0)
        out, _ = rational_forward(block, np.array([[2.0]]))
        assert out[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_zero_input_returns_bias_ratio(self, rng):
        block = random_rational_block(4, 3, 2, 2, seed=0)
        out, _ = rational_forward(block, np.zeros((4, 3)))
        np.testing.assert_allclose(out, block.bias_num / block.bias_den)

    def test_zero_input_with_squaring(self, rng):
        block = random_rational_block(4, 3, 2, 1, seed=1, square_denominator=True)
        out, _ = rational_forward(block, np.zeros((4, 3)))
        np.testing.assert_allclose(
            out, block.bias_num / (block.bias_den ** 2 + block.epsilon))

    @pytest.mark.parametrize("d,e", [(3, 0), (2, 1), (1, 2), (3, 2)])
    def test_degenerates_to_polynomial_bit_exact(self, d, e, rng):
        # numerator and denominator are plain-chain polynomial blocks
        rb = random_rational_block(6, 3, d, e, seed=4 + e)
        if not e:
            rb.bias_den[:] = 1.0

        def chain(first, k, weights, bias):
            return PadreBlock(
                degree=k, n_tokens=6, n_channels=3,
                token_mixers=rb.token_mixers[first:first + k],
                channel_mixers=rb.channel_mixers[first:first + k],
                inter_token=[Mixer.identity(Side.TOKEN, 6)] * (k - 1),
                inter_channel=[Mixer.identity(Side.CHANNEL, 3)] * (k - 1),
                w_mode=WMode.FULL, weights=weights,
                degree_mask=frozenset(range(1, k + 1)), bias=bias)

        x = rng.uniform(-1, 1, (6, 3))
        r_out, r_tr = rational_forward(rb, x)
        num_blk = chain(0, d, rb.w_num, rb.bias_num)
        num, num_tr = forward(num_blk, x)
        den = rb.bias_den
        if e:
            den_blk = chain(d, e, rb.w_den, rb.bias_den)
            den, den_tr = forward(den_blk, x)
        assert np.array_equal(r_out, num / den)
        g = rng.uniform(-1, 1, (6, 3))
        r_g = rational_backward(rb, r_tr, g)
        num_g = backward(num_blk, num_tr, g / den)
        expected = {"Wn": num_g.by_label()["W"], "Vn": num_g.by_label()["L"]}
        expected.update((label, arr) for label, arr in num_g.by_label().items()
                        if label[0] in "AB")
        d_x_num, d_x_den = num_g.d_x, np.zeros_like(x)
        if e:
            den_g = backward(den_blk, den_tr, -g * num / (den * den))
            expected.update(Qd=den_g.by_label()["W"], Pd=den_g.by_label()["L"])
            expected.update((f"{label[0]}{int(label[1]) + d}{label[2:]}", arr)
                            for label, arr in den_g.by_label().items() if label[0] in "AB")
            d_x_den = den_g.d_x
        assert set(expected) | {"Qd", "Pd"} == set(r_g.by_label())
        for label, arr in expected.items():
            assert np.array_equal(r_g.by_label()[label], arr), label
        bound = 4 * np.finfo(float).eps * (np.abs(d_x_num) + np.abs(d_x_den))
        assert np.all(np.abs(r_g.d_x - (d_x_num + d_x_den)) <= bound)

    def test_non_finite_numerator_names_its_combine(self):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        block.w_num[:] = 1e300
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            rational_forward(block, np.full((4, 3), 1e10))
        assert exc.value.stage == "num:P"

    def test_non_finite_numerator_raises_without_warning(self):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        block.w_num[:] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as exc:
                rational_forward(block, np.full((4, 3), 1e10))
        assert exc.value.stage == "num:P"

    def test_non_finite_denominator_names_its_combine(self):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        block.w_den[:] = 1e300
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            rational_forward(block, np.full((4, 3), 1e10))
        assert exc.value.stage == "den:P"

    def test_denominator_underflow_names_entry(self):
        block = identity_rational(2, 2, 1, 1, np.ones(4), np.zeros(4),
                                  np.zeros(4), np.zeros(4), epsilon=1e-6)
        block.bias_den[:] = 1.0
        block.bias_den[1, 0] = 0.0
        with pytest.raises(DenominatorError) as exc:
            rational_forward(block, np.ones((2, 2)))
        assert exc.value.entry == (1, 0)

    def test_squaring_stabilizes_zero_denominator(self):
        block = identity_rational(2, 2, 1, 1, np.ones(4), np.zeros(4),
                                  np.zeros(4), np.zeros(4),
                                  epsilon=1e-6, square_denominator=True)
        out, _ = rational_forward(block, np.ones((2, 2)))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 1.0 / 1e-6)


class TestDegreeStructure:
    def test_tap_homogeneity(self):
        block = random_rational_block(4, 2, 2, 2, seed=5)

        def num_tap(j):
            return lambda x: rational_forward(block, x)[1].num_trace.z[j - 1]

        def den_tap(k):
            return lambda x: rational_forward(block, x)[1].den_trace.z[k - 1]

        for j in (1, 2):
            assert assert_homogeneous(num_tap(j), j, trials=20, shape=(4, 2)).passed
        for k in (1, 2):
            assert assert_homogeneous(den_tap(k), k, trials=20, shape=(4, 2)).passed

    def test_scale_law(self):
        rec = check_rational_scale_law()
        assert rec.passed, rec


class TestGradcheck:
    def test_generic_instance(self, rng):
        block = random_rational_block(6, 3, 2, 2, seed=7)
        rep = rational_gradcheck(block, rng.uniform(-1, 1, (6, 3)), probes=200)
        assert rep.max_rel_err < 1e-5

    def test_squared_and_plain_match_when_far_from_zero(self, rng):
        for square in (False, True):
            block = random_rational_block(5, 2, 2, 1, seed=8,
                                          square_denominator=square)
            rep = rational_gradcheck(block, rng.uniform(-1, 1, (5, 2)), probes=150)
            assert rep.max_rel_err < 1e-5, square

    def test_gradients_finite_near_epsilon_denominator(self):
        block = identity_rational(2, 2, 1, 1, np.ones(4), np.zeros(4),
                                  np.full(4, 0.05), np.zeros(4),
                                  epsilon=1e-4, square_denominator=True)
        x = np.full((2, 2), 0.02)   # denominator ~ 1e-3, squared ~ 1e-6 ~ eps
        rep = rational_gradcheck(block, x, probes=100, step=1e-6)
        assert np.isfinite(rep.max_rel_err)
        out, tr = rational_forward(block, x)
        grads = rational_backward(block, tr, np.ones_like(out))
        assert all(np.isfinite(g).all() for g in [grads.d_x, *grads.by_label().values()])

    def test_a_mixer_at_two_places_passes(self, rng):
        # A1 (conv1d) also at A4, in the denominator; B1 (low-rank) also at B2
        block = random_rational_block(5, 4, 2, 2, seed=4)
        block.token_mixers[3] = block.token_mixers[0]
        block.channel_mixers[1] = block.channel_mixers[0]
        rep = rational_gradcheck(block, rng.uniform(-1, 1, (5, 4)), probes=300)
        assert rep.passed, rep


class TestBackwardContract:
    @pytest.mark.parametrize("square", [False, True], ids=["plain", "squared"])
    @pytest.mark.parametrize("d,e", [(1, 0), (3, 0), (2, 1), (1, 3), (3, 2)])
    def test_labels_and_shapes_are_the_blocks_own(self, d, e, square, rng):
        block = random_rational_block(5, 4, d, e, seed=d + 3 * e, square_denominator=square)
        x = rng.uniform(-1, 1, (5, 4))
        out, trace = rational_forward(block, x)
        bundle = rational_backward(block, trace, rng.uniform(-1, 1, out.shape))
        params = dict(iter_rational_parameters(block))
        grads = bundle.by_label()
        assert set(grads) == set(params)
        for label, arr in params.items():
            assert grads[label].shape == arr.shape, label
        assert bundle.d_x.shape == x.shape

    def test_a_mixer_at_two_places_gets_each_places_gradient(self, rng):
        # A1 (conv1d) also at A4, in the denominator; B1 (low-rank) also at B2
        shared = random_rational_block(5, 4, 2, 2, seed=4)
        shared.token_mixers[3] = shared.token_mixers[0]
        shared.channel_mixers[1] = shared.channel_mixers[0]
        apart = copy.deepcopy(shared)
        apart.token_mixers[3] = copy.deepcopy(apart.token_mixers[0])
        apart.channel_mixers[1] = copy.deepcopy(apart.channel_mixers[0])
        x, g = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4))
        got = rational_backward(shared, rational_forward(shared, x)[1], g).by_label()
        want = rational_backward(apart, rational_forward(apart, x)[1], g).by_label()
        assert set(got) == set(want)
        for label, arr in want.items():
            assert got[label].tobytes() == arr.tobytes(), label


class TestUpstream:
    """``rational_backward`` checks its upstream as ``grad.backward`` does."""

    @pytest.mark.parametrize("e", [0, 1])
    @pytest.mark.parametrize("shape", [(1, 3), (), (3, 4)], ids=["row", "scalar", "transposed"])
    def test_wrong_shape_raises_shape_error(self, shape, e, rng):
        block = random_rational_block(4, 3, 2, e, seed=0)
        _, trace = rational_forward(block, rng.uniform(-1, 1, (4, 3)))
        with pytest.raises(ShapeError, match="upstream shape"):
            rational_backward(block, trace, rng.uniform(-1, 1, shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raises_without_warning(self, value, rng):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        _, trace = rational_forward(block, rng.uniform(-1, 1, (4, 3)))
        g = rng.uniform(-1, 1, (4, 3))
        g[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                rational_backward(block, trace, g)
        assert err.value.stage == "upstream"

    def test_integer_upstream_gives_the_cast_bits(self, rng):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        x = rng.uniform(-1, 1, (4, 3))
        g = rng.integers(-3, 4, (4, 3))
        got = rational_backward(block, rational_forward(block, x)[1], g)
        want = rational_backward(block, rational_forward(block, x)[1], g.astype(np.float64))
        for label, arr in want.by_label().items():
            assert got.by_label()[label].tobytes() == arr.tobytes(), label
        assert got.d_x.tobytes() == want.d_x.tobytes()


class TestSimaInRationalForm:
    def test_plan_with_normalizers_matches_direct(self, rng):
        p = SimaParams(*(rng.uniform(-0.7, 0.7, (4, 4)) for _ in range(3)))
        plan = sima_as_padre(p, n_tokens=8)
        worst = 0.0
        for seed in range(100):
            x = np.random.default_rng(seed).uniform(-1, 1, (8, 4))
            worst = max(worst, rel_dev(plan.evaluate(x), sima_forward(p, x)))
        assert worst <= 1e-10
