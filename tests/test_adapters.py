"""The six reference schemes: direct forwards, cascade plans, degree certificates."""

import decimal
import math
import sys

import numpy as np
import pytest

from padre import adapters as A
from padre.block import load_block, save_block
from padre.oracle import assert_homogeneous, extract_coeffs, max_effective_degree
from padre.tensor import Mixer, NumericError, ShapeError, Side
from padre.verify import mamba_params

from conftest import rel_dev, stacked
from test_tensor import naive_conv2d_matrix


def u(rng, *shape, scale=0.7):
    return rng.uniform(-scale, scale, size=shape)


@pytest.fixture
def sima_params(rng):
    return A.SimaParams(u(rng, 4, 4), u(rng, 4, 4), u(rng, 4, 4))


class TestSima:
    def test_single_token_identity_weights(self):
        p = A.SimaParams(np.eye(1), np.eye(1), np.eye(1))
        np.testing.assert_allclose(A.sima_forward(p, np.array([[1.0]])), [[1.0]])

    def test_positive_scaling_degree_one(self, sima_params, rng):
        x = rng.uniform(-1, 1, (6, 4))
        for alpha in (0.5, 2.0):
            got = A.sima_forward(sima_params, alpha * x)
            ref = alpha * A.sima_forward(sima_params, x)
            assert rel_dev(got, ref) <= 1e-12

    def test_matches_naive_full_attention_matrix(self, sima_params, rng):
        # independent route: build the N x N matrix Q_hat K_hat^T explicitly
        p = sima_params
        x = rng.uniform(-1, 1, (3, 4))
        q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
        qh = q / np.abs(q).sum(axis=0, keepdims=True)
        kh = k / np.abs(k).sum(axis=0, keepdims=True)
        ref = (qh @ kh.T) @ v
        assert rel_dev(A.sima_forward(p, x), ref) <= 1e-12

    def test_zero_column_raises(self):
        p = A.SimaParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(A.NormalizationError):
            A.sima_forward(p, np.ones((3, 2)))

    def test_plan_matches_direct(self, sima_params):
        plan = A.sima_as_padre(sima_params, n_tokens=7)
        dev = A.verify_plan(lambda x: A.sima_forward(sima_params, x), plan, seed=2)
        assert dev <= 1e-10

    def test_plan_against_a_nan_route_fails(self, sima_params):
        plan = A.sima_as_padre(sima_params, n_tokens=7)
        with pytest.raises(A.EquivalenceError):
            A.verify_plan(lambda x: np.full(x.shape, np.nan), plan)

    def test_numerator_homogeneous_degree_three(self, sima_params):
        f = lambda x: A.sima_numerator(sima_params, x)
        assert assert_homogeneous(f, 3, trials=30, shape=(5, 4)).passed
        assert not assert_homogeneous(f, 2, trials=10, shape=(5, 4)).passed

    def test_plan_rejects_a_batched_input(self, sima_params, rng):
        # the l1 normalizers sum over the token axis, so a batch is not N x D
        plan = A.sima_as_padre(sima_params, n_tokens=3)
        with pytest.raises(ShapeError):
            plan.evaluate(rng.uniform(-1, 1, (2, 3, 4)))


class TestConv2Former:
    @pytest.fixture
    def params(self, rng):
        return A.Conv2FormerParams(u(rng, 4, 4), u(rng, 4, 4), u(rng, 3, 3), 3, 3)

    def test_zero_input(self, params):
        np.testing.assert_array_equal(A.conv2former_forward(params, np.zeros((9, 4))),
                                      np.zeros((9, 4)))

    def test_homogeneous_degree_two(self, params):
        f = lambda x: A.conv2former_forward(params, x)
        assert assert_homogeneous(f, 2, trials=30, shape=(9, 4)).passed

    def test_coefficient_support_is_degree_two(self, rng):
        small = A.Conv2FormerParams(u(rng, 2, 2), u(rng, 2, 2), u(rng, 2, 2), 2, 2)
        coeffs = extract_coeffs(stacked(lambda x: A.conv2former_forward(small, x)), 4, 2, 3)
        assert coeffs.support_degrees() == {2}

    def test_against_dense_conv_matrix(self, params, rng):
        x = rng.uniform(-1, 1, (9, 4))
        conv_mat = naive_conv2d_matrix(params.kernel, 3, 3)
        ref = (conv_mat @ (x @ params.w1)) * (x @ params.w2)
        assert rel_dev(A.conv2former_forward(params, x), ref) <= 1e-12

    def test_plan_matches_direct(self, params):
        plan = A.conv2former_as_padre(params)
        dev = A.verify_plan(lambda x: A.conv2former_forward(params, x), plan, seed=4)
        assert dev <= 1e-10

    def test_plan_overflow_raises_instead_of_returning_inf(self, params):
        plan = A.conv2former_as_padre(params)
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            plan.evaluate(np.full((9, 4), 1e200))
        assert exc.value.stage == "Z[2]"


class TestHyena:
    @pytest.fixture
    def params(self, rng):
        return A.HyenaParams(projections=[u(rng, 6, 5, scale=0.8) for _ in range(3)],
                             filters=[u(rng, 6, scale=0.8) for _ in range(2)])

    def test_delta_filter_reduces_to_gating(self, rng):
        p = A.HyenaParams(projections=[u(rng, 6, 5), u(rng, 6, 5)],
                          filters=[np.eye(6)[0]])
        chi = rng.uniform(-1, 1, 5)
        xs = A.hyena_project(p, chi)
        np.testing.assert_allclose(A.hyena_forward_recurrence(p, xs), xs[1] * xs[0])

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("length", [6, 64])
    def test_plan_matches_recurrence(self, order, length, rng):
        p = A.HyenaParams(projections=[u(rng, length, length) for _ in range(order + 1)],
                          filters=[u(rng, length) for _ in range(order)])
        plan = A.hyena_as_padre(p)
        assert plan.cascades[0].degree == order + 1
        dev = A.verify_plan(lambda x: A.hyena_forward(p, x[:, 0])[:, None], plan, seed=order)
        assert dev <= 1e-10

    def test_plan_needs_square_projections(self, params):
        with pytest.raises(ShapeError):
            A.hyena_as_padre(params)     # 6 x 5 projections

    def test_causal_toeplitz_is_causal_conv(self, rng):
        h, z = rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)
        t = A.causal_toeplitz(h)
        np.testing.assert_array_equal(np.triu(t, 1), np.zeros((7, 7)))
        np.testing.assert_allclose(t @ z, A.causal_conv(h, z), rtol=0, atol=1e-15)

    def test_zero_filter_zero_output(self, params, rng):
        p = A.HyenaParams(projections=params.projections,
                          filters=[np.zeros(6), params.filters[1]])
        chi = rng.uniform(-1, 1, 5)
        np.testing.assert_array_equal(A.hyena_forward(p, chi), np.zeros(6))

    def test_homogeneous_order_plus_one(self, params):
        f = lambda x: A.hyena_forward(params, x.ravel()).reshape(6, 1)
        assert assert_homogeneous(f, 3, trials=30, shape=(5, 1)).passed
        assert max_effective_degree(f, 4, (5, 1)) == 3

    def test_order_one_identity_projections_is_elementwise_gate(self, rng):
        p = A.HyenaParams(projections=[np.eye(4), np.eye(4)],
                          filters=[np.eye(4)[0]])
        chi = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(A.hyena_forward(p, chi), chi * chi)

    def test_causal_conv_has_zero_history(self):
        h = np.array([1.0, 1.0, 0.0])
        z = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(A.causal_conv(h, z), [1.0, 1.0, 0.0])


def mamba_closed_form(p, x, delta_scale):
    delta = A.mamba_delta(p, x, delta_scale)
    b, c = p.w_b @ x, x @ p.w_c
    a_bar = np.exp(delta * p.a_diag)
    b_bar = np.expm1(delta * p.a_diag) / p.a_diag * b
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        out[t] = sum(float(c @ (a_bar ** (t - n) * b_bar)) * x[n]
                     for n in range(t + 1))
    return out


class TestMamba:
    def test_zero_step_scale_zeroes_output(self, rng):
        p = mamba_params()
        x = rng.uniform(-1, 1, 8)
        np.testing.assert_array_equal(A.mamba_forward(p, x, 0.0), np.zeros(8))

    def test_single_step_base_case(self, rng):
        p = mamba_params(length=1, state=3)
        x = rng.uniform(-1, 1, 1)
        delta = A.mamba_delta(p, x, 1.0)
        b_bar = np.expm1(delta * p.a_diag) / p.a_diag * (p.w_b @ x)
        expected = float((x @ p.w_c) @ b_bar) * x[0]
        assert A.mamba_forward(p, x, 1.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_scan_matches_closed_form(self):
        for seed in range(8):
            p = mamba_params(seed)
            x = np.random.default_rng(seed + 100).uniform(-1, 1, 8)
            got = A.mamba_forward(p, x, 0.4)
            assert rel_dev(got, mamba_closed_form(p, x, 0.4)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-2, 1e-3])
    def test_surrogate_error_shrinks_quadratically(self, scale):
        ratios = []
        for seed in range(10):
            p = mamba_params(seed)
            x = np.random.default_rng(seed).uniform(-1, 1, 8)
            e_full = np.max(np.abs(A.mamba_forward(p, x, scale)
                                   - A.mamba_padre_approx(p, x, scale)))
            e_half = np.max(np.abs(A.mamba_forward(p, x, scale / 2)
                                   - A.mamba_padre_approx(p, x, scale / 2)))
            ratios.append(e_half / e_full)
        assert all(0.15 <= r <= 0.4 for r in ratios), ratios

    @pytest.mark.parametrize("step", [A.zoh_step, A.euler_step])
    def test_frozen_step_scan_is_homogeneous_degree_three(self, step):
        p = mamba_params(3)
        a_bar, gain = step(p, 0.05)
        f = lambda x: A.mamba_scan(p, x.ravel(), a_bar, gain).reshape(8, 1)
        assert assert_homogeneous(f, 3, trials=30, shape=(8, 1)).passed

    @pytest.mark.parametrize("step", [A.zoh_step, A.euler_step])
    @pytest.mark.parametrize("length", [1, 8, 64])
    def test_plan_matches_scan(self, step, length):
        p = mamba_params(length, state=3, length=length)
        a_bar, gain = step(p, 0.05)
        plan = A.mamba_as_padre(p, a_bar, gain)
        assert len(plan.cascades) == 3
        dev = A.verify_plan(lambda x: A.mamba_scan(p, x[:, 0], a_bar, gain)[:, None], plan,
                            seed=length)
        assert dev <= 1e-10

    def test_forward_and_surrogate_are_the_scan_at_their_step(self, rng):
        p = mamba_params(5)
        x = rng.uniform(-1, 1, 8)
        delta = A.mamba_delta(p, x, 0.3)
        assert np.array_equal(A.mamba_forward(p, x, 0.3),
                              A.mamba_scan(p, x, *A.zoh_step(p, delta)))
        assert np.array_equal(A.mamba_padre_approx(p, x, 0.3),
                              A.mamba_scan(p, x, *A.euler_step(p, delta)))


def conv2former_plan(rng):
    return A.conv2former_as_padre(A.Conv2FormerParams(u(rng, 4, 4), u(rng, 4, 4),
                                                      u(rng, 3, 3), 3, 3))


def hyena_plan(rng):
    return A.hyena_as_padre(A.HyenaParams(projections=[u(rng, 9, 9) for _ in range(3)],
                                          filters=[u(rng, 9) for _ in range(2)]))


def mamba_plan(rng):
    p = mamba_params(2, state=3, length=9)
    return A.mamba_as_padre(p, *A.zoh_step(p, 0.05))


def test_plan_and_hyena_shapes_are_read_from_their_parts(rng):
    plan = conv2former_plan(rng)
    assert (plan.n_tokens, plan.n_channels) == (9, 4)
    with pytest.raises(ShapeError):
        A.PadrePlan([])
    assert A.HyenaParams([np.eye(3)] * 3, [np.ones(3)] * 2).order == 2


@pytest.mark.parametrize("make_plan", [conv2former_plan, hyena_plan, mamba_plan],
                         ids=["conv2former", "hyena", "mamba"])
def test_plan_cascades_round_trip_through_block_container(make_plan, rng, tmp_path):
    plan = make_plan(rng)
    reloaded = []
    for i, cascade in enumerate(plan.cascades):
        path = str(tmp_path / f"cascade{i}.bin")
        save_block(cascade, path)
        reloaded.append(load_block(path))
    back = A.PadrePlan(reloaded)
    x = rng.uniform(-1, 1, (plan.n_tokens, plan.n_channels))
    assert np.array_equal(back.evaluate(x), plan.evaluate(x))


class TestCastling:
    @pytest.fixture
    def params(self, rng):
        return A.CastlingParams(u(rng, 4, 4), u(rng, 4, 4), u(rng, 4, 4),
                                dw=Mixer.conv1d(Side.TOKEN, u(rng, 3), 7))

    def test_zero_input(self, params):
        np.testing.assert_array_equal(A.castling_forward(params, np.zeros((7, 4))),
                                      np.zeros((7, 4)))

    def test_linear_part_reads_off(self, rng):
        p = A.CastlingParams(np.zeros((3, 3)), u(rng, 3, 3), np.eye(3),
                             dw=Mixer.conv1d(Side.TOKEN, np.zeros(3), 5))
        x = rng.uniform(-1, 1, (5, 3))
        np.testing.assert_allclose(A.castling_forward(p, x), x / 2)

    def test_degree_three_inhomogeneous(self, rng):
        p = A.CastlingParams(u(rng, 2, 2), u(rng, 2, 2), u(rng, 2, 2),
                             dw=Mixer.conv1d(Side.TOKEN, u(rng, 3), 4))
        f = lambda x: A.castling_forward(p, x)
        assert max_effective_degree(f, 4, (4, 2)) == 3
        coeffs = extract_coeffs(stacked(f), 4, 2, 3)
        degs = coeffs.support_degrees()
        assert 1 in degs and 3 in degs and 2 not in degs

    def test_plan_matches_direct(self, params):
        plan = A.castling_as_padre(params)
        dev = A.verify_plan(lambda x: A.castling_forward(params, x), plan, seed=6)
        assert dev <= 1e-10

    def test_pi_constant_is_circle_constant(self, rng):
        p = A.CastlingParams(np.eye(2), np.eye(2), np.eye(2),
                             dw=Mixer.conv1d(Side.TOKEN, np.zeros(1), 3))
        x = rng.uniform(-1, 1, (3, 2))
        ref = (x @ (x.T @ x)) / math.pi + 0.5 * x
        np.testing.assert_allclose(A.castling_forward(p, x), ref, atol=1e-14)

    def test_both_routes_read_one_scale(self, params, rng):
        # the plan weights each kernelized cascade by the constant the direct
        # route multiplies Q (K^T V) by
        assert A.CASTLING_SCALE == 1.0 / math.pi
        kernelized = [c for c in A.castling_as_padre(params).cascades if c.degree == 3]
        assert len(kernelized) == params.w_q.shape[0]
        assert all(c.weights[-1] == A.CASTLING_SCALE for c in kernelized)
        p = A.CastlingParams(np.eye(2), np.eye(2), np.eye(2),
                             dw=Mixer.conv1d(Side.TOKEN, np.zeros(1), 3))
        x = rng.uniform(-1, 1, (3, 2))
        want = (x @ (x.T @ x)) * A.CASTLING_SCALE + 0.5 * x + 0.0
        assert A.castling_forward(p, x).tobytes() == want.tobytes()


class TestAttention:
    @pytest.fixture
    def params(self, rng):
        return A.AttnParams(u(rng, 4, 4, scale=0.5), u(rng, 4, 4, scale=0.5),
                            u(rng, 4, 4, scale=0.5), d_k=4)

    def test_single_token_returns_value_row(self, params, rng):
        x = rng.uniform(-1, 1, (1, 4))
        np.testing.assert_allclose(A.softmax_attention(params, x), x @ params.w_v)

    def test_rows_sum_to_one(self, params, rng):
        x = rng.uniform(-1, 1, (5, 4))
        logits, _ = A._attn_logits(params, x)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows = (e / e.sum(axis=1, keepdims=True)).sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(5), atol=1e-12)

    def test_uniform_logits_average_values(self, rng):
        p = A.AttnParams(np.zeros((3, 3)), u(rng, 3, 3), u(rng, 3, 3), d_k=3)
        x = rng.uniform(-1, 1, (4, 3))
        v = x @ p.w_v
        expected = np.tile(v.mean(axis=0), (4, 1))
        np.testing.assert_allclose(A.softmax_attention(p, x), expected, atol=1e-12)

    def test_degree_zero_is_uniform_average(self, params, rng):
        x = rng.uniform(-1, 1, (5, 4))
        approx, _ = A.attention_rational_approx(params, x, 0)
        v = x @ params.w_v
        np.testing.assert_allclose(approx, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_error_within_bound_and_monotone(self, params, rng):
        x = rng.uniform(-1, 1, (6, 4))
        logits, _ = A._attn_logits(params, x)
        x = x * np.sqrt(0.98 / np.max(np.abs(logits)))
        exact = A.softmax_attention(params, x)
        prev = np.inf
        for deg in range(2, 13):
            approx, bound = A.attention_rational_approx(params, x, deg)
            err = float(np.max(np.abs(approx - exact)))
            assert err <= 4.0 * bound, (deg, err, bound)
            assert err <= prev, (deg, err, prev)
            prev = err
        assert prev < 1e-8

    def test_taylor_remainder_bound_formula(self):
        assert A.taylor_remainder_bound(1.0, 3) == pytest.approx(math.e / 24.0)

    @pytest.mark.parametrize("l_bound", [1e-3, 0.5, 0.999, 2.5, 30.0, 300.0, 700.0])
    def test_taylor_remainder_bound_follows_closed_form(self, l_bound):
        # within 1e-13 of e^L L^{d+1} / (d+1)! wherever that form is a finite float;
        # elsewhere within 1e-11 of the exact bound, which is inf beyond the float range
        for degree in range(0, 400, 3):
            got = A.taylor_remainder_bound(l_bound, degree)
            try:
                closed = math.exp(l_bound) * l_bound ** (degree + 1) / math.factorial(degree + 1)
            except OverflowError:
                closed = math.inf
            if closed < math.inf:
                assert got == pytest.approx(closed, rel=1e-13, abs=0)
                continue
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                exact = (decimal.Decimal(l_bound).exp() * decimal.Decimal(l_bound) ** (degree + 1)
                         / math.factorial(degree + 1))
                if exact > decimal.Decimal(sys.float_info.max):
                    assert got == math.inf
                else:
                    assert got == pytest.approx(float(exact), rel=1e-11, abs=1e-300)

    def test_taylor_remainder_bound_beyond_float_range(self):
        # exp(1000) and factorial(401) both overflow a float
        assert A.taylor_remainder_bound(1000.0, 12) == math.inf
        assert A.taylor_remainder_bound(0.98, 400) == 0.0
        assert A.taylor_remainder_bound(0.0, 400) == 0.0

    def test_denominator_instability_raises(self):
        # with identity projections the degree-1 row sum is N + x_m * sum(x);
        # x = (1, -3) zeroes the first row exactly
        p = A.AttnParams(np.eye(1), np.eye(1), np.eye(1), d_k=1)
        bad = np.array([[1.0], [-3.0]])
        with pytest.raises(A.InstabilityError):
            A.attention_rational_approx(p, bad, 1)
