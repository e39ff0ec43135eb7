"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The scaling sweep
(criteria 7 and 8) times real forwards at N up to 4096 and D = 192, so this
module takes a few minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

from padre import adapters as A
from padre.bench import fit_scaling, run_bench
from padre.block import (
    Grid,
    Seq1d,
    WMode,
    build_conv_instance,
    forward,
    iter_parameters,
    load_block,
    param_count,
    random_block,
    save_block,
)
from padre.grad import gradcheck
from padre.multimodal import TrivialSequenceError, build_multimodal, multimodal_forward
from padre.oracle import assert_homogeneous, extract_coeffs, max_effective_degree
from padre.rational import (
    iter_rational_parameters,
    load_rational,
    random_rational_block,
    rational_gradcheck,
    save_rational,
)
from padre.tensor import Mixer, MixerKind, Side
from padre.verify import conditioned_norm_block, mamba_poly_reference

from conftest import rel_dev, stacked
from test_adapters import mamba_params
from test_serialization import assert_params_identical

ALPHAS = (0.5, 1.0, 2.0, -1.0)


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS — {detail}")


@pytest.fixture(scope="module")
def sweep():
    """The shared criterion-7/8 benchmark sweep (paper-scale N and D)."""
    t0 = time.time()
    records = run_bench(["padre-2", "padre-3", "padre-4", "softmax-attn"],
                        [256, 1024, 2304, 4096], d_ch=192, reps=5, warmup=2, seed=0)
    return records, time.time() - t0


def test_criterion_1_homogeneity_of_degree_taps():
    t0 = time.time()
    shapes = [(16, 4), (9, 8), (64, 16), (12, 9), (25, 5), (8, 16), (36, 12),
              (7, 3), (49, 16), (10, 10)]
    seen_kinds = set()
    worst = 0.0
    count = 0
    for i in range(50):
        n, d_ch = shapes[i % len(shapes)]
        degree = 1 + i % 4
        block = random_block(n, d_ch, degree, seed=1000 + i)
        for m in (block.token_mixers + block.channel_mixers
                  + block.inter_token + block.inter_channel):
            seen_kinds.add(m.kind)
        x = np.random.default_rng(2000 + i).uniform(-1, 1, (n, d_ch))
        _, base = forward(block, x)
        for alpha in ALPHAS:
            _, scaled = forward(block, alpha * x)
            for d in range(degree):
                worst = max(worst, rel_dev(scaled.z[d],
                                           alpha ** (d + 1) * base.z[d]))
        count += 1
    elapsed = time.time() - t0
    assert count == 50
    assert seen_kinds == set(MixerKind), f"mixer kinds missing: {set(MixerKind) - seen_kinds}"
    assert worst <= 1e-10, worst
    assert elapsed < 30.0, elapsed
    report(1, f"50 blocks, every mixer kind, max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_coefficient_recovery():
    t0 = time.time()
    shapes = [(1, 1), (2, 1), (2, 2), (4, 2), (2, 4), (8, 1), (1, 8), (4, 1)]
    worst_residual = 0.0
    checked = 0
    for i, (n, d_ch) in enumerate(shapes):
        for degree in (1, 2, 3, 4):
            full = random_block(n, d_ch, degree, seed=10 * i + degree)
            coeffs = extract_coeffs(lambda x: forward(full, x)[0], n, d_ch, degree)
            worst_residual = max(worst_residual, coeffs.diagnostics.residual)
            assert coeffs.max_degree() <= degree
            assert coeffs.support_degrees() <= set(full.degree_mask)
            if degree >= 2:
                j = 1 + (i + degree) % degree
                masked = random_block(n, d_ch, degree, seed=100 + 10 * i + degree,
                                      degree_mask=frozenset({j}), with_bias=True)
                coeffs = extract_coeffs(lambda x: forward(masked, x)[0], n, d_ch,
                                        degree)
                worst_residual = max(worst_residual, coeffs.diagnostics.residual)
                assert coeffs.support_degrees() <= {0, j}, (n, d_ch, degree, j)
            checked += 1
    elapsed = time.time() - t0
    assert worst_residual < 1e-9, worst_residual
    assert elapsed < 60.0, elapsed
    report(2, f"{checked} shapes x degrees, worst residual {worst_residual:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_3_gradients_within_budget():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(42)
    x_norm = rng.uniform(-1, 1, (12, 6))
    cases = [
        ("conv-seq-d3", build_conv_instance(32, 8, 3, Seq1d(), seed=1),
         rng.uniform(-1, 1, (32, 8))),
        ("conv-grid-d2", build_conv_instance(36, 8, 2, Grid(6, 6), seed=2),
         rng.uniform(-1, 1, (36, 8))),
        ("random-d4-plain", random_block(10, 5, 4, seed=3, with_bias=True),
         rng.uniform(-1, 1, (10, 5))),
        ("random-d3-normalized", conditioned_norm_block(12, 6, 3, seed=4, x=x_norm),
         x_norm),
    ]
    for name, block, x in cases:
        rep = gradcheck(block, x, probes=200, step=1e-4, seed=7)
        worst = max(worst, rep.max_rel_err)
        assert rep.max_rel_err < 1e-5, (name, rep.max_rel_err)
    for name, square in (("rational-plain", False), ("rational-stabilized", True)):
        block = random_rational_block(8, 4, 2, 2, seed=5, square_denominator=square)
        x = rng.uniform(-1, 1, (8, 4))
        rep = rational_gradcheck(block, x, probes=200, step=1e-4, seed=8)
        worst = max(worst, rep.max_rel_err)
        assert rep.max_rel_err < 1e-5, (name, rep.max_rel_err)
    elapsed = time.time() - t0
    assert elapsed < 120.0, elapsed
    report(3, f"6 configurations, 200 probes each, max rel err {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_4_scheme_equivalences_and_degree_certificates(rng):
    n, d_ch = 16, 8
    u = lambda *s: rng.uniform(-0.7, 0.7, size=s)
    deviations = {}

    sima = A.SimaParams(u(d_ch, d_ch), u(d_ch, d_ch), u(d_ch, d_ch))
    plan = A.sima_as_padre(sima, n_tokens=n, verify_trials=100, seed=1)
    deviations["sima"] = A.verify_plan(lambda x: A.sima_forward(sima, x), plan,
                                       trials=100, seed=2)
    assert assert_homogeneous(lambda x: A.sima_numerator(sima, x), 3,
                              trials=30, shape=(n, d_ch)).passed

    c2f = A.Conv2FormerParams(u(d_ch, d_ch), u(d_ch, d_ch), u(3, 3), 4, 4)
    plan = A.conv2former_as_padre(c2f, verify_trials=100, seed=3)
    deviations["conv2former"] = A.verify_plan(
        lambda x: A.conv2former_forward(c2f, x), plan, trials=100, seed=4)
    assert assert_homogeneous(lambda x: A.conv2former_forward(c2f, x), 2,
                              trials=30, shape=(16, d_ch)).passed

    castle = A.CastlingParams(u(d_ch, d_ch), u(d_ch, d_ch), u(d_ch, d_ch),
                              dw=Mixer.conv1d(Side.TOKEN, u(3), n))
    plan = A.castling_as_padre(castle, verify_trials=100, seed=5)
    deviations["castling"] = A.verify_plan(lambda x: A.castling_forward(castle, x),
                                           plan, trials=100, seed=6)
    assert max_effective_degree(lambda x: A.castling_forward(castle, x), 4,
                                (n, d_ch)) == 3
    small_castle = A.CastlingParams(u(2, 2), u(2, 2), u(2, 2),
                                    dw=Mixer.conv1d(Side.TOKEN, u(3), 4))
    degs = extract_coeffs(stacked(lambda x: A.castling_forward(small_castle, x)),
                          4, 2, 3).support_degrees()
    assert 1 in degs and 3 in degs

    hy = A.HyenaParams(order=2, projections=[u(6, 5) for _ in range(3)],
                       filters=[u(6) for _ in range(2)])
    worst = 0.0
    for seed in range(100):
        chi = np.random.default_rng(seed).uniform(-1, 1, 5)
        worst = max(worst, rel_dev(A.hyena_forward_closed(hy, chi),
                                   A.hyena_forward(hy, chi)))
    deviations["hyena"] = worst
    assert assert_homogeneous(
        lambda x: A.hyena_forward(hy, x.ravel()).reshape(6, 1), 3,
        trials=30, shape=(5, 1)).passed

    worst = 0.0
    for seed in range(100):
        p = mamba_params(seed, state=4, length=12)
        x = np.random.default_rng(seed + 500).uniform(-1, 1, 12)
        got = A.mamba_padre_approx(p, x, frozen_delta=0.05)
        worst = max(worst, rel_dev(got, mamba_poly_reference(p, x, 0.05)))
    deviations["mamba"] = worst
    p = mamba_params(7, state=4, length=10)
    assert assert_homogeneous(
        lambda x: A.mamba_padre_approx(p, x.ravel(), frozen_delta=0.03).reshape(10, 1),
        3, trials=30, shape=(10, 1)).passed

    assert all(dev <= 1e-10 for dev in deviations.values()), deviations
    report(4, "plan vs direct on 100 inputs: " + ", ".join(
        f"{k} {v:.1e}" for k, v in deviations.items())
        + "; degree certificates 3/2/3/<=3/3 all hold")


def test_criterion_5_state_space_approximation_law():
    ratios = []
    for seed in range(20):
        length = 8 + (seed * 7) % 25    # lengths up to 32
        p = mamba_params(seed, state=4, length=length)
        x = np.random.default_rng(seed + 300).uniform(-1, 1, length)
        for scale in (1e-2, 1e-3):
            e_full = np.max(np.abs(A.mamba_forward(p, x, scale)
                                   - A.mamba_padre_approx(p, x, scale)))
            e_half = np.max(np.abs(A.mamba_forward(p, x, scale / 2)
                                   - A.mamba_padre_approx(p, x, scale / 2)))
            ratios.append(e_half / e_full)
    assert all(0.15 <= r <= 0.4 for r in ratios), (min(ratios), max(ratios))
    report(5, f"20 sequences x 2 scales: halving ratios in "
              f"[{min(ratios):.3f}, {max(ratios):.3f}] ⊂ [0.15, 0.4]")


def test_criterion_6_attention_truncation_error():
    rng = np.random.default_rng(0)
    n, d_ch = 6, 4
    p = A.AttnParams(*(rng.uniform(-0.5, 0.5, (d_ch, d_ch)) for _ in range(3)),
                     d_k=d_ch)
    x = rng.uniform(-1.0, 1.0, (n, d_ch))
    logits = (x @ p.w_q) @ (x @ p.w_k).T / np.sqrt(p.d_k)
    x = x * np.sqrt(0.999 / np.max(np.abs(logits)))
    exact = A.softmax_attention(p, x)
    prev = np.inf
    margins = []
    for degree in range(2, 13):
        approx, bound = A.attention_rational_approx(p, x, degree)
        err = float(np.max(np.abs(approx - exact)))
        assert err <= 4.0 * bound, (degree, err, bound)
        assert err <= prev, (degree, err, prev)
        margins.append(err / bound)
        prev = err
    assert prev < 1e-8, prev
    report(6, f"degrees 2..12 monotone, err/bound max {max(margins):.2f} <= 4, "
              f"final err {prev:.1e} < 1e-8")


def test_criterion_7_linear_complexity_scaling(sweep):
    records, elapsed = sweep
    fits = {f.scheme: f for f in fit_scaling(records)}
    for scheme in ("padre-2", "padre-3", "padre-4"):
        f = fits[scheme]
        assert 0.95 <= f.flop_exponent <= 1.05, (scheme, f.flop_exponent)
        assert f.time_exponent <= 1.3, (scheme, f.time_exponent)
    attn = fits["softmax-attn"]
    assert attn.flop_exponent >= 1.8, attn.flop_exponent
    assert attn.time_exponent >= 1.6, attn.time_exponent
    for scheme in fits:
        times = [r.median_s for r in sorted((r for r in records
                                             if r.scheme == scheme),
                                            key=lambda r: r.n_tokens)]
        assert times == sorted(times), (scheme, times)
    counts = {n: param_count(build_conv_instance(n, 8, 2, Seq1d(), seed=0,
                                                 w_mode=WMode.FULL))
              for n in (1024, 2048)}
    ratio = counts[2048] / counts[1024]
    assert 1.8 <= ratio <= 2.2, ratio
    assert elapsed < 600.0, elapsed
    report(7, "FLOP exponents "
           + ", ".join(f"{s} {fits[s].flop_exponent:.3f}" for s in
                       ("padre-2", "padre-3", "padre-4"))
           + f", attn {attn.flop_exponent:.3f}; wall exponents "
           + ", ".join(f"{s} {fits[s].time_exponent:.2f}" for s in fits)
           + f"; param ratio {ratio:.3f}; sweep {elapsed:.0f}s")


def test_criterion_8_degree_cost_ratio(sweep):
    records, _ = sweep
    flops = {r.scheme: r.flops for r in records if r.n_tokens == 4096}
    ratio = flops["padre-3"] / flops["padre-2"]
    assert 1.4 <= ratio <= 2.6, ratio
    report(8, f"degree-3/degree-2 FLOP ratio at N=4096: {ratio:.2f} in [1.4, 2.6] "
              f"(reference ratio 2.28/1.10 ≈ 2.07); absolute: "
              f"padre-2 {flops['padre-2'] / 1e9:.2f} GFLOP vs 1.10 G reported, "
              f"padre-3 {flops['padre-3'] / 1e9:.2f} G vs 2.28 G")


def test_criterion_9_multimodal_bidegree():
    worst = 0.0
    for i in range(20):
        degree = 2 + i % 3
        seqs = {2: "ab", 3: ("aab", "abb", "aba")[i % 3], 4: "abab"}[degree]
        n_a, d_a = 4 + i % 3, 3
        n_b, d_b = 5, 2 + i % 2
        block = build_multimodal({"a": (n_a, d_a), "b": (n_b, d_b)}, 4, 3,
                                 degree, [seqs], seed=3000 + i)
        rng = np.random.default_rng(4000 + i)
        xa, xb = rng.uniform(-1, 1, (n_a, d_a)), rng.uniform(-1, 1, (n_b, d_b))
        _, base = multimodal_forward(block, {"a": xa, "b": xb})
        alpha, beta = 2.0, 3.0
        _, scaled = multimodal_forward(block, {"a": alpha * xa, "b": beta * xb})
        n_as = seqs.count("a")
        n_bs = seqs.count("b")
        worst = max(worst, rel_dev(scaled.taps[0][-1],
                                   alpha ** n_as * beta ** n_bs * base.taps[0][-1]))
    assert worst <= 1e-10, worst
    for seq in ("aa", "bb"):
        with pytest.raises(TrivialSequenceError):
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, [seq], seed=0)
    report(9, f"20 instances, bidegree max rel dev {worst:.2e}; "
              "single-mode sequences rejected")


def test_criterion_10_round_trips_and_determinism(tmp_path):
    block = build_conv_instance(36, 8, 3, Grid(6, 6), seed=11)
    path = str(tmp_path / "block.bin")
    save_block(block, path)
    assert_params_identical(iter_parameters(block), iter_parameters(load_block(path)))
    rational = random_rational_block(6, 4, 2, 2, seed=12)
    rpath = str(tmp_path / "rational.bin")
    save_rational(rational, rpath)
    assert_params_identical(iter_rational_parameters(rational),
                            iter_rational_parameters(load_rational(rpath)))
    runs = [run_bench(["padre-2", "sima"], [16, 36], d_ch=8, reps=5, warmup=1,
                      seed=9) for _ in range(2)]
    assert [r.flops for r in runs[0]] == [r.flops for r in runs[1]]
    report(10, "weight containers bit-exact for polynomial and rational blocks; "
               "FLOP columns identical across runs")
