"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The scaling sweep
(criteria 7 and 8) times real forwards at N up to 4096 and D = 192, so this
module takes a few minutes; everything else is seconds.
"""

import time

import pytest

from padre import verify as V
from padre.bench import fit_scaling, run_bench
from padre.block import Seq1d, WMode, build_conv_instance, param_count


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS — {detail}")


@pytest.fixture(scope="module")
def sweep():
    """The shared criterion-7/8 benchmark sweep (paper-scale N and D)."""
    t0 = time.time()
    records = run_bench(["padre-2", "padre-3", "padre-4", "softmax-attn"],
                        [256, 1024, 2304, 4096], d_ch=192, reps=5, warmup=2, seed=0)
    return records, time.time() - t0


def timed(check):
    t0 = time.time()
    rec = check()
    return rec, time.time() - t0


def test_criterion_1_homogeneity_of_degree_taps():
    rec, elapsed = timed(V.check_homogeneity)
    assert rec.passed, rec
    assert elapsed < 30.0, elapsed
    report(1, f"{rec.detail}, {elapsed:.1f}s")


def test_criterion_2_exact_coefficient_recovery():
    rec, elapsed = timed(V.check_oracle)
    assert rec.passed, rec
    assert elapsed < 60.0, elapsed
    report(2, f"{rec.detail}, {elapsed:.1f}s")


def test_criterion_3_gradients_within_budget():
    rec, elapsed = timed(V.check_gradients)
    assert rec.passed, rec
    assert elapsed < 120.0, elapsed
    report(3, f"{rec.detail}, {elapsed:.1f}s")


def test_criterion_4_scheme_equivalences_and_degree_certificates():
    recs = [V.check_sima(), V.check_conv2former(), V.check_castling(),
            V.check_hyena(), V.check_mamba()]
    assert all(r.passed for r in recs), [r for r in recs if not r.passed]
    report(4, "plan vs direct on 100 inputs: " + ", ".join(
        f"{r.name.removeprefix('scheme=')} {r.worst:.1e}" for r in recs)
        + "; degree certificates 3/2/3/<=3/3 all hold")


def test_criterion_5_state_space_approximation_law():
    rec = V.check_state_space_law()
    assert rec.passed, rec
    report(5, f"{rec.detail} ⊂ [0.15, 0.4]")


def test_criterion_6_attention_truncation_error():
    rec = V.check_attention()
    assert rec.passed, rec
    report(6, f"{rec.detail}; monotone, err/bound <= 4, final err < 1e-8")


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
    rec = V.check_multimodal()
    assert rec.passed, rec
    report(9, f"{rec.detail}; single-mode sequences rejected")


def test_criterion_10_round_trips_and_determinism():
    rec = V.check_round_trip()
    assert rec.passed, rec
    report(10, rec.detail)
