"""The invariant checks behind ``padre verify`` and the acceptance gate.

Each check runs acceptance criterion 1-6, 9 or 10 of
``tests/test_acceptance.py``, or the rational scale law, on that test's own
instances, seeds, trial counts and tolerances, and returns a ``CheckResult``:
worst deviation, tolerance, pass/fail and a one-line detail.  Structural
conditions (mixer kinds seen, support degrees, degree certificates, rejected
sequences, parameter labels) fold into ``passed`` and ``detail``; a plan that
deviates from its direct forward (``EquivalenceError``) becomes a failing
record.  The tests assert on these records, so the CLI and the gate run the
same code.  Criteria 7 and 8 need the full benchmark sweep and stay
test-only.  ``seed`` shifts every seed a check draws, and 0 reproduces the
acceptance instances; only ``state-space-law`` keeps its instances, as its
band is not a law of every seeded instance (see that check).  ``CHECKS`` is
the ordered registry ``padre verify`` walks; ``SCHEMES`` names its
scheme-equivalence entries.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import adapters as A
from .bench import run_bench
from .block import (Grid, Seq1d, block_config, build_conv_instance, config_from_json,
                    config_to_json, forward, iter_parameters, load_block, random_block,
                    save_block)
from .grad import GRAD_TOL, gradcheck
from .multimodal import TrivialSequenceError, build_multimodal, multimodal_forward
from .oracle import assert_homogeneous, extract_coeffs, max_effective_degree, rel_dev
from .rational import (iter_rational_parameters, load_rational, random_rational_block,
                       rational_forward, rational_gradcheck, save_rational)
from .tensor import Mixer, MixerKind, Side


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool
    detail: str


#: name -> check, in the order ``padre verify`` runs them
CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _check(name: str, strict: bool = False):
    """Register a body ``(seed, problems) -> (worst, tol, summary)``; its
    record passes when ``worst`` is within ``tol`` (below it when ``strict``)
    and the body appended nothing to ``problems``."""
    def register(body):
        @functools.wraps(body)
        def run(seed: int = 0) -> CheckResult:
            problems: list[str] = []
            try:
                worst, tol, summary = body(seed, problems)
            except A.EquivalenceError as exc:
                return CheckResult(name, exc.max_deviation, exc.tol, False, str(exc))
            ok = worst < tol if strict else worst <= tol
            return CheckResult(name, worst, tol, ok and not problems,
                               "; ".join([summary, *problems]))
        CHECKS[name] = run
        return run
    return register


def conditioned_norm_block(n: int, d_ch: int, degree: int, seed: int, x: np.ndarray):
    """A normalized random block whose feature rows have rms >= 0.05, well
    away from the normalizer's epsilon scale, so the h = 1e-4 difference
    quotient is trustworthy.  Bumps the seed until the instance is well
    conditioned."""
    for attempt in range(64):
        block = random_block(n, d_ch, degree, seed + 1000 * attempt,
                             normalize_y=True, with_bias=True)
        _, trace = forward(block, x)
        if min(float(np.sqrt((m * m).mean(axis=1)).min()) for m in trace.y_raw) >= 0.05:
            return block
    raise RuntimeError("no well-conditioned normalized instance found")


def mamba_params(seed: int = 0, state: int = 4, length: int = 8) -> A.MambaParams:
    rng = np.random.default_rng(seed)
    return A.MambaParams(
        a_diag=rng.uniform(-1.0, -0.1, state),
        w_b=rng.uniform(-0.8, 0.8, (state, length)),
        w_c=rng.uniform(-0.8, 0.8, (length, state)),
        delta_u=rng.uniform(-0.5, 0.5, length),
        delta_v=rng.uniform(-0.5, 0.5, length),
        beta=1.0, pi_param=0.1,
    )


def attention_instance(seed: int, l_target: float) -> tuple[A.AttnParams, np.ndarray]:
    """Seeded 6 x 4 attention weights and an input scaled so that the largest
    |logit| is ``l_target``."""
    rng = np.random.default_rng(seed)
    p = A.AttnParams(*(rng.uniform(-0.5, 0.5, (4, 4)) for _ in range(3)), d_k=4)
    x = rng.uniform(-1.0, 1.0, (6, 4))
    logits = (x @ p.w_q) @ (x @ p.w_k).T / np.sqrt(p.d_k)
    return p, x * np.sqrt(l_target / np.max(np.abs(logits)))


def _homogeneous(f, degree: int, shape, seed: int, problems: list[str]) -> None:
    verdict = assert_homogeneous(f, degree, trials=30, shape=shape, seed=seed)
    if not verdict.passed:
        problems.append(f"not homogeneous of degree {degree} "
                        f"(rel dev {verdict.max_rel_err:.2e})")


@_check("homogeneity")
def check_homogeneity(seed, problems):
    """Criterion 1: tap Z_i of 50 random blocks is homogeneous of degree i."""
    shapes = [(16, 4), (9, 8), (64, 16), (12, 9), (25, 5), (8, 16), (36, 12),
              (7, 3), (49, 16), (10, 10)]
    missing = set(MixerKind)
    worst = 0.0
    for i in range(50):
        n, d_ch = shapes[i % len(shapes)]
        degree = 1 + i % 4
        block = random_block(n, d_ch, degree, seed=seed + 1000 + i)
        missing -= {m.kind for m in block.token_mixers + block.channel_mixers
                    + block.inter_token + block.inter_channel}
        x = np.random.default_rng(seed + 2000 + i).uniform(-1, 1, (n, d_ch))
        base = forward(block, x)[1].z
        for alpha in (0.5, 1.0, 2.0, -1.0):
            scaled = forward(block, alpha * x)[1].z
            for d in range(degree):
                worst = max(worst, rel_dev(scaled[d], alpha ** (d + 1) * base[d]))
    if missing:
        problems.append(f"mixer kinds missing: {sorted(k.name for k in missing)}")
    return worst, 1e-10, f"50 blocks, every mixer kind, max rel dev {worst:.2e}"


@_check("oracle", strict=True)
def check_oracle(seed, problems):
    """Criterion 2: exact coefficient recovery, within each block's degree
    support (full, and masked to one degree j)."""
    shapes = [(1, 1), (2, 1), (2, 2), (4, 2), (2, 4), (8, 1), (1, 8), (4, 1)]
    worst = 0.0
    for i, (n, d_ch) in enumerate(shapes):
        for degree in (1, 2, 3, 4):
            full = random_block(n, d_ch, degree, seed=seed + 10 * i + degree)
            cases = [(full, set(full.degree_mask))]
            if degree >= 2:
                j = 1 + (i + degree) % degree
                cases.append((random_block(n, d_ch, degree, with_bias=True,
                                           seed=seed + 100 + 10 * i + degree,
                                           degree_mask=frozenset({j})), {0, j}))
            for block, support in cases:
                coeffs = extract_coeffs(lambda x: forward(block, x)[0], n, d_ch, degree)
                worst = max(worst, coeffs.diagnostics.residual)
                if not coeffs.support_degrees() <= support or coeffs.max_degree() > degree:
                    problems.append(f"N={n} D={d_ch} d={degree}: support "
                                    f"{sorted(coeffs.support_degrees())}")
    return worst, 1e-9, f"32 shapes x degrees, worst residual {worst:.2e}"


def gradient_cases(seed: int) -> list[tuple]:
    """Criterion 3's instances: ``(name, checker, block, x, probe seed)`` for six
    blocks, where ``checker`` is ``gradcheck`` or ``rational_gradcheck``."""
    rng = np.random.default_rng(seed + 42)
    x_norm = rng.uniform(-1, 1, (12, 6))
    cases = [
        ("conv-seq-d3", gradcheck, build_conv_instance(32, 8, 3, Seq1d(), seed=seed + 1),
         rng.uniform(-1, 1, (32, 8)), seed + 7),
        ("conv-grid-d2", gradcheck, build_conv_instance(36, 8, 2, Grid(6, 6), seed=seed + 2),
         rng.uniform(-1, 1, (36, 8)), seed + 7),
        ("random-d4-plain", gradcheck, random_block(10, 5, 4, seed=seed + 3, with_bias=True),
         rng.uniform(-1, 1, (10, 5)), seed + 7),
        ("random-d3-normalized", gradcheck,
         conditioned_norm_block(12, 6, 3, seed=seed + 4, x=x_norm), x_norm, seed + 7),
    ]
    for name, square in (("rational-plain", False), ("rational-stabilized", True)):
        block = random_rational_block(8, 4, 2, 2, seed=seed + 5, square_denominator=square)
        cases.append((name, rational_gradcheck, block, rng.uniform(-1, 1, (8, 4)), seed + 8))
    return cases


@_check("gradients", strict=True)
def check_gradients(seed, problems):
    """Criterion 3: backward agrees with central differences on six blocks."""
    errs = {name: check(block, x, probes=200, step=1e-4, seed=probe_seed).max_rel_err
            for name, check, block, x, probe_seed in gradient_cases(seed)}
    problems += [f"{name} {err:.2e}" for name, err in errs.items() if not err < GRAD_TOL]
    worst = max(errs.values())
    return worst, GRAD_TOL, f"6 configurations, 200 probes each, max rel err {worst:.2e}"


def _scheme_params(seed: int):
    """Criterion 4's instances, drawn in one sequence from one generator."""
    rng = np.random.default_rng(seed + 1234)
    u = lambda *s: rng.uniform(-0.7, 0.7, size=s)
    sima = A.SimaParams(u(8, 8), u(8, 8), u(8, 8))
    c2f = A.Conv2FormerParams(u(8, 8), u(8, 8), u(3, 3), 4, 4)
    castle = A.CastlingParams(u(8, 8), u(8, 8), u(8, 8),
                              dw=Mixer.conv1d(Side.TOKEN, u(3), 16))
    small_castle = A.CastlingParams(u(2, 2), u(2, 2), u(2, 2),
                                    dw=Mixer.conv1d(Side.TOKEN, u(3), 4))
    hy = A.HyenaParams(order=2, projections=[u(256, 256) for _ in range(3)],
                       filters=[u(256) for _ in range(2)])
    return sima, c2f, castle, small_castle, hy


@_check("scheme=sima")
def check_sima(seed, problems):
    """Criterion 4, SimA: plan vs direct on 100 inputs; numerator of degree 3."""
    sima = _scheme_params(seed)[0]
    plan = A.sima_as_padre(sima, n_tokens=16)
    _homogeneous(lambda x: A.sima_numerator(sima, x), 3, (16, 8), seed, problems)
    return (A.verify_plan(lambda x: A.sima_forward(sima, x), plan, seed=seed + 2),
            1e-10, "rational cascade plan vs direct; numerator degree 3")


@_check("scheme=conv2former")
def check_conv2former(seed, problems):
    """Criterion 4, Conv2Former: plan vs direct on 100 inputs; degree 2."""
    c2f = _scheme_params(seed)[1]
    plan = A.conv2former_as_padre(c2f)
    _homogeneous(lambda x: A.conv2former_forward(c2f, x), 2, (16, 8), seed, problems)
    return (A.verify_plan(lambda x: A.conv2former_forward(c2f, x), plan, seed=seed + 4),
            1e-10, "cascade plan vs direct; degree 2")


@_check("scheme=castling")
def check_castling(seed, problems):
    """Criterion 4, Castling-ViT: plan vs direct on 100 inputs; effective
    degree 3, with degree-1 and degree-3 terms in the extracted support."""
    _, _, castle, small, _ = _scheme_params(seed)
    plan = A.castling_as_padre(castle)
    dev = A.verify_plan(lambda x: A.castling_forward(castle, x), plan, seed=seed + 6)
    eff = max_effective_degree(lambda x: A.castling_forward(castle, x), 4, (16, 8),
                               seed=seed)
    degs = extract_coeffs(lambda xs: np.stack([A.castling_forward(small, x) for x in xs]),
                          4, 2, 3).support_degrees()
    if eff != 3 or not {1, 3} <= degs:
        problems.append(f"effective degree {eff}, support {sorted(degs)}")
    return dev, 1e-10, "cascade plan vs direct; degree 3, support has 1 and 3"


@_check("scheme=hyena")
def check_hyena(seed, problems):
    """Criterion 4, Hyena: plan vs the recurrence on 100 length-256 inputs;
    degree 3."""
    hy = _scheme_params(seed)[4]
    direct = lambda x: A.hyena_forward(hy, x[:, 0])[:, None]
    _homogeneous(direct, 3, (256, 1), seed, problems)
    return (A.verify_plan(direct, A.hyena_as_padre(hy), seed=seed + 8),
            1e-10, "cascade plan vs recurrence at L=256; degree 3")


@_check("scheme=mamba")
def check_mamba(seed, problems):
    """Criterion 4, Mamba: at a frozen step of 0.05, exponential and
    first-order, plan vs the scan on 100 length-256 inputs; degree 3."""
    p = mamba_params(seed, state=4, length=256)
    worst = 0.0
    for step in (A.zoh_step, A.euler_step):
        a_bar, gain = step(p, 0.05)
        direct = lambda x: A.mamba_scan(p, x[:, 0], a_bar, gain)[:, None]
        _homogeneous(direct, 3, (256, 1), seed, problems)
        worst = max(worst, A.verify_plan(direct, A.mamba_as_padre(p, a_bar, gain),
                                         seed=seed + 10))
    return worst, 1e-10, "cascade plans vs scan at L=256, both steps; degree 3"


@_check("state-space-law")
def check_state_space_law(seed, problems):
    """Criterion 5: halving Mamba's step scale cuts the surrogate error by
    a ratio in [0.15, 0.4] (~4x).

    Always the acceptance instances, whatever ``seed``: the error is
    ``delta^2 / 2 * c.(A b) * cumsum(x)`` to leading order, and where
    ``c.(A b)`` is small the ``delta^3`` term, which grows along the
    sequence, still competes at step scale 1e-2, so the band is not a law of
    every seeded instance."""
    ratios = []
    for s in range(20):
        length = 8 + (s * 7) % 25    # lengths up to 32
        p = mamba_params(s, state=4, length=length)
        x = np.random.default_rng(s + 300).uniform(-1, 1, length)
        for scale in (1e-2, 1e-3):
            err = [np.max(np.abs(A.mamba_forward(p, x, h) - A.mamba_padre_approx(p, x, h)))
                   for h in (scale, scale / 2)]
            ratios.append(err[1] / err[0])
    if not min(ratios) >= 0.15:
        problems.append(f"halving ratio {min(ratios):.3f} < 0.15")
    return max(ratios), 0.4, (f"20 sequences x 2 scales: halving ratios in "
                              f"[{min(ratios):.3f}, {max(ratios):.3f}]")


@_check("scheme=attn-approx")
def check_attention(seed, problems):
    """Criterion 6: the truncated-series attention error stays within 4x its
    remainder bound, never rises over degrees 2..12, and ends below 1e-8."""
    p, x = attention_instance(seed, 0.999)
    exact = A.softmax_attention(p, x)
    prev = np.inf
    margins = []
    for degree in range(2, 13):
        approx, bound = A.attention_rational_approx(p, x, degree)
        err = float(np.max(np.abs(approx - exact)))
        if err > prev:
            problems.append(f"degree {degree}: error {err:.2e} rises")
        margins.append(err / bound)
        prev = err
    if not prev < 1e-8:
        problems.append(f"final error {prev:.2e} >= 1e-8")
    return max(margins), 4.0, (f"degrees 2..12, err/bound max {max(margins):.2f}, "
                               f"final err {prev:.1e}")


@_check("multimodal")
def check_multimodal(seed, problems):
    """Criterion 9: the top tap has bidegree (#a, #b); single-mode sequences
    are rejected."""
    worst = 0.0
    for i in range(20):
        degree = 2 + i % 3
        seq = {2: "ab", 3: ("aab", "abb", "aba")[i % 3], 4: "abab"}[degree]
        shapes = {"a": (4 + i % 3, 3), "b": (5, 2 + i % 2)}
        block = build_multimodal(shapes, 4, 3, degree, [seq], seed=seed + 3000 + i)
        rng = np.random.default_rng(seed + 4000 + i)
        xa, xb = rng.uniform(-1, 1, shapes["a"]), rng.uniform(-1, 1, shapes["b"])
        _, base = multimodal_forward(block, {"a": xa, "b": xb})
        _, scaled = multimodal_forward(block, {"a": 2.0 * xa, "b": 3.0 * xb})
        worst = max(worst, rel_dev(scaled.taps[0][-1], 2.0 ** seq.count("a")
                                   * 3.0 ** seq.count("b") * base.taps[0][-1]))
    for seq in ("aa", "bb"):
        try:
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, [seq], seed=seed)
            problems.append(f"single-mode sequence {seq!r} accepted")
        except TrivialSequenceError:
            pass
    return worst, 1e-10, f"20 instances, bidegree max rel dev {worst:.2e}"


def _reload_dev(what: str, saved, loaded, problems: list[str]) -> float:
    """Max |saved - loaded| over two (label, array) lists, NaN if any entry
    is; every array that is not bit-equal (NaN included) is a problem."""
    if [(la, a.shape) for la, a in saved] != [(la, a.shape) for la, a in loaded]:
        problems.append(f"{what} parameter labels or shapes changed")
        return 0.0
    changed = [la for (la, a), (_, b) in zip(saved, loaded) if not np.array_equal(a, b)]
    if changed:
        problems.append(f"{what} arrays changed on reload: {changed}")
    return float(np.max([np.max(np.abs(a - b), initial=0.0)
                         for (_, a), (_, b) in zip(saved, loaded)]))


@_check("round-trip")
def check_round_trip(seed, problems):
    """Criterion 10: weight containers and the config reload exactly; the
    bench's FLOP columns repeat across runs."""
    block = build_conv_instance(36, 8, 3, Grid(6, 6), seed=seed + 11)
    rational = random_rational_block(6, 4, 2, 2, seed=seed + 12)
    with tempfile.TemporaryDirectory() as tmp:
        path, rpath = os.path.join(tmp, "block.bin"), os.path.join(tmp, "rational.bin")
        save_block(block, path)
        save_rational(rational, rpath)
        worst = np.max([_reload_dev("block", iter_parameters(block),
                                    iter_parameters(load_block(path)), problems),
                        _reload_dev("rational", iter_rational_parameters(rational),
                                    iter_rational_parameters(load_rational(rpath)),
                                    problems)])
    cfg = block_config(block, seed=seed + 11)
    if config_from_json(config_to_json(cfg)) != cfg:
        problems.append("config changed over JSON")
    runs = [run_bench(["padre-2", "sima"], [16, 36], d_ch=8, reps=5, warmup=1,
                      seed=seed + 9) for _ in range(2)]
    if [r.flops for r in runs[0]] != [r.flops for r in runs[1]]:
        problems.append("FLOP columns differ across runs")
    return float(worst), 0.0, ("weight containers bit-exact for polynomial and rational "
                        "blocks; config round-trips; FLOP columns repeat")


@_check("rational-scale-law")
def check_rational_scale_law(seed, problems):
    """A rational block with only numerator tap j and denominator tap k
    scales as alpha^(j - k), for (j, k) in (1, 2), (2, 1) and (2, 2)."""
    worst = 0.0
    for j, k in ((1, 2), (2, 1), (2, 2)):
        block = random_rational_block(4, 2, 2, 2, seed=seed + 6)
        block.epsilon = 0.0
        block.w_num[:] = 0.0
        block.w_num[:, :, j - 1] = 1.0
        block.w_den[:] = 0.0
        block.w_den[:, :, k - 1] = 1.0
        block.bias_num[:] = 0.0
        block.bias_den[:] = 0.0
        x = np.random.default_rng(seed + 1234).uniform(0.3, 1.0, (4, 2))
        base, _ = rational_forward(block, x)
        scaled, _ = rational_forward(block, 1.6 * x)
        dev = rel_dev(scaled, 1.6 ** (j - k) * base)
        if not dev <= 1e-9:
            problems.append(f"(j, k) = ({j}, {k}): rel dev {dev:.2e}")
        worst = max(worst, dev)
    return worst, 1e-9, f"(j, k) in (1, 2), (2, 1), (2, 2), max rel dev {worst:.2e}"


SCHEMES = tuple(name.removeprefix("scheme=") for name in CHECKS
                if name.startswith("scheme="))
