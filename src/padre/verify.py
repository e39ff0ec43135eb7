"""Fast verification suites behind the ``verify`` CLI path.

Each suite re-runs a compact slice of the package's correctness story
(homogeneity of the cascade taps, exact coefficient recovery, gradient
agreement with finite differences, scheme equivalences, the rational and
multimodal laws, container round-trips) and reports one pass/fail line.
The pytest suite covers the same ground at full depth.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import adapters, oracle
from .bench import run_bench
from .block import (
    Grid,
    Seq1d,
    block_config,
    build_conv_instance,
    config_from_json,
    config_to_json,
    forward,
    iter_parameters,
    load_block,
    random_block,
    save_block,
)
from .grad import gradcheck
from .multimodal import TrivialSequenceError, build_multimodal, multimodal_forward
from .rational import random_rational_block, rational_forward, rational_gradcheck
from .tensor import Mixer, Side


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


HOMOGENEITY_ALPHAS = (0.5, 1.0, 2.0, -1.0)


def _rel_dev(got: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(ref))), 1e-12)
    return float(np.max(np.abs(got - ref))) / scale


def homogeneity_deviation(block, x, alphas=HOMOGENEITY_ALPHAS) -> float:
    """Worst relative deviation of Z_i(alpha x) from alpha^i Z_i(x)."""
    _, base = forward(block, x)
    worst = 0.0
    for alpha in alphas:
        _, scaled = forward(block, alpha * x)
        for i in range(block.degree):
            worst = max(worst, _rel_dev(scaled.z[i], alpha ** (i + 1) * base.z[i]))
    return worst


def homogeneity_block_specs(count: int) -> list[tuple[int, int, int]]:
    shapes = [(16, 4), (9, 8), (64, 16), (12, 9), (25, 5), (8, 16), (36, 12), (7, 3)]
    return [(n, d, 1 + i % 4) for i, (n, d) in
            enumerate(shapes * (count // len(shapes) + 1))][:count]


def suite_homogeneity(count: int = 12, seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, (n, d_ch, deg) in enumerate(homogeneity_block_specs(count)):
        block = random_block(n, d_ch, deg, seed + i)
        x = rng.uniform(-1.0, 1.0, size=(n, d_ch))
        worst = max(worst, homogeneity_deviation(block, x))
    return SuiteResult("cascade-homogeneity", worst <= tol,
                       f"{count} blocks, max rel dev {worst:.2e}")


def oracle_block_specs() -> list[tuple[int, int, int, int]]:
    """(n, d_ch, degree, seed) instances under the N*D <= 8 extraction cap."""
    out = []
    seed = 100
    for n, d_ch in [(2, 2), (4, 2), (1, 8), (8, 1), (2, 4)]:
        for deg in (1, 2, 3, 4):
            out.append((n, d_ch, deg, seed))
            seed += 1
    return out


def suite_poly_oracle(tol: float = 1e-9) -> SuiteResult:
    worst = 0.0
    for n, d_ch, deg, seed in oracle_block_specs()[:8]:
        block = random_block(n, d_ch, deg, seed)
        coeffs = oracle.extract_coeffs(lambda x: forward(block, x)[0], n, d_ch, deg)
        worst = max(worst, coeffs.diagnostics.residual)
        if coeffs.max_degree() > deg:
            return SuiteResult("poly-oracle", False,
                               f"degree {coeffs.max_degree()} exceeds bound {deg}")
    return SuiteResult("poly-oracle", worst <= tol, f"max residual {worst:.2e}")


def conditioned_norm_block(n: int, d_ch: int, degree: int, seed: int,
                           x: np.ndarray, min_row_rms: float = 0.05):
    """A normalized random block whose feature rows stay well away from the
    normalizer's epsilon scale, so the h = 1e-4 difference quotient is
    trustworthy.  Bumps the seed until the instance is well conditioned."""
    for attempt in range(64):
        block = random_block(n, d_ch, degree, seed + 1000 * attempt,
                             normalize_y=True, with_bias=True)
        _, trace = forward(block, x)
        if min(float(np.sqrt((m * m).mean(axis=1)).min()) for m in trace.y_raw) \
                >= min_row_rms:
            return block
    raise RuntimeError("no well-conditioned normalized instance found")


def suite_gradients(probes: int = 120) -> SuiteResult:
    worst = 0.0
    rng = np.random.default_rng(1)
    x_norm = rng.uniform(-1.0, 1.0, size=(9, 4))
    cases = [
        (build_conv_instance(16, 4, 3, Seq1d(), seed=5), None),
        (conditioned_norm_block(9, 4, 4, seed=6, x=x_norm), x_norm),
        (random_block(8, 3, 2, seed=7), None),
    ]
    for i, (block, x_fixed) in enumerate(cases):
        x = x_fixed if x_fixed is not None else rng.uniform(
            -1.0, 1.0, size=(block.n_tokens, block.n_channels))
        worst = max(worst, gradcheck(block, x, probes=probes, seed=i).max_rel_err)
    rat = random_rational_block(6, 3, 2, 2, seed=8)
    x = rng.uniform(-1.0, 1.0, size=(6, 3))
    worst = max(worst, rational_gradcheck(rat, x, probes=probes).max_rel_err)
    return SuiteResult("gradients", worst < 1e-5, f"max rel err {worst:.2e}")


def _adapter_params(seed: int = 0, n: int = 9, d_ch: int = 4):
    rng = np.random.default_rng(seed)
    u = lambda *s: rng.uniform(-0.7, 0.7, size=s)
    sima = adapters.SimaParams(u(d_ch, d_ch), u(d_ch, d_ch), u(d_ch, d_ch))
    conv2f = adapters.Conv2FormerParams(u(d_ch, d_ch), u(d_ch, d_ch), u(3, 3), 3, 3)
    castle = adapters.CastlingParams(
        u(d_ch, d_ch), u(d_ch, d_ch), u(d_ch, d_ch),
        dw=Mixer.conv1d(Side.TOKEN, u(3), n),
    )
    return sima, conv2f, castle


def check_scheme_equivalence(scheme: str, trials: int = 100,
                             seed: int = 0) -> tuple[bool, float, str]:
    """One machine-checked reduction; returns (ok, max deviation, detail)."""
    rng = np.random.default_rng(seed)
    n, d_ch = 9, 4
    sima, conv2f, castle = _adapter_params(seed, n, d_ch)
    if scheme == "sima":
        plan = adapters.sima_as_padre(sima, n_tokens=n, verify_trials=trials, seed=seed)
        dev = adapters.verify_plan(lambda x: adapters.sima_forward(sima, x), plan,
                                   trials, seed + 1)
        return True, dev, "rational cascade plan vs direct"
    if scheme == "conv2former":
        plan = adapters.conv2former_as_padre(conv2f, verify_trials=trials, seed=seed)
        dev = adapters.verify_plan(lambda x: adapters.conv2former_forward(conv2f, x),
                                   plan, trials, seed + 1)
        return True, dev, "cascade plan vs direct"
    if scheme == "castling":
        plan = adapters.castling_as_padre(castle, verify_trials=trials, seed=seed)
        dev = adapters.verify_plan(lambda x: adapters.castling_forward(castle, x),
                                   plan, trials, seed + 1)
        return True, dev, "cascade plan vs direct"
    if scheme == "hyena":
        hy = adapters.HyenaParams(
            order=2,
            projections=[rng.uniform(-0.8, 0.8, size=(6, 5)) for _ in range(3)],
            filters=[rng.uniform(-0.8, 0.8, size=6) for _ in range(2)],
        )
        worst = 0.0
        for t in range(trials):
            chi = np.random.default_rng(seed + t).uniform(-1, 1, size=5)
            worst = max(worst, _rel_dev(adapters.hyena_forward_closed(hy, chi),
                                        adapters.hyena_forward(hy, chi)))
        return worst <= 1e-10, worst, "monomial closed form vs recurrence"
    if scheme == "mamba":
        p = _mamba_params(seed)
        worst = 0.0
        for t in range(min(trials, 50)):
            x = np.random.default_rng(seed + t).uniform(-1, 1, size=8)
            got = adapters.mamba_padre_approx(p, x, frozen_delta=0.05)
            ref = mamba_poly_reference(p, x, 0.05)
            worst = max(worst, _rel_dev(got, ref))
        return worst <= 1e-10, worst, "frozen-step surrogate vs explicit polynomial"
    if scheme == "attn-approx":
        ok, detail = attention_approx_study(seed=seed)
        return ok, 0.0, detail
    raise ValueError(f"unknown scheme {scheme!r}")


def _mamba_params(seed: int) -> adapters.MambaParams:
    rng = np.random.default_rng(seed)
    return adapters.MambaParams(
        a_diag=rng.uniform(-1.0, -0.1, size=4),
        w_b=rng.uniform(-0.8, 0.8, size=(4, 8)),
        w_c=rng.uniform(-0.8, 0.8, size=(8, 4)),
        delta_u=rng.uniform(-0.5, 0.5, size=8),
        delta_v=rng.uniform(-0.5, 0.5, size=8),
        beta=1.0, pi_param=0.1,
    )


def mamba_poly_reference(p: adapters.MambaParams, x: np.ndarray,
                         delta: float) -> np.ndarray:
    """Independent evaluation of the frozen-step surrogate as an explicit sum:
    y_t = sum_{n<=t} c . ((1 + delta a)^(t-n) * delta b) x_n."""
    b, c = p.w_b @ x, x @ p.w_c
    a_lin = 1.0 + delta * p.a_diag
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        acc = 0.0
        for n in range(t + 1):
            acc += float(c @ (a_lin ** (t - n) * (delta * b))) * x[n]
        out[t] = acc
    return out


def attention_approx_study(l_target: float = 1.0, degrees=range(2, 13),
                           seed: int = 0) -> tuple[bool, str]:
    """Truncation error vs the analytic remainder bound, over a degree sweep."""
    rng = np.random.default_rng(seed)
    n, d_ch = 6, 4
    p = adapters.AttnParams(*(rng.uniform(-0.5, 0.5, size=(d_ch, d_ch))
                              for _ in range(3)), d_k=d_ch)
    x = rng.uniform(-1.0, 1.0, size=(n, d_ch))
    logits = (x @ p.w_q) @ (x @ p.w_k).T / np.sqrt(p.d_k)
    x = x * np.sqrt(0.98 * l_target / np.max(np.abs(logits)))
    exact = adapters.softmax_attention(p, x)
    prev = np.inf
    for deg in degrees:
        approx, bound = adapters.attention_rational_approx(p, x, deg)
        err = float(np.max(np.abs(approx - exact)))
        if err > 4.0 * bound:
            return False, f"degree {deg}: error {err:.2e} > 4x bound {bound:.2e}"
        if err > prev:
            return False, f"degree {deg}: error {err:.2e} not nonincreasing"
        prev = err
    if prev >= 1e-8:
        return False, f"top degree error {prev:.2e} >= 1e-8"
    return True, f"errors within 4x bound, final {prev:.2e}"


def suite_adapters(seed: int = 0) -> SuiteResult:
    details = []
    for scheme in ("sima", "conv2former", "castling", "hyena", "mamba", "attn-approx"):
        try:
            ok, dev, _ = check_scheme_equivalence(scheme, trials=40, seed=seed)
        except adapters.EquivalenceError as exc:
            return SuiteResult("adapters", False, f"{scheme}: {exc}")
        if not ok:
            return SuiteResult("adapters", False, f"{scheme}: deviation {dev:.2e}")
        details.append(f"{scheme} {dev:.1e}")
    return SuiteResult("adapters", True, "; ".join(details))


def suite_rational(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n, d_ch = 6, 3
    blk = random_rational_block(n, d_ch, 2, 2, seed=seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d_ch))
    # scale law with single-degree numerator/denominator selections
    blk.epsilon = 0.0
    blk.w_num[:, :, 0] = 0.0
    blk.w_den[:, :, 0] = 0.0
    blk.bias_num[:] = 0.0
    saved_bias = blk.bias_den.copy()
    blk.bias_den[:] = 0.0
    alpha = 1.7
    base, _ = rational_forward(blk, x)
    scaled, _ = rational_forward(blk, alpha * x)
    dev = _rel_dev(scaled, base)   # degree 2/2 -> scale-invariant
    blk.bias_den[:] = saved_bias
    return SuiteResult("rational", dev <= 1e-9, f"j-k scale law dev {dev:.2e}")


def suite_multimodal(seed: int = 0) -> SuiteResult:
    block = build_multimodal({"a": (6, 3), "b": (4, 5)}, 6, 3, 3, ["aab"], seed=seed)
    rng = np.random.default_rng(seed)
    xa = rng.uniform(-1, 1, size=(6, 3))
    xb = rng.uniform(-1, 1, size=(4, 5))
    _, base = multimodal_forward(block, {"a": xa, "b": xb})
    _, scaled = multimodal_forward(block, {"a": 2.0 * xa, "b": 3.0 * xb})
    dev = _rel_dev(scaled.taps[0][-1], 4.0 * 3.0 * base.taps[0][-1])
    try:
        build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, ["aa"], seed=seed)
        return SuiteResult("multimodal", False, "trivial sequence was accepted")
    except TrivialSequenceError:
        pass
    return SuiteResult("multimodal", dev <= 1e-10, f"bidegree dev {dev:.2e}")


def suite_serialization(seed: int = 0) -> SuiteResult:
    block = build_conv_instance(16, 4, 3, Grid(4, 4), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.bin")
        save_block(block, path)
        loaded = load_block(path)
    for (la, a), (lb, b) in zip(iter_parameters(block), iter_parameters(loaded)):
        if la != lb or a.shape != b.shape or not np.array_equal(a, b):
            return SuiteResult("serialization", False, f"mismatch at {la}")
    cfg = block_config(block, seed=seed)
    if config_from_json(config_to_json(cfg)) != config_from_json(config_to_json(cfg)):
        return SuiteResult("serialization", False, "config round-trip changed")
    a = run_bench(["padre-2"], [16, 36], d_ch=8, reps=5, warmup=1, seed=3)
    b = run_bench(["padre-2"], [16, 36], d_ch=8, reps=5, warmup=1, seed=3)
    if [r.flops for r in a] != [r.flops for r in b]:
        return SuiteResult("serialization", False, "FLOP columns not reproducible")
    return SuiteResult("serialization", True, "weights bit-exact, FLOPs reproducible")


def run_all_suites(seed: int = 0) -> list[SuiteResult]:
    return [
        suite_homogeneity(seed=seed),
        suite_poly_oracle(),
        suite_gradients(),
        suite_adapters(seed=seed),
        suite_rational(seed=seed),
        suite_multimodal(seed=seed),
        suite_serialization(seed=seed),
    ]
