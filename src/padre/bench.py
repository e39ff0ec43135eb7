"""Scaling benchmarks: analytic MAC counts plus wall-time measurements.

FLOP columns are closed-form MAC counts of each scheme's setup (1 MAC = 2
FLOPs), so they are exact and identical run to run, and counting runs
nothing; wall time is measured single-threaded with a monotonic clock and
reported as median/p10/p90 over repetitions.  The attention reference times
the quadratic core (token-token logits, softmax, value aggregation) plus one
output projection, i.e. 2 N^2 D + N D^2 MACs; the polynomial schemes time
the full block, whose ``count_forward`` is O(N D d).

Timing is single-threaded only when the BLAS thread variables
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ...) are 1 before numpy is
imported; ``padre.cli`` sets them first, so ``padre bench`` times one thread.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .adapters import (
    CastlingParams,
    Conv2FormerParams,
    SimaParams,
    castling_forward,
    conv2former_forward,
    sima_forward,
)
from .block import Grid, Seq1d, _uniform, build_conv_instance, count_forward, forward
from .tensor import FlopLedger, LayoutError, Mixer, Side

DEFAULT_N_LIST = [256, 1024, 2304, 4096]
DEFAULT_CHANNELS = 192
PADRE_SCHEMES = ("padre-2", "padre-3", "padre-4")
ALL_SCHEMES = PADRE_SCHEMES + ("softmax-attn", "sima", "castling", "conv2former")

RECORD_COLUMNS = ["scheme", "N", "D", "d", "flops", "median_s", "p10_s", "p90_s",
                  "reps", "seed"]
FIT_COLUMNS = ["scheme", "points", "flop_exponent", "time_exponent",
               "flop_residual", "time_residual"]
#: distinct N values a scheme needs for a scaling fit
MIN_FIT_POINTS = 4


class UnknownSchemeError(ValueError):
    pass


@dataclass
class BenchRecord:
    scheme: str
    n_tokens: int
    n_channels: int
    degree: int
    flops: int
    median_s: float
    p10_s: float
    p90_s: float
    reps: int
    seed: int


@dataclass
class ScalingFit:
    scheme: str
    points: int
    flop_exponent: float
    time_exponent: float
    flop_residual: float
    time_residual: float


def _layout_for(n: int):
    r = math.isqrt(n)
    return Grid(r, r) if r * r == n else Seq1d()


def _input_for(n: int, d_ch: int, seed: int, scheme: str) -> np.ndarray:
    rng = np.random.default_rng([seed, n, sum(scheme.encode())])
    return rng.uniform(-1.0, 1.0, size=(n, d_ch))


def _setup_padre(degree: int, n: int, d_ch: int, seed: int):
    block = build_conv_instance(n, d_ch, degree, _layout_for(n), seed=seed)
    x = _input_for(n, d_ch, seed, f"padre-{degree}")
    return (lambda: forward(block, x)), count_forward(block, x.shape, FlopLedger()).flops, degree


def _setup_softmax_attn(n: int, d_ch: int, seed: int):
    rng = np.random.default_rng([seed, n, 1])
    w_out = _uniform(rng, (d_ch, d_ch), d_ch)
    x = _input_for(n, d_ch, seed, "softmax-attn") / math.sqrt(d_ch)
    scale = 1.0 / math.sqrt(d_ch)

    def run():
        logits = (x @ x.T) * scale
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True) @ x) @ w_out

    macs = 2 * n * n * d_ch + n * d_ch * d_ch
    return run, 2 * macs, 0


def _setup_sima(n: int, d_ch: int, seed: int):
    rng = np.random.default_rng([seed, n, 2])
    p = SimaParams(*(_uniform(rng, (d_ch, d_ch), d_ch) for _ in range(3)))
    x = _input_for(n, d_ch, seed, "sima")
    # three projections, K^T V and Q (K^T V), and two column normalizations
    return (lambda: sima_forward(p, x)), 2 * (5 * n * d_ch * d_ch + 2 * n * d_ch), 3


def _setup_castling(n: int, d_ch: int, seed: int):
    rng = np.random.default_rng([seed, n, 3])
    layout = _layout_for(n)
    if isinstance(layout, Grid):
        dw = Mixer.conv2d(Side.TOKEN, _uniform(rng, (3, 3), 9), layout.h, layout.w)
    else:
        dw = Mixer.conv1d(Side.TOKEN, _uniform(rng, (3,), 3), n)
    p = CastlingParams(*(_uniform(rng, (d_ch, d_ch), d_ch) for _ in range(3)), dw=dw)
    x = _input_for(n, d_ch, seed, "castling")
    # SimA's products without its normalizations, the depthwise map, and a two-term combine
    macs = 5 * n * d_ch * d_ch + dw.macs_per_vector() * d_ch + 2 * n * d_ch
    return (lambda: castling_forward(p, x)), 2 * macs, 3


def _setup_conv2former(n: int, d_ch: int, seed: int):
    layout = _layout_for(n)
    rng = np.random.default_rng([seed, n, 4])
    kh, kw = min(11, layout.h), min(11, layout.w)
    p = Conv2FormerParams(
        w1=_uniform(rng, (d_ch, d_ch), d_ch), w2=_uniform(rng, (d_ch, d_ch), d_ch),
        kernel=_uniform(rng, (kh, kw), kh * kw), grid_h=layout.h, grid_w=layout.w,
    )
    x = _input_for(n, d_ch, seed, "conv2former")
    # two projections, the depthwise convolution without its padding taps, one product
    conv = Mixer.conv2d(Side.TOKEN, p.kernel, layout.h, layout.w)
    macs = 2 * n * d_ch * d_ch + conv.macs_per_vector() * d_ch + n * d_ch
    return (lambda: conv2former_forward(p, x)), 2 * macs, 2


_SETUPS = {"padre-2": functools.partial(_setup_padre, 2),
           "padre-3": functools.partial(_setup_padre, 3),
           "padre-4": functools.partial(_setup_padre, 4),
           "softmax-attn": _setup_softmax_attn, "sima": _setup_sima,
           "castling": _setup_castling, "conv2former": _setup_conv2former}


def check_scheme(scheme: str, n: int) -> None:
    """Raise what ``setup_scheme`` would for this pair, without building anything."""
    if scheme not in _SETUPS:
        raise UnknownSchemeError(f"unknown scheme {scheme!r}; "
                                 f"choose from {', '.join(ALL_SCHEMES)}")
    if scheme == "conv2former" and not isinstance(_layout_for(n), Grid):
        raise LayoutError(f"conv2former needs a square token count, got N={n}")


def setup_scheme(scheme: str, n: int, d_ch: int, seed: int):
    """Build a runnable closure for one of ``ALL_SCHEMES``; returns (run, flops, degree)."""
    check_scheme(scheme, n)
    return _SETUPS[scheme](n, d_ch, seed)


def run_bench(schemes: list[str], n_list: list[int] | None = None,
              d_ch: int = DEFAULT_CHANNELS, reps: int = 20, warmup: int = 3,
              seed: int = 0) -> list[BenchRecord]:
    """Time every (scheme, N) pair; FLOPs come from each setup's closed form.

    Every pair is checked (``check_scheme``) before the first is timed.
    """
    if reps < 5:
        raise ValueError(f"need at least 5 repetitions, got {reps}")
    n_list = list(n_list) if n_list else list(DEFAULT_N_LIST)
    for scheme in schemes:
        for n in n_list:
            check_scheme(scheme, n)
    records = []
    for scheme in schemes:
        for n in n_list:
            run, flops, sch_degree = setup_scheme(scheme, n, d_ch, seed)
            for _ in range(warmup):
                run()
            times = np.empty(reps)
            for r in range(reps):
                t0 = time.perf_counter()
                run()
                times[r] = time.perf_counter() - t0
            p10, med, p90 = np.percentile(times, [10, 50, 90])
            if med < 1e-6:
                warnings.warn(f"{scheme} at N={n}: median {med:.2e}s is below "
                              "timer resolution confidence")
            records.append(BenchRecord(
                scheme=scheme, n_tokens=n, n_channels=d_ch, degree=sch_degree,
                flops=flops, median_s=float(med), p10_s=float(p10),
                p90_s=float(p90), reps=reps, seed=seed,
            ))
    records.sort(key=lambda r: (r.scheme, r.n_tokens))
    return records


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    lx, ly = np.log(xs), np.log(np.maximum(ys, 1e-300))
    a = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - ly) ** 2)))
    return float(coef[0]), resid


def fit_scaling(records: list[BenchRecord]) -> list[ScalingFit]:
    """Least-squares log-log exponents of FLOPs and median time against N."""
    fits = []
    for scheme in sorted({r.scheme for r in records}):
        rs = sorted((r for r in records if r.scheme == scheme), key=lambda r: r.n_tokens)
        ns = np.array([r.n_tokens for r in rs], dtype=float)
        if np.unique(ns).size < MIN_FIT_POINTS:
            raise ValueError(f"scheme {scheme!r} needs >= {MIN_FIT_POINTS} distinct N values, "
                             f"got {np.unique(ns).size}")
        f_exp, f_res = _loglog_slope(ns, np.array([r.flops for r in rs], dtype=float))
        t_exp, t_res = _loglog_slope(ns, np.array([r.median_s for r in rs]))
        fits.append(ScalingFit(scheme=scheme, points=len(rs), flop_exponent=f_exp,
                               time_exponent=t_exp, flop_residual=f_res,
                               time_residual=t_res))
    return fits


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def emit_csv(items: list[BenchRecord] | list[ScalingFit], path: str) -> None:
    """Header plus one line per item, full double precision, stable order."""
    if items and isinstance(items[0], ScalingFit):
        header, rows = FIT_COLUMNS, [
            [f.scheme, str(f.points), repr(f.flop_exponent), repr(f.time_exponent),
             repr(f.flop_residual), repr(f.time_residual)]
            for f in sorted(items, key=lambda f: f.scheme)
        ]
    else:
        header, rows = RECORD_COLUMNS, [
            [r.scheme, str(r.n_tokens), str(r.n_channels), str(r.degree), str(r.flops),
             repr(r.median_s), repr(r.p10_s), repr(r.p90_s), str(r.reps), str(r.seed)]
            for r in sorted(items, key=lambda r: (r.scheme, r.n_tokens))
        ]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")
