"""A fixed piece of numpy work that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30 % over tens of seconds, for the program and for any other code alike.
The timed loops therefore interleave short calibration samples with the ops,
and the end-to-end timings are also reported scaled to a reference host
speed: an op's time times the kernel's reference time over the median of
the calibration samples taken nearest to it.  A change to the program moves the
scaled figures as much as the raw ones, because the calibration work calls
no ``padre`` code; a change in the host's speed moves both the op and the
calibration, and cancels.

Each workload names the kernel that mirrors its regime.  ``arrays`` is
shifted-slice correlation plus a dense product on arrays larger than L2, like
the token mixers and channel maps of ``grid-infer`` and ``seq-train``.
``calls-and-arrays`` adds a Python loop of numpy calls on 8-entry arrays, the
per-call cost that dominates ``oracle-fit``; on its own that loop swings more
than the fits do, and the mix tracks them best.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel -> (8-entry calls, large-array passes, median ms of one sample on
#: the reference host: 2 cores of a shared x86-64 host, numpy 2.4, OpenBLAS
#: at 1 thread).  The ms are only a scale, so the scaled figures read as ms.
KERNELS = {"arrays": (0, 5, 28.5), "calls-and-arrays": (400, 4, 31.0)}
#: an op's speed factor is the median of this many samples nearest in time
WINDOW = 9

_rng = np.random.default_rng(20240715)
_SMALL = [_rng.uniform(-1.0, 1.0, (2, 4)) for _ in range(8)]
_LARGE = _rng.uniform(-1.0, 1.0, (1024, 192))
_DENSE = _rng.uniform(-1.0, 1.0, (192, 192))
_TAPS = _rng.uniform(-1.0, 1.0, 11)


def _work(small_reps: int, large_reps: int) -> float:
    acc = 0.0
    for r in range(small_reps):
        a = _SMALL[r % len(_SMALL)]
        p = np.pad(a, ((1, 1), (0, 0)))
        b = p[1:-1] * a + p[:-2]
        if np.all(np.isfinite(b)):
            acc += float(b.sum())
    for _ in range(large_reps):
        xp = np.pad(_LARGE, ((5, 5), (0, 0)))
        out = np.zeros_like(_LARGE)
        for j, t in enumerate(_TAPS):
            out += t * xp[j:j + _LARGE.shape[0]]
        acc += float((out @ _DENSE).sum())
    return acc


def sample(kernel: str) -> float:
    """Milliseconds of one sample of ``kernel``.

    A short untimed pass first refills the caches the preceding op evicted,
    so the sample gauges the host rather than the op that ran before it.
    """
    _work(20, 1)
    t0 = time.perf_counter()
    _work(*KERNELS[kernel][:2])
    return (time.perf_counter() - t0) * 1e3


def speed_factors(kernel: str, op_at: list[float], cal_at: list[float],
                  cal_ms: list[float]) -> np.ndarray:
    """Per op, the reference ms of ``kernel`` over the median of the
    ``WINDOW`` samples nearest to it in time (``cal_at`` ascending)."""
    reference_ms = KERNELS[kernel][2]
    cal_at, cal_ms = np.asarray(cal_at), np.asarray(cal_ms)
    w = min(WINDOW, len(cal_ms))
    out = np.empty(len(op_at))
    for i, t in enumerate(op_at):
        lo = int(np.searchsorted(cal_at, t)) - w // 2
        lo = max(0, min(lo, len(cal_ms) - w))
        out[i] = reference_ms / float(np.median(cal_ms[lo:lo + w]))
    return out
