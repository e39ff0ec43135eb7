"""Reverse-mode gradients for the polynomial block, checked by differences.

Gradients are derived stage by stage (mixer transpose-application, the
Hadamard product rule, combine fan-out) so the cost stays O(N * D * d) with
structured mixers and the package needs no autodiff dependency.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .block import (
    PadreBlock,
    PadreTrace,
    RMS_EPS,
    WMode,
    combine_weight,
    forward,
    iter_parameters,
)
from .tensor import (
    Mixer,
    MixerKind,
    ShapeError,
    Side,
    apply_mixer,
    apply_mixer_transpose,
    conv_kernel_grad,
)


@dataclass
class GradBundle:
    """Vector-Jacobian products; each entry mirrors its primal's shape."""

    d_x: np.ndarray
    mixers: dict[str, dict[str, np.ndarray]]
    d_w: np.ndarray
    d_l: np.ndarray | None = None
    d_u: np.ndarray | None = None
    d_v: np.ndarray | None = None

    def by_label(self) -> dict[str, np.ndarray]:
        out = {}
        for name, parts in self.mixers.items():
            for pname, arr in parts.items():
                out[f"{name}.{pname}"] = arr
        out["W"] = self.d_w
        if self.d_l is not None:
            out["L"] = self.d_l
        if self.d_u is not None:
            out["U"] = self.d_u
            out["V"] = self.d_v
        return out


def mixer_param_grad(m: Mixer, x_in: np.ndarray, g_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of sum(g_out * apply(m, x_in)) w.r.t. the mixer parameters."""
    k, token = m.kind, m.side == Side.TOKEN
    if k == MixerKind.IDENTITY:
        return {}
    if k == MixerKind.DENSE:
        return {"mat": g_out @ x_in.T if token else x_in.T @ g_out}
    if k == MixerKind.DIAGONAL:
        return {"diag": (g_out * x_in).sum(axis=1 if token else 0)}
    if k == MixerKind.LOW_RANK:
        if token:
            rx = m.right @ x_in
            return {"left": g_out @ rx.T, "right": (m.left.T @ g_out) @ x_in.T}
        xl = x_in @ m.left
        return {"left": x_in.T @ (g_out @ m.right.T), "right": xl.T @ g_out}
    return {"kernel": conv_kernel_grad(m, x_in, g_out)}


def _rms_backward(m_pre: np.ndarray, g: np.ndarray) -> np.ndarray:
    dch = m_pre.shape[1]
    s = np.sqrt(np.mean(m_pre * m_pre, axis=1, keepdims=True) + RMS_EPS)
    dot = np.sum(g * m_pre, axis=1, keepdims=True)
    return g / s - m_pre * dot / (dch * s ** 3)


def backward(block: PadreBlock, trace: PadreTrace, upstream: np.ndarray) -> GradBundle:
    """Vector-Jacobian products of the block output against x and all parameters.

    Only an unbatched trace (a 2-D ``x``) is supported; a batched one raises
    ShapeError.  Each gradient buffer starts at its first contribution and,
    like each recomputed intermediate, is freed once used: the peak above the
    trace stays near ``d + 5`` copies of ``x``.
    """
    d = block.degree
    if trace.x.ndim != 2:
        raise ShapeError(f"backward needs an unbatched trace, got input shape {trace.x.shape}")
    if upstream.shape != trace.output.shape:
        raise ValueError(f"upstream shape {upstream.shape} != output {trace.output.shape}")
    mixer_grads: dict[str, dict[str, np.ndarray]] = {}

    d_u = d_v = None
    if block.resize_left is not None:
        pv = trace.pre_resize @ block.resize_right
        d_u = upstream @ pv.T
        d_v = (block.resize_left @ trace.pre_resize).T @ upstream
        g_p = block.resize_left.T @ upstream @ block.resize_right.T
    else:
        g_p = upstream

    d_l = g_p.copy() if block.bias is not None else None
    d_w = np.zeros_like(block.weights)
    d_z: list[np.ndarray | None] = [None] * d
    for i in block.degree_mask:
        prod = g_p * trace.z[i - 1]
        if block.w_mode == WMode.FULL:
            d_w[:, :, i - 1] = prod
        elif block.w_mode == WMode.CHANNEL_BROADCAST:
            d_w[:, i - 1] = prod.sum(axis=0)
        else:
            d_w[i - 1] = prod.sum()
        d_z[i - 1] = np.multiply(g_p, combine_weight(block, i), out=prod)
    del prod

    d_y: list[np.ndarray | None] = [None] * d
    for i in range(d - 1, 0, -1):          # stage producing Z_{i+1} (index i)
        g, d_z[i] = d_z[i], None           # rebinding g frees each buffer once used
        g = np.zeros_like(g_p) if g is None else g     # degree i + 1 may be masked out
        zd = apply_mixer(block.inter_channel[i - 1], trace.z[i - 1])
        d_y[i] = apply_mixer(block.inter_token[i - 1], zd)
        d_y[i] *= g
        g *= trace.y[i]
        mixer_grads[f"C{i}"] = mixer_param_grad(block.inter_token[i - 1], zd, g)
        del zd
        g = apply_mixer_transpose(block.inter_token[i - 1], g)
        mixer_grads[f"D{i}"] = mixer_param_grad(block.inter_channel[i - 1], trace.z[i - 1], g)
        g = apply_mixer_transpose(block.inter_channel[i - 1], g)
        d_z[i - 1] = g if d_z[i - 1] is None else np.add(d_z[i - 1], g, out=d_z[i - 1])
    d_y[0], d_z[0] = d_z[0], None

    d_x = None                             # the feature bank Y_i = A_i X B_i
    for i, (a, b) in enumerate(zip(block.token_mixers, block.channel_mixers)):
        g, d_y[i] = d_y[i], None
        if block.normalize_y:
            g = _rms_backward(trace.y_raw[i], g)
        mixer_grads[f"A{i + 1}"] = mixer_param_grad(a, apply_mixer(b, trace.x), g)
        g = apply_mixer_transpose(a, g)
        mixer_grads[f"B{i + 1}"] = mixer_param_grad(b, trace.x, g)
        g = apply_mixer_transpose(b, g)
        d_x = g if d_x is None else np.add(d_x, g, out=d_x)
    return GradBundle(d_x=d_x, mixers=mixer_grads, d_w=d_w, d_l=d_l, d_u=d_u, d_v=d_v)


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------

#: a probe fails when its relative error against central differences reaches this
GRAD_TOL = 1e-5


@dataclass
class GradReport:
    max_rel_err: float
    failures: int
    probes: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def vjp_gradcheck(forward_fn, vjp_fn, params_fn, block, x: np.ndarray, probes: int,
                  step: float, seed: int) -> GradReport:
    """Check ``vjp_fn(block, trace, upstream)``, a label -> gradient dict that
    includes "x", against central differences of ``forward_fn``.

    The probed scalars are drawn uniformly from ``params_fn(block)`` and x,
    each perturbed in place on a copy of the block and restored.
    """
    rng = np.random.default_rng(seed)
    work = copy.deepcopy(block)
    xw = np.array(x, dtype=np.float64, copy=True)
    out, trace = forward_fn(work, xw)
    g_up = upstream_probe(rng, out.shape)
    analytic = vjp_fn(work, trace, g_up)
    targets = params_fn(work) + [("x", xw)]
    base = out.copy()

    # centered loss: subtracting the base output cancels the large constant
    # term whose rounding would otherwise dominate the difference quotient;
    # a step past the float range fails, and numpy's warnings would repeat it
    def loss_fn() -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(g_up * (forward_fn(work, xw)[0] - base)))

    rng = np.random.default_rng(seed + 1)
    sizes = np.array([arr.size for _, arr in targets])
    cum = np.cumsum(sizes)
    total = int(cum[-1])
    max_rel, failures = 0.0, 0
    for _ in range(probes):
        flat = int(rng.integers(total))
        t = int(np.searchsorted(cum, flat, side="right"))
        idx = flat - (cum[t - 1] if t else 0)
        label, arr = targets[t]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + step
        hi = loss_fn()
        arr.flat[idx] = orig - step
        lo = loss_fn()
        arr.flat[idx] = orig
        fd = (hi - lo) / (2 * step)
        an = analytic[label].flat[idx]
        rel = abs(fd - an) / max(1e-8, abs(fd) + abs(an))
        max_rel = max(max_rel, rel)
        failures += rel >= GRAD_TOL
    return GradReport(max_rel_err=max_rel, failures=failures, probes=probes)


def upstream_probe(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Small-magnitude upstream for finite-difference probing.

    The VJP check is scale-equivariant, and a small loss keeps difference
    noise on near-cancelled gradients inside the absolute floor of the
    relative-error metric.
    """
    size = int(np.prod(shape))
    return rng.uniform(-1.0, 1.0, size=shape) * (0.01 / size)


def gradcheck(block: PadreBlock, x: np.ndarray, probes: int = 200, step: float = 1e-4,
              seed: int = 0) -> GradReport:
    """Compare ``backward`` against central differences on random scalars."""
    def vjp(work: PadreBlock, trace: PadreTrace, g_up: np.ndarray) -> dict:
        bundle = backward(work, trace, g_up)
        return {**bundle.by_label(), "x": bundle.d_x}

    return vjp_gradcheck(forward, vjp, iter_parameters, block, x, probes, step, seed)
