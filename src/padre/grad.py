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
    _require_finite,
    combine_weight,
    forward,
    iter_parameters,
)
from .tensor import (
    Mixer,
    MixerKind,
    ShapeError,
    Side,
    apply_mixer,  # noqa: F401 -- no caller here; perfbench's stage tracer rebinds grad.apply_mixer
    apply_mixer_transpose,
    conv_kernel_grad,
)


@dataclass
class GradBundle:
    """Vector-Jacobian products: ``d_x`` and one gradient per parameter label of
    the block (``iter_parameters`` or ``iter_rational_parameters``), each shaped
    like its primal."""

    d_x: np.ndarray
    grads: dict[str, np.ndarray]

    def by_label(self) -> dict[str, np.ndarray]:
        return self.grads


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


def _pair_backward(t: Mixer, m: Mixer, u: np.ndarray, grads: list, i: int,
                   out: dict, tags: tuple[str, str]) -> np.ndarray:
    """``dL/du`` of one mixer pair ``F(u) = T u M``, from ``g = grads[i]``; dT
    and dM go into ``out`` under T's and M's labels ``tags``.

    dM comes from ``(u, T^T g)``, and dT and ``dL/du = T^T h`` from
    ``h = g M^T``: no ``u M`` is recomputed, as ``<g, T_p u M> = <g M^T, T_p u>``
    for any T linear in its parameters p.  ``g`` is taken out of ``grads`` and
    every buffer is freed at its last use, so at most two of x's size are live
    besides u.
    """
    g, grads[i] = grads[i], None
    w = apply_mixer_transpose(t, g)
    d_m = mixer_param_grad(m, u, w)
    del w
    h = apply_mixer_transpose(m, g)
    del g
    for tag, parts in zip(tags, (mixer_param_grad(t, u, h), d_m)):
        out.update((f"{tag}.{pname}", arr) for pname, arr in parts.items())
    return apply_mixer_transpose(t, h)


def _upstream(upstream, output: np.ndarray) -> np.ndarray:
    """``upstream`` as float64, shaped like ``output`` and finite, or an error."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != output.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != output {output.shape}")
    _require_finite(upstream, "upstream")
    return upstream


def _own(a: np.ndarray) -> np.ndarray | None:
    """``a`` as the ``out=`` buffer of a float64 result, or None where writing
    into it would cast (a float32 input through identity mixers keeps float32)."""
    return a if a.dtype == np.float64 else None


def backward(block: PadreBlock, trace: PadreTrace, upstream: np.ndarray) -> GradBundle:
    """Vector-Jacobian products of the block output against x and all parameters:
    a ``GradBundle`` whose labels are exactly those of ``iter_parameters(block)``.

    Only an unbatched trace (a 2-D ``x``) is supported; a batched one, or an
    upstream not shaped like the output, raises ShapeError.  The upstream is
    cast to float64 first; a non-finite one raises ``NumericError`` at stage
    ``"upstream"``, with no numpy warning before it.  The feature bank's
    ``A_i X B_i`` and each cascade stage's ``C_i Z_i D_i`` go through one
    pair backward.  The degrees are walked from the top down, so each
    ``Z_i`` is recomputed once; each gradient buffer starts at its first
    contribution and, like each recomputed tensor, is freed once used.

    A trace serves one backward: it is consumed, as autograd frees saved
    tensors.  Each ``t_i``, ``Y_i`` and raw ``Y_i`` leaves ``trace.t``,
    ``trace.y`` and ``trace.y_raw`` at its last use, and ``t_{i-1}``'s
    buffer takes ``dL/dY_i``; the lists end empty, so ``trace.z`` is ``[]``.
    A trace without exactly ``d`` features and ``d - 1`` mixed terms, such as
    one already consumed, raises ShapeError before any arithmetic.
    """
    d = block.degree
    if trace.x.ndim != 2:
        raise ShapeError(f"backward needs an unbatched trace, got input shape {trace.x.shape}")
    if len(trace.y) != d or len(trace.y_raw) != d or len(trace.t) != d - 1:
        raise ShapeError(f"a degree-{d} backward needs {d} features and {d - 1} mixed terms, "
                         f"the trace holds {len(trace.y)} and {len(trace.t)}"
                         + ("" if trace.y else ": a trace serves one backward, and this one "
                            "was consumed"))
    upstream = _upstream(upstream, trace.output)
    grads: dict[str, np.ndarray] = {}

    if block.resize_left is not None:
        pv = trace.pre_resize @ block.resize_right
        grads["U"] = upstream @ pv.T
        grads["V"] = (block.resize_left @ trace.pre_resize).T @ upstream
        g_p = block.resize_left.T @ upstream @ block.resize_right.T
    else:
        g_p = upstream

    if block.bias is not None:
        grads["L"] = g_p.copy()
    grads["W"] = d_w = np.zeros_like(block.weights)
    d_z: list[np.ndarray | None] = [None] * d      # dL/dZ_i
    d_y: list[np.ndarray | None] = [None] * d
    z = trace.z_at(d) if d in block.degree_mask else None
    for i in range(d, 0, -1):
        if i in block.degree_mask:
            prod = np.multiply(g_p, z, out=_own(z) if i > 1 else None)   # a recomputed Z_i is ours
            del z
            if block.w_mode == WMode.FULL:
                d_w[:, :, i - 1] = prod
            elif block.w_mode == WMode.CHANNEL_BROADCAST:
                d_w[:, i - 1] = prod.sum(axis=0)
            else:
                d_w[i - 1] = prod.sum()
            prod = np.multiply(g_p, combine_weight(block, i), out=prod)
            d_z[i - 1] = prod if d_z[i - 1] is None else np.add(d_z[i - 1], prod, out=d_z[i - 1])
            del prod
        else:
            del z
        if i == 1:
            break
        # the stage Z_i = t_{i-1} * Y_i, where t_{i-1} = C_{i-1} Z_{i-1} D_{i-1};
        # both leave the trace here, t_{i-1}'s buffer taking dL/dY_i
        if d_z[i - 1] is None:                     # degree i and all above masked out
            d_z[i - 1] = np.zeros_like(g_p)
        t = trace.t.pop()
        d_y[i - 1] = np.multiply(d_z[i - 1], t, out=_own(t))
        del t
        d_z[i - 1] *= trace.y.pop()
        z = trace.z_at(i - 1)
        d_z[i - 2] = _pair_backward(block.inter_token[i - 2], block.inter_channel[i - 2],
                                    z, d_z, i - 1, grads, (f"C{i - 1}", f"D{i - 1}"))
    trace.y.pop()                                  # Y_1, the last cascade read
    d_y[0], d_z[0] = d_z[0], None

    d_x = None                             # the feature bank Y_i = A_i X B_i
    for i, (a, b) in enumerate(zip(block.token_mixers, block.channel_mixers)):
        if block.normalize_y:
            d_y[i] = _rms_backward(trace.y_raw.pop(0), d_y[i])
        g = _pair_backward(a, b, trace.x, d_y, i, grads, (f"A{i + 1}", f"B{i + 1}"))
        d_x = g if d_x is None else np.add(d_x, g, out=d_x)
        del g
    return GradBundle(d_x=d_x, grads=grads)


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
    """Check ``vjp_fn(block, trace, upstream)``, a backward that returns a
    ``GradBundle`` labelled like ``params_fn(block)``, against central
    differences of ``forward_fn``.

    The probed scalars are drawn uniformly from ``params_fn(block)`` and x,
    each perturbed in place on a copy of the block and restored.
    """
    rng = np.random.default_rng(seed)
    work = copy.deepcopy(block)
    xw = np.array(x, dtype=np.float64, copy=True)
    out, trace = forward_fn(work, xw)
    # a small upstream: the check is scale-equivariant, and a small loss keeps
    # difference noise on near-cancelled gradients inside the absolute floor
    g_up = rng.uniform(-1.0, 1.0, size=out.shape) * (0.01 / out.size)
    bundle = vjp_fn(work, trace, g_up)
    targets = [(arr, bundle.by_label()[label]) for label, arr in params_fn(work)]
    targets.append((xw, bundle.d_x))
    base = out.copy()

    # centered loss: subtracting the base output cancels the large constant
    # term whose rounding would otherwise dominate the difference quotient;
    # a step past the float range fails, and numpy's warnings would repeat it
    def loss_fn() -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(g_up * (forward_fn(work, xw)[0] - base)))

    rng = np.random.default_rng(seed + 1)
    cum = np.cumsum([arr.size for arr, _ in targets])
    max_rel, failures = 0.0, 0
    for _ in range(probes):
        flat = int(rng.integers(cum[-1]))
        t = int(np.searchsorted(cum, flat, side="right"))
        idx = flat - (cum[t - 1] if t else 0)
        arr, analytic = targets[t]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + step
        hi = loss_fn()
        arr.flat[idx] = orig - step
        lo = loss_fn()
        arr.flat[idx] = orig
        fd = (hi - lo) / (2 * step)
        an = analytic.flat[idx]
        rel = abs(fd - an) / max(1e-8, abs(fd) + abs(an))
        max_rel = max(max_rel, rel)
        failures += rel >= GRAD_TOL
    return GradReport(max_rel_err=max_rel, failures=failures, probes=probes)


def gradcheck(block: PadreBlock, x: np.ndarray, probes: int = 200, step: float = 1e-4,
              seed: int = 0) -> GradReport:
    """Compare ``backward`` against central differences on random scalars."""
    return vjp_gradcheck(forward, backward, iter_parameters, block, x, probes, step, seed)
