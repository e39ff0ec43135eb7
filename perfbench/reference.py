"""Plain-numpy references for the convolution instances the benchmark times.

Nothing here calls ``padre``: the references read the loaded block's parameter
arrays and recompute the forward pass with sliding-window einsums, a different
algorithm from the program's shift-and-add correlation, so a defect in
``padre.tensor`` or ``padre.block`` cannot cancel out of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: forward outputs must match to max|got - ref| <= FORWARD_RTOL * max|ref|
FORWARD_RTOL = 1e-10


@dataclass
class ConvSpec:
    """The trainable arrays of a ``build_conv_instance`` block, keyed like
    ``GradBundle.by_label()``, plus its degree mask and token grid."""

    params: dict[str, np.ndarray]
    degree: int
    mask: tuple[int, ...]
    grid: tuple[int, int] | None

    def perturbed(self, direction: dict[str, np.ndarray], t: float) -> "ConvSpec":
        params = {k: v + t * direction[k] for k, v in self.params.items()}
        return ConvSpec(params, self.degree, self.mask, self.grid)


def conv_spec(block) -> ConvSpec:
    """Copy the parameters of a conv/dense instance; reject any other block."""
    d = block.degree
    if (block.bias is not None or block.resize_left is not None or block.normalize_y
            or block.weights.shape != (block.n_channels, d)):
        raise ValueError("reference covers channel-broadcast conv instances only")
    params: dict[str, np.ndarray] = {}
    groups = (("A", block.token_mixers, "kernel"), ("B", block.channel_mixers, "matrix"),
              ("C", block.inter_token, "kernel"), ("D", block.inter_channel, "matrix"))
    for label, mixers, attr in groups:
        for i, m in enumerate(mixers):
            arr = getattr(m, attr)
            if arr is None or m.padding != 0:
                raise ValueError(f"{label}{i + 1}: reference needs zero-padded conv/dense")
            params[f"{label}{i + 1}.{'kernel' if attr == 'kernel' else 'mat'}"] = arr.copy()
    params["W"] = block.weights.copy()
    layout = block.layout
    grid = (layout.h, layout.w) if hasattr(layout, "h") else None
    return ConvSpec(params, d, tuple(sorted(block.degree_mask)), grid)


def correlate_tokens(x: np.ndarray, kernel: np.ndarray,
                     grid: tuple[int, int] | None) -> np.ndarray:
    """Same-size zero-padded correlation over the token axis (or token grid).

    out[i] = sum_j kernel[j] * x[i + j - k // 2], per axis.
    """
    if grid is None:
        k = kernel.shape[0]
        xp = np.pad(x, ((k // 2, k - 1 - k // 2), (0, 0)))
        return np.einsum("ndk,k->nd", sliding_window_view(xp, k, axis=0), kernel)
    h, w = grid
    kh, kw = kernel.shape
    xg = x.reshape(h, w, x.shape[1])
    xp = np.pad(xg, ((kh // 2, kh - 1 - kh // 2), (kw // 2, kw - 1 - kw // 2), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))
    return np.einsum("hwdij,ij->hwd", win, kernel).reshape(x.shape)


def forward(spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """P = sum_{i in mask} W[:, i] * Z_i, with Y_i = A_i (X B_i), Z_1 = Y_1
    and Z_{i+1} = (C_i (Z_i D_i)) * Y_{i+1}."""
    p, g = spec.params, spec.grid
    y = [correlate_tokens(x @ p[f"B{i}.mat"], p[f"A{i}.kernel"], g)
         for i in range(1, spec.degree + 1)]
    z = [y[0]]
    for i in range(1, spec.degree):
        z.append(correlate_tokens(z[-1] @ p[f"D{i}.mat"], p[f"C{i}.kernel"], g) * y[i])
    out = np.zeros_like(x)
    for i in spec.mask:
        out += p["W"][None, :, i - 1] * z[i - 1]
    return out


def five_point(f, h: float) -> float:
    """Central derivative of f at 0; exact for polynomials of degree <= 4."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def forward_close(got: np.ndarray, ref: np.ndarray, rtol: float = FORWARD_RTOL) -> bool:
    if got.shape != ref.shape or not np.isfinite(got).all():
        return False
    return float(np.max(np.abs(got - ref))) <= rtol * float(np.max(np.abs(ref)))


def scalar_close(got: float, ref: float, rtol: float) -> bool:
    return bool(np.isfinite(got)) and abs(got - ref) <= rtol * max(abs(ref), 1e-300)
