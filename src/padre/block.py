"""The degree-d polynomial mixing block: forward pass, builders, and I/O.

The block maps an N x D input X to an output of the same shape (optionally
resized) through three stages:

1. per-degree linear features  Y_i = A_i X B_i  (token mixer A_i, channel
   mixer B_i), optionally RMS-normalized per row;
2. a Hadamard cascade  Z_1 = Y_1,  Z_{i+1} = (C_i Z_i D_i) * Y_{i+1},
   which makes every entry of Z_i a homogeneous degree-i polynomial of
   the input entries;
3. a weighted combine  P = sum_{i in mask} W_i * Z_i + L  and an optional
   resize O = U P V.

All mixers are structured operators, so the whole forward pass costs
O(N * D * d) MACs.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .tensor import (
    FlopLedger,
    LayoutError,
    Mixer,
    MixerKind,
    NumericError,
    PadMode,
    Record,
    ShapeError,
    Side,
    SizeCapError,
    apply_mixer,
    hadamard,
    pack_records,
    read_records,
    unpack_records,
    write_records,
)

DEFAULT_KERNEL = 11
RMS_EPS = 1e-6


class WMode(enum.IntEnum):
    """Shape of the combine weights W.

    FULL keeps one weight per (token, channel, degree); CHANNEL_BROADCAST
    shares weights across tokens (D x d), which is what a drop-in layer with
    variable-length inputs needs; SCALAR_PER_DEGREE keeps d scalars.
    """

    FULL = 0
    CHANNEL_BROADCAST = 1
    SCALAR_PER_DEGREE = 2


def weight_shape(w_mode: WMode, n: int, dc: int, d: int) -> tuple[int, ...]:
    """The shape of the combine weights W of an N x D degree-d block."""
    return {WMode.FULL: (n, dc, d), WMode.CHANNEL_BROADCAST: (dc, d),
            WMode.SCALAR_PER_DEGREE: (d,)}[w_mode]


@dataclass(frozen=True)
class Seq1d:
    """Tokens form a plain sequence; token convolutions are 1-D."""


@dataclass(frozen=True)
class Grid:
    """Tokens are a row-major H x W raster; token convolutions are 2-D."""

    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise LayoutError(f"grid extents must be positive, got {self.h}x{self.w}")


Layout = Seq1d | Grid


@dataclass(eq=False)
class PadreBlock:
    degree: int
    n_tokens: int
    n_channels: int
    token_mixers: list[Mixer]          # A_1..A_d
    channel_mixers: list[Mixer]        # B_1..B_d
    inter_token: list[Mixer]           # C_1..C_{d-1}
    inter_channel: list[Mixer]         # D_1..D_{d-1}
    w_mode: WMode
    weights: np.ndarray
    degree_mask: frozenset[int]
    bias: np.ndarray | None = None
    resize_left: np.ndarray | None = None    # U, F x N
    resize_right: np.ndarray | None = None   # V, D x G
    normalize_y: bool = False
    layout: Layout = Seq1d()

    def __post_init__(self):
        d, n, dc = self.degree, self.n_tokens, self.n_channels
        if d < 1:
            raise ShapeError(f"degree must be >= 1, got {d}")
        if isinstance(self.layout, Grid) and self.layout.h * self.layout.w != n:
            raise LayoutError(f"grid {self.layout.h}x{self.layout.w} does not cover N={n}")
        if len(self.token_mixers) != d or len(self.channel_mixers) != d:
            raise ShapeError("need one token and one channel mixer per degree")
        if len(self.inter_token) != d - 1 or len(self.inter_channel) != d - 1:
            raise ShapeError("need d-1 inter-degree mixer pairs")
        for m in self.token_mixers + self.inter_token:
            if m.side != Side.TOKEN or m.dim != n:
                raise ShapeError("token mixers must act on the token side with dim N")
        for m in self.channel_mixers + self.inter_channel:
            if m.side != Side.CHANNEL or m.dim != dc:
                raise ShapeError("channel mixers must act on the channel side with dim D")
        expected = weight_shape(self.w_mode, n, dc, d)
        if self.weights.shape != expected:
            raise ShapeError(f"weights shape {self.weights.shape} != {expected} for {self.w_mode.name}")
        if not self.degree_mask or not self.degree_mask <= set(range(1, d + 1)):
            raise ShapeError(f"degree mask {sorted(self.degree_mask)} not a nonempty subset of 1..{d}")
        if self.bias is not None and self.bias.shape != (n, dc):
            raise ShapeError("bias must be N x D")
        if (self.resize_left is None) != (self.resize_right is None):
            raise ShapeError("resize operators must be given together")
        if self.resize_left is not None:
            if self.resize_left.shape[1] != n or self.resize_right.shape[0] != dc:
                raise ShapeError("resize operators must be F x N and D x G")
        for a in (self.weights, self.bias, self.resize_left, self.resize_right):
            if a is not None and not np.isfinite(a).all():
                raise NumericError("block-params", "combine weights, bias and resize "
                                   "matrices must be finite")


@dataclass
class PadreTrace:
    """Intermediates retained by ``forward`` for backprop and oracle taps."""

    x: np.ndarray
    y_raw: list[np.ndarray]     # pre-normalization A_i X B_i
    y: list[np.ndarray]
    z: list[np.ndarray]
    pre_resize: np.ndarray
    output: np.ndarray


def rms_normalize_rows(y: np.ndarray) -> np.ndarray:
    """Divide each row by sqrt(mean of squares + RMS_EPS); zero rows stay zero."""
    scale = np.sqrt(np.mean(y * y, axis=-1, keepdims=True) + RMS_EPS)
    return y / scale


def _require_finite(a: np.ndarray, stage: str) -> None:
    if not np.isfinite(a).all():
        raise NumericError(stage)


def combine_weight(block: PadreBlock, i: int):
    """The broadcastable weight factor for degree i (1-based)."""
    if block.w_mode == WMode.FULL:
        return block.weights[:, :, i - 1]
    if block.w_mode == WMode.CHANNEL_BROADCAST:
        return block.weights[None, :, i - 1]
    return block.weights[i - 1]


def features(token_mixers: list[Mixer], channel_mixers: list[Mixer], x: np.ndarray,
             ledger: FlopLedger | None = None) -> list[np.ndarray]:
    """The feature bank Y_i = A_i X B_i, channel map first."""
    ys = []
    for i, (a, b) in enumerate(zip(token_mixers, channel_mixers)):
        y = apply_mixer(a, apply_mixer(b, x, ledger), ledger)
        _require_finite(y, f"Y[{i + 1}]")
        ys.append(y)
    return ys


def cascade(ys: list[np.ndarray], inter_token: list[Mixer], inter_channel: list[Mixer],
            ledger: FlopLedger | None = None) -> list[np.ndarray]:
    """The Hadamard cascade Z_1 = Y_1, Z_{i+1} = (C_i Z_i D_i) * Y_{i+1}."""
    z = ys[:1]
    for i, (c, dm) in enumerate(zip(inter_token, inter_channel)):
        t = apply_mixer(c, apply_mixer(dm, z[i], ledger), ledger)
        t = hadamard(t, ys[i + 1], ledger)
        _require_finite(t, f"Z[{i + 2}]")
        z.append(t)
    return z


def forward(block: PadreBlock, x: np.ndarray,
            ledger: FlopLedger | None = None) -> tuple[np.ndarray, PadreTrace]:
    """Run the block; returns the output and the full stage trace.

    ``x`` is ``(..., N, D)``: each sample along the leading batch axes gives
    bit for bit what it gives alone, and the ledger counts every sample.
    """
    if x.shape[-2:] != (block.n_tokens, block.n_channels):
        raise ShapeError(f"input shape {x.shape} is not (..., {block.n_tokens}, "
                         f"{block.n_channels})")
    y_raw = features(block.token_mixers, block.channel_mixers, x, ledger)
    y = [rms_normalize_rows(t) for t in y_raw] if block.normalize_y else y_raw
    z = cascade(y, block.inter_token, block.inter_channel, ledger)
    p = np.zeros_like(x)
    for i in sorted(block.degree_mask):
        p += combine_weight(block, i) * z[i - 1]
    if block.bias is not None:
        p = p + block.bias
    if ledger is not None:
        ledger.add("combine", len(block.degree_mask) * x.size)
    _require_finite(p, "P")
    out = p
    if block.resize_left is not None:
        out = block.resize_left @ p @ block.resize_right
        if ledger is not None:
            f, g = block.resize_left.shape[0], block.resize_right.shape[1]
            ledger.add("resize", f * p.size + f * (p.size // block.n_tokens) * g)
        _require_finite(out, "O")
    return out, PadreTrace(x=x, y_raw=y_raw, y=y, z=z, pre_resize=p, output=out)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    half = math.sqrt(3.0 / fan_in)
    return rng.uniform(-half, half, size=shape)


def build_conv_instance(n_tokens: int, n_channels: int, degree: int, layout: Layout,
                        seed: int = 0, w_mode: WMode = WMode.CHANNEL_BROADCAST) -> PadreBlock:
    """The concrete single-head instance used for scaling studies.

    Token mixing is a length-11 1-D convolution (sequence layout) or an
    11 x 11 2-D convolution (grid layout), clipped per axis so tiny
    instances stay valid; channel mixing is a dense D x D map.  The combine
    skips degrees 0 and 1: the surrounding network's skip connection and
    output layers supply those terms, so the mask is {2..d}.
    """
    if degree < 2:
        raise ShapeError(f"this instance needs degree >= 2 (mask 2..d), got {degree}")
    rng = np.random.default_rng(seed)

    def token_mixer() -> Mixer:
        if isinstance(layout, Grid):
            kh = min(DEFAULT_KERNEL, layout.h)
            kw = min(DEFAULT_KERNEL, layout.w)
            kern = _uniform(rng, (kh, kw), kh * kw)
            return Mixer.conv2d(Side.TOKEN, kern, layout.h, layout.w)
        k = min(DEFAULT_KERNEL, n_tokens)
        return Mixer.conv1d(Side.TOKEN, _uniform(rng, (k,), k), n_tokens)

    def channel_mixer() -> Mixer:
        return Mixer.dense(Side.CHANNEL, _uniform(rng, (n_channels, n_channels), n_channels))

    return PadreBlock(
        degree=degree, n_tokens=n_tokens, n_channels=n_channels,
        token_mixers=[token_mixer() for _ in range(degree)],
        channel_mixers=[channel_mixer() for _ in range(degree)],
        inter_token=[token_mixer() for _ in range(degree - 1)],
        inter_channel=[channel_mixer() for _ in range(degree - 1)],
        w_mode=w_mode,
        weights=_uniform(rng, weight_shape(w_mode, n_tokens, n_channels, degree), 1),
        degree_mask=frozenset(range(2, degree + 1)),
        layout=layout,
    )


#: the structured-kind menu seeded blocks draw their mixers from
MIXER_MENU = (MixerKind.DENSE, MixerKind.DIAGONAL, MixerKind.LOW_RANK,
              MixerKind.CONV1D, MixerKind.CONV2D, MixerKind.IDENTITY)


def random_mixer(rng: np.random.Generator, side: Side, dim: int) -> Mixer:
    """Draw a kind uniformly from ``MIXER_MENU``, then its seeded parameters.

    CONV2D is legal only when ``dim > 1`` is a perfect square (a square grid).
    """
    g = math.isqrt(dim)
    square = g * g == dim and dim > 1
    legal = [k for k in MIXER_MENU if k != MixerKind.CONV2D or square]
    kind = legal[int(rng.integers(len(legal)))]
    if kind == MixerKind.IDENTITY:
        return Mixer.identity(side, dim)
    if kind == MixerKind.DENSE:
        return Mixer.dense(side, _uniform(rng, (dim, dim), dim))
    if kind == MixerKind.DIAGONAL:
        return Mixer.diagonal(side, _uniform(rng, (dim,), 1))
    if kind == MixerKind.LOW_RANK:
        r = int(rng.integers(1, dim + 1))
        return Mixer.low_rank(side, _uniform(rng, (dim, r), dim), _uniform(rng, (r, dim), r))
    pad = PadMode.CIRCULAR if rng.integers(2) else PadMode.ZERO
    if kind == MixerKind.CONV1D:
        k = int(rng.integers(1, min(DEFAULT_KERNEL, dim) + 1))
        return Mixer.conv1d(side, _uniform(rng, (k,), k), dim, pad)
    kh = int(rng.integers(1, min(DEFAULT_KERNEL, g) + 1))
    kw = int(rng.integers(1, min(DEFAULT_KERNEL, g) + 1))
    return Mixer.conv2d(side, _uniform(rng, (kh, kw), kh * kw), g, g, pad)


def random_block(n_tokens: int, n_channels: int, degree: int, seed: int,
                 w_mode: WMode = WMode.FULL, degree_mask: frozenset[int] | None = None,
                 with_bias: bool = False, normalize_y: bool = False) -> PadreBlock:
    """A seeded block drawing every mixer slot from the structured-kind menu.

    Used by verification suites; conv2d appears only when the acted dimension
    is a square grid (see ``random_mixer``).
    """
    rng = np.random.default_rng(seed)
    d = degree
    return PadreBlock(
        degree=d, n_tokens=n_tokens, n_channels=n_channels,
        token_mixers=[random_mixer(rng, Side.TOKEN, n_tokens) for _ in range(d)],
        channel_mixers=[random_mixer(rng, Side.CHANNEL, n_channels) for _ in range(d)],
        inter_token=[random_mixer(rng, Side.TOKEN, n_tokens) for _ in range(d - 1)],
        inter_channel=[random_mixer(rng, Side.CHANNEL, n_channels) for _ in range(d - 1)],
        w_mode=w_mode,
        weights=_uniform(rng, weight_shape(w_mode, n_tokens, n_channels, d), 1),
        degree_mask=degree_mask or frozenset(range(1, d + 1)),
        bias=_uniform(rng, (n_tokens, n_channels), 1) if with_bias else None,
        normalize_y=normalize_y,
    )


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

def param_count(block: PadreBlock) -> int:
    return sum(a.size for _, a in iter_parameters(block))


def _all_mixers(block: PadreBlock) -> list[Mixer]:
    return (block.token_mixers + block.channel_mixers
            + block.inter_token + block.inter_channel)


def mixer_parameters(*groups: tuple[str, list[Mixer]]) -> list[tuple[str, np.ndarray]]:
    """``("<tag><i>.<param>", array)`` for the i-th mixer (from 1) of each
    ``(tag, mixers)`` group, in order."""
    return [(f"{tag}{i + 1}.{pname}", arr) for tag, mixers in groups
            for i, m in enumerate(mixers) for pname, arr in m.param_arrays()]


def iter_parameters(block: PadreBlock) -> list[tuple[str, np.ndarray]]:
    """All trainable arrays as (label, array) pairs in a deterministic order."""
    out = mixer_parameters(("A", block.token_mixers), ("B", block.channel_mixers),
                           ("C", block.inter_token), ("D", block.inter_channel))
    out.append(("W", block.weights))
    if block.bias is not None:
        out.append(("L", block.bias))
    if block.resize_left is not None:
        out.append(("U", block.resize_left))
        out.append(("V", block.resize_right))
    return out


# ---------------------------------------------------------------------------
# Config + weight container I/O
# ---------------------------------------------------------------------------

def block_config(block: PadreBlock, seed: int | None = None) -> dict:
    cfg = {
        "degree": block.degree,
        "N": block.n_tokens,
        "D": block.n_channels,
        "layout": ["grid", block.layout.h, block.layout.w]
        if isinstance(block.layout, Grid) else ["seq1d"],
        "w_mode": block.w_mode.name,
        "degree_mask": sorted(block.degree_mask),
        "normalize_y": block.normalize_y,
    }
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def config_to_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2)


def config_from_json(text: str) -> dict:
    """Parse a config document; one that is not a JSON object raises ``ShapeError``."""
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ShapeError(f"a config is a JSON object, not {type(cfg).__name__}")
    return cfg


#: what a config may ask the builders for: the degree, and float64 values
#: allocated (``_config_values``), both checked before anything is built
MAX_CONFIG_DEGREE = 64
MAX_CONFIG_VALUES = 2 ** 28


def _is_int(v) -> bool:
    """An exact integer; JSON's ``true``/``false`` are not integers here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _config_int(cfg: dict, key: str, low: int, default: int | None = None) -> int:
    """``cfg[key]``, or ``default`` when absent: an exact integer >= ``low``."""
    v = cfg.get(key, default)
    if not _is_int(v) or v < low:
        raise ShapeError(f"config field {key!r} is {v!r}, not an integer >= {low}")
    return int(v)


def _config_values(d: int, n: int, dc: int, conv: bool) -> int:
    """An upper bound on the float64 values a builder allocates for a config.

    A generic mixer holds at most two dim x dim factors (low rank at full
    rank); the convolution instance's token kernels hold at most
    ``DEFAULT_KERNEL ** 2`` values and its channel maps are dense.  Weights
    and bias hold at most ``(d + 1) * N * D``.
    """
    per_slot = DEFAULT_KERNEL ** 2 + dc * dc if conv else 2 * (n * n + dc * dc)
    return (2 * d - 1) * per_slot + (d + 1) * n * dc


def layout_from_config(value) -> Layout:
    """``["seq1d"]`` or ``["grid", h, w]``; anything else raises ``LayoutError``."""
    if isinstance(value, (list, tuple)):
        if list(value) == ["seq1d"]:
            return Seq1d()
        if len(value) == 3 and value[0] == "grid" and all(map(_is_int, value[1:])):
            return Grid(int(value[1]), int(value[2]))
    raise LayoutError(f"layout {value!r} is not ['seq1d'] or ['grid', h, w]")


def block_from_config(cfg: dict) -> PadreBlock:
    """Rebuild a block from its config document.

    A mask of {2..d} selects the concrete convolution/dense instance; any
    other mask builds a seeded generic block over the full mixer menu (an
    absent or empty mask means every degree).  Either block takes the
    configured layout, which must cover N (``LayoutError``).  ``degree``,
    ``N`` and ``D`` are required integers >= 1, ``seed`` an integer >= 0,
    ``normalize_y`` a bool and ``w_mode`` a ``WMode`` name; a missing or
    malformed field raises ``ShapeError``.  A degree above
    ``MAX_CONFIG_DEGREE`` or a block of more than ``MAX_CONFIG_VALUES``
    values raises ``SizeCapError`` before anything is allocated.
    """
    d, n, dc = (_config_int(cfg, key, 1) for key in ("degree", "N", "D"))
    seed = _config_int(cfg, "seed", 0, default=0)
    layout = layout_from_config(cfg.get("layout", ("seq1d",)))
    w_name = cfg.get("w_mode", "CHANNEL_BROADCAST")
    if not isinstance(w_name, str) or w_name not in WMode.__members__:
        raise ShapeError(f"unknown w_mode {w_name!r}; valid modes: {', '.join(WMode.__members__)}")
    normalize_y = cfg.get("normalize_y", False)
    if not isinstance(normalize_y, bool):
        raise ShapeError(f"config normalize_y {normalize_y!r} is not a bool")
    given = cfg.get("degree_mask", [])
    if not isinstance(given, (list, tuple)) or not all(map(_is_int, given)):
        raise ShapeError(f"config degree_mask {given!r} is not a list of integers")
    mask = frozenset(int(i) for i in given)
    # d - 1 distinct degrees in 2..d are exactly {2..d}
    conv = len(mask) == d - 1 >= 1 and all(2 <= i <= d for i in mask)
    if d > MAX_CONFIG_DEGREE or _config_values(d, n, dc, conv) > MAX_CONFIG_VALUES:
        raise SizeCapError(f"a degree-{d} {n} x {dc} block is beyond the config caps "
                           f"(degree {MAX_CONFIG_DEGREE}, {MAX_CONFIG_VALUES} values)")
    if conv:
        block = build_conv_instance(n, dc, d, layout, seed=seed, w_mode=WMode[w_name])
    else:
        block = random_block(n, dc, d, seed=seed, w_mode=WMode[w_name],
                             degree_mask=mask or frozenset(range(1, d + 1)))
    # rebuilding runs the block's checks, so a layout that misses N raises LayoutError
    return replace(block, layout=layout, normalize_y=normalize_y)


#: the manifest fields of a polynomial block container (version 1.0)
BLOCK_FIELDS = (("degree", int), ("n_tokens", int), ("n_channels", int), ("w_mode", int),
                ("normalize_y", bool), ("degree_mask", int), ("has_bias", bool),
                ("has_resize", bool), ("grid", bool), ("grid_h", int), ("grid_w", int))


def _block_parts(block: PadreBlock):
    """Manifest values, mixers A, B, C, D and 2-D tensors W[, L][, U, V] of a block."""
    grid = isinstance(block.layout, Grid)
    values = dict(
        degree=block.degree, n_tokens=block.n_tokens, n_channels=block.n_channels,
        w_mode=block.w_mode, normalize_y=block.normalize_y,
        degree_mask=sum(1 << (i - 1) for i in block.degree_mask),
        has_bias=block.bias is not None, has_resize=block.resize_left is not None,
        grid=grid, grid_h=block.layout.h if grid else 0, grid_w=block.layout.w if grid else 0)
    w = block.weights
    extra = [a for a in (block.bias, block.resize_left, block.resize_right) if a is not None]
    return values, _all_mixers(block), [w.reshape(-1, w.shape[-1])] + extra


def _block_from_parts(f: dict, mixers: list[Mixer], tensors: list[np.ndarray]) -> PadreBlock:
    d, n, dc, w_mode, mask = (f["degree"], f["n_tokens"], f["n_channels"],
                              WMode(f["w_mode"]), f["degree_mask"])
    w, *rest = tensors      # too few tensors for the flags fail these unpackings
    bias, *rest = rest if f["has_bias"] else [None, *rest]
    u, v = rest if f["has_resize"] else (None, None)
    return PadreBlock(
        degree=d, n_tokens=n, n_channels=dc,
        token_mixers=mixers[:d], channel_mixers=mixers[d:2 * d],
        inter_token=mixers[2 * d:3 * d - 1], inter_channel=mixers[3 * d - 1:],
        w_mode=w_mode, weights=w.reshape(weight_shape(w_mode, n, dc, d)),
        degree_mask=frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1),
        bias=bias, resize_left=u, resize_right=v, normalize_y=f["normalize_y"],
        layout=Grid(f["grid_h"], f["grid_w"]) if f["grid"] else Seq1d(),
    )


def block_to_records(block: PadreBlock) -> list[Record]:
    return pack_records(1.0, BLOCK_FIELDS, _block_parts(block))


def block_from_records(records: list[Record]) -> PadreBlock:
    return unpack_records(records, 1.0, BLOCK_FIELDS, _block_from_parts, _block_parts)


def save_block(block: PadreBlock, path: str) -> None:
    write_records(path, block_to_records(block))


def load_block(path: str) -> PadreBlock:
    return block_from_records(read_records(path))
