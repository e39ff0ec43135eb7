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
from dataclasses import dataclass

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
    apply_mixer,
    check_record_count,
    hadamard,
    manifest_int,
    manifest_record,
    manifest_values,
    mixer_from_record,
    mixer_to_record,
    raw_tensor_from_record,
    raw_tensor_record,
    read_records,
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


@dataclass(frozen=True)
class Seq1d:
    """Tokens form a plain sequence; token convolutions are 1-D."""


@dataclass(frozen=True)
class Grid:
    """Tokens are a row-major H x W raster; token convolutions are 2-D."""

    h: int
    w: int


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
        expected = {
            WMode.FULL: (n, dc, d),
            WMode.CHANNEL_BROADCAST: (dc, d),
            WMode.SCALAR_PER_DEGREE: (d,),
        }[self.w_mode]
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


@dataclass
class PadreTrace:
    """Intermediates retained by ``forward`` for backprop and oracle taps."""

    x: np.ndarray
    y_raw: list[np.ndarray]     # pre-normalization A_i X B_i
    y: list[np.ndarray]
    z: list[np.ndarray]
    pre_resize: np.ndarray
    output: np.ndarray


def rms_normalize_rows(y: np.ndarray, eps: float = RMS_EPS) -> np.ndarray:
    """Divide each row by sqrt(mean of squares + eps); zero rows stay zero."""
    scale = np.sqrt(np.mean(y * y, axis=1, keepdims=True) + eps)
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
    """Run the block; returns the output and the full stage trace."""
    if x.shape != (block.n_tokens, block.n_channels):
        raise ShapeError(f"input shape {x.shape} != ({block.n_tokens}, {block.n_channels})")
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
            f = block.resize_left.shape[0]
            g = block.resize_right.shape[1]
            ledger.add("resize", f * block.n_tokens * block.n_channels
                       + f * block.n_channels * g)
        _require_finite(out, "O")
    return out, PadreTrace(x=x, y_raw=y_raw, y=y, z=z, pre_resize=p, output=out)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    half = math.sqrt(3.0 / fan_in)
    return rng.uniform(-half, half, size=shape)


def _init_weights(rng: np.random.Generator, w_mode: WMode, n: int, dc: int, d: int) -> np.ndarray:
    shape = {WMode.FULL: (n, dc, d), WMode.CHANNEL_BROADCAST: (dc, d),
             WMode.SCALAR_PER_DEGREE: (d,)}[w_mode]
    return _uniform(rng, shape, 1)


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
    if isinstance(layout, Grid) and layout.h * layout.w != n_tokens:
        raise LayoutError(f"grid {layout.h}x{layout.w} does not cover N={n_tokens}")
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
        weights=_init_weights(rng, w_mode, n_tokens, n_channels, degree),
        degree_mask=frozenset(range(2, degree + 1)),
        bias=None,
        layout=layout,
    )


#: the structured-kind menu seeded blocks draw their mixers from
MIXER_MENU = (MixerKind.DENSE, MixerKind.DIAGONAL, MixerKind.LOW_RANK,
              MixerKind.CONV1D, MixerKind.CONV2D, MixerKind.IDENTITY)


def random_mixer(rng: np.random.Generator, side: Side, dim: int,
                 menu=MIXER_MENU) -> Mixer:
    """Draw a kind uniformly from ``menu``, then its seeded parameters.

    CONV2D is legal only when ``dim > 1`` is a perfect square (a square grid).
    """
    g = math.isqrt(dim)
    square = g * g == dim and dim > 1
    legal = [k for k in menu if k != MixerKind.CONV2D or square]
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
                 with_bias: bool = False, normalize_y: bool = False,
                 kinds: list[MixerKind] | None = None) -> PadreBlock:
    """A seeded block drawing every mixer slot from the structured-kind menu.

    Used by verification suites; conv2d appears only when the acted dimension
    is a square grid (see ``random_mixer``).
    """
    rng = np.random.default_rng(seed)
    menu = kinds or MIXER_MENU
    d = degree
    return PadreBlock(
        degree=d, n_tokens=n_tokens, n_channels=n_channels,
        token_mixers=[random_mixer(rng, Side.TOKEN, n_tokens, menu) for _ in range(d)],
        channel_mixers=[random_mixer(rng, Side.CHANNEL, n_channels, menu) for _ in range(d)],
        inter_token=[random_mixer(rng, Side.TOKEN, n_tokens, menu) for _ in range(d - 1)],
        inter_channel=[random_mixer(rng, Side.CHANNEL, n_channels, menu)
                       for _ in range(d - 1)],
        w_mode=w_mode,
        weights=_init_weights(rng, w_mode, n_tokens, n_channels, d),
        degree_mask=degree_mask or frozenset(range(1, d + 1)),
        bias=_uniform(rng, (n_tokens, n_channels), 1) if with_bias else None,
        normalize_y=normalize_y,
    )


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

def param_count(block: PadreBlock) -> int:
    total = sum(m.param_count for m in _all_mixers(block))
    total += block.weights.size
    if block.bias is not None:
        total += block.bias.size
    if block.resize_left is not None:
        total += block.resize_left.size + block.resize_right.size
    return total


def _all_mixers(block: PadreBlock) -> list[Mixer]:
    return (block.token_mixers + block.channel_mixers
            + block.inter_token + block.inter_channel)


def _mixer_labels(block: PadreBlock) -> list[tuple[str, Mixer]]:
    out = []
    for i, m in enumerate(block.token_mixers):
        out.append((f"A{i + 1}", m))
    for i, m in enumerate(block.channel_mixers):
        out.append((f"B{i + 1}", m))
    for i, m in enumerate(block.inter_token):
        out.append((f"C{i + 1}", m))
    for i, m in enumerate(block.inter_channel):
        out.append((f"D{i + 1}", m))
    return out


def iter_parameters(block: PadreBlock) -> list[tuple[str, np.ndarray]]:
    """All trainable arrays as (label, array) pairs in a deterministic order."""
    out = []
    for name, m in _mixer_labels(block):
        for pname, arr in m.param_arrays():
            out.append((f"{name}.{pname}", arr))
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
        "layout": ("grid", block.layout.h, block.layout.w)
        if isinstance(block.layout, Grid) else ("seq1d",),
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
    cfg = json.loads(text)
    cfg["degree_mask"] = sorted(int(i) for i in cfg.get("degree_mask", []))
    return cfg


def layout_from_config(value) -> Layout:
    if value[0] == "grid":
        return Grid(int(value[1]), int(value[2]))
    return Seq1d()


def block_from_config(cfg: dict) -> PadreBlock:
    """Rebuild a block from its config document.

    A mask of {2..d} selects the concrete convolution/dense instance; any
    other mask builds a seeded generic block over the full mixer menu.
    """
    d, n, dc = int(cfg["degree"]), int(cfg["N"]), int(cfg["D"])
    layout = layout_from_config(cfg.get("layout", ("seq1d",)))
    seed = int(cfg.get("seed", 0))
    w_mode = WMode[cfg.get("w_mode", "CHANNEL_BROADCAST")]
    mask = frozenset(int(i) for i in cfg.get("degree_mask", range(1, d + 1)))
    if d >= 2 and mask == frozenset(range(2, d + 1)):
        block = build_conv_instance(n, dc, d, layout, seed=seed, w_mode=w_mode)
    else:
        block = random_block(n, dc, d, seed=seed, w_mode=w_mode, degree_mask=mask)
    block.normalize_y = bool(cfg.get("normalize_y", False))
    return block


def block_to_records(block: PadreBlock) -> list[Record]:
    d = block.degree
    manifest = [
        1.0,                   # container version
        float(d), float(block.n_tokens), float(block.n_channels),
        float(block.w_mode),
        1.0 if block.normalize_y else 0.0,
        float(sum(1 << (i - 1) for i in block.degree_mask)),
        1.0 if block.bias is not None else 0.0,
        1.0 if block.resize_left is not None else 0.0,
        1.0 if isinstance(block.layout, Grid) else 0.0,
        float(block.layout.h) if isinstance(block.layout, Grid) else 0.0,
        float(block.layout.w) if isinstance(block.layout, Grid) else 0.0,
    ]
    records = [manifest_record(manifest)]
    records += [mixer_to_record(m) for m in _all_mixers(block)]
    w = block.weights
    records.append(raw_tensor_record(w.reshape(-1, w.shape[-1]) if w.ndim == 3
                                     else np.atleast_2d(w)))
    if block.bias is not None:
        records.append(raw_tensor_record(block.bias))
    if block.resize_left is not None:
        records.append(raw_tensor_record(block.resize_left))
        records.append(raw_tensor_record(block.resize_right))
    return records


def block_from_records(records: list[Record]) -> PadreBlock:
    man = manifest_values(records, 1.0, 12)
    d = manifest_int(man[1], "degree", 1)
    has_bias, has_resize = bool(man[7]), bool(man[8])
    check_record_count(records, 1 + (4 * d - 2) + 1 + has_bias + 2 * has_resize)
    n, dc = int(man[2]), int(man[3])
    w_mode = WMode(int(man[4]))
    normalize = bool(man[5])
    mask = frozenset(i + 1 for i in range(d) if int(man[6]) >> i & 1)
    layout = Grid(int(man[10]), int(man[11])) if bool(man[9]) else Seq1d()
    mixers = [mixer_from_record(r) for r in records[1:1 + 4 * d - 2]]
    raws = [raw_tensor_from_record(r) for r in records[1 + 4 * d - 2:]]
    w = raws[0]
    if w_mode == WMode.FULL:
        w = w.reshape(n, dc, d)
    elif w_mode == WMode.SCALAR_PER_DEGREE:
        w = w.reshape(d)
    else:
        w = w.reshape(dc, d)
    idx = 1
    bias = raws[idx] if has_bias else None
    idx += has_bias
    u = raws[idx] if has_resize else None
    v = raws[idx + 1] if has_resize else None
    return PadreBlock(
        degree=d, n_tokens=n, n_channels=dc,
        token_mixers=mixers[:d], channel_mixers=mixers[d:2 * d],
        inter_token=mixers[2 * d:3 * d - 1], inter_channel=mixers[3 * d - 1:],
        w_mode=w_mode, weights=w, degree_mask=mask, bias=bias,
        resize_left=u, resize_right=v, normalize_y=normalize, layout=layout,
    )


def save_block(block: PadreBlock, path: str) -> None:
    write_records(path, block_to_records(block))


def load_block(path: str) -> PadreBlock:
    return block_from_records(read_records(path))
