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

import contextlib
import enum
import json
import math
from dataclasses import dataclass, field, replace

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
    _is_int,
    apply_mixer,
    as_compute,
    hadamard,
    pack_records,
    read_records,
    require_finite,
    unpack_records,
    write_records,
)

DEFAULT_KERNEL = 11
RMS_EPS = 1e-6


class WMode(enum.IntEnum):
    """Shape of the combine weights W: a mode's value counts the leading
    axes of ``(N, D, d)`` that W drops.

    FULL (0) keeps one weight per (token, channel, degree); CHANNEL_BROADCAST
    (1) shares weights across tokens (D x d), which is what a drop-in layer
    with variable-length inputs needs; SCALAR_PER_DEGREE (2) keeps d scalars.
    Either way ``W[..., i - 1]`` broadcasts against an N x D tap.
    """

    FULL = 0
    CHANNEL_BROADCAST = 1
    SCALAR_PER_DEGREE = 2


def weight_shape(w_mode: WMode, n: int, dc: int, d: int) -> tuple[int, ...]:
    """The shape of the combine weights W of an N x D degree-d block:
    ``(N, D, d)`` without its first ``w_mode`` axes."""
    return (n, dc, d)[w_mode:]


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
    token_mixers: list[Mixer]          # A_1..A_d
    channel_mixers: list[Mixer]        # B_1..B_d
    inter_token: list[Mixer]           # C_1..C_{d-1}
    inter_channel: list[Mixer]         # D_1..D_{d-1}
    weights: np.ndarray
    degree_mask: frozenset[int]
    bias: np.ndarray | None = None
    resize_left: np.ndarray | None = None    # U, F x N
    resize_right: np.ndarray | None = None   # V, D x G
    normalize_y: bool = False
    layout: Layout = Seq1d()
    degree: int = field(init=False)                 # read from the parts: len(token_mixers),
    n_tokens: int = field(init=False)               # A_1's dim,
    n_channels: int = field(init=False)             # B_1's dim
    w_mode: WMode = field(init=False)               # and WMode(3 - weights.ndim)

    def __post_init__(self):
        d = self.degree = len(self.token_mixers)
        if not 1 <= d == len(self.channel_mixers):
            raise ShapeError("need d >= 1 and one token and one channel mixer per degree")
        n = self.n_tokens = self.token_mixers[0].dim
        dc = self.n_channels = self.channel_mixers[0].dim
        if isinstance(self.layout, Grid) and self.layout.h * self.layout.w != n:
            raise LayoutError(f"grid {self.layout.h}x{self.layout.w} does not cover N={n}")
        if len(self.inter_token) != d - 1 or len(self.inter_channel) != d - 1:
            raise ShapeError("need d-1 inter-degree mixer pairs")
        for m in self.token_mixers + self.inter_token:
            if m.side != Side.TOKEN or m.dim != n:
                raise ShapeError("token mixers must act on the token side with dim N")
        for m in self.channel_mixers + self.inter_channel:
            if m.side != Side.CHANNEL or m.dim != dc:
                raise ShapeError("channel mixers must act on the channel side with dim D")
        # W, L, U and V as float64, not copied when they already are
        self.weights, self.bias, self.resize_left, self.resize_right = (
            None if a is None else np.asarray(a, dtype=np.float64)
            for a in (self.weights, self.bias, self.resize_left, self.resize_right))
        if self.weights.shape not in [weight_shape(m, n, dc, d) for m in WMode]:
            raise ShapeError(f"weights shape {self.weights.shape} fits no WMode of {(n, dc, d)}")
        self.w_mode = WMode(3 - self.weights.ndim)
        if not self.degree_mask or not all(_is_int(i) and 1 <= i <= d for i in self.degree_mask):
            raise ShapeError(f"degree mask {set(self.degree_mask)} is not integers in 1..{d}")
        if self.bias is not None and self.bias.shape != (n, dc):
            raise ShapeError("bias must be N x D")
        if (self.resize_left is None) != (self.resize_right is None):
            raise ShapeError("resize operators must be given together")
        if self.resize_left is not None:
            if self.resize_left.shape[1] != n or self.resize_right.shape[0] != dc:
                raise ShapeError("resize operators must be F x N and D x G")
        for a in (self.weights, self.bias, self.resize_left, self.resize_right):
            if a is not None:
                require_finite(a, "block-params", "combine weights, bias and resize "
                               "matrices must be finite")


@dataclass
class PadreTrace:
    """Intermediates retained by ``forward`` for backprop and oracle taps.

    The cascade is kept as its mixed terms ``t_i = C_i Z_i D_i``, which the
    backward reads; the taps ``Z_i`` are derived from them.  A composed trace
    (see ``forward``) holds ``v1 = Y_1 D_1`` and no Y_1 or Z_1: its ``y[0]``,
    ``y_raw[0]`` and ``z[0]`` are None.  A trace serves one ``grad.backward``,
    which consumes it: ``y``, ``y_raw`` and ``t`` end empty and ``v1`` None,
    so ``z`` returns ``[]``, and a second backward raises.
    """

    x: np.ndarray
    y_raw: list[np.ndarray | None]     # pre-normalization A_i X B_i
    y: list[np.ndarray | None]
    t: list[np.ndarray]         # t_1..t_{d-1}
    pre_resize: np.ndarray
    output: np.ndarray
    v1: np.ndarray | None = None

    def z_at(self, i: int) -> np.ndarray:
        """Z_i (from 1): Y_1, or ``t_{i-1} * Y_i``, the forward's own multiply."""
        return self.y[0] if i == 1 else self.t[i - 2] * self.y[i - 1]

    @property
    def z(self) -> list[np.ndarray]:
        """Z_1..Z_d, bit for bit what the forward made; each read recomputes them."""
        return [self.z_at(i) for i in range(1, len(self.y) + 1)]


def _row_rms(y: np.ndarray, power: int = 1):
    """``(u, s, c)`` per row of ``y``: ``u = y / c`` and ``s = sqrt(mean(u^2) +
    RMS_EPS / c^2)``, so that ``u / s`` is the row over its RMS.

    c is 1, and every bit is the plain formula's, unless ``D s^power`` would
    overflow on a row of D values; then c is the row's largest modulus and the
    ``RMS_EPS / c^2`` term, below 1e-200 for a finite row there, is dropped.
    """
    with np.errstate(over="ignore"):
        s = np.sqrt(np.mean(y * y, axis=-1, keepdims=True) + RMS_EPS)
        big = np.isinf(y.shape[-1] * s ** power)
    if not big.any():
        return y, s, 1.0
    c = np.where(big, np.abs(y).max(axis=-1, keepdims=True), 1.0)
    u = y / c
    return u, np.where(big, np.sqrt(np.mean(u * u, axis=-1, keepdims=True)), s), c


def rms_normalize_rows(y: np.ndarray) -> np.ndarray:
    """Divide each row by sqrt(mean of squares + RMS_EPS), squares that overflow
    included (``_row_rms``); zero rows stay zero."""
    u, s, _ = _row_rms(y)
    return u / s


def features(token_mixers: list[Mixer], channel_mixers: list[Mixer],
             x: np.ndarray) -> list[np.ndarray]:
    """The feature bank Y_i = A_i X B_i, channel map first.  Unchecked: a
    non-finite Y_i that reaches P leaves P non-finite (see ``forward``)."""
    return [apply_mixer(a, apply_mixer(b, x)) for a, b in zip(token_mixers, channel_mixers)]


def _composes(block: PadreBlock) -> bool:
    """Whether ``forward`` composes degree 1: it is not summed, ``normalize_y`` is
    off, B_1 and D_1 are dense and N > D (so the D^3 of ``B_1 D_1`` costs less
    than the N D^2 it saves).  A rule of the block alone, so batching changes no bit."""
    return (1 not in block.degree_mask and not block.normalize_y
            and block.n_tokens > block.n_channels
            and block.channel_mixers[0].kind == block.inter_channel[0].kind == MixerKind.DENSE)


def _composed_e(block: PadreBlock) -> Mixer:
    """``E = B_1 D_1`` as a dense channel mixer (``NumericError`` if not finite),
    made by the forward and again by the backward: an E kept in the trace through
    the forward fragmented the glibc heap (grid-infer: +5 MB peak RSS, 7-10% slower)."""
    return Mixer.dense(Side.CHANNEL, block.channel_mixers[0].matrix @ block.inter_channel[0].matrix)


def _composed_v1(block: PadreBlock, x: np.ndarray) -> np.ndarray | None:
    """``V_1 = A_1 X E``, or None for the general route: when the block does
    not compose or E is not finite (V_1 reaches P, which ``forward`` checks).
    ``X E`` is a bare GEMM, off ``apply_mixer``."""
    if not _composes(block):
        return None
    try:
        e = _composed_e(block)
    except NumericError:
        return None
    return apply_mixer(block.token_mixers[0], x @ e.matrix)


def count_forward(block: PadreBlock, shape: tuple[int, ...], ledger: FlopLedger) -> FlopLedger:
    """Add ``forward``'s MACs on a ``shape`` input to ``ledger`` and return it: a rule of
    the block, not of a run.  Each mixer counts once, so the composed route counts as the
    general one; then d - 1 Hadamard products, |mask| weighted taps, and U P then (U P) V."""
    size = math.prod(shape)
    for m in _all_mixers(block):
        ledger.count(m, size)
    ledger.add("hadamard", (block.degree - 1) * size)
    ledger.add("combine", len(block.degree_mask) * size)
    if block.resize_left is not None:
        f, g = block.resize_left.shape[0], block.resize_right.shape[1]
        ledger.add("resize", f * size + f * (size // block.n_tokens) * g)
    return ledger


def _raise_first(trace: PadreTrace):
    """Raise ``NumericError`` at the first non-finite stage of a forward's
    trace, in the order the forward made them: raw Y_1..Y_d, then Z_2..Z_d
    through ``z_at``; at P when every one is finite."""
    stages = [(f"Y[{i}]", y) for i, y in enumerate(trace.y_raw, 1) if y is not None]
    stages += [(f"Z[{i}]", trace.z_at(i)) for i in range(2, len(trace.y) + 1)]
    raise NumericError(next((name for name, a in stages if not np.isfinite(a).all()), "P"))


@np.errstate(over="ignore", invalid="ignore")
def forward(block: PadreBlock, x: np.ndarray,
            ledger: FlopLedger | None = None) -> tuple[np.ndarray, PadreTrace]:
    """Run the block, ``features`` then ``_stages``; returns the output and the stage trace.

    ``x`` is ``(..., N, D)``: each sample along the leading batch axes gives
    bit for bit what it gives alone.  ``x`` is cast by ``as_compute`` first,
    the one choice of compute dtype: bool, integer and float32 inputs and
    nested lists run as their float64 array, bit for bit in the output and
    every trace tensor; float64, wider and complex inputs are not copied or
    narrowed.  A ``ledger`` gets ``count_forward``'s MACs, every sample
    counted, once the shape check passes, whichever route runs.

    A non-finite stage raises ``NumericError`` naming it, with no numpy
    warning before it.  Finiteness is checked once, at P (and at O after a
    resize): under IEEE 754 an inf or NaN stays non-finite through a
    product, a sum or a linear map with finite coefficients (``0 * inf`` is
    NaN), and every Y_i and Z_i up to the top summed degree reaches P that
    way.  Only when P fails does the forward walk its trace, raw Y_1..Y_d
    then Z_2..Z_d, and name the first non-finite stage (P when there is
    none).  Stages above the top summed degree cannot reach P, but every
    stage reaches Z_d, so a block that does not sum degree d checks Z_d too.

    A block that does not sum degree 1 reads Y_1 only through ``t_1``, so when
    ``_composes(block)`` the forward runs ``t_1 = C_1 V_1``, ``V_1 = A_1 X
    (B_1 D_1)``: one N x D x D product for two, and the trace holds V_1.
    Each output entry is within ``1e-13 M`` of the general route's on the
    tested blocks, M being that entry on the moduli of x and the parameters.
    A non-finite ``B_1 D_1``, or a composed forward that fails its check,
    reruns the general route, which names the stage; so the routes differ in
    one case only: a composed block whose Y_1 alone would overflow returns
    its finite output.
    """
    x = as_compute(x)
    if x.shape[-2:] != (block.n_tokens, block.n_channels):
        raise ShapeError(f"input shape {x.shape} is not (..., {block.n_tokens}, "
                         f"{block.n_channels})")
    if ledger is not None:
        count_forward(block, x.shape, ledger)
    v1 = _composed_v1(block, x)
    if v1 is not None:
        y_raw = [None] + features(block.token_mixers[1:], block.channel_mixers[1:], x)
        with contextlib.suppress(NumericError):
            return _stages(block, x, y_raw, v1)
    return _stages(block, x, features(block.token_mixers, block.channel_mixers, x))


def _stages(block: PadreBlock, x: np.ndarray | None, y_raw: list[np.ndarray | None],
            v1: np.ndarray | None = None) -> tuple[np.ndarray, PadreTrace]:
    """``forward`` from the raw feature bank ``y_raw`` on (Y_1 None and ``v1``
    given on the composed route): the Hadamard cascade Z_1 = Y_1,
    Z_{i+1} = t_i * Y_{i+1}, t_i = C_i Z_i D_i, the combine with its one check
    of P, and the resize.  ``x`` only goes into the trace; a multimodal chain,
    whose levels come from several inputs, passes None."""
    y = [rms_normalize_rows(t) for t in y_raw] if block.normalize_y else y_raw
    trace = PadreTrace(x=x, y_raw=y_raw, y=y, t=[], pre_resize=None, output=None, v1=v1)
    # P = 0 + sum W_i * Z_i in ascending degree order, summed in place as the cascade
    # runs: Z_i D_i is made (V_1 for a composed chain, whose Z_1 is None), then W_i * Z_i
    # goes into Z_i's own buffer past Y_1 (the trace keeps t_i) and Z_i is let go
    # before C_i and the next product.  Adding 0.0 keeps a zero-started sum's bits (+0.0)
    p, z = None, y[0]
    for i in range(1, block.degree + 1):
        if i < block.degree:
            zd = v1 if z is None else apply_mixer(block.inter_channel[i - 1], z)
        if i in block.degree_mask:
            term = np.multiply(block.weights[..., i - 1], z, out=z if i > 1 else None)
            p = np.add(term, 0.0, out=term) if p is None else np.add(p, term, out=p)
        elif i == block.degree and not np.isfinite(z).all():
            _raise_first(trace)                # an unsummed Z_d: what P may not see
        z = term = None
        if i < block.degree:
            trace.t.append(apply_mixer(block.inter_token[i - 1], zd))
            zd = None
            z = hadamard(trace.t[-1], y[i])
    if block.bias is not None:
        p += block.bias
    if not np.isfinite(p).all():
        _raise_first(trace)
    out = p
    if block.resize_left is not None:
        out = block.resize_left @ p @ block.resize_right
        require_finite(out, "O")
    trace.pre_resize, trace.output = p, out
    return out, trace


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    half = math.sqrt(3.0 / fan_in)
    return rng.uniform(-half, half, size=shape)


def _drawn_block(rng: np.random.Generator, n: int, dc: int, d: int, draw, w_mode: WMode,
                 with_bias: bool, **fields) -> PadreBlock:
    """A block whose slots are drawn in one order: A_1..A_d, B_1..B_d, C_1..C_{d-1}
    and D_1..D_{d-1} by ``draw(rng, side, dim)``, then W and L (when
    ``with_bias``) uniformly; ``fields`` are the block's other fields."""
    a, b, c, dm = ([draw(rng, side, dim) for _ in range(k)] for side, dim, k in
                   ((Side.TOKEN, n, d), (Side.CHANNEL, dc, d),
                    (Side.TOKEN, n, d - 1), (Side.CHANNEL, dc, d - 1)))
    return PadreBlock(
        token_mixers=a, channel_mixers=b, inter_token=c, inter_channel=dm,
        weights=_uniform(rng, weight_shape(w_mode, n, dc, d), 1),
        bias=_uniform(rng, (n, dc), 1) if with_bias else None, **fields)


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
    if isinstance(layout, Grid) and layout.h * layout.w != n_tokens:   # kernels are drawn from it
        raise LayoutError(f"grid {layout.h}x{layout.w} does not cover N={n_tokens}")

    def draw(rng: np.random.Generator, side: Side, dim: int) -> Mixer:
        if side == Side.CHANNEL:
            return Mixer.dense(side, _uniform(rng, (dim, dim), dim))
        if isinstance(layout, Grid):
            kh, kw = min(DEFAULT_KERNEL, layout.h), min(DEFAULT_KERNEL, layout.w)
            return Mixer.conv2d(side, _uniform(rng, (kh, kw), kh * kw), layout.h, layout.w)
        k = min(DEFAULT_KERNEL, dim)
        return Mixer.conv1d(side, _uniform(rng, (k,), k), dim)

    return _drawn_block(np.random.default_rng(seed), n_tokens, n_channels, degree, draw, w_mode,
                        False, degree_mask=frozenset(range(2, degree + 1)), layout=layout)


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
    return _drawn_block(np.random.default_rng(seed), n_tokens, n_channels, degree,
                        random_mixer, w_mode, with_bias, normalize_y=normalize_y,
                        degree_mask=degree_mask or frozenset(range(1, degree + 1)))


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
        token_mixers=mixers[:d], channel_mixers=mixers[d:2 * d],
        inter_token=mixers[2 * d:3 * d - 1], inter_channel=mixers[3 * d - 1:],
        weights=w.reshape(weight_shape(w_mode, n, dc, d)),
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
