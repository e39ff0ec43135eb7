"""Dense N x D activation tensors, structured linear mixers, and MAC accounting.

Conventions used throughout the package:

* Activations are ``float64`` numpy arrays of shape ``(..., N, D)``: N tokens
  by D channels, behind optional leading batch axes.  Each sample of a batch
  is mixed exactly as it would be alone, bit for bit.
* A token-side mixer is a linear operator acting on the left (an implicit
  N x N matrix); a channel-side mixer acts on the right (D x D).
* Same-size convolutions take one of two routes, chosen by the operator's
  size ``dim`` alone.  One of at most ``TILE`` outputs is a dense mixer: its
  exact matrix, gathered from the live kernel (``_matrix``), multiplies the
  input as a dense mixer's does.  Larger ones run as tiled Toeplitz GEMMs
  (``_apply_conv``): each tile of outputs along the last convolution axis
  is one GEMM of its whole window against the kernel's stacked banded
  matrices, never reading a padded copy of the input.  With one kernel row
  a tile has ``TILE`` outputs and its window is read in place where it can
  be.  With ``kh > 1`` a tile has ``STRIP_TILE`` outputs, and its window is
  read from a strip: one block of its tile column, copied with its halo
  rows, as few blocks of rows (token side) or lanes (channel side) as keep
  each strip within ``STRIP_BYTES`` (1 MiB, so it stays in L2).  On the
  token side such a tile is ``T^T @ window``, written straight into the
  output's ``(STRIP_TILE, lanes)`` tile.  On either route an inf or NaN
  input reaches every output whose taps read it, and may reach others
  (``0 * inf`` is NaN).  Only rounding separates either route from a
  tap-by-tap sum, within ``1e-13 * sum_tap |kernel[tap] * window|``
  elementwise.
* The padded pieces that the tiled route reads are views of one float64
  buffer per thread, which starts on a 64-byte cache line (``_strip``); at
  D = 192 every row of a ``kh > 1`` window then does too (1,536 bytes
  apart).  numpy and the allocator align only to 16 bytes, and a strip off
  its cache line cost the 11x11 conv2d 20-25% whenever it lay on 4 KiB
  pages rather than a huge page.
* Cost is tracked in multiply-accumulates; 1 MAC = 2 FLOPs, counted per
  sample and multiplied by the batch size.  A convolution counts the
  operator's MACs, not the zeros inside its banded matrices, and excludes
  taps that fall on zero padding, so boundary outputs are cheaper than
  interior ones; circular padding always uses the full kernel.
"""

from __future__ import annotations

import enum
import functools
import io
import itertools
import math
import struct
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, TypeVar

import numpy as np

MAGIC = b"PADREW01"

#: serialization tags for non-mixer payloads
RAW_TENSOR_TAG = 200
MANIFEST_TAG = 201

#: outputs per tile of a convolution's last axis with one kernel row; each
#: tile is one GEMM over its whole window, and a convolution of at most this
#: many outputs runs as its dense matrix
TILE = 8
#: outputs per tile with ``kh > 1`` kernel rows, whose windows are copied
#: into strips: a narrower tile reads fewer of its banded matrix's zeros
STRIP_TILE = 4
#: bytes that one ``kh > 1`` strip may take, so that the tile GEMMs read it
#: from L2; each tile column is cut into as few equal blocks as fit
STRIP_BYTES = 1 << 20


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class LayoutError(ValueError):
    """A grid-structured operator does not match the declared token layout."""


class SizeCapError(ValueError):
    """An operation was asked to run beyond its size cap."""


class SerializationError(ValueError):
    """A weight container is malformed or truncated."""


class NumericError(ArithmeticError):
    """A non-finite value appeared; ``stage`` names the first offending step."""

    def __init__(self, stage: str, message: str = ""):
        self.stage = stage
        super().__init__(message or f"non-finite values produced at stage {stage!r}")


def require_finite(a, stage: str, message: str = "") -> None:
    """Raise ``NumericError(stage, message)`` unless every entry of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise NumericError(stage, message)


class Side(enum.IntEnum):
    TOKEN = 0
    CHANNEL = 1


class MixerKind(enum.IntEnum):
    DENSE = 0
    DIAGONAL = 1
    LOW_RANK = 2
    CONV1D = 3
    CONV2D = 4
    IDENTITY = 5


class PadMode(enum.IntEnum):
    ZERO = 0
    CIRCULAR = 1


@dataclass
class FlopLedger:
    """Cumulative MAC counter with a fixed per-category breakdown.

    Counts are exact integers so benchmark FLOP columns are reproducible
    bit-for-bit across runs.
    """

    token_mix: int = 0
    channel_mix: int = 0
    hadamard: int = 0
    combine: int = 0
    resize: int = 0

    def add(self, category: str, macs: int) -> None:
        setattr(self, category, getattr(self, category) + int(macs))

    def count(self, m: "Mixer", size: int) -> None:
        """Count ``m`` applied to every vector on its side of a ``size``-entry tensor."""
        self.add("token_mix" if m.side == Side.TOKEN else "channel_mix",
                 m.macs_per_vector() * (size // m.dim))

    @property
    def macs(self) -> int:
        return self.token_mix + self.channel_mix + self.hadamard + self.combine + self.resize

    @property
    def flops(self) -> int:
        return 2 * self.macs


def _is_int(v) -> bool:
    """An exact integer, NumPy's too; ``True`` and ``False`` are not integers here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def as_compute(x) -> np.ndarray:
    """``x`` (nested lists too) as an array of the compute dtype ``np.result_type(x,
    np.float64)``: float64, wider and complex arrays are not copied or narrowed."""
    x = np.asarray(x)
    return np.asarray(x, dtype=np.result_type(x, np.float64))


@dataclass(frozen=True, eq=False)
class Mixer:
    """A structured linear operator applied on the token or channel side.

    Construct via the ``dense`` / ``diagonal`` / ``low_rank`` / ``conv1d`` /
    ``conv2d`` / ``identity`` factories; the constructor validates the
    kind-specific parameter arrays.
    """

    side: Side
    kind: MixerKind
    dim: int
    padding: PadMode = PadMode.ZERO
    matrix: np.ndarray | None = None
    diag: np.ndarray | None = None
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    kernel: np.ndarray | None = None
    grid_h: int = 0
    grid_w: int = 0

    def __post_init__(self):
        if self.side not in (Side.TOKEN, Side.CHANNEL) or self.padding not in (
                PadMode.ZERO, PadMode.CIRCULAR):      # no record could encode them
            raise ShapeError(f"mixer side {self.side!r} or padding {self.padding!r} "
                             "is not a member of its enum")
        if not all(map(_is_int, (self.dim, self.grid_h, self.grid_w))) or self.dim < 1:
            raise ShapeError(f"mixer dim {self.dim!r} and grid {self.grid_h!r}x{self.grid_w!r} "
                             "must be integers, the dim positive")
        k = self.kind
        if k == MixerKind.DENSE:
            if self.matrix is None or self.matrix.shape != (self.dim, self.dim):
                raise ShapeError("dense mixer needs a dim x dim matrix")
        elif k == MixerKind.DIAGONAL:
            if self.diag is None or self.diag.shape != (self.dim,):
                raise ShapeError("diagonal mixer needs a length-dim diagonal")
        elif k == MixerKind.LOW_RANK:
            if self.left is None or self.right is None or self.left.ndim != 2:
                raise ShapeError("low-rank mixer needs 2-D left/right factors")
            r = self.left.shape[1]
            if self.left.shape != (self.dim, r) or self.right.shape != (r, self.dim):
                raise ShapeError("low-rank factors must be dim x r and r x dim")
            if r > self.dim:
                raise ShapeError(f"low-rank rank {r} exceeds dim {self.dim}")
        elif k in (MixerKind.CONV1D, MixerKind.CONV2D):
            ndim, name = (1, "conv1d") if k == MixerKind.CONV1D else (2, "conv2d")
            if self.kernel is None or self.kernel.ndim != ndim or not self.kernel.size:
                raise ShapeError(f"{name} mixer needs a {ndim}-D kernel with no empty axis")
            if k == MixerKind.CONV2D and self.grid_h * self.grid_w != self.dim:
                raise LayoutError(
                    f"conv2d grid {self.grid_h}x{self.grid_w} does not cover dim {self.dim}")
            (kh, kw), (gh, gw) = _kernel2d(self).shape, _grid(self)
            if kh > gh or kw > gw:
                raise ShapeError(f"{name} kernel larger than the {gh}x{gw} grid")
        elif k != MixerKind.IDENTITY:
            raise ShapeError(f"unknown mixer kind {k}")
        for _, arr in self.param_arrays():
            require_finite(arr, "mixer-params", "mixer parameters must be finite")

    # ---- factories -------------------------------------------------------

    @classmethod
    def dense(cls, side: Side, matrix) -> "Mixer":
        m = _as_f64(matrix)
        return cls(side=side, kind=MixerKind.DENSE, dim=m.shape[0], matrix=m)

    @classmethod
    def diagonal(cls, side: Side, diag) -> "Mixer":
        d = _as_f64(diag)
        return cls(side=side, kind=MixerKind.DIAGONAL, dim=d.shape[0], diag=d)

    @classmethod
    def low_rank(cls, side: Side, left, right) -> "Mixer":
        l, r = _as_f64(left), _as_f64(right)
        return cls(side=side, kind=MixerKind.LOW_RANK, dim=l.shape[0], left=l, right=r)

    @classmethod
    def conv1d(cls, side: Side, kernel, dim: int, padding: PadMode = PadMode.ZERO) -> "Mixer":
        return cls(side=side, kind=MixerKind.CONV1D, dim=dim, kernel=_as_f64(kernel),
                   padding=padding)

    @classmethod
    def conv2d(cls, side: Side, kernel, grid_h: int, grid_w: int,
               padding: PadMode = PadMode.ZERO) -> "Mixer":
        return cls(side=side, kind=MixerKind.CONV2D, dim=grid_h * grid_w,
                   kernel=_as_f64(kernel), grid_h=grid_h, grid_w=grid_w, padding=padding)

    @classmethod
    def identity(cls, side: Side, dim: int) -> "Mixer":
        return cls(side=side, kind=MixerKind.IDENTITY, dim=dim)

    # ---- bookkeeping -----------------------------------------------------

    @property
    def param_count(self) -> int:
        return sum(a.size for _, a in self.param_arrays())

    def macs_per_vector(self) -> int:
        """MACs for one matrix-vector product with the implicit operator."""
        k = self.kind
        if k in (MixerKind.DENSE, MixerKind.DIAGONAL, MixerKind.LOW_RANK):
            return self.param_count          # one MAC per parameter
        if k in (MixerKind.CONV1D, MixerKind.CONV2D):
            if self.padding == PadMode.CIRCULAR:
                return self.dim * self.kernel.size
            return math.prod(map(_conv_taps, _grid(self), _kernel2d(self).shape))
        return 0

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Mutable views of the trainable arrays, in a deterministic order."""
        k = self.kind
        if k == MixerKind.DENSE:
            return [("mat", self.matrix)]
        if k == MixerKind.DIAGONAL:
            return [("diag", self.diag)]
        if k == MixerKind.LOW_RANK:
            return [("left", self.left), ("right", self.right)]
        if k in (MixerKind.CONV1D, MixerKind.CONV2D):
            return [("kernel", self.kernel)]
        return []


def _conv_taps(n: int, k: int) -> int:
    """Non-padding taps of a same-size zero-padded correlation, ``k <= n``: n k less
    a (a + 1) / 2 before the edges and b (b + 1) / 2 after, a = ``_anchor(k)``, b = k - 1 - a."""
    a = _anchor(k)
    return n * k - (a * (a + 1) + (k - 1 - a) * (k - a)) // 2


def _grid(m: Mixer) -> tuple[int, int]:
    """A convolution's ``(rows, columns)``: a conv1d is a one-row conv2d."""
    return (m.grid_h, m.grid_w) if m.kind == MixerKind.CONV2D else (1, m.dim)


def _kernel2d(m: Mixer) -> np.ndarray:
    """A convolution's kernel as ``(kh, kw)``: a conv1d's is one row, a view."""
    return m.kernel.reshape(-1, m.kernel.shape[-1])


def _anchor(k: int, transpose: bool = False) -> int:
    """Input offset of a ``k``-wide kernel's first tap; mirrored for the transpose."""
    return k - 1 - k // 2 if transpose else k // 2


def _diagonals(t: np.ndarray) -> np.ndarray:
    """The view ``v[a, i, j] = t[a, i + j, i]`` of a ``(kh, tile + kw - 1, tile)`` stack."""
    (kh, rows, tile), (s0, s1, s2) = t.shape, t.strides
    return np.ndarray((kh, tile, rows - tile + 1), t.dtype, t, 0, (s0, s1 + s2, s1))


def _toeplitz(kern: np.ndarray, tile: int) -> np.ndarray:
    """Kernel rows as banded matrices: ``t[a, i + j, i] = kern[a, j]``.

    Shape ``(kh, tile + kw - 1, tile)``: a row of ``tile + kw - 1`` padded
    inputs times ``t[a]`` is ``tile`` outputs of the correlation with kernel
    row ``a``.  The taps go in through the ``_diagonals`` view, with no loop.
    """
    kh, kw = kern.shape
    t = np.zeros((kh, tile + kw - 1, tile))
    _diagonals(t)[...] = kern[:, None, :]
    return t


def _runs(start: int, length: int, anchor: int, n: int,
          circular: bool) -> list[tuple[slice, slice | None]]:
    """Padded positions ``start .. start + length - 1`` of an ``n``-long axis
    as ``(position, source)`` slice pairs.  Position ``p`` holds input
    ``p - anchor``, taken modulo ``n`` under circular padding; a ``None``
    source is zero padding."""
    runs, i = [], 0
    while i < length:
        p = start + i - anchor
        if circular or 0 <= p < n:
            p %= n
            size = min(length - i, n - p)
            runs.append((slice(i, i + size), slice(p, p + size)))
        else:
            size = min(length - i, -p) if p < 0 else length - i
            runs.append((slice(i, i + size), None))
        i += size
    return runs


_strips = threading.local()


def _strip(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised ``shape`` view of this thread's strip buffer, grown to fit and kept.

    The buffer starts on a 64-byte cache line: it is cut from an allocation
    7 values longer, since numpy and the allocator guarantee only 16 bytes.
    """
    size = math.prod(shape)
    buf = getattr(_strips, "buf", None)
    if buf is None or buf.size < size:
        raw = np.empty(size + 7)
        start = -raw.ctypes.data % 64 // 8
        buf = _strips.buf = raw[start:start + size]
    return buf[:size].reshape(shape)


def _width(kh: int) -> int:
    """Outputs per tile: ``TILE`` with one kernel row, ``STRIP_TILE`` with more."""
    return TILE if kh == 1 else STRIP_TILE


def _tiled(m: Mixer, x: np.ndarray, transpose: bool, g: np.ndarray | None = None):
    """The Toeplitz route's tiles and their windows: ``(view, slabs)``.

    A grid holds ``x`` with its convolved side split into ``_grid(m)`` (the
    token grid ``(..., H, W, D)`` or the channel grid ``(..., N, H, W)``; a
    conv1d's has one row) and the last convolution axis cut into ``(n_tiles,
    w)``, ``w = _width(kh)``: empty, or ``g`` zero-extended to whole tiles.
    ``view`` is the grid cut back to the view's shape.  ``slabs`` yields
    ``(tiles, slab)`` for groups of tiles: ``tiles``, shaped ``(..., lanes,
    w)``, is the grid's group, and ``slab``, shaped ``(..., lanes, kh * (w +
    kw - 1))``, the whole window of each of its tiles.  The lanes are the
    axis that is not convolved: channels on the token side, tokens on the
    channel side.

    No padded copy of the view is built.  With one kernel row the slabs of
    the tiles whose windows stay inside the view are one strided view of
    ``x``, and the tiles on either side read a padded piece just wide enough
    for them.  With ``kh > 1`` each sample's tile columns are cut into equal
    blocks, as few as keep a strip within ``STRIP_BYTES``: blocks of rows on
    the token side, where the lanes are the strip's inner axis, and of lanes
    on the channel side, where the rows stay whole.  Each block, with its
    ``kh - 1`` halo rows of zeros or wrapped values, is copied into one strip
    of ``(rows + kh - 1) x (w + kw - 1)`` view entries, where a tile's window
    rows are one run.

    Every padded piece is a view of one float64 buffer per thread
    (``_strip``), kept across calls: it holds the largest piece asked for,
    ``(rows + kh - 1) * (w + kw - 1) * lanes * 8`` bytes for a ``kh > 1``
    strip (two blocks of 32 rows, 903 KB each, for an 11x11 kernel on a
    64x64x192 grid).  A slab read from a piece is valid only until the next
    slab is drawn or another convolution runs on the same thread.
    """
    (rows, n), (*batch, tokens, d) = _grid(m), x.shape
    token = m.side == Side.TOKEN
    xv = x.reshape(*batch, rows, n, d) if token else x.reshape(*batch, tokens, rows, n)
    r = len(batch) if token else len(batch) + 1
    ax, lead, circular = r + 1, (slice(None),) * r, m.padding == PadMode.CIRCULAR
    kh, kw = _kernel2d(m).shape
    ah, aw = _anchor(kh, transpose), _anchor(kw, transpose)
    w = _width(kh)
    span, n_tiles = w + kw - 1, -(-n // w)
    shape = xv.shape[:ax] + (n_tiles, w) + xv.shape[ax + 1:]
    extend = g is not None and n % w
    grid = np.zeros(shape) if extend else np.empty(shape) if g is None else g.reshape(shape)
    view = grid.reshape(xv.shape[:ax] + (n_tiles * w,) + xv.shape[ax + 1:])
    view = view[lead + (slice(None), slice(n))]
    if extend:
        view[...] = g.reshape(view.shape)
    lanes = grid.ndim - 1 if token else r - 1
    perm = [i for i in range(grid.ndim) if i not in (lanes, ax + 1)] + [lanes, ax + 1]

    def group(tiles: np.ndarray, src: np.ndarray):
        # the windows of tiles, the first from column 0 of src; the kh window
        # rows merge with the columns when src's rows are span apart
        s = src.strides
        slab = np.lib.stride_tricks.as_strided(
            src, tiles.shape[:ax + 1] + (kh * span,) + tiles.shape[ax + 2:],
            s[:r] + (s[r], w * s[ax], s[ax]) + s[ax + 1:], writeable=False)
        return tiles.transpose(perm), slab.transpose(perm)

    def pieces(at: tuple, r0: int, r1: int, c0: int, c1: int):
        # tiles c0 .. c1 - 1 of rows r0 .. r1 - 1 of the samples (and lanes) at,
        # and a piece of this thread's strip buffer holding their padded windows
        tiles = grid[at + (slice(r0, r1), slice(c0, c1))]
        width = (c1 - c0 - 1) * w + span
        piece = _strip(tiles.shape[:r] + (r1 - r0 + kh - 1, width) + tiles.shape[ax + 2:])
        for (dr, sr), (dc, sc) in itertools.product(
                _runs(r0, r1 - r0 + kh - 1, ah, rows, circular),
                _runs(c0 * w, width, aw, n, circular)):
            piece[lead + (dr, dc)] = 0 if sr is None or sc is None else xv[at + (sr, sc)]
        return group(tiles, piece)

    def slabs():
        if kh > 1:
            # one sample, tile column and block at a time: a strip is cut along
            # its outer axis, into blocks of rows, each with its own halo rows,
            # on the token side and into blocks of lanes on the channel side
            if token:
                size, cap = rows, STRIP_BYTES // (8 * span * max(1, d)) - (kh - 1)
            else:
                size, cap = tokens, STRIP_BYTES // (8 * span * (rows + kh - 1))
            blocks = max(1, -(-size // max(1, cap)))        # as few equal blocks as fit
            step = max(1, -(-size // blocks))
            for sample in np.ndindex(*batch):
                at = tuple(slice(i, i + 1) for i in sample)
                for c, b0 in itertools.product(range(n_tiles), range(0, size, step)):
                    b1 = min(size, b0 + step)
                    yield (pieces(at, b0, b1, c, c + 1) if token
                           else pieces(at + (slice(b0, b1),), 0, rows, c, c + 1))
            return
        # tiles lo .. hi - 1 read only the view's own columns, the others
        # padded pieces just wide enough for them
        lo = min(n_tiles, -(-aw // w))
        hi = max(lo, min(n_tiles, (n + aw - span) // w + 1))
        if hi > lo:
            yield group(grid[lead + (slice(None), slice(lo, hi))],
                        xv[lead + (slice(None), slice(lo * w - aw, None))])
        for c0, c1 in ((0, lo), (hi, n_tiles)):
            if c1 > c0:
                yield pieces(lead, 0, rows, c0, c1)

    return view, slabs()


def _apply_conv(m: Mixer, x: np.ndarray, transpose: bool) -> np.ndarray:
    """Same-size correlation out[i] = sum_j kernel[j] * x[i + j - anchor].

    The transpose of a same-size correlation is correlation with the flipped
    kernel at the mirrored anchor, under both padding modes.

    This is the Toeplitz route, for convolutions of more than ``TILE``
    outputs (``apply_mixer`` multiplies smaller ones by their dense matrix,
    ``_matrix``): one GEMM per tile of ``w = _width(kh)`` outputs, of the
    tile's whole ``kh x (w + kw - 1)`` window, its slab (``_tiled``, which
    builds no padded copy of the input), and the stacked banded matrices
    ``T`` of ``_toeplitz``.  A token-side strip tile is ``T^T @ window``,
    written straight into the grid's ``(w, lanes)`` tile; every other tile
    is ``window @ T``.  Against a tap-by-tap sum only rounding differs,
    within ``1e-13 * sum_tap |kernel[tap] * window|`` elementwise.  A
    non-finite input reaches every output of the tiles that read it
    (``0 * inf`` is NaN).  ``macs_per_vector`` counts the operator's MACs, not
    the zeros inside the banded matrices.
    """
    kern = np.flip(_kernel2d(m)) if transpose else _kernel2d(m)
    w = _width(len(kern))
    view, slabs = _tiled(m, x, transpose)
    t = _toeplitz(kern, w).reshape(-1, w)
    if len(kern) > 1 and m.side == Side.TOKEN:
        tt = np.ascontiguousarray(t.T)
        for tiles, slab in slabs:
            np.matmul(tt, slab.swapaxes(-1, -2), out=tiles.swapaxes(-1, -2))
    else:
        for tiles, slab in slabs:
            np.matmul(slab, t, out=tiles)
    return view.reshape(x.shape)


@functools.lru_cache(maxsize=None)
def _conv_index(sizes: tuple[int, ...], kshape: tuple[int, ...], circular: bool,
                side: Side) -> np.ndarray:
    """Where a convolution's dense matrix reads its kernel: read-only ``idx``.

    ``idx[i, j]`` is the row-major tap by which output ``i`` reads input
    ``j``, or the kernel's size where no tap links them; the channel side's
    matrix is the transpose.  On an ``n``-long axis output ``i`` reads input
    ``j`` through tap ``j - i + _anchor(k)``, taken modulo ``n`` under circular
    padding, so as ``k <= n`` at most one tap links a pair.  The cache is unbounded:
    ``_matrix`` asks only for grids of at most ``TILE`` = 8 cells, which allow 412 keys
    (103 grid and kernel shapes, two paddings, two sides) of at most 8 x 8 indices.
    """
    idx, linked = np.zeros((1, 1), np.intp), np.ones((1, 1), bool)
    for n, k in zip(sizes, kshape):
        i = np.arange(n)
        t = i - i[:, None] + _anchor(k)
        if circular:
            t %= n
        # row (a, i) and column (b, j) of the grid's matrix, from (a, b) and (i, j)
        idx = (idx[:, None, :, None] * k + t[:, None]).reshape(len(idx) * n, -1)
        linked = (linked[:, None, :, None] & ((0 <= t) & (t < k))[:, None]).reshape(idx.shape)
    idx[~linked] = math.prod(kshape)
    if side == Side.CHANNEL:
        idx = idx.T
    idx.setflags(write=False)
    return idx


def _matrix(m: Mixer) -> np.ndarray | None:
    """The matrix that ``apply_mixer`` multiplies by, if it takes one.

    A dense mixer's own, or, for a convolution of at most ``TILE`` outputs,
    its exact dense matrix, gathered from the live kernel on every call
    (``vjp_gradcheck`` perturbs kernels in place).  The route depends on
    ``m.dim`` alone, so batching changes no bit.
    """
    if m.kind == MixerKind.DENSE:
        return m.matrix
    if m.kind in (MixerKind.CONV1D, MixerKind.CONV2D) and m.dim <= TILE:
        idx = _conv_index(_grid(m), _kernel2d(m).shape, m.padding == PadMode.CIRCULAR, m.side)
        return np.append(m.kernel.ravel(), 0.0)[idx]
    return None


def conv_kernel_grad(m: Mixer, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * apply_mixer(m, x)) w.r.t. the convolution kernel.

    The adjoint of ``_apply_conv``'s tiled route, for every size: ``g``
    is zero-extended to whole tiles, the gradient of the stacked banded
    matrices is ``dt = sum slab^T @ g_tile`` over the slabs that the forward
    multiplies by them, and ``dk[a, j] = sum_i dt[a, i + j, i]`` reads the
    diagonals that ``_toeplitz`` writes.  Products are summed in chunks of at most
    ``max(x.size / TILE, kh * (w + kw - 1) * w)`` values, for tiles of ``w`` outputs,
    and one chunk's are live at a time.
    Against each tap's whole-tensor ``sum(g * window)`` only rounding
    differs, within ``1e-13 * sum(|g * window|)`` per tap.
    """
    kh, kw = _kernel2d(m).shape
    w = _width(kh)
    dt = np.zeros((kh * (w + kw - 1), w))
    _, slabs = _tiled(m, x, transpose=False, g=g)
    cap = max(1, x.size // (TILE * dt.size))      # tiles per chunk
    for tiles, slab in slabs:
        *_, rows, count, _, _ = slab.shape
        step = max(1, cap // count), min(count, cap)
        for r0, c0 in itertools.product(range(0, rows, step[0]), range(0, count, step[1])):
            part = (..., slice(r0, r0 + step[0]), slice(c0, c0 + step[1]), slice(None), slice(None))
            dt += np.matmul(slab[part].swapaxes(-1, -2), tiles[part]).reshape(-1, *dt.shape).sum(0)
    return _diagonals(dt.reshape(kh, -1, w)).sum(axis=1).reshape(m.kernel.shape)


def _check_side_dim(m: Mixer, x: np.ndarray) -> None:
    if x.ndim < 2:
        raise ShapeError(f"expected a (..., N, D) tensor, got ndim={x.ndim}")
    need = x.shape[-2] if m.side == Side.TOKEN else x.shape[-1]
    if m.dim != need:
        if m.kind == MixerKind.CONV2D:
            raise LayoutError(
                f"conv2d grid {m.grid_h}x{m.grid_w} (dim {m.dim}) does not match "
                f"tensor side of size {need}"
            )
        raise ShapeError(f"mixer dim {m.dim} does not match tensor side of size {need}")


def _apply(m: Mixer, x: np.ndarray, transpose: bool) -> np.ndarray:
    """The one dispatch by kind: ``m``'s operator, or its transpose, applied to ``x``."""
    _check_side_dim(m, x)
    k = m.kind
    if k == MixerKind.IDENTITY:
        return x.copy()
    if (mat := _matrix(m)) is not None:
        mat = mat.T if transpose else mat
        return mat @ x if m.side == Side.TOKEN else x @ mat
    if k == MixerKind.DIAGONAL:
        return m.diag[:, None] * x if m.side == Side.TOKEN else x * m.diag[None, :]
    if k == MixerKind.LOW_RANK:
        # (L R)^T = R^T L^T: the transpose swaps and transposes the factors
        left, right = (m.right.T, m.left.T) if transpose else (m.left, m.right)
        return left @ (right @ x) if m.side == Side.TOKEN else (x @ left) @ right
    return _apply_conv(m, x, transpose)


def apply_mixer(m: Mixer, x: np.ndarray) -> np.ndarray:
    """Apply ``m`` to ``x``: token side computes M @ x, channel side x @ M.
    Leading batch axes of ``x`` broadcast."""
    return _apply(m, x, transpose=False)


def apply_mixer_transpose(m: Mixer, g: np.ndarray) -> np.ndarray:
    """Apply the transpose of the implicit operator (token: M.T @ g)."""
    return _apply(m, g, transpose=True)


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of equal shapes; one MAC per entry."""
    if a.shape != b.shape:
        raise ShapeError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    return a * b


# ---------------------------------------------------------------------------
# Weight container
#
# Flat binary layout: 8-byte magic "PADREW01", little-endian u32 record
# count, then per record: u8 kind tag, u8 side tag, u32 dim, u32 param
# count, followed by that many raw little-endian float64 values.  A
# container holds one manifest record, then one record per mixer, then one
# per raw 2-D tensor.  Integral structure fields (ranks, kernel sizes, grid
# extents) ride along as exact f64 values at the head of a payload.
# ---------------------------------------------------------------------------

Record = tuple[int, int, int, np.ndarray]
#: manifest fields as (name, type) pairs: ``int`` and ``bool`` fields hold
#: exact nonnegative integers (``bool`` ones 0 or 1), ``float`` ones any value
Fields = tuple[tuple[str, type], ...]
#: what a container holds: manifest values by field name, mixers, 2-D tensors
Parts = tuple[dict, list[Mixer], list[np.ndarray]]
T = TypeVar("T")


def _is_count(v: float) -> bool:
    """Whether ``v`` is an integer in [0, 2**53], where f64 holds every integer."""
    return v.is_integer() and math.copysign(1.0, v) > 0 and v <= 2 ** 53


def _ints(params: np.ndarray, count: int, what: str) -> list[int]:
    """The first ``count`` payload values, each a nonnegative integer."""
    head = params[:count].tolist()
    if len(head) != count or not all(map(_is_count, head)):
        raise SerializationError(f"{what} {head} is not {count} nonnegative integers")
    return [int(v) for v in head]


#: how many integral fields head each mixer kind's payload
_HEAD_SIZE = {MixerKind.LOW_RANK: 1, MixerKind.CONV1D: 2, MixerKind.CONV2D: 5}


def _mixer_head(m: Mixer) -> list[int]:
    """The integral fields at the head of a payload of a kind in ``_HEAD_SIZE``."""
    if m.kind == MixerKind.LOW_RANK:
        return [m.left.shape[1]]
    if m.kind == MixerKind.CONV1D:
        return [int(m.padding), m.kernel.shape[0]]
    return [int(m.padding), *m.kernel.shape, m.grid_h, m.grid_w]


def mixer_to_record(m: Mixer) -> Record:
    arrays = [a.ravel() for _, a in m.param_arrays()]
    if m.kind in _HEAD_SIZE:
        arrays.insert(0, _mixer_head(m))
    params = arrays[0] if len(arrays) == 1 else np.concatenate(arrays or [np.empty(0)])
    return (int(m.kind), int(m.side), m.dim, params)


def mixer_from_record(rec: Record) -> Mixer:
    """Decode a mixer record; the reshapes check the payload size exactly."""
    tag, side, dim, params = rec
    n_head = _HEAD_SIZE.get(tag, 0)
    head, body = (_ints(params, n_head, "mixer header") if n_head else []), params[n_head:]
    try:
        kind, side = MixerKind(tag), Side(side)
        if kind == MixerKind.DENSE:
            fields = {"matrix": body.reshape(dim, dim)}
        elif kind == MixerKind.DIAGONAL:
            fields = {"diag": body.reshape(dim)}
        elif kind == MixerKind.LOW_RANK:
            r = head[0]
            fields = {"left": body[:dim * r].reshape(dim, r), "right": body[dim * r:].reshape(r, dim)}
        elif kind == MixerKind.IDENTITY:
            if body.size:
                raise ShapeError("an identity mixer has no parameters")
            fields = {}
        elif kind == MixerKind.CONV1D:
            fields = {"padding": PadMode(head[0]), "kernel": body.reshape(head[1])}
        else:
            fields = {"padding": PadMode(head[0]), "kernel": body.reshape(head[1], head[2]),
                      "grid_h": head[3], "grid_w": head[4]}
        return Mixer(side=side, kind=kind, dim=dim, **fields)
    except (ValueError, NumericError) as exc:
        raise SerializationError(f"bad mixer record (kind tag {tag}): {exc}") from exc


def raw_tensor_record(a: np.ndarray) -> Record:
    a = _as_f64(np.atleast_2d(a))
    params = np.concatenate([[float(a.shape[1])], a.ravel()])
    return (RAW_TENSOR_TAG, 0, a.shape[0], params)


def raw_tensor_from_record(rec: Record) -> np.ndarray:
    _, side, rows, params = rec
    if side != 0:
        raise SerializationError(f"raw tensor record has side tag {side}, not 0")
    (cols,) = _ints(params, 1, "raw tensor column count")
    if len(params) != 1 + rows * cols:
        raise SerializationError(f"raw {rows} x {cols} tensor record holds {len(params) - 1} values")
    return params[1:].reshape(rows, cols).copy()


def pack_records(version: float, fields: Fields, parts: Parts) -> list[Record]:
    """The records of a container: its manifest, then its mixers, then its tensors."""
    values, mixers, tensors = parts
    manifest = _as_f64([version] + [values[name] for name, _ in fields])
    return ([(MANIFEST_TAG, 0, 0, manifest)]
            + [mixer_to_record(m) for m in mixers] + [raw_tensor_record(a) for a in tensors])


def unpack_records(records: list[Record], version: float, fields: Fields,
                   build: Callable[[dict, list[Mixer], list[np.ndarray]], T],
                   parts: Callable[[T], Parts]) -> T:
    """Decode what ``pack_records`` wrote and ``build(values, mixers, tensors)``.

    The records must be a manifest holding ``version`` and a valid value for
    each of ``fields``, then mixer records, then raw tensors.  A rejection
    raised while building is reported as ``SerializationError``.  ``parts``
    of the result must give back the decoded manifest values and tensor
    shapes, so every container that loads saves again to the same bytes.
    """
    if not records or records[0][:3] != (MANIFEST_TAG, 0, 0):
        raise SerializationError("container does not start with a manifest record")
    man = records[0][3]
    if man.size != 1 + len(fields) or man[0] != version:
        raise SerializationError(f"manifest is not {1 + len(fields)} values "
                                 f"starting with version {version}")
    values = {}
    for (name, kind), v in zip(fields, man[1:].tolist()):
        if kind is not float and not (_is_count(v) and (kind is int or v <= 1)):
            raise SerializationError(f"manifest {name} {v!r} is not a valid {kind.__name__}")
        values[name] = kind(v)
    tags = [r[0] for r in records[1:]]
    n_mixers = sum(t < RAW_TENSOR_TAG for t in tags)
    if any(t != RAW_TENSOR_TAG for t in tags[n_mixers:]):
        raise SerializationError("records are not the manifest, then mixers, then tensors")
    mixers = [mixer_from_record(r) for r in records[1:1 + n_mixers]]
    tensors = [raw_tensor_from_record(r) for r in records[1 + n_mixers:]]
    try:
        obj = build(values, mixers, tensors)
    except (ValueError, NumericError) as exc:
        raise SerializationError(f"container rejected: {exc}") from exc
    again, _, again_tensors = parts(obj)
    if again != values or [a.shape for a in again_tensors] != [a.shape for a in tensors]:
        raise SerializationError("manifest or tensor shapes disagree with what they decode to")
    return obj


def write_records(f: BinaryIO | str, records: list[Record]) -> None:
    if isinstance(f, str):
        with open(f, "wb") as fh:
            write_records(fh, records)
        return
    f.write(MAGIC)
    f.write(struct.pack("<I", len(records)))
    for kind, side, dim, params in records:
        params = _as_f64(params)
        f.write(struct.pack("<BBII", kind, side, dim, params.size))
        f.write(params.astype("<f8").tobytes())


def read_records(f: BinaryIO | str) -> list[Record]:
    if isinstance(f, str):
        with open(f, "rb") as fh:
            return read_records(fh)
    # parse from memory: a buffered file's read(n) allocates n bytes first, so a
    # payload declared 2**32 values long would raise MemoryError instead
    f = io.BytesIO(f.read())
    if f.read(8) != MAGIC:
        raise SerializationError("bad magic; not a weight container")
    head = f.read(4)
    if len(head) != 4:
        raise SerializationError("truncated record count")
    (count,) = struct.unpack("<I", head)
    records = []
    for _ in range(count):
        head = f.read(10)
        if len(head) != 10:
            raise SerializationError("truncated record header")
        kind, side, dim, n = struct.unpack("<BBII", head)
        payload = f.read(8 * n)
        if len(payload) != 8 * n:
            raise SerializationError("truncated record payload")
        records.append((kind, side, dim, np.frombuffer(payload, dtype="<f8").copy()))
    if f.read(1):
        raise SerializationError("trailing bytes after the last record")
    return records
