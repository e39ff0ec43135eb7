"""Dense N x D activation tensors, structured linear mixers, and MAC accounting.

Conventions used throughout the package:

* Activations are plain 2-D ``float64`` numpy arrays of shape ``(N, D)``
  (N tokens by D channels).
* A token-side mixer is a linear operator acting on the left (an implicit
  N x N matrix); a channel-side mixer acts on the right (D x D).
* Cost is tracked in multiply-accumulates; 1 MAC = 2 FLOPs.  Convolution
  counts exclude taps that fall on zero padding, so boundary outputs are
  cheaper than interior ones; circular padding always uses the full kernel.
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

MAGIC = b"PADREW01"

#: serialization tags for non-mixer payloads
RAW_TENSOR_TAG = 200
MANIFEST_TAG = 201

#: output bytes per band of the convolution tap loop; a band's output and
#: padded input should fit in a core's L2 cache
BAND_BYTES = 256 * 1024


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class LayoutError(ValueError):
    """A grid-structured operator does not match the declared token layout."""


class SizeCapError(ValueError):
    """An oracle-only operation was asked to run beyond its size cap."""


class SerializationError(ValueError):
    """A weight container is malformed or truncated."""


class NumericError(ArithmeticError):
    """A non-finite value appeared; ``stage`` names the first offending step."""

    def __init__(self, stage: str, message: str = ""):
        self.stage = stage
        super().__init__(message or f"non-finite values produced at stage {stage!r}")


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

    @property
    def macs(self) -> int:
        return self.token_mix + self.channel_mix + self.hadamard + self.combine + self.resize

    @property
    def flops(self) -> int:
        return 2 * self.macs


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


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
        if self.dim < 1:
            raise ShapeError(f"mixer dim must be positive, got {self.dim}")
        k = self.kind
        if k == MixerKind.DENSE:
            if self.matrix is None or self.matrix.shape != (self.dim, self.dim):
                raise ShapeError("dense mixer needs a dim x dim matrix")
        elif k == MixerKind.DIAGONAL:
            if self.diag is None or self.diag.shape != (self.dim,):
                raise ShapeError("diagonal mixer needs a length-dim diagonal")
        elif k == MixerKind.LOW_RANK:
            if self.left is None or self.right is None:
                raise ShapeError("low-rank mixer needs left/right factors")
            r = self.left.shape[1]
            if self.left.shape != (self.dim, r) or self.right.shape != (r, self.dim):
                raise ShapeError("low-rank factors must be dim x r and r x dim")
            if r > self.dim:
                raise ShapeError(f"low-rank rank {r} exceeds dim {self.dim}")
        elif k == MixerKind.CONV1D:
            if self.kernel is None or self.kernel.ndim != 1 or self.kernel.shape[0] < 1:
                raise ShapeError("conv1d mixer needs a 1-D kernel")
            if self.kernel.shape[0] > self.dim:
                raise ShapeError("conv1d kernel longer than the mixed dimension")
        elif k == MixerKind.CONV2D:
            if self.kernel is None or self.kernel.ndim != 2:
                raise ShapeError("conv2d mixer needs a 2-D kernel")
            if self.grid_h * self.grid_w != self.dim:
                raise LayoutError(
                    f"conv2d grid {self.grid_h}x{self.grid_w} does not cover dim {self.dim}"
                )
            kh, kw = self.kernel.shape
            if kh > self.grid_h or kw > self.grid_w:
                raise ShapeError("conv2d kernel larger than the grid")
        elif k != MixerKind.IDENTITY:
            raise ValueError(f"unknown mixer kind {k}")
        for arr in (self.matrix, self.diag, self.left, self.right, self.kernel):
            if arr is not None and not np.isfinite(arr).all():
                raise NumericError("mixer-params", "mixer parameters must be finite")

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
        k = self.kind
        if k == MixerKind.DENSE:
            return self.dim * self.dim
        if k == MixerKind.DIAGONAL:
            return self.dim
        if k == MixerKind.LOW_RANK:
            return self.left.size + self.right.size
        if k in (MixerKind.CONV1D, MixerKind.CONV2D):
            return self.kernel.size
        return 0

    def macs_per_vector(self) -> int:
        """MACs for one matrix-vector product with the implicit operator."""
        k = self.kind
        if k == MixerKind.DENSE:
            return self.dim * self.dim
        if k == MixerKind.DIAGONAL:
            return self.dim
        if k == MixerKind.LOW_RANK:
            return self.left.size + self.right.size
        if k == MixerKind.CONV1D:
            if self.padding == PadMode.CIRCULAR:
                return self.dim * self.kernel.shape[0]
            return _conv_taps(self.dim, self.kernel.shape[0], self.kernel.shape[0] // 2)
        if k == MixerKind.CONV2D:
            kh, kw = self.kernel.shape
            if self.padding == PadMode.CIRCULAR:
                return self.dim * kh * kw
            th = _conv_taps(self.grid_h, kh, kh // 2)
            tw = _conv_taps(self.grid_w, kw, kw // 2)
            return th * tw
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


def _conv_taps(n: int, k: int, anchor: int) -> int:
    """Total non-padding taps of a same-size zero-padded correlation."""
    i = np.arange(n)
    lo = np.maximum(0, i - anchor)
    hi = np.minimum(n - 1, i + (k - 1 - anchor))
    return int(np.sum(hi - lo + 1))


def _conv_padded(m: Mixer, x: np.ndarray,
                 transpose: bool) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """View ``x`` with the convolution axes split out, and pad it.

    Returns the view (token grid ``(H, W, D)``, channel grid ``(N, H, W)``,
    or ``x`` itself for conv1d), its padded copy and the convolution axes.
    The copy is built directly: zeros with the view copied into the
    interior, or a modular ``take`` per axis for circular padding.  With
    ``transpose`` the anchor is mirrored.
    """
    n, d = x.shape
    if m.kind == MixerKind.CONV1D:
        xv, axes = x, (0 if m.side == Side.TOKEN else 1,)
    elif m.side == Side.TOKEN:
        xv, axes = x.reshape(m.grid_h, m.grid_w, d), (0, 1)
    else:
        xv, axes = x.reshape(n, m.grid_h, m.grid_w), (1, 2)
    pads = [(ax, k, k - 1 - k // 2 if transpose else k // 2)
            for ax, k in zip(axes, m.kernel.shape)]
    if m.padding == PadMode.CIRCULAR:
        xp = xv
        for ax, k, before in pads:
            size = xv.shape[ax]
            xp = xp.take(np.arange(-before, size + k - 1 - before) % size, axis=ax)
        return xv, xp, axes
    shape, interior = list(xv.shape), [slice(None)] * xv.ndim
    for ax, k, before in pads:
        shape[ax] += k - 1
        interior[ax] = slice(before, before + xv.shape[ax])
    xp = np.zeros(shape, dtype=xv.dtype)
    xp[tuple(interior)] = xv
    return xv, xp, axes


def _windows(xp: np.ndarray, axes: tuple[int, ...], kshape: tuple[int, ...]):
    """Yield ``(tap, view)`` in row-major tap order: ``xp`` shifted by each tap."""
    sl = [slice(None)] * xp.ndim
    for tap in itertools.product(*map(range, kshape)):
        for ax, t, k in zip(axes, tap, kshape):
            sl[ax] = slice(t, t + xp.shape[ax] - k + 1)
        yield tap, xp[tuple(sl)]


def _apply_conv(m: Mixer, x: np.ndarray, transpose: bool) -> np.ndarray:
    """Same-size correlation out[i] = sum_j kernel[j] * x[i + j - anchor].

    The transpose of a same-size correlation is correlation with the flipped
    kernel at the mirrored anchor, under both padding modes.

    The tap loop runs band by band over the view's leading axis, so one
    band's output and padded input stay in cache across all taps.  Each
    output element still receives the same updates in the same tap order,
    so the result is bit-identical to a single pass over the whole view.
    """
    xv, xp, axes = _conv_padded(m, x, transpose)
    kern = np.flip(m.kernel) if transpose else m.kernel
    # when the leading axis is convolved, a band's taps read k0 - 1 more padded rows
    halo = kern.shape[0] - 1 if axes[0] == 0 else 0
    out = np.zeros_like(xv)
    rows = max(1, BAND_BYTES * len(out) // max(1, out.nbytes))
    for r0 in range(0, out.shape[0], rows):
        band = out[r0:r0 + rows]
        for tap, win in _windows(xp[r0:r0 + band.shape[0] + halo], axes, kern.shape):
            band += kern[tap] * win
    return out.reshape(x.shape)


def conv_kernel_grad(m: Mixer, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * apply_mixer(m, x)) w.r.t. the convolution kernel."""
    xv, xp, axes = _conv_padded(m, x, transpose=False)
    gv = g.reshape(xv.shape)
    dk = np.empty(m.kernel.shape)
    for tap, win in _windows(xp, axes, dk.shape):
        dk[tap] = np.sum(gv * win)
    return dk


def _check_side_dim(m: Mixer, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D tensor, got ndim={x.ndim}")
    need = x.shape[0] if m.side == Side.TOKEN else x.shape[1]
    if m.dim != need:
        if m.kind == MixerKind.CONV2D:
            raise LayoutError(
                f"conv2d grid {m.grid_h}x{m.grid_w} (dim {m.dim}) does not match "
                f"tensor side of size {need}"
            )
        raise ShapeError(f"mixer dim {m.dim} does not match tensor side of size {need}")


def apply_mixer(m: Mixer, x: np.ndarray, ledger: FlopLedger | None = None) -> np.ndarray:
    """Apply ``m`` to ``x``: token side computes M @ x, channel side x @ M."""
    _check_side_dim(m, x)
    other = x.shape[1] if m.side == Side.TOKEN else x.shape[0]
    k = m.kind
    if k == MixerKind.IDENTITY:
        out = x.copy()
    elif k == MixerKind.DENSE:
        out = m.matrix @ x if m.side == Side.TOKEN else x @ m.matrix
    elif k == MixerKind.DIAGONAL:
        out = m.diag[:, None] * x if m.side == Side.TOKEN else x * m.diag[None, :]
    elif k == MixerKind.LOW_RANK:
        if m.side == Side.TOKEN:
            out = m.left @ (m.right @ x)
        else:
            out = (x @ m.left) @ m.right
    else:
        out = _apply_conv(m, x, transpose=False)
    if ledger is not None:
        cat = "token_mix" if m.side == Side.TOKEN else "channel_mix"
        ledger.add(cat, m.macs_per_vector() * other)
    return out


def apply_mixer_transpose(m: Mixer, g: np.ndarray) -> np.ndarray:
    """Apply the transpose of the implicit operator (token: M.T @ g)."""
    _check_side_dim(m, g)
    k = m.kind
    if k == MixerKind.IDENTITY:
        return g.copy()
    if k == MixerKind.DENSE:
        return m.matrix.T @ g if m.side == Side.TOKEN else g @ m.matrix.T
    if k == MixerKind.DIAGONAL:
        return m.diag[:, None] * g if m.side == Side.TOKEN else g * m.diag[None, :]
    if k == MixerKind.LOW_RANK:
        if m.side == Side.TOKEN:
            return m.right.T @ (m.left.T @ g)
        return (g @ m.right.T) @ m.left.T
    return _apply_conv(m, g, transpose=True)


def mixer_as_dense(m: Mixer, cap: int = 64) -> np.ndarray:
    """Materialize the implicit matrix by probing with basis vectors.

    Oracle-only: refuses dims above ``cap``.  Token side returns M with
    apply(m, x) == M @ x; channel side returns M with apply(m, x) == x @ M.
    """
    if m.dim > cap:
        raise SizeCapError(f"mixer_as_dense is capped at dim {cap}, got {m.dim}")
    eye = np.eye(m.dim)
    return apply_mixer(m, eye)


def hadamard(a: np.ndarray, b: np.ndarray, ledger: FlopLedger | None = None) -> np.ndarray:
    """Elementwise product; counts one MAC per entry."""
    if a.shape != b.shape:
        raise ShapeError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    if ledger is not None:
        ledger.add("hadamard", a.size)
    return a * b


# ---------------------------------------------------------------------------
# Weight container
#
# Flat binary layout: 8-byte magic "PADREW01", little-endian u32 record
# count, then per record: u8 kind tag, u8 side tag, u32 dim, u32 param
# count, followed by that many raw little-endian float64 values.  Integral
# structure fields (ranks, kernel sizes, grid extents) ride along as exact
# f64 values at the head of the parameter payload.
# ---------------------------------------------------------------------------

Record = tuple[int, int, int, np.ndarray]


def mixer_to_record(m: Mixer) -> Record:
    k = m.kind
    if k == MixerKind.DENSE:
        params = m.matrix.ravel()
    elif k == MixerKind.DIAGONAL:
        params = m.diag
    elif k == MixerKind.LOW_RANK:
        r = m.left.shape[1]
        params = np.concatenate([[float(r)], m.left.ravel(), m.right.ravel()])
    elif k == MixerKind.CONV1D:
        params = np.concatenate([[float(m.padding), float(m.kernel.shape[0])], m.kernel])
    elif k == MixerKind.CONV2D:
        kh, kw = m.kernel.shape
        head = [float(m.padding), float(kh), float(kw), float(m.grid_h), float(m.grid_w)]
        params = np.concatenate([head, m.kernel.ravel()])
    else:
        params = np.empty(0)
    return (int(k), int(m.side), m.dim, _as_f64(params))


def mixer_from_record(rec: Record) -> Mixer:
    kind, side, dim, params = rec
    try:
        kind, side = MixerKind(kind), Side(side)
    except ValueError as exc:
        raise SerializationError(f"bad mixer record: {exc}") from None
    if kind == MixerKind.DENSE:
        return Mixer.dense(side, params.reshape(dim, dim))
    if kind == MixerKind.DIAGONAL:
        return Mixer.diagonal(side, params)
    if kind == MixerKind.LOW_RANK:
        r = int(params[0])
        left = params[1:1 + dim * r].reshape(dim, r)
        right = params[1 + dim * r:].reshape(r, dim)
        return Mixer.low_rank(side, left, right)
    if kind == MixerKind.CONV1D:
        pad, k = PadMode(int(params[0])), int(params[1])
        return Mixer.conv1d(side, params[2:2 + k], dim, pad)
    if kind == MixerKind.CONV2D:
        pad = PadMode(int(params[0]))
        kh, kw, gh, gw = (int(v) for v in params[1:5])
        return Mixer.conv2d(side, params[5:5 + kh * kw].reshape(kh, kw), gh, gw, pad)
    return Mixer.identity(side, dim)         # the one kind left: IDENTITY


def raw_tensor_record(a: np.ndarray) -> Record:
    a = _as_f64(np.atleast_2d(a))
    params = np.concatenate([[float(a.shape[1])], a.ravel()])
    return (RAW_TENSOR_TAG, 0, a.shape[0], params)


def raw_tensor_from_record(rec: Record) -> np.ndarray:
    _, _, rows, params = rec
    cols = int(params[0])
    return params[1:1 + rows * cols].reshape(rows, cols).copy()


def manifest_record(values: list[float]) -> Record:
    return (MANIFEST_TAG, 0, 0, _as_f64(values))


def manifest_values(records: list[Record], version: float, size: int) -> np.ndarray:
    """The leading manifest's ``size`` values; the first must be ``version``."""
    if (not records or records[0][0] != MANIFEST_TAG or records[0][3].size != size
            or records[0][3][0] != version):
        raise SerializationError(
            f"container does not start with a {size}-value version-{version} manifest")
    return records[0][3]


def manifest_int(value: float, name: str, least: int) -> int:
    """An integral manifest field; it must be an integer >= ``least``."""
    if not (float(value).is_integer() and value >= least):
        raise SerializationError(f"manifest {name} {value!r} is not an integer >= {least}")
    return int(value)


def check_record_count(records: list[Record], expected: int) -> None:
    """Raise unless the container holds the ``expected`` number of records."""
    if len(records) != expected:
        raise SerializationError(
            f"container holds {len(records)} records; its manifest implies {expected}")


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
    return records
