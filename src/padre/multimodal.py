"""Cross-modal cascades: Hadamard chains that interleave per-mode features.

Every registered mode is first projected to one common N' x D' shape, then
contributes its own bank of per-degree linear features.  A mode sequence
like "aab" selects which mode feeds each level of the cascade, so the top
tap is jointly homogeneous: scaling mode a by alpha and mode b by beta
scales an "aab" tap by alpha^2 * beta.  Sequences that never mix modes are
rejected outright when more than one mode is registered, since they add no
cross-terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import PadreBlock, _stages, _uniform, features, random_mixer
from .tensor import Mixer, ShapeError, Side, as_compute, require_finite


class TrivialSequenceError(ValueError):
    """A mode sequence uses a single mode although several are registered."""


class MissingModeError(KeyError):
    """An input for a registered mode was not supplied."""


@dataclass
class ModeSpec:
    """Input shape of one mode plus its projection to the common shape."""

    n_in: int
    d_in: int
    proj_left: np.ndarray | None = None    # N' x N_m, None when already N'
    proj_right: np.ndarray | None = None   # D_m x D', None when already D'


@dataclass(eq=False)
class MultimodalBlock:
    modes: dict[str, ModeSpec]
    banks: dict[str, tuple[list[Mixer], list[Mixer]]]   # per mode: token/channel per degree
    inter_token: list[Mixer]
    inter_channel: list[Mixer]
    sequences: list[str]              # one mode label per level, e.g. "aab"
    weights: dict[int, np.ndarray]    # per sequence index: D' x d combine weights
    degree: int = field(init=False)   # the banks' length; N' x D', what the chains act on
    n_out: int = field(init=False)
    d_out: int = field(init=False)

    def __post_init__(self):
        if not self.sequences:
            raise ShapeError("need at least one mode sequence")
        d = self.degree = len(next(iter(self.banks.values()), ((),))[0])
        for mode, (tok, ch) in self.banks.items():
            if len(tok) != d or len(ch) != d:
                raise ShapeError(f"mode {mode!r} needs {d} token and channel mixers")
        self.weights = {k: np.asarray(w, dtype=np.float64) for k, w in self.weights.items()}
        for s_idx, seq in enumerate(self.sequences):
            if len(seq) != d:
                raise ShapeError(f"sequence {seq!r} length != degree {d}")
            unknown = set(seq) - (self.modes.keys() & self.banks.keys())
            if unknown:
                raise ShapeError(f"sequence reads modes with no spec or bank: {sorted(unknown)}")
            if len(self.modes) > 1 and len(set(seq)) < 2:
                raise TrivialSequenceError(f"sequence {seq} has no cross-terms")
            if s_idx not in self.weights:
                raise ShapeError(f"no combine weights for sequence {s_idx} ({seq!r})")
            if self.weights[s_idx].ndim != 2:
                raise ShapeError(f"combine weights for sequence {s_idx} are not D' x d")
        chain = chain_blocks(self)[0]   # they check banks, inter mixers, W and share N' x D'
        self.n_out, self.d_out = chain.n_tokens, chain.n_channels
        for mode, spec in self.modes.items():
            # an absent projection is the identity, so its sides must already agree
            for proj, (rows, cols) in ((spec.proj_left, (self.n_out, spec.n_in)),
                                       (spec.proj_right, (spec.d_in, self.d_out))):
                if not (rows == cols if proj is None else np.shape(proj) == (rows, cols)):
                    raise ShapeError(f"mode {mode!r} does not project ({spec.n_in}, {spec.d_in}) "
                                     f"to ({self.n_out}, {self.d_out})")
                if proj is not None:
                    require_finite(proj, f"proj[{mode}]",
                                   f"mode {mode!r}'s projection must be finite")


def chain_blocks(block: MultimodalBlock) -> list[PadreBlock]:
    """Each sequence as a ``PadreBlock`` over the block's own arrays: level i's
    bank mixers from mode ``seq[i]``, the shared inter-degree mixers, the
    sequence's CHANNEL_BROADCAST weights, and every degree in the mask."""
    return [PadreBlock(
        token_mixers=[block.banks[m][0][i] for i, m in enumerate(seq)],
        channel_mixers=[block.banks[m][1][i] for i, m in enumerate(seq)],
        inter_token=block.inter_token, inter_channel=block.inter_channel,
        weights=block.weights[s_idx], degree_mask=frozenset(range(1, block.degree + 1)))
        for s_idx, seq in enumerate(block.sequences)]


@dataclass
class MultimodalTrace:
    taps: list[list[np.ndarray]]     # per sequence: Z_1..Z_d


@np.errstate(over="ignore", invalid="ignore")
def multimodal_forward(block: MultimodalBlock,
                       inputs: dict[str, np.ndarray]) -> tuple[np.ndarray, MultimodalTrace]:
    """Sum every sequence's chain (``chain_blocks``), each run through
    ``forward``'s stages; returns the sum and each chain's taps Z_1..Z_d.

    Each input is cast as ``forward`` casts x.  Each bank level that a
    sequence reads is made once, through ``block.features``; a level that
    no sequence reads is not made.  A non-finite stage raises
    ``NumericError`` with no numpy warning before it: sequence by sequence,
    the first non-finite raw Y_i it reads, Z_2..Z_d or its P, as ``forward``
    names them; then P, the sum.  Against one running sum of all weighted
    taps only the order of the additions differs: each entry is within
    ``2 n u S`` of it, for n taps, unit roundoff u and S the sum of the
    weighted taps' moduli.
    """
    missing = set(block.modes) - set(inputs)
    if missing:
        raise MissingModeError(f"missing inputs for modes {sorted(missing)}")
    projected: dict[str, np.ndarray] = {}
    for mode, spec in block.modes.items():
        x = as_compute(inputs[mode])
        if x.shape != (spec.n_in, spec.d_in):
            raise ShapeError(f"mode {mode!r} input shape {x.shape} != "
                             f"({spec.n_in}, {spec.d_in})")
        if spec.proj_left is not None:
            x = spec.proj_left @ x
        if spec.proj_right is not None:
            x = x @ spec.proj_right
        projected[mode] = x
    # (m, i): the raw level Y_{i+1} of mode m's bank, made once if a sequence reads it
    ys = {(m, i): features(block.banks[m][0][i:i + 1], block.banks[m][1][i:i + 1], projected[m])[0]
          for m, i in dict.fromkeys((m, i) for seq in block.sequences for i, m in enumerate(seq))}
    out, taps = None, []
    for seq, chain in zip(block.sequences, chain_blocks(block)):
        p, trace = _stages(chain, None, [ys[mode, i] for i, mode in enumerate(seq)])
        taps.append(trace.z)
        out = p if out is None else np.add(out, p, out=out)
    require_finite(out, "P")
    return out, MultimodalTrace(taps=taps)


def build_multimodal(mode_shapes: dict[str, tuple[int, int]], n_out: int, d_out: int,
                     degree: int, sequences: list[str], seed: int = 0) -> MultimodalBlock:
    """Seeded block: dense projections where shapes differ, and banks and
    inter-degree mixers drawn from ``MIXER_MENU``."""
    rng = np.random.default_rng(seed)
    modes, banks = {}, {}
    for mode, (n_in, d_in) in mode_shapes.items():
        modes[mode] = ModeSpec(
            n_in=n_in, d_in=d_in,
            proj_left=None if n_in == n_out else _uniform(rng, (n_out, n_in), n_in),
            proj_right=None if d_in == d_out else _uniform(rng, (d_in, d_out), d_in),
        )
        banks[mode] = (
            [random_mixer(rng, Side.TOKEN, n_out) for _ in range(degree)],
            [random_mixer(rng, Side.CHANNEL, d_out) for _ in range(degree)],
        )
    return MultimodalBlock(
        modes=modes, banks=banks,
        inter_token=[random_mixer(rng, Side.TOKEN, n_out) for _ in range(degree - 1)],
        inter_channel=[random_mixer(rng, Side.CHANNEL, d_out) for _ in range(degree - 1)],
        sequences=list(sequences),
        weights={i: _uniform(rng, (d_out, degree), 1) for i in range(len(sequences))},
    )
