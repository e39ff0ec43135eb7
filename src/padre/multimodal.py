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

from dataclasses import dataclass

import numpy as np

from .block import (PadreBlock, WMode, _add_term, _first_nonfinite, _uniform, cascade, features,
                    random_mixer)
from .tensor import Mixer, NumericError, ShapeError, Side


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
    degree: int
    n_out: int
    d_out: int
    modes: dict[str, ModeSpec]
    banks: dict[str, tuple[list[Mixer], list[Mixer]]]   # per mode: token/channel per degree
    inter_token: list[Mixer]
    inter_channel: list[Mixer]
    sequences: list[str]              # one mode label per level, e.g. "aab"
    weights: dict[int, np.ndarray]    # per sequence index: D' x d combine weights

    def __post_init__(self):
        d = self.degree
        if not self.sequences:
            raise ShapeError("need at least one mode sequence")
        for mode, (tok, ch) in self.banks.items():
            if len(tok) != d or len(ch) != d:
                raise ShapeError(f"mode {mode!r} needs {d} token and channel mixers")
        for mode, spec in self.modes.items():
            # an absent projection is the identity, so its sides must already agree
            for proj, (rows, cols) in ((spec.proj_left, (self.n_out, spec.n_in)),
                                       (spec.proj_right, (spec.d_in, self.d_out))):
                if not (rows == cols if proj is None else np.shape(proj) == (rows, cols)):
                    raise ShapeError(f"mode {mode!r} does not project ({spec.n_in}, {spec.d_in}) "
                                     f"to ({self.n_out}, {self.d_out})")
                if proj is not None and not np.isfinite(proj).all():
                    raise NumericError(f"proj[{mode}]", f"mode {mode!r}'s projection must be finite")
        for s_idx, seq in enumerate(self.sequences):
            if len(seq) != d:
                raise ShapeError(f"sequence {seq!r} length != degree {d}")
            unknown = set(seq) - set(self.modes)
            if unknown:
                raise ShapeError(f"sequence uses unregistered modes {sorted(unknown)}")
            if len(self.modes) > 1 and len(set(seq)) < 2:
                raise TrivialSequenceError(f"sequence {seq} has no cross-terms")
            if s_idx not in self.weights:
                raise ShapeError(f"no combine weights for sequence {s_idx} ({seq!r})")
            # a sequence is a PadreBlock: level i's bank mixers from mode seq[i], the
            # shared inter mixers and its CHANNEL_BROADCAST weights; building it checks them
            PadreBlock(
                degree=d, n_tokens=self.n_out, n_channels=self.d_out,
                token_mixers=[self.banks[m][0][i] for i, m in enumerate(seq)],
                channel_mixers=[self.banks[m][1][i] for i, m in enumerate(seq)],
                inter_token=self.inter_token, inter_channel=self.inter_channel,
                w_mode=WMode.CHANNEL_BROADCAST, weights=self.weights[s_idx],
                degree_mask=frozenset(range(1, d + 1)))


@dataclass
class MultimodalTrace:
    taps: list[list[np.ndarray]]     # per sequence: Z_1..Z_d


@np.errstate(over="ignore", invalid="ignore")
def multimodal_forward(block: MultimodalBlock,
                       inputs: dict[str, np.ndarray]) -> tuple[np.ndarray, MultimodalTrace]:
    """Combine every sequence's cascade; a non-finite stage raises ``NumericError``
    with no numpy warning before it.

    As in ``forward``, finiteness is checked once, at P: every chain sums all
    its taps, so a non-finite bank level or tap that a sequence reads leaves
    P non-finite.  Only then are the banks walked, mode by mode Y_1..Y_d, and
    then each sequence's Z_2..Z_d, to name the first non-finite stage.  A
    bank level that no sequence reads cannot reach P and is checked when made.
    """
    missing = set(block.modes) - set(inputs)
    if missing:
        raise MissingModeError(f"missing inputs for modes {sorted(missing)}")
    projected: dict[str, np.ndarray] = {}
    for mode, spec in block.modes.items():
        x = inputs[mode]
        if x.shape != (spec.n_in, spec.d_in):
            raise ShapeError(f"mode {mode!r} input shape {x.shape} != "
                             f"({spec.n_in}, {spec.d_in})")
        if spec.proj_left is not None:
            x = spec.proj_left @ x
        if spec.proj_right is not None:
            x = x @ spec.proj_right
        projected[mode] = x

    banks = {mode: features(tok, ch, projected[mode])
             for mode, (tok, ch) in block.banks.items()}
    bank_stages = [(f"Y[{i}]", y) for bank in banks.values() for i, y in enumerate(bank, 1)]
    read = {(label, i) for seq in block.sequences for i, label in enumerate(seq)}
    if any(not np.isfinite(y).all() for mode, bank in banks.items()
           for i, y in enumerate(bank) if (mode, i) not in read):
        raise NumericError(_first_nonfinite(bank_stages))
    out = None
    taps: list[list[np.ndarray]] = []
    for s_idx, seq in enumerate(block.sequences):
        ys = [banks[label][i] for i, label in enumerate(seq)]
        chain = list(cascade(ys, block.inter_token, block.inter_channel, []))
        taps.append(chain)
        w = block.weights[s_idx]
        for i, zi in enumerate(chain):
            out = _add_term(out, w[..., i], zi, own=False)   # the trace keeps each tap
    if not np.isfinite(out).all():
        chains = [(f"Z[{i}]", z) for chain in taps for i, z in enumerate(chain[1:], 2)]
        raise NumericError(_first_nonfinite(bank_stages + chains) or "P")
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
        degree=degree, n_out=n_out, d_out=d_out, modes=modes, banks=banks,
        inter_token=[random_mixer(rng, Side.TOKEN, n_out) for _ in range(degree - 1)],
        inter_channel=[random_mixer(rng, Side.CHANNEL, d_out) for _ in range(degree - 1)],
        sequences=list(sequences),
        weights={i: _uniform(rng, (d_out, degree), 1) for i in range(len(sequences))},
    )
