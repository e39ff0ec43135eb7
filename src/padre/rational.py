"""Rational blocks: independent numerator and denominator cascades divided
elementwise.

One bank of linear features Y_1..Y_{d+e} feeds two plain Hadamard chains:
K_j = Y_1 * ... * Y_j builds the numerator degrees and L_k = Y_{d+1} * ... *
Y_{d+k} the denominator degrees.  Each chain gets its own full combine
weights and bias, and the output is N / D entrywise.  Training-style use can
stabilize the division as N / (D^2 + eps); with stabilization off, any
denominator entry at or below eps in magnitude is an error.

With e = 0 the denominator is just its bias and the block degenerates to the
polynomial form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import _uniform, cascade, features, mixer_parameters, random_mixer
from .grad import GradReport, features_backward, vjp_gradcheck
from .tensor import (FlopLedger, Mixer, NumericError, Record, ShapeError, Side, pack_records,
                     read_records, unpack_records, write_records)

DEFAULT_EPS = 1e-6


class DenominatorError(ArithmeticError):
    """An unstabilized denominator entry fell at or below the floor."""

    def __init__(self, entry: tuple[int, int], value: float, eps: float):
        self.entry = entry
        super().__init__(
            f"denominator entry {entry} has magnitude {abs(value):.3e} <= {eps:.0e}"
        )


@dataclass(eq=False)
class RationalPadreBlock:
    num_degree: int
    den_degree: int
    n_tokens: int
    n_channels: int
    token_mixers: list[Mixer]        # A_1..A_{d+e}
    channel_mixers: list[Mixer]      # B_1..B_{d+e}
    w_num: np.ndarray                # N x D x d
    bias_num: np.ndarray             # N x D
    w_den: np.ndarray                # N x D x e
    bias_den: np.ndarray             # N x D
    epsilon: float = DEFAULT_EPS
    square_denominator: bool = False

    def __post_init__(self):
        d, e, n, dc = self.num_degree, self.den_degree, self.n_tokens, self.n_channels
        if d < 1 or e < 0:
            raise ShapeError(f"need num degree >= 1 and den degree >= 0, got {d}/{e}")
        if len(self.token_mixers) != d + e or len(self.channel_mixers) != d + e:
            raise ShapeError("need d+e token and channel mixers")
        for mixers, side, dim in ((self.token_mixers, Side.TOKEN, n),
                                  (self.channel_mixers, Side.CHANNEL, dc)):
            if any(m.side != side or m.dim != dim for m in mixers):
                raise ShapeError(f"{side.name.lower()} mixers must act on that side with dim {dim}")
        if self.w_num.shape != (n, dc, d) or self.w_den.shape != (n, dc, e):
            raise ShapeError("combine weights must be N x D x d and N x D x e")
        if self.bias_num.shape != (n, dc) or self.bias_den.shape != (n, dc):
            raise ShapeError("combine biases must be N x D")
        if not self.epsilon >= 0:
            raise ShapeError(f"epsilon must be nonnegative, got {self.epsilon}")
        for a in (self.w_num, self.bias_num, self.w_den, self.bias_den):
            if not np.isfinite(a).all():
                raise NumericError("block-params", "combine weights and biases must be finite")


@dataclass
class RationalTrace:
    x: np.ndarray
    y: list[np.ndarray]
    k_chain: list[np.ndarray]
    l_chain: list[np.ndarray]
    num: np.ndarray
    den: np.ndarray
    output: np.ndarray


def rational_forward(block: RationalPadreBlock, x: np.ndarray,
                     ledger: FlopLedger | None = None) -> tuple[np.ndarray, RationalTrace]:
    if x.shape != (block.n_tokens, block.n_channels):
        raise ShapeError(f"input shape {x.shape} != ({block.n_tokens}, {block.n_channels})")
    d, e = block.num_degree, block.den_degree
    y = features(block.token_mixers, block.channel_mixers, x, ledger)
    # plain chains: identity inter-degree mixers, which add no MACs
    ident_t = Mixer.identity(Side.TOKEN, block.n_tokens)
    ident_c = Mixer.identity(Side.CHANNEL, block.n_channels)
    k_chain = cascade(y[:d], [ident_t] * (d - 1), [ident_c] * (d - 1), ledger)
    l_chain = cascade(y[d:], [ident_t] * (e - 1), [ident_c] * (e - 1), ledger)
    num = np.zeros_like(x)
    for j in range(d):
        num += block.w_num[:, :, j] * k_chain[j]
    num = num + block.bias_num
    den = np.zeros_like(x)
    for j in range(e):
        den += block.w_den[:, :, j] * l_chain[j]
    den = den + block.bias_den
    if ledger is not None:
        ledger.add("combine", (d + e + 1) * x.size)   # weighted sums + division
    if block.square_denominator:
        den_eff = den * den + block.epsilon
    else:
        small = np.abs(den) <= block.epsilon
        if small.any():
            m, n = np.argwhere(small)[0]
            raise DenominatorError((int(m), int(n)), float(den[m, n]), block.epsilon)
        den_eff = den
    out = num / den_eff
    if not np.isfinite(out).all():
        raise NumericError("O", "rational output is not finite")
    return out, RationalTrace(x=x, y=y, k_chain=k_chain, l_chain=l_chain,
                              num=num, den=den, output=out)


def rational_backward(block: RationalPadreBlock, trace: RationalTrace,
                      upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Vector-Jacobian products keyed like ``iter_rational_parameters`` (+ "x")."""
    d, e = block.num_degree, block.den_degree
    if block.square_denominator:
        den_eff = trace.den * trace.den + block.epsilon
        d_num = upstream / den_eff
        d_den = -2.0 * trace.den * upstream * trace.num / (den_eff * den_eff)
    else:
        d_num = upstream / trace.den
        d_den = -upstream * trace.num / (trace.den * trace.den)

    grads: dict[str, np.ndarray] = {
        "Wn": np.empty_like(block.w_num), "Vn": d_num.copy(),
        "Qd": np.empty_like(block.w_den), "Pd": d_den.copy(),
    }
    d_y = [np.zeros_like(trace.x) for _ in range(d + e)]

    def chain_backward(chain, ys, w, d_out, offset, w_key):
        deg = len(ys)
        running = None
        for j in range(deg - 1, -1, -1):
            grads[w_key][:, :, j] = d_out * chain[j]
            g = d_out * w[:, :, j]
            if running is not None:
                g = g + running * ys[j + 1]
            d_y[offset + j] += g * (chain[j - 1] if j else 1.0)
            running = g

    chain_backward(trace.k_chain, trace.y[:d], block.w_num, d_num, 0, "Wn")
    if e:
        chain_backward(trace.l_chain, trace.y[d:], block.w_den, d_den, d, "Qd")

    d_x, feature_grads = features_backward(block.token_mixers, block.channel_mixers,
                                           trace.x, d_y)
    grads.update({f"{name}.{pname}": arr for name, parts in feature_grads.items()
                  for pname, arr in parts.items()})
    grads["x"] = d_x
    return grads


def iter_rational_parameters(block: RationalPadreBlock) -> list[tuple[str, np.ndarray]]:
    return mixer_parameters(("A", block.token_mixers), ("B", block.channel_mixers)) + [
        ("Wn", block.w_num), ("Vn", block.bias_num), ("Qd", block.w_den), ("Pd", block.bias_den)]


def rational_gradcheck(block: RationalPadreBlock, x: np.ndarray, probes: int = 200,
                       step: float = 1e-4, seed: int = 0,
                       fail_tol: float = 1e-5) -> GradReport:
    return vjp_gradcheck(rational_forward, rational_backward, iter_rational_parameters,
                         block, x, probes, step, seed, fail_tol)


#: the manifest fields of a rational block container (version 2.0)
RATIONAL_FIELDS = (("num_degree", int), ("den_degree", int), ("n_tokens", int),
                   ("n_channels", int), ("epsilon", float), ("square_denominator", bool))


def _rational_parts(block: RationalPadreBlock):
    """Manifest values, mixers A, B and 2-D tensors Wn, Vn, Qd, Pd of a block."""
    flat = block.n_tokens * block.n_channels
    return ({name: getattr(block, name) for name, _ in RATIONAL_FIELDS},
            block.token_mixers + block.channel_mixers,
            [block.w_num.reshape(flat, block.num_degree), block.bias_num,
             block.w_den.reshape(flat, block.den_degree), block.bias_den])


def _rational_from_parts(f: dict, mixers: list[Mixer],
                         tensors: list[np.ndarray]) -> RationalPadreBlock:
    d, e, n, dc = f["num_degree"], f["den_degree"], f["n_tokens"], f["n_channels"]
    w_num, bias_num, w_den, bias_den = tensors
    return RationalPadreBlock(
        **f, token_mixers=mixers[:d + e], channel_mixers=mixers[d + e:],
        w_num=w_num.reshape(n, dc, d), bias_num=bias_num,
        w_den=w_den.reshape(n, dc, e), bias_den=bias_den,
    )


def rational_to_records(block: RationalPadreBlock) -> list[Record]:
    return pack_records(2.0, RATIONAL_FIELDS, _rational_parts(block))


def rational_from_records(records: list[Record]) -> RationalPadreBlock:
    return unpack_records(records, 2.0, RATIONAL_FIELDS, _rational_from_parts, _rational_parts)


def save_rational(block: RationalPadreBlock, path: str) -> None:
    write_records(path, rational_to_records(block))


def load_rational(path: str) -> RationalPadreBlock:
    return rational_from_records(read_records(path))


def random_rational_block(n_tokens: int, n_channels: int, num_degree: int,
                          den_degree: int, seed: int, epsilon: float = DEFAULT_EPS,
                          square_denominator: bool = False,
                          den_bias_floor: float = 2.0) -> RationalPadreBlock:
    """Seeded instance; the denominator bias is lifted away from zero so the
    unstabilized division is well posed on inputs in [-1, 1]."""
    rng = np.random.default_rng(seed)
    d, e = num_degree, den_degree
    return RationalPadreBlock(
        num_degree=d, den_degree=e, n_tokens=n_tokens, n_channels=n_channels,
        token_mixers=[random_mixer(rng, Side.TOKEN, n_tokens) for _ in range(d + e)],
        channel_mixers=[random_mixer(rng, Side.CHANNEL, n_channels) for _ in range(d + e)],
        w_num=_uniform(rng, (n_tokens, n_channels, d), 1),
        bias_num=_uniform(rng, (n_tokens, n_channels), 1),
        w_den=_uniform(rng, (n_tokens, n_channels, e), 1) * 0.1,
        bias_den=den_bias_floor + rng.uniform(0, 1, (n_tokens, n_channels)),
        epsilon=epsilon, square_denominator=square_denominator,
    )
