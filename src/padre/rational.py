"""Rational blocks: independent numerator and denominator cascades divided
elementwise.

One bank of linear features Y_1..Y_{d+e} feeds two plain Hadamard chains:
K_j = Y_1 * ... * Y_j builds the numerator degrees and L_k = Y_{d+1} * ... *
Y_{d+k} the denominator degrees.  Each chain is a ``PadreBlock`` with
identity inter-degree mixers and its own full combine weights and bias
(``chain_blocks``), so ``block.forward`` and ``grad.backward`` run both, and
the output is N / D entrywise.  Training-style use can
stabilize the division as N / (D^2 + eps); with stabilization off, any
denominator entry at or below eps in magnitude is an error.  A non-finite
stage of a chain raises ``NumericError`` at ``num:<stage>`` or ``den:<stage>``.

With e = 0 the denominator is just its bias and the block degenerates to the
polynomial form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import (PadreBlock, PadreTrace, WMode, _uniform, forward, iter_parameters,
                    mixer_parameters, random_mixer)
from .grad import GradBundle, GradReport, _upstream, backward, vjp_gradcheck
from .tensor import (Mixer, NumericError, Record, ShapeError, Side, as_compute, pack_records,
                     read_records, require_finite, unpack_records, write_records)

DEFAULT_EPS = 1e-6
#: the least denominator bias of a seeded block (``random_rational_block``)
DEN_BIAS_FLOOR = 2.0


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
        if e < 0 or len(self.token_mixers) != d + e or len(self.channel_mixers) != d + e:
            raise ShapeError(f"need den degree >= 0 and d+e token and channel mixers, "
                             f"got {d}/{e}")
        if e == 0:    # no denominator chain checks the bare bias
            if self.w_den.shape != (n, dc, 0) or self.bias_den.shape != (n, dc):
                raise ShapeError("a degree-0 denominator needs N x D x 0 weights and an "
                                 "N x D bias")
            require_finite(self.bias_den, "block-params",
                           "combine weights and biases must be finite")
        if not self.epsilon >= 0:
            raise ShapeError(f"epsilon must be nonnegative, got {self.epsilon}")
        chain_blocks(self)     # the chains check the mixers, degrees, weights and biases


def chain_blocks(block: RationalPadreBlock) -> tuple[PadreBlock, PadreBlock | None]:
    """The numerator and denominator as plain-chain ``PadreBlock``s over the
    block's own arrays: identity inter-degree mixers, FULL weights, every
    degree in the mask, and a bias.  With e = 0 there is no denominator
    block; the denominator is its bias."""
    d, e, n, dc = block.num_degree, block.den_degree, block.n_tokens, block.n_channels

    def chain(first: int, k: int, weights: np.ndarray, bias: np.ndarray) -> PadreBlock:
        return PadreBlock(
            degree=k, n_tokens=n, n_channels=dc,
            token_mixers=block.token_mixers[first:first + k],
            channel_mixers=block.channel_mixers[first:first + k],
            inter_token=[Mixer.identity(Side.TOKEN, n)] * (k - 1),
            inter_channel=[Mixer.identity(Side.CHANNEL, dc)] * (k - 1),
            w_mode=WMode.FULL, weights=weights, degree_mask=frozenset(range(1, k + 1)),
            bias=bias)

    return (chain(0, d, block.w_num, block.bias_num),
            chain(d, e, block.w_den, block.bias_den) if e else None)


@dataclass
class RationalTrace:
    num_trace: PadreTrace
    den_trace: PadreTrace | None
    den: np.ndarray
    output: np.ndarray


def _chain_forward(chain: str, blk: PadreBlock,
                   x: np.ndarray) -> tuple[np.ndarray, PadreTrace]:
    """``forward`` on one chain; a non-finite stage is renamed ``<chain>:<stage>``."""
    try:
        return forward(blk, x)
    except NumericError as exc:
        raise NumericError(f"{chain}:{exc.stage}") from exc


def _over_square(a: np.ndarray, r: np.ndarray, eps: float) -> np.ndarray:
    """``a / (r * r + eps)`` for finite ``r``, with no numpy warning: ``a / r / r`` where
    ``r * r`` overflows (eps is below its rounding there), the plain formula's bits elsewhere."""
    with np.errstate(over="ignore"):
        q = r * r + eps
    out, big = a / q, np.isinf(q)
    out[big] = a[big] / r[big] / r[big]
    return out


def rational_forward(block: RationalPadreBlock,
                     x: np.ndarray) -> tuple[np.ndarray, RationalTrace]:
    x = as_compute(x)
    if x.shape != (block.n_tokens, block.n_channels):
        raise ShapeError(f"input shape {x.shape} != ({block.n_tokens}, {block.n_channels})")
    num_block, den_block = chain_blocks(block)
    num, num_trace = _chain_forward("num", num_block, x)
    den, den_trace = block.bias_den.copy(), None
    if den_block is not None:
        den, den_trace = _chain_forward("den", den_block, x)
    if block.square_denominator:
        out = _over_square(num, den, block.epsilon)
    else:
        small = np.abs(den) <= block.epsilon
        if small.any():
            m, n = np.argwhere(small)[0]
            raise DenominatorError((int(m), int(n)), float(den[m, n]), block.epsilon)
        out = num / den
    require_finite(out, "O", "rational output is not finite")
    return out, RationalTrace(num_trace=num_trace, den_trace=den_trace, den=den, output=out)


def rational_backward(block: RationalPadreBlock, trace: RationalTrace,
                      upstream: np.ndarray) -> GradBundle:
    """``backward``'s ``GradBundle`` for a rational block, labelled like
    ``iter_rational_parameters``, with the same upstream checks.  The chains
    hold the block's arrays, so a chain gradient takes its array's label."""
    upstream = _upstream(upstream, trace.output)
    num, den, square = trace.num_trace.output, trace.den, block.square_denominator
    d_num = _over_square(upstream, den, block.epsilon) if square else upstream / den
    # dL/d den is -2 den g num / den_eff^2 squared and -g num / den^2 plain; where
    # den_eff^2 overflows, eps is below its rounding and it is -2 g out / den or -g out / den
    with np.errstate(over="ignore"):
        sq = (den * den + block.epsilon if square else den) ** 2
    fit, big = np.isfinite(sq), np.isinf(sq)
    g, n, q = upstream[fit], num[fit], sq[fit]
    d_den = np.empty_like(den)
    d_den[fit] = -2.0 * den[fit] * g * n / q if square else -g * n / q
    d_den[big] = (-2.0 if square else -1.0) * upstream[big] * (trace.output[big] / den[big])

    labels: dict[int, list[str]] = {}      # by array; one array may sit at two places
    for label, arr in iter_rational_parameters(block):
        labels.setdefault(id(arr), []).append(label)
    # at e = 0 the denominator is its bias alone, and there is no denominator chain
    grads = {} if block.den_degree else {"Qd": np.empty_like(block.w_den), "Pd": d_den}
    d_x = None
    for chain, chain_trace, g in zip(chain_blocks(block), (trace.num_trace, trace.den_trace),
                                     (d_num, d_den)):
        if chain is not None:
            bundle = backward(chain, chain_trace, g)
            d_x = bundle.d_x if d_x is None else d_x + bundle.d_x
            for label, arr in iter_parameters(chain):
                grads[labels[id(arr)].pop(0)] = bundle.grads[label]
    return GradBundle(d_x=d_x, grads=grads)


def iter_rational_parameters(block: RationalPadreBlock) -> list[tuple[str, np.ndarray]]:
    return mixer_parameters(("A", block.token_mixers), ("B", block.channel_mixers)) + [
        ("Wn", block.w_num), ("Vn", block.bias_num), ("Qd", block.w_den), ("Pd", block.bias_den)]


def rational_gradcheck(block: RationalPadreBlock, x: np.ndarray, probes: int = 200,
                       step: float = 1e-4, seed: int = 0) -> GradReport:
    return vjp_gradcheck(rational_forward, rational_backward, iter_rational_parameters,
                         block, x, probes, step, seed)


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


def random_rational_block(n_tokens: int, n_channels: int, num_degree: int, den_degree: int,
                          seed: int, square_denominator: bool = False) -> RationalPadreBlock:
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
        bias_den=DEN_BIAS_FLOOR + rng.uniform(0, 1, (n_tokens, n_channels)),
        square_denominator=square_denominator,
    )
