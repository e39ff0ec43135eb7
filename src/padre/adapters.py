"""Reference implementations of six attention(-replacement) schemes, plus
machine-checked reductions of each to polynomial-cascade primitives.

Each scheme gets a direct forward pass written in the scheme's own natural
factorization, and (where the reduction is exact) an evaluation *plan*: a
sum of ``PadreBlock`` cascades built solely from structured mixers.
The plan and the direct pass are independent computational routes; their
agreement on random inputs is the equivalence certificate.

* SimA's column normalizers are not polynomial, so its plan divides each
  cascade by the input-dependent l1-norm pair: a rational-form combine.
* The selective state-space scan is exact at a frozen step: its plan is one
  degree-3 cascade per state, for the exponential and the first-order
  discretization alike; only the softplus step is not polynomial.
* Softmax attention is not polynomial at any degree; it is approximated by
  a Taylor-truncated rational form with an a-priori remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .block import PadreBlock, forward
from .oracle import rel_dev
from .tensor import LayoutError, Mixer, ShapeError, Side, apply_mixer

L1_EPS = 1e-12


class NormalizationError(ValueError):
    """A column produced an l1 norm too small to normalize by."""


class InstabilityError(ArithmeticError):
    """A truncated-series denominator collapsed below the stability floor."""


class EquivalenceError(ValueError):
    """Plan and direct evaluations disagree beyond tolerance."""

    def __init__(self, max_deviation: float, tol: float):
        self.max_deviation = max_deviation
        self.tol = tol
        super().__init__(f"plan deviates from direct forward by {max_deviation:.3e} "
                         f"(tolerance {tol:.0e})")


# ---------------------------------------------------------------------------
# Cascade plans
# ---------------------------------------------------------------------------

def plan_cascade(token: list[Mixer], channel: list[Mixer], inter_token: list[Mixer],
                 inter_channel: list[Mixer], weight: float = 1.0) -> PadreBlock:
    """One Hadamard cascade Z_1 = Y_1, Z_{j+1} = (C_j Z_j D_j) * Y_{j+1} as a
    block whose combine keeps only the top tap, scaled by ``weight``."""
    weights = np.zeros(len(token))
    weights[-1] = weight
    return PadreBlock(token_mixers=token, channel_mixers=channel, inter_token=inter_token,
                      inter_channel=inter_channel, weights=weights,
                      degree_mask=frozenset({len(token)}))


@dataclass
class PadrePlan:
    """A weighted sum of cascades, optionally divided by per-cascade scalars.

    ``normalizers`` (when set) computes one positive denominator per cascade
    from the input, which places the plan in the rational extension of the
    polynomial form.  N and D are the first cascade's; a plan with no cascade
    raises ``ShapeError``.
    """

    cascades: list[PadreBlock]
    normalizers: Callable[[np.ndarray], np.ndarray] | None = None
    n_tokens: int = field(init=False)
    n_channels: int = field(init=False)

    def __post_init__(self):
        if not self.cascades:
            raise ShapeError("a plan needs at least one cascade")
        self.n_tokens, self.n_channels = self.cascades[0].n_tokens, self.cascades[0].n_channels

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """The plan on one ``(N, D)`` input; any other shape raises ShapeError."""
        if x.shape != (self.n_tokens, self.n_channels):
            raise ShapeError(f"input shape {x.shape} != ({self.n_tokens}, {self.n_channels})")
        out = np.zeros((self.n_tokens, self.n_channels))
        etas = self.normalizers(x) if self.normalizers is not None else None
        for idx, blk in enumerate(self.cascades):
            term = forward(blk, x)[0]
            out += term if etas is None else term / etas[idx]
        return out


#: the random inputs ``verify_plan`` draws, and its relative-deviation tolerance
PLAN_TRIALS = 100
PLAN_TOL = 1e-10


def verify_plan(direct_fn, plan: PadrePlan, seed: int = 0) -> float:
    """Compare the two routes on ``PLAN_TRIALS`` random inputs; raises
    ``EquivalenceError`` on a deviation above ``PLAN_TOL``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(PLAN_TRIALS):
        x = rng.uniform(-1.0, 1.0, size=(plan.n_tokens, plan.n_channels))
        worst = max(worst, rel_dev(plan.evaluate(x), direct_fn(x)))
    if worst > PLAN_TOL:
        raise EquivalenceError(worst, PLAN_TOL)
    return worst


def _broadcast_column(weight_matrix: np.ndarray, col: int, n_channels: int) -> Mixer:
    """Channel mixer sending X to (X @ w)[:, col] broadcast to every channel."""
    left = weight_matrix[:, col:col + 1]
    right = np.ones((1, n_channels))
    return Mixer.low_rank(Side.CHANNEL, left, right)


def _token_sum(weights: np.ndarray) -> Mixer:
    """Rank-1 token mixer: every output row is the weighted row sum ``weights @ X``."""
    return Mixer.low_rank(Side.TOKEN, np.ones((weights.shape[0], 1)), weights[None, :])


def _qkv_cascades(w_q, w_k, w_v, n_tokens: int, weight: float) -> list[PadreBlock]:
    """Cascades realizing Q (K^T V) as a sum of D degree-3 Hadamard chains.

    Chain i: Y1 broadcasts column i of K, Y2 = V, Y3 broadcasts column i of
    Q; the token-sum mixer between degrees 2 and 3 turns Y1*Y2 into the
    row-broadcast of row i of K^T V.
    """
    d_ch = w_q.shape[0]
    ident_t, ident_c = Mixer.identity(Side.TOKEN, n_tokens), Mixer.identity(Side.CHANNEL, d_ch)
    out = []
    for i in range(d_ch):
        out.append(plan_cascade(
            token=[ident_t, ident_t, ident_t],
            channel=[_broadcast_column(w_k, i, d_ch), Mixer.dense(Side.CHANNEL, w_v),
                     _broadcast_column(w_q, i, d_ch)],
            inter_token=[ident_t, _token_sum(np.ones(n_tokens))],
            inter_channel=[ident_c, ident_c],
            weight=weight,
        ))
    return out


# ---------------------------------------------------------------------------
# SimA: l1-column-normalized Q K^T V
# ---------------------------------------------------------------------------

@dataclass
class SimaParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray


def _l1_cols(a: np.ndarray, what: str) -> np.ndarray:
    norms = np.sum(np.abs(a), axis=0)
    if np.min(norms) <= L1_EPS:
        raise NormalizationError(f"zero-norm column in {what}")
    return norms


def sima_forward(p: SimaParams, x: np.ndarray) -> np.ndarray:
    q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
    qh = q / _l1_cols(q, "Q")[None, :]
    kh = k / _l1_cols(k, "K")[None, :]
    return qh @ (kh.T @ v)


def sima_numerator(p: SimaParams, x: np.ndarray) -> np.ndarray:
    """The unnormalized part: Q (K^T V), homogeneous of degree 3."""
    q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
    return q @ (k.T @ v)


def sima_as_padre(p: SimaParams, n_tokens: int) -> PadrePlan:
    """Cascade plan for SimA; per-cascade l1 normalizers form the denominator."""

    def normalizers(x: np.ndarray) -> np.ndarray:
        return _l1_cols(x @ p.w_q, "Q") * _l1_cols(x @ p.w_k, "K")

    return PadrePlan(_qkv_cascades(p.w_q, p.w_k, p.w_v, n_tokens, 1.0), normalizers)


# ---------------------------------------------------------------------------
# Conv2Former-style convolutional modulation: DConv(W1 X) * (W2 X)
# ---------------------------------------------------------------------------

@dataclass
class Conv2FormerParams:
    w1: np.ndarray
    w2: np.ndarray
    kernel: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        if self.kernel.ndim != 2:
            raise ShapeError("depthwise kernel must be 2-D")


def _dconv_grid(x: np.ndarray, kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Same-size zero-padded spatial correlation, one shared kernel per channel."""
    n, d = x.shape
    if h * w != n:
        raise LayoutError(f"grid {h}x{w} does not cover N={n}")
    kh, kw = kernel.shape
    g = x.reshape(h, w, d)
    gp = np.pad(g, ((kh // 2, kh - 1 - kh // 2), (kw // 2, kw - 1 - kw // 2), (0, 0)))
    out = np.zeros_like(g)
    for r in range(kh):
        for c in range(kw):
            out += kernel[r, c] * gp[r:r + h, c:c + w]
    return out.reshape(n, d)


def conv2former_forward(p: Conv2FormerParams, x: np.ndarray) -> np.ndarray:
    return _dconv_grid(x @ p.w1, p.kernel, p.grid_h, p.grid_w) * (x @ p.w2)


def conv2former_as_padre(p: Conv2FormerParams) -> PadrePlan:
    n = p.grid_h * p.grid_w
    d_ch = p.w1.shape[0]
    cascade = plan_cascade(
        token=[Mixer.conv2d(Side.TOKEN, p.kernel, p.grid_h, p.grid_w),
               Mixer.identity(Side.TOKEN, n)],
        channel=[Mixer.dense(Side.CHANNEL, p.w1), Mixer.dense(Side.CHANNEL, p.w2)],
        inter_token=[Mixer.identity(Side.TOKEN, n)],
        inter_channel=[Mixer.identity(Side.CHANNEL, d_ch)],
    )
    return PadrePlan([cascade])


# ---------------------------------------------------------------------------
# Hyena-style gated long-convolution recurrence
# ---------------------------------------------------------------------------

@dataclass
class HyenaParams:
    projections: list[np.ndarray]   # order+1 maps, each L x M
    filters: list[np.ndarray]       # order causal kernels, each length L
    order: int = field(init=False)  # the number of filters

    def __post_init__(self):
        self.order = len(self.filters)
        if len(self.projections) != self.order + 1:
            raise ShapeError("need order+1 projections and order filters")
        lengths = {p.shape[0] for p in self.projections} | {h.shape[0] for h in self.filters}
        if len(lengths) != 1:
            raise ShapeError("projections and filters must share output length L")


def causal_conv(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(h * z)_t = sum_{s<=t} h_{t-s} z_s with zero history."""
    if h.shape != z.shape:
        raise ShapeError("filter and signal lengths differ")
    return np.convolve(h, z)[:z.shape[0]]


def hyena_project(p: HyenaParams, chi: np.ndarray) -> list[np.ndarray]:
    return [proj @ chi for proj in p.projections]


def hyena_forward_recurrence(p: HyenaParams, xs: list[np.ndarray]) -> np.ndarray:
    """Evaluate the gating recurrence z^{n+1} = x^n * (h^n conv z^n)."""
    if len(xs) != p.order + 1:
        raise ShapeError(f"need {p.order + 1} projected signals, got {len(xs)}")
    z = xs[0]
    for n in range(1, p.order + 1):
        z = xs[n] * causal_conv(p.filters[n - 1], z)
    return z


def hyena_forward(p: HyenaParams, chi: np.ndarray) -> np.ndarray:
    return hyena_forward_recurrence(p, hyena_project(p, chi))


def causal_toeplitz(h: np.ndarray) -> np.ndarray:
    """The L x L lower-triangular matrix T with T @ z == causal_conv(h, z)."""
    t = np.arange(h.shape[0])
    return np.tril(h[np.subtract.outer(t, t)])   # negative lags wrap, then are cut


def hyena_as_padre(p: HyenaParams) -> PadrePlan:
    """One degree-(order+1) cascade on the L x 1 input: Y_i = P_{i-1} X as
    dense token mixers, C_i the causal Toeplitz of filter h^i, identity
    channel mixers.  Needs square projections (M = L)."""
    seq_len = p.projections[0].shape[0]
    if any(proj.shape != (seq_len, seq_len) for proj in p.projections):
        raise ShapeError(f"a Hyena plan needs square {seq_len} x {seq_len} projections")
    ident_c = Mixer.identity(Side.CHANNEL, 1)
    cascade = plan_cascade(
        token=[Mixer.dense(Side.TOKEN, proj) for proj in p.projections],
        channel=[ident_c] * (p.order + 1),
        inter_token=[Mixer.dense(Side.TOKEN, causal_toeplitz(h)) for h in p.filters],
        inter_channel=[ident_c] * p.order,
    )
    return PadrePlan([cascade])


# ---------------------------------------------------------------------------
# Selective state-space scan (Mamba-style) and its first-order surrogate
# ---------------------------------------------------------------------------

@dataclass
class MambaParams:
    a_diag: np.ndarray       # strictly negative diagonal of A
    w_b: np.ndarray          # N_s x L
    w_c: np.ndarray          # L x N_s
    delta_u: np.ndarray      # rank-1 gate factors: W_delta = u v^T
    delta_v: np.ndarray
    beta: float = 1.0
    pi_param: float = 0.0

    def __post_init__(self):
        if np.max(self.a_diag) >= 0:
            raise ShapeError("state matrix diagonal must be strictly negative")


def mamba_delta(p: MambaParams, x: np.ndarray, delta_scale: float) -> float:
    """Scalar step size: scaled softplus of a linear gate of the input.

    The rank-1 gate matrix u v^T reduces to the scalar (x . u) * sum(v); the
    softplus keeps the step nonnegative.
    """
    gate = float(x @ p.delta_u) * float(np.sum(p.delta_v))
    z = p.beta * (p.pi_param + gate)
    return delta_scale * float(np.logaddexp(0.0, z)) / p.beta


def zoh_step(p: MambaParams, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential discretization: A_bar = exp(delta A), B_bar = expm1(delta A) / A * B."""
    return np.exp(delta * p.a_diag), np.expm1(delta * p.a_diag) / p.a_diag


def euler_step(p: MambaParams, delta: float) -> tuple[np.ndarray, float]:
    """First-order discretization: A_bar = 1 + delta A, B_bar = delta B."""
    return 1.0 + delta * p.a_diag, delta


def mamba_scan(p: MambaParams, x: np.ndarray, a_bar: np.ndarray, gain) -> np.ndarray:
    """h_t = a_bar * h_{t-1} + gain * b * x_t, y_t = c . h_t over a length-L
    sequence x.  b = W_B x and c = x W_C (like the step) depend on all of x, so
    the scan is homogeneous of degree 3 in x at a fixed (a_bar, gain)."""
    b_bar, c = gain * (p.w_b @ x), x @ p.w_c
    h = np.zeros_like(a_bar)
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        h = a_bar * h + b_bar * x[t]
        out[t] = c @ h
    return out


def mamba_forward(p: MambaParams, x: np.ndarray, delta_scale: float = 1.0) -> np.ndarray:
    """Exact scan: exponential discretization at the input-dependent step."""
    return mamba_scan(p, x, *zoh_step(p, mamba_delta(p, x, delta_scale)))


def mamba_padre_approx(p: MambaParams, x: np.ndarray, delta_scale: float = 1.0) -> np.ndarray:
    """First-order surrogate: A_bar ~ I + delta A, B_bar ~ delta B."""
    return mamba_scan(p, x, *euler_step(p, mamba_delta(p, x, delta_scale)))


def mamba_as_padre(p: MambaParams, a_bar: np.ndarray, gain) -> PadrePlan:
    """The scan at a frozen step as one degree-3 cascade per state k on the
    L x 1 input: Y_1 broadcasts b_k = W_B[k] x, Y_2 = X, Y_3 broadcasts
    c_k = x W_C[:, k], and C_2 is the causal Toeplitz of a_bar_k^j, so the
    cascade is gain_k c_k (T_k (b_k x))."""
    seq_len = p.w_b.shape[1]
    ident_t, ident_c = Mixer.identity(Side.TOKEN, seq_len), Mixer.identity(Side.CHANNEL, 1)
    gains = np.broadcast_to(gain, a_bar.shape)
    cascades = [plan_cascade(
        token=[_token_sum(p.w_b[k]), ident_t, _token_sum(p.w_c[:, k])],
        channel=[ident_c] * 3,
        inter_token=[ident_t,
                     Mixer.dense(Side.TOKEN, causal_toeplitz(a_bar[k] ** np.arange(seq_len)))],
        inter_channel=[ident_c] * 2,
        weight=float(gains[k]),
    ) for k in range(a_bar.shape[0])]
    return PadrePlan(cascades)


# ---------------------------------------------------------------------------
# Castling-style linear attention with an auxiliary depthwise path
# ---------------------------------------------------------------------------

#: the weight of Castling's kernelized term ``Q (K^T V)``, which both routes read
CASTLING_SCALE = 1.0 / math.pi


@dataclass
class CastlingParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    dw: Mixer                # depthwise token-side convolution operator

    def __post_init__(self):
        if self.dw.side != Side.TOKEN:
            raise ShapeError("the depthwise operator must act on the token side")


def castling_forward(p: CastlingParams, x: np.ndarray) -> np.ndarray:
    """O = (1/pi) Q (K^T V) + (I/2 + M_DW) V, in factorized O(N D^2) order."""
    q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
    return (q @ (k.T @ v)) * CASTLING_SCALE + 0.5 * v + apply_mixer(p.dw, v)


def castling_as_padre(p: CastlingParams) -> PadrePlan:
    """Degree-3 cascades for the kernelized term plus two degree-1 branches."""
    n = p.dw.dim
    cascades = _qkv_cascades(p.w_q, p.w_k, p.w_v, n, CASTLING_SCALE)
    cascades += [plan_cascade(token=[token], channel=[Mixer.dense(Side.CHANNEL, p.w_v)],
                              inter_token=[], inter_channel=[], weight=weight)
                 for token, weight in ((Mixer.identity(Side.TOKEN, n), 0.5), (p.dw, 1.0))]
    return PadrePlan(cascades)


# ---------------------------------------------------------------------------
# Softmax attention and its truncated-series rational approximation
# ---------------------------------------------------------------------------

@dataclass
class AttnParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    d_k: int

    def __post_init__(self):
        if self.d_k <= 0:
            raise ShapeError("head dimension must be positive")


def _attn_logits(p: AttnParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, k = x @ p.w_q, x @ p.w_k
    return q @ k.T / math.sqrt(p.d_k), x @ p.w_v


def softmax_attention(p: AttnParams, x: np.ndarray) -> np.ndarray:
    logits, v = _attn_logits(p, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True)) @ v


def exp_taylor(logits: np.ndarray, degree: int) -> np.ndarray:
    out = np.ones_like(logits)
    term = np.ones_like(logits)
    for l in range(1, degree + 1):
        term = term * logits / l
        out = out + term
    return out


def taylor_remainder_bound(l_bound: float, degree: int) -> float:
    """A-priori truncation error of exp on [-L, L]: e^L L^{d+1} / (d+1)!.

    Where a factor of that form overflows a float, the bound is formed in log
    space instead; it is ``math.inf`` beyond the float range.
    """
    try:
        bound = math.exp(l_bound) * l_bound ** (degree + 1) / math.factorial(degree + 1)
    except OverflowError:
        bound = math.inf
    if bound < math.inf:
        return bound
    log_l = math.log(l_bound) if l_bound > 0 else -math.inf
    try:
        return math.exp(l_bound + (degree + 1) * log_l - math.lgamma(degree + 2))
    except OverflowError:
        return math.inf


def attention_rational_approx(p: AttnParams, x: np.ndarray,
                              taylor_degree: int) -> tuple[np.ndarray, float]:
    """Attention with each exp replaced by its degree-d truncation.

    Returns the approximation and the per-exponential remainder bound at the
    measured logit magnitude.
    """
    logits, v = _attn_logits(p, x)
    l_bound = float(np.max(np.abs(logits)))
    t = exp_taylor(logits, taylor_degree)
    den = t.sum(axis=1)
    if np.min(np.abs(den)) < 1e-12:
        raise InstabilityError("truncated-series denominator below 1e-12")
    out = (t @ v) / den[:, None]
    return out, taylor_remainder_bound(l_bound, taylor_degree)
