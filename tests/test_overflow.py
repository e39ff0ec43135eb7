"""Which stage an overflowing forward names, against a plain-numpy reference.

``forward`` and ``multimodal_forward`` check finiteness once, at P (and at O
after a resize), and walk their trace only when that check fails.  These
tests scale seeded inputs by powers of ten until the forward raises, and
compare the stage it names (or that it returned) with the first non-finite
stage of an independent per-stage computation from dense matrices: raw
Y_1..Y_d, Z_2..Z_d, P, then O.  A rational block's division and its
gradient are compared with exact rational arithmetic at the same scales.
Numpy warnings are errors.
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from padre import block as block_mod
from padre.block import (RMS_EPS, Grid, PadreBlock, Seq1d, WMode, build_conv_instance, forward,
                         random_block)
from padre.multimodal import build_multimodal, multimodal_forward
from padre.rational import random_rational_block, rational_backward, rational_forward
from padre.tensor import Mixer, NumericError, Side

from conftest import dense_of

#: a rung is compared only where the reference names the same stage at
#: 1/KAPPA and KAPPA times its scale: the dense reference sums in another
#: order than the structured mixers, so right at the float limit the two
#: may disagree on whether a stage overflowed
KAPPA = 1e3


def first_bad(stages) -> str | None:
    return next((name for name, a in stages if not np.isfinite(a).all()), None)


def normalized(r):
    """Each row of ``r`` over its RMS, scaled by its largest modulus m first,
    so that a finite row whose squares overflow is normalized too."""
    m = np.abs(r).max(axis=-1, keepdims=True)
    u = r / np.where(m > 0, m, 1.0)
    return u / np.sqrt(np.mean(u * u, axis=-1, keepdims=True) + RMS_EPS / (m * m))


def block_reference(block: PadreBlock):
    """``x -> [(stage, array), ...]``: every stage of ``block`` in the order
    the forward makes them, from the dense matrices of its mixers."""
    a, b, c, dm = ([dense_of(m) for m in ms] for ms in (
        block.token_mixers, block.channel_mixers, block.inter_token, block.inter_channel))

    @np.errstate(all="ignore")
    def stages(x):
        y_raw = [ai @ (x @ bi) for ai, bi in zip(a, b)]
        y = [normalized(r) for r in y_raw] if block.normalize_y else y_raw
        zs = [y[0]]
        for i in range(1, block.degree):
            zs.append((c[i - 1] @ (zs[-1] @ dm[i - 1])) * y[i])
        p = 0.0
        for i in sorted(block.degree_mask):
            p = p + block.weights[..., i - 1] * zs[i - 1]
        if block.bias is not None:
            p = p + block.bias
        out = ([(f"Y[{i}]", r) for i, r in enumerate(y_raw, 1)]
               + [(f"Z[{i}]", z) for i, z in enumerate(zs[1:], 2)] + [("P", p)])
        if block.resize_left is not None:
            out.append(("O", block.resize_left @ p @ block.resize_right))
        return out

    return stages


def multimodal_reference(block):
    """``inputs -> [(stage, array), ...]``: sequence by sequence, the raw bank
    levels Y_1..Y_d that it reads, its Z_2..Z_d and its P; then P, their sum."""
    banks = {mode: [(dense_of(a), dense_of(b)) for a, b in zip(tok, ch)]
             for mode, (tok, ch) in block.banks.items()}
    inter = [(dense_of(c), dense_of(dm)) for c, dm in zip(block.inter_token, block.inter_channel)]

    @np.errstate(all="ignore")
    def stages(inputs):
        xs = {}
        for mode, spec in block.modes.items():
            x = inputs[mode]
            x = x if spec.proj_left is None else spec.proj_left @ x
            xs[mode] = x if spec.proj_right is None else x @ spec.proj_right
        out, total = [], 0.0
        for s_idx, seq in enumerate(block.sequences):
            ys = [banks[mode][i][0] @ (xs[mode] @ banks[mode][i][1]) for i, mode in enumerate(seq)]
            out += [(f"Y[{i}]", y) for i, y in enumerate(ys, 1)]
            w = block.weights[s_idx]
            z = ys[0]
            p = w[..., 0] * z
            for i, (c, dm) in enumerate(inter, 1):
                z = (c @ (z @ dm)) * ys[i]
                out.append((f"Z[{i + 1}]", z))
                p = p + w[..., i] * z
            out.append(("P", p))
            total = total + p
        return out + [("P", total)]

    return stages


def raised(run, inputs) -> str | None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run(inputs)
        except NumericError as exc:
            return exc.stage
    return None


def climb(run, stages, scaled) -> str:
    """Scale by 10**k for k = 0..300, then by inf, until ``run`` raises, and
    return the stage raised.  At each compared rung (every one where the
    reference's verdict holds from 1/KAPPA to KAPPA times the scale, and
    the last) ``run`` raises the reference's first non-finite stage, or
    returns when it has none."""
    def verdict(s):
        return first_bad(stages(scaled(s)))

    for s in [10.0 ** k for k in range(301)] + [np.inf]:
        want = verdict(s)
        if s == np.inf or verdict(s / KAPPA) == want == verdict(s * KAPPA):
            got = raised(run, scaled(s))
            assert got == want, f"at scale {s:g}"
            if got is not None:
                return got
    pytest.fail("the forward never raised")


def climb_block(block, x) -> str:
    return climb(lambda v: forward(block, v), block_reference(block), lambda s: s * x)


CONV_CASES = [(48, 12, d, Seq1d()) for d in (2, 3, 4)] + [(36, 8, d, Grid(6, 6)) for d in (2, 3)]


class TestScaledUntilItRaises:
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batched"])
    @pytest.mark.parametrize("n,dc,d,layout", CONV_CASES,
                             ids=[f"{type(c[3]).__name__}-d{c[2]}" for c in CONV_CASES])
    def test_conv_instances_on_the_composed_route(self, rng, n, dc, d, layout, batch):
        block = build_conv_instance(n, dc, d, layout, seed=d)
        assert block_mod._composes(block)
        # a Z_i or P overflows long before any Y_i does
        assert not climb_block(block, rng.uniform(-1, 1, (*batch, n, dc))).startswith("Y[")

    @pytest.mark.parametrize("resize", [False, True], ids=["plain", "resize"])
    @pytest.mark.parametrize("normalize_y", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("w_mode", list(WMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_blocks(self, rng, d, w_mode, normalize_y, resize):
        block = random_block(9, 4, d, seed=d, w_mode=w_mode, with_bias=True,
                             normalize_y=normalize_y)
        if resize:
            block = replace(block, resize_left=rng.uniform(-1, 1, (5, 9)),
                            resize_right=rng.uniform(-1, 1, (4, 3)))
        stage = climb_block(block, rng.uniform(-1, 1, (9, 4)))
        # normalized rows keep every Z_i bounded, so only a raw Y_i can overflow,
        # and that takes the infinite rung
        assert (stage == "Y[1]") if normalize_y or d == 1 else not stage.startswith("Y[")

    def test_batched_random_block(self, rng):
        block = random_block(9, 4, 3, seed=5, with_bias=True)
        assert not climb_block(block, rng.uniform(-1, 1, (2, 3, 9, 4))).startswith("Y[")

    @pytest.mark.parametrize("change,stage", [
        (lambda b: dict(weights=b.weights * 1e300), "P"),
        (lambda b: dict(resize_left=np.full((5, 9), 1e300), resize_right=np.ones((4, 3))), "O"),
    ], ids=["weights", "resize"])
    def test_combine_and_resize(self, rng, change, stage):
        # every Y_i and Z_i is finite when the weighted sum or the resize overflows
        block = random_block(9, 4, 2, seed=7, with_bias=True)
        block = replace(block, **change(block))
        assert climb_block(block, rng.uniform(-1, 1, (9, 4))) == stage

    @pytest.mark.parametrize("shapes,degree,sequences", [
        ({"a": (6, 3), "b": (4, 5)}, 3, ["aab"]),
        ({"a": (4, 3), "b": (6, 2)}, 3, ["aab", "bba"]),
        ({"a": (4, 3), "b": (5, 2)}, 2, ["ab"]),        # a bank level no sequence reads
    ], ids=["aab", "aab-bba", "ab"])
    @pytest.mark.parametrize("scaled_modes", ["a", "b", "ab"])
    def test_multimodal_block(self, rng, shapes, degree, sequences, scaled_modes):
        block = build_multimodal(shapes, *shapes["a"], degree, sequences, seed=1)
        base = {mode: rng.uniform(-1, 1, shape) for mode, shape in shapes.items()}

        def scaled(s):
            return {mode: x * (s if mode in scaled_modes else 1.0) for mode, x in base.items()}

        climb(lambda v: multimodal_forward(block, v), multimodal_reference(block), scaled)


class TestStagesThatCannotReachP:
    """Y_3 and Z_3 of a block that sums degrees 1 and 2 cannot reach P: P is
    finite here, and the forward still raises the stage, through its check
    of the unsummed Z_3.  A bank level that no sequence reads is not made."""

    @pytest.mark.parametrize("slot,stage", [("channel_mixers", "Y[3]"),
                                            ("inter_channel", "Z[3]")])
    @pytest.mark.parametrize("mask", [{1, 2}, {1, 2, 3}], ids=["top-unsummed", "top-summed"])
    def test_overflowing_top_degree_raises(self, slot, stage, mask):
        n, dc = 4, 2
        mixers = dict(
            token_mixers=[Mixer.identity(Side.TOKEN, n)] * 3,
            channel_mixers=[Mixer.identity(Side.CHANNEL, dc)] * 3,
            inter_token=[Mixer.identity(Side.TOKEN, n)] * 2,
            inter_channel=[Mixer.identity(Side.CHANNEL, dc)] * 2)
        # the last mixer of the slot sums a row and scales it by 1e306
        mixers[slot] = mixers[slot][:-1] + [Mixer.dense(Side.CHANNEL, np.full((dc, dc), 1e306))]
        block = PadreBlock(**mixers, weights=np.ones(3),
                           degree_mask=frozenset(mask))
        x = np.full((n, dc), 1e3)
        assert first_bad(block_reference(block)(x)) == stage
        p = block_reference(replace(block, degree_mask=frozenset({1, 2})))(x)[-1]
        assert p[0] == "P" and np.isfinite(p[1]).all()        # Y_1 + Z_2 is finite
        assert raised(lambda v: forward(block, v), x) == stage

    def test_unread_bank_level_is_not_made(self, rng, monkeypatch):
        # sequence "ab" reads mode a's Y_1 and mode b's Y_2: b's Y_1, whose
        # channel map would overflow, is never made, nor is a's Y_2
        block = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=1)
        bad = block.banks["b"][1][0] = Mixer.dense(Side.CHANNEL, np.full((3, 3), 1e306))
        inputs = {"a": rng.uniform(-1, 1, (4, 3)), "b": 1e3 * rng.uniform(0.5, 1, (5, 2))}
        assert first_bad(multimodal_reference(block)(inputs)) is None
        made = []
        apply = block_mod.apply_mixer
        monkeypatch.setattr(block_mod, "apply_mixer",
                            lambda m, x: made.append(m) or apply(m, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = multimodal_forward(block, inputs)
        assert np.isfinite(out).all()
        assert not any(m is bad for m in made)
        assert len(made) == 2 * 2 + 2            # two levels' two mixers, then C_1 and D_1


class TestRationalDenominator:
    """The division ``num / (den^2 + eps)`` (or ``num / den``) and its gradient
    past the scale where ``den^2``, or the gradient's ``(den^2 + eps)^2``,
    overflows: with no numpy warning, each entry is its exact value, from the
    chains' outputs, to rounding."""

    @staticmethod
    def close(got: np.ndarray, want) -> bool:
        return all(math.isclose(a, float(b), rel_tol=1e-14, abs_tol=1e-320)
                   for a, b in zip(got.ravel().tolist(), want, strict=True))

    @pytest.mark.parametrize("d,e,seed,square", [
        (3, 2, 5, True), (2, 2, 4, True), (2, 1, 2, True), (3, 2, 5, False), (2, 2, 4, False),
    ], ids=["d3e2-squared", "d2e2-squared", "d2e1-squared", "d3e2-plain", "d2e2-plain"])
    def test_division_and_gradient_past_the_square(self, rng, d, e, seed, square):
        block = random_rational_block(6, 3, d, e, seed=seed, square_denominator=square)
        x = np.random.default_rng(0).uniform(-1, 1, (6, 3))
        g = rng.uniform(-1, 1, (6, 3))
        eps = Fraction(block.epsilon)
        past = False
        for k in range(0, 309, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out, trace = rational_forward(block, 10.0 ** k * x)
                except NumericError:
                    continue                # a chain overflowed; test_random_blocks covers that
                num, den = trace.num_trace.output.ravel().tolist(), trace.den.ravel().tolist()
                grads = rational_backward(block, trace, g).by_label()
            past |= bool(np.abs(trace.den).max() > (1.2e77 if square else 1.4e154))
            dens = [Fraction(q) ** 2 + eps if square else Fraction(q) for q in den]
            ups = [Fraction(v) for v in g.ravel().tolist()]
            assert self.close(out, [Fraction(n) / q for n, q in zip(num, dens)]), k
            # the chains' biases take dL/dnum and dL/dden as they are
            assert self.close(grads["Vn"], [u / q for u, q in zip(ups, dens)]), k
            dq = [2 * Fraction(q) if square else 1 for q in den]
            assert self.close(grads["Pd"], [-u * Fraction(n) * t / (q * q)
                                            for u, n, t, q in zip(ups, num, dq, dens)]), k
        assert past
