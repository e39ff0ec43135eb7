"""Cross-modal cascades: joint homogeneity and sequence validation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from padre.block import PadreBlock, WMode, forward
from padre.multimodal import (
    MissingModeError,
    TrivialSequenceError,
    build_multimodal,
    multimodal_forward,
)
from padre.tensor import NumericError, ShapeError

from conftest import rel_dev


@pytest.fixture
def two_mode_block():
    return build_multimodal({"a": (6, 3), "b": (4, 5)}, 6, 3, 3, ["aab"], seed=0)


@pytest.fixture
def inputs(rng):
    return {"a": rng.uniform(-1, 1, (6, 3)), "b": rng.uniform(-1, 1, (4, 5))}


class TestForward:
    def test_zero_b_annihilates_top_tap_only(self, two_mode_block, inputs):
        _, base = multimodal_forward(two_mode_block, inputs)
        _, killed = multimodal_forward(two_mode_block,
                                       {"a": inputs["a"], "b": 0 * inputs["b"]})
        np.testing.assert_array_equal(killed.taps[0][2], np.zeros((6, 3)))
        np.testing.assert_array_equal(killed.taps[0][0], base.taps[0][0])
        np.testing.assert_array_equal(killed.taps[0][1], base.taps[0][1])

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    def test_bidegree_scaling(self, two_mode_block, inputs, alpha, beta):
        _, base = multimodal_forward(two_mode_block, inputs)
        _, scaled = multimodal_forward(
            two_mode_block, {"a": alpha * inputs["a"], "b": beta * inputs["b"]})
        # sequence "aab": two degree-1 factors in a, one in b
        assert rel_dev(scaled.taps[0][2], alpha ** 2 * beta * base.taps[0][2]) <= 1e-10

    def test_missing_mode(self, two_mode_block, inputs):
        with pytest.raises(MissingModeError):
            multimodal_forward(two_mode_block, {"a": inputs["a"]})

    def test_shape_mismatch(self, two_mode_block, inputs):
        with pytest.raises(ShapeError):
            multimodal_forward(two_mode_block,
                               {"a": inputs["a"].T, "b": inputs["b"]})

    @pytest.mark.parametrize("dtype", [np.int64, bool, np.float32])
    def test_inputs_run_as_their_float64_cast(self, dtype):
        # some of these seeds draw identity bank mixers, which keep their input's dtype
        for seed in range(8):
            block = build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 3, ["aab", "bba"],
                                     seed=seed)
            rng = np.random.default_rng(seed)
            xs = {m: (rng.uniform(-1, 1, (4, 3)) if dtype == np.float32
                      else rng.integers(-3, 4, (4, 3))).astype(dtype) for m in "ab"}
            got, trace = multimodal_forward(block, xs)
            want, ref = multimodal_forward(block, {m: x.astype(np.float64) for m, x in xs.items()})
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), seed
            for taps, ref_taps in zip(trace.taps, ref.taps, strict=True):
                assert [t.tobytes() for t in taps] == [t.tobytes() for t in ref_taps], seed

    def test_overflow_raises_instead_of_returning_inf(self, two_mode_block):
        huge = {"a": np.full((6, 3), 1e120), "b": np.full((4, 5), 1e120)}
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            multimodal_forward(two_mode_block, huge)
        assert exc.value.stage == "Z[3]"

    def test_combine_overflow_raises(self, two_mode_block, inputs):
        # finite taps and finite weights, but the weighted sum leaves the float range
        for w in two_mode_block.weights.values():
            w[:] = 1e308
        big = {mode: 100 * x for mode, x in inputs.items()}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as exc:
            multimodal_forward(two_mode_block, big)
        assert exc.value.stage == "P"

    def test_combine_overflow_raises_without_warning(self, two_mode_block, inputs):
        for w in two_mode_block.weights.values():
            w[:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as exc:
                multimodal_forward(two_mode_block, {m: 100 * x for m, x in inputs.items()})
        assert exc.value.stage == "P"

    def test_single_mode_reduces_to_plain_block(self, rng):
        mm = build_multimodal({"a": (5, 3)}, 5, 3, 3, ["aaa"], seed=3)
        x = rng.uniform(-1, 1, (5, 3))
        out, _ = multimodal_forward(mm, {"a": x})
        tok, ch = mm.banks["a"]
        equivalent = PadreBlock(
            degree=3, n_tokens=5, n_channels=3,
            token_mixers=tok, channel_mixers=ch,
            inter_token=mm.inter_token, inter_channel=mm.inter_channel,
            w_mode=WMode.CHANNEL_BROADCAST, weights=mm.weights[0],
            degree_mask=frozenset({1, 2, 3}))
        ref, _ = forward(equivalent, x)
        np.testing.assert_array_equal(out, ref)     # the chain runs forward's own stages

    @pytest.mark.parametrize("shapes,degree,sequences", [
        ({"a": (6, 3), "b": (4, 5)}, 3, ["aab"]),
        ({"a": (4, 3), "b": (6, 2)}, 3, ["aab", "bba"]),
        ({"a": (4, 3), "b": (6, 2), "c": (4, 3)}, 3, ["abc", "cab", "bca"]),
        ({"a": (9, 4), "b": (9, 4)}, 2, ["ab", "ba", "ab"]),
    ], ids=["aab", "aab-bba", "abc-cab-bca", "ab-ba-ab"])
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_the_running_sum_of_taps_up_to_order(self, rng, shapes, degree,
                                                           sequences, seed):
        # the chains' Ps are summed after each is made; one running sum of every
        # weighted tap differs only in the order of the additions, and not at all
        # for one sequence
        block = build_multimodal(shapes, *shapes["a"], degree, sequences, seed=seed)
        out, trace = multimodal_forward(block, {m: rng.uniform(-1, 1, s)
                                                for m, s in shapes.items()})
        terms = [block.weights[s][..., i] * z for s, taps in enumerate(trace.taps)
                 for i, z in enumerate(taps)]
        running = terms[0] + 0.0
        for term in terms[1:]:
            running = running + term
        if len(sequences) == 1:
            np.testing.assert_array_equal(out, running)
        bound = 2 * len(terms) * (np.finfo(float).eps / 2) * sum(np.abs(t) for t in terms)
        assert np.all(np.abs(out - running) <= bound)


class TestValidation:
    @pytest.mark.parametrize("seq", ["aa", "bb"])
    def test_trivial_sequences_rejected_with_two_modes(self, seq):
        with pytest.raises(TrivialSequenceError):
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, [seq], seed=0)

    def test_single_mode_uniform_sequence_allowed(self):
        build_multimodal({"a": (4, 3)}, 4, 3, 2, ["aa"], seed=0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ShapeError):
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, ["ac"], seed=0)

    def test_sequence_length_must_match_degree(self):
        with pytest.raises(ShapeError):
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 3, ["ab"], seed=0)

    def test_a_block_needs_a_sequence(self):
        with pytest.raises(ShapeError, match="at least one mode sequence"):
            build_multimodal({"a": (4, 3), "b": (4, 3)}, 4, 3, 2, [], seed=0)

    @pytest.mark.parametrize("weights,error", [
        (np.ones((3, 3)), ShapeError),      # a third degree column, ignored by the forward
        (np.ones((3, 1)), ShapeError),
        (np.ones((4, 2)), ShapeError),      # token x degree
        (np.ones(3), ShapeError),
        (np.full((3, 2), np.nan), NumericError),
    ], ids=["3x3", "3x1", "4x2", "1d", "nan"])
    def test_misshaped_weights_rejected_at_construction(self, weights, error):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=0)
        with pytest.raises(error):
            replace(mm, weights={0: weights})

    def test_swapped_bank_rejected_at_construction(self):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=0)
        tok, ch = mm.banks["b"]
        with pytest.raises(ShapeError, match="token side"):
            replace(mm, banks={**mm.banks, "b": (ch, tok)})

    def test_missing_sequence_weights_rejected_at_construction(self):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=0)
        with pytest.raises(ShapeError, match="no combine weights for sequence 0"):
            replace(mm, weights={})

    @pytest.mark.parametrize("spec", [
        dict(proj_left=np.ones((4, 6))),              # inner size 6, the mode has 5 tokens
        dict(proj_left=np.ones((3, 5))),              # to 3 tokens, the block has 4
        dict(proj_right=np.ones((3, 3))),
        dict(proj_left=None),                         # 5 tokens, unprojected
        dict(proj_right=np.ones(3)),
    ], ids=["left-inner", "left-outer", "right-inner", "left-absent", "right-1d"])
    def test_misshaped_projection_rejected_at_construction(self, spec):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=0)
        with pytest.raises(ShapeError, match="does not project"):
            replace(mm, modes={**mm.modes, "b": replace(mm.modes["b"], **spec)})

    @pytest.mark.parametrize("side", ["proj_left", "proj_right"])
    def test_non_finite_projection_names_its_mode(self, side):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 2, ["ab"], seed=0)
        bad = getattr(mm.modes["b"], side).copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumericError) as exc:
            replace(mm, modes={**mm.modes, "b": replace(mm.modes["b"], **{side: bad})})
        assert exc.value.stage == "proj[b]"

    def test_inter_mixers_checked(self):
        mm = build_multimodal({"a": (4, 3), "b": (5, 2)}, 4, 3, 3, ["aab"], seed=0)
        with pytest.raises(ShapeError, match="inter-degree"):
            replace(mm, inter_token=mm.inter_token[:1])
        with pytest.raises(ShapeError, match="channel side"):
            replace(mm, inter_channel=mm.inter_token)
