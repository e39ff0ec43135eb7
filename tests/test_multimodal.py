"""Cross-modal cascades: joint homogeneity and sequence validation."""

import warnings

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
        assert rel_dev(out, ref) <= 1e-12


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
