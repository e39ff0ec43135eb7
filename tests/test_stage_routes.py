"""Every mixer and Hadamard call of the block-level passes goes through the
module attributes that stage tracing rebinds.

``perfbench`` records per-stage time by rebinding ``padre.block.apply_mixer``,
``padre.block.hadamard``, ``padre.grad.apply_mixer``,
``padre.grad.apply_mixer_transpose`` and ``padre.grad.mixer_param_grad``.  A
pass that reached the tensor functions by another name would silently drop
out of the stage table.

The backward runs one pair backward per mixer pair ``T u M``: 3 transposes
and 2 parameter gradients, and no ``grad.apply_mixer`` call, as ``u M`` is
never recomputed.  A degree-d block has 2d - 1 pairs: d in the feature bank
and d - 1 in the cascade.
"""

import collections

import numpy as np
import pytest

from padre import adapters, block, grad, multimodal, rational

# the forward reaches apply_mixer through block and the backward through grad,
# so one key counts both
ROUTES = ((block, "apply_mixer"), (block, "hadamard"), (grad, "apply_mixer"),
          (grad, "apply_mixer_transpose"), (grad, "mixer_param_grad"))


def counts(**expected) -> collections.Counter:
    return collections.Counter(expected)


def backward_counts(pairs: int) -> collections.Counter:
    return counts(mixer_param_grad=2 * pairs, apply_mixer_transpose=3 * pairs)


@pytest.fixture
def calls(monkeypatch):
    seen = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ROUTES:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return seen


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_forward_and_backward(calls, degree, rng):
    blk = block.random_block(9, 4, degree, seed=degree, normalize_y=True)
    out, trace = block.forward(blk, rng.uniform(-1, 1, (9, 4)))
    assert calls == counts(apply_mixer=4 * degree - 2, hadamard=degree - 1)
    calls.clear()
    grad.backward(blk, trace, rng.uniform(-1, 1, out.shape))
    assert calls == backward_counts(2 * degree - 1)


@pytest.mark.parametrize("d,e", [(1, 0), (2, 1), (3, 2)])
def test_rational_forward_and_backward(calls, d, e, rng):
    blk = rational.random_rational_block(6, 3, d, e, seed=d + e)
    out, trace = rational.rational_forward(blk, rng.uniform(-1, 1, (6, 3)))
    chains = (d - 1) + max(e - 1, 0)
    assert calls == counts(apply_mixer=2 * (d + e) + 2 * chains, hadamard=chains)
    calls.clear()
    rational.rational_backward(blk, trace, rng.uniform(-1, 1, out.shape))
    # the chains' identity inter-degree mixers go through grad.backward too
    assert calls == backward_counts((d + e) + chains)


@pytest.mark.parametrize("shapes,degree,sequences,levels", [
    ({"a": (4, 3), "b": (6, 2)}, 3, ["aab", "bba"], 6),    # every level of both banks
    ({"a": (4, 3), "b": (5, 2)}, 2, ["ab"], 2),            # a's Y_2 and b's Y_1 are unread
], ids=["aab-bba", "ab"])
def test_multimodal_forward(calls, rng, shapes, degree, sequences, levels):
    blk = multimodal.build_multimodal(shapes, *shapes["a"], degree, sequences, seed=0)
    multimodal.multimodal_forward(blk, {m: rng.uniform(-1, 1, s) for m, s in shapes.items()})
    # each bank level a sequence reads, made once, then each sequence's cascade
    chains = len(sequences) * (degree - 1)
    assert calls == counts(apply_mixer=2 * levels + 2 * chains, hadamard=chains)


def test_plan_evaluate(calls, rng):
    p = adapters.SimaParams(*(rng.uniform(-1, 1, (3, 3)) for _ in range(3)))
    plan = adapters.sima_as_padre(p, n_tokens=5)
    calls.clear()
    plan.evaluate(rng.uniform(-1, 1, (5, 3)))
    degrees = [c.degree for c in plan.cascades]
    assert calls == counts(apply_mixer=sum(4 * n - 2 for n in degrees),
                           hadamard=sum(n - 1 for n in degrees))
