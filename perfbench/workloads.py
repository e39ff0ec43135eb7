"""The benchmark's workloads: seeded inputs, program set-up, one op, its check.

Each workload is a closed loop over a small pool of distinct seeded inputs,
so nothing can be served from a cache keyed on input identity.  The program
receives only the blocks and arrays generated here.

* ``grid-infer``: padre-2 forward on a 64x64 token grid, D=192.  Nearly all
  of its time is the 11x11 conv2d token mixers; no grad or oracle work.
* ``seq-train``: padre-3 forward plus ``grad.backward`` on a 4096-token
  sequence, D=192.  No conv2d; time spreads over conv1d, the parameter
  gradients, transposes, recomputed features and dense channel maps.
* ``oracle-fit``: one ``oracle.extract_coeffs`` fit of a seeded degree-3
  ``random_block`` over the full mixer menu, at N*D = 8.  The same tensor and
  block code runs on 8-entry inputs, where fixed per-call cost dominates.

Every call into the program goes through a module attribute
(``block.forward``, ``grad.backward``, ``oracle.extract_coeffs``, ...), which
is what lets ``perfbench.spans`` record spans by rebinding those attributes.
"""

from __future__ import annotations

import os

import numpy as np
from padre import block, grad, oracle, tensor

from . import reference

ORACLE_DEGREE = 3
ORACLE_SHAPES = ((2, 4), (4, 2), (8, 1), (1, 8))
HELD_OUT_POINTS = 2
#: PolyCoeffs.evaluate must match forward to this, relative to max(1, max|forward|),
#: plus what pruning may drop: extract_coeffs discards coefficients up to
#: PRUNE_TOL, and each monomial is at most 1 in magnitude on [-1, 1]^n
ORACLE_EVAL_TOL = 1e-9
# x enters the padre-3 output with degree <= 3, so the x stencil is exact at
# any step.  The joint parameter restriction has degree 11, so its step is
# small enough that the h^4 truncation term sits far below the tolerance.
X_STEP, X_RTOL = 0.5, 1e-8
PARAM_STEP, PARAM_RTOL = 1e-3, 1e-6


def probe_eval(blk, z: np.ndarray) -> np.ndarray:
    """The black box that ``oracle-fit`` hands to ``extract_coeffs``."""
    return block.forward(blk, z)[0]


class Workload:
    """Base: derives every seed from the run seed and owns the loaded blocks."""

    name = ""
    #: the ``calibrate.KERNELS`` entry that mirrors this workload's regime
    cal_kernel = "arrays"

    def __init__(self, seed: int, n_blocks: int, pool: int):
        self.pool = pool
        self.rng = np.random.default_rng(seed)
        self.block_seeds = [int(s) for s in self.rng.integers(2**31, size=n_blocks)]
        self.blocks: list = []
        self.paths: list[str] = []
        self.io_bytes = 0

    def build(self, i: int):
        raise NotImplementedError

    def setup(self, tmpdir: str) -> None:
        """Program set-up, timed as ``setup_s``: build, save and load each block.

        The timed loop runs on the loaded blocks.
        """
        for i in range(len(self.block_seeds)):
            path = os.path.join(tmpdir, f"{self.name}-{i}.padw")
            block.save_block(self.build(i), path)
            self.io_bytes += os.path.getsize(path)
            self.blocks.append(block.load_block(path))
            self.paths.append(path)

    def resave_matches(self, i: int) -> bool:
        """Saving loaded block ``i`` again reproduces its container bit-exactly."""
        again = self.paths[i] + ".again"
        block.save_block(self.blocks[i], again)
        with open(self.paths[i], "rb") as a, open(again, "rb") as b:
            return a.read() == b.read()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the references the checks compare against (untimed)."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def counts(self, result) -> dict[str, int]:
        """Exact per-op counts read from an op's result."""
        return {}

    def ledger_case(self, i: int):
        """(block, input) of one forward that op ``i`` runs, for the MAC ledger."""
        raise NotImplementedError


class GridInfer(Workload):
    name = "grid-infer"

    def __init__(self, seed: int, side: int = 64, channels: int = 192, pool: int = 3):
        super().__init__(seed, n_blocks=1, pool=pool)
        self.side, self.channels = side, channels

    def build(self, i):
        return block.build_conv_instance(self.side * self.side, self.channels, 2,
                                         block.Grid(self.side, self.side),
                                         seed=self.block_seeds[i])

    def make_inputs(self):
        shape = (self.side * self.side, self.channels)
        self.xs = [self.rng.uniform(-1.0, 1.0, shape) for _ in range(self.pool)]

    def prepare(self):
        spec = reference.conv_spec(self.blocks[0])
        self.refs = [reference.forward(spec, x) for x in self.xs]

    def op(self, i):
        return block.forward(self.blocks[0], self.xs[i % self.pool])[0]

    def check(self, i, out):
        return reference.forward_close(out, self.refs[i % self.pool])

    def ledger_case(self, i):
        return self.blocks[0], self.xs[i % self.pool]


class SeqTrain(Workload):
    name = "seq-train"

    def __init__(self, seed: int, tokens: int = 4096, channels: int = 192, pool: int = 3):
        super().__init__(seed, n_blocks=1, pool=pool)
        self.tokens, self.channels = tokens, channels

    def build(self, i):
        return block.build_conv_instance(self.tokens, self.channels, 3, block.Seq1d(),
                                         seed=self.block_seeds[i])

    def make_inputs(self):
        """Per pooled input: x, an upstream gradient, and stencil directions in
        x and in all parameters jointly (each array scaled by its largest entry)."""
        shape = (self.tokens, self.channels)
        params = reference.conv_spec(self.blocks[0]).params
        self.xs, self.upstream, self.dir_x, self.dir_p = [], [], [], []
        for _ in range(self.pool):
            self.xs.append(self.rng.uniform(-1.0, 1.0, shape))
            self.upstream.append(self.rng.uniform(-1.0, 1.0, shape))
            self.dir_x.append(self.rng.uniform(-1.0, 1.0, shape))
            self.dir_p.append({k: self.rng.uniform(-1.0, 1.0, v.shape) * np.max(np.abs(v))
                               for k, v in params.items()})

    def prepare(self):
        spec = reference.conv_spec(self.blocks[0])
        self.refs, self.want_x, self.want_p = [], [], []
        for x, g, vx, vp in zip(self.xs, self.upstream, self.dir_x, self.dir_p):
            base = reference.forward(spec, x)
            self.refs.append(base)
            self.want_x.append(reference.five_point(
                lambda t: float(np.sum(g * (reference.forward(spec, x + t * vx) - base))),
                X_STEP))
            self.want_p.append(reference.five_point(
                lambda t: float(np.sum(g * (reference.forward(spec.perturbed(vp, t), x) - base))),
                PARAM_STEP))

    def op(self, i):
        j = i % self.pool
        out, trace = block.forward(self.blocks[0], self.xs[j])
        return out, grad.backward(self.blocks[0], trace, self.upstream[j])

    def check(self, i, result):
        j = i % self.pool
        out, bundle = result
        grads, vp = bundle.by_label(), self.dir_p[j]
        if set(grads) != set(vp) or not reference.forward_close(out, self.refs[j]):
            return False
        got_x = float(np.vdot(bundle.d_x, self.dir_x[j]))
        got_p = sum(float(np.vdot(grads[k], vp[k])) for k in vp)
        return (reference.scalar_close(got_x, self.want_x[j], X_RTOL)
                and reference.scalar_close(got_p, self.want_p[j], PARAM_RTOL))

    def ledger_case(self, i):
        return self.blocks[0], self.xs[i % self.pool]


class OracleFit(Workload):
    name = "oracle-fit"
    cal_kernel = "calls-and-arrays"

    def __init__(self, seed: int, pool: int = 128):
        super().__init__(seed, n_blocks=pool, pool=pool)

    def build(self, i):
        n, d = ORACLE_SHAPES[i % len(ORACLE_SHAPES)]
        return block.random_block(n, d, ORACLE_DEGREE, seed=self.block_seeds[i])

    def make_inputs(self):
        self.points = [[self.rng.uniform(-1.0, 1.0, (b.n_tokens, b.n_channels))
                        for _ in range(HELD_OUT_POINTS)] for b in self.blocks]

    def prepare(self):
        self.expected = [[probe_eval(b, z) for z in pts]
                         for b, pts in zip(self.blocks, self.points)]

    def op(self, i):
        blk = self.blocks[i % self.pool]
        return oracle.extract_coeffs(lambda z: probe_eval(blk, z), blk.n_tokens,
                                     blk.n_channels, ORACLE_DEGREE)

    def check(self, i, fit):
        j = i % self.pool
        if fit.diagnostics.residual > oracle.RESIDUAL_TOL or fit.max_degree() > ORACLE_DEGREE:
            return False
        for z, want in zip(self.points[j], self.expected[j]):
            tol = (ORACLE_EVAL_TOL * max(1.0, float(np.max(np.abs(want))))
                   + oracle.PRUNE_TOL * fit.diagnostics.n_monomials)
            if not float(np.max(np.abs(fit.evaluate(z) - want))) <= tol:
                return False
        return True

    def counts(self, fit):
        return {"oracle.monomials": fit.diagnostics.n_monomials}

    def ledger_case(self, i):
        j = i % self.pool
        return self.blocks[j], self.points[j][0]


WORKLOADS = {w.name: w for w in (GridInfer, SeqTrain, OracleFit)}


def ledger_macs(blk, x) -> int:
    """Exact ``FlopLedger.macs`` of one forward."""
    ledger = tensor.FlopLedger()
    block.forward(blk, x, ledger)
    return ledger.macs
