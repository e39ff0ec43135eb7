"""Spans recorded around the program's layer boundaries, and their totals.

The tracer rebinds the module attributes the program calls through
(``padre.block.apply_mixer``, ``padre.grad.mixer_param_grad``, ...) to
wrappers that record a span per call: name, tag, start, end, parent span and
op id.  Spans stay in flat in-memory arrays until the run writes them out.
A span's self time is its duration minus the durations of its children;
calls are single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

OP = "bench.op"
FORWARD = "block.forward"
BACKWARD = "grad.backward"
HADAMARD = "tensor.hadamard"
MIXER_SPANS = ("tensor.conv2d", "tensor.conv1d", "tensor.dense", "tensor.other")
#: stage tags: which slot of the block a mixer fills
FEATURE_TAGS = ("A", "B")
CASCADE_TAGS = ("C", "D")


def _mixer_span(m) -> str:
    kind = m.kind.name.lower()
    return f"tensor.{kind}" if kind in ("conv2d", "conv1d", "dense") else "tensor.other"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.tag, self.parent, self.op = (array("i") for _ in range(4))
        self.start, self.end = array("d"), array("d")
        self.macs = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._stage: dict[int, int] = {}       # id(mixer) -> tag id
        self._mixer: dict[int, tuple] = {}     # id(mixer) -> (name id, tag id, MACs/vector, token side)
        self._blocks: set[int] = set()
        self.intern("")
        self._forward_key = (self.intern(FORWARD), 0, 0)
        self._hadamard_id = self.intern(HADAMARD)

    def intern(self, s: str) -> int:
        i = self._ids.get(s)
        if i is None:
            i = self._ids[s] = len(self.names)
            self.names.append(s)
        return i

    def begin(self, name: int, tag: int = 0, macs: int = 0) -> int:
        i = len(self.start)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.macs.append(macs)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # ---- classifiers: call arguments -> (name id, tag id, MACs) -----------

    def _fixed(self, name: str):
        key = (self.intern(name), 0, 0)
        return lambda args: key

    def _forward(self, args):
        blk = args[0]
        if id(blk) not in self._blocks:
            self._blocks.add(id(blk))
            slots = (("A", blk.token_mixers), ("B", blk.channel_mixers),
                     ("C", blk.inter_token), ("D", blk.inter_channel))
            for label, mixers in slots:
                for m in mixers:
                    self._stage[id(m)] = self.intern(label)
        return self._forward_key

    def _hadamard(self, args):
        return self._hadamard_id, 0, args[0].size

    def _apply(self, args):
        m, x = args[0], args[1]
        info = self._mixer.get(id(m))
        if info is None:
            info = self._mixer[id(m)] = (self.intern(_mixer_span(m)), self._stage.get(id(m), 0),
                                         m.macs_per_vector(), m.side == 0)
        return info[0], info[1], info[2] * (x.shape[1] if info[3] else x.shape[0])

    def _wrap(self, fn, classify):
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(*classify(args))
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)

        return traced

    @contextlib.contextmanager
    def installed(self, probe_module):
        """Rebind the program's layer entry points for the duration of the block.

        ``probe_module`` holds the benchmark's ``probe_eval`` black box.
        """
        from padre import block, grad, oracle

        targets = [
            (block, "forward", self._forward),
            (block, "apply_mixer", self._apply),
            (block, "hadamard", self._hadamard),
            (block, "write_records", self._fixed("tensor.io.write")),
            (block, "read_records", self._fixed("tensor.io.read")),
            (grad, "backward", self._fixed(BACKWARD)),
            (grad, "apply_mixer", self._apply),
            (grad, "apply_mixer_transpose", self._fixed("tensor.transpose")),
            (grad, "mixer_param_grad", self._fixed("grad.param_grad")),
            (oracle, "extract_coeffs", self._fixed("oracle.extract_coeffs")),
            (oracle, "probe_points", self._fixed("oracle.probe_points")),
            (probe_module, "probe_eval", self._fixed("oracle.probe_eval")),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, classify in targets:
                setattr(mod, attr, self._wrap(getattr(mod, attr), classify))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def op_span(self, i: int):
        self.op_id = i
        s = self.begin(self.intern(OP))
        try:
            yield
        finally:
            self.finish(s)
            self.op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "macs": np.frombuffer(self.macs, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


class SpanTotals:
    """Per-op totals over the spans of ops ``0..n_ops-1``.

    Times are summed over all ops; counts only over the first ``count_ops``
    ops, so they repeat exactly between runs with the same seed.
    """

    def __init__(self, a: dict[str, np.ndarray], n_ops: int, count_ops: int):
        self.n_ops, self.count_ops = n_ops, count_ops
        ids = {s: i for i, s in enumerate(a["names"].tolist())}
        self.ids = ids
        self.name, self.tag, self.op = a["name"], a["tag"], a["op"]
        self.macs = a["macs"]
        self.dur = (a["end"] - a["start"]) * 1e3
        self.self_ms = self_times(self.dur, a["parent"])
        self.in_ops = (self.op >= 0) & (self.op < n_ops)
        self.counted = (self.op >= 0) & (self.op < count_ops)
        parent = a["parent"]
        parent_name = np.where(parent >= 0, self.name[np.maximum(parent, 0)], -1)
        self.under_forward = parent_name == ids.get(FORWARD, -2)
        self.under_backward = parent_name == ids.get(BACKWARD, -2)

    def is_(self, *names: str) -> np.ndarray:
        return np.isin(self.name, [self.ids.get(s, -2) for s in names])

    def tagged(self, *tags: str) -> np.ndarray:
        return np.isin(self.tag, [self.ids.get(s, -2) for s in tags])

    def ms(self, sel: np.ndarray, self_time: bool = False) -> float:
        vals = self.self_ms if self_time else self.dur
        return float(np.sum(vals[sel & self.in_ops])) / self.n_ops

    def run_ms(self, name: str) -> float:
        """Total over the whole run, set-up included."""
        return float(np.sum(self.dur[self.is_(name)]))

    def calls(self, sel: np.ndarray) -> float:
        return float(np.count_nonzero(sel & self.counted)) / self.count_ops

    def staged_macs(self, sel: np.ndarray) -> float:
        return float(np.sum(self.macs[sel & self.counted])) / self.count_ops

    def gflops(self, sel: np.ndarray) -> float:
        ms = float(np.sum(self.dur[sel & self.in_ops]))
        return 2e-6 * float(np.sum(self.macs[sel & self.in_ops])) / ms if ms > 0 else 0.0
