"""Benchmark of the PADRe blocks: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload grid-infer --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each workload is a closed loop: one caller, one op at a time, in one process,
with the BLAS and OpenMP pools pinned to one thread.  Every op's output is
checked against a reference the benchmark computes itself (see
``workloads.py``); a mismatch or an exception counts as a failed op and never
stops the run.

Short calibration samples (``calibrate.py``) run between the ops; the
end-to-end timings are reported both raw and scaled to a reference host speed
by the samples taken nearest to each op, which cancels the drift of the
shared host's speed.  BENCHMARK.json bounds the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops, reports the per-layer metrics from the traced ones,
and reports the gap between the two median op times as
``bench.trace_overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment, a row of end-to-end results, and with tracing the
per-workload stage table.  Results and spans are also written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("grid-infer", "seq-train", "oracle-fit")
#: each run sets up once in-process and this many times in fresh processes,
#: spread over the timed loop so the samples see the machine at different
#: moments; setup_s is the median of the scaled samples
SETUP_PROBES = 8
SETUP_PROBE_TIMEOUT_S = 120
#: each set-up sample is followed at once by a calibration sample in the same
#: process, which scales it; set-up is imports and per-block Python work
SETUP_CAL_KERNEL = "calls-and-arrays"
#: at least this many ops run, whatever --seconds says; per-op counts are
#: taken over exactly the first COUNT_OPS traced ops
MIN_OPS = COUNT_OPS = 12
#: a calibration sample runs after the first op that ends this long after
#: the previous sample; the samples count towards --seconds
CAL_EVERY_S = 0.3
MAX_FAILURE_REPORTS = 5


def pin_threads() -> None:
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import the benchmark's workloads, and with them ``padre`` from ``src/``."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        from perfbench import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import padre from {src}: {exc}")
    import padre
    if not os.path.abspath(padre.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: padre was imported from {padre.__file__}, not {src}")
    return workloads


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "seed": seed,
    }


class Failures:
    """Counts failed ops and checks; reports the first few on stderr."""

    def __init__(self):
        self.count = 0

    def attempt(self, label: str, fn, *args):
        """(ok, value) of fn(*args); any exception is a counted failure."""
        try:
            return True, fn(*args)
        except Exception:          # the loop must survive any failure of the program
            self.record(label, traceback.format_exc(limit=3))
            return False, None

    def record(self, label: str, detail: str = "") -> None:
        self.count += 1
        if self.count <= MAX_FAILURE_REPORTS:
            print(f"perfbench: failed {label} {detail}".rstrip(), file=sys.stderr)


class LoopResult:
    def __init__(self, cal_kernel: str):
        self.cal_kernel = cal_kernel
        self.times_ms: list[float] = []
        self.op_at: list[float] = []
        self.cal_at: list[float] = []
        self.cal_ms: list[float] = []
        self.failures = Failures()
        self.counts: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.times_ms)

    def calibrate(self, force: bool = False) -> None:
        """Take a calibration sample if one is due (or ``force``)."""
        now = time.perf_counter()
        if force or not self.cal_at or now - self.cal_at[-1] >= CAL_EVERY_S:
            from perfbench import calibrate
            ms = calibrate.sample(self.cal_kernel)
            self.cal_at.append(now + ms / 2e3)
            self.cal_ms.append(ms)

    def scaled_ms(self) -> list[float]:
        """Op times scaled to the reference host speed."""
        from perfbench import calibrate
        f = calibrate.speed_factors(self.cal_kernel, self.op_at, self.cal_at, self.cal_ms)
        return [t * float(k) for t, k in zip(self.times_ms, f)]


def run_op(wl, res: LoopResult, tracer=None) -> None:
    """Run, time and check op number ``res.attempted``.

    Only ``wl.op`` is timed; its check runs after the clock stops.
    """
    i = res.attempted
    with tracer.op_span(i) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        ok, out = res.failures.attempt(f"op {i}", wl.op, i)
        t1 = time.perf_counter()
    res.times_ms.append((t1 - t0) * 1e3)
    res.op_at.append((t0 + t1) / 2)
    if ok:
        checked, good = res.failures.attempt(f"check of op {i}", wl.check, i, out)
        if checked and not good:
            res.failures.record(f"check of op {i}", "(output mismatch)")
        if checked and good and i < COUNT_OPS:
            for k, v in wl.counts(out).items():
                res.counts[k] = res.counts.get(k, 0) + v


def run_loop(wl, seconds: float, between=None, n_between: int = 0) -> LoopResult:
    """Closed loop over ``wl``'s pool until ``seconds`` pass and MIN_OPS ran,
    with calibration samples before, between and after the ops.

    ``between`` runs ``n_between`` times, spread evenly over the loop between
    two ops, and its time does not count towards ``seconds``.
    """
    res = LoopResult(wl.cal_kernel)
    due = [seconds * (k + 0.5) / n_between for k in range(n_between)]
    clock = time.perf_counter
    start, paused = clock(), 0.0
    res.calibrate()
    while res.attempted < MIN_OPS or clock() - start - paused < seconds:
        if due and clock() - start - paused >= due[0]:
            t = clock()
            between()
            paused += clock() - t
            due.pop(0)
        run_op(wl, res)
        res.calibrate()
    res.calibrate(force=True)
    for _ in due:
        between()
    return res


def run_traced_loop(wl, seconds: float, tracer, probe_module) -> tuple[LoopResult, LoopResult]:
    """(untraced, traced): the two alternate op by op, in alternating order,
    so both see the machine in the same state and neither always runs on
    caches the other warmed."""
    plain, traced = LoopResult(wl.cal_kernel), LoopResult(wl.cal_kernel)
    start = time.perf_counter()
    plain.calibrate()
    while traced.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        first_plain = traced.attempted % 2 == 0
        if first_plain:
            run_op(wl, plain)
        with tracer.installed(probe_module):
            run_op(wl, traced, tracer)
        if not first_plain:
            run_op(wl, plain)
        plain.calibrate()
    return plain, traced


def tail_percentile(sorted_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): p90, or the highest percentile that still has ten
    samples above it when there are fewer than 100 samples."""
    n = len(sorted_ms)
    idx = max(0, min(math.ceil(0.9 * n) - 1, n - 11))
    return 100.0 * (idx + 1) / n, sorted_ms[idx]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(t0: float) -> tuple[float, float]:
    """(seconds since ``t0``, ms of a calibration sample taken right after)."""
    from perfbench import calibrate
    seconds = time.perf_counter() - t0
    return seconds, calibrate.sample(SETUP_CAL_KERNEL)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """``setup_sample`` of one fresh process, from ``import padre`` to a
    loaded block."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    seconds, cal_ms = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(cal_ms)


def mean_forward_macs(workloads, wl) -> float:
    """Ledger MACs of one forward, averaged over the first COUNT_OPS ops."""
    entries = [i % wl.pool for i in range(COUNT_OPS)]
    macs = {j: workloads.ledger_macs(*wl.ledger_case(j)) for j in set(entries)}
    return sum(macs[j] for j in entries) / COUNT_OPS


def layer_metrics(wl, tracer, traced: LoopResult, untraced: LoopResult,
                  block_macs: float) -> tuple[dict, list, list[str]]:
    """Per-layer metrics, the stage table and any trace inconsistency."""
    from perfbench.spans import (BACKWARD, CASCADE_TAGS, FEATURE_TAGS, FORWARD,
                                 HADAMARD, MIXER_SPANS, OP, SpanTotals)

    t = SpanTotals(tracer.arrays(), traced.attempted, COUNT_OPS)
    m: dict[str, float] = {}
    for kind in ("conv2d", "conv1d", "dense"):
        sel = t.is_(f"tensor.{kind}")
        m[f"tensor.{kind}.ms"] = t.ms(sel)
        m[f"tensor.{kind}.calls"] = t.calls(sel)
        m[f"tensor.{kind}.gflops"] = t.gflops(sel)
    for name in ("tensor.other", "tensor.transpose", HADAMARD):
        m[f"{name}.ms"] = t.ms(t.is_(name))
        m[f"{name}.calls"] = t.calls(t.is_(name))
    m["tensor.io.write_ms"] = t.run_ms("tensor.io.write")
    m["tensor.io.read_ms"] = t.run_ms("tensor.io.read")
    m["tensor.io.bytes"] = wl.io_bytes
    fwd = t.is_(FORWARD)
    features = t.under_forward & t.tagged(*FEATURE_TAGS)
    cascade = t.under_forward & (t.tagged(*CASCADE_TAGS) | t.is_(HADAMARD))
    m["block.forward.ms"] = t.ms(fwd)
    m["block.forward.self_ms"] = t.ms(fwd, self_time=True)
    m["block.forward.calls"] = t.calls(fwd)
    m["block.features_ms"] = t.ms(features)
    m["block.cascade_ms"] = t.ms(cascade)
    m["block.macs"] = block_macs
    bwd = t.is_(BACKWARD)
    m["grad.backward.ms"] = t.ms(bwd)
    m["grad.backward.self_ms"] = t.ms(bwd, self_time=True)
    m["grad.param_grad.ms"] = t.ms(t.is_("grad.param_grad"))
    m["grad.param_grad.calls"] = t.calls(t.is_("grad.param_grad"))
    m["grad.recompute_ms"] = t.ms(t.under_backward & t.is_(*MIXER_SPANS))
    fit = t.is_("oracle.extract_coeffs")
    m["oracle.extract_coeffs.ms"] = t.ms(fit)
    m["oracle.extract_coeffs.self_ms"] = t.ms(fit, self_time=True)
    m["oracle.probe_eval.ms"] = t.ms(t.is_("oracle.probe_eval"))
    m["oracle.probe_evals"] = t.calls(t.is_("oracle.probe_eval"))
    m["oracle.probe_points.ms"] = t.ms(t.is_("oracle.probe_points"))
    m["oracle.monomials"] = traced.counts.get("oracle.monomials", 0) / COUNT_OPS
    m["oracle.fit_ok_frac"] = (1.0 - traced.failures.count / traced.attempted
                               if wl.name == "oracle-fit" else 0.0)
    m["bench.host_cal_ms"] = statistics.median(untraced.cal_ms)
    m["bench.trace_overhead_frac"] = (statistics.median(traced.times_ms)
                                      / statistics.median(untraced.times_ms) - 1.0)

    problems = []
    staged = m["block.features_ms"] + m["block.cascade_ms"] + m["block.forward.self_ms"]
    if not math.isclose(staged, m["block.forward.ms"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"features+cascade+self {staged} != block.forward.ms "
                        f"{m['block.forward.ms']}")
    total_self = t.ms(t.in_ops, self_time=True)
    op_total = t.ms(t.is_(OP))
    if not math.isclose(total_self, op_total, rel_tol=1e-9):
        problems.append(f"summed self times {total_self} != summed op spans {op_total}")

    rows = []
    under = t.under_forward
    for label, sel in (("B channel map", under & t.tagged("B")),
                       ("A token mixer", under & t.tagged("A")),
                       ("C/D inter-degree", under & t.tagged(*CASCADE_TAGS)),
                       ("hadamard", under & t.is_(HADAMARD))):
        rows.append((label, t.ms(sel), t.staged_macs(sel), t.gflops(sel)))
    staged_macs = sum(r[2] for r in rows)
    rest_macs = block_macs * m["block.forward.calls"] - staged_macs
    self_ms = m["block.forward.self_ms"]
    rows.append(("combine+self", self_ms, rest_macs,
                 2e-6 * rest_macs / self_ms if self_ms > 0 else 0.0))
    return m, rows, problems


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    pin_threads()
    t0 = time.perf_counter()
    workloads = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        if args.setup_probe:
            wl.setup(tmpdir)
            print("%r %r" % setup_sample(t0))
            return 0
        return measure(args, workloads, wl, tmpdir, t0)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(args, workloads, wl, tmpdir: str, t0: float) -> int:
    tracer = None
    if args.trace:
        from perfbench.spans import Tracer
        tracer = Tracer()
    with tracer.installed(workloads) if tracer else contextlib.nullcontext():
        wl.setup(tmpdir)
    setup = setup_sample(t0)

    checks = Failures()
    for i in range(len(wl.blocks)):
        ok, same = checks.attempt(f"re-save of block {i}", wl.resave_matches, i)
        if ok and not same:
            checks.record(f"re-save of block {i}", "(container bytes differ)")
    wl.make_inputs()
    wl.prepare()

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if tracer:
        metrics, loops, rows, problems = traced_metrics(args, workloads, wl, tracer)
    else:
        metrics, raw, loops, tail = end_to_end_metrics(args, wl, setup)
        rows, problems = [], []
    attempted = sum(lp.attempted for lp in loops) + len(wl.blocks)
    failed = sum(lp.failures.count for lp in loops) + checks.count
    if not tracer:
        print(f"{wl.name}: op_ms_p50={raw['op_ms_p50']:.3f} ms  "
              f"op_ms_p90={raw['op_ms_p90']:.3f} ms ({tail})  "
              f"ops_per_s={raw['ops_per_s']:.4f} 1/s  "
              f"failed_ops_frac={failed / attempted:.4f} ({failed}/{attempted})  "
              f"setup_s={raw['setup_s']:.4f} s  "
              f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB")
        print(f"{wl.name} scaled to the reference host speed: "
              f"op_ms_p50_scaled={metrics['op_ms_p50_scaled']:.3f} ms  "
              f"op_ms_p90_scaled={metrics['op_ms_p90_scaled']:.3f} ms  "
              f"ops_per_s_scaled={metrics['ops_per_s_scaled']:.4f} 1/s  "
              f"setup_s={metrics['setup_s']:.4f} s  "
              f"(host_cal_ms={raw['host_cal_ms']:.3f} ms over n={raw['cal_samples']})")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} are not "
                 "both measured and declared in BENCHMARK.json")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-trace{args.trace}.json"), "w") as f:
        json.dump({"env": env, "result": result, "stage_table": rows,
                   "raw": None if tracer else raw}, f, indent=1)
    print(json.dumps(result))
    return 0


def end_to_end_metrics(args, wl, setup: tuple[float, float]):
    """Untraced loop; set-up is sampled again in fresh processes during it."""
    from perfbench import calibrate
    setup_samples = [setup]
    loop = run_loop(wl, args.seconds, between=lambda: setup_samples.append(
        setup_probe(wl.name, args.seed)), n_between=SETUP_PROBES)
    ms, scaled = sorted(loop.times_ms), sorted(loop.scaled_ms())
    pct, p_tail = tail_percentile(ms)
    raw = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p_tail,
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "host_cal_ms": statistics.median(loop.cal_ms),
        "cal_samples": len(loop.cal_ms),
        "setup_s": statistics.median(s for s, _ in setup_samples),
    }
    setup_ref_ms = calibrate.KERNELS[SETUP_CAL_KERNEL][2]
    metrics = {
        "op_ms_p50_scaled": statistics.median(scaled),
        "op_ms_p90_scaled": tail_percentile(scaled)[1],
        "ops_per_s_scaled": 1e3 * len(scaled) / sum(scaled),
        "setup_s": statistics.median(s * setup_ref_ms / c for s, c in setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, raw, [loop], f"p{pct:.1f} of n={len(ms)}"


def traced_metrics(args, workloads, wl, tracer):
    """Untraced and traced ops, interleaved; prints the stage table."""
    untraced, traced = run_traced_loop(wl, args.seconds, tracer, workloads)
    metrics, rows, problems = layer_metrics(wl, tracer, traced, untraced,
                                            mean_forward_macs(workloads, wl))
    tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))
    print(f"stage table, {wl.name}, per op: stage  ms  MACs  GFLOP/s")
    for label, ms, mac, rate in rows:
        print(f"  {label:18s} {ms:10.3f} {mac:14.0f} {rate:8.3f}")
    for p in problems:
        print(f"perfbench: trace does not add up: {p}", file=sys.stderr)
    return metrics, [untraced, traced], rows, problems


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {out.returncode}")
        lines = out.stdout.strip().splitlines()
        rows.extend(lines[1:-1])
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(lines[0])
    print("\n".join(rows))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
