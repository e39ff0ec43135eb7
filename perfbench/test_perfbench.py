"""Tests of the benchmark itself, on tiny instances of its workloads."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from padre import block, grad
from perfbench import calibrate, reference, run, spans, workloads

TINY = {
    "grid-infer": lambda seed: workloads.GridInfer(seed, side=4, channels=3, pool=2),
    "seq-train": lambda seed: workloads.SeqTrain(seed, tokens=16, channels=3, pool=2),
    "oracle-fit": lambda seed: workloads.OracleFit(seed, pool=4),
}


def ready(name, seed, tmp_path):
    wl = TINY[name](seed)
    d = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
    d.mkdir()
    wl.setup(str(d))
    wl.make_inputs()
    wl.prepare()
    return wl


def inputs_of(wl):
    containers = []
    for path in wl.paths:
        with open(path, "rb") as f:
            containers.append(f.read())
    arrays = [getattr(wl, k) for k in ("xs", "upstream", "dir_x", "points") if hasattr(wl, k)]
    flat = []
    for a in arrays:
        for item in a:
            flat.extend(item if isinstance(item, list) else [item])
    return containers, flat


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_deterministic_per_seed_and_differ_across_seeds(name, tmp_path):
    c1, a1 = inputs_of(ready(name, 5, tmp_path))
    c2, a2 = inputs_of(ready(name, 5, tmp_path))
    c3, a3 = inputs_of(ready(name, 6, tmp_path))
    assert c1 == c2 and all(np.array_equal(x, y) for x, y in zip(a1, a2))
    assert c1 != c3
    assert not any(np.array_equal(x, y) for x, y in zip(a1, a3))


def test_self_times_on_synthetic_span_tree():
    # op 0..10 -> forward 1..9 -> {mixer 2..5, hadamard 6..8}; mixer -> child 3..4
    start = np.array([0.0, 1.0, 2.0, 3.0, 6.0])
    end = np.array([10.0, 9.0, 5.0, 4.0, 8.0])
    parent = np.array([-1, 0, 1, 2, 1])
    got = spans.self_times(end - start, parent)
    assert got.tolist() == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert got.sum() == 10.0


def test_speed_factors_use_the_nearest_calibration_samples():
    ref = calibrate.KERNELS["arrays"][2]
    cal_at = [float(t) for t in range(20)]
    cal_ms = [ref] * 10 + [2 * ref] * 10              # the host halves its speed at t=10
    got = calibrate.speed_factors("arrays", [0.0, 4.0, 15.0, 30.0], cal_at, cal_ms)
    assert got.tolist() == [1.0, 1.0, 0.5, 0.5]
    assert calibrate.speed_factors("arrays", [1.0], [0.0], [ref / 4]).tolist() == [4.0]


def test_loop_samples_the_host_around_the_ops(tmp_path):
    res = run.run_loop(ready("oracle-fit", 4, tmp_path), seconds=0.0)
    assert len(res.cal_ms) >= 2 and res.cal_at[0] < res.op_at[0] < res.op_at[-1] < res.cal_at[-1]
    assert len(res.scaled_ms()) == res.attempted and all(t > 0 for t in res.scaled_ms())


@pytest.mark.parametrize("name", ["grid-infer", "seq-train"])
def test_reference_forward_matches_padre(name, tmp_path):
    wl = ready(name, 3, tmp_path)
    spec = reference.conv_spec(wl.blocks[0])
    for x in wl.xs:
        want = block.forward(wl.blocks[0], x)[0]
        assert reference.forward_close(reference.forward(spec, x), want)


def test_stencils_match_padre_backward(tmp_path):
    wl = ready("seq-train", 3, tmp_path)
    b = wl.blocks[0]
    for j, x in enumerate(wl.xs):
        out, trace = block.forward(b, x)
        bundle = grad.backward(b, trace, wl.upstream[j])
        g = bundle.by_label()
        got_p = sum(float(np.vdot(g[k], wl.dir_p[j][k])) for k in wl.dir_p[j])
        assert reference.scalar_close(float(np.vdot(bundle.d_x, wl.dir_x[j])),
                                      wl.want_x[j], workloads.X_RTOL)
        assert reference.scalar_close(got_p, wl.want_p[j], workloads.PARAM_RTOL)


@pytest.mark.parametrize("name", sorted(TINY))
def test_outputs_pass_their_checks(name, tmp_path):
    wl = ready(name, 4, tmp_path)
    res = run.run_loop(wl, seconds=0.0)
    assert res.attempted == run.MIN_OPS and res.failures.count == 0
    assert all(wl.resave_matches(i) for i in range(len(wl.blocks)))


def corrupt(result):
    if isinstance(result, np.ndarray):
        return result + 1e-6 * np.max(np.abs(result))
    if isinstance(result, tuple):                     # seq-train: (out, bundle)
        out, bundle = result
        bundle.d_x = bundle.d_x * (1 + 1e-6)
        return out, bundle
    result.terms.popitem()                            # oracle-fit: drop an entry
    return result


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_is_counted_not_raised(name, tmp_path):
    wl = ready(name, 4, tmp_path)
    real_op = wl.op
    wl.op = lambda i: corrupt(real_op(i))
    res = run.run_loop(wl, seconds=0.0)
    assert res.failures.count == res.attempted == run.MIN_OPS


def test_raising_op_and_check_are_counted(tmp_path):
    wl = ready("grid-infer", 4, tmp_path)
    wl.op = lambda i: 1 / 0 if i % 2 else np.zeros(3)
    res = run.run_loop(wl, seconds=0.0)
    assert res.failures.count == res.attempted


def traced_run(name, tmp_path, seed):
    wl = TINY[name](seed)
    d = tmp_path / f"traced-{name}-{seed}-{len(os.listdir(tmp_path))}"
    d.mkdir()
    tracer = spans.Tracer()
    with tracer.installed(workloads):
        wl.setup(str(d))
    wl.make_inputs()
    wl.prepare()
    untraced, traced = run.run_traced_loop(wl, 0.0, tracer, workloads)
    return run.layer_metrics(wl, tracer, traced, untraced, run.mean_forward_macs(workloads, wl))


@pytest.mark.parametrize("name", sorted(TINY))
def test_trace_adds_up_and_counts_repeat(name, tmp_path):
    m1, rows, problems = traced_run(name, tmp_path, 9)
    m2, _, _ = traced_run(name, tmp_path, 9)
    assert problems == []
    assert set(m1) == set(run.declared_units(trace=1))
    assert m1["block.forward.ms"] > 0
    staged = m1["block.features_ms"] + m1["block.cascade_ms"] + m1["block.forward.self_ms"]
    assert staged == pytest.approx(m1["block.forward.ms"], rel=1e-9)
    exact = [k for k in m1 if k.endswith((".calls", ".bytes", ".macs", "monomials",
                                          "probe_evals"))]
    assert {k: m1[k] for k in exact} == {k: m2[k] for k in exact}
    assert sum(r[1] for r in rows) == pytest.approx(m1["block.forward.ms"], rel=1e-9)


def test_program_attributes_restored_after_tracing(tmp_path):
    before = (block.forward, block.apply_mixer, grad.backward, workloads.probe_eval)
    traced_run("oracle-fit", tmp_path, 1)
    assert (block.forward, block.apply_mixer, grad.backward, workloads.probe_eval) == before


def test_refuses_when_numpy_already_imported():
    with pytest.raises(SystemExit):
        run.pin_threads()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-infer",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
