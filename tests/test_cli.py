"""End-to-end CLI surface: subcommands, exit codes, output formats."""

import os
import subprocess
import sys

import numpy as np
import pytest

from padre import adapters as A
from padre import verify as V
from padre.cli import main
from padre.verify import CheckResult


#: ``padre expand`` output for one flag case and one ``--config`` case
EXPAND_GOLDEN = {
    "flags": [
        "# block N=1 D=2 degree=2 seed=1; residual 2.00e-15",
        "(0,0) | k=(0,0)^1 | 1.1345422181662426",
        "(0,0) | k=(0,0)^1 (0,1)^1 | -0.38708017134686756",
        "(0,0) | k=(0,0)^2 | 0.7087033754047971",
        "(0,1) | k=(0,1)^1 | 1.3113644557346607",
        "(0,1) | k=(0,0)^1 (0,1)^1 | 0.06131286813280846",
        "(0,1) | k=(0,1)^2 | -0.033487910917679775",
    ],
    "config": [
        "# block N=2 D=1 degree=2 seed=7; residual 3.55e-15",
        "(0,0) | k=(0,0)^1 | 2.1918329739364",
        "(0,0) | k=(0,0)^1 (1,0)^1 | -0.2091067539554417",
        "(0,0) | k=(0,0)^2 | 0.27654914969778627",
        "(0,0) | k=(1,0)^2 | -0.06856304217715666",
        "(1,0) | k=(1,0)^1 | 2.191832973936397",
        "(1,0) | k=(0,0)^1 (1,0)^1 | -0.18311306579168274",
        "(1,0) | k=(0,0)^2 | 0.17975804634447756",
        "(1,0) | k=(1,0)^2 | 0.003924461216465794",
    ],
}


class TestExpand:
    def test_dump_respects_degree_bound(self, capsys):
        assert main(["expand", "--n", "2", "--d", "2", "--channels", "2",
                     "--degree", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        body = [ln for ln in out if not ln.startswith("#")]
        assert body
        for ln in body:
            k_field = ln.split("|")[1].strip().removeprefix("k=")
            total = sum(int(t.split("^")[1]) for t in k_field.split() if "^" in t)
            assert total <= 2

    def test_seed_changes_coefficients(self, capsys):
        main(["expand", "--n", "1", "--channels", "2", "--degree", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["expand", "--n", "1", "--channels", "2", "--degree", "2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_config_file_input(self, capsys, tmp_path):
        from padre.block import Grid, block_config, build_conv_instance, config_to_json
        block = build_conv_instance(4, 2, 2, Grid(2, 2), seed=3)
        cfg_path = tmp_path / "block.json"
        cfg_path.write_text(config_to_json(block_config(block, seed=3)))
        assert main(["expand", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "# block N=4 D=2 degree=2" in out
        # the configured instance masks out degree 1, so only |k| = 2 terms
        for ln in (l for l in out.splitlines() if not l.startswith("#")):
            k_field = ln.split("|")[1].strip().removeprefix("k=")
            total = sum(int(t.split("^")[1]) for t in k_field.split() if "^" in t)
            assert total == 2


    @pytest.mark.parametrize("argv,document", [
        (["--n", "1", "--channels", "2", "--degree", "2", "--seed", "1"], None),
        ([], '{"seed": 7, "degree": 2, "N": 2, "D": 1}'),
    ], ids=["flags", "config"])
    def test_golden_text(self, argv, document, capsys, tmp_path):
        # the whole dump, byte for byte, except that the residual and the
        # coefficients, which come from an SVD, are compared numerically
        if document is not None:
            cfg_path = tmp_path / "block.json"
            cfg_path.write_text(document)
            argv = ["--config", str(cfg_path)]
        assert main(["expand", *argv]) == 0
        got = capsys.readouterr().out.splitlines()
        want = EXPAND_GOLDEN["config" if document else "flags"]
        assert len(got) == len(want)
        head, _, residual = got[0].rpartition(" ")
        want_head, _, want_residual = want[0].rpartition(" ")
        assert head == want_head
        assert float(residual) == pytest.approx(float(want_residual), abs=1e-13)
        for line, want_line in zip(got[1:], want[1:]):
            entry, k_field, coeff = line.split(" | ")
            want_entry, want_k, want_coeff = want_line.split(" | ")
            assert (entry, k_field) == (want_entry, want_k)
            assert float(coeff) == pytest.approx(float(want_coeff), rel=1e-12)

    def test_config_header_names_the_configured_seed(self, capsys, tmp_path):
        cfg_path = tmp_path / "block.json"
        cfg_path.write_text('{"seed": 7, "degree": 2, "N": 2, "D": 1}')
        assert main(["expand", "--config", str(cfg_path), "--seed", "3"]) == 0
        assert "degree=2 seed=7;" in capsys.readouterr().out.splitlines()[0]

    @pytest.mark.parametrize("document,message", [
        ('{"degree": 0, "N": 2, "D": 1}', "config field 'degree' is 0"),
        ('{"degree": 2, "N": 5, "D": 1, "layout": ["grid", 2, 2]}', "does not cover N=5"),
        ('{"degree": 65, "N": 2, "D": 1}', "beyond the config caps"),
        ('{"degree": 2, "N": 4, "D": 4}', "capped at N*D <= 8"),
        (None, "No such file or directory"),
        ('{"degree": 2, "N": 2,', "Expecting property name"),
        ("[2, 2, 1]", "a config is a JSON object, not list"),
        ('{"degree": 2, "N": 2, "D": 2, "normalize_y": true, "degree_mask": [1, 2]}',
         "a normalize_y block is not a polynomial"),
    ], ids=["shape-error", "layout-error", "size-cap-error", "beyond-oracle-caps",
            "missing-file", "malformed-json", "not-an-object", "not-polynomial"])
    def test_bad_config_is_a_usage_error(self, document, message, capsys, tmp_path):
        cfg_path = tmp_path / "block.json"
        if document is not None:
            cfg_path.write_text(document)
        assert main(["expand", "--config", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("padre expand: error: ") and err.count("\n") == 1
        assert message in err

    def test_flags_beyond_oracle_caps_are_a_usage_error(self, capsys):
        assert main(["expand", "--n", "3", "--channels", "3"]) == 2
        assert capsys.readouterr().err == ("padre expand: error: coefficient extraction "
                                           "capped at N*D <= 8\n")


class TestVerify:
    def test_full_suite_green(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 7
        assert "[FAIL]" not in out

    def test_single_scheme(self, capsys):
        assert main(["verify", "equivalence", "--scheme", "conv2former"]) == 0
        out = capsys.readouterr().out
        assert "scheme=conv2former" in out and "max_dev=" in out

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PADRE_SEED", "7")
        assert main(["verify", "equivalence", "--scheme", "hyena", "--seed", "0"]) == 0

    @pytest.mark.parametrize("argv", [["verify"], ["verify", "equivalence"]],
                             ids=["all", "equivalence"])
    def test_failing_check_exits_one(self, argv, capsys, monkeypatch):
        failing = CheckResult("scheme=hyena", 1.0, 1e-10, False, "forced failure")
        monkeypatch.setitem(V.CHECKS, "scheme=hyena", lambda seed=0: failing)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[FAIL] scheme=hyena max_dev=1.000e+00" in out
        assert out.count("[FAIL]") == 1

    def test_nan_direct_route_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(A, "sima_forward", lambda p, x: np.full(x.shape, np.nan))
        assert main(["verify", "equivalence", "--scheme", "sima"]) == 1
        assert "[FAIL] scheme=sima" in capsys.readouterr().out

    def test_plan_deviation_becomes_failing_record(self, monkeypatch):
        def deviating(*args, **kwargs):
            raise A.EquivalenceError(0.25, 1e-10)
        monkeypatch.setattr(A, "verify_plan", deviating)
        rec = V.check_conv2former()
        assert not rec.passed
        assert (rec.worst, rec.tol) == (0.25, 1e-10)
        assert "2.500e-01" in rec.detail

    @pytest.mark.parametrize("loader,field", [("load_block", "weights"),
                                              ("load_rational", "bias_den")])
    def test_round_trip_fails_on_nan_in_a_later_array(self, loader, field, monkeypatch):
        real = getattr(V, loader)

        def corrupted(path):
            block = real(path)
            bad = getattr(block, field).copy()
            bad.flat[0] = np.nan
            setattr(block, field, bad)
            return block
        monkeypatch.setattr(V, loader, corrupted)
        rec = V.check_round_trip()
        assert not rec.passed
        assert "changed on reload" in rec.detail

    def test_state_space_law_keeps_its_instances_at_any_seed(self):
        rec = V.check_state_space_law(7)
        assert rec.passed, rec
        assert rec == V.check_state_space_law(0)


class TestGradcheckCommand:
    def test_record_lines(self, capsys):
        # one line per case of criterion 3
        assert main(["gradcheck", "--probes", "60"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        names = [name for name, *_ in V.gradient_cases(0)]
        assert len(lines) == len(names) == 6
        for ln, name in zip(lines, names):
            assert ln.startswith(f"gradcheck scheme={name} seed=0 ")
            assert "probes=60" in ln and "max_rel_err=" in ln
            assert ln.endswith(" pass")

    def test_non_finite_perturbed_forward_is_a_failing_line(self, capsys, recwarn):
        # a step of 1e300 overflows the perturbed forwards: each case fails, naming a stage
        assert main(["gradcheck", "--step", "1e300", "--probes", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(ln.endswith(" fail") for ln in lines)
        assert "gradcheck scheme=conv-seq-d3 seed=0 probes=5 non_finite_stage=Z[2] fail" in lines
        # the fail lines say what overflowed; numpy's warnings would only repeat it
        assert not any(issubclass(w.category, RuntimeWarning) for w in recwarn)

    def test_seed_four_passes_with_criterion_three(self, capsys):
        # at the default probes and step the lines reproduce the ``gradients`` check
        assert main(["gradcheck", "--seed", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        worst = max(float(ln.split("max_rel_err=")[1].split()[0]) for ln in lines)
        rec = V.check_gradients(4)
        assert rec.passed and f"{rec.worst:.3e}" == f"{worst:.3e}"


class TestBench:
    def test_castling_kernel_is_clipped_to_small_grids(self, capsys, tmp_path):
        # N = 1 and 4 are 1x1 and 2x2 grids, N = 2 a 2-token sequence
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--schemes", "castling", "--n-list", "1", "2", "4",
                     "--channels", "2", "--reps", "5", "--warmup", "0", "--out", out]) == 0

    def test_castling_flops_on_a_sequence(self, capsys, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--schemes", "castling", "--n-list", "10", "--channels", "8",
                     "--reps", "5", "--warmup", "0", "--out", out]) == 0
        with open(out, encoding="utf-8") as f:
            row = dict(zip(*(line.strip().split(",") for line in f)))
        assert int(row["flops"]) == 2 * (5 * 10 * 64 + (3 * 10 - 2) * 8 + 2 * 10 * 8) == 7168


class TestApproxAttn:
    def test_error_column_decreases(self, capsys):
        assert main(["approx-attn", "--max-degree", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,max_error,remainder_bound"
        rows = [ln.split(",") for ln in lines[1:]]
        errs = {int(r[0]): float(r[1]) for r in rows}
        assert all(errs[d + 1] <= errs[d] for d in range(2, 12))
        assert errs[12] < 1e-8

    @pytest.mark.parametrize("argv,last_bound", [
        (["--max-degree", "400"], 0.0),
    ], ids=["factorial-beyond-float"])
    def test_bound_beyond_float_range(self, argv, last_bound, capsys):
        assert main(["approx-attn", *argv]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(last[2]) == last_bound

    def test_sweep_stops_at_first_zero_bound(self, capsys):
        # from degree 176 on every row repeats: error 8.8e-17, bound 0.0
        assert main(["approx-attn", "--max-degree", "100000"]) == 0
        out, err = capsys.readouterr()
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(177))
        assert float(rows[-1][2]) == 0.0 and float(rows[-2][2]) > 0.0
        assert "stopped, the degree 176 remainder bound is 0" in err

    def test_sweep_stops_at_first_infinite_bound(self, capsys):
        # at logits near 690 the bound leaves the float range at degree 3
        assert main(["approx-attn", "--l-bound", "704"]) == 0
        out, err = capsys.readouterr()
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        assert all(float(r[2]) < float("inf") for r in rows)
        assert "stopped, the degree 3 remainder bound" in err

    def test_infinite_bound_at_degree_zero_is_a_usage_error(self, capsys):
        assert main(["approx-attn", "--l-bound", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--l-bound" in err


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "b.csv")
        assert main(["bench", "--schemes", "padre-2", "--n-list", "16", "25",
                     "--channels", "8", "--reps", "5", "--warmup", "1",
                     "--out", out]) == 0
        with open(out) as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("scheme,N,D,d,flops")
        assert len(lines) == 3

    def test_fits_emitted_with_four_points(self, tmp_path, capsys):
        out = str(tmp_path / "b.csv")
        fits = str(tmp_path / "f.csv")
        assert main(["bench", "--schemes", "padre-2", "--n-list", "16", "25", "36",
                     "49", "--channels", "8", "--reps", "5", "--warmup", "0",
                     "--out", out, "--fits-out", fits]) == 0
        assert os.path.exists(fits)
        assert "flop exponent" in capsys.readouterr().out

    def test_no_fits_from_repeated_n(self, tmp_path, capsys):
        # four records at one N are one point, too few for a fit
        assert main(["bench", "--schemes", "padre-2", "--n-list", "16", "16", "16", "16",
                     "--channels", "8", "--reps", "5", "--warmup", "0",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert "flop exponent" not in capsys.readouterr().out

    def test_non_square_conv2former_exits_two(self, tmp_path, capsys):
        assert main(["bench", "--schemes", "conv2former", "--n-list", "15",
                     "--channels", "8", "--reps", "5", "--warmup", "0",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "conv2former needs a square token count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--schemes", "padre-2", "conv2former", "--n-list", "16", "15"],
         "conv2former needs a square token count, got N=15"),
        (["--schemes", "padre-2", "--n-list", "16", "25", "--fits-out", "FITS"],
         "--fits-out needs >= 4 distinct --n-list values, got 2"),
        (["--schemes", "padre-2", "--n-list", "16", "16", "25", "36", "--fits-out", "FITS"],
         "--fits-out needs >= 4 distinct --n-list values, got 3"),
    ], ids=["non-square-after-a-good-scheme", "fits-from-two-n", "fits-from-repeated-n"])
    def test_checked_before_anything_is_timed(self, argv, message, tmp_path, capsys,
                                              monkeypatch):
        from padre import bench
        set_up = []
        real = bench.setup_scheme
        monkeypatch.setattr(bench, "setup_scheme", lambda *a: set_up.append(a) or real(*a))
        out, fits = tmp_path / "b.csv", tmp_path / "f.csv"
        argv = [str(fits) if a == "FITS" else a for a in argv]
        assert main(["bench", *argv, "--channels", "8", "--reps", "5", "--warmup", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"padre bench: error: {message}\n"
        assert set_up == []
        assert not out.exists() and not fits.exists()

    @pytest.mark.parametrize("flag", ["--out", "--fits-out"])
    def test_unwritable_path_checked_before_anything_is_timed(self, flag, tmp_path, capsys,
                                                              monkeypatch):
        from padre import bench
        set_up = []
        monkeypatch.setattr(bench, "setup_scheme", lambda *a: set_up.append(a))
        paths = {"--out": str(tmp_path / "b.csv"), "--fits-out": str(tmp_path / "f.csv")}
        paths[flag] = bad = str(tmp_path / "missing" / "x.csv")
        assert main(["bench", "--schemes", "padre-2", "--n-list", "16", "25", "36", "49",
                     "--channels", "8", "--reps", "5", "--warmup", "0",
                     *(a for item in paths.items() for a in item)]) == 2
        assert capsys.readouterr().err == (f"padre bench: error: {flag} {bad!r} cannot be "
                                           "written: No such file or directory\n")
        assert set_up == []
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scheme", ["who-knows", "padre-x", "padre-9"])
    def test_unlisted_scheme_exits_two(self, scheme, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--schemes", scheme])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,env", [
        (["verify", "--seed", "-1"], None),
        (["verify", "equivalence", "--scheme", "hyena"], "abc"),
        (["verify", "equivalence", "--scheme", "hyena"], "-1"),
        (["gradcheck", "--probes", "0"], None),
        (["expand", "--n", "0"], None),
        (["expand", "--channels", "0"], None),
        (["expand", "--degree", "0"], None),
        (["bench", "--reps", "4"], None),
        (["bench", "--warmup", "-1"], None),
        (["bench", "--channels", "0"], None),
        (["bench", "--n-list", "16", "0"], None),
        (["approx-attn", "--max-degree", "-1"], None),
    ], ids=["flag-negative", "env-not-integer", "env-negative", "zero-probes", "expand-n",
            "expand-channels", "expand-degree", "bench-reps", "bench-warmup",
            "bench-channels", "bench-n-list", "approx-attn-max-degree"])
    def test_bad_value_exits_two(self, argv, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("PADRE_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--step", "nan"],
        ["approx-attn", "--l-bound", "-1"],
        ["approx-attn", "--l-bound", "nan"],
        ["approx-attn", "--l-bound", "inf"],
        ["approx-attn", "--l-bound", "0"],
    ], ids=["step-zero", "step-nan", "l-bound-negative", "l-bound-nan", "l-bound-inf",
            "l-bound-zero"])
    def test_bad_float_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a finite number > 0" in capsys.readouterr().err


#: prepended to a launcher: prints the BLAS thread variables as numpy's first import starts
NUMPY_IMPORT_SPY = """
import os, sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("at numpy import:", *(os.environ.get(v) for v in THREAD_VARS))
        return None

sys.meta_path.insert(0, NumpySpy())
"""


@pytest.mark.parametrize("launcher", [
    "from padre.cli import main; sys.exit(main())",
    "import runpy; runpy.run_module('padre', run_name='__main__', alter_sys=True)",
], ids=["console-script", "python-m"])
def test_blas_pools_pinned_before_numpy_loads(launcher):
    # the console script runs the first launcher; `python -m padre` the second
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_SPY + launcher, "approx-attn",
                          "--max-degree", "0"], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.splitlines()[0] == "at numpy import: 1 1 1 1"
