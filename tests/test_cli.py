"""End-to-end CLI surface: subcommands, exit codes, output formats."""

import os

import numpy as np
import pytest

from padre import adapters as A
from padre import verify as V
from padre.cli import main
from padre.verify import CheckResult


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
        assert main(["gradcheck", "--probes", "60"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 3
        for ln in lines:
            assert ln.startswith("gradcheck scheme=")
            assert "probes=60" in ln and "max_rel_err=" in ln
            assert ln.endswith(" pass")


class TestApproxAttn:
    def test_error_column_decreases(self, capsys):
        assert main(["approx-attn", "--max-degree", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,max_error,remainder_bound"
        rows = [ln.split(",") for ln in lines[1:]]
        errs = {int(r[0]): float(r[1]) for r in rows}
        assert all(errs[d + 1] <= errs[d] for d in range(2, 12))
        assert errs[12] < 1e-8


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


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,env", [
        (["verify", "--seed", "-1"], None),
        (["verify", "equivalence", "--scheme", "hyena"], "abc"),
        (["verify", "equivalence", "--scheme", "hyena"], "-1"),
        (["gradcheck", "--probes", "0"], None),
    ], ids=["flag-negative", "env-not-integer", "env-negative", "zero-probes"])
    def test_bad_value_exits_two(self, argv, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("PADRE_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >=" in capsys.readouterr().err
