"""Benchmark harness mechanics: records, fits, CSV, determinism."""

import pytest

from padre.bench import (
    BenchRecord,
    RECORD_COLUMNS,
    ScalingFit,
    UnknownSchemeError,
    emit_csv,
    fit_scaling,
    read_csv,
    run_bench,
    setup_scheme,
)
from padre.tensor import LayoutError


def synthetic_records(ns, times, flops, scheme="synthetic"):
    return [BenchRecord(scheme=scheme, n_tokens=n, n_channels=8, degree=2,
                        flops=f, median_s=t, p10_s=t, p90_s=t, reps=5, seed=0)
            for n, t, f in zip(ns, times, flops)]


class TestRunBench:
    def test_percentile_ordering_and_fields(self):
        records = run_bench(["padre-2", "softmax-attn"], [16], d_ch=8, reps=5,
                            warmup=1, seed=0)
        assert len(records) == 2
        for r in records:
            assert r.p10_s <= r.median_s <= r.p90_s
            assert r.flops > 0
            assert r.reps == 5

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            run_bench(["who-knows"], [16], d_ch=8, reps=5, warmup=0)

    @pytest.mark.parametrize("scheme", ["padre-x", "padre-9"])
    def test_only_listed_schemes_set_up(self, scheme):
        with pytest.raises(UnknownSchemeError):
            setup_scheme(scheme, 16, 8, 0)

    def test_conv2former_needs_a_square_token_count(self):
        with pytest.raises(LayoutError):
            run_bench(["conv2former"], [15], d_ch=8, reps=5, warmup=0)

    def test_every_pair_checked_before_any_is_set_up(self, monkeypatch):
        from padre import bench
        set_up = []
        monkeypatch.setattr(bench, "setup_scheme", lambda *a: set_up.append(a))
        with pytest.raises(LayoutError, match="got N=15"):
            run_bench(["padre-2", "sima", "conv2former"], [16, 15], d_ch=8, reps=5, warmup=0)
        assert set_up == []

    def test_too_few_reps(self):
        with pytest.raises(ValueError):
            run_bench(["padre-2"], [16], d_ch=8, reps=3)

    def test_flop_columns_reproducible(self):
        a = run_bench(["padre-2", "sima"], [16, 25], d_ch=8, reps=5, warmup=0, seed=4)
        b = run_bench(["padre-2", "sima"], [16, 25], d_ch=8, reps=5, warmup=0, seed=4)
        assert [r.flops for r in a] == [r.flops for r in b]

    def test_all_adapter_schemes_run(self):
        records = run_bench(["sima", "castling", "conv2former"], [16], d_ch=8,
                            reps=5, warmup=0, seed=1)
        assert {r.scheme for r in records} == {"sima", "castling", "conv2former"}
        assert all(r.flops > 0 for r in records)


class TestFitScaling:
    def test_constant_time_gives_zero_exponent(self):
        records = synthetic_records([16, 32, 64, 128], [1.0] * 4, [100] * 4)
        fit = fit_scaling(records)[0]
        assert fit.time_exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.flop_exponent == pytest.approx(0.0, abs=1e-12)

    def test_linear_series_gives_unit_exponent(self):
        ns = [16, 32, 64, 128]
        records = synthetic_records(ns, [n * 1e-6 for n in ns], [n * 10 for n in ns])
        fit = fit_scaling(records)[0]
        assert fit.time_exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.flop_exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.flop_residual < 1e-12

    def test_quadratic_flops(self):
        ns = [16, 32, 64, 128]
        records = synthetic_records(ns, [1e-6] * 4, [n * n for n in ns])
        assert fit_scaling(records)[0].flop_exponent == pytest.approx(2.0, abs=1e-9)

    def test_needs_four_points(self):
        records = synthetic_records([16, 32, 64], [1.0] * 3, [1] * 3)
        with pytest.raises(ValueError):
            fit_scaling(records)


class TestCsv:
    def test_round_trip(self, tmp_path):
        records = run_bench(["padre-2"], [16, 25], d_ch=8, reps=5, warmup=0, seed=2)
        path = str(tmp_path / "bench.csv")
        emit_csv(records, path)
        assert read_csv(path) == records

    def test_header_only_for_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv([], path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines == [",".join(RECORD_COLUMNS)]
        assert read_csv(path) == []

    def test_column_order_fixed(self, tmp_path):
        path = str(tmp_path / "one.csv")
        emit_csv(synthetic_records([16], [0.5], [42]), path)
        with open(path) as f:
            header = f.readline().strip()
        assert header == "scheme,N,D,d,flops,median_s,p10_s,p90_s,reps,seed"

    def test_deterministic_ordering(self, tmp_path):
        records = synthetic_records([64, 16], [1.0, 1.0], [1, 1], scheme="zz")
        records += synthetic_records([32], [1.0], [1], scheme="aa")
        path = str(tmp_path / "sorted.csv")
        emit_csv(records, path)
        back = read_csv(path)
        assert [(r.scheme, r.n_tokens) for r in back] == [("aa", 32), ("zz", 16),
                                                          ("zz", 64)]

    def test_fits_csv(self, tmp_path):
        fits = [ScalingFit("padre-2", 4, 1.0, 1.1, 0.01, 0.02)]
        path = str(tmp_path / "fits.csv")
        emit_csv(fits, path)
        with open(path) as f:
            header = f.readline().strip()
        assert header.startswith("scheme,points,flop_exponent")
        with pytest.raises(ValueError):
            read_csv(path)
