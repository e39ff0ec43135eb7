"""Coefficient extraction, degree certificates, and their failure modes."""

import math

import numpy as np
import pytest

from padre import oracle
from padre.block import forward, random_block
from padre.oracle import (
    PRUNE_TOL,
    DegreeCapError,
    IllConditionedError,
    NotPolynomialError,
    SizeCapError,
    assert_homogeneous,
    extract_coeffs,
    halton,
    max_effective_degree,
    monomial_exponents,
    probe_points,
    probe_vandermonde,
)
from padre.adapters import AttnParams, softmax_attention
from padre.tensor import NumericError, ShapeError

from test_block import identity_block
from conftest import rel_dev, stacked


class TestExtractCoeffs:
    def test_scalar_quadratic_block(self):
        block = identity_block(1, 1, 2, [1.0, 1.0], {1, 2})
        coeffs = extract_coeffs(lambda x: forward(block, x)[0], 1, 1, 2)
        assert coeffs.diagnostics.residual < 1e-9
        entry = coeffs.terms[(0, 0)]
        lin, quad = ((0, 1),), ((0, 2),)
        assert entry[lin] == pytest.approx(1.0, abs=1e-9)
        assert entry[quad] == pytest.approx(1.0, abs=1e-9)
        assert set(entry) == {lin, quad}

    def test_identity_map(self):
        coeffs = extract_coeffs(lambda x: x.copy(), 2, 2, 2)
        for m in range(2):
            for n in range(2):
                entry = coeffs.terms[(m, n)]
                assert set(entry) == {((2 * m + n, 1),)}
                assert entry[((2 * m + n, 1),)] == pytest.approx(1.0, abs=1e-10)

    def test_softmax_attention_is_not_polynomial(self):
        p = AttnParams(np.eye(1), np.eye(1), np.eye(1), d_k=1)
        for deg in (1, 2, 3, 4):
            with pytest.raises(NotPolynomialError):
                extract_coeffs(stacked(lambda x: softmax_attention(p, x)), 2, 1, deg)

    def test_not_polynomial_names_the_callers_tolerance(self):
        p = AttnParams(np.eye(1), np.eye(1), np.eye(1), d_k=1)
        with pytest.raises(NotPolynomialError, match=r"fit residual \S+ exceeds 1e-06"):
            extract_coeffs(stacked(lambda x: softmax_attention(p, x)), 2, 1, 2)

    @pytest.mark.parametrize("f", [lambda xs: xs[0], lambda xs: xs.reshape(len(xs), -1),
                                   lambda xs: xs[:-1], lambda xs: xs.sum()],
                             ids=["one-probe", "flattened", "one-short", "scalar"])
    def test_wrong_output_shape_rejected(self, f):
        with pytest.raises(ShapeError):
            extract_coeffs(f, 2, 2, 2)

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            extract_coeffs(lambda x: x, 3, 3, 2)
        with pytest.raises(SizeCapError):
            extract_coeffs(lambda x: x, 2, 2, 5)

    @pytest.mark.parametrize("n,d_ch,deg", [(2, 2, 3), (4, 2, 4), (1, 8, 2), (8, 1, 3)])
    def test_blocks_within_cap(self, n, d_ch, deg, rng):
        block = random_block(n, d_ch, deg, seed=deg * 7 + n)
        coeffs = extract_coeffs(lambda x: forward(block, x)[0], n, d_ch, deg)
        assert coeffs.diagnostics.residual < 1e-9
        assert coeffs.max_degree() <= deg
        for _ in range(50):
            x = rng.uniform(-1, 1, (n, d_ch))
            assert rel_dev(coeffs.evaluate(x), forward(block, x)[0]) <= 1e-8

    def test_support_matches_single_degree_mask(self):
        for j in (1, 2, 3):
            block = random_block(2, 2, 3, seed=j, degree_mask=frozenset({j}))
            coeffs = extract_coeffs(lambda x: forward(block, x)[0], 2, 2, 3)
            assert coeffs.support_degrees() <= {j}

    def test_bias_contributes_constant_term(self):
        block = random_block(2, 2, 2, seed=9, with_bias=True)
        coeffs = extract_coeffs(lambda x: forward(block, x)[0], 2, 2, 2)
        assert 0 in coeffs.support_degrees()

    def test_fresh_key_finds_its_coefficient(self):
        # a key built from ``monomial_exponents`` finds its coefficient; every
        # kept key is built that way
        block = random_block(2, 2, 3, seed=5)
        fit = extract_coeffs(lambda x: forward(block, x)[0], 2, 2, 3)
        found = 0
        for e in monomial_exponents(4, 3):
            fresh = monomial_key(e)
            for entry in fit.terms.values():
                # a linear scan by equality, then the hashed lookup
                match = [v for k, v in entry.items() if k == fresh]
                if match:
                    assert entry[fresh] == match[0]
                    found += 1
        assert found == sum(map(len, fit.terms.values())) > 0

    def test_keys_are_row_major_entries_with_nonzero_exponents(self):
        # the degree-2 block on a 2 x 2 grid: every key lists ascending entries
        # j = m*D + n once each, with exponents >= 1 that sum to at most 2
        block = random_block(2, 2, 2, seed=3)
        fit = extract_coeffs(lambda x: forward(block, x)[0], 2, 2, 2)
        keys = {k for entry in fit.terms.values() for k in entry}
        assert ((0, 1), (3, 1)) in keys and ((1, 2),) in keys
        for k in keys:
            js = [j for j, _ in k]
            assert js == sorted(set(js)) and all(0 <= j < 4 for j in js)
            assert all(e >= 1 for _, e in k) and 1 <= sum(e for _, e in k) <= 2

    def test_zero_outputs_get_no_entry(self):
        # the map zeroes output column 1, so only entries (m, 0) exist
        def f(x):
            out = x ** 2
            out[..., 1] = 0.0
            return out
        fit = extract_coeffs(f, 2, 2, 2)
        assert list(fit.terms) == [(0, 0), (1, 0)]
        for m in range(2):
            assert fit.terms[(m, 0)] == {((2 * m, 2),): pytest.approx(1.0)}

    def test_dump_lines_sorted_by_total_degree(self):
        block = identity_block(1, 2, 2, np.ones(2), {1, 2})
        coeffs = extract_coeffs(lambda x: forward(block, x)[0], 1, 2, 2)
        lines = coeffs.dump_lines()
        assert lines and all(ln.count("|") == 2 for ln in lines)

        def total(k_field):
            return sum(int(tok.split("^")[1]) for tok in k_field.split()
                       if "^" in tok)

        per_entry = {}
        for ln in lines:
            entry, k_field, _ = (part.strip() for part in ln.split("|"))
            per_entry.setdefault(entry, []).append(total(k_field.removeprefix("k=")))
        for degs in per_entry.values():
            assert degs == sorted(degs)


def monomial_key(e):
    """The key of exponent row ``e``: its nonzero ``(j, e_j)``, ascending in ``j``."""
    return tuple((j, e_j) for j, e_j in enumerate(e.tolist()) if e_j)


def lstsq_fit(f, n, d_ch, degree):
    """The fit by ``np.linalg.lstsq`` on a Vandermonde of direct powers.

    Returns the (M, N*D) coefficient matrix, the exponents, the condition
    number and the probe count.
    """
    exps = monomial_exponents(n * d_ch, degree)
    n_probes = math.ceil(oracle.OVERSAMPLE * len(exps))
    pts = probe_points(n_probes, n * d_ch)
    vand = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
    values = f(pts.reshape(n_probes, n, d_ch)).reshape(n_probes, -1)
    coeffs, *_ = np.linalg.lstsq(vand, values, rcond=None)
    return coeffs, exps, np.linalg.cond(vand), n_probes


def dense_coeffs(fit, exps):
    """``fit.terms`` as an (M, N*D) matrix in the order of ``exps``; pruned entries 0.

    Also checks that each entry lists its monomials in the order of ``exps``,
    the order ``evaluate`` sums them in.
    """
    row = {monomial_key(e): i for i, e in enumerate(exps)}
    out = np.zeros((len(exps), fit.n_tokens * fit.n_channels))
    for (m, n), entry in fit.terms.items():
        rows = [row[k] for k in entry]
        assert rows == sorted(rows)
        for k, c in entry.items():
            out[row[k], m * fit.n_channels + n] = c
    return out


class TestCachedProbeSystem:
    """Each fit reuses one cached factorization per shape; it must match lstsq."""

    @pytest.mark.parametrize("n,d_ch,deg", [(1, 1, 2), (2, 2, 3), (1, 3, 4), (3, 2, 4),
                                            (2, 4, 3), (8, 1, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lstsq_reference(self, n, d_ch, deg, seed):
        # coefficients within 1e-12 absolute, the same pruned support, and the
        # condition number within 1e-12 relative of lstsq / np.linalg.cond
        block = random_block(n, d_ch, deg, seed=seed, with_bias=seed % 2 == 1)
        f = lambda x: forward(block, x)[0]
        ref, exps, cond, n_probes = lstsq_fit(f, n, d_ch, deg)
        fit = extract_coeffs(f, n, d_ch, deg)
        got = dense_coeffs(fit, exps)
        np.testing.assert_array_equal(got != 0, np.abs(ref) > PRUNE_TOL)
        np.testing.assert_allclose(got, np.where(np.abs(ref) > PRUNE_TOL, ref, 0.0),
                                   rtol=0, atol=1e-12)
        assert fit.diagnostics.n_monomials == len(exps)
        assert fit.diagnostics.n_probes == n_probes
        assert fit.diagnostics.condition == pytest.approx(cond, rel=1e-12)

    def test_map_writing_into_its_input_leaves_next_fit_unchanged(self):
        block = random_block(2, 2, 3, seed=11)
        f = lambda x: forward(block, x)[0]
        before = extract_coeffs(f, 2, 2, 3)

        def scribbler(xs):
            out = f(xs)
            xs[...] = 7.0
            return out

        assert extract_coeffs(scribbler, 2, 2, 3).terms == before.terms
        after = extract_coeffs(f, 2, 2, 3)
        assert after.terms == before.terms
        assert after.diagnostics == before.diagnostics

    def test_cached_arrays_are_read_only(self):
        extract_coeffs(lambda x: x.copy(), 2, 2, 2)
        system = oracle._probe_system(4, 2, 30)
        for a in (system.pts, system.exps, system.u, system.w, system.u.base):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_shapes_of_one_size_share_one_key_set(self):
        # N*D = 8 at degree 3 in four layouts: one cached system, and each fit's
        # keys are the objects of its ``keys``, one per exponent row
        system = oracle._probe_system(8, 3, 330)
        assert system.keys == tuple(map(monomial_key, system.exps))
        cached = {id(k) for k in system.keys}
        for n, d_ch in ((2, 4), (4, 2), (8, 1), (1, 8)):
            block = random_block(n, d_ch, 3, seed=n)
            fit = extract_coeffs(lambda x: forward(block, x)[0], n, d_ch, 3)
            assert {id(k) for entry in fit.terms.values() for k in entry} <= cached
        assert oracle._probe_system(8, 3, 330) is system

    def test_condition_cap_checked_on_warm_shape(self, monkeypatch):
        extract_coeffs(lambda x: x.copy(), 2, 2, 2)
        monkeypatch.setattr(oracle, "COND_CAP", 1.0)
        with pytest.raises(IllConditionedError):
            extract_coeffs(lambda x: x.copy(), 2, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_output_rejected(self, bad):
        with pytest.raises(NumericError):
            extract_coeffs(lambda x: np.full_like(x, bad), 1, 2, 2)


class TestHomogeneity:
    def test_z2_tap_is_degree_two(self, rng):
        block = random_block(4, 3, 3, seed=3)
        verdict = assert_homogeneous(lambda x: forward(block, x)[1].z[1], 2,
                                     trials=20, shape=(4, 3))
        assert verdict.passed

    def test_z1_tap_degree_one_not_two(self):
        block = random_block(4, 3, 2, seed=4)
        tap = lambda x: forward(block, x)[1].z[0]
        assert assert_homogeneous(tap, 1, trials=20, shape=(4, 3)).passed
        assert not assert_homogeneous(tap, 2, trials=20, shape=(4, 3)).passed

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_map_fails(self, value):
        with np.errstate(invalid="ignore"):          # inf - inf
            verdict = assert_homogeneous(lambda x: np.full(x.shape, value), 1, trials=3,
                                         shape=(2, 2))
        assert not verdict.passed and verdict.max_rel_err == math.inf


class TestMaxEffectiveDegree:
    def test_top_degree_present(self):
        block = random_block(2, 2, 3, seed=5, degree_mask=frozenset({2, 3}))
        f = lambda x: forward(block, x)[0]
        assert max_effective_degree(f, 4, (2, 2)) == 3

    def test_zeroed_top_slice_drops_degree(self):
        block = random_block(2, 2, 3, seed=6)
        block.weights[..., 2] = 0.0
        f = lambda x: forward(block, x)[0]
        assert max_effective_degree(f, 4, (2, 2)) == 2

    def test_cap_exceeded_detected(self):
        block = random_block(2, 2, 4, seed=7)
        f = lambda x: forward(block, x)[0]
        with pytest.raises(DegreeCapError):
            max_effective_degree(f, 2, (2, 2))


class TestProbeInfrastructure:
    def test_halton_deterministic_and_in_range(self):
        a = halton(64, 8)
        b = halton(64, 8)
        np.testing.assert_array_equal(a, b)
        assert np.all((a > 0) & (a < 1))

    def test_monomial_count(self):
        # C(n_vars + degree, degree)
        assert monomial_exponents(8, 4).shape[0] == 495
        assert monomial_exponents(2, 2).shape[0] == 6
        exps = monomial_exponents(3, 2)
        totals = exps.sum(axis=1)
        assert (np.diff(totals) >= 0).all()

    @pytest.mark.parametrize("n_vars,degree", [(1, 4), (3, 2), (8, 3), (8, 4)])
    def test_vandermonde_matches_direct_powers(self, n_vars, degree):
        # powers by repeated multiplication round up to degree - 1 more times than pow
        exps = monomial_exponents(n_vars, degree)
        pts = probe_points(2 * len(exps), n_vars)
        ref = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
        np.testing.assert_allclose(probe_vandermonde(pts, exps), ref,
                                   rtol=2 * degree * np.finfo(float).eps, atol=0)
