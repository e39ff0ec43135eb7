"""Brute-force extraction of the exact multivariate polynomial of a map.

Any black-box map f: R^{N x D} -> R^{N x D} that is entrywise polynomial of
total degree <= d can be identified exactly on tiny instances: enumerate all
monomials up to the bound, evaluate f on a deterministic low-discrepancy
probe set (one call on the whole ``(P, N, D)`` stack of probes), and solve
the resulting linear system.  The recovered coefficient table doubles as an
independent evaluator, a degree certificate, and a detector for maps (like
softmax attention) that are not polynomial at all.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .tensor import NumericError, ShapeError, SizeCapError

MAX_VARS = 8
MAX_DEGREE = 4
#: probe points per monomial of the fit
OVERSAMPLE = 2.0
PRUNE_TOL = 1e-9
RESIDUAL_TOL = 1e-6
COND_CAP = 1e10

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
HALTON_SKIP = 20


class NotPolynomialError(ValueError):
    """The probe residual is too large for any polynomial of this degree."""

    def __init__(self, residual: float, degree: int, tol: float):
        self.residual = residual
        super().__init__(
            f"fit residual {residual:.3e} exceeds {tol:.0e}: "
            f"not a polynomial of degree <= {degree}"
        )


class IllConditionedError(ValueError):
    """The probe system's condition number exceeds the safety cap."""


class DegreeCapError(ValueError):
    """The map has effective degree beyond the requested cap."""


#: a monomial ``((j, e), ...)``: exponent ``e`` of input entry ``j = m*D + n``
#: (row-major), ascending in ``j``, nonzero exponents only; ``()`` is the constant
Monomial = tuple[tuple[int, int], ...]


class FitDiagnostics(NamedTuple):
    residual: float
    condition: float
    n_monomials: int
    n_probes: int


@dataclass
class PolyCoeffs:
    """Per output entry ``(m, n)``, a sparse map from monomials to coefficients."""

    n_tokens: int
    n_channels: int
    degree_bound: int
    terms: dict[tuple[int, int], dict[Monomial, float]]
    diagnostics: FitDiagnostics

    def support_degrees(self) -> set[int]:
        return {sum(e for _, e in k) for entry in self.terms.values() for k in entry}

    def max_degree(self) -> int:
        degs = self.support_degrees()
        return max(degs) if degs else 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n_tokens, self.n_channels))
        flat = x.ravel()
        for (m, n), entry in self.terms.items():
            acc = 0.0
            for k, coeff in entry.items():
                mono = 1.0
                for j, e in k:
                    mono *= flat[j] ** e
                acc += coeff * mono
            out[m, n] = acc
        return out

    def dump_lines(self) -> list[str]:
        """Text form: "(m,n) | k=... | pi", sorted by |k| then lexicographic."""
        d = self.n_channels
        lines = []
        for (m, n) in sorted(self.terms):
            entry = self.terms[(m, n)]
            for k in sorted(entry, key=lambda k: (sum(e for _, e in k), k)):
                mono = " ".join(f"({j // d},{j % d})^{e}" for j, e in k) or "1"
                lines.append(f"({m},{n}) | k={mono} | {entry[k]!r}")
        return lines


def monomial_exponents(n_vars: int, degree: int) -> np.ndarray:
    """All exponent vectors with total degree <= ``degree``, graded order."""
    rows: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, budget: int) -> None:
        if remaining == 0:
            rows.append(list(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            rec(prefix, remaining - 1, budget - e)
            prefix.pop()

    rec([], n_vars, degree)
    rows.sort(key=lambda r: (sum(r), r))
    return np.array(rows, dtype=np.int64)


def halton(n_points: int, n_dims: int) -> np.ndarray:
    """Deterministic low-discrepancy points in (0, 1)^n_dims, after the first ``HALTON_SKIP``."""
    if n_dims > len(_PRIMES):
        raise SizeCapError(f"halton supports up to {len(_PRIMES)} dims")
    out = np.empty((n_points, n_dims))
    for d in range(n_dims):
        base = _PRIMES[d]
        for i in range(n_points):
            idx, f, v = HALTON_SKIP + i + 1, 1.0, 0.0
            while idx > 0:
                f /= base
                v += f * (idx % base)
                idx //= base
            out[i, d] = v
    return out


def probe_points(n_points: int, n_dims: int) -> np.ndarray:
    """Probe set in (-1, 1)^n_dims with an arcsine (Chebyshev-like) profile.

    The cos map clusters points toward the boundary, which keeps the monomial
    Vandermonde system well conditioned at the degrees used here.
    """
    return np.cos(np.pi * halton(n_points, n_dims))


def probe_vandermonde(pts: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``V[p, m] = prod_j pts[p, j] ** exps[m, j]``, from a table of powers.

    The table holds ``pts ** e`` for every e up to the top exponent, filled by
    repeated multiplication.  The factors are gathered and multiplied one
    variable at a time, so no ``(P, M, N*D)`` temporary is built.
    """
    n_probes, n_vars = pts.shape
    top = int(exps.max(initial=0))
    table = np.empty((n_probes, n_vars, top + 1))
    table[:, :, 0] = 1.0
    for e in range(1, top + 1):
        table[:, :, e] = table[:, :, e - 1] * pts
    vand = np.ones((n_probes, exps.shape[0]))
    for j in range(n_vars):
        vand *= table[:, j, exps[:, j]]
    return vand


class _ProbeSystem(NamedTuple):
    """The read-only probe system of one (N*D, degree, probe count) shape.

    ``coeffs = w @ (u.T @ values)`` is lstsq's minimum-norm solution: ``u`` and
    ``w = Vh.T / s`` keep the ``r`` singular triplets above lstsq's default
    cutoff ``eps * max(P, M) * s[0]``.
    """

    pts: np.ndarray      # (P, N*D) probe points
    exps: np.ndarray     # (M, N*D) monomial exponents, graded order
    keys: tuple[Monomial, ...]   # the ``Monomial`` of each row of ``exps``
    u: np.ndarray        # (P, r)
    w: np.ndarray        # (M, r)
    cond: float          # s[0] / s[-1] of the P x M Vandermonde


@functools.lru_cache(maxsize=4)
def _probe_system(n_vars: int, degree: int, n_probes: int) -> _ProbeSystem:
    exps = monomial_exponents(n_vars, degree)
    pts = probe_points(n_probes, n_vars)
    vand = probe_vandermonde(pts, exps)
    n_mono = exps.shape[0]
    k = min(n_probes, n_mono)
    # the retained arrays share one buffer, allocated before the SVD's temporaries
    # so that it does not sit above the heap space they free (a lower peak RSS)
    buf = np.empty(k * (n_probes + n_mono))
    u_full, s, vh = np.linalg.svd(vand, full_matrices=False)
    cond = float(s[0] / s[-1])
    r = int(np.count_nonzero(s > np.finfo(float).eps * max(n_probes, n_mono) * s[0]))
    u = buf[:n_probes * r].reshape(n_probes, r)
    w = buf[n_probes * r:(n_probes + n_mono) * r].reshape(n_mono, r)
    u[...] = u_full[:, :r]
    np.divide(vh[:r].T, s[:r], out=w)
    keys = tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in exps.tolist())
    for a in (buf, u, w, pts, exps):
        a.flags.writeable = False
    return _ProbeSystem(pts, exps, keys, u, w, cond)


def extract_coeffs(f: Callable[[np.ndarray], np.ndarray], n_tokens: int,
                   n_channels: int, degree_bound: int) -> PolyCoeffs:
    """Identify the polynomial coefficients of ``f`` by least squares on
    ``OVERSAMPLE`` probes per monomial; coefficients within ``PRUNE_TOL`` of
    zero are dropped.

    ``f`` maps a ``(P, N, D)`` stack of probe inputs to the ``(P, N, D)``
    stack of their outputs in one call; any other output shape raises
    ShapeError.  ``f`` gets a fresh copy of the probes, which it may write
    into.  The probe points and the factorized probe system are computed
    once per (N*D, degree, probe count) and cached; the condition cap, the
    output shape and the residual are checked on every call.  Raises
    NotPolynomialError when the fit residual exceeds ``RESIDUAL_TOL``,
    NumericError when ``f`` returns a non-finite value, and
    IllConditionedError when the probe system's condition exceeds
    ``COND_CAP``.
    """
    n_vars = n_tokens * n_channels
    if n_vars > MAX_VARS:
        raise SizeCapError(f"coefficient extraction capped at N*D <= {MAX_VARS}")
    if degree_bound > MAX_DEGREE:
        raise SizeCapError(f"coefficient extraction capped at degree <= {MAX_DEGREE}")
    n_mono = math.comb(n_vars + degree_bound, degree_bound)
    n_probes = int(math.ceil(OVERSAMPLE * n_mono))
    system = _probe_system(n_vars, degree_bound, n_probes)
    if system.cond > COND_CAP:
        raise IllConditionedError(
            f"probe system condition {system.cond:.3e} > {COND_CAP:.0e}")
    stack = (n_probes, n_tokens, n_channels)
    values = np.asarray(f(system.pts.reshape(stack).copy()))
    if values.shape != stack:
        raise ShapeError(f"probe map returned shape {values.shape}, not {stack}")
    if not np.isfinite(values).all():
        raise NumericError("probe-values", "probe map returned non-finite values")
    values = values.reshape(n_probes, n_vars)
    proj = system.u.T @ values
    residual = float(np.max(np.abs(values - system.u @ proj)))
    if residual > RESIDUAL_TOL:
        raise NotPolynomialError(residual, degree_bound, RESIDUAL_TOL)
    coeffs = (system.w @ proj).T
    kept = (np.abs(coeffs) > PRUNE_TOL).tolist()
    terms: dict[tuple[int, int], dict[Monomial, float]] = {}
    for out_idx, (mask, vals) in enumerate(zip(kept, coeffs.tolist())):
        if any(mask):
            terms[divmod(out_idx, n_channels)] = dict(
                itertools.compress(zip(system.keys, vals), mask))
    return PolyCoeffs(
        n_tokens=n_tokens, n_channels=n_channels, degree_bound=degree_bound,
        terms=terms,
        diagnostics=FitDiagnostics(residual, system.cond, n_mono, n_probes),
    )


def rel_dev(got, ref) -> float:
    """Matrix-level relative deviation: max |got - ref| / max(|ref|), or
    ``inf`` when either side holds an inf or NaN (which ``max`` would drop)."""
    diff = np.abs(np.asarray(got) - np.asarray(ref))
    scale = max(float(np.max(np.abs(ref))), 1e-12)
    return float(np.max(diff)) / scale if np.isfinite(diff).all() else math.inf


class HomogeneityVerdict(NamedTuple):
    passed: bool
    max_rel_err: float


def assert_homogeneous(f: Callable[[np.ndarray], np.ndarray], degree: int,
                       trials: int, shape: tuple[int, int], seed: int = 0) -> HomogeneityVerdict:
    """Check f(a*x) == a^degree * f(x), within 1e-10 relative, over random
    trials with a in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, size=shape)
        alpha = rng.uniform(0.5, 2.0)
        worst = max(worst, rel_dev(f(alpha * x), alpha ** degree * f(x)))
    return HomogeneityVerdict(worst <= 1e-10, worst)


def max_effective_degree(f: Callable[[np.ndarray], np.ndarray], cap: int,
                         shape: tuple[int, int], seed: int = 0) -> int:
    """Largest polynomial degree present, by univariate restriction.

    Fits g(t) = f(t * x0) per random direction x0, 16 of them; a degree is
    present when a coefficient exceeds 1e-8.  Raises DegreeCapError when
    the restriction cannot be matched by a degree-``cap`` polynomial.
    """
    rng = np.random.default_rng(seed)
    # Chebyshev points on [0.5, 1.5]: away from 0 so low-degree terms stay visible
    n_t = cap + 5
    t = 1.0 + 0.5 * np.cos(np.pi * (2 * np.arange(n_t) + 1) / (2 * n_t))
    vand = t[:, None] ** np.arange(cap + 1)[None, :]
    best = 0
    for _ in range(16):
        x0 = rng.uniform(-1.0, 1.0, size=shape)
        samples = np.stack([f(ti * x0).ravel() for ti in t])
        coeffs, *_ = np.linalg.lstsq(vand, samples, rcond=None)
        resid = float(np.max(np.abs(vand @ coeffs - samples)))
        if resid > 1e-7 * max(1.0, float(np.max(np.abs(samples)))):
            raise DegreeCapError(
                f"restriction residual {resid:.3e}: effective degree exceeds cap {cap}"
            )
        present = np.nonzero(np.max(np.abs(coeffs), axis=1) > 1e-8)[0]
        if present.size:
            best = max(best, int(present[-1]))
    return best
