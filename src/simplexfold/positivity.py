"""Polya-theorem positivity certification on the simplex.

A polynomial P that is strictly positive on the simplex admits an exponent
N such that every coefficient of (x_1+...+x_{n+1})^N * P_H is strictly
positive, where P_H is the degree-k homogenization.  Scanning N upward
yields a certificate; a dense sample scan supplies cheap negative
witnesses before the exact expansion work starts.

The scan runs in integers: P_H is scaled by the lcm of its denominators
(a positive scale keeps every sign), and the coefficients of L^N * P_H sit
on a dense grid of Python ints indexed by the first n exponents, the last
one being N + k minus their sum.  Each step N -> N + 1 is `exact.times_L`,
the package's one Polya expansion step, which `cone.build_inequalities`
also uses.

Certificates demand strictly positive coefficients: a polynomial that
merely touches zero on the simplex (like (1-2x)^2) stays indeterminate at
every N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import numpy as np

from . import exact, simplex
from .polynomial import EXACT, MultiPoly, homogenize

CERTIFIED = "certified_positive"
NEGATIVE = "negative_witness"
INDETERMINATE = "indeterminate"

DEFAULT_N_MAX = 50


@dataclass(frozen=True)
class PolyaCertificate:
    verdict: str
    N: int | None = None
    N_max: int | None = None
    witness_point: tuple | None = None
    witness_value: float | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass(frozen=True)
class NonnegVerdict:
    ok: bool
    mode: str
    min_value: float | None = None
    witness: tuple | None = None
    detail: str = ""


@lru_cache(maxsize=16)
def _prescan_points(n: int, count: int = 10_000) -> np.ndarray:
    """Quasi-uniform lattice + barycentric grid + vertices, ~count points."""
    depth = simplex.default_grid_depth(n, target=count // 10)
    grid = simplex.barycentric_lattice(n, depth)
    qmc = simplex.quasi_uniform_points(n, max(count - len(grid), 0))
    return np.vstack([simplex.vertices(n), grid, qmc])


def polya_certify(p: MultiPoly, k: int | None = None,
                  N_max: int = DEFAULT_N_MAX) -> PolyaCertificate:
    """Scan N = 0..N_max for an all-positive Polya expansion of p.

    Returns the minimal certifying N, a sampled negative witness, or
    indeterminate(N_max).  Exact integer arithmetic in the expansion; the
    witness pre-scan runs in floats on ~10^4 quasi-uniform points, and its
    lowest point is a witness only if p is negative there exactly.
    """
    if p.scalar_mode != EXACT:
        raise TypeError("certification requires an exact polynomial")
    if k is None:
        k = p.degree()
    if p.degree() > k:
        raise ValueError(f"degree {p.degree()} exceeds bound k={k}")

    pts = _prescan_points(p.num_vars)
    vals = p.eval_many(pts)
    i = int(vals.argmin())
    if vals[i] < 0 and p.evaluate([Fraction(v) for v in pts[i]]) < 0:
        return PolyaCertificate(NEGATIVE, N_max=N_max,
                                witness_point=tuple(pts[i]),
                                witness_value=float(vals[i]))

    H = homogenize(p, k)
    scale = lcm(*(Fraction(c).denominator for c in H.terms.values()))
    n = p.num_vars
    # grid[b_1, ..., b_n] is the coefficient of x^b x_{n+1}^(N+k-|b|); entries
    # with |b| > N+k stay zero, so the expansion has full support and all
    # coefficients positive exactly when comb(N+k+n, n) entries are positive
    grid = np.zeros((k + 1,) * n, dtype=object)
    for exp, c in H.terms.items():
        grid[exp[:n]] = int(c * scale)
    for N in range(N_max + 1):
        if np.count_nonzero(grid > 0) == comb(N + k + n, n):
            return PolyaCertificate(CERTIFIED, N=N, N_max=N_max)
        grid = exact.times_L(grid)
    return PolyaCertificate(INDETERMINATE, N_max=N_max)


def nonneg_on_simplex(p: MultiPoly, mode: str = "sampled",
                      tol: float = 1e-9, N_max: int = DEFAULT_N_MAX) -> NonnegVerdict:
    """One-sided non-negativity check: p >= -tol on the simplex.

    Degree <= 2, in either mode: p's exact minimum, the least of its values
    at `simplex.quadric_candidates`' points, >= -tol.  Higher degree:
    sampled: min over ~10^5 deterministic quasi-uniform points >= -tol.
    certified: certify p + eps down a ladder eps = 1, 1/10, ... <= tol;
    true only if the smallest eps certifies (guaranteeing p >= -eps on the
    simplex).  Polynomials vanishing on the boundary typically exhaust
    N_max here; use sampled mode for those.
    """
    if mode not in ("sampled", "certified"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "certified" and p.scalar_mode != EXACT:
        raise TypeError("certified mode requires an exact polynomial")
    if p.degree() <= 2:
        points, values = simplex.quadric_candidates(p)
        i = min(range(len(values)), key=values.__getitem__)
        ok = values[i] >= -tol
        return NonnegVerdict(ok, mode, min_value=float(values[i]),
                             witness=None if ok else tuple(points[i]),
                             detail="exact quadric minimum")
    if mode == "sampled":
        pts = _prescan_points(p.num_vars, 100_000)
        vals = p.eval_many(pts)
        i = int(vals.argmin())
        ok = bool(vals[i] >= -tol)
        return NonnegVerdict(ok, mode, min_value=float(vals[i]),
                             witness=None if ok else tuple(pts[i]))
    k = p.degree()
    eps = Fraction(1)
    while True:
        cert = polya_certify(p + MultiPoly.constant(p.num_vars, eps), k=k, N_max=N_max)
        if cert.verdict == NEGATIVE:
            return NonnegVerdict(False, mode, min_value=cert.witness_value,
                                 witness=cert.witness_point,
                                 detail=f"negative at eps={eps}")
        if eps <= Fraction(tol).limit_denominator(10**15):
            break
        eps /= 10
    if cert.certified:
        return NonnegVerdict(True, mode, detail=f"certified at eps={eps}, N={cert.N}")
    return NonnegVerdict(False, mode, detail=f"indeterminate at eps={eps} (N_max={N_max})")
