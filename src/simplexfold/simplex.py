"""Geometry of the unit simplex in projected coordinates.

A point of the n-simplex is a length-n vector x with x_i >= 0 and
sum(x) <= 1; the implicit coordinate is x_{n+1} = 1 - sum(x).  Faces are
identified by the set of active facet inequalities, with facet index n+1
standing for sum(x) = 1 (1-based indices, so a frozenset subset of
{1, ..., n+1}; the empty set is the interior).

Monomial integrals over the simplex are exact rationals, which makes the
L2 distance between polynomial maps exact up to the final square root.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, lcm, prod

import numpy as np

from . import exact
from .polynomial import EXACT, MultiPoly, homogenize, monomials_exact

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9


class OutsideSimplexError(ValueError):
    pass


def in_simplex(x, tol: float = DEFAULT_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -tol) and x.sum() <= 1 + tol)


def check_in_simplex(x, tol: float = DEFAULT_TOL):
    if not in_simplex(x, tol):
        raise OutsideSimplexError(f"point {x} outside simplex beyond tol={tol}")


def vertices(n: int) -> np.ndarray:
    """The n+1 vertices in projected coordinates: origin and unit points."""
    return np.vstack([np.zeros(n), np.eye(n)])


def face_of(x, tol: float = DEFAULT_TOL) -> frozenset[int]:
    """Active facet set of a point: {i <= n : x_i <= tol}, plus n+1 if sum >= 1-tol."""
    x = np.asarray(x, dtype=float)
    check_in_simplex(x, tol)
    n = len(x)
    active = {i + 1 for i in range(n) if x[i] <= tol}
    if 1 - x.sum() <= tol:
        active.add(n + 1)
    return frozenset(active)


def monomial_integral(alpha, n: int) -> Fraction:
    """Integral of x^alpha over the n-simplex: prod(a_i!) / (|a| + n)!."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"bad exponent vector {alpha} for n={n}")
    num = 1
    for a in alpha:
        num *= factorial(a)
    return Fraction(num, factorial(sum(alpha) + n))


def integrate_poly(p: MultiPoly):
    """Integral of p over the simplex; exact in exact mode."""
    total = Fraction(0) if p.scalar_mode == EXACT else 0.0
    for exp, c in p.terms.items():
        I = monomial_integral(exp, p.num_vars)
        total += c * (I if p.scalar_mode == EXACT else float(I))
    return total


def l2_distance(f, g) -> float:
    """L2 distance between two maps: sqrt(sum_i int (P_i - Q_i)^2 dx).

    Accepts anything with fields .n and .P (the n defining polynomials).
    If the maps differ in scalar mode, both are taken to float.
    """
    if f.n != g.n:
        raise ValueError("maps live on different simplices")
    total = None
    for p, q in zip(f.P, g.P):
        if p.scalar_mode != q.scalar_mode:
            p, q = p.to_float(), q.to_float()
        d = p - q
        val = integrate_poly(d * d)
        total = val if total is None else total + val
    return float(total) ** 0.5


def sample_uniform(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform points on the n-simplex, one per row.

    Exponential-spacings construction: n+1 unit exponentials normalized by
    their sum are uniform on the embedded simplex; drop the last coordinate.
    """
    if count == 0:
        return np.zeros((0, n))
    e = rng.exponential(size=(count, n + 1))
    return e[:, :n] / e.sum(axis=1, keepdims=True)


@lru_cache(maxsize=64)
def barycentric_lattice(n: int, depth: int) -> np.ndarray:
    """All lattice points i/depth with nonnegative i and sum(i) <= depth."""
    pts = []

    def rec(prefix, remaining, k):
        if k == 1:
            for i in range(remaining + 1):
                pts.append(prefix + (i,))
            return
        for i in range(remaining + 1):
            rec(prefix + (i,), remaining - i, k - 1)

    rec((), depth, n)
    return np.array(pts, dtype=float) / depth


def default_grid_depth(n: int, target: int) -> int:
    """Smallest depth whose lattice has at least `target` points (10^3 for n=1)."""
    if n == 1:
        return 1000
    d = 1
    while comb(d + n, n) < target:
        d += 1
    return d


@lru_cache(maxsize=32)
def quasi_uniform_points(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the simplex.

    An R_d Kronecker sequence in the unit cube, pushed to the simplex by the
    sorted-spacings map (order statistics of n draws cut [0,1] into n+1
    spacings; the first n are simplex coordinates).
    """
    # root of x^(n+1) = x + 1 via fixed point iteration
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1.0 / (n + 1))
    alphas = np.array([(1.0 / phi) ** (i + 1) for i in range(n)])
    j = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + j * alphas[None, :], 1.0)
    z = np.sort(u, axis=1)
    z = np.hstack([np.zeros((count, 1)), z])
    return np.diff(np.hstack([z, np.ones((count, 1))]), axis=1)[:, :n]


# The degree >= 3 subdivision stops at this relative gap, or once more cells
# than the cap stay live (a maximum along a curve keeps ~1/h cells of side h).
_GAP_TOL = 1e-12
_MAX_CELLS = 1 << 14


def max_on_simplex(p: MultiPoly) -> tuple[float, np.ndarray]:
    """Global maximum of p over the simplex as (value, point).

    Degree <= 2 is exact by enumeration (`quadric_candidates`): the
    maximum of a quadric sits at a vertex or at the critical point of its
    restriction to one face, and every such point is found exactly, in
    integers, by `exact.bareiss`.  Higher degree returns an upper bound
    from Bernstein subdivision (`_max_bernstein`) and the best point seen.
    """
    if p.degree() <= 2:
        cands, _ = quadric_candidates(p)
        vals = p.eval_many(cands)
        i = int(vals.argmax())
        return float(vals[i]), cands[i]
    return _max_bernstein(p)


def quadric_candidates(p: MultiPoly) -> tuple[np.ndarray, list[Fraction]]:
    """Every point where a quadric p can take its simplex maximum or minimum,
    with p's exact value there.

    In barycentric coordinates l = (x, 1 - sum(x)) p is l^T Q l with
    sum(l) = 1, and on the face spanned by the vertex set S a critical
    point solves [2 s Q_SS, -1; 1^T, 0] [l_S; s mu] = [0; 1], where s, the
    lcm of the coefficients' denominators (a power of two for float
    input), makes the system integral.  `exact.bareiss` reduces it to
    d [l_S; s mu] with d = +-det, and the face is kept only when every
    d l_i * d > 0, that is l_S > 0; vertices always qualify.  A singular
    system is skipped: a quadric is constant on its critical set, and that
    set, where it meets the face, also meets the face's boundary, which
    the smaller faces cover.  At a critical point 2 Q_SS l_S = mu 1, so
    p = mu / 2 exactly; only the points are rounded to floats.
    """
    n = p.num_vars
    m = n + 1
    coeffs = {exp: Fraction(c) for exp, c in p.terms.items()}
    s = lcm(*(c.denominator for c in coeffs.values()))
    # M = 2 s Q.  A term c x^a homogenizes to c x^a (sum l)^(2 - |a|), a sum
    # of c l_i l_j over ordered pairs (i, j); each adds s c to M_ij and M_ji.
    M = [[0] * m for _ in range(m)]
    every = range(m)
    for exp, c in coeffs.items():
        c = c.numerator * (s // c.denominator)
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        firsts = idx[:1] or every
        seconds = idx[1:] or every
        for i in firsts:
            for j in seconds:
                M[i][j] += c
                M[j][i] += c
    cands, values = [], []
    for mask in range(1, 1 << m):
        S = [i for i in range(m) if mask >> i & 1]
        rows = [[M[i][j] for j in S] + [-1, 0] for i in S]
        rows.append([1] * len(S) + [0, 1])
        pivots, red = exact.bareiss(rows)
        if pivots != list(range(len(rows))):
            continue
        d = red[0][0]
        lam = [r[-1] for r in red[:-1]]
        if min(v * d for v in lam) <= 0:
            continue
        point = dict(zip(S, lam))
        cands.append([point[i] / d if i in point else 0.0 for i in range(n)])
        values.append(Fraction(red[-1][-1], 2 * s * d))
    return np.array(cands, dtype=float), values


@lru_cache(maxsize=32)
def _bernstein_tables(n: int, k: int):
    """Degree-k multi-indices on n+1 vertices, their multinomials, corner
    positions, and per ordered pair (i, j) the matrix to the half where the
    edge midpoint replaces v_i: b'_a = sum_s C(a_i,s)/2^a_i b_{a-s e_i+s e_j}."""
    exps = monomials_exact(n + 1, k)
    pos = {a: r for r, a in enumerate(exps)}
    e = np.eye(n + 1, dtype=int)
    halves = {}
    for i, j in permutations(range(n + 1), 2):
        T = halves[i, j] = np.zeros((len(exps), len(exps)))
        for r, a in enumerate(exps):
            for s in range(a[i] + 1):
                T[pos[tuple(np.add(a, s * (e[j] - e[i])))], r] = comb(a[i], s) / 2 ** a[i]
    multi = [factorial(k) // prod(map(factorial, a)) for a in exps]
    return exps, multi, [pos[tuple(c)] for c in k * e], halves


def _max_bernstein(p: MultiPoly) -> tuple[float, np.ndarray]:
    """Upper bound on max p over the simplex and the best point seen.

    Branch and bound on Bernstein coefficients: each round drops the cells
    whose largest coefficient cannot beat the best corner (p at a vertex) by
    the gap, and bisects the rest at the midpoint of their longest edge.
    """
    n, k = p.num_vars, p.degree()
    exps, multi, corners, halves = _bernstein_tables(n, k)
    H = homogenize(p, k).terms
    B = np.array([[float(H.get(a, 0)) / m for a, m in zip(exps, multi)]])
    V = np.vstack([np.eye(n), np.zeros(n)])[None]  # e_1..e_n, origin
    iu, ju = np.triu_indices(n + 1, 1)
    lo = dropped = -np.inf
    while True:
        c, v = np.unravel_index(B[:, corners].argmax(), (len(B), n + 1))
        if B[c, corners[v]] > lo:
            lo, best = float(B[c, corners[v]]), V[c, v]
        top = B.max(axis=1)
        hi = max(dropped, float(top.max()))
        slack = _GAP_TOL * max(1.0, abs(lo))
        live = top > lo + slack
        dropped = max(dropped, float(top[~live].max(initial=-np.inf)))
        B, V = B[live], V[live]
        if hi - lo <= slack or len(B) > _MAX_CELLS:
            break
        edge = np.linalg.norm(V[:, iu] - V[:, ju], axis=2).argmax(axis=1)
        halfB, halfV = [], []
        for t, (i, j) in enumerate(zip(iu, ju)):
            b, w = B[edge == t], V[edge == t]
            halfB += [b @ halves[i, j], b @ halves[j, i]]
            halfV += [w.copy(), w.copy()]
            halfV[-2][:, i] = halfV[-1][:, j] = (w[:, i] + w[:, j]) / 2
        B, V = np.concatenate(halfB), np.concatenate(halfV)
    if len(B) > _MAX_CELLS:
        log.debug("max_on_simplex: %d live cells exceed the cap; stopping at "
                  "gap %.3g", len(B), hi - lo, extra={"cells": len(B), "gap": hi - lo})
    return hi, best
