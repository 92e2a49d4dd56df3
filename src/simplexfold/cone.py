"""Finitely generated inner approximations of the positive cone on the simplex.

For parameters (n, k, N) the cone lives in coefficient space: a polynomial
P of degree <= k in n variables belongs iff every coefficient of
(x_1+...+x_{n+1})^N * P_H is non-negative.  Expanding that product in the
degree-(N+k) monomial basis gives one integer inequality row per monomial;
the extreme rays of the resulting polyhedral cone are enumerated exactly by
the double description method in int64 arithmetic, with every entry bounded
in advance and a fallback to Python integers when the bound reaches 2**63.

Rays are kept as primitive integer vectors (gcd 1, pointing into the
cone), which makes set comparison across runs exact.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import comb

import numpy as np

from . import exact, simplex
from .polynomial import (EXACT, FLOAT, MultiPoly, monomials_exact, monomials_upto,
                         require_fields)

Vec = tuple[int, ...]

log = logging.getLogger(__name__)

# int64 arithmetic is exact while every entry stays below this bound.
_INT64_LIMIT = 2 ** 63
# Pair or (candidate, ray) tests per block in the adjacency test.
_BLOCK = 1 << 17


class ConeNotPointedError(ValueError):
    """The inequality system admits a line; extreme rays are not defined."""


@dataclass
class ConeRep:
    n: int
    k: int
    N: int
    basis: list[Vec]            # graded-lex monomial exponents spanning Pi_k^n
    row_monomials: list[Vec]    # degree-(N+k) monomials in n+1 vars, one per row
    ineq: list[Vec]             # integer inequality rows, ineq @ c >= 0
    rays: list[Vec] | None = None
    scaled_rays: list[MultiPoly] | None = None
    scaled_vectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def ray_poly(self, i: int) -> MultiPoly:
        """Exact generator polynomial for ray i."""
        vec = self.rays[i]
        return MultiPoly(self.n, dict(zip(self.basis, vec)), EXACT)

    def poly_from_vector(self, vec, mode=FLOAT) -> MultiPoly:
        return MultiPoly(self.n, dict(zip(self.basis, vec)), mode)

    def to_json(self) -> dict:
        data = {
            "n": self.n, "k": self.k, "N": self.N,
            "basis": [list(b) for b in self.basis],
            "row_monomials": [list(b) for b in self.row_monomials],
            "ineq": [[f"{c}/1" for c in row] for row in self.ineq],
        }
        if self.rays is not None:
            data["rays"] = [[f"{c}/1" for c in r] for r in self.rays]
        if self.scaled_rays is not None:
            data["scaled_rays"] = [p.to_json() for p in self.scaled_rays]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ConeRep":
        def ivec(row):
            out = []
            for c in row:
                f = Fraction(c)
                if f.denominator != 1:
                    raise ValueError("non-integer cone entry")
                out.append(int(f))
            return tuple(out)

        require_fields(data, "cone", "n", "k", "N", "basis", "row_monomials", "ineq")
        cone = cls(int(data["n"]), int(data["k"]), int(data["N"]),
                   [tuple(b) for b in data["basis"]],
                   [tuple(b) for b in data["row_monomials"]],
                   [ivec(r) for r in data["ineq"]])
        if "rays" in data:
            cone.rays = [ivec(r) for r in data["rays"]]
        if "scaled_rays" in data:
            cone.scaled_rays = [MultiPoly.from_json(p) for p in data["scaled_rays"]]
            cone.scaled_vectors = np.array(
                [[float(p.terms.get(b, 0.0)) for b in cone.basis]
                 for p in cone.scaled_rays])
        return cone


def build_inequalities(n: int, k: int, N: int) -> ConeRep:
    """Integer matrix of the Polya expansion coefficients.

    Column alpha holds the expansion of x^alpha * L^(N+k-|alpha|), built by
    `exact.times_L` from the unit grid at alpha; row beta is the coefficient
    of the degree-(N+k) monomial beta.  The grid's C order over
    |b| <= N+k is the lexicographic order of `monomials_exact`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    if N < 0:
        raise ValueError("N must be non-negative")
    basis = monomials_upto(n, k)
    rows = monomials_exact(n + 1, N + k)
    side = N + k + 1
    support = np.indices((side,) * n).sum(axis=0) < side
    cols = []
    for alpha in basis:
        grid = np.zeros((sum(alpha) + 1,) * n, dtype=object)
        grid[alpha] = 1
        for _ in range(N + k - sum(alpha)):
            grid = exact.times_L(grid)
        cols.append(grid[support])
    A = np.stack(cols, axis=1).tolist()
    assert len(A) == len(rows) == comb(N + k + n, n)
    return ConeRep(n, k, N, basis, rows, [tuple(r) for r in A])


def primitive(v) -> Vec:
    """GCD-reduced integer vector; the sign is kept, so a ray stays a ray."""
    row = np.array([[int(c) for c in v]], dtype=object)
    return tuple(_primitive_rows(row)[0].tolist())


def _primitive_rows(W: np.ndarray) -> np.ndarray:
    """primitive() applied to every row of an integer array."""
    if not W.size:
        return W
    g = np.gcd.reduce(W, axis=1)[:, None]
    g[g == 0] = 1
    return W // g


def _initial_simplicial(A: list[Vec], dim: int):
    """D independent rows and the integer rays of their simplicial cone.

    The rows are the first independent ones, the pivot columns of A^T.
    Reducing [chosen | I] leaves d * chosen^-1 on the right, and column j
    of chosen^-1 meets every chosen row with slack 0 except row j, where
    the slack is 1; the factor sign(d) keeps that slack positive.
    """
    idx, _ = exact.bareiss(list(zip(*A)))
    if len(idx) < dim:
        raise ConeNotPointedError(
            f"inequality matrix has rank {len(idx)} < {dim}; cone contains a line")
    _, red = exact.bareiss([list(A[i]) + [int(r == j) for j in range(dim)]
                            for r, i in enumerate(idx)])
    sign = 1 if red[0][0] > 0 else -1
    rays = [primitive([sign * red[i][dim + j] for i in range(dim)])
            for j in range(dim)]
    return idx, rays


def enumerate_rays(cone: ConeRep) -> ConeRep:
    """Fill cone.rays with the complete set of extreme rays.

    Double description with dynamic row insertion: the next row is the
    remaining one with the most zero slacks against the current rays, the
    first on ties.  Rays are the rows of an integer array R and their slacks
    against every inequality the matrix S = R @ A.T.  A positive/negative
    pair is adjacent when the common zero set t over the processed rows has
    |t| >= dim-2 and exactly two current rays (the pair itself) vanish on
    all of t.  Both tests are exact integer bit operations on zero sets
    packed into 64-bit words (`_adjacent_pairs`): popcounts for |t|, and
    for the cover test only the rays that vanish on t's rarest row, taken
    in blocks so that peak memory does not grow with the ray count.

    Arithmetic is int64 while a bound on every entry, checked with Python
    ints before each combination step and each slack product, stays below
    2**63; otherwise the arrays switch to Python ints (dtype=object) and
    the same loop continues.
    """
    A = cone.ineq
    D = cone.dim
    idx, init = _initial_simplicial(A, D)
    A = np.array(A, dtype=object)
    R = np.array(init, dtype=object)
    widened_at = 0       # rows processed when the arrays became Python ints
    if D * _absmax(A) * _absmax(R) < _INT64_LIMIT:
        A, R = A.astype(np.int64), R.astype(np.int64)
        widened_at = None
    S = R @ A.T
    done = np.zeros(len(A), dtype=bool)
    done[idx] = True
    peak = len(R)
    pairs = candidates = adjacent = 0

    while not done.all():
        remaining = np.flatnonzero(~done)
        i = remaining[np.argmax((S[:, remaining] == 0).sum(axis=0))]
        s = S[:, i]
        minus = np.flatnonzero(s < 0)
        if len(minus):
            plus = np.flatnonzero(s > 0)
            zero = np.flatnonzero(s == 0)
            p, m, n_cand = _adjacent_pairs(S[:, done] == 0, plus, minus, D)
            pairs += len(plus) * len(minus)
            candidates += n_cand
            adjacent += len(p)
            A, R, S, s = _widen(2 * _absmax(s) * _absmax(R), A, R, S, s)
            W = _primitive_rows(s[p, None] * R[m] - s[m, None] * R[p])
            A, R, S, W = _widen(D * _absmax(A) * _absmax(W), A, R, S, W)
            if widened_at is None and A.dtype == object:
                widened_at = int(done.sum())
            # Adjacent pairs span distinct 2-faces, so no new ray repeats
            # another or a kept one.
            keep = np.concatenate([plus, zero])
            R = np.concatenate([R[keep], W])
            S = np.concatenate([S[keep], W @ A.T])
            peak = max(peak, len(R))
        done[i] = True

    cone.rays = sorted(tuple(r) for r in R.tolist())
    log.debug("enumerate_rays(%d,%d,%d): %d rows processed, peak %d rays, "
              "dtype %s, widened after %s rows; %d plus/minus pairs, "
              "%d candidates, %d adjacent",
              cone.n, cone.k, cone.N, len(A), peak, R.dtype, widened_at,
              pairs, candidates, adjacent,
              extra={"rows": len(A), "peak_rays": peak, "dtype": str(R.dtype),
                     "widened_at": widened_at, "pairs": pairs,
                     "candidates": candidates, "adjacent": adjacent})
    return cone


def _absmax(a: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return int(np.abs(a).max()) if a.size else 0


def _widen(bound: int, *arrays: np.ndarray):
    """The arrays unchanged while `bound` < 2**63 (or once they hold Python
    ints), else converted to Python ints."""
    if bound < _INT64_LIMIT or arrays[0].dtype == object:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _adjacent_pairs(Z: np.ndarray, plus: np.ndarray, minus: np.ndarray, D: int):
    """Adjacent plus/minus pairs (p, m), plus-major, and the candidate count.

    Z is the boolean zero-set matrix (rays x processed rows).  A pair is a
    candidate when its common zero set t has |t| >= D-2, and adjacent when
    exactly two rays (the pair itself) vanish on all of t.  Zero sets are
    packed into little-endian uint64 words with the rows ordered rarest
    first, so the lowest set bit of t is its rarest row: only the rays that
    vanish on that row can contain t, and only they are tested.  An empty t
    lies in every ray.  All counts are exact integer popcounts.
    """
    rays, rows = Z.shape
    words = -(-rows // 64)
    Zs = np.zeros((rays, 64 * words), dtype=bool)
    Zs[:, :rows] = Z[:, np.argsort(Z.sum(axis=0), kind="stable")]
    bits = np.packbits(Zs, bitorder="little").view("<u8").reshape(rays, words)

    # Prefilter: |t| is the popcount of the pair's common zero words,
    # summed in a dtype that holds the row count.
    Bm = bits[minus]
    step = max(1, _BLOCK // len(minus))
    empty = np.zeros(0, dtype=np.intp)
    ps, ms = [empty], [empty]
    for lo in range(0, len(plus), step):
        blk = plus[lo:lo + step]
        size = np.zeros((len(blk), len(minus)), dtype=np.min_scalar_type(rows))
        for w in range(words):
            size += np.bitwise_count(bits[blk, w, None] & Bm[None, :, w])
        bi, mj = np.divmod(np.flatnonzero(size >= D - 2), len(minus))
        ps.append(blk[bi])
        ms.append(minus[mj])
    p, m = np.concatenate(ps), np.concatenate(ms)
    t = bits[p] & bits[m]

    # Cover test: the candidates, grouped by rarest row, against the rays
    # that vanish on it, about _BLOCK (candidate, ray) tests at a time.
    # The rarest row is the lowest set bit, which low & -low isolates.
    first = (t != 0).argmax(axis=1)
    low = t[np.arange(len(t)), first]
    rare = 64 * first + np.bitwise_count((low & -low) - 1)
    keep = np.full(len(t), rays == 2)     # an empty t: every ray contains it
    cand = np.flatnonzero(low)
    cand = cand[np.argsort(rare[cand], kind="stable")]
    tc, rc = t[cand], rare[cand]
    ok = np.zeros(len(cand), dtype=bool)
    count = np.min_scalar_type(rays)      # holds any ray count without wrapping
    _, starts = np.unique(rc, return_index=True)
    for lo, end in pairwise([*starts.tolist(), len(rc)]):
        out = ~bits[Zs[:, rc[lo]]]        # rows where each such ray is nonzero
        step = max(1, _BLOCK // len(out))
        for a in range(lo, end, step):
            T = tc[a:min(a + step, end)]
            miss = T[:, None, 0] & out[None, :, 0]
            for w in range(1, words):
                miss |= T[:, None, w] & out[None, :, w]
            ok[a:a + len(T)] = (miss == 0).sum(axis=1, dtype=count) == 2
    keep[cand] = ok
    return p[keep], m[keep], len(t)


def ray_is_extreme(cone: ConeRep, ray) -> bool:
    """Active inequality rows of the ray have rank dim-1 (and none negative)."""
    vals = [sum(a * b for a, b in zip(row, ray)) for row in cone.ineq]
    if any(v < 0 for v in vals):
        return False
    active = [cone.ineq[j] for j, v in enumerate(vals) if v == 0]
    return len(exact.bareiss(active)[0]) == cone.dim - 1


def scale_generators(cone: ConeRep) -> ConeRep:
    """Scale every ray so its polynomial has maximum 1 on the simplex."""
    if cone.rays is None:
        raise ValueError("enumerate rays before scaling")
    scaled, vectors = [], []
    face_dims: dict[int, int] = {}
    for i, ray in enumerate(cone.rays):
        p = cone.ray_poly(i).to_float()
        val, arg = simplex.max_on_simplex(p)
        if val <= 0:
            raise ValueError(
                f"ray {i} has non-positive simplex maximum {val}; "
                "numerical failure for a nonzero non-negative generator")
        dim = cone.n - len(simplex.face_of(arg))
        face_dims[dim] = face_dims.get(dim, 0) + 1
        scaled.append(p / val)
        vectors.append([float(c) / val for c in ray])
    cone.scaled_rays = scaled
    cone.scaled_vectors = np.array(vectors)
    face_dims = dict(sorted(face_dims.items()))
    log.debug("scale_generators(%d,%d,%d): %d generators scaled, maxima by "
              "face dimension %s", cone.n, cone.k, cone.N, len(scaled), face_dims,
              extra={"generators": len(scaled), "max_face_dims": face_dims})
    return cone


def save_json(cone: ConeRep, path) -> None:
    with open(path, "w") as fh:
        json.dump(cone.to_json(), fh, sort_keys=True, separators=(",", ":"))


def load_json(path) -> ConeRep:
    with open(path) as fh:
        return ConeRep.from_json(json.load(fh))
