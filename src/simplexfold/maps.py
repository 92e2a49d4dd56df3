"""Polynomial self-maps of the simplex and their linear (Markov) special case.

A map is n defining polynomials in projected coordinates; the last
component 1 - sum(P_i) is always implicit.  Constructors that receive n+1
polynomials verify the sum identity and drop the last one, keeping the
representation canonical.

Long float orbits drift, so `apply` clamps images that are within `tol` of
the boundary back onto the simplex and treats anything worse as evidence
of a non-member map.
"""

from __future__ import annotations

import functools

import numpy as np

from . import positivity, simplex
from .polynomial import (EXACT, FLOAT, MultiPoly, derivative_terms,
                         eval_terms, gradedlex_key, require_fields)

APPLY_TOL = 1e-9


class MapImageError(ValueError):
    """Image left the simplex beyond the clamping tolerance."""


class SimplexMap:
    __slots__ = ("n", "k", "P", "label", "_coeffs")

    def __init__(self, n: int, k: int, P: list[MultiPoly], label: str = ""):
        P = list(P)
        if len(P) not in (n, n + 1):
            raise ValueError(f"need n or n+1 polynomials, got {len(P)}")
        modes = {p.scalar_mode for p in P}
        if len(modes) != 1:
            raise ValueError("components must share a scalar mode")
        for p in P:
            if p.num_vars != n:
                raise ValueError("component variable count != n")
            if p.degree() > k:
                raise ValueError(f"component degree {p.degree()} exceeds k={k}")
        if len(P) == n + 1:
            total = P[0]
            for p in P[1:]:
                total = total + p
            one = MultiPoly.constant(n, 1, P[0].scalar_mode)
            if P[0].scalar_mode == EXACT:
                if total != one:
                    raise ValueError("n+1 components do not sum to 1 exactly")
            elif (total - one).max_abs_coeff() > 1e-9:
                raise ValueError("n+1 components do not sum to 1 within 1e-9")
            P = P[:n]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "P", tuple(P))
        object.__setattr__(self, "label", label)

    def __setattr__(self, *a):
        raise AttributeError("SimplexMap is immutable")

    @property
    def scalar_mode(self) -> str:
        return self.P[0].scalar_mode

    def last_component(self) -> MultiPoly:
        """The implicit polynomial 1 - sum(P_i)."""
        total = MultiPoly.constant(self.n, 1, self.scalar_mode)
        for p in self.P:
            total = total - p
        return total

    def components_full(self) -> list[MultiPoly]:
        return list(self.P) + [self.last_component()]

    def to_float(self) -> "SimplexMap":
        if self.scalar_mode == FLOAT:
            return self
        return SimplexMap(self.n, self.k, [p.to_float() for p in self.P], self.label)

    # -- dynamics-facing evaluation -----------------------------------------

    def coefficients(self) -> "MapCoefficients":
        """The map's evaluation table, built on first use and then cached."""
        try:
            return self._coeffs
        except AttributeError:
            pass
        object.__setattr__(self, "_coeffs", MapCoefficients([self]))
        return self._coeffs

    def apply_many(self, X: np.ndarray, tol: float = APPLY_TOL,
                   clamp_log: list | None = None) -> np.ndarray:
        """Apply to each row of X with boundary clamping.

        Components in (-tol, 0) are set to 0 and sums in (1, 1+tol] are
        renormalized; violations beyond tol raise MapImageError.  Clamped
        row indices are appended to clamp_log when given.
        """
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out, bad, clamped = self.coefficients().apply(X, tol)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise image_error(self, X[j], out[j], tol)
        if clamp_log is not None:
            clamp_log.extend(np.flatnonzero(clamped).tolist())
        return out[0] if single else out

    def apply(self, x, tol: float = APPLY_TOL, clamp_log: list | None = None) -> np.ndarray:
        simplex.check_in_simplex(x, tol)
        return self.apply_many(np.asarray(x, dtype=float), tol, clamp_log)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "P": [p.to_json() for p in self.P], "label": self.label}

    @classmethod
    def from_json(cls, data: dict) -> "SimplexMap":
        require_fields(data, "map", "n", "k", "P")
        P = [MultiPoly.from_json(p) for p in data["P"]]
        # A component with no terms carries no scalar mode of its own in
        # JSON; it takes the mode of the components that have terms.
        if any(p.terms and p.scalar_mode == FLOAT for p in P):
            P = [p if p.terms else p.to_float() for p in P]
        return cls(int(data["n"]), int(data["k"]), P, data.get("label", ""))

    def __eq__(self, other):
        return (isinstance(other, SimplexMap) and self.n == other.n
                and self.k == other.k and self.P == other.P)

    def __hash__(self):
        return hash((self.n, self.k, self.P))

    def __repr__(self):
        return f"SimplexMap(n={self.n}, k={self.k}, label={self.label!r})"


def image_error(f: SimplexMap, x, image, tol: float) -> MapImageError:
    """The error for an image of x under f that left the simplex beyond tol."""
    return MapImageError(f"image {image} of {x} outside simplex beyond tol={tol} "
                         f"(map {f.label or 'unlabeled'})")


class MapCoefficients:
    """The package's one routine for applying polynomial maps to points.

    Holds the coefficients of one map, or of several maps with one map per
    point row, over their graded-lex monomials, and evaluates them with
    polynomial.eval_terms, the routine behind MultiPoly.eval_many.  So a
    one-map table gives eval_many's values bit for bit, and a row of a
    many-map table differs from its map's own table at most in the sign of
    a zero (a monomial that only other maps carry adds 0 to it).  The same
    holds for the Jacobians, read off the same terms.
    """

    __slots__ = ("n", "maxdeg", "terms", "_partials")

    def __init__(self, fs, rows=None):
        """fs: maps on one simplex.  rows: for each point row, the index of
        its map in fs; None applies the single map in fs to every row."""
        n = fs[0].n
        if any(f.n != n for f in fs):
            raise ValueError("maps live on different simplices")
        if rows is None and len(fs) != 1:
            raise ValueError("several maps need a map index per row")
        monos = sorted({e for f in fs for p in f.P for e in p.terms},
                       key=gradedlex_key)
        at = {e: j for j, e in enumerate(monos)}
        C = np.zeros((n, len(monos), len(fs)))
        for m, f in enumerate(fs):
            for i, p in enumerate(f.P):
                for e, c in p.terms.items():
                    C[i, at[e], m] = float(c)
        self.n = n
        self.maxdeg = [max((e[v] for e in monos), default=0) for v in range(n)]
        # only monomials with a nonzero coefficient in some map are evaluated
        self.terms = tuple(
            tuple((float(C[i, j, 0]) if rows is None else C[i, j, rows],
                   tuple((v, e) for v, e in enumerate(monos[j]) if e))
                  for j in np.flatnonzero(C[i].any(axis=1)))
            for i in range(n))

    def take(self, keep) -> "MapCoefficients":
        """The per-row table restricted to the rows `keep`."""
        out = object.__new__(MapCoefficients)
        out.n, out.maxdeg = self.n, self.maxdeg
        out.terms = tuple(tuple((c[keep], fac) for c, fac in terms)
                          for terms in self.terms)
        return out

    def values(self, X: np.ndarray) -> np.ndarray:
        """Unclamped component values at the rows of X, shape (rows, n)."""
        if X.shape[1] != self.n:
            raise ValueError("point dimension mismatch")
        out = np.empty((X.shape[0], self.n))
        for i, col in enumerate(eval_terms(X, self.maxdeg, self.terms)):
            out[:, i] = col
        return out

    def jacobians(self, X: np.ndarray) -> np.ndarray:
        """Jacobian matrices at the rows of X, shape (rows, n, n).

        Entry (i, j) sums the terms of component i differentiated in x_j
        (polynomial.derivative_terms), which keeps graded-lex order, so a
        one-map table gives the float partials' eval_many values bit for
        bit.  The n^2 derivative term lists are built on the first call and
        kept; all of them go through one eval_terms call.
        """
        if X.shape[1] != self.n:
            raise ValueError("point dimension mismatch")
        try:
            partials = self._partials
        except AttributeError:
            partials = self._partials = tuple(derivative_terms(terms, j)
                                              for terms in self.terms
                                              for j in range(self.n))
        cols = eval_terms(X, self.maxdeg, partials)
        return np.stack(cols, axis=1).reshape(X.shape[0], self.n, self.n)

    def apply(self, X: np.ndarray, tol: float = APPLY_TOL):
        """Images of the rows of X, clamped onto the simplex.

        Returns (images, bad, clamped).  A row is bad when its image has a
        component below -tol or a sum above 1+tol; bad rows are returned
        unclamped.  Every other row with a negative component or a sum above
        1 has its negative components set to 0 and is then renormalized if
        its sum exceeds 1; those rows are flagged in clamped.
        """
        out = self.values(X)
        # minimum and sum over the columns pairwise, much cheaper than a
        # reduction along a short axis 1; the minimum is exact in any order,
        # NaN included, and the sum is out.sum(axis=1) up to the sign of a
        # zero sum, which the comparisons below do not see
        low = functools.reduce(np.minimum, out.T)
        sums = functools.reduce(np.add, out.T)
        bad = (low < -tol) | (sums > 1 + tol)
        clamped = ((low < 0) | (sums > 1)) & ~bad
        if clamped.any():
            fix = np.maximum(out[clamped], 0.0)
            s = fix.sum(axis=1)
            over = s > 1
            fix[over] /= s[over, None]
            out[clamped] = fix
        return out, bad, clamped


class MembershipReport:
    def __init__(self, ok: bool, components):
        self.ok = ok
        self.components = components  # one NonnegVerdict per P_1..P_n, 1-sum

    def witnesses(self):
        return [(i, v.witness) for i, v in enumerate(self.components) if not v.ok]

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"MembershipReport(ok={self.ok})"


def membership_check(f: SimplexMap) -> MembershipReport:
    """Non-negativity of every P_i and 1 - sum(P_i) on the simplex; exact for k <= 2."""
    verdicts = [positivity.nonneg_on_simplex(p) for p in f.components_full()]
    return MembershipReport(all(v.ok for v in verdicts), verdicts)


def convex_combine(f: SimplexMap, g: SimplexMap, t) -> SimplexMap:
    """t*f + (1-t)*g; exact when t and both maps are exact."""
    if (f.n, f.k) != (g.n, g.k):
        raise ValueError("maps must share (n, k)")
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    exact = (f.scalar_mode == EXACT and g.scalar_mode == EXACT
             and not isinstance(t, float))
    if not exact:
        f, g, t = f.to_float(), g.to_float(), float(t)
    P = [p * t + q * (1 - t) for p, q in zip(f.P, g.P)]
    return SimplexMap(f.n, f.k, P, label=f"combine(t={t}; {f.label}, {g.label})")


def compose_maps(f: SimplexMap, g: SimplexMap) -> SimplexMap:
    """The composite map x -> f(g(x)); degree bound multiplies."""
    if f.n != g.n:
        raise ValueError("maps must share n")
    if f.scalar_mode != g.scalar_mode:
        raise TypeError("compose requires matching scalar modes")
    P = [p.compose(list(g.P)) for p in f.P]
    return SimplexMap(f.n, f.k * g.k, P, label=f"({f.label})o({g.label})")


# -- Markov (k = 1) specialization -------------------------------------------


def check_markov(M: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("Markov matrix must be square")
    if (M < -tol).any() or np.abs(M.sum(axis=0) - 1).max() > tol:
        raise ValueError("matrix is not column-stochastic")
    return M


def markov_map(M: np.ndarray, label: str = "markov") -> SimplexMap:
    """Wrap a column-stochastic (n+1)x(n+1) matrix as a degree-1 map.

    Projected components: P_i(x) = sum_j M[i,j] x_j + M[i,n] (1 - sum x_j).
    """
    M = check_markov(M)
    n = M.shape[0] - 1
    P = []
    for i in range(n):
        terms = {(0,) * n: float(M[i, n])}
        for j in range(n):
            exp = tuple(1 if u == j else 0 for u in range(n))
            terms[exp] = float(M[i, j] - M[i, n])
        P.append(MultiPoly(n, terms, FLOAT))
    return SimplexMap(n, 1, P, label=label)


BIJECTIVE_PERMUTATION = "bijective_permutation"
BIJECTIVE_NONPERMUTATION = "bijective_nonpermutation"  # impossible per Lemma 1
NOT_ONTO = "not_onto"
SINGULAR = "singular"


def is_permutation_if_bijective(M: np.ndarray, tol: float = 1e-9) -> str:
    """Classify a stochastic matrix as a simplex self-map.

    Nonsingular matrices are onto the simplex exactly when every vertex
    appears among the columns (the image is the hull of the vertex images);
    such matrices are permutation matrices.  A nonsingular verdict of
    "bijective but not a permutation" would contradict the lemma and is
    flagged as its own value rather than folded into another class.
    """
    M = check_markov(M, tol=max(tol, 1e-12))
    m = M.shape[0]
    if abs(np.linalg.det(M)) <= tol:
        return SINGULAR
    eye = np.eye(m)
    col_vertex = [None] * m
    for j in range(m):
        hit = np.flatnonzero(np.abs(M[:, j][None, :] - eye).max(axis=1) <= tol)
        if hit.size:
            col_vertex[j] = int(hit[0])
    if any(v is None for v in col_vertex):
        return NOT_ONTO
    if len(set(col_vertex)) == m:
        return BIJECTIVE_PERMUTATION
    return BIJECTIVE_NONPERMUTATION
