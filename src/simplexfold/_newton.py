"""Batched damped Newton for small polynomial systems on the simplex.

All multistart root searches in the package (fixed points, preimages)
funnel through here: seeds advance in lockstep as numpy batches, each row
owning its own damping factor, and rows die when their Jacobian goes
singular or thirty halvings fail to reduce the residual.
"""

from __future__ import annotations

import numpy as np

from . import simplex
from .maps import SimplexMap


class MapSystem:
    """Float values and exact symbolic partials of a map, batch-callable."""

    def __init__(self, f: SimplexMap):
        self.n = f.n
        self.coeffs = f.coefficients()
        self.parts = [[p.partial(j) for j in range(f.n)]
                      for p in (q.to_float() for q in f.P)]

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.coeffs.values(X)

    def jacobians(self, X: np.ndarray) -> np.ndarray:
        J = np.empty((X.shape[0], self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                J[:, i, j] = self.parts[i][j].eval_many(X)
        return J


def newton_batch(F, J, seeds: np.ndarray, residual_tol: float = 1e-12,
                 max_iter: int = 80, max_halvings: int = 30):
    """Damped Newton from every seed at once.

    F maps (m, n) -> (m, n) residuals, J maps (m, n) -> (m, n, n).
    Returns (points, residual_norms) for the seeds that converged.
    """
    X = np.array(seeds, dtype=float)
    m = X.shape[0]
    alive = np.ones(m, dtype=bool)
    rn = np.abs(F(X)).max(axis=1)
    for _ in range(max_iter):
        work = np.flatnonzero(alive & (rn > residual_tol))
        if work.size == 0:
            break
        Jw = J(X[work])
        Gw = F(X[work])
        dets = np.abs(np.linalg.det(Jw))
        ok = dets > 1e-300
        alive[work[~ok]] = False
        work = work[ok]
        if work.size == 0:
            continue
        delta = np.linalg.solve(Jw[ok], Gw[ok][..., None])[..., 0]
        lam = np.ones(work.size)
        pending = np.ones(work.size, dtype=bool)
        for _h in range(max_halvings + 1):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            cand = X[work[p]] - lam[p, None] * delta[p]
            rn2 = np.abs(F(cand)).max(axis=1)
            good = (rn2 < rn[work[p]]) | (rn2 <= residual_tol)
            X[work[p[good]]] = cand[good]
            rn[work[p[good]]] = rn2[good]
            pending[p[good]] = False
            lam[p[~good]] /= 2
        alive[work[pending]] = False
    rn = np.abs(F(X)).max(axis=1)
    conv = alive & (rn <= residual_tol)
    return X[conv], rn[conv]


def dedup_points(points: np.ndarray, tol: float) -> np.ndarray:
    """Greedy dedup at Euclidean tolerance; lexicographic order for determinism."""
    if len(points) == 0:
        return points
    order = np.lexsort(points.T[::-1])
    kept: list[np.ndarray] = []
    for i in order:
        p = points[i]
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def default_seeds(n: int, lattice_target: int, n_random: int,
                  rng: np.random.Generator, include_vertices: bool = True) -> np.ndarray:
    """Barycentric lattice + uniform random points + vertices."""
    depth = simplex.default_grid_depth(n, target=lattice_target) if lattice_target else 0
    parts = []
    if include_vertices:
        parts.append(simplex.vertices(n))
    if depth:
        parts.append(simplex.barycentric_lattice(n, depth))
    if n_random:
        parts.append(simplex.sample_uniform(n, n_random, rng))
    return np.vstack(parts)


def solve_on_simplex(f: SimplexMap, target=None, seeds: np.ndarray | None = None,
                     *, lattice_target: int = 2000, n_random: int = 1000,
                     rng: np.random.Generator | None = None,
                     dedup_tol: float = 1e-8, residual_tol: float = 1e-12,
                     inclusion_tol: float = 1e-10):
    """Roots of f(x) = target (or f(x) = x when target is None) inside the simplex.

    Returns an array of deduplicated solutions sorted lexicographically.
    """
    sys = MapSystem(f)
    fixed_point = target is None
    if not fixed_point:
        target = np.asarray(target, dtype=float)
    eye = np.eye(f.n)

    def F(X):
        V = sys.values(X)
        return V - (X if fixed_point else target[None, :])

    def J(X):
        Jm = sys.jacobians(X)
        return Jm - eye[None, :, :] if fixed_point else Jm

    if seeds is None:
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=0))
        seeds = default_seeds(f.n, lattice_target, n_random, rng)
    pts, _ = newton_batch(F, J, seeds, residual_tol=residual_tol)
    if len(pts) == 0:
        return np.zeros((0, f.n))
    inside = (pts.min(axis=1) >= -inclusion_tol) & (pts.sum(axis=1) <= 1 + inclusion_tol)
    return dedup_points(pts[inside], dedup_tol)
