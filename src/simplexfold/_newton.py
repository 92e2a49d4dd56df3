"""Batched damped Newton for small polynomial systems on the simplex.

All multistart root searches in the package (fixed points, preimages)
funnel through solve_on_simplex, which builds its own seeds: they advance
in lockstep as numpy batches, each row owning its own damping factor, and
rows die when their Jacobian goes singular or thirty halvings fail to
reduce the residual.

Each iteration tries the full step on every working row in one F call.  The
rows it fails try the halved steps 2^-1, 2^-2, ... in blocks, one F call
per block over every pending row and several step lengths, never more rows
than there are seeds; a row takes the first step length that passes.  F is
evaluated row by row, so the iterates are those of halving one step at a
time, bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np

from . import sampler, simplex
from .maps import SimplexMap

log = logging.getLogger(__name__)

# A seed has converged when max |F| <= RESIDUAL_TOL; a root counts as inside
# the simplex when no coordinate is below -INCLUSION_TOL and their sum is at
# most 1 + INCLUSION_TOL.
RESIDUAL_TOL = 1e-12
INCLUSION_TOL = 1e-10


def newton_batch(F, J, seeds: np.ndarray, max_iter: int = 80, max_halvings: int = 30):
    """Damped Newton from every seed at once.

    F maps (m, n) -> (m, n) residuals row by row, J maps (m, n) -> (m, n, n).
    Returns (points, residual_norms, dropped) for the seeds that converged;
    dropped counts the others by reason: "singular" (Jacobian determinant
    below 1e-300), "halvings_exhausted" (no step length 2^-h, h <= max_halvings,
    reduced the residual) and "max_iter" (still above RESIDUAL_TOL).
    """
    X = np.array(seeds, dtype=float)
    m, n = X.shape
    G = F(X)
    rn = np.abs(G).max(axis=1)
    alive = np.ones(m, dtype=bool)
    dropped = {"singular": 0, "halvings_exhausted": 0, "max_iter": 0}
    for _ in range(max_iter):
        work = np.flatnonzero(alive & (rn > RESIDUAL_TOL))
        if work.size == 0:
            break
        Jw = J(X[work])
        ok = np.abs(np.linalg.det(Jw)) > 1e-300
        alive[work[~ok]] = False
        dropped["singular"] += int(work.size - ok.sum())
        work = work[ok]
        if work.size == 0:
            continue
        delta = np.linalg.solve(Jw[ok], G[work][..., None])[..., 0]
        h = 0
        while work.size and h <= max_halvings:
            # the full step alone, then blocks of halvings within m rows
            width = 1 if h == 0 else min(max(1, m // work.size), max_halvings + 1 - h)
            lam = np.ldexp(1.0, -np.arange(h, h + width))
            cand = X[work, None, :] - lam[None, :, None] * delta[:, None, :]
            G2 = F(cand.reshape(-1, n)).reshape(work.size, width, n)
            rn2 = np.abs(G2).max(axis=2)
            good = (rn2 < rn[work, None]) | (rn2 <= RESIDUAL_TOL)
            found = good.any(axis=1)
            first = good[found].argmax(axis=1)
            rows = work[found]
            X[rows], G[rows], rn[rows] = cand[found, first], G2[found, first], rn2[found, first]
            work, delta = work[~found], delta[~found]
            h += width
        alive[work] = False
        dropped["halvings_exhausted"] += int(work.size)
    conv = alive & (rn <= RESIDUAL_TOL)
    dropped["max_iter"] = int(np.count_nonzero(alive & ~conv))
    return X[conv], rn[conv], dropped


def dedup_points(points: np.ndarray, tol: float) -> np.ndarray:
    """Greedy dedup at Euclidean tolerance; lexicographic order for determinism.

    Walks the points in lexicographic order and keeps each one farther
    than tol from every point kept before it; each round keeps the first
    remaining point and drops every point within tol of it at once.
    """
    if len(points) == 0:
        return points
    rest = points[np.lexsort(points.T[::-1])]
    kept = []
    while len(rest):
        kept.append(rest[0])
        rest = rest[np.linalg.norm(rest - rest[0], axis=1) > tol]
    return np.array(kept)


def default_seeds(n: int, lattice_target: int, n_random: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Vertices + barycentric lattice + uniform random points."""
    depth = simplex.default_grid_depth(n, target=lattice_target) if lattice_target else 0
    parts = [simplex.vertices(n)]
    if depth:
        parts.append(simplex.barycentric_lattice(n, depth))
    if n_random:
        parts.append(simplex.sample_uniform(n, n_random, rng))
    return np.vstack(parts)


def solve_on_simplex(f: SimplexMap, target=None, *, lattice_target: int = 2000,
                     n_random: int = 1000, seed: int = 0, dedup_tol: float = 1e-8):
    """Roots of f(x) = target (or f(x) = x when target is None) inside the simplex.

    Newton starts from the vertices, a barycentric lattice of about
    lattice_target points and n_random uniform points drawn from
    make_rng(seed).  Returns an array of the roots inside the simplex,
    deduplicated at dedup_tol and sorted lexicographically.
    """
    coeffs = f.coefficients()
    fixed_point = target is None
    if not fixed_point:
        target = np.asarray(target, dtype=float)
    eye = np.eye(f.n)

    def F(X):
        V = coeffs.values(X)
        return V - (X if fixed_point else target[None, :])

    def J(X):
        Jm = coeffs.jacobians(X)
        return Jm - eye[None, :, :] if fixed_point else Jm

    seeds = default_seeds(f.n, lattice_target, n_random, sampler.make_rng(seed))
    pts, _, dropped = newton_batch(F, J, seeds)
    inside = (pts.min(axis=1) >= -INCLUSION_TOL) & (pts.sum(axis=1) <= 1 + INCLUSION_TOL)
    dropped["outside_simplex"] = int(np.count_nonzero(~inside))
    kept = dedup_points(pts[inside], dedup_tol)
    log.debug("solve_on_simplex: %d seeds, %d converged, dropped %s, %d kept",
              len(seeds), len(pts), dropped, len(kept),
              extra={"seeds": len(seeds), "converged": len(pts), **dropped,
                     "kept": len(kept)})
    return kept
