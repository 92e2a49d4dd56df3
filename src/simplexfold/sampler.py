"""Random maps from the cone approximation and controlled deformations.

A random positive polynomial is a Dirichlet-weighted convex combination of
the scaled cone generators, shrunk by a uniform radial factor.  The
Dirichlet has one concentration slot per generator plus one extra slot for
the zero polynomial (900 generators but 901 parameters), which only pulls
draws toward the apex.  With alpha = 1/1000 draws are nearly one-hot, so a
typical sample sits close to a single scaled generator.

A random interior map takes n such polynomials, bounds their sum by its
simplex maximum S_max and rescales by t* ~ U[0, 1/S_max].  A deformation of
a reference map f* is the convex combination t r + (1-t) f* with
t <= epsilon / ||f* - r||, which caps the L2 distance at epsilon.

Reproducibility: all draws run through numpy's counter-based Philox
generator; gamma variates use numpy's standard_gamma (Marsaglia-Tsang with
the small-shape boost), so a fixed master seed gives byte-identical map
JSON across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps, simplex
from .cone import ConeRep
from .maps import SimplexMap
from .polynomial import FLOAT, MultiPoly

# draws per random interior map, and interior maps per deformation, before
# the sampler gives up
MAX_RETRIES = 10


def make_rng(*key) -> np.random.Generator:
    """Philox generator keyed by integers; the package-wide rng recipe.

    Any number of integers folds deterministically into the 128-bit key,
    so (seed,) and (seed, index) streams are independent and reproducible.
    Integers are taken modulo 2^64, so make_rng(seed) draws what
    Philox(key=seed) draws for 0 <= seed < 2^64.  The key words go to Philox
    as a uint64 array: a plain list holding a word of 2^63 or more would
    pass through float64 and collide with its neighbours.
    """
    mask = (1 << 64) - 1
    w0 = int(key[0]) & mask if key else 0
    w1 = 0
    for k in key[1:]:
        w1 = (w1 * 0x9E3779B97F4A7C15 + (int(k) & mask) + 1) & mask
    words = np.array([w0, w1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


@dataclass
class SamplerConfig:
    cone: ConeRep
    dirichlet_alpha: float = 1e-3
    master_seed: int = 0
    epsilon: float = 0.05

    def __post_init__(self):
        if self.dirichlet_alpha <= 0 or self.epsilon <= 0:
            raise ValueError("alpha and epsilon must be positive")
        if self.cone.scaled_vectors is None:
            raise ValueError("cone must have scaled generators")


def random_positive_poly(cfg: SamplerConfig, rng: np.random.Generator) -> MultiPoly:
    """One Dirichlet-weighted combination of the scaled generators.

    Weights are normalized Gamma(alpha) variates over R+1 slots (the last
    slot weights the zero polynomial), then the whole combination is scaled
    by a uniform(0,1) radial factor.
    """
    V = cfg.cone.scaled_vectors
    R = V.shape[0]
    while True:
        g = rng.standard_gamma(cfg.dirichlet_alpha, size=R + 1)
        s = g.sum()
        if s > 0:
            break
    w = g / s
    radial = rng.random()
    vec = radial * (w[:R] @ V)
    return cfg.cone.poly_from_vector(vec, FLOAT)


def random_interior_map(cfg: SamplerConfig, rng: np.random.Generator) -> SimplexMap:
    """Interior map t* (R*_1, ..., R*_n) with t* ~ U[0, 1/S_max].

    S_max is the simplex maximum of the component sum.  For the quadrics
    of a k = 2 cone `simplex.max_on_simplex` evaluates it at the exact
    maximiser; for higher degree it is a Bernstein upper bound, so 1/S_max
    never overshoots.  Membership is still re-checked by sampling and the
    draw retried when the check fails.
    """
    n = cfg.cone.n
    for _ in range(MAX_RETRIES):
        polys = [random_positive_poly(cfg, rng) for _ in range(n)]
        total = polys[0]
        for p in polys[1:]:
            total = total + p
        if total.is_zero():
            continue
        s_max, _ = simplex.max_on_simplex(total)
        if s_max <= 0:
            continue
        t_star = rng.uniform(0.0, 1.0 / s_max)
        f = SimplexMap(n, cfg.cone.k, [p * t_star for p in polys],
                       label=f"sampler:seed={cfg.master_seed}")
        if maps.membership_check(f).ok:
            return f
    raise RuntimeError(f"no member map after {MAX_RETRIES} draws "
                       "(S_max underestimated repeatedly)")


def deform(f_star: SimplexMap, cfg: SamplerConfig,
           rng: np.random.Generator) -> SimplexMap:
    """A deformation of f_star within L2 distance epsilon.

    g = t r + (1-t) f_star with r a random interior map and
    t ~ U(0, min(1, epsilon / ||f_star - r||)]; by linearity
    ||f_star - g|| = t ||f_star - r|| <= epsilon.
    """
    for _ in range(MAX_RETRIES):
        r = random_interior_map(cfg, rng)
        dist = simplex.l2_distance(f_star, r)
        if dist > 0:
            break
    else:
        raise RuntimeError("random interior map kept coinciding with f_star")
    cap = min(1.0, cfg.epsilon / dist)
    t = (1.0 - rng.random()) * cap  # in (0, cap]
    g = maps.convex_combine(r.to_float(), f_star.to_float(), t)
    return SimplexMap(g.n, g.k, g.P, label=f"deform:t={t!r}:{f_star.label}")
