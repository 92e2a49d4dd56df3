"""Stochastic polynomial maps of the unit simplex.

The space of degree-k polynomial self-maps of the n-simplex is compact and
convex; its boundary carries the folding maps, which generalize the
logistic map to any dimension and fold order.  This package provides:

  * exact sparse polynomial arithmetic (`polynomial`),
  * simplex geometry, integrals and maxima (`simplex`),
  * fraction-free exact elimination and the Polya expansion step (`exact`),
  * Polya positivity certificates (`positivity`),
  * the map type with membership checks (`maps`),
  * finitely generated cone approximations with exact extreme-ray
    enumeration (`cone`),
  * the folding-map catalog, factorization templates and the
    coefficient-matching solver (`folding`),
  * fixed points, spectra, orbit classification, fixation statistics and
    the invariant-measure test (`dynamics`),
  * random interior maps and epsilon-ball deformations (`sampler`),
  * a CLI that reproduces each experiment (`cli`).
"""

__version__ = "0.1.0"

from .polynomial import (EXACT, FLOAT, MultiPoly, divide_by_linear, homogenize,
                         linear_form)
from .simplex import (face_of, l2_distance, max_on_simplex, monomial_integral,
                      sample_uniform)
from .positivity import PolyaCertificate, nonneg_on_simplex, polya_certify
from .maps import (MembershipReport, SimplexMap, compose_maps, convex_combine,
                   is_permutation_if_bijective, markov_map, membership_check)
from .cone import ConeRep, build_inequalities, enumerate_rays, scale_generators
from .folding import (FoldSolution, FoldTemplate, catalog, catalog_factors,
                      preimage_count, residual, solve_fold, verify_factorization)
from .dynamics import (FixedPointReport, OrbitVerdict, classify_orbit,
                       classify_orbits, deform_scan, find_fixed_points,
                       fixation_experiment, invariant_measure_test)
from .sampler import SamplerConfig, deform, random_interior_map, random_positive_poly

__all__ = [name for name in dir() if not name.startswith("_")]
