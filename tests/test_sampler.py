import json

import numpy as np
import pytest

from simplexfold import cone, folding, maps, sampler, simplex
from simplexfold.sampler import SamplerConfig, deform, make_rng, random_interior_map, random_positive_poly


@pytest.fixture(scope="module")
def small_cone():
    rep = cone.build_inequalities(2, 2, 2)
    cone.enumerate_rays(rep)
    cone.scale_generators(rep)
    return rep


@pytest.fixture(scope="module")
def interval_cone():
    rep = cone.build_inequalities(1, 1, 0)
    cone.enumerate_rays(rep)
    cone.scale_generators(rep)
    return rep


class _ForcedRng:
    """Stub rng: fixed gamma draws and uniforms."""

    def __init__(self, gammas, uniforms):
        self._g = list(gammas)
        self._u = list(uniforms)

    def standard_gamma(self, alpha, size):
        out = np.array(self._g.pop(0), dtype=float)
        assert out.shape == (size,)
        return out

    def random(self):
        return self._u.pop(0)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._u.pop(0)


class TestRandomPositivePoly:
    def test_degenerate_weight_on_one_generator(self, interval_cone):
        cfg = SamplerConfig(cone=interval_cone, master_seed=0)
        R = len(interval_cone.rays)
        rng = _ForcedRng([[1.0] + [0.0] * R], [0.5])
        p = random_positive_poly(cfg, rng)
        expect = {e: 0.5 * c for e, c in interval_cone.scaled_rays[0].terms.items()}
        assert p.terms.keys() == expect.keys()
        for e in expect:
            assert p.terms[e] == pytest.approx(expect[e], rel=1e-12)

    def test_high_concentration_is_uniform(self, interval_cone):
        cfg = SamplerConfig(cone=interval_cone, dirichlet_alpha=1e6, master_seed=0)
        rng = make_rng(1)
        p = random_positive_poly(cfg, rng)
        # weights ~ 1/(R+1) each; with rays x and 1-x the combination is
        # close to (1/3)(x) + (1/3)(1-x) times the radial factor
        R = len(interval_cone.rays)
        vals = p.eval_many(np.array([[0.0], [1.0]]))
        assert vals[0] == pytest.approx(vals[1], rel=0.05)

    def test_draws_nonnegative_on_simplex(self, small_cone):
        cfg = SamplerConfig(cone=small_cone, master_seed=0)
        rng = make_rng(2)
        pts = simplex.sample_uniform(2, 10_000, np.random.default_rng(0))
        for _ in range(200):
            p = random_positive_poly(cfg, rng)
            assert p.eval_many(pts).min() >= -1e-12


class TestRandomInteriorMap:
    def test_forced_constants(self, small_cone):
        # degenerate draws both equal to a constant-heavy generator still
        # produce a member map with t* <= 1/S_max
        cfg = SamplerConfig(cone=small_cone, master_seed=0)
        f = random_interior_map(cfg, make_rng(3))
        assert maps.membership_check(f).ok

    def test_batch_membership(self, small_cone):
        cfg = SamplerConfig(cone=small_cone, master_seed=0)
        for i in range(50):
            f = random_interior_map(cfg, make_rng(4, i))
            assert maps.membership_check(f).ok

    def test_deterministic_json(self, small_cone):
        cfg = SamplerConfig(cone=small_cone, master_seed=0)
        a = random_interior_map(cfg, make_rng(5)).to_json()
        b = random_interior_map(cfg, make_rng(5)).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDeform:
    def test_distance_bounded(self, small_cone):
        f2 = folding.catalog("tri:f2")
        cfg = SamplerConfig(cone=small_cone, epsilon=0.05, master_seed=0)
        for i in range(100):
            g = deform(f2, cfg, make_rng(6, i))
            assert simplex.l2_distance(f2, g) <= 0.05 + 1e-9

    def test_membership(self, small_cone):
        f2 = folding.catalog("tri:f2")
        cfg = SamplerConfig(cone=small_cone, epsilon=0.05, master_seed=0)
        for i in range(30):
            g = deform(f2, cfg, make_rng(7, i))
            assert maps.membership_check(g).ok

    def test_distance_scales_linearly_to_epsilon(self, small_cone):
        # at t = t_eps = eps / ||f - r|| the combination sits exactly at
        # distance eps, by linearity of the L2 norm in t
        f2 = folding.catalog("tri:f2")
        eps = 1e-4
        cfg = SamplerConfig(cone=small_cone, epsilon=eps, master_seed=0)
        r = random_interior_map(cfg, make_rng(8))
        t_eps = eps / simplex.l2_distance(f2, r)
        assert t_eps <= 1
        g = maps.convex_combine(r.to_float(), f2.to_float(), t_eps)
        assert simplex.l2_distance(f2, g) == pytest.approx(eps, rel=1e-9)

    def test_alpha_epsilon_validation(self, small_cone):
        with pytest.raises(ValueError):
            SamplerConfig(cone=small_cone, dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(cone=small_cone, epsilon=-1.0)

    def test_unscaled_cone_rejected(self):
        rep = cone.build_inequalities(1, 1, 0)
        cone.enumerate_rays(rep)
        with pytest.raises(ValueError):
            SamplerConfig(cone=rep)


class TestMakeRng:
    def test_draws_below_two_to_63_unchanged(self):
        # pinned draws: fig6.csv depends on the (seed,) and (seed, index) streams
        pinned = {(11,): [1171529959058969227, 6314584409011213570],
                  (11, 0): [4356814388015909140, 3516754844157635506],
                  (11, 7): [5775930902965292445, 2033377234497186685],
                  (2**63 - 1, 3): [2334607487820191669, 8881617099847460321]}
        for key, want in pinned.items():
            assert make_rng(*key).integers(0, 2**63, 2).tolist() == want

    @pytest.mark.parametrize("a, b", [(2**63 + 1, 2**63 + 2), (-1, -2)])
    def test_high_and_negative_seeds_distinct(self, a, b):
        assert make_rng(a).random(4).tolist() != make_rng(b).random(4).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
    def test_matches_philox_keyed_by_seed(self, seed):
        want = np.random.Generator(np.random.Philox(key=seed)).random(4)
        assert np.array_equal(make_rng(seed).random(4), want)
