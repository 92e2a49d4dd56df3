import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from simplexfold import folding, maps, simplex
from simplexfold.maps import SimplexMap
from simplexfold.polynomial import EXACT, FLOAT, MultiPoly


class TestMembership:
    def test_logistic_member(self):
        assert maps.membership_check(folding.catalog("cheb:2")).ok

    def test_doubling_not_member(self):
        x = MultiPoly.variable(1, 0)
        f = SimplexMap(1, 1, [2 * x])
        report = maps.membership_check(f)
        assert not report.ok
        # the violated component is 1 - 2x, witnessed near x = 1
        idx, witness = report.witnesses()[0]
        assert idx == 1 and witness[0] > 0.5

    def test_identity_member(self):
        assert maps.membership_check(folding.catalog("tri:f1")).ok


class TestConvexCombine:
    def test_endpoints(self):
        f = folding.catalog("tri:f2")
        g = folding.catalog("tri:f1")
        g2 = SimplexMap(2, 2, list(g.P), label=g.label)  # same k as f
        assert maps.convex_combine(f, g2, 0).P == g2.P
        assert maps.convex_combine(f, g2, 1).P == f.P

    def test_halfway_with_zero_map(self):
        x = MultiPoly.variable(1, 0)
        f = SimplexMap(1, 1, [x])
        g = SimplexMap(1, 1, [MultiPoly.zero(1)])
        h = maps.convex_combine(f, g, Fraction(1, 2))
        assert h.P[0] == x / 2

    def test_membership_preserved(self):
        rng = np.random.default_rng(13)
        x, y = MultiPoly.variables(2, FLOAT)
        f2 = folding.catalog("tri:f2").to_float()
        ident = SimplexMap(2, 2, [x, y])
        members = [f2, ident,
                   SimplexMap(2, 2, [MultiPoly.constant(2, 1 / 3, FLOAT)] * 2),
                   maps.convex_combine(f2, ident, 0.5)]
        for _ in range(100):
            f = members[rng.integers(len(members))]
            g = members[rng.integers(len(members))]
            t = float(rng.random())
            assert maps.membership_check(maps.convex_combine(f, g, t)).ok

    def test_t_out_of_range(self):
        f = folding.catalog("tri:f2")
        with pytest.raises(ValueError):
            maps.convex_combine(f, f, 1.5)


class TestApply:
    def test_twofold_vertex(self):
        f = folding.catalog("tri:f2").to_float()
        assert np.allclose(f.apply([1.0, 0.0]), [1.0, 0.0])

    def test_identity(self):
        f = folding.catalog("tri:f1").to_float()
        x = np.array([0.21, 0.4])
        assert np.allclose(f.apply(x), x)

    def test_logistic_max(self):
        f = folding.catalog("cheb:2").to_float()
        assert f.apply([0.5])[0] == 1.0

    def test_catalog_images_stay_inside(self):
        rng = np.random.default_rng(14)
        for name in folding.CATALOG_NAMES:
            f = folding.catalog(name).to_float()
            X = simplex.sample_uniform(f.n, 10_000, rng)
            Y = f.apply_many(X, tol=1e-12)
            assert (Y >= 0).all() and (Y.sum(axis=1) <= 1 + 1e-12).all()

    def test_escape_raises(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        bad = SimplexMap(1, 1, [2.0 * x])  # not a member; image exits at x=1
        with pytest.raises(maps.MapImageError):
            bad.apply([0.9])

    def test_clamp_log(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        f = SimplexMap(1, 1, [x + 5e-10])
        log = []
        f.apply([1.0], clamp_log=log)
        assert log == [0]


class TestConstructor:
    def test_full_component_list_verified(self):
        x, y = MultiPoly.variables(2)
        P1, P2 = (x - y) ** 2, (1 - x - y) * (1 + x + y)
        P3 = 1 - P1 - P2
        f = SimplexMap(2, 2, [P1, P2, P3])
        assert len(f.P) == 2
        with pytest.raises(ValueError):
            SimplexMap(2, 2, [P1, P2, P3 + 1])

    def test_degree_bound_enforced(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(ValueError):
            SimplexMap(1, 1, [x ** 2])

    def test_json_round_trip(self):
        f = folding.catalog("tri:f9")
        data = json.loads(json.dumps(f.to_json()))
        assert SimplexMap.from_json(data) == f

    def test_json_round_trip_zero_component(self):
        # JSON gives a polynomial with no terms no scalar mode; the map's
        # other components decide it
        x, y = MultiPoly.variables(2)
        f = SimplexMap(2, 2, [0.5 * MultiPoly.variable(2, 0, FLOAT),
                              MultiPoly.zero(2, FLOAT)])
        back = SimplexMap.from_json(json.loads(json.dumps(f.to_json())))
        assert back == f
        assert [p.scalar_mode for p in back.P] == [FLOAT, FLOAT]
        g = SimplexMap(2, 2, [x * y, MultiPoly.zero(2)])
        back = SimplexMap.from_json(json.loads(json.dumps(g.to_json())))
        assert back == g
        assert back.scalar_mode == EXACT
        assert back.P[1].scalar_mode == EXACT


class TestMarkov:
    def test_wrap_matches_matvec(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            M = rng.random((3, 3))
            M /= M.sum(axis=0, keepdims=True)
            f = maps.markov_map(M)
            x = simplex.sample_uniform(2, 1, rng)[0]
            embedded = np.append(x, 1 - x.sum())
            expect = (M @ embedded)[:2]
            assert np.abs(f.apply(x) - expect).max() <= 1e-14

    def test_identity_is_permutation(self):
        assert maps.is_permutation_if_bijective(np.eye(3)) == maps.BIJECTIVE_PERMUTATION

    def test_rank_one_singular(self):
        M = np.full((2, 2), 0.5)
        assert maps.is_permutation_if_bijective(M) == maps.SINGULAR

    def test_doubly_stochastic_not_onto(self):
        # nonsingular, vertex images interior, hence not onto the simplex
        M = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        assert maps.is_permutation_if_bijective(M) == maps.NOT_ONTO

    def test_all_3x3_permutations(self):
        for perm in itertools.permutations(range(3)):
            M = np.zeros((3, 3))
            for j, i in enumerate(perm):
                M[i, j] = 1.0
            assert maps.is_permutation_if_bijective(M) == maps.BIJECTIVE_PERMUTATION

    def test_random_nonpermutation_never_onto(self):
        rng = np.random.default_rng(16)
        seen = 0
        while seen < 100:
            M = rng.random((3, 3)) + 0.05
            M /= M.sum(axis=0, keepdims=True)
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            assert maps.is_permutation_if_bijective(M) == maps.NOT_ONTO
            seen += 1


CATALOG = [f"cheb:{d}" for d in range(1, 7)] + ["tri:f1", "tri:f2", "tri:f4",
                                               "tri:f8", "tri:f9"]


def random_float_map(n, k, rng):
    """A float map with random coefficients on every monomial of degree <= k."""
    monos = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) <= k]
    P = [MultiPoly(n, {e: float(rng.normal()) for e in monos}, FLOAT) for _ in range(n)]
    return SimplexMap(n, k, P)


def simplex_points(n, m, seed=0):
    return simplex.sample_uniform(n, m, np.random.default_rng(seed))


def partials_reference(f, X):
    """Jacobians from each float component's partials, one eval_many each."""
    J = np.empty((X.shape[0], f.n, f.n))
    for i, p in enumerate(f.P):
        for j in range(f.n):
            J[:, i, j] = p.to_float().partial(j).eval_many(X)
    return J


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestJacobians:
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_matches_partials(self, name):
        f = folding.catalog(name)
        X = simplex_points(f.n, 2000)
        assert same_bits(f.coefficients().jacobians(X), partials_reference(f, X))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_float_maps_match_partials(self, n):
        rng = np.random.default_rng(n)
        for k in (1, 2, 4):
            f = random_float_map(n, k, rng)
            X = simplex_points(n, 500, seed=k)
            assert same_bits(f.coefficients().jacobians(X), partials_reference(f, X))

    def test_many_map_table_matches_each_map(self):
        rng = np.random.default_rng(5)
        fs = [folding.catalog("tri:f2"), folding.catalog("tri:f9"),
              random_float_map(2, 3, rng)]
        rows = np.arange(300) % len(fs)
        X = simplex_points(2, 300)
        table = maps.MapCoefficients(fs, rows)
        J = table.jacobians(X)
        for m, f in enumerate(fs):
            own = f.coefficients().jacobians(X[rows == m])
            assert np.array_equal(J[rows == m], own)  # -0.0 == 0.0
        keep = np.flatnonzero(rows != 1)
        assert np.array_equal(table.take(keep).jacobians(X[keep]), J[keep])

    @pytest.mark.parametrize("name", ["cheb:3", "tri:f4"])
    def test_zero_rows(self, name):
        f = folding.catalog(name)
        assert f.coefficients().jacobians(np.empty((0, f.n))).shape == (0, f.n, f.n)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            folding.catalog("tri:f2").coefficients().jacobians(np.zeros((3, 1)))


def test_compose_maps_degree():
    f2 = folding.catalog("tri:f2")
    f4 = maps.compose_maps(f2, f2)
    assert f4.k == 4 and tuple(f4.P) == tuple(folding.catalog("tri:f4").P)
