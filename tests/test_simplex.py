import logging
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from simplexfold import folding, maps, positivity, simplex
from simplexfold.polynomial import EXACT, FLOAT, MultiPoly, monomials_upto


class TestFaceOf:
    def test_vertex(self):
        assert simplex.face_of([0.0, 0.0]) == frozenset({1, 2})

    def test_interior(self):
        assert simplex.face_of([1 / 3, 1 / 3]) == frozenset()

    def test_diagonal_facet(self):
        assert simplex.face_of([0.5, 0.5]) == frozenset({3})

    def test_outside_raises(self):
        with pytest.raises(simplex.OutsideSimplexError):
            simplex.face_of([0.7, 0.7])


class TestMonomialIntegral:
    def test_interval_length(self):
        assert simplex.monomial_integral((0,), 1) == 1

    def test_xy_over_triangle(self):
        assert simplex.monomial_integral((1, 1), 2) == Fraction(1, 24)

    def test_x_squared(self):
        assert simplex.monomial_integral((2, 0), 2) == Fraction(1, 12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(5)
        n_samples = 1_000_000
        for n in (1, 2, 3):
            pts = simplex.sample_uniform(n, n_samples, rng)
            volume = 1.0 / math.factorial(n)
            for _ in range(7):
                alpha = tuple(int(a) for a in rng.integers(0, 4, size=n))
                if sum(alpha) > 8:
                    continue
                vals = np.prod(pts ** np.array(alpha), axis=1) * volume
                est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)
                exact = float(simplex.monomial_integral(alpha, n))
                assert abs(est - exact) <= 4 * se + 1e-12


class TestL2Distance:
    def test_identical_maps(self):
        f = folding.catalog("tri:f2")
        assert simplex.l2_distance(f, f) == 0

    def test_identity_vs_zero(self):
        x, y = MultiPoly.variables(2)
        ident = maps.SimplexMap(2, 1, [x, y])
        zero = maps.SimplexMap(2, 1, [MultiPoly.zero(2), MultiPoly.zero(2)])
        assert simplex.l2_distance(ident, zero) == pytest.approx(math.sqrt(1 / 6), abs=1e-15)

    def test_logistic_vs_identity(self):
        x = MultiPoly.variable(1, 0)
        f = maps.SimplexMap(1, 2, [4 * x * (1 - x)])
        g = maps.SimplexMap(1, 2, [x])
        assert simplex.l2_distance(f, g) == pytest.approx(math.sqrt(1 / 5), abs=1e-15)

    def test_metric_properties(self):
        rng = np.random.default_rng(6)
        x, y = MultiPoly.variables(2, FLOAT)
        def rand_map():
            c = rng.random(6) * 0.2
            return maps.SimplexMap(2, 2, [c[0] * x + c[1] * y + c[2] * x * y,
                                          c[3] * y + c[4] * x ** 2 + c[5]])
        for _ in range(10):
            f, g, h = rand_map(), rand_map(), rand_map()
            assert simplex.l2_distance(f, g) == simplex.l2_distance(g, f)
            assert (simplex.l2_distance(f, h)
                    <= simplex.l2_distance(f, g) + simplex.l2_distance(g, h) + 1e-12)


class TestSampleUniform:
    def test_empty(self):
        assert simplex.sample_uniform(2, 0, np.random.default_rng(0)).shape == (0, 2)

    def test_mean_half_on_interval(self):
        pts = simplex.sample_uniform(1, 200_000, np.random.default_rng(7))
        se = pts.std() / math.sqrt(len(pts))
        assert abs(pts.mean() - 0.5) <= 3 * se

    def test_support_in_simplex(self):
        pts = simplex.sample_uniform(2, 100_000, np.random.default_rng(8))
        assert (pts >= 0).all() and (pts.sum(axis=1) <= 1).all()

    def test_deterministic_given_seed(self):
        a = simplex.sample_uniform(2, 100, np.random.default_rng(9))
        b = simplex.sample_uniform(2, 100, np.random.default_rng(9))
        assert (a == b).all()


class TestMaxOnSimplex:
    def test_logistic(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        val, arg = simplex.max_on_simplex(4 * x * (1 - x))
        assert val == pytest.approx(1.0, abs=1e-9)
        assert arg[0] == pytest.approx(0.5, abs=1e-5)

    def test_constant(self):
        val, _ = simplex.max_on_simplex(MultiPoly.constant(2, 3.5, FLOAT))
        assert val == 3.5

    def test_linear_on_boundary(self):
        x, y = MultiPoly.variables(2, FLOAT)
        val, arg = simplex.max_on_simplex(x + y)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert arg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dominates_random_sampling(self):
        rng = np.random.default_rng(10)
        x, y = MultiPoly.variables(2, FLOAT)
        for _ in range(5):
            c = rng.standard_normal(6)
            p = (c[0] + c[1] * x + c[2] * y + c[3] * x * y
                 + c[4] * x ** 2 + c[5] * y ** 2)
            val, _ = simplex.max_on_simplex(p)
            samples = p.eval_many(simplex.sample_uniform(2, 100_000, rng))
            assert val >= samples.max() - 1e-9


def _solve(A, b):
    """x with A x = b by Fraction Gauss-Jordan, or None when A is singular."""
    M = [list(row) + [v] for row, v in zip(A, b)]
    size = len(M)
    for c in range(size):
        piv = next((r for r in range(c, size) if M[r][c] != 0), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(size):
            if r != c and M[r][c]:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [row[-1] for row in M]


def face_critical_values(p):
    """Reference for `quadric_candidates`: p at every vertex and at every
    nonsingular critical point inside a face, in affine face coordinates
    x = v_0 + sum_t u_t (v_t - v_0), exactly in Fractions."""
    n = p.num_vars
    verts = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    verts.append([Fraction(0)] * n)
    out = []
    for size in range(1, n + 2):
        for S in combinations(range(n + 1), size):
            v0 = verts[S[0]]
            if size == 1:
                out.append(p.evaluate(v0))
                continue
            u = MultiPoly.variables(size - 1)
            x = [v0[i] + sum((u[t] * (verts[s][i] - v0[i])
                              for t, s in enumerate(S[1:])), MultiPoly.zero(size - 1))
                 for i in range(n)]
            q = p.compose(x)
            grads = [q.partial(t) for t in range(size - 1)]
            zero = (0,) * (size - 1)
            A = [[g.coefficient(tuple(int(j == t) for j in range(size - 1)))
                  for t in range(size - 1)] for g in grads]
            sol = _solve(A, [-g.coefficient(zero) for g in grads])
            if sol is not None and min(sol) > 0 and sum(sol) < 1:
                out.append(q.evaluate(sol))
    return out


class TestQuadricMax:
    """Degree <= 2 is solved exactly face by face; no subdivision runs."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_values_match_face_reference(self, n):
        rng = np.random.default_rng(70 + n)
        mons = monomials_upto(n, 2)
        for trial in range(20):
            if trial % 2:
                coeffs = [float(c) for c in rng.standard_normal(len(mons))]
            else:
                coeffs = [Fraction(int(a), int(b)) for a, b in
                          zip(rng.integers(-9, 10, len(mons)), rng.integers(1, 8, len(mons)))]
            p = MultiPoly(n, dict(zip(mons, coeffs)), FLOAT if trial % 2 else EXACT)
            exact = MultiPoly(n, {m: Fraction(c) for m, c in p.terms.items()})
            points, values = simplex.quadric_candidates(p)
            ref = face_critical_values(exact)
            assert sorted(values) == sorted(ref)
            assert len(points) == len(values)
            for pt, v in zip(points, values):
                assert float(exact.evaluate([Fraction(c) for c in pt])) == pytest.approx(
                    float(v), abs=1e-12)
            for mode in ("sampled", "certified"):
                verdict = positivity.nonneg_on_simplex(exact, mode=mode)
                assert verdict.min_value == float(min(ref))

    @pytest.fixture(autouse=True)
    def no_subdivision(self, monkeypatch):
        def fail(*a, **kw):
            raise AssertionError("Bernstein subdivision ran on a quadric")
        monkeypatch.setattr(simplex, "_max_bernstein", fail)

    @pytest.mark.parametrize("n, depth", [(1, 4000), (2, 200), (3, 40)])
    def test_dense_lattice_brute_force(self, n, depth):
        rng = np.random.default_rng(40 + n)
        grid = simplex.barycentric_lattice(n, depth)
        mons = monomials_upto(n, 2)
        for _ in range(50):
            p = MultiPoly(n, {m: float(c) for m, c in
                              zip(mons, rng.standard_normal(len(mons)))}, FLOAT)
            val, arg = simplex.max_on_simplex(p)
            lattice = p.eval_many(grid).max()
            assert simplex.in_simplex(arg, tol=0.0)
            assert val == p.eval_many(arg)
            # never below a lattice point; above the best one by at most a
            # second-order term in the lattice spacing (the maximiser's
            # gradient along its face is zero)
            assert lattice - 1e-12 <= val <= lattice + 50 * n / depth ** 2

    def exact_max(self, p, val, point, face):
        got_val, arg = simplex.max_on_simplex(p)
        assert got_val == pytest.approx(val, abs=1e-15)
        assert arg == pytest.approx(point, abs=1e-15)
        assert simplex.face_of(arg) == frozenset(face)

    def test_interior(self):
        x, y = MultiPoly.variables(2)
        third = Fraction(1, 3)
        self.exact_max(1 - (x - third) ** 2 - (y - third) ** 2, 1,
                       [1 / 3, 1 / 3], ())

    def test_interior_tetrahedron(self):
        xs = MultiPoly.variables(3)
        p = MultiPoly.constant(3, 1)
        for v in xs:
            p = p - (v - Fraction(1, 4)) ** 2
        self.exact_max(p, 1, [0.25, 0.25, 0.25], ())

    def test_edge(self):
        x, y = MultiPoly.variables(2, FLOAT)
        self.exact_max(4 * x - 4 * x ** 2 - y, 1, [0.5, 0.0], {2})

    def test_critical_point_outside_edge(self):
        # unconstrained maximum at (1, 1); the simplex maximum is on the
        # hypotenuse
        x, y = MultiPoly.variables(2, FLOAT)
        self.exact_max(-(x - 1) ** 2 - (y - 1) ** 2, -0.5, [0.5, 0.5], {3})

    def test_critical_point_outside_vertex(self):
        x, y = MultiPoly.variables(2, FLOAT)
        self.exact_max(-(x - 2) ** 2 - y ** 2, -1, [1.0, 0.0], {2, 3})

    def test_degenerate_hessian(self):
        # (x - y)^2 has a singular Hessian (its critical set is the line
        # x = y); the maximum 1 sits at the vertices (1, 0) and (0, 1)
        x, y = MultiPoly.variables(2, FLOAT)
        val, arg = simplex.max_on_simplex((x - y) ** 2)
        assert val == 1.0
        assert tuple(arg) in {(1.0, 0.0), (0.0, 1.0)}

    def test_linear(self):
        x, y = MultiPoly.variables(2, FLOAT)
        self.exact_max(2 * x + 3 * y - 1, 2, [0.0, 1.0], {1, 3})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero(self, n):
        val, arg = simplex.max_on_simplex(MultiPoly.zero(n, FLOAT))
        assert val == 0.0
        assert arg.shape == (n,) and simplex.in_simplex(arg, tol=0.0)


def test_cubic_uses_subdivision(monkeypatch):
    calls = []
    real = simplex._max_bernstein

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(simplex, "_max_bernstein", counting)
    x, y = MultiPoly.variables(2, FLOAT)
    # 27 x y (1 - x - y) peaks at 1 at the centroid
    val, arg = simplex.max_on_simplex(27 * x * y * (1 - x - y))
    assert calls
    assert val == pytest.approx(1.0, abs=1e-9)
    assert arg == pytest.approx([1 / 3, 1 / 3], abs=1e-5)


class TestBernsteinBound:
    """Degree >= 3: an upper bound within 1e-12 of the best point found."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_polynomials(self, n, k):
        rng = np.random.default_rng(100 * k + n)
        mons = monomials_upto(n, k)
        pts = simplex.sample_uniform(n, 100_000, rng)
        for _ in range(5):
            p = MultiPoly(n, {m: float(c) for m, c in
                              zip(mons, rng.standard_normal(len(mons)))}, FLOAT)
            val, arg = simplex.max_on_simplex(p)
            at = float(p.eval_many(arg))
            assert simplex.in_simplex(arg, tol=0.0)
            assert val >= at
            assert val >= p.eval_many(pts).max() - 1e-12
            assert val - at <= 1e-12 * max(1.0, abs(at))

    def test_maximum_on_an_arc_hits_the_cell_cap(self, caplog):
        # 1 - (x^2 + y^2 - 1/4)^2 is maximal along a whole circle arc, so
        # near-maximal cells multiply until the cap stops the subdivision
        x, y = MultiPoly.variables(2, FLOAT)
        p = 1 - (x * x + y * y - 0.25) ** 2
        with caplog.at_level(logging.DEBUG, logger="simplexfold.simplex"):
            val, arg = simplex.max_on_simplex(p)
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.cells > simplex._MAX_CELLS
        assert record.gap == val - 1.0 > 1e-12
        pts = simplex.sample_uniform(2, 100_000, np.random.default_rng(12))
        assert val >= p.eval_many(pts).max() - 1e-12
        assert val >= float(p.eval_many(arg)) == 1.0
