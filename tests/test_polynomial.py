from fractions import Fraction

import numpy as np
import pytest

from simplexfold.maps import SimplexMap
from simplexfold.polynomial import (EXACT, FLOAT, MultiPoly, divide_by_linear,
                                    homogenize, linear_form)


def var(i=0, n=1, mode=EXACT):
    return MultiPoly.variable(n, i, mode)


class TestEvaluate:
    def test_logistic_midpoint(self):
        x = var()
        p = 4 * x * (1 - x)
        assert p.evaluate([Fraction(1, 2)]) == 1

    def test_zero_poly(self):
        assert MultiPoly.zero(3).evaluate([1, 2, 3]) == 0

    def test_two_vars(self):
        x, y = MultiPoly.variables(2)
        p = x ** 2 - x * y + y ** 2
        assert p.evaluate([1, 1]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            var().evaluate([1, 2])

    def test_exact_rational_point(self):
        x = var()
        val = (x ** 3 - x).evaluate([Fraction(2, 3)])
        assert val == Fraction(8, 27) - Fraction(2, 3)

    def test_eval_many_matches_single(self):
        x, y = MultiPoly.variables(2, FLOAT)
        p = (1 - x - y) * (1 + x + y) * 0.25 + x * y
        pts = np.random.default_rng(0).random((50, 2)) / 2
        batch = p.eval_many(pts)
        for i, pt in enumerate(pts):
            assert batch[i] == p.eval_many(pt)


class TestHomogenize:
    def test_constant(self):
        p = MultiPoly.constant(2, 1)
        h = homogenize(p, 1)
        assert h == MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})

    def test_quadratic(self):
        x = var()
        h = homogenize(1 - 3 * x + 3 * x ** 2, 2)
        assert dict(h.terms) == {(2, 0): 1, (1, 1): -1, (0, 2): 1}

    def test_top_degree_unchanged(self):
        x, y = MultiPoly.variables(2)
        h = homogenize(x * y, 2)
        assert dict(h.terms) == {(1, 1, 0): 1}

    def test_degree_violation(self):
        with pytest.raises(ValueError):
            homogenize(var() ** 3, 2)

    def test_agrees_on_patch(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, k = 2, 3
            exps = [(i, j) for i in range(k + 1) for j in range(k + 1) if i + j <= k]
            terms = {e: Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                     for e in exps}
            p = MultiPoly(n, terms)
            h = homogenize(p, k)
            x = [Fraction(int(rng.integers(0, 4)), 10), Fraction(int(rng.integers(0, 4)), 10)]
            patch = list(x) + [1 - sum(x)]
            assert h.evaluate(patch) == p.evaluate(x)


class TestCompose:
    def test_logistic_squared(self):
        x = var()
        f2 = 4 * x * (1 - x)
        f4 = f2.compose([f2])
        assert f4 == 16 * x * (1 - x) * (1 - 2 * x) ** 2

    def test_identity_outer(self):
        x = var()
        q = 3 * x ** 2 - 1
        assert x.compose([q]) == q

    def test_binomial(self):
        x = var()
        assert (x ** 2).compose([x + 1]) == x ** 2 + 2 * x + 1

    def test_associative(self):
        rng = np.random.default_rng(2)
        x = var()
        for _ in range(10):
            coeffs = rng.integers(-3, 4, size=9)
            p = coeffs[0] + coeffs[1] * x + coeffs[2] * x ** 2
            q = coeffs[3] + coeffs[4] * x + coeffs[5] * x ** 2
            r = coeffs[6] + coeffs[7] * x + coeffs[8] * x ** 2
            assert p.compose([q]).compose([r]) == p.compose([q.compose([r])])


def jacobian(ps: list[MultiPoly], x) -> np.ndarray:
    """The Jacobian of the components ps at x, from their map's coefficient table."""
    f = SimplexMap(len(x), max(p.degree() for p in ps), ps)
    return f.coefficients().jacobians(np.array([x], dtype=float))[0]


class TestJacobian:
    def test_twofold_at_vertex(self):
        x, y = MultiPoly.variables(2)
        ps = [(x - y) ** 2, (1 - x - y) * (1 + x + y)]
        assert jacobian(ps, [1, 0]).tolist() == [[2, -2], [-2, -2]]

    def test_linear_map(self):
        x, y = MultiPoly.variables(2)
        ps = [2 * x + 3 * y, x - y]
        assert jacobian(ps, [1 / 3, 1 / 7]).tolist() == [[2, 3], [1, -1]]

    def test_logistic_critical(self):
        x = var()
        assert jacobian([4 * x * (1 - x)], [0.5]).tolist() == [[0]]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x, y = MultiPoly.variables(2, FLOAT)
        ps = [0.3 * x ** 2 + 0.1 * x * y + 0.2 * y, 0.5 * y ** 2 - 0.2 * x + 0.1]
        h = 1e-6
        for _ in range(100):
            pt = rng.random(2) / 2
            J = jacobian(ps, pt)
            for i, p in enumerate(ps):
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    fd = (p.eval_many(pt + e) - p.eval_many(pt - e)) / (2 * h)
                    assert abs(fd - J[i, j]) <= 1e-6 * max(1.0, abs(J[i, j]))


class TestNormalizeDegree:
    def test_float_mode_refused(self):
        p = MultiPoly(2, {(1, 0): 1.0}, FLOAT)
        with pytest.raises(TypeError):
            divide_by_linear(p, linear_form(2).to_float())


class TestDivision:
    def test_exact_quotient(self):
        x, y = MultiPoly.variables(2)
        ell = 1 - x - y
        p = ell * (x ** 2 + 3 * y)
        q, r = divide_by_linear(p, ell)
        assert r.is_zero() and q == x ** 2 + 3 * y

    def test_remainder_obstruction(self):
        x, y = MultiPoly.variables(2)
        q, r = divide_by_linear(x * y + 1, x + y)
        assert not r.is_zero()
        assert (q * (x + y) + r) == x * y + 1


class TestJson:
    def test_round_trip_exact(self):
        x, y = MultiPoly.variables(2)
        p = (x - y) ** 2 / 3 + MultiPoly.constant(2, Fraction(1, 7))
        assert MultiPoly.from_json(p.to_json()) == p

    def test_round_trip_float(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        p = 0.1 * x ** 3 - 2.5 * x
        assert MultiPoly.from_json(p.to_json()) == p

    def test_coefficient_strings(self):
        p = MultiPoly(1, {(1,): Fraction(-3, 7)})
        assert p.to_json()["terms"][0]["coef"] == "-3/7"

    def test_mixed_mode_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.from_json({"num_vars": 1,
                                 "terms": [{"exp": [1], "coef": "1/2"},
                                           {"exp": [0], "coef": 0.5}]})

    def test_missing_field_named(self):
        with pytest.raises(ValueError,
                           match="polynomial JSON lacks required field.*'num_vars'"):
            MultiPoly.from_json({"terms": []})


def test_mixed_arithmetic_rejected():
    with pytest.raises(TypeError):
        MultiPoly.variable(1, 0) + MultiPoly.variable(1, 0, FLOAT)


def test_no_zero_terms_stored():
    x = var()
    assert (x - x).terms == {}
    assert (x * 0).terms == {}
