from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np
import pytest

from simplexfold import positivity, simplex
from simplexfold.polynomial import FLOAT, MultiPoly, homogenize, linear_form


def expand_oracle(p, k, N):
    """Independent expansion of L^N * P_H via the binomial formula, not the
    incremental product the certifier uses."""
    h = homogenize(p, k)
    nv = p.num_vars + 1
    out = {}
    from simplexfold.polynomial import monomials_exact
    from math import factorial
    for exp, c in h.terms.items():
        for extra in monomials_exact(nv, N):
            beta = tuple(a + b for a, b in zip(exp, extra))
            w = factorial(N)
            for e in extra:
                w //= factorial(e)
            out[beta] = out.get(beta, 0) + c * w
    return {e: c for e, c in out.items() if c != 0}


def compositions(total, parts):
    """Every tuple of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def convolution_all_positive(p, k, N):
    """Whether every coefficient of L^N * P_H is positive, by multinomial
    convolution of p's own terms: the term c*x^a of p contributes
    c * (N+k-|a|)! / prod((beta - a)!) to the coefficient of x^beta,
    |beta| = N + k, with a's last exponent 0."""
    scale = lcm(*(Fraction(c).denominator for c in p.terms.values()))
    terms = [(a + (0,), int(c * scale)) for a, c in p.terms.items()]
    for beta in compositions(N + k, p.num_vars + 1):
        acc = 0
        for a, c in terms:
            r = [b - e for b, e in zip(beta, a)]
            if min(r) < 0:
                continue
            w = factorial(sum(r))
            for e in r:
                w //= factorial(e)
            acc += c * w
        if acc <= 0:
            return False
    return True


def minimal_N(p, k, N_max):
    return next((N for N in range(N_max + 1) if convolution_all_positive(p, k, N)),
                None)


def census_quadric(s, a):
    """sum s_i^2 x_i^2 - a sum_{i<j} s_i s_j x_i x_j at x_3 = 1 - x_1 - x_2;
    minimal Polya N about 3/(1-a) - 1 for a < 1, an interior zero at a = 1."""
    x, y = MultiPoly.variables(2)
    v = (x, y, 1 - x - y)
    p = MultiPoly.zero(2)
    for i in range(3):
        p = p + s[i] * s[i] * v[i] * v[i]
        for j in range(i + 1, 3):
            p = p - a * s[i] * s[j] * v[i] * v[j]
    return p


class TestPolyaMinimalN:
    """polya_certify's N against an independent convolution oracle."""

    def check(self, p, k, N_max):
        cert = positivity.polya_certify(p, k=k, N_max=N_max)
        if cert.verdict == positivity.NEGATIVE:
            assert p.evaluate([Fraction(v) for v in cert.witness_point]) < 0
            return cert
        assert cert.N == minimal_N(p, k, N_max)
        assert cert.certified == (cert.N is not None)
        return cert

    def test_interval_degree_bound_above_degree(self):
        x = MultiPoly.variable(1, 0)
        p = 1 - 3 * x + 3 * x ** 2
        # L^N times the degree-k homogenization is L^(N+k-2) P_H
        for k, N in ((2, 3), (3, 2), (4, 1), (5, 0)):
            assert self.check(p, k, 10).N == N

    def test_census_quadrics(self):
        s = (Fraction(1), Fraction(9, 8), Fraction(5, 4))
        Ns = []
        for a in (-Fraction(1, 2), Fraction(1, 2), 1 - Fraction(3, 11),
                  1 - Fraction(3, 26), 1 - Fraction(3, 49), Fraction(1)):
            Ns.append(self.check(census_quadric(s, a), 2, 50).N)
        assert Ns[0] == 0 and Ns[-1] is None
        assert 40 <= Ns[-2] <= 50
        assert Ns[:-1] == sorted(Ns[:-1])

    def test_random_three_variable(self):
        # squares of random affine forms plus a margin: positive, with
        # minimal N spread over 0..12 and beyond
        rng = np.random.default_rng(17)
        x = MultiPoly.variables(3)
        Ns = []
        for _ in range(12):
            k = int(rng.integers(2, 4))
            ell = MultiPoly.constant(3, Fraction(int(rng.integers(-2, 3)), 2))
            for i in range(3):
                ell = ell + int(rng.integers(-2, 3)) * x[i]
            p = ell * ell + Fraction(1, int(rng.integers(2, 9)))
            Ns.append(self.check(p, k, 12).N)
        assert None in Ns and max(N for N in Ns if N is not None) >= 5

    def test_zero_polynomial(self):
        cert = self.check(MultiPoly.zero(2), 2, 6)
        assert cert.verdict == positivity.INDETERMINATE


class TestPolyaCertify:
    def test_linear_form_immediate(self):
        x, y = MultiPoly.variables(2)
        cert = positivity.polya_certify(1 + x + y)
        assert cert.certified and cert.N == 0

    def test_quadratic_needs_three(self):
        x = MultiPoly.variable(1, 0)
        p = 1 - 3 * x + 3 * x ** 2
        cert = positivity.polya_certify(p, k=2)
        assert cert.certified and cert.N == 3
        # oracle: N=0..2 leave a zero or negative coefficient, N=3 is all-positive
        for N in range(3):
            exp = expand_oracle(p, 2, N)
            full = comb(N + 2 + 1, 1)
            assert len(exp) < full or min(exp.values()) <= 0
        exp3 = expand_oracle(p, 2, 3)
        assert exp3 == {(5, 0): 1, (4, 1): 2, (3, 2): 1, (2, 3): 1, (1, 4): 2, (0, 5): 1}

    def test_boundary_zero_stays_indeterminate(self):
        x = MultiPoly.variable(1, 0)
        cert = positivity.polya_certify((1 - 2 * x) ** 2, N_max=12)
        assert cert.verdict == positivity.INDETERMINATE
        assert cert.N_max == 12

    def test_rounding_is_not_a_witness(self):
        # both touch zero inside the triangle, where the float pre-scan
        # reads -2.8e-17 and -5.6e-17; exactly, they are never negative
        x, y = MultiPoly.variables(2)
        for p in ((3 * x - y) ** 2, (x - 2 * y) ** 2 * (x + y)):
            cert = positivity.polya_certify(p, N_max=3)
            assert cert.verdict == positivity.INDETERMINATE

    def test_negative_witness(self):
        x = MultiPoly.variable(1, 0)
        cert = positivity.polya_certify(x - Fraction(1, 2))
        assert cert.verdict == positivity.NEGATIVE
        assert cert.witness_value < 0
        assert simplex.in_simplex(cert.witness_point)

    def test_monotone_in_N(self):
        # multiplying an all-positive expansion by the linear form keeps it positive
        rng = np.random.default_rng(11)
        x, y = MultiPoly.variables(2)
        checked = 0
        while checked < 10:
            c = rng.integers(1, 6, size=6)
            p = (int(c[0]) + int(c[1]) * x + int(c[2]) * y + int(c[3]) * x * y
                 + int(c[4]) * x ** 2 + int(c[5]) * y ** 2 - 2 * x * y)
            cert = positivity.polya_certify(p, k=2)
            if not cert.certified:
                continue
            exp = expand_oracle(p, 2, cert.N + 1)
            assert len(exp) == comb(cert.N + 1 + 2 + 2, 2)
            assert min(exp.values()) > 0
            checked += 1

    def test_scale_equivariance(self):
        x = MultiPoly.variable(1, 0)
        p = 1 - 3 * x + 3 * x ** 2
        for lam in (Fraction(1, 7), 2, Fraction(13, 5)):
            assert positivity.polya_certify(p * lam, k=2).N == 3

    def test_certified_soundness_by_sampling(self):
        rng = np.random.default_rng(12)
        x, y = MultiPoly.variables(2)
        pts = simplex.sample_uniform(2, 100_000, rng)
        for _ in range(5):
            c = rng.integers(0, 5, size=5)
            p = (1 + int(c[0]) * x + int(c[1]) * y + int(c[2]) * x * y
                 + int(c[3]) * x ** 2 + int(c[4]) * y ** 2)
            cert = positivity.polya_certify(p, k=2)
            assert cert.certified
            assert (p.eval_many(pts) > 0).all()


class TestNonneg:
    def test_fold_component_sampled(self):
        x = MultiPoly.variable(1, 0)
        v = positivity.nonneg_on_simplex(4 * x * (1 - x), mode="sampled")
        assert v.ok and v.min_value >= -1e-12

    def test_negative_with_witness_at_endpoint(self):
        x = MultiPoly.variable(1, 0)
        v = positivity.nonneg_on_simplex(x - Fraction(1, 2), mode="sampled")
        assert not v.ok
        assert v.witness == (0.0,)

    def test_zero_poly(self):
        v = positivity.nonneg_on_simplex(MultiPoly.zero(2), mode="sampled")
        assert v.ok

    def test_certified_strictly_positive(self):
        x, y = MultiPoly.variables(2)
        v = positivity.nonneg_on_simplex(1 + x + y, mode="certified", tol=1e-3)
        assert v.ok

    def test_certified_rejects_negative(self):
        x = MultiPoly.variable(1, 0)
        v = positivity.nonneg_on_simplex(x - Fraction(1, 2), mode="certified", tol=1e-3)
        assert not v.ok


class TestQuadricMinimum:
    """Degree <= 2: the verdict is the exact minimum, in both modes."""

    @pytest.mark.parametrize("mode", ["sampled", "certified"])
    @pytest.mark.parametrize("make, minimum, witness", [
        (lambda x, y: MultiPoly.zero(2), 0, None),
        (lambda x, y: MultiPoly.constant(2, 3), 3, None),
        (lambda x, y: MultiPoly.constant(2, Fraction(-1, 10**10)), Fraction(-1, 10**10), None),
        (lambda x, y: MultiPoly.constant(2, -2), -2, (1.0, 0.0)),
        (lambda x, y: x + y, 0, None),
        (lambda x, y: 2 * x + 3 * y - 1, -1, (0.0, 0.0)),
        (lambda x, y: 1 - x - y - Fraction(1, 4), Fraction(-1, 4), (1.0, 0.0)),
    ])
    def test_zero_constant_linear(self, mode, make, minimum, witness):
        p = make(*MultiPoly.variables(2))
        v = positivity.nonneg_on_simplex(p, mode=mode)
        assert v.ok == (minimum >= -1e-9)
        assert v.min_value == float(minimum)
        assert v.witness == witness

    @pytest.mark.parametrize("mode", ["sampled", "certified"])
    @pytest.mark.parametrize("dip", [Fraction(1, 10**7), Fraction(0)])
    def test_dip_between_sample_points(self, mode, dip):
        # the minimum -dip sits at (1/3, 1/3), 7.5e-4 from the nearest of the
        # 10^5 sampled points, where p is above 4e-7; sampling accepted the
        # 1e-7 dip, and the eps-ladder could certify neither quadric
        x, y = MultiPoly.variables(2)
        third = Fraction(1, 3)
        p = (x - third) ** 2 + (y - third) ** 2 - dip
        v = positivity.nonneg_on_simplex(p, mode=mode)
        assert v.ok == (dip == 0)
        assert v.min_value == -float(dip)
        if dip:
            assert v.witness == pytest.approx((1 / 3, 1 / 3), abs=1e-16)

    def test_no_sampling(self, monkeypatch):
        def fail(*a, **kw):
            raise AssertionError("a quadric verdict sampled")
        monkeypatch.setattr(positivity, "_prescan_points", fail)
        monkeypatch.setattr(positivity, "polya_certify", fail)
        x, y = MultiPoly.variables(2)
        for mode in ("sampled", "certified"):
            assert positivity.nonneg_on_simplex(x * y, mode=mode).ok

    def test_certified_float_refused(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        with pytest.raises(TypeError):
            positivity.nonneg_on_simplex(x, mode="certified")

    def test_unknown_mode_refused(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(ValueError, match="unknown mode"):
            positivity.nonneg_on_simplex(x, mode="exact")
