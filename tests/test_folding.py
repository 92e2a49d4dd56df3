import logging
import time
from fractions import Fraction

import numpy as np
import pytest

from simplexfold import dynamics, folding, maps, positivity, simplex
from simplexfold.folding import (FoldSolveError, ParamPoly, catalog,
                                 catalog_factors, fold_order, preimage_count,
                                 residual, solve_fold, verify_factorization)
from simplexfold.polynomial import (MultiPoly, derivative_terms, eval_terms,
                                    gradedlex_key, monomials_upto)


class TestCatalog:
    def test_cheb2_is_logistic(self):
        x = MultiPoly.variable(1, 0)
        assert catalog("cheb:2").P[0] == 4 * x * (1 - x)

    def test_cheb5(self):
        x = MultiPoly.variable(1, 0)
        assert catalog("cheb:5").P[0] == x * (5 - 20 * x + 16 * x ** 2) ** 2

    def test_tri_f2(self):
        x, y = MultiPoly.variables(2)
        f = catalog("tri:f2")
        assert f.P[0] == (x - y) ** 2
        assert f.P[1] == (1 - x - y) * (1 + x + y)
        assert f.last_component() == 4 * x * y

    def test_tri_f8_matches_table_row(self):
        # table text has a typo (4y^2 for 4y^4); the composition identity fixes it
        x, y = MultiPoly.variables(2)
        q1 = (1 - 4 * x ** 2 + 4 * x ** 4 - 8 * x * y - 4 * y ** 2
              + 24 * x ** 2 * y ** 2 + 4 * y ** 4)
        assert catalog("tri:f8").P[0] == q1 ** 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("tri:f3")

    def test_components_sum_to_one(self):
        one = MultiPoly.constant(1, 1)
        one2 = MultiPoly.constant(2, 1)
        for name in folding.CATALOG_NAMES:
            f = catalog(name)
            total = f.last_component()
            for p in f.P:
                total = total + p
            assert total == (one if f.n == 1 else one2)


class TestSemigroup:
    @pytest.mark.parametrize("d,e", [(2, 2), (2, 3), (3, 2), (3, 3),
                                     (2, 4), (4, 2), (2, 5), (2, 6), (3, 4)])
    def test_chebyshev_composition(self, d, e):
        lhs = maps.compose_maps(catalog(f"cheb:{d}"), catalog(f"cheb:{e}"))
        assert tuple(lhs.P) == tuple(catalog(f"cheb:{d * e}").P)

    def test_f4_is_f2_squared(self):
        f2 = catalog("tri:f2")
        assert tuple(maps.compose_maps(f2, f2).P) == tuple(catalog("tri:f4").P)

    def test_f8_is_f2_cubed(self):
        f2 = catalog("tri:f2")
        f8 = maps.compose_maps(f2, maps.compose_maps(f2, f2))
        assert tuple(f8.P) == tuple(catalog("tri:f8").P)


class TestBoundaryLemma:
    def test_folds_map_boundary_to_boundary(self):
        rng = np.random.default_rng(19)
        for name in folding.CATALOG_NAMES:
            f = catalog(name).to_float()
            pts = _boundary_points(f.n, 1000, rng)
            images = f.apply_many(pts, tol=1e-9)
            dist = np.minimum(images.min(axis=1), 1 - images.sum(axis=1))
            assert dist.max() <= 1e-10, name


def _boundary_points(n, count, rng):
    pts = simplex.sample_uniform(n, count, rng)
    facet = rng.integers(0, n + 1, size=count)
    for i in range(count):
        if facet[i] < n:
            pts[i, facet[i]] = 0.0
        else:
            pts[i] /= pts[i].sum()
    return pts


class TestVerifyFactorization:
    @pytest.mark.parametrize("name", folding.CATALOG_NAMES)
    def test_catalog_passes(self, name):
        report = verify_factorization(catalog(name), catalog_factors(name))
        assert report.ok, report.checks

    def test_degree_budget_in_catalog(self):
        for name in folding.CATALOG_NAMES:
            f, fac = catalog(name), catalog_factors(name)
            for i in range(f.n + 1):
                assert (fac.l[i].degree() + 2 * fac.q[i].degree()
                        + fac.m[i].degree()) <= f.k

    def test_identity_factors(self):
        report = verify_factorization(catalog("tri:f1"), catalog_factors("tri:f1"))
        assert report.ok

    def test_broken_factorization_detected(self):
        fac = catalog_factors("tri:f2")
        wrong = folding.FoldFactors(fac.l, fac.q,
                                    (fac.m[0] + 1, fac.m[1], fac.m[2]))
        report = verify_factorization(catalog("tri:f2"), wrong)
        assert not report.checks["reassembly"][0]

    def test_inferred_l_product(self):
        report = verify_factorization(catalog("tri:f9"), None)
        assert report.checks["l_product"][0]


class TestResidual:
    def test_twofold_solution_is_zero(self):
        tpl = folding.two_simplex_twofold_template()
        assert residual(tpl, [1, 1, 1, 1, 1, 4]).is_zero()

    def test_perturbed_F_has_xy_coefficient(self):
        # residual = 1 - sum(l q^2 m); at (1,1,1,1,1,5) the xy coefficient is
        # 2 + 2B - F = -1 (the paper's expansion has (E+D+2AB-F) with flipped sign)
        tpl = folding.two_simplex_twofold_template()
        r = residual(tpl, [1, 1, 1, 1, 1, 5])
        assert r.coefficient((1, 1)) == -1

    def test_interval_quadratic_solution(self):
        tpl = folding.interval_fold_template(2)
        assert residual(tpl, [4, 1, -2]).is_zero()

    def test_param_count_checked(self):
        tpl = folding.interval_fold_template(2)
        with pytest.raises(ValueError):
            residual(tpl, [1, 2])

    def test_ninefold_template_matches_catalog(self):
        # the catalog nine-fold factors are a zero of the (2,4)^3 template
        tpl = folding.two_simplex_ninefold_template()
        fac = catalog_factors("tri:f9")
        params = [Fraction(0)] * tpl.n_params
        for i in range(3):
            block = tpl.q_param_blocks[i]
            exps = [p.terms for _, p in tpl.q[i].terms]
            for off, (j, basis_poly) in enumerate(tpl.q[i].terms):
                (exp,) = basis_poly.terms
                params[j] = fac.q[i].coefficient(exp)
            for j, basis_poly in tpl.m[i].terms:
                (exp,) = basis_poly.terms
                params[j] = fac.m[i].coefficient(exp)
        assert residual(tpl, params).is_zero()


class TestSolveFold:
    def test_interval_identity(self):
        sols = solve_fold(folding.interval_fold_template(1))
        assert len(sols) == 1
        x = MultiPoly.variable(1, 0)
        assert sols[0].map.P[0] == x

    def test_interval_logistic(self):
        sols = solve_fold(folding.interval_fold_template(2))
        assert len(sols) == 1
        assert sols[0].exact
        assert sols[0].params == (Fraction(4), Fraction(1), Fraction(-2))
        assert tuple(sols[0].map.P) == tuple(catalog("cheb:2").P)

    def test_interval_threefold(self):
        sols = solve_fold(folding.interval_fold_template(3))
        assert [tuple(s.map.P) for s in sols] == [tuple(catalog("cheb:3").P)]

    def test_twofold_unique_sign_feasible(self):
        sols = solve_fold(folding.two_simplex_twofold_template())
        assert len(sols) == 1
        assert sols[0].exact
        assert sols[0].params == tuple(Fraction(v) for v in (1, 1, 1, 1, 1, 4))

    def test_no_convergence_raises(self, caplog):
        # 1 - x m_1 - (1 - x) m_2 = x - (a + b): its x coefficient reads
        # 1 = 0, so the one homotopy path diverges
        one, x = MultiPoly.constant(1, 1), MultiPoly.variable(1, 0)
        s = ((0, one), (1, one))
        tpl = folding.FoldTemplate(
            1, 1, "inconsistent", ((1, 1), (2, 2)), ((0, 0), (0, 0)),
            (x, 1 - x), (ParamPoly.fixed_one(1), ParamPoly.fixed_one(1)),
            (ParamPoly(MultiPoly.zero(1), s), ParamPoly(one, s)),
            2, ("a", "b")).validate()
        with caplog.at_level(logging.DEBUG, logger="simplexfold.folding"):
            with pytest.raises(FoldSolveError, match="finite root"):
                solve_fold(tpl)
        record, = caplog.records
        assert (record.bezout, record.infinite) == (1, 1)

    def test_non_square_template_fails_fast(self):
        tpl = folding.two_simplex_ninefold_template()
        t0 = time.perf_counter()
        with pytest.raises(FoldSolveError, match="55 equations in 63 unknowns"):
            solve_fold(tpl)
        assert time.perf_counter() - t0 < 1.0

    def test_debug_record(self, caplog, capsys):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.folding"):
            sols = solve_fold(folding.interval_fold_template(2))
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.template == "interval:2"
        assert record.bezout == 8
        assert (record.nonsingular + record.singular + record.infinite
                + record.failed) == 8
        assert record.failed == 0
        # the logistic map's four sign-gauge copies
        assert record.real == 4
        assert set(record.dropped) == {"dedup", "sign", "crease", "membership"}
        assert record.real - sum(record.dropped.values()) == record.solutions
        assert record.solutions == len(sols) == 1
        assert capsys.readouterr() == ("", "")


class TensorReference:
    """A template's residual, Jacobian and equation degrees from a dense
    tensor: each factor's coefficient vector is affine in theta
    (q = Q0 + QM theta), and the coefficient vector of l q^2 m is trilinear
    in those vectors, T[out, a, b, c].  The equation degree is the largest
    number of theta-dependent factors over the nonzero entries T[o, a, b, c]."""

    def __init__(self, template):
        basis = monomials_upto(template.n, template.k)
        index = {e: i for i, e in enumerate(basis)}
        self.const_vec = np.zeros(len(basis))
        self.const_vec[index[(0,) * template.n]] = 1.0
        P = template.n_params
        self.parts = []
        self.degrees = np.zeros(len(basis), dtype=int)
        for li, qi, mi in zip(template.l, template.q, template.m):
            Q0, QM, qs = self._affine(qi, P)
            M0, MM, ms = self._affine(mi, P)
            T = np.zeros((len(basis), len(qs), len(qs), len(ms)))
            for lexp, lc in li.terms.items():
                for a, ea in enumerate(qs):
                    for b, eb in enumerate(qs):
                        for c, ec in enumerate(ms):
                            out = tuple(map(sum, zip(lexp, ea, eb, ec)))
                            T[index[out], a, b, c] += float(lc)
            self.parts.append((T, Q0, QM, M0, MM))
            qdep, mdep = QM.any(axis=1), MM.any(axis=1)
            dep = (qdep[:, None, None].astype(int) + qdep[None, :, None]
                   + mdep[None, None, :])
            for o in range(len(basis)):
                nz = T[o] != 0
                if nz.any():
                    self.degrees[o] = max(self.degrees[o], dep[nz].max())

    @staticmethod
    def _affine(pp, P):
        exps = sorted({e for e in pp.fixed.terms}
                      | {e for _, p in pp.terms for e in p.terms},
                      key=gradedlex_key) or [(0,) * pp.fixed.num_vars]
        V0 = np.array([float(pp.fixed.terms.get(e, 0)) for e in exps])
        VM = np.zeros((len(exps), P))
        for j, p in pp.terms:
            for e, c in p.terms.items():
                VM[exps.index(e), j] += float(c)
        return V0, VM, exps

    def residual_batch(self, theta):
        v = np.broadcast_to(self.const_vec, (len(theta), len(self.const_vec))
                            ).astype(np.result_type(theta, float))
        for T, Q0, QM, M0, MM in self.parts:
            qv, mv = Q0 + theta @ QM.T, M0 + theta @ MM.T
            v -= np.einsum("oabc,sa,sb,sc->so", T, qv, qv, mv)
        return v

    def jacobian_batch(self, theta):
        J = 0
        for T, Q0, QM, M0, MM in self.parts:
            qv, mv = Q0 + theta @ QM.T, M0 + theta @ MM.T
            J = (J - 2.0 * np.einsum("oabc,aj,sb,sc->soj", T, QM, qv, mv)
                 - np.einsum("oabc,sa,sb,cj->soj", T, qv, qv, MM))
        return J


class FixedPointSystem:
    """F = f(x) - x over eval_terms, with the residual_batch, jacobian_batch
    and degrees that folding._track_paths reads."""

    def __init__(self, f):
        n = f.n
        polys = [f.P[i] - MultiPoly.variable(n, i) for i in range(n)]
        plans = [p._plan() for p in polys]
        self.n = n
        self.maxdeg = [max(md[j] for md, _ in plans) for j in range(n)]
        self.terms = tuple(plan for _, plan in plans)
        self.partials = tuple(derivative_terms(t, j) for t in self.terms for j in range(n))
        self.degrees = np.array([p.degree() for p in polys])

    def residual_batch(self, x):
        return np.stack(eval_terms(x, self.maxdeg, self.terms), axis=1)

    def jacobian_batch(self, x):
        cols = eval_terms(x, self.maxdeg, self.partials)
        return np.stack(cols, axis=1).reshape(len(x), self.n, self.n)


class TestHomotopy:
    @pytest.mark.parametrize("name", sorted(folding.BUILTIN_TEMPLATES))
    def test_tables_match_tensor_reference(self, name):
        tpl = folding.BUILTIN_TEMPLATES[name]()
        ft, ref = folding._CompiledTemplate(tpl), TensorReference(tpl)
        assert ft.degrees.tolist() == ref.degrees.tolist()
        rng = np.random.default_rng(7)
        real = rng.normal(size=(16, tpl.n_params))
        for theta in (real, real + 1j * rng.normal(size=real.shape)):
            for got, want in ((ft.residual_batch(theta), ref.residual_batch(theta)),
                              (ft.jacobian_batch(theta), ref.jacobian_batch(theta))):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_degrees(self):
        ft = folding._CompiledTemplate(folding.two_simplex_twofold_template())
        assert ft.degrees.tolist() == [1, 1, 1, 1, 2, 3]
        for d in range(1, 7):
            ft = folding._CompiledTemplate(folding.interval_fold_template(d))
            assert ft.degrees.tolist() == [1 if d == 1 else 2] * (d + 1)

    @pytest.mark.parametrize("name, bezout, real", [
        ("interval:1", 1, 1), ("interval:2", 8, 4), ("interval:3", 16, 4),
        ("interval:4", 32, 4), ("interval:5", 64, 4), ("interval:6", 128, 4),
        ("twofold2d", 6, 2)])
    def test_every_path_accounted(self, name, bezout, real, caplog):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.folding"):
            solve_fold(folding.BUILTIN_TEMPLATES[name]())
        record, = caplog.records
        assert record.bezout == bezout
        assert (record.nonsingular + record.singular + record.infinite
                + record.failed) == bezout
        assert record.failed == 0
        assert record.real == real
        # every path is evaluated at its start, and every lockstep step
        # evaluates at least one row; a path that wound c >= 2 times about
        # t = 1 ends at a multiple root, so it is not nonsingular
        assert 0 < record.steps <= folding._MAX_STEPS
        assert record.evaluations >= bezout + record.steps
        wound = record.multiplicity
        assert all(isinstance(c, int) and c >= 1 and n > 0 for c, n in wound.items())
        assert sum(wound.values()) <= bezout
        assert sum(n for c, n in wound.items() if c >= 2) <= (record.singular
                                                               + record.infinite)

    # bounds: a third of the rows per path that a tracker with an RK4
    # predictor, three correctors a step and no endgame passed to
    # residual_batch
    @pytest.mark.parametrize("name, before", [
        ("interval:2", 481), ("interval:3", 410), ("interval:4", 510),
        ("interval:5", 588), ("interval:6", 653), ("twofold2d", 559)])
    def test_evaluations_per_path(self, name, before, caplog):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.folding"):
            solve_fold(folding.BUILTIN_TEMPLATES[name]())
        record, = caplog.records
        assert record.evaluations / record.bezout <= before / 3

    def test_ninefold_fixed_points(self):
        f = catalog("tri:f9")
        system = FixedPointSystem(f)
        ends, kind = folding._track_paths(system, folding._gamma(folding._GAMMA_KEY))
        assert len(kind) == 81 and not (kind == "failed").any()
        good = ends[kind == "nonsingular"]
        real = good[np.abs(good.imag).max(axis=1) <= 1e-8].real
        inside = real[(real.min(axis=1) >= -1e-9) & (real.sum(axis=1) <= 1 + 1e-9)]
        want = np.array([p.point for p in dynamics.find_fixed_points(f).points])
        assert len(inside) == len(want) == 14
        assert all(np.abs(want - x).max(axis=1).min() <= 1e-8 for x in inside)
        assert all(np.abs(inside - w).max(axis=1).min() <= 1e-8 for w in want)

    def test_crossed_paths_run_again(self, monkeypatch):
        # with this key two twofold2d paths pass within about 1e-4 near
        # t = 0.822, and the first pass carries one onto the other's track
        monkeypatch.setattr(folding, "_GAMMA_KEY", 4)
        ft = folding._CompiledTemplate(folding.two_simplex_twofold_template())
        ends, kind = folding._track_paths(ft, folding._gamma(4))
        good = ends[kind == "nonsingular"]
        assert len(good) == 2 and not (kind == "failed").any()
        assert np.abs(good[0] - good[1]).max() > 1

    def test_threefold_endpoints_are_gauge_copies(self):
        ft = folding._CompiledTemplate(folding.interval_fold_template(3))
        ends, kind = folding._track_paths(ft, folding._gamma(folding._GAMMA_KEY))
        got = ends[kind == "nonsingular"]
        assert np.abs(got.imag).max() <= 1e-8
        want = sorted((3 * a, -4 * a, b, -4 * b) for a in (1, -1) for b in (1, -1))
        assert np.abs(np.array(sorted(map(tuple, got.real))) - want).max() <= 1e-8

    @pytest.mark.parametrize("name", ["interval:3", "twofold2d"])
    def test_solutions_do_not_depend_on_gamma(self, name, monkeypatch):
        keys = (1, 2, 3)
        assert len({folding._gamma(k) for k in keys}) == 3
        tpl = folding.BUILTIN_TEMPLATES[name]()
        got = []
        for key in keys:
            monkeypatch.setattr(folding, "_GAMMA_KEY", key)
            got.append([s.params for s in solve_fold(tpl)])
        assert len(got[0]) == 1 and got[0] == got[1] == got[2]

    @pytest.mark.parametrize("name", ["interval:2", "interval:5", "twofold2d"])
    def test_complex_theta_with_zero_imaginary_part(self, name):
        ft = folding._CompiledTemplate(folding.BUILTIN_TEMPLATES[name]())
        theta = np.random.default_rng(0).normal(scale=3, size=(20, ft.template.n_params))
        for fn in (ft.residual_batch, ft.jacobian_batch):
            real, cplx = fn(theta), fn(theta + 0j)
            assert real.dtype == np.float64 and cplx.dtype == np.complex128
            assert cplx.real.tobytes() == real.tobytes()
            assert not cplx.imag.any()


class TestPreimageCount:
    def test_cheb3_has_three(self):
        f = catalog("cheb:3")
        count, pts = preimage_count(f, [0.37])
        assert count == 3
        # oracle: bisection sweep on P1(x) - 0.37 over [0, 1]
        assert count == _bisection_root_count(f.P[0].to_float(), 0.37)

    def test_twofold_two_preimages(self):
        f = catalog("tri:f2")
        rng = np.random.default_rng(20)
        for _ in range(20):
            y = rng.uniform(0.05, 0.6, size=2)
            if y.sum() >= 0.9:
                continue
            count, _ = preimage_count(f, y, seed=3)
            assert count == 2, y

    def test_identity_single(self):
        count, pts = preimage_count(catalog("tri:f1"), [0.3, 0.2])
        assert count == 1
        assert np.allclose(pts[0], [0.3, 0.2], atol=1e-10)

    def test_boundary_target_rejected(self):
        with pytest.raises(ValueError):
            preimage_count(catalog("tri:f2"), [0.0, 0.5])

    @pytest.mark.parametrize("name, y", [("tri:f2", [0.3]), ("cheb:2", [0.3, 0.2])])
    def test_target_of_wrong_dimension_rejected(self, name, y):
        with pytest.raises(ValueError, match=f"{len(y)} coordinate"):
            preimage_count(catalog(name), y)


class TestOneSignTest:
    """Every sign test goes through positivity.nonneg_on_simplex."""

    @pytest.fixture
    def failing_sign_test(self, monkeypatch):
        calls = []

        def fail(p):
            calls.append(p)
            return positivity.NonnegVerdict(False, "sampled", min_value=-1.0)

        monkeypatch.setattr(positivity, "nonneg_on_simplex", fail)
        return calls

    def test_verify_factorization_cofactors(self, failing_sign_test):
        report = verify_factorization(catalog("tri:f2"), catalog_factors("tri:f2"))
        assert report.checks["m_nonneg"][0] is False
        assert not report.ok
        # every other check is exact and still passes
        assert all(ok for name, (ok, _) in report.checks.items() if name != "m_nonneg")
        assert failing_sign_test

    def test_solve_fold_drops_under_sign(self, failing_sign_test, caplog):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.folding"):
            sols = solve_fold(folding.two_simplex_twofold_template())
        record, = caplog.records
        assert sols == [] and record.solutions == 0
        assert record.dropped["sign"] == record.real - record.dropped["dedup"] > 0
        assert record.dropped["crease"] == record.dropped["membership"] == 0
        assert failing_sign_test


def _bisection_root_count(p, target, grid=20001):
    xs = np.linspace(0.0, 1.0, grid)
    vals = p.eval_many(xs[:, None]) - target
    return int((np.sign(vals[1:]) != np.sign(vals[:-1])).sum())


def test_template_json_round_trip():
    for builder in (folding.interval_fold_template(3),
                    folding.two_simplex_twofold_template()):
        back = folding.FoldTemplate.from_json(builder.to_json())
        assert back.l == builder.l
        assert back.param_names == builder.param_names
        assert residual(back, [0] * back.n_params) == residual(builder, [0] * builder.n_params)


def test_fold_orders():
    assert fold_order("cheb:4") == 4
    assert fold_order("tri:f9") == 9
