import logging
import math

import numpy as np
import pytest

from simplexfold import _newton, dynamics, folding, sampler, simplex
from simplexfold.cone import build_inequalities, enumerate_rays, scale_generators
from simplexfold.dynamics import (CONVERGED_FIXED, FAILED, NONPERIODIC, PERIODIC,
                                  ScanRow, classify_orbit, classify_orbits,
                                  find_fixed_points, fixation_experiment,
                                  invariant_measure_test, small_matrix_eigenvalues)
from simplexfold.maps import MapImageError, SimplexMap
from simplexfold.polynomial import FLOAT, MultiPoly


class TestEigenvalues:
    def test_closed_form_matches_qr(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3):
            for _ in range(100):
                J = rng.standard_normal((n, n)) * 3
                mine = list(small_matrix_eigenvalues(J))
                for b in np.linalg.eigvals(J):
                    a = min(mine, key=lambda z: abs(z - b))
                    mine.remove(a)
                    assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_classification_bands(self):
        assert dynamics.classify_spectrum([0.5, 0.2]) == "attracting"
        assert dynamics.classify_spectrum([2.0, 1.5]) == "repelling"
        assert dynamics.classify_spectrum([0.5, 2.0]) == "saddle"
        assert dynamics.classify_spectrum([1.0, 2.0]) == "marginal"


class TestFixedPoints:
    def test_twofold_vertex_spectrum(self):
        rep = find_fixed_points(folding.catalog("tri:f2"))
        vertex = [p for p in rep.points
                  if np.allclose(p.point, [1, 0], atol=1e-10)]
        assert len(vertex) == 1
        mods = sorted(abs(z) for z in vertex[0].eigenvalues)
        assert mods == pytest.approx([2 * np.sqrt(2)] * 2, abs=1e-9)
        assert vertex[0].classification == "repelling"

    def test_twofold_count(self):
        rep = find_fixed_points(folding.catalog("tri:f2"))
        assert len(rep) == 2

    def test_identity_degenerate(self):
        rep = find_fixed_points(folding.catalog("tri:f1"))
        assert rep.degenerate_identity

    def test_residuals_tiny(self):
        f = folding.catalog("tri:f9").to_float()
        rep = find_fixed_points(f)
        sysm = f
        for p in rep.points:
            img = sysm.apply_many(np.array(p.point))
            assert np.abs(img - np.array(p.point)).max() < 1e-11

    def test_batched_report_matches_per_point(self):
        f = folding.catalog("tri:f9")
        rep = find_fixed_points(f)
        pts = _newton.solve_on_simplex(f, seed=0)
        assert [fp.point for fp in rep.points] == sorted(tuple(x) for x in pts)
        parts = [[p.to_float().partial(j) for j in range(f.n)] for p in f.P]
        for fp in rep.points:
            x = np.array(fp.point)
            value = np.array([p.to_float().eval_many(x) for p in f.P])
            J = np.array([[d.eval_many(x) for d in row] for row in parts])
            assert fp.residual == float(np.abs(value - x).max())
            assert fp.eigenvalues == tuple(small_matrix_eigenvalues(J))

    def test_ninefold_exact_census(self):
        """Regression: the exact derived census of the Table-2 nine-fold.

        Symbolic resultants + exact real-root isolation give 14 fixed
        points: 2 attracting vertices, 9 repelling, and 3 saddles on the
        diagonal edge whose transverse eigenvalue is exactly 0 (the last
        component vanishes quadratically there).  The source text claims
        13 points with 11 repelling; that count misses the diagonal edge.
        """
        rep = find_fixed_points(folding.catalog("tri:f9"))
        assert len(rep) == 14
        att = rep.attracting()
        assert len(att) == 2
        locs = sorted(tuple(round(v, 9) for v in p.point) for p in att)
        assert locs == [(0.0, 1.0), (1.0, 0.0)]
        assert len(rep.repelling()) == 9
        saddles = [p for p in rep.points if p.classification == "saddle"]
        assert len(saddles) == 3
        for p in saddles:
            assert sum(p.point) == pytest.approx(1.0, abs=1e-9)
            assert min(abs(z) for z in p.eigenvalues) < 1e-6
        # nearest fixed point to each attracting vertex: the edge saddle at
        # t*sqrt(2) ~ 0.006112; nearest repelling is at 1-0.986741 ~ 0.013259
        for a in att:
            dmin = min(np.linalg.norm(np.subtract(a.point, p.point))
                       for p in rep.points if p is not a)
            assert dmin == pytest.approx(0.0061116, abs=1e-4)
            drep = min(np.linalg.norm(np.subtract(a.point, p.point))
                       for p in rep.repelling())
            assert drep == pytest.approx(0.0132587, abs=1e-4)


class TestOrbits:
    def test_logistic_chaotic(self):
        v = classify_orbit(folding.catalog("cheb:2").to_float(), [0.2])
        assert v.kind == NONPERIODIC

    def test_constant_map_converges(self):
        c = SimplexMap(2, 1, [MultiPoly.constant(2, 0.25, FLOAT)] * 2)
        v = classify_orbit(c, [0.1, 0.3], burn_in=0)
        assert v.kind == CONVERGED_FIXED
        # one step to reach the point plus two confirming sub-tol steps
        assert v.iterations_used <= 3

    def test_logistic_32_period_two(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        f = SimplexMap(1, 2, [3.2 * x * (1 - x)])
        v = classify_orbit(f, [0.21])
        assert v.kind == PERIODIC and v.period == 2

    def test_logistic_383_period_three(self):
        x = MultiPoly.variable(1, 0, FLOAT)
        f = SimplexMap(1, 2, [3.83 * x * (1 - x)])
        v = classify_orbit(f, [0.21])
        assert v.kind == PERIODIC and v.period == 3

    def test_cheb2_never_periodic_from_100_starts(self):
        rng = np.random.default_rng(22)
        f = folding.catalog("cheb:2").to_float()
        x0s = simplex.sample_uniform(1, 100, rng)
        verdicts = classify_orbits(f, x0s)
        assert all(v.kind == NONPERIODIC for v in verdicts)

    def test_batch_matches_single(self):
        f = folding.catalog("tri:f2").to_float()
        x0s = simplex.sample_uniform(2, 5, np.random.default_rng(23))
        batch = classify_orbits(f, x0s, window=500, burn_in=50)
        single = [classify_orbit(f, x0, window=500, burn_in=50) for x0 in x0s]
        # kind, iterations_used, period, witness and clamped, bit for bit
        assert batch == single


class TestDeformScan:
    def test_fold_row_green(self):
        f2 = folding.catalog("tri:f2")
        rows = dynamics.deform_scan(f2, [f2.to_float()], trials_per_map=5)
        assert rows[0].verdict == "green"
        assert rows[0].l2_distance == 0

    def test_constant_map_red(self):
        f2 = folding.catalog("tri:f2")
        c = SimplexMap(2, 2, [MultiPoly.constant(2, 1 / 3, FLOAT)] * 2)
        rows = dynamics.deform_scan(f2, [c], trials_per_map=3)
        assert rows[0].verdict == "red"

    def test_failure_contained(self):
        f2 = folding.catalog("tri:f2")
        x = MultiPoly.variable(2, 0, FLOAT)
        bad = SimplexMap(2, 2, [2.5 * x, MultiPoly.zero(2, FLOAT)])
        rows = dynamics.deform_scan(f2, [bad], trials_per_map=3)
        assert rows[0].verdict == "failed" and rows[0].error


SCAN_KW = {"window": 300, "burn_in": 30, "master_seed": 3}
TRIALS = 20


@pytest.fixture(scope="module")
def fold_batch():
    """The triangle two-fold, then its fold row and six deformations."""
    rep = enumerate_rays(build_inequalities(2, 2, 2))
    scale_generators(rep)
    f2 = folding.catalog("tri:f2")
    cfg = sampler.SamplerConfig(cone=rep, epsilon=0.05, master_seed=3)
    return f2, [f2.to_float()] + [sampler.deform(f2, cfg, sampler.make_rng(3, i))
                                  for i in range(1, 7)]


def _escaping_maps():
    x = MultiPoly.variable(2, 0, FLOAT)
    zero = MultiPoly.zero(2, FLOAT)
    # leaves the simplex within a few steps of burn-in
    fast = SimplexMap(2, 2, [2.5 * x, zero])
    # leaves it after burn-in: 136 steps in, at index 6 of the batch below
    slow = SimplexMap(2, 1, [1.003 * x, zero], label="slow")
    return fast, slow


def _scan_alone(f_star, g, index, trials, *, window, burn_in, master_seed):
    """Reference row: one map scanned on its own, as one map per task did.

    Terms are put in graded-lex order, the order of map JSON, in which every
    map reached a scan worker.
    """
    f_star, g = (SimplexMap(h.n, h.k, [MultiPoly(h.n, dict(p.sorted_terms()),
                                                 p.scalar_mode) for p in h.P],
                            h.label) for h in (f_star, g))
    dist = simplex.l2_distance(f_star, g)
    report = find_fixed_points(g, lattice_target=200, n_random=100,
                               seed=master_seed ^ index)
    rng = np.random.Generator(np.random.Philox(key=[master_seed, index]))
    X = simplex.sample_uniform(g.n, trials, rng)
    try:
        # the orbit as the scan steps it; apply_many raises on the first bad image
        Y = X
        for _ in range(burn_in + window):
            Y = g.apply_many(Y)
    except MapImageError as exc:
        return ScanRow(index, math.nan, math.nan, "failed", 0,
                       error=f"{type(exc).__name__}: {exc}")
    kinds = classify_orbits(g, X, window=window, burn_in=burn_in)
    green = all(v.kind == NONPERIODIC for v in kinds)
    return ScanRow(index, dist, report.min_abs_eig(), "green" if green else "red",
                   len(report), tuple(p.min_abs_eig() for p in report.points))


class TestLockstepScan:
    def test_rows_equal_maps_scanned_alone(self, fold_batch):
        f2, samples = fold_batch
        rows = dynamics.deform_scan(f2, samples, TRIALS, **SCAN_KW)
        assert [r.index for r in rows] == list(range(len(samples)))
        assert {r.verdict for r in rows} == {"green", "red"}
        for i, (row, g) in enumerate(zip(rows, samples)):
            # repr prints every float exactly: equal reprs are equal bits
            assert repr(row) == repr(_scan_alone(f2, g, i, TRIALS, **SCAN_KW))

    def test_escaping_maps_fail_only_their_rows(self, fold_batch):
        f2, samples = fold_batch
        fast, slow = _escaping_maps()
        batch = samples[:3] + [fast] + samples[3:5] + [slow] + samples[5:]
        rows = dynamics.deform_scan(f2, batch, TRIALS, **SCAN_KW)
        assert [r.index for r in rows if r.verdict == "failed"] == [3, 6]
        assert rows[6].error.endswith("(map slow)")
        for i, (row, g) in enumerate(zip(rows, batch)):
            assert repr(row) == repr(_scan_alone(f2, g, i, TRIALS, **SCAN_KW))

    def test_distance_ignores_term_order(self, fold_batch):
        # maps built by arithmetic keep their terms in insertion order; the
        # row's distance is that of the maps' graded-lex (JSON) form
        f2, samples = fold_batch
        rows = dynamics.deform_scan(f2, samples[1:], 2, window=5, burn_in=0)
        for row, g in zip(rows, samples[1:]):
            expected = simplex.l2_distance(SimplexMap.from_json(f2.to_json()),
                                           SimplexMap.from_json(g.to_json()))
            assert row.l2_distance == expected

    def test_failed_verdicts_carry_the_error(self):
        fast, _ = _escaping_maps()
        f = folding.catalog("tri:f2").to_float()
        x0s = simplex.sample_uniform(2, 6, np.random.default_rng(24))
        verdicts = classify_orbits([f, fast], x0s, window=50, burn_in=5,
                                   map_index=[0, 1, 0, 1, 0, 1])
        assert [v.kind == FAILED for v in verdicts] == [False, True] * 3
        assert len({v.error for v in verdicts[1::2]}) == 1
        assert verdicts[1].error.startswith("MapImageError: image ")
        alone = classify_orbits(f, x0s[0::2], window=50, burn_in=5)
        assert verdicts[0::2] == alone

    def test_debug_record(self, caplog, capsys):
        fast, _ = _escaping_maps()
        f2 = folding.catalog("tri:f2")
        c = SimplexMap(2, 2, [MultiPoly.constant(2, 1 / 3, FLOAT)] * 2)
        with caplog.at_level(logging.DEBUG, logger="simplexfold.dynamics"):
            dynamics.deform_scan(f2, [f2.to_float(), c, fast], trials_per_map=3,
                                 window=40, burn_in=5)
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.verdicts == {"green": 1, "red": 1, "failed": 1}
        assert record.failures == {"MapImageError": 1}
        assert record.lockstep_steps == 45  # the fold's orbits run the window
        assert 0 <= record.clamped_rows <= 9
        assert capsys.readouterr() == ("", "")


def minimal_period(f: SimplexMap, x, lam: int, tol: float):
    """Reference period check: one row, one step at a time.

    The smallest shift p <= lam under which the orbit from x matches itself
    over max(2*lam, 64) steps, or None; an image outside the simplex raises.
    """
    horizon = max(2 * lam, 64)
    orbit = [np.asarray(x, dtype=float)]
    for _ in range(horizon):
        orbit.append(f.apply_many(orbit[-1]))
    for p in range(1, lam + 1):
        if np.abs(orbit[0] - orbit[p]).max() >= tol:
            continue
        if all(np.abs(orbit[s] - orbit[s + p]).max() < tol
               for s in range(horizon - p + 1)):
            return p
    return None


def _logistic(r):
    x = MultiPoly.variable(1, 0, FLOAT)
    return SimplexMap(1, 2, [r * x * (1 - x)])


def _burnt_in(f, X, steps):
    for _ in range(steps):
        X = f.apply_many(X)
    return X


class TestBatchedPeriodCheck:
    TOL = 1e-10

    def assert_matches_reference(self, f, X, lam):
        batch = dynamics._minimal_periods(f, X, lam, self.TOL)
        assert batch == [minimal_period(f, x, lam, self.TOL) for x in X]
        return batch

    @pytest.mark.parametrize("r, period", [(3.2, 2), (3.83, 3)])
    def test_logistic_cycles(self, r, period):
        f = _logistic(r)
        X = _burnt_in(f, np.array([[0.21], [0.4], [0.77]]), 2000)
        for lam in (1, period, period + 1, 8, 40):
            found = self.assert_matches_reference(f, X, lam)
            assert found == [period if lam >= period else None] * 3

    def test_fold_batch_deformations(self, fold_batch, monkeypatch):
        # every period check the scan of the fold batch makes
        calls = []
        batched = dynamics._minimal_periods

        def record(f, X, lam, tol):
            calls.append((f, X.copy(), lam, tol))
            return batched(f, X, lam, tol)

        monkeypatch.setattr(dynamics, "_minimal_periods", record)
        f2, samples = fold_batch
        dynamics.deform_scan(f2, samples, TRIALS, **SCAN_KW)
        assert calls
        for f, X, lam, tol in calls:
            assert batched(f, X, lam, tol) == [minimal_period(f, x, lam, tol)
                                               for x in X]

    def test_slow_passage_rejected_beside_accepted_rows(self):
        # 1 - 1/3.2 is a repelling fixed point (multiplier -1.2): an orbit
        # 1e-13 from it moves by less than tol per step at first, but the
        # horizon sees it escape; the rows on the 2-cycle and the one on the
        # fixed vertex 0 are accepted
        f = _logistic(3.2)
        cycle = _burnt_in(f, np.array([[0.21], [0.5]]), 2000)
        X = np.vstack([cycle[:1], [[0.0]], [[1 - 1 / 3.2 + 1e-13]], cycle[1:]])
        assert np.abs(f.apply_many(X[2]) - X[2]).max() < self.TOL
        assert self.assert_matches_reference(f, X, 4) == [2, 1, None, 2]

    def test_failure_attributed_to_first_row(self):
        # rows A and B share lam = 1; B leaves the simplex about 4 steps in,
        # A about 36 steps in, and A's error is the one reported, as with
        # the rows checked one after the other
        _, slow = _escaping_maps()
        A, B = [0.9, 0.0], [0.99, 0.0]
        with pytest.raises(MapImageError) as ref:
            minimal_period(slow, A, 1, self.TOL)
        with pytest.raises(MapImageError) as batch:
            dynamics._minimal_periods(slow, np.array([A, B]), 1, self.TOL)
        assert str(batch.value) == str(ref.value)
        with pytest.raises(MapImageError) as first_bad_step:
            _burnt_in(slow, np.array([A, B]), 64)
        assert str(batch.value) != str(first_bad_step.value)


def fixation_time(f: SimplexMap, x0, absorb_tol: float = 1e-9,
                  max_iters: int = 100_000):
    """Absorption time of a single start, one step at a time; None if never
    absorbed."""
    V = simplex.vertices(f.n)
    x = np.asarray(x0, dtype=float)
    for t in range(max_iters + 1):
        d = np.sqrt(((V - x[None, :]) ** 2).sum(axis=1))
        j = int(d.argmin())
        if d[j] <= absorb_tol:
            return t, tuple(V[j])
        x = f.apply_many(x)
    return None, None


class TestFixation:
    def test_ninefold_statistics(self):
        f9 = folding.catalog("tri:f9").to_float()
        res = fixation_experiment(f9, count=2000, master_seed=5)
        assert res.unabsorbed == 0
        verts = {r.vertex for r in res.records}
        assert verts == {(1.0, 0.0), (0.0, 1.0)}
        assert 2.3 < res.mu < 2.8
        assert 0.35 < res.sigma < 0.6

    def test_twofold_never_absorbs(self):
        f2 = folding.catalog("tri:f2").to_float()
        res = fixation_experiment(f2, count=50, max_iters=2000, master_seed=6)
        assert res.absorbed == 0
        assert res.unabsorbed == 50
        assert res.mu is None

    def test_empty_run(self):
        f9 = folding.catalog("tri:f9").to_float()
        res = fixation_experiment(f9, count=0)
        assert res.records == [] and res.mu is None

    def test_deterministic_times(self):
        f9 = folding.catalog("tri:f9").to_float()
        res = fixation_experiment(f9, count=100, master_seed=7)
        for r in res.records[:10]:
            t, v = fixation_time(f9, r.x0)
            assert t == r.time and v == r.vertex

    def test_shape_stable_for_smaller_region(self):
        # the distribution's shape barely moves when the start square shrinks
        f9 = folding.catalog("tri:f9").to_float()
        base = fixation_experiment(f9, region=0.01, count=5000, master_seed=0)
        small = fixation_experiment(f9, region=0.001, count=5000, master_seed=0)
        assert small.unabsorbed == 0
        assert abs(small.mu - base.mu) < 0.2
        assert abs(small.sigma - base.sigma) < 0.1


class TestInvariantMeasure:
    def test_identity_fold(self):
        ks = invariant_measure_test(1, 100_000, master_seed=8)
        assert ks < 1.36 / np.sqrt(100_000) * 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_chebyshev_preserves_arcsine(self, d):
        assert invariant_measure_test(d, 100_000, master_seed=9) < 0.02

    def test_bad_order(self):
        with pytest.raises(ValueError):
            invariant_measure_test(0)

    # scipy 1.17.1's KS statistic of the same pushforward, from
    #   rng = np.random.Generator(np.random.Philox(key=4))
    #   x = (1.0 - np.cos(np.pi * rng.random(5000))) / 2.0
    #   pushed = folding.catalog(f"cheb:{d}").to_float().P[0].eval_many(x[:, None])
    #   scipy.stats.kstest(pushed, dynamics.arcsine_cdf).statistic
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_statistic_matches_scipy(self, d):
        ref = {1: 0.013093404945409337, 2: 0.012528706036375015,
               3: 0.009694920134339258}[d]
        assert abs(invariant_measure_test(d, 5000, master_seed=4) - ref) <= 1e-15
