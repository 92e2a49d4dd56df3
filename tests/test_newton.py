"""Batched Newton and dedup against the one-halving-at-a-time originals."""

import logging

import numpy as np
import pytest

from simplexfold import _newton, folding
from simplexfold._newton import dedup_points, newton_batch


def sequential_newton_batch(F, J, seeds: np.ndarray, residual_tol: float = 1e-12,
                            max_iter: int = 80, max_halvings: int = 30):
    """Damped Newton from every seed at once, halving one step at a time.

    F maps (m, n) -> (m, n) residuals, J maps (m, n) -> (m, n, n).
    Returns (points, residual_norms) for the seeds that converged.
    """
    X = np.array(seeds, dtype=float)
    m = X.shape[0]
    alive = np.ones(m, dtype=bool)
    rn = np.abs(F(X)).max(axis=1)
    for _ in range(max_iter):
        work = np.flatnonzero(alive & (rn > residual_tol))
        if work.size == 0:
            break
        Jw = J(X[work])
        Gw = F(X[work])
        dets = np.abs(np.linalg.det(Jw))
        ok = dets > 1e-300
        alive[work[~ok]] = False
        work = work[ok]
        if work.size == 0:
            continue
        delta = np.linalg.solve(Jw[ok], Gw[ok][..., None])[..., 0]
        lam = np.ones(work.size)
        pending = np.ones(work.size, dtype=bool)
        for _h in range(max_halvings + 1):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            cand = X[work[p]] - lam[p, None] * delta[p]
            rn2 = np.abs(F(cand)).max(axis=1)
            good = (rn2 < rn[work[p]]) | (rn2 <= residual_tol)
            X[work[p[good]]] = cand[good]
            rn[work[p[good]]] = rn2[good]
            pending[p[good]] = False
            lam[p[~good]] /= 2
        alive[work[pending]] = False
    rn = np.abs(F(X)).max(axis=1)
    conv = alive & (rn <= residual_tol)
    return X[conv], rn[conv]


def greedy_dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Keep each point, in lexicographic order, unless one already kept is
    within tol."""
    if len(points) == 0:
        return points
    order = np.lexsort(points.T[::-1])
    kept = []
    for i in order:
        p = points[i]
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def system(f, target=None):
    """(F, J) of f(x) = target, or of f(x) = x when target is None."""
    coeffs = f.coefficients()
    eye = np.eye(f.n)
    if target is None:
        return (lambda X: coeffs.values(X) - X,
                lambda X: coeffs.jacobians(X) - eye[None, :, :])
    y = np.asarray(target, dtype=float)
    return (lambda X: coeffs.values(X) - y[None, :]), coeffs.jacobians


def preimage_seeds(n, seed=0, n_seeds=500):
    """preimage_count's default seeds."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    half = n_seeds // 2
    return _newton.default_seeds(n, half, n_seeds - half, rng)


def fixed_point_seeds(n, seed=0):
    """find_fixed_points' default seeds."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _newton.default_seeds(n, 2000, 1000, rng)


def assert_same_run(F, J, seeds, **kw):
    pts, res, dropped = newton_batch(F, J, seeds, **kw)
    ref_pts, ref_res = sequential_newton_batch(F, J, seeds, **kw)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(res, ref_res)
    assert len(seeds) == len(pts) + sum(dropped.values())
    return dropped


class TestNewtonBatch:
    @pytest.mark.parametrize("name", ["tri:f4", "tri:f8", "tri:f9"])
    @pytest.mark.parametrize("target", [(0.3, 0.3), (0.05, 0.9), (0.62, 0.21)])
    def test_preimages_match_sequential_halving(self, name, target):
        F, J = system(folding.catalog(name), target)
        assert_same_run(F, J, preimage_seeds(2))

    def test_ninefold_fixed_points_match_sequential_halving(self):
        F, J = system(folding.catalog("tri:f9"))
        dropped = assert_same_run(F, J, fixed_point_seeds(2))
        assert dropped["halvings_exhausted"] > 0

    def test_no_halvings(self):
        F, J = system(folding.catalog("tri:f8"), (0.3, 0.3))
        dropped = assert_same_run(F, J, preimage_seeds(2), max_halvings=0)
        assert dropped["halvings_exhausted"] > 0

    def test_iteration_cap(self):
        F, J = system(folding.catalog("tri:f9"), (0.3, 0.3))
        dropped = assert_same_run(F, J, preimage_seeds(2), max_iter=3)
        assert dropped["max_iter"] > 0

    def test_row_exhausting_every_halving_dies(self):
        # x^2 + 1 reads 1.0 in floats near x = 1e-8, and no step length
        # down to 2^-30 of the Newton step (about 5e7) gets below it
        F = lambda X: X ** 2 + 1
        J = lambda X: 2 * X[:, :, None]
        seeds = np.array([[1e-8], [3.0]])
        dropped = assert_same_run(F, J, seeds)
        assert dropped == {"singular": 0, "halvings_exhausted": 2, "max_iter": 0}

    def test_singular_jacobian_row_dies(self):
        F = lambda X: X ** 2 - 1
        J = lambda X: 2 * X[:, :, None]
        seeds = np.array([[0.0], [3.0], [-0.5]])
        pts, res, dropped = newton_batch(F, J, seeds)
        ref_pts, ref_res = sequential_newton_batch(F, J, seeds)
        assert np.array_equal(pts, ref_pts) and np.array_equal(res, ref_res)
        assert pts[:, 0] == pytest.approx([1.0, -1.0])
        assert dropped == {"singular": 1, "halvings_exhausted": 0, "max_iter": 0}

    def test_debug_record(self, caplog, capsys):
        f = folding.catalog("tri:f9")
        with caplog.at_level(logging.DEBUG, logger="simplexfold._newton"):
            count, _pts = folding.preimage_count(f, (0.3, 0.3))
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.seeds == len(preimage_seeds(2))
        assert record.seeds == (record.converged + record.singular
                                + record.halvings_exhausted + record.max_iter)
        assert record.outside_simplex <= record.converged
        assert record.kept == count == 9
        assert capsys.readouterr() == ("", "")


class TestPreimageSeeding:
    @pytest.mark.parametrize("name, y, seed", [("tri:f4", (0.3, 0.2), 0),
                                               ("tri:f9", (0.3, 0.3), 7),
                                               ("cheb:3", (0.37,), 2)])
    def test_count_is_newton_from_preimage_seeds(self, name, y, seed):
        f = folding.catalog(name)
        F, J = system(f, y)
        pts, _res, _dropped = newton_batch(F, J, preimage_seeds(f.n, seed))
        inside = (pts.min(axis=1) >= -1e-10) & (pts.sum(axis=1) <= 1 + 1e-10)
        want = dedup_points(pts[inside], 1e-8)
        count, got = folding.preimage_count(f, y, seed=seed)
        assert count == len(want) == folding.fold_order(name)
        assert np.array_equal(got, want)


class TestDedup:
    TOL = 1e-8

    def test_matches_greedy_on_clusters(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(20):
                centres = rng.random((int(rng.integers(1, 8)), n))
                pick = rng.integers(0, len(centres), size=int(rng.integers(1, 60)))
                noise = rng.standard_normal((len(pick), n)) * self.TOL * 0.7
                pts = centres[pick] + noise
                assert np.array_equal(dedup_points(pts, self.TOL),
                                      greedy_dedup(pts, self.TOL))

    def test_threshold_pairs(self):
        base = np.array([0.25, 0.5])
        unit = np.array([0.6, 0.8])
        near = base + 0.999 * self.TOL * unit
        far = base + 1.001 * self.TOL * unit
        for pts, kept in (([base, near], 1), ([base, far], 2),
                          ([far, base, near], 2), ([near, far, base], 2)):
            pts = np.array(pts)
            out = dedup_points(pts, self.TOL)
            assert len(out) == kept
            assert np.array_equal(out, greedy_dedup(pts, self.TOL))

    def test_chain_keeps_greedy_choice(self):
        # b is within tol of a and c, which are 1.8 tol apart: greedy keeps
        # a and c, not b alone
        pts = np.array([[0.0], [0.9e-8], [1.8e-8]])
        assert dedup_points(pts, self.TOL)[:, 0].tolist() == [0.0, 1.8e-8]

    def test_empty(self):
        pts = np.zeros((0, 2))
        out = dedup_points(pts, self.TOL)
        assert out.shape == (0, 2)
