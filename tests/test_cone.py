import hashlib
import itertools
import json
import logging
import math

import numpy as np
import pytest

from simplexfold import cone, simplex
from simplexfold.cone import (ConeNotPointedError, ConeRep, build_inequalities,
                              enumerate_rays, primitive, ray_is_extreme,
                              scale_generators)


def _null_vector(rows, dim):
    """Integer null vector of `rows` when their rank is dim-1, else None.

    Fraction-free Gauss-Jordan elimination, each row kept gcd-reduced.
    """
    M = [list(r) for r in rows]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(len(M)):
            if i != r and M[i][c]:
                a, b = M[r][c], M[i][c]
                row = [a * x - b * y for x, y in zip(M[i], M[r])]
                g = math.gcd(*row) or 1
                M[i] = [x // g for x in row]
        pivots.append(c)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    scale = math.lcm(*(M[i][c] for i, c in enumerate(pivots)))
    v = [0] * dim
    v[free] = scale
    for i, c in enumerate(pivots):
        v[c] = -M[i][free] * scale // M[i][c]
    return v


def brute_force_rays(A, dim):
    """Oracle: extreme rays from every (dim-1)-subset of rows of rank dim-1."""
    rays = set()
    for rows in itertools.combinations(A, dim - 1):
        vec = _null_vector(rows, dim)
        if vec is None:
            continue
        for sign in (1, -1):
            cand = tuple(sign * x for x in vec)
            if all(sum(a * b for a, b in zip(row, cand)) >= 0 for row in A):
                rays.add(primitive(cand))
    return {r for r in rays if any(r)}


def assert_rays_in_cone(rep):
    slacks = np.array(rep.ineq, dtype=object) @ np.array(rep.rays, dtype=object).T
    assert (slacks >= 0).all()


class TestBuildInequalities:
    def test_line_cone(self):
        rep = build_inequalities(1, 1, 0)
        # P = a + bx homogenizes to (a+b)x + ay: rows are the two functionals
        assert sorted(rep.ineq) == [(1, 0), (1, 1)]

    def test_row_count_66(self):
        rep = build_inequalities(2, 2, 8)
        assert len(rep.ineq) == 66
        assert rep.dim == 6

    def test_constants_single_functional(self):
        # every row is a positive multiple of the functional c0 >= 0
        rep = build_inequalities(1, 0, 3)
        assert {primitive(row) for row in rep.ineq} == {(1,)}

    @pytest.mark.parametrize("n,k,N", [(1, 3, 4), (2, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_rows_match_polya_expansion(self, n, k, N):
        # A c >= 0 rows must be the coefficients of L^N * P_H
        from simplexfold.polynomial import MultiPoly, homogenize, linear_form
        rep = build_inequalities(n, k, N)
        rng = np.random.default_rng(17)
        c = [int(v) for v in rng.integers(-4, 5, size=rep.dim)]
        p = MultiPoly(n, dict(zip(rep.basis, c)))
        expansion = homogenize(p, k) * linear_form(n + 1) ** N
        assert len(rep.ineq) == len(rep.row_monomials) == math.comb(N + k + n, n)
        for row, beta in zip(rep.ineq, rep.row_monomials):
            assert sum(a * b for a, b in zip(row, c)) == expansion.coefficient(beta)

    @pytest.mark.parametrize("n, k, N, message", [
        (0, 2, 1, "n must be at least 1"),
        (2, -1, 1, "k must be non-negative"),
        (2, 2, -1, "N must be non-negative"),
    ])
    def test_out_of_range_rejected(self, n, k, N, message):
        with pytest.raises(ValueError, match=message):
            build_inequalities(n, k, N)


class TestInitialSimplicial:
    @staticmethod
    def assert_tight_except_own_row(A, idx, rays):
        for j, ray in enumerate(rays):
            for i, row in enumerate(idx):
                slack = sum(a * b for a, b in zip(A[row], ray))
                assert slack > 0 if i == j else slack == 0

    @pytest.mark.parametrize("nkN", [(1, 3, 2), (2, 2, 3), (2, 3, 1)])
    def test_rays_tight_except_own_row(self, nkN):
        rep = build_inequalities(*nkN)
        idx, rays = cone._initial_simplicial(rep.ineq, rep.dim)
        assert len(idx) == len(rays) == rep.dim
        self.assert_tight_except_own_row(rep.ineq, idx, rays)

    def test_negative_determinant(self):
        # the chosen rows have determinant -3; without the sign of the
        # determinant each ray would have negative slack on its own row
        A = [(0, 0), (2, 1), (4, 2), (1, -1)]
        idx, rays = cone._initial_simplicial(A, 2)
        assert idx == [1, 3]
        assert rays == [(1, 1), (1, -2)]
        self.assert_tight_except_own_row(A, idx, rays)


class TestEnumerateRays:
    def test_interval_linear(self):
        rep = enumerate_rays(build_inequalities(1, 1, 0))
        # rays are the polynomials x and 1 - x
        assert set(rep.rays) == {(0, 1), (1, -1)}
        from simplexfold.polynomial import MultiPoly
        x = MultiPoly.variable(1, 0)
        assert {rep.ray_poly(i) for i in range(2)} == {x, 1 - x}

    def test_negative_leading_row_keeps_ray_sign(self):
        # the ray of -a >= 0, b >= 0 along a is (-1, 0); normalising its
        # first nonzero entry to be positive flipped it out of the cone
        rep = ConeRep(1, 1, 0, [(0,), (1,)], [(0, 1), (1, 0)], [(-1, 0), (0, 1)])
        enumerate_rays(rep)
        assert rep.rays == [(-1, 0), (0, 1)]
        assert_rays_in_cone(rep)
        assert set(rep.rays) == brute_force_rays(rep.ineq, rep.dim)

    def test_single_inequality_1d(self):
        rep = ConeRep(1, 0, 0, [(0,)], [(0,)], [(1,)])
        enumerate_rays(rep)
        assert rep.rays == [(1,)]

    def test_not_pointed_reported(self):
        rep = ConeRep(1, 1, 0, [(0,), (1,)], [(0, 1), (1, 0)], [(1, 0)])
        with pytest.raises(ConeNotPointedError):
            enumerate_rays(rep)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    def test_matches_brute_force_interval(self, k, N):
        rep = enumerate_rays(build_inequalities(1, k, N))
        assert_rays_in_cone(rep)
        assert set(rep.rays) == brute_force_rays(rep.ineq, rep.dim)

    @pytest.mark.parametrize("k,N", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_matches_brute_force_triangle(self, k, N):
        rep = enumerate_rays(build_inequalities(2, k, N))
        assert_rays_in_cone(rep)
        assert set(rep.rays) == brute_force_rays(rep.ineq, rep.dim)

    def test_66_rows_pinned_hash(self):
        # 66 processed rows do not fit one 64-bit zero-set word; the digest
        # is the sha256 of the sorted ray list pinned in perfbench
        rep = enumerate_rays(build_inequalities(2, 2, 8))
        rows = json.dumps([list(r) for r in rep.rays], separators=(",", ":"))
        assert len(rep.ineq) == 66 and len(rep.rays) == 900
        assert_rays_in_cone(rep)
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "57fdfae1eb1c3ed58ead58f704d485bd0e31c87023108f61cbf5bb9300ef6054")

    def test_5987_rays_pinned_hash(self):
        # the cone workload's unscaled build; digest as pinned in perfbench
        rep = enumerate_rays(build_inequalities(2, 3, 4))
        rows = json.dumps([list(r) for r in rep.rays], separators=(",", ":"))
        assert len(rep.ineq) == 36 and len(rep.rays) == 5987
        assert_rays_in_cone(rep)
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "78445d7de4db8ab1e8ef4d0088cc320b8fafa6fea6d6b289df9a32b4ff69ee1d")

    @pytest.mark.parametrize("shift,widened_at", [(60, 0), (55, 8)])
    def test_overflow_guard_python_ints(self, shift, widened_at, caplog):
        # A redundant row (r0 << shift) + r1 leaves the cone unchanged, and
        # no gcd reduction shrinks it, but it pushes the int64 bound past
        # 2**63: at the start for 2**60, mid-run for 2**55.
        plain = enumerate_rays(build_inequalities(2, 2, 3)).rays
        rep = build_inequalities(2, 2, 3)
        r0, r1 = rep.ineq[:2]
        rep.ineq.append(tuple((a << shift) + b for a, b in zip(r0, r1)))
        with caplog.at_level(logging.DEBUG, logger="simplexfold.cone"):
            enumerate_rays(rep)
        assert rep.rays == plain
        assert_rays_in_cone(rep)
        record, = caplog.records
        assert record.dtype == "object"
        assert record.widened_at == widened_at

    def test_row_gcd_keeps_int64(self, caplog):
        # the (1,2,100) rows share factors of about 100 bits; divided by
        # their gcd they fit int64, while the saved rows stay as built
        rep = build_inequalities(1, 2, 100)
        with caplog.at_level(logging.DEBUG, logger="simplexfold.cone"):
            enumerate_rays(rep)
        record, = caplog.records
        assert record.dtype == "int64" and record.widened_at is None
        assert rep.ineq == build_inequalities(1, 2, 100).ineq
        assert len(rep.rays) == 103
        assert_rays_in_cone(rep)
        assert all(ray_is_extreme(rep, r) for r in rep.rays)

    def test_debug_record(self, caplog, capsys):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.cone"):
            enumerate_rays(build_inequalities(2, 2, 3))
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert (record.rows, record.peak_rays, record.dtype) == (21, 75, "int64")
        assert record.widened_at is None
        assert (record.pairs, record.candidates, record.adjacent) == (3090, 181, 169)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("nkN, counts", [
        # plus x minus pairs examined, pairs with |t| >= dim-2, pairs kept
        ((2, 2, 5), (40_204, 696, 621)),
        ((2, 3, 4), (10_829_012, 53_444, 11_777)),
        ((2, 2, 8), (611_081, 2_722, 2_436)),
    ])
    def test_debug_record_pair_counters(self, nkN, counts, caplog):
        with caplog.at_level(logging.DEBUG, logger="simplexfold.cone"):
            enumerate_rays(build_inequalities(*nkN))
        record, = caplog.records
        assert (record.pairs, record.candidates, record.adjacent) == counts

    def test_all_rays_extreme(self):
        rep = enumerate_rays(build_inequalities(2, 2, 2))
        for ray in rep.rays:
            assert ray_is_extreme(rep, ray)

    def test_nesting_flag(self):
        # every ray of K_N satisfies the K_{N+1} inequality system
        for n, k, Ns in [(1, 2, range(4)), (2, 2, range(3))]:
            for N in Ns:
                inner = enumerate_rays(build_inequalities(n, k, N))
                outer = build_inequalities(n, k, N + 1)
                for ray in inner.rays:
                    assert all(sum(a * b for a, b in zip(row, ray)) >= 0
                               for row in outer.ineq)

    def test_membership_soundness_full_cone(self):
        # 100 random positive combinations of the (2,2,8) rays stay
        # non-negative on 10^5 simplex samples
        rng = np.random.default_rng(18)
        rep = enumerate_rays(build_inequalities(2, 2, 8))
        pts = simplex.sample_uniform(2, 100_000, rng)
        rays = np.array(rep.rays, dtype=float)
        for _ in range(100):
            w = rng.random(len(rep.rays))
            p = rep.poly_from_vector(w @ rays)
            assert p.eval_many(pts).min() >= -1e-9


def brute_force_adjacent(Z, plus, minus, D):
    """Oracle for `cone._adjacent_pairs`: the adjacency rule pair by pair."""
    zeros = [{j for j, z in enumerate(row) if z} for row in Z.tolist()]
    ps, ms, candidates = [], [], 0
    for p in plus.tolist():
        for m in minus.tolist():
            t = zeros[p] & zeros[m]
            if len(t) < D - 2:
                continue
            candidates += 1
            if sum(t <= z for z in zeros) == 2:
                ps.append(p)
                ms.append(m)
    return ps, ms, candidates


class TestAdjacentPairs:
    @staticmethod
    def random_case(rng, rays, rows, density):
        Z = rng.random((rays, rows)) < density
        # a quarter of the rays also vanish wherever another ray does, so
        # that a third ray can contain a pair's common zero set
        sup = rng.permutation(rays)[:rays // 4]
        Z[sup] |= Z[rng.integers(0, rays, size=len(sup))]
        perm = rng.permutation(rays)
        n_plus = rng.integers(0, rays - 1)
        n_minus = rng.integers(1, rays - n_plus + 1)
        plus = np.sort(perm[:n_plus])
        minus = np.sort(perm[n_plus:n_plus + n_minus])
        return Z, plus, minus

    @staticmethod
    def assert_matches_oracle(Z, plus, minus, D):
        p, m, candidates = cone._adjacent_pairs(Z, plus, minus, D)
        ps, ms, want = brute_force_adjacent(Z, plus, minus, D)
        assert (p.tolist(), m.tolist(), candidates) == (ps, ms, want)
        return len(ps), want

    @pytest.mark.parametrize("rays, rows, density, D", [
        (40, 20, 0.5, 8),
        (40, 64, 0.6, 26),       # exactly one 64-bit word
        (30, 65, 0.6, 26),       # one bit into a second word
        (30, 130, 0.7, 66),
        (20, 12, 0.15, 2),       # most common zero sets empty
        (25, 6, 0.3, 1),
    ])
    def test_matches_brute_force(self, rays, rows, density, D):
        rng = np.random.default_rng(rays * 1000 + rows)
        kept = candidates = 0
        for _ in range(20):
            a, b = self.assert_matches_oracle(
                *self.random_case(rng, rays, rows, density), D)
            kept += a
            candidates += b
        # the cases exercise both outcomes of the cover test
        assert 0 < kept < candidates

    def test_more_than_255_common_zeros(self):
        # |t| > 255 wraps a uint8 popcount sum: with 300 rows at density
        # 0.95, pairs share 265 to 279 zeros, on both sides of the
        # threshold 272; ray 12 holds every zero set of ray 0
        rng = np.random.default_rng(300)
        Z = rng.random((13, 300)) < 0.95
        Z[12] |= Z[0]
        plus, minus = np.arange(0, 6), np.arange(6, 12)
        common = (Z[plus, None] & Z[None, minus]).sum(axis=2)
        assert common.min() < 272 < common.max()
        kept, candidates = self.assert_matches_oracle(Z, plus, minus, 274)
        assert 0 < kept < candidates

    def test_more_than_255_rays_hold_t(self):
        # rays 0 and 1 share the zero set {0} and 256 more rays vanish on
        # row 0, so 258 rays contain t: a uint8 count would wrap to 2
        Z = np.zeros((258, 3), dtype=bool)
        Z[:, 0] = True
        Z[0, 1] = Z[1, 2] = True
        p, m, candidates = cone._adjacent_pairs(Z, np.array([0]), np.array([1]), 3)
        assert (p.tolist(), m.tolist(), candidates) == ([], [], 1)

    @pytest.mark.parametrize("rays, adjacent", [(2, [0]), (3, [])])
    def test_empty_common_zero_set(self, rays, adjacent):
        # an empty t lies in every ray, so it is adjacent only when the
        # pair itself is all there is
        Z = np.zeros((rays, 3), dtype=bool)
        Z[0, 0] = Z[1, 1] = True
        p, m, candidates = cone._adjacent_pairs(Z, np.array([0]), np.array([1]), 2)
        assert (p.tolist(), m.tolist(), candidates) == (adjacent, [1] * len(adjacent), 1)

    def test_no_plus_rays(self):
        Z = np.ones((3, 4), dtype=bool)
        p, m, candidates = cone._adjacent_pairs(Z, np.array([], dtype=np.intp),
                                                np.array([0, 1]), 3)
        assert (p.tolist(), m.tolist(), candidates) == ([], [], 0)

    @pytest.mark.parametrize("nkN, digest", [
        ((1, 3, 4), "c87d10018b76961c53e0f3607335c7eaad6770ad55c9f399ca26485aafdf4058"),
        ((2, 2, 2), "b1c4f96c1406da35195b412429261739003d401de60a242ab4a9d2b38601c1c1"),
        ((2, 2, 5), "3128ea3386bc72aa56635a9d8578b8fa04fe6a02433feb3285afc03026920d0c"),
        ((2, 3, 4), "7396d0f22a18b1244d6e8a1bc29c744662ad9efa89f8f15a7200b82d2ecd05ac"),
        ((2, 2, 8), "0f82ea762731daf86aaa3690aa9df84d0a7081f0959964ee27e9a27d35772a4a"),
        ((3, 2, 2), "ae7e4fc78fcab4a69a0b624d46a696ca13457c5bd711899926e665802d7de636"),
        ((1, 2, 300), "d983c58810dd92497d68a0775bf45e9cddf56f1adb3bd4a3e7cc0ed6b8369004"),
    ])
    def test_pair_sequence_pinned(self, nkN, digest, monkeypatch):
        # sha256 over every call's concatenated p and m (little-endian
        # int64), as the float32 matrix-product version produced them
        h = hashlib.sha256()
        kernel = cone._adjacent_pairs

        def recorded(*args):
            p, m, candidates = kernel(*args)
            h.update(np.concatenate([p, m]).astype("<i8").tobytes())
            return p, m, candidates

        monkeypatch.setattr(cone, "_adjacent_pairs", recorded)
        enumerate_rays(build_inequalities(*nkN))
        assert h.hexdigest() == digest


class TestScaleGenerators:
    def test_monomial_ray(self):
        rep = enumerate_rays(build_inequalities(1, 1, 0))
        scale_generators(rep)
        # the ray proportional to x scales to exactly x (max 1 at x=1)
        i = rep.rays.index((0, 1))
        assert rep.scaled_rays[i].terms == {(1,): pytest.approx(1.0, abs=1e-9)}

    def test_constant_ray(self):
        rep = enumerate_rays(build_inequalities(1, 0, 0))
        scale_generators(rep)
        assert rep.scaled_rays[0].terms == {(0,): pytest.approx(1.0, abs=1e-9)}

    def test_quadratic_ray_scaling(self):
        rep = enumerate_rays(build_inequalities(1, 2, 0))
        scale_generators(rep)
        for p in rep.scaled_rays:
            val, _ = simplex.max_on_simplex(p)
            assert 1 - 1e-6 <= val <= 1 + 1e-6

    def test_cubic_rays_peak_at_one(self):
        # the divisor is an upper bound on each ray's maximum, so no scaled
        # ray exceeds 1 beyond rounding, and it is tight to 1e-9
        rep = enumerate_rays(build_inequalities(2, 3, 1))
        scale_generators(rep)
        grid = simplex.barycentric_lattice(2, 300)
        for p in rep.scaled_rays:
            assert 1 - 1e-9 <= p.eval_many(grid).max() <= 1 + 1e-15

    def test_requires_rays(self):
        rep = build_inequalities(1, 1, 0)
        with pytest.raises(ValueError):
            scale_generators(rep)

    @pytest.mark.parametrize("nkN, face_dims", [
        # x^2, x(1 - x), (1 - x)^2 peak at x = 1, 1/2 and 0
        ((1, 2, 0), {0: 2, 1: 1}),
        ((2, 2, 2), {0: 33, 1: 3}),
    ])
    def test_debug_record(self, nkN, face_dims, caplog, capsys):
        rep = enumerate_rays(build_inequalities(*nkN))
        with caplog.at_level(logging.DEBUG, logger="simplexfold.cone"):
            scale_generators(rep)
        record, = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.generators == len(rep.rays)
        assert record.max_face_dims == face_dims
        assert capsys.readouterr() == ("", "")


def test_json_round_trip(tmp_path):
    # (2,2,4) has generators whose c * (1/val) and c / val differ
    rep = enumerate_rays(build_inequalities(2, 2, 4))
    scale_generators(rep)
    path = tmp_path / "cone.json"
    cone.save_json(rep, path)
    back = cone.load_json(path)
    assert back.ineq == rep.ineq
    assert back.rays == rep.rays
    assert np.array_equal(back.scaled_vectors, rep.scaled_vectors)


def test_json_missing_field_named():
    data = build_inequalities(1, 2, 1).to_json()
    del data["ineq"], data["N"]
    with pytest.raises(ValueError, match="cone JSON lacks required field.*'N', 'ineq'"):
        ConeRep.from_json(data)
