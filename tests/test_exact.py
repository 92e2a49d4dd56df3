import itertools
import math

import numpy as np
import pytest

from simplexfold.exact import bareiss, times_L


def _det(A):
    """Leibniz determinant in Python ints."""
    total = 0
    for perm in itertools.permutations(range(len(A))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(A[i][perm[i]] for i in range(len(A)))
    return total


def _random_rows(rng, m, n):
    rows = rng.integers(-3, 4, size=(m, n)).tolist()
    if m > 1 and rng.random() < 0.5:
        rows[rng.integers(m)] = list(rows[rng.integers(m)])
    if rng.random() < 0.3:
        rows[rng.integers(m)] = [0] * n
    return rows


class TestBareiss:
    def test_rank_matches_numpy(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            m, n = rng.integers(1, 7, size=2)
            rows = _random_rows(rng, m, n)
            pivots, red = bareiss(rows)
            assert len(pivots) == np.linalg.matrix_rank(np.array(rows, dtype=float))
            # every pivot column is d times a unit column, one d for all
            if pivots:
                d = red[0][pivots[0]]
                for r, c in enumerate(pivots):
                    assert [row[c] for row in red] == [d * (i == r) for i in range(m)]

    def test_solve_or_singular(self):
        rng = np.random.default_rng(32)
        solved = singular = 0
        for _ in range(500):
            k, m = rng.integers(1, 5), rng.integers(1, 4)
            A = _random_rows(rng, k, k)
            B = rng.integers(-3, 4, size=(k, m)).tolist()
            pivots, red = bareiss([a + b for a, b in zip(A, B)])
            if pivots[:k] != list(range(k)):
                assert _det(A) == 0
                singular += 1
                continue
            d = red[0][0]
            assert abs(d) == abs(_det(A)) != 0
            assert all(red[i][i] == d for i in range(k))
            X = [row[k:] for row in red]
            for i in range(k):
                for j in range(m):
                    assert sum(A[i][t] * X[t][j] for t in range(k)) == d * B[i][j]
            solved += 1
        assert solved > 100 and singular > 100

    def test_empty_and_zero_rows(self):
        assert bareiss([]) == ([], [])
        assert bareiss([[0, 0], [0, 0]])[0] == []


class TestTimesL:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sum_grows_by_n_plus_1(self, n):
        rng = np.random.default_rng(33 + n)
        side = 3
        support = np.indices((side,) * n).sum(axis=0) < side
        values = rng.integers(-5, 6, size=(side,) * n)
        grid = np.where(support, values, 0).astype(object)
        total = grid.sum()
        for step in range(1, 5):
            grid = times_L(grid)
            assert grid.shape == (side + step,) * n
            assert grid.sum() == total * (n + 1) ** step
            # a degree-d form keeps its support on |b| <= d
            outside = np.indices(grid.shape).sum(axis=0) >= grid.shape[0]
            assert not grid[outside].any()
