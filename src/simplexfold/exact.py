"""Exact integer cores: fraction-free elimination and the Polya expansion step.

`bareiss` is the package's one linear solver over the rationals.  It
reduces integer rows by Gauss-Jordan elimination without fractions
(Bareiss 1968): each update (p*a - f*b) // prev divides exactly, every
entry stays a minor of the input up to sign, and a nonsingular square block
ends as d times the identity with d = +-det.  Ranks, bases and solutions of
A X = B all come from it.

`times_L` is the one Polya expansion step.  A degree-d form H in n+1
variables is stored as a dense grid of coefficients indexed by its first n
exponents, the last being d minus their sum, so the grid has side d + 1.
Multiplying by L = x_1 + ... + x_{n+1} adds the grid (times x_{n+1}) to
its n unit shifts (times x_i).
"""

from __future__ import annotations

import numpy as np


def bareiss(rows) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan reduction of integer rows.

    Returns the pivot columns, chosen greedily from the left, and the
    reduced rows, the r-th holding the r-th pivot.  The number of pivots is
    the rank.  Every pivot entry ends equal to the same value d,
    the determinant of the (row-permuted) pivot block; each pivot column is
    zero off its pivot row.  For augmented rows [A | B] of a nonsingular
    square A the pivots are 0..len(A)-1 and the right block is d * A^-1 B.
    """
    M = [[int(c) for c in row] for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        if r == len(M):
            break
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        p, top = M[r][c], M[r]
        for i in range(len(M)):
            if i != r:
                f = M[i][c]
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], top)]
        prev = p
        pivots.append(c)
    return pivots, M


def times_L(grid: np.ndarray) -> np.ndarray:
    """Coefficient grid of L * H from that of a form H (side grows by one)."""
    side = grid.shape[0]
    out = np.zeros((side + 1,) * grid.ndim, dtype=grid.dtype)
    body = (slice(0, side),) * grid.ndim
    out[body] = grid
    for i in range(grid.ndim):
        out[body[:i] + (slice(1, side + 1),) + body[i + 1:]] += grid
    return out
