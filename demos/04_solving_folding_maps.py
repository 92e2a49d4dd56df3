"""Re-deriving folding maps by coefficient matching.

A fold's components factor as l * q^2 * m with the facet factors l fixed by
the combinatorics; matching every coefficient of 1 - sum(l q^2 m) = 0 gives
a polynomial system in the unknown factor coefficients.  The solver follows
every path of a total-degree homotopy to its end, rounds the real
nonsingular endpoints to rationals, and re-verifies the identity exactly --
rediscovering the interval folds and showing the degree-2 two-fold of the
triangle unique among the system's isolated solutions.
"""

from simplexfold import solve_fold
from simplexfold.folding import interval_fold_template, two_simplex_twofold_template

print("-- interval folds from their templates -------------------------------")
for d in (2, 3, 4):
    sols = solve_fold(interval_fold_template(d))
    for s in sols:
        names = ", ".join(f"{k} = {v}" for k, v in s.named_params().items())
        print(f"  d={d}: exact={s.exact}  {names}")
        print(f"        P_1 = {s.map.P[0]!r}")

print("\n-- the unique degree-2 two-fold of the triangle -----------------------")
print("  template: P_1 = A(y - Bx)^2, P_2 = (1-x-y)(C + Dx + Ey), P_3 = Fxy")
sols = solve_fold(two_simplex_twofold_template())
for s in sols:
    print(f"  solution (exact={s.exact}): "
          + ", ".join(f"{k}={v}" for k, v in s.named_params().items()))
    print(f"  P_1 = {s.map.P[0]!r}")
    print(f"  P_2 = {s.map.P[1]!r}")
print(f"  {len(sols)} sign-feasible solution(s): the two-fold is unique.")
