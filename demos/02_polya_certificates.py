"""Certifying positivity on the simplex with Polya expansions.

A polynomial strictly positive on the simplex admits an exponent N such
that every coefficient of (x_1+...+x_{n+1})^N * P_H is positive, where P_H
is the homogenization.  Scanning N gives a certificate with an explicit
witness; polynomials that touch zero on the simplex never certify.
"""

from fractions import Fraction

from simplexfold import MultiPoly, nonneg_on_simplex, polya_certify

x, y = MultiPoly.variables(2)
x1 = MultiPoly.variable(1, 0)

print("-- certificates -----------------------------------------------------")
for label, p, k in [
    ("1 + x + y           (positive linear form)", 1 + x + y, 1),
    ("1 - 3x + 3x^2       (positive, awkward)", 1 - 3 * x1 + 3 * x1 ** 2, 2),
    ("(1 - 2x)^2          (touches zero at 1/2)", (1 - 2 * x1) ** 2, 2),
    ("x - 1/2             (negative on [0,1/2))", x1 - Fraction(1, 2), 1),
]:
    cert = polya_certify(p, k=k, N_max=20)
    out = f"  {label}: {cert.verdict}"
    if cert.N is not None:
        out += f" at N = {cert.N}"
    if cert.witness_point is not None:
        out += f", witness x = {cert.witness_point} with value {cert.witness_value:.3f}"
    print(out)

print("\n-- one-sided non-negativity ------------------------------------------")
p = 4 * x1 * (1 - x1)
v = nonneg_on_simplex(p)
print(f"  4x(1-x) (quadric): ok={v.ok}, exact minimum = {v.min_value:.2e}")
v = nonneg_on_simplex(1 + x * y * (1 - x - y), mode="certified", tol=1e-3)
print(f"  1+xy(1-x-y) certified ladder: ok={v.ok} ({v.detail})")
