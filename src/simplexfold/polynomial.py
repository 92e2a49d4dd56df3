"""Sparse multivariate polynomials over exact rationals or doubles.

A polynomial is a dictionary from exponent tuples to coefficients.  Two
scalar modes exist and never mix silently:

  * ``"exact"``  -- coefficients are :class:`fractions.Fraction`; all
    arithmetic, composition and division are exact.  This mode carries the
    cone construction, the positivity certificates and the fold solver's
    symbolic re-verification.
  * ``"float"``  -- coefficients are Python floats; used for orbits,
    root-finding and everything that only needs double precision.

Zero coefficients are never stored, so the empty dict is the zero
polynomial.  Terms serialize in graded-lex order, which makes JSON output
deterministic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import numpy as np

Exponent = tuple[int, ...]

EXACT = "exact"
FLOAT = "float"


def _coerce(c, mode: str):
    if mode == EXACT:
        if isinstance(c, float):
            raise TypeError("float coefficient in exact mode; convert explicitly")
        return Fraction(c)
    return float(c)


def gradedlex_key(exp: Exponent):
    return (sum(exp), exp)


def require_fields(data: dict, kind: str, *fields: str) -> None:
    """ValueError naming every one of `fields` that the JSON object lacks."""
    missing = [f for f in fields if f not in data]
    if missing:
        raise ValueError(f"{kind} JSON lacks required field(s) "
                         + ", ".join(map(repr, missing)))


class MultiPoly:
    """Immutable sparse polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "terms", "scalar_mode", "_eval_plan")

    def __init__(self, num_vars: int, terms=None, scalar_mode: str = EXACT):
        if scalar_mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {scalar_mode!r}")
        clean: dict[Exponent, object] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {num_vars} variables")
            c = _coerce(coef, scalar_mode)
            if c != 0:
                clean[exp] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "scalar_mode", scalar_mode)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, scalar_mode: str = EXACT) -> "MultiPoly":
        return cls(num_vars, {}, scalar_mode)

    @classmethod
    def constant(cls, num_vars: int, c, scalar_mode: str = EXACT) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: c}, scalar_mode)

    @classmethod
    def variable(cls, num_vars: int, i: int, scalar_mode: str = EXACT) -> "MultiPoly":
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, {exp: 1}, scalar_mode)

    @classmethod
    def variables(cls, num_vars: int, scalar_mode: str = EXACT) -> list["MultiPoly"]:
        return [cls.variable(num_vars, i, scalar_mode) for i in range(num_vars)]

    # -- basic queries -----------------------------------------------------

    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Exponent):
        zero = Fraction(0) if self.scalar_mode == EXACT else 0.0
        return self.terms.get(tuple(exp), zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: gradedlex_key(kv[0]))

    def max_abs_coeff(self) -> float:
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def _scalar(self, c):
        return _coerce(c, self.scalar_mode)

    def _check_compat(self, other: "MultiPoly"):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        if self.scalar_mode != other.scalar_mode:
            raise TypeError("mixed exact/float arithmetic; call to_float() first")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.num_vars, other, self.scalar_mode)
        self._check_compat(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return MultiPoly(self.num_vars, terms, self.scalar_mode)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()},
                         self.scalar_mode)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.num_vars, other, self.scalar_mode)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self._scalar(other)
            if c == 0:
                return MultiPoly.zero(self.num_vars, self.scalar_mode)
            return MultiPoly(self.num_vars,
                             {e: v * c for e, v in self.terms.items()},
                             self.scalar_mode)
        self._check_compat(other)
        terms: dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return MultiPoly(self.num_vars, terms, self.scalar_mode)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, MultiPoly):
            raise TypeError("use divide_by_linear for polynomial division")
        return self * (Fraction(1, 1) / Fraction(c) if self.scalar_mode == EXACT
                       else 1.0 / float(c))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.num_vars, 1, self.scalar_mode)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.num_vars == other.num_vars
                and self.scalar_mode == other.scalar_mode
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.scalar_mode,
                     tuple(self.sorted_terms())))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x):
        """Value at a point; exact when the poly and the point are rational."""
        if len(x) != self.num_vars:
            raise ValueError(f"point has {len(x)} coords, poly has {self.num_vars} vars")
        total = 0
        for exp, c in self.terms.items():
            total += c * prod(xi ** e for xi, e in zip(x, exp) if e)
        return total

    __call__ = evaluate

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at many points (rows of X); float output.

        Per-point results are independent of the batch size: each value is
        the same fixed sequence of elementwise operations, so batched and
        single-point evaluation agree bit for bit.
        """
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.num_vars:
            raise ValueError("point dimension mismatch")
        maxdeg, plan = self._plan()
        out = eval_terms(X, maxdeg, [plan])[0]
        return out[0] if single else out

    def _plan(self):
        """Per-variable max degree and the graded-lex (float coefficient,
        ((var, exponent), ...)) terms eval_many walks; built once, since the
        polynomial is immutable."""
        try:
            return self._eval_plan
        except AttributeError:
            pass
        maxdeg = [0] * self.num_vars
        for exp in self.terms:
            for i, e in enumerate(exp):
                maxdeg[i] = max(maxdeg[i], e)
        plan = tuple((float(c), tuple((i, e) for i, e in enumerate(exp) if e))
                     for exp, c in self.sorted_terms())
        object.__setattr__(self, "_eval_plan", (maxdeg, plan))
        return self._eval_plan

    # -- calculus / structure ---------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable i."""
        terms: dict[Exponent, object] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + c * exp[i]
        return MultiPoly(self.num_vars, terms, self.scalar_mode)

    def compose(self, inner: list["MultiPoly"]) -> "MultiPoly":
        """Substitute inner[i] for variable i; exact polynomial expansion."""
        if len(inner) != self.num_vars:
            raise ValueError("need one inner polynomial per variable")
        if not inner:
            raise ValueError("composition needs at least one variable")
        nv = inner[0].num_vars
        mode = inner[0].scalar_mode
        for g in inner:
            if g.num_vars != nv or g.scalar_mode != mode:
                raise ValueError("inner polynomials disagree on vars/mode")
        if self.scalar_mode != mode:
            raise TypeError("outer/inner scalar mode mismatch")
        # cache powers of each inner polynomial up to its needed exponent
        need = [0] * self.num_vars
        for exp in self.terms:
            for i, e in enumerate(exp):
                need[i] = max(need[i], e)
        pows: list[list[MultiPoly]] = []
        for i, g in enumerate(inner):
            col = [MultiPoly.constant(nv, 1, mode)]
            for _ in range(need[i]):
                col.append(col[-1] * g)
            pows.append(col)
        out = MultiPoly.zero(nv, mode)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(nv, c, mode)
            for i, e in enumerate(exp):
                if e:
                    term = term * pows[i][e]
            out = out + term
        return out

    def to_float(self) -> "MultiPoly":
        if self.scalar_mode == FLOAT:
            return self
        return MultiPoly(self.num_vars,
                         {e: float(c) for e, c in self.terms.items()}, FLOAT)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        ts = []
        for exp, c in self.sorted_terms():
            coef = f"{c.numerator}/{c.denominator}" if self.scalar_mode == EXACT else float(c)
            ts.append({"exp": list(exp), "coef": coef})
        return {"num_vars": self.num_vars, "terms": ts}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        require_fields(data, "polynomial", "num_vars")
        nv = int(data["num_vars"])
        raw = data.get("terms", [])
        modes = {isinstance(t["coef"], str) for t in raw}
        if len(modes) > 1:
            raise ValueError("mixed string/number coefficients in polynomial JSON")
        exact = modes == {True} or not raw
        terms = {}
        for t in raw:
            coef = Fraction(t["coef"]) if exact else float(t["coef"])
            terms[tuple(t["exp"])] = coef
        return cls(nv, terms, EXACT if exact else FLOAT)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [f"x{i}" for i in range(self.num_vars)]
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# -- module-level operations ------------------------------------------------


def eval_terms(X: np.ndarray, maxdeg, outputs) -> list[np.ndarray]:
    """Sums of terms c * prod(x_v**e) at the rows of X, one array per output:
    the package's one polynomial evaluator, for maps and fold equations.

    maxdeg[v] bounds the exponent of variable v; each output is a sequence
    of terms (c, ((v, e), ...)) listing nonzero exponents, with c a float or
    an array holding one coefficient per row.  Powers come from repeated
    multiplication, each term is c * x_v**e times its other factors in
    place, and terms add into zeros of X's dtype, float or complex, in the
    order given.  These are elementwise operations only, so a row's value
    never depends on the other rows.
    """
    powers = []
    for v, d in enumerate(maxdeg):
        # powers[v][e] is x_v**e; index 0 is never read, since terms list
        # only nonzero exponents
        col = [None, X[:, v]]
        for _ in range(1, d):
            col.append(col[-1] * X[:, v])
        powers.append(col)
    results = []
    for terms in outputs:
        out = np.zeros(X.shape[0], dtype=X.dtype)
        for c, factors in terms:
            if not factors:
                out += c
                continue
            (v, e), rest = factors[0], factors[1:]
            term = c * powers[v][e]
            for v, e in rest:
                term *= powers[v][e]
            out += term
        results.append(out)
    return results


def derivative_terms(terms, j: int):
    """eval_terms terms differentiated in variable j: a term c x^a with
    a_j > 0 becomes a_j c x^(a - e_j).  That map keeps graded-lex order."""
    out = []
    for c, factors in terms:
        e = dict(factors).get(j, 0)
        if e:
            out.append((c * e, tuple((v, a - 1 if v == j else a)
                                     for v, a in factors if (v, a) != (j, 1))))
    return tuple(out)


def monomials_upto(num_vars: int, k: int) -> list[Exponent]:
    """Exponent tuples of total degree <= k, in graded-lex order."""
    out = [a for a in itertools.product(range(k + 1), repeat=num_vars)
           if sum(a) <= k]
    out.sort(key=gradedlex_key)
    return out


def monomials_exact(num_vars: int, d: int) -> list[Exponent]:
    """Exponent tuples of total degree exactly d, lexicographic."""
    out = [a for a in itertools.product(range(d + 1), repeat=num_vars)
           if sum(a) == d]
    out.sort()
    return out


def homogenize(p: MultiPoly, k: int) -> MultiPoly:
    """Degree-k homogenization over n+1 variables.

    Each term c*x^a with |a| < k is multiplied by (x_1+...+x_{n+1})^(k-|a|),
    so the result is homogeneous of degree k and agrees with p on the patch
    x_{n+1} = 1 - sum(x_i).
    """
    if p.degree() > k:
        raise ValueError(f"degree {p.degree()} exceeds target {k}")
    nv = p.num_vars + 1
    L = linear_form(nv, p.scalar_mode)
    out = MultiPoly.zero(nv, p.scalar_mode)
    for exp, c in p.terms.items():
        mono = MultiPoly(nv, {exp + (0,): c}, p.scalar_mode)
        out = out + mono * (L ** (k - sum(exp)))
    return out


def linear_form(num_vars: int, scalar_mode: str = EXACT) -> MultiPoly:
    """x_1 + x_2 + ... + x_{num_vars}."""
    terms = {tuple(1 if j == i else 0 for j in range(num_vars)): 1
             for i in range(num_vars)}
    return MultiPoly(num_vars, terms, scalar_mode)


def divide_by_linear(p: MultiPoly, ell: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Exact division p = ell*q + r by a degree-1 polynomial ell.

    The remainder r does not involve the pivot variable (the variable of
    largest index with a nonzero coefficient in ell), so divisibility is
    exactly r == 0.  Exact mode only.
    """
    if p.scalar_mode != EXACT or ell.scalar_mode != EXACT:
        raise TypeError("exact-only operation; float mode refuses division")
    if ell.degree() != 1:
        raise ValueError("divisor must have degree exactly 1")
    if p.num_vars != ell.num_vars:
        raise ValueError("variable count mismatch")
    nv = p.num_vars
    pivot = max(i for exp in ell.terms for i, e in enumerate(exp) if e == 1)
    unit = tuple(1 if j == pivot else 0 for j in range(nv))
    c = ell.terms[unit]
    rest = ell - MultiPoly(nv, {unit: c})

    q = MultiPoly.zero(nv)
    r = p
    while True:
        top = max((exp[pivot] for exp in r.terms), default=0)
        if top == 0:
            break
        # peel the highest pivot power: r = a*x_pivot^top + lower
        a_terms = {}
        for exp, coef in r.terms.items():
            if exp[pivot] == top:
                low = list(exp)
                low[pivot] = top - 1
                a_terms[tuple(low)] = coef
        a = MultiPoly(nv, a_terms) / c
        q = q + a
        r = r - a * ell
    return q, r
