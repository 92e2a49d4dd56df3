"""Folding maps of the simplex: catalog, factorization templates and solver.

A degree-k polynomial d-fold factors component-wise as P_i = l_i * q_i^2 * m_i:
l_i carries the boundary facets mapped to facet i, the zero curve of q_i is
the interior crease, and m_i is a non-negative cofactor.  Fixing the facet
assignment and the degree partition {(deg q_i, deg m_i)} leaves finitely
many unknown coefficients, determined by matching every coefficient of

    1 - sum_i l_i * q_i^2 * m_i  =  0.

For a square system the solver follows every path of a total-degree
homotopy, rounds the real nonsingular endpoints to rationals and re-verifies
the identity exactly.

The catalog holds the interval folds (Chebyshev maps, any degree, generated
from the T_d recurrence) and the two-simplex folds f1, f2, f4 = f2 o f2,
f8 = f2 o f2 o f2 and the nine-fold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _newton, maps, positivity, sampler
from .polynomial import (EXACT, FLOAT, MultiPoly, derivative_terms,
                         divide_by_linear, eval_terms, gradedlex_key,
                         linear_form, monomials_upto, require_fields)

log = logging.getLogger(__name__)


# -- Chebyshev polynomials ----------------------------------------------------


def _chebyshev(d: int, first: MultiPoly) -> MultiPoly:
    """p_d of the recurrence p_{d+1} = 2 z p_d - p_{d-1}, p_0 = 1, p_1 = first."""
    z = MultiPoly.variable(1, 0)
    prev, cur = MultiPoly.constant(1, 1), first
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, z * cur * 2 - prev
    return cur


def chebyshev_T(d: int) -> MultiPoly:
    """T_d in one exact variable: p_1 = z."""
    return _chebyshev(d, MultiPoly.variable(1, 0))


def chebyshev_U(d: int) -> MultiPoly:
    """U_d in one exact variable: p_1 = 2 z."""
    return _chebyshev(d, MultiPoly.variable(1, 0) * 2)


def chebyshev_fold(d: int) -> MultiPoly:
    """The interval d-fold (1 - T_d(1 - 2x)) / 2 with exact coefficients."""
    x = MultiPoly.variable(1, 0)
    td = chebyshev_T(d).compose([1 - 2 * x])
    return (1 - td) / 2


def _even_part_in(p: MultiPoly, inner: MultiPoly) -> MultiPoly:
    """For p(w) with only even powers of w, substitute w^2 = inner."""
    out = MultiPoly.zero(inner.num_vars)
    for (e,), c in p.terms.items():
        if e % 2:
            raise ValueError("polynomial has odd powers")
        out = out + (inner ** (e // 2)) * c
    return out


# -- catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class FoldFactors:
    """Component factorizations l_i, q_i, m_i, one triple per i = 1..n+1."""
    l: tuple[MultiPoly, ...]
    q: tuple[MultiPoly, ...]
    m: tuple[MultiPoly, ...]


def _tri_f1():
    x, y = MultiPoly.variables(2)
    return maps.SimplexMap(2, 1, [x, y], label="table2:f1")


def _tri_f2():
    x, y = MultiPoly.variables(2)
    P1 = (x - y) ** 2
    P2 = (1 - x - y) * (1 + x + y)
    return maps.SimplexMap(2, 2, [P1, P2], label="table2:f2")


def _f9_cubic(u: MultiPoly, v: MultiPoly) -> MultiPoly:
    """The nine-fold's cubic cofactor; m_1 = (1 - y) c(x, y), m_2 = (1 - x) c(y, x)."""
    return 2 - 9 * u + 24 * u ** 2 - 16 * u ** 3 + 9 * v - 24 * v ** 2 + 16 * v ** 3


@lru_cache(maxsize=32)
def catalog(name: str) -> maps.SimplexMap:
    """Exact catalog map by name: 'cheb:d' (d >= 1) or 'tri:f{1,2,4,8,9}'.

    Maps are immutable, so each is built once per process and keeps its
    coefficient and Jacobian tables across queries.
    """
    if name.startswith("cheb:"):
        d = int(name.split(":", 1)[1])
        if d < 1:
            raise KeyError(f"unknown catalog entry {name!r}")
        src = "table1" if d <= 6 else "recurrence"
        return maps.SimplexMap(1, d, [chebyshev_fold(d)], label=f"{src}:cheb{d}")
    if name == "tri:f1":
        return _tri_f1()
    if name == "tri:f2":
        return _tri_f2()
    if name == "tri:f4":
        f2 = _tri_f2()
        f4 = maps.compose_maps(f2, f2)
        return maps.SimplexMap(2, 4, f4.P, label="table2:f4")
    if name == "tri:f8":
        f2 = _tri_f2()
        f8 = maps.compose_maps(f2, maps.compose_maps(f2, f2))
        return maps.SimplexMap(2, 8, f8.P, label="table2:f8")
    if name == "tri:f9":
        x, y = MultiPoly.variables(2)
        P1 = x * (1 - y) * _f9_cubic(x, y) * (3 - 4 * x) ** 2 * (1 - 4 * y) ** 2
        P2 = y * (1 - x) * _f9_cubic(y, x) * (3 - 4 * y) ** 2 * (1 - 4 * x) ** 2
        return maps.SimplexMap(2, 9, [P1, P2], label="table2:f9")
    raise KeyError(f"unknown catalog entry {name!r}")


def fold_order(name: str) -> int:
    """Number of interior preimages of the named catalog fold."""
    if name.startswith("cheb:"):
        return int(name.split(":", 1)[1])
    return {"tri:f1": 1, "tri:f2": 2, "tri:f4": 4, "tri:f8": 8, "tri:f9": 9}[name]


def catalog_factors(name: str) -> FoldFactors:
    """Theorem-style factor triples for a catalog entry."""
    one1 = MultiPoly.constant(1, 1)
    if name.startswith("cheb:"):
        d = int(name.split(":", 1)[1])
        x = MultiPoly.variable(1, 0)
        if d == 1:
            return FoldFactors((x, 1 - x), (one1, one1), (one1, one1))
        if d % 2 == 0:
            q1 = chebyshev_U(d // 2 - 1).compose([1 - 2 * x])
            q2 = chebyshev_T(d // 2).compose([1 - 2 * x])
            return FoldFactors((x * (1 - x), one1), (q1, q2),
                               (MultiPoly.constant(1, 4), one1))
        # odd d: q1 from U_{d-1}(w) with w^2 = 1-x; P2(x) = P1(1-x)
        q1 = _even_part_in(chebyshev_U(d - 1), 1 - x)
        q2 = q1.compose([1 - x])
        return FoldFactors((x, 1 - x), (q1, q2), (one1, one1))

    x, y = MultiPoly.variables(2)
    one = MultiPoly.constant(2, 1)
    edge = 1 - x - y
    if name == "tri:f1":
        return FoldFactors((x, y, edge), (one, one, one), (one, one, one))
    if name == "tri:f2":
        return FoldFactors((one, edge, x * y), (x - y, one, one),
                           (one, 1 + x + y, MultiPoly.constant(2, 4)))
    if name == "tri:f4":
        return FoldFactors(
            (one, x * y, edge),
            (1 - 2 * x ** 2 - 2 * y ** 2, one, x - y),
            (one, (1 - 2 * x * y) * 8, (1 + x + y) * 4))
    if name == "tri:f8":
        quart = (1 - 2 * x ** 2 + 2 * x ** 4 + 4 * x * y
                 - 2 * y ** 2 - 4 * x ** 2 * y ** 2 + 2 * y ** 4)
        q1 = (1 - 4 * x ** 2 + 4 * x ** 4 - 8 * x * y - 4 * y ** 2
              + 24 * x ** 2 * y ** 2 + 4 * y ** 4)
        return FoldFactors(
            (one, edge, x * y),
            (q1, x - y, 1 - 2 * x ** 2 - 2 * y ** 2),
            (one, (1 + x + y) * quart * 8, (1 - 2 * x * y) * 32))
    if name == "tri:f9":
        return FoldFactors(
            (x, y, edge),
            ((3 - 4 * x) * (1 - 4 * y), (3 - 4 * y) * (1 - 4 * x),
             1 - 8 * x + 16 * x ** 2 - 8 * y - 16 * x * y + 16 * y ** 2),
            ((1 - y) * _f9_cubic(x, y), (1 - x) * _f9_cubic(y, x), edge))
    raise KeyError(f"unknown catalog entry {name!r}")


CATALOG_NAMES = ("cheb:1", "cheb:2", "cheb:3", "cheb:4", "cheb:5", "cheb:6",
                 "tri:f1", "tri:f2", "tri:f4", "tri:f8", "tri:f9")


# -- parametrized factor templates --------------------------------------------


@dataclass(frozen=True)
class ParamPoly:
    """Polynomial affine in solver parameters: fixed + sum_j theta_j * basis_j."""
    fixed: MultiPoly
    terms: tuple[tuple[int, MultiPoly], ...] = ()

    def instantiate(self, params, mode: str) -> MultiPoly:
        out = self.fixed if mode == EXACT else self.fixed.to_float()
        for j, poly in self.terms:
            c = params[j]
            out = out + (poly if mode == EXACT else poly.to_float()) * (
                c if mode == EXACT else float(c))
        return out

    @classmethod
    def fixed_one(cls, num_vars: int) -> "ParamPoly":
        return cls(MultiPoly.constant(num_vars, 1))

    @classmethod
    def generic(cls, num_vars: int, degree: int, start: int,
                names: list[str], prefix: str) -> "ParamPoly":
        terms = []
        for j, exp in enumerate(monomials_upto(num_vars, degree)):
            terms.append((start + j, MultiPoly(num_vars, {exp: 1})))
            names.append(f"{prefix}[{exp}]")
        return cls(MultiPoly.zero(num_vars), tuple(terms))

    def to_json(self) -> dict:
        return {"fixed": self.fixed.to_json(),
                "terms": [{"param": j, "poly": p.to_json()} for j, p in self.terms]}

    @classmethod
    def from_json(cls, data: dict) -> "ParamPoly":
        require_fields(data, "template polynomial", "fixed")
        return cls(MultiPoly.from_json(data["fixed"]),
                   tuple((int(t["param"]), MultiPoly.from_json(t["poly"]))
                         for t in data.get("terms", [])))


@dataclass(frozen=True)
class FoldTemplate:
    n: int
    k: int
    name: str
    facet_assignment: tuple[tuple[int, int], ...]  # (source facet, image facet)
    partition: tuple[tuple[int, int], ...]         # (deg q_i, deg m_i) per i
    l: tuple[MultiPoly, ...]
    q: tuple[ParamPoly, ...]
    m: tuple[ParamPoly, ...]
    n_params: int
    param_names: tuple[str, ...]
    sign_constraints: tuple[tuple, ...] = ()       # ("param_positive", j), ...
    q_param_blocks: tuple[tuple[int, int] | None, ...] = ()

    def validate(self):
        prod = MultiPoly.constant(self.n, 1)
        for li in self.l:
            prod = prod * li
        boundary = MultiPoly.constant(self.n, 1) - linear_form(self.n)
        for i in range(self.n):
            boundary = boundary * MultiPoly.variable(self.n, i)
        if prod != boundary:
            raise ValueError("facet factors do not multiply to the boundary monomial")
        for li, (a, b) in zip(self.l, self.partition):
            if li.degree() + 2 * a + b > self.k:
                raise ValueError("degree budget violated")
        return self

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "name": self.name,
                "facet_assignment": [list(t) for t in self.facet_assignment],
                "partition": [list(t) for t in self.partition],
                "l": [p.to_json() for p in self.l],
                "q": [p.to_json() for p in self.q],
                "m": [p.to_json() for p in self.m],
                "n_params": self.n_params,
                "param_names": list(self.param_names),
                "sign_constraints": [list(c) for c in self.sign_constraints],
                "q_param_blocks": [list(b) if b else None for b in self.q_param_blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "FoldTemplate":
        require_fields(data, "template", "n", "k", "facet_assignment", "partition",
                       "l", "q", "m", "n_params", "param_names")
        return cls(
            int(data["n"]), int(data["k"]), data.get("name", "custom"),
            tuple(tuple(t) for t in data["facet_assignment"]),
            tuple(tuple(t) for t in data["partition"]),
            tuple(MultiPoly.from_json(p) for p in data["l"]),
            tuple(ParamPoly.from_json(p) for p in data["q"]),
            tuple(ParamPoly.from_json(p) for p in data["m"]),
            int(data["n_params"]), tuple(data["param_names"]),
            tuple(tuple(c) for c in data.get("sign_constraints", [])),
            tuple(tuple(b) if b else None for b in data.get("q_param_blocks", [])),
        ).validate()


def facet_monomial(n: int, facet: int) -> MultiPoly:
    """x_facet for facet <= n, else 1 - sum(x) for the diagonal facet n+1."""
    if 1 <= facet <= n:
        return MultiPoly.variable(n, facet - 1)
    if facet == n + 1:
        return MultiPoly.constant(n, 1) - linear_form(n)
    raise ValueError(f"facet index {facet} out of range")


def _l_from_assignment(n: int, assignment: dict[int, int]) -> list[MultiPoly]:
    if sorted(assignment) != list(range(1, n + 2)):
        raise ValueError("each facet must be assigned exactly once")
    ls = [MultiPoly.constant(n, 1) for _ in range(n + 1)]
    for src, img in assignment.items():
        ls[img - 1] = ls[img - 1] * facet_monomial(n, src)
    return ls


def interval_fold_template(d: int) -> FoldTemplate:
    """The 1-simplex degree-d fold template (endpoint at 0 held fixed).

    Even d sends both endpoints to 0 (l_1 = x(1-x)); odd d fixes both
    endpoints (l_1 = x, l_2 = 1-x).  Whenever deg q_i >= 1 the constant
    cofactor is gauge-fixed to m_i = 1; a_i = 0 components keep a positive
    constant unknown instead.
    """
    if d < 1:
        raise ValueError("fold order must be >= 1")
    names: list[str] = []
    if d == 1:
        assignment = {1: 1, 2: 2}
        a = (0, 0)
    elif d % 2 == 0:
        assignment = {1: 1, 2: 1}
        a = (d // 2 - 1, d // 2)
    else:
        assignment = {1: 1, 2: 2}
        a = ((d - 1) // 2, (d - 1) // 2)
    ls = _l_from_assignment(1, assignment)
    q, m, blocks = [], [], []
    sign = []
    cursor = 0
    for i in range(2):
        if a[i] == 0:
            q.append(ParamPoly.fixed_one(1))
            m.append(ParamPoly(MultiPoly.zero(1),
                               ((cursor, MultiPoly.constant(1, 1)),)))
            names.append(f"m{i + 1}")
            sign.append(("param_positive", cursor))
            blocks.append(None)
            cursor += 1
        else:
            pp = ParamPoly.generic(1, a[i], cursor, names, f"q{i + 1}")
            q.append(pp)
            m.append(ParamPoly.fixed_one(1))
            blocks.append((cursor, cursor + len(pp.terms)))
            cursor += len(pp.terms)
    partition = tuple((a[i], m[i].fixed.degree() if not m[i].terms else 0)
                      for i in range(2))
    return FoldTemplate(1, d, f"interval:{d}",
                        tuple(sorted(assignment.items())), partition,
                        tuple(ls), tuple(q), tuple(m), cursor, tuple(names),
                        tuple(sign), tuple(blocks)).validate()


def two_simplex_twofold_template() -> FoldTemplate:
    """Degree-2 two-fold of the triangle with unknowns (A, B, C, D, E, F):

        P_1 = A (y - B x)^2,  P_2 = (1-x-y)(C + D x + E y),  P_3 = F x y.
    """
    x, y = MultiPoly.variables(2)
    zero = MultiPoly.zero(2)
    one = MultiPoly.constant(2, 1)
    ls = [one, 1 - x - y, x * y]
    q = [ParamPoly(y, ((1, -x),)),            # y - B x
         ParamPoly.fixed_one(2),
         ParamPoly.fixed_one(2)]
    m = [ParamPoly(zero, ((0, one),)),        # A
         ParamPoly(zero, ((2, one), (3, x), (4, y))),  # C + D x + E y
         ParamPoly(zero, ((5, one),))]        # F
    sign = (("param_positive", 0), ("param_positive", 1), ("param_positive", 5),
            ("m_nonneg_on_simplex", 1))
    return FoldTemplate(2, 2, "twofold2d",
                        ((1, 3), (2, 3), (3, 2)), ((1, 0), (0, 1), (0, 0)),
                        tuple(ls), tuple(q), tuple(m), 6,
                        ("A", "B", "C", "D", "E", "F"), sign,
                        (None, None, None)).validate()


def two_simplex_ninefold_template() -> FoldTemplate:
    """Nine-fold template with the single degree partition {(2,4)} x 3."""
    names: list[str] = []
    ls = _l_from_assignment(2, {1: 1, 2: 2, 3: 3})
    q, m, blocks = [], [], []
    cursor = 0
    for i in range(3):
        qq = ParamPoly.generic(2, 2, cursor, names, f"q{i + 1}")
        blocks.append((cursor, cursor + len(qq.terms)))
        cursor += len(qq.terms)
        q.append(qq)
    for i in range(3):
        mm = ParamPoly.generic(2, 4, cursor, names, f"m{i + 1}")
        cursor += len(mm.terms)
        m.append(mm)
        # m_i must stay non-negative; strictness in the interior is checked
        # downstream through membership of the assembled map
    sign = tuple(("m_nonneg_on_simplex", i) for i in range(3))
    return FoldTemplate(2, 9, "ninefold2d",
                        ((1, 1), (2, 2), (3, 3)), ((2, 4), (2, 4), (2, 4)),
                        tuple(ls), tuple(q), tuple(m), cursor, tuple(names),
                        sign, tuple(blocks)).validate()


BUILTIN_TEMPLATES = {
    "twofold2d": two_simplex_twofold_template,
    "ninefold2d": two_simplex_ninefold_template,
    **{f"interval:{d}": (lambda d=d: interval_fold_template(d)) for d in range(1, 7)},
}


# -- residual and solver -------------------------------------------------------


def _params_mode(params) -> str:
    return FLOAT if any(isinstance(p, float) for p in params) else EXACT


def residual(template: FoldTemplate, params) -> MultiPoly:
    """1 - sum_i l_i q_i^2 m_i at the given parameter values."""
    if len(params) != template.n_params:
        raise ValueError(f"expected {template.n_params} parameters, got {len(params)}")
    mode = _params_mode(params)
    out = MultiPoly.constant(template.n, 1, mode)
    for li, qi, mi in zip(template.l, template.q, template.m):
        lv = li if mode == EXACT else li.to_float()
        qv = qi.instantiate(params, mode)
        mv = mi.instantiate(params, mode)
        out = out - lv * qv * qv * mv
    return out


@dataclass
class FoldSolution:
    template: FoldTemplate
    params: tuple
    exact: bool
    residual_norm: float
    map: maps.SimplexMap
    q: tuple[MultiPoly, ...]
    m: tuple[MultiPoly, ...]

    def named_params(self) -> dict:
        return dict(zip(self.template.param_names, self.params))


class FoldSolveError(RuntimeError):
    """The template is not square, or no homotopy path ends at a finite root."""


def assemble_map(template: FoldTemplate, params, label: str = "") -> maps.SimplexMap:
    mode = _params_mode(params)
    P = []
    for i in range(template.n):
        li = template.l[i] if mode == EXACT else template.l[i].to_float()
        qv = template.q[i].instantiate(params, mode)
        mv = template.m[i].instantiate(params, mode)
        P.append(li * qv * qv * mv)
    return maps.SimplexMap(template.n, template.k, P,
                           label=label or f"solved:{template.name}")


def _canonicalize_q_signs(template: FoldTemplate, params: np.ndarray) -> np.ndarray:
    """Flip fully-parametric crease factors so their leading coefficient is > 0.

    q and -q assemble to the same map; collapsing the sign gauge before
    dedup keeps each map a single solution.
    """
    params = params.copy()
    for i, block in enumerate(template.q_param_blocks):
        if block is None:
            continue
        qv = template.q[i].instantiate(list(params), FLOAT)
        for exp in sorted(qv.terms, key=gradedlex_key):
            c = qv.terms[exp]
            if abs(c) > 1e-9:
                if c < 0:
                    params[block[0]:block[1]] *= -1
                break
    return params


def _passes_sign_constraints(template: FoldTemplate, params) -> bool:
    for c in template.sign_constraints:
        kind, idx = c[0], int(c[1])
        if kind == "param_positive":
            if not float(params[idx]) > 1e-9:
                return False
        elif kind == "m_nonneg_on_simplex":
            m = template.m[idx].instantiate(params, FLOAT)
            if not positivity.nonneg_on_simplex(m).ok:
                return False
        else:
            raise ValueError(f"unknown sign constraint {kind!r}")
    return True


def _crease_structure_ok(template: FoldTemplate, params) -> bool:
    """deg q_i must not collapse, and on the interval each crease factor
    needs exactly deg q_i distinct roots strictly inside (0, 1)."""
    for i, (a, _b) in enumerate(template.partition):
        if a == 0:
            continue
        qv = template.q[i].instantiate(params, FLOAT)
        scale = qv.max_abs_coeff()
        lead = max((abs(c) for e, c in qv.terms.items() if sum(e) == a), default=0.0)
        if scale == 0 or lead < 1e-7 * scale:
            return False
        if template.n == 1:
            coeffs = [qv.terms.get((e,), 0.0) for e in range(a, -1, -1)]
            roots = np.roots(coeffs)
            good = [r.real for r in roots
                    if abs(r.imag) < 1e-7 and 1e-9 < r.real < 1 - 1e-9]
            good.sort()
            distinct = [r for j, r in enumerate(good)
                        if j == 0 or r - good[j - 1] > 1e-7]
            if len(distinct) != a:
                return False
    return True


class _CompiledTemplate:
    """The coefficient equations of a template as eval_terms term tables.

    l_i, q_i and m_i are lifted exactly into n + P variables (theta_j is
    variable n + j) and R = 1 - sum_i l_i q_i^2 m_i is expanded once.  Its
    terms split by their x-part into one polynomial in theta per monomial of
    monomials_upto(n, k); the residual and the Jacobian (their term-list
    derivatives) are one eval_terms call each, in the dtype of theta.
    `degrees[o]` is equation o's total degree in theta, but at least 1.
    """

    def __init__(self, template: FoldTemplate):
        self.template = template
        n, P = template.n, template.n_params

        def lift(p: MultiPoly, j: int | None = None) -> MultiPoly:
            """p(x), times theta_j when j is given, in the n + P variables."""
            tail = tuple(int(i == j) for i in range(P))
            return MultiPoly(n + P, {e + tail: c for e, c in p.terms.items()})

        R = MultiPoly.constant(n + P, 1)
        for li, qi, mi in zip(template.l, template.q, template.m):
            q, m = (sum((lift(p, j) for j, p in pp.terms), lift(pp.fixed))
                    for pp in (qi, mi))
            R = R - lift(li) * q * q * m
        index = {e: o for o, e in enumerate(monomials_upto(n, template.k))}
        eqs = [{} for _ in index]
        for e, c in R.terms.items():
            eqs[index[e[:n]]][e[n:]] = c
        polys = [MultiPoly(P, terms) for terms in eqs]
        plans = [p._plan() for p in polys]
        self.maxdeg = [max(md[j] for md, _ in plans) for j in range(P)]
        self.terms = tuple(plan for _, plan in plans)
        self.partials = tuple(derivative_terms(terms, j)
                              for terms in self.terms for j in range(P))
        self.degrees = np.array([max(p.degree(), 1) for p in polys])

    def residual_vec(self, theta) -> np.ndarray:
        return self.residual_batch(np.asarray(theta, dtype=float)[None, :])[0]

    def residual_batch(self, theta: np.ndarray) -> np.ndarray:
        return np.stack(eval_terms(theta, self.maxdeg, self.terms), axis=1)

    def jacobian_batch(self, theta: np.ndarray) -> np.ndarray:
        cols = eval_terms(theta, self.maxdeg, self.partials)
        return np.stack(cols, axis=1).reshape(
            len(theta), len(self.terms), self.template.n_params)


# A nonsingular endpoint has max |F| <= RESIDUAL_TOL and sigma_min/sigma_max
# of F's Jacobian > COND_TOL.  Double precision locates a double root only to
# about sqrt(eps) = 1.5e-8, where that ratio reads about 1e-8; the folds of
# interval:2..6 and twofold2d read 7e-5 or more.
RESIDUAL_TOL = 1e-10
COND_TOL = 1e-6
DEDUP_TOL = 1e-8
MAX_DENOMINATOR = 10 ** 6

# gamma comes from one fixed key, so solve_fold's outputs depend on no seed
_GAMMA_KEY = 0x70D
_STEP_START = 0.01
_STEP_MAX = 0.1
_STEP_MIN = 1e-14
_NEAR_ONE = 1e-6
_INFINITE = 1e8
# a path stopped near t = 1 whose |theta| grows like (1 - t)^-p, p > this
_DIVERGING = 0.25
# Newton converges only linearly to a singular root, halving the distance
# per step: enough steps to bring a path stopped at 1 - t = _NEAR_ONE to the
# precision floor, so that its Jacobian ratio reads singular
_POLISH_STEPS = 16
_MAX_STEPS = 5000


def _gamma(key: int) -> complex:
    return complex(np.exp(2j * np.pi * sampler.make_rng(key).random()))


def _newton_step(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched A^-1 b; NaN in the rows whose matrix is exactly singular."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan, dtype=np.result_type(A, b))
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _track_paths(ft: _CompiledTemplate, gamma: complex):
    """Every path of the total-degree homotopy, tracked in lockstep.

    H(theta, t) = (1 - t) gamma G(theta) + t F(theta), G_i = theta_i^d_i - 1
    with d_i = ft.degrees[i], starts at t = 0 from the prod(d_i) points whose
    coordinates are roots of unity.  Each step is an RK4 predictor on
    dtheta/dt = -H_theta^-1 H_t and three Newton correctors at the new t; a
    step is kept when the correctors converge, which doubles the path's step,
    and otherwise halved.  A path ends at t = 1; near it, where a step fails
    within _NEAR_ONE of t = 1 (a singular root, or infinity); at infinity,
    where |theta| passes _INFINITE; or, failed, where its step collapses
    earlier or _MAX_STEPS run out.  Finite endpoints are polished by Newton
    on F.  Returns (endpoints, kind), kind in {"nonsingular", "singular",
    "infinite", "failed"} per path.
    """
    d = ft.degrees
    P = len(d)
    units = [np.exp(2j * np.pi * np.arange(di) / di) for di in d]
    theta = np.stack(np.meshgrid(*units, indexing="ij"), axis=-1).reshape(-1, P)
    B = len(theta)
    t = np.zeros(B)
    step = np.full(B, _STEP_START)
    running = np.ones(B, dtype=bool)
    infinite = np.zeros(B, dtype=bool)
    stalled = np.zeros(B, dtype=bool)

    def system(th, tt):
        """H, H_theta and H_t at (th, tt)."""
        F, JF = ft.residual_batch(th), ft.jacobian_batch(th)
        s = (1 - tt)[:, None] * gamma
        G = th ** d - 1
        Hx = tt[:, None, None] * JF
        Hx[:, np.arange(P), np.arange(P)] += s * d * th ** (d - 1)
        return s * G + tt[:, None] * F, Hx, F - gamma * G

    def velocity(th, tt):
        _, Hx, Ht = system(th, tt)
        return -_newton_step(Hx, Ht)

    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        th, tt = theta[idx], t[idx]
        h = np.minimum(step[idx], 1 - tt)
        hc = h[:, None]
        with np.errstate(all="ignore"):
            k1 = velocity(th, tt)
            k2 = velocity(th + hc / 2 * k1, tt + h / 2)
            k3 = velocity(th + hc / 2 * k2, tt + h / 2)
            k4 = velocity(th + hc * k3, tt + h)
            x = th + hc / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t1 = np.where(h == 1 - tt, 1.0, tt + h)
            corr = []
            for _c in range(3):
                Hv, Hx, _ = system(x, t1)
                dx = _newton_step(Hx, Hv)
                x = x - dx
                corr.append(np.abs(dx).max(axis=1))
            scale = 1 + np.abs(x).max(axis=1)
            ok = (np.isfinite(x).all(axis=1) & (corr[0] <= 1e-3 * scale)
                  & (corr[2] <= 1e-10 * scale))
        acc, rej = idx[ok], idx[~ok]
        theta[acc], t[acc] = x[ok], t1[ok]
        step[acc] = np.minimum(2 * step[acc], _STEP_MAX)
        step[rej] /= 2
        infinite[acc] = np.abs(x[ok]).max(axis=1) > _INFINITE
        stalled[rej[(step[rej] < _STEP_MIN) | (1 - t[rej] <= _NEAR_ONE)]] = True
        running[idx] = ~(infinite[idx] | stalled[idx] | (t[idx] == 1.0))

    # A path stopped near t = 1 heads to infinity when |theta| grows like a
    # power of 1 - t there: estimate that power from the path's velocity.
    end = stalled & (1 - t <= _NEAR_ONE)
    with np.errstate(all="ignore"):
        v = velocity(theta[end], t[end])
    growth = (1 - t[end]) * np.abs(v).max(axis=1) / (1 + np.abs(theta[end]).max(axis=1))
    infinite[np.flatnonzero(end)[~(growth <= _DIVERGING)]] = True
    finite = ~infinite & ((t == 1.0) | end)
    x = theta[finite]
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            nxt = x - _newton_step(ft.jacobian_batch(x), ft.residual_batch(x))
            x = np.where(np.isfinite(nxt).all(axis=1)[:, None], nxt, x)
        resid = np.abs(ft.residual_batch(x)).max(axis=1)
        sv = np.linalg.svd(ft.jacobian_batch(x), compute_uv=False)
    theta[finite] = x
    kind = np.full(B, "failed", dtype="U11")
    kind[infinite] = "infinite"
    kind[finite] = np.where((resid <= RESIDUAL_TOL) & (sv[:, -1] > COND_TOL * sv[:, 0]),
                            "nonsingular", "singular")
    return theta, kind


def solve_fold(template: FoldTemplate) -> list[FoldSolution]:
    """Coefficient-matched fold solutions of a square template.

    The coefficient system has as many equations as unknowns; a template
    that does not raises FoldSolveError before any numeric work.  A
    total-degree homotopy (Morgan 1987) follows each of the system's Bezout
    number of paths to its end, and every nonsingular solution ends exactly
    one path.  The real nonsingular endpoints are sign-gauge canonicalized,
    deduplicated, rounded to rationals and re-verified exactly, then
    filtered by sign constraints, crease structure and map membership.  One
    DEBUG record on `simplexfold.folding` counts the paths by how they ended
    (nonsingular, singular, infinite, failed; the four sum to `bezout`), the
    real nonsingular endpoints and the candidates each filter dropped.
    Raises FoldSolveError when no path ends at a finite root; an empty list
    means the template has no feasible fold.
    """
    n_eq = len(monomials_upto(template.n, template.k))
    if n_eq != template.n_params:
        raise FoldSolveError(
            f"template {template.name!r} is not square: {n_eq} equations in "
            f"{template.n_params} unknowns")
    ft = _CompiledTemplate(template)
    ends, kind = _track_paths(ft, _gamma(_GAMMA_KEY))
    counts = {k: int((kind == k).sum())
              for k in ("nonsingular", "singular", "infinite", "failed")}
    good = ends[kind == "nonsingular"]
    real = good[np.abs(good.imag).max(axis=1)
                <= 1e-8 * (1 + np.abs(good).max(axis=1))].real
    known = np.array([_canonicalize_q_signs(template, t) for t in real]
                     ).reshape(-1, template.n_params)
    converged = _newton.dedup_points(known, DEDUP_TOL)
    dropped = {"dedup": len(known) - len(converged), "sign": 0, "crease": 0,
               "membership": 0}
    solutions = []
    for theta in converged:
        exact_params = [Fraction(v).limit_denominator(MAX_DENOMINATOR) for v in theta]
        exact = residual(template, exact_params).is_zero()
        params = tuple(exact_params) if exact else tuple(float(v) for v in theta)
        rnorm = 0.0 if exact else float(np.abs(ft.residual_vec(theta)).max())
        if not _passes_sign_constraints(template, list(params)):
            dropped["sign"] += 1
            continue
        if not _crease_structure_ok(template, list(params)):
            dropped["crease"] += 1
            continue
        fmap = assemble_map(template, list(params))
        if not maps.membership_check(fmap.to_float()).ok:
            dropped["membership"] += 1
            continue
        mode = _params_mode(list(params))
        solutions.append(FoldSolution(
            template, params, exact, rnorm, fmap,
            tuple(q.instantiate(list(params), mode) for q in template.q),
            tuple(m.instantiate(list(params), mode) for m in template.m)))
    solutions.sort(key=lambda s: tuple(map(float, s.params)))
    log.debug("solve_fold(%s): %d paths %s, %d real, dropped %s, %d solutions",
              template.name, len(kind), counts, len(real), dropped, len(solutions),
              extra={"template": template.name, "bezout": len(kind), **counts,
                     "real": len(real), "dropped": dropped,
                     "solutions": len(solutions)})
    if counts["nonsingular"] + counts["singular"] == 0:
        raise FoldSolveError(f"no homotopy path for template {template.name!r} "
                             f"ended at a finite root: {counts}")
    return solutions


# -- factorization verification -------------------------------------------------


@dataclass
class FactorizationReport:
    checks: dict
    ok: bool

    def __bool__(self):
        return self.ok


def verify_factorization(f: maps.SimplexMap,
                         factors: FoldFactors | None = None) -> FactorizationReport:
    """Check a claimed P_i = l_i q_i^2 m_i factorization of a fold.

    With explicit factors: exact reassembly, the boundary product identity
    prod l_i = (1 - sum x) prod x_i, sampled non-negativity of each m_i and
    the degree budget.  Without factors the l_i are inferred from facet
    divisibility and only the divisibility and product checks run.
    """
    checks: dict[str, tuple[bool, str]] = {}
    comps = f.components_full()
    n = f.n
    boundary = MultiPoly.constant(n, 1) - linear_form(n)
    for i in range(n):
        boundary = boundary * MultiPoly.variable(n, i)

    if factors is None:
        inferred = []
        for i, p in enumerate(comps):
            li = MultiPoly.constant(n, 1)
            for facet in range(1, n + 2):
                mono = facet_monomial(n, facet)
                _, r = divide_by_linear(p, mono)
                if r.is_zero():
                    li = li * mono
            inferred.append(li)
        prod = MultiPoly.constant(n, 1)
        for li in inferred:
            prod = prod * li
        checks["l_product"] = (prod == boundary,
                               f"inferred l product {'matches' if prod == boundary else 'differs from'} boundary monomial")
        checks["reassembly"] = (True, "skipped: no explicit q/m factors supplied")
        ok = checks["l_product"][0]
        return FactorizationReport(checks, ok)

    reass = True
    detail = []
    for i, p in enumerate(comps):
        got = factors.l[i] * factors.q[i] * factors.q[i] * factors.m[i]
        if got != p:
            reass = False
            detail.append(f"component {i + 1} reassembly differs")
    checks["reassembly"] = (reass, "; ".join(detail) or "all components reassemble exactly")

    prod = MultiPoly.constant(n, 1)
    for li in factors.l:
        prod = prod * li
    checks["l_product"] = (prod == boundary, "product of facet factors vs boundary monomial")

    m_ok = all(positivity.nonneg_on_simplex(mi.to_float()).ok for mi in factors.m)
    checks["m_nonneg"] = (m_ok, "sampled non-negativity of cofactors")

    budget = all(factors.l[i].degree() + 2 * factors.q[i].degree()
                 + factors.m[i].degree() <= f.k for i in range(n + 1))
    checks["degree_budget"] = (budget, f"deg l + 2 deg q + deg m <= {f.k}")

    return FactorizationReport(checks, all(v[0] for v in checks.values()))


# -- preimage counting -----------------------------------------------------------


def preimage_count(f: maps.SimplexMap, y, *, seed: int = 0):
    """Number of simplex preimages of a strictly interior target point.

    Multistart Newton on f(x) = y from the vertices, a ~250-point lattice
    and 250 uniform points drawn from make_rng(seed); returns (count,
    points).  A count of zero for a map believed onto signals missed
    basins, not absence.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (f.n,):
        raise ValueError(f"target {y.tolist()} has {y.size} coordinate(s), "
                         f"the map has {f.n}")
    if y.min() <= 0 or y.sum() >= 1:
        raise ValueError("target must be strictly interior")
    pts = _newton.solve_on_simplex(f, target=y, lattice_target=250, n_random=250,
                                   seed=seed)
    return len(pts), pts
