"""The benchmark's four workloads: inputs, the timed call and the output checks.

Each workload has three steps:

  prepare(ctx)  builds the inputs from the seed (counted in setup_s),
  run(ctx)      is the timed call, through `cli.main` where a subcommand
                exists and through the library otherwise,
  check(ctx)    verifies every output and returns a Checked record.

One operation is a scan row, a cone build, a fold template or a census
query; an operation with any failed check counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import numpy as np

from simplexfold import cli, dynamics, folding, positivity
from simplexfold.maps import SimplexMap
from simplexfold.polynomial import MultiPoly

# scan: the paper's deformation scan of the triangle two-fold over a cached
# (2,2,8) cone.  About 17% of rows are red and exit early, so the cost of a
# run varies with its seed; 40 rows keep that spread near 6%.
SCAN_COUNT = 40
SCAN_EPS = 0.05
SCAN_CONE = (2, 2, 8)

# cone: (n, k, N, scale).  The scaled build is optimiser-bound, the
# unscaled one pure exact-integer double description.
CONE_PARTS = ((2, 2, 5, True), (2, 3, 4, False))

# Inequality rows, extreme rays and sha256 of the sorted ray list.
CONE_PINS = {
    (2, 2, 5): (36, 243, "43ca57238b3dfb65b0a0bb5cf92b423c4c5e1d00b953e98582edb17c01c097c7"),
    (2, 3, 4): (36, 5987, "78445d7de4db8ab1e8ef4d0088cc320b8fafa6fea6d6b289df9a32b4ff69ee1d"),
    (2, 2, 8): (66, 900, "57fdfae1eb1c3ed58ead58f704d485bd0e31c87023108f61cbf5bb9300ef6054"),
}

# fold: Table-1 templates plus the triangle two-fold.
FOLD_TEMPLATES = ("interval:2", "interval:3", "interval:4", "interval:5", "twofold2d")
TWOFOLD_PARAMS = {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1, "F": 4}

# census: preimage counts (criterion 9's folds), fixed-point censuses and
# Polya certificates whose minimal N spreads over 0..50.
CENSUS_FOLDS = ("cheb:2", "cheb:3", "cheb:4", "cheb:5", "cheb:6",
                "tri:f2", "tri:f4", "tri:f8", "tri:f9")
# Preimage targets are drawn one per cell of a fixed partition of the
# interior (16 intervals, or the 16 triangles of a 4-fold subdivision), so
# every seed puts the same number of targets where tri:f8's solve is slow.
TARGET_CELLS = 4
FIXED_POINT_MAPS = ("tri:f2", "tri:f4", "tri:f8", "tri:f9")
# Exact censuses (tests/oracle_ninefold_census.py for tri:f9):
# (fixed points, repelling).  tri:f4 and tri:f8 are checked by consistency.
FIXED_POINT_PINS = {"tri:f2": (2, None), "tri:f9": (14, 9)}
# Minimal Polya N of the quadric family below is about 3/delta - 1, so
# these strata spread the certificates over 0..50 with the same cost on
# every seed; the seed jitters delta and the weights inside each stratum.
POLYA_STRATA = (0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44)
POLYA_PER_STRATUM = 2
POLYA_INDETERMINATE = 4


@dataclass
class Ctx:
    """Everything one repetition knows: arguments, inputs and outputs."""
    seed: int
    jobs: int
    work: Path
    cone_path: Path | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


@dataclass
class Checked:
    attempted: int
    failed: int
    messages: list[str]
    digest: str


class _Ops:
    """Failure bookkeeping: each operation fails at most once."""

    def __init__(self, names):
        self.names = list(names)
        self.bad: dict[str, str] = {}

    def fail(self, op: str, why: str) -> None:
        self.bad.setdefault(op, why)

    def checked(self, digest: str) -> Checked:
        msgs = [f"{op}: {why}" for op, why in self.bad.items()]
        return Checked(len(self.names), len(self.bad), msgs, digest)


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"cli {argv[0]} returned {rc}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ray_digest(rays) -> str:
    """sha256 of the sorted integer ray list, as pinned in CONE_PINS."""
    rows = sorted([int(Fraction(c)) for c in r] for r in rays)
    return _sha(json.dumps(rows, separators=(",", ":")).encode())


def check_cone_json(data: dict, scaled: bool) -> list[str]:
    """Pinned sizes and hash, exact feasibility of every ray, and (when
    scaled) that every generator peaks at 1 on a lattice of the simplex."""
    key = (int(data["n"]), int(data["k"]), int(data["N"]))
    n_rows, n_rays, digest = CONE_PINS[key]
    errors = []
    ineq = [[int(Fraction(c)) for c in row] for row in data["ineq"]]
    rays = [[int(Fraction(c)) for c in r] for r in data.get("rays", [])]
    if len(ineq) != n_rows:
        errors.append(f"{len(ineq)} inequality rows, expected {n_rows}")
    if len(rays) != n_rays:
        errors.append(f"{len(rays)} rays, expected {n_rays}")
    if ray_digest(rays) != digest:
        errors.append("sorted ray list hash differs from the pinned one")
    infeasible = sum(1 for r in rays
                     if any(sum(a * b for a, b in zip(row, r)) < 0 for row in ineq))
    if infeasible:
        errors.append(f"{infeasible} rays violate ineq @ r >= 0")
    if scaled:
        gens = data.get("scaled_rays", [])
        if len(gens) != len(rays):
            errors.append(f"{len(gens)} scaled generators for {len(rays)} rays")
        else:
            peak = _lattice_max(gens, depth=64)
            off = int(np.sum((peak > 1 + 1e-7) | (peak < 0.95)))
            if off:
                errors.append(f"{off} scaled generators do not peak at 1")
    return errors


def _lattice_max(gens: list[dict], depth: int) -> np.ndarray:
    """Max of each float polynomial over the barycentric lattice of the
    triangle, by plain monomial evaluation."""
    pts = np.array([(i, j) for i in range(depth + 1)
                    for j in range(depth + 1 - i)], dtype=float) / depth
    out = np.empty(len(gens))
    for g, poly in enumerate(gens):
        vals = np.zeros(len(pts))
        for term in poly["terms"]:
            vals += float(term["coef"]) * np.prod(pts ** np.array(term["exp"]), axis=1)
        out[g] = vals.max()
    return out


# -- scan -------------------------------------------------------------------------


def scan_prepare(ctx: Ctx) -> None:
    out = ctx.work / "fig6"
    ctx.inputs["out"] = out
    ctx.inputs["argv"] = ["fig6", "--eps", repr(SCAN_EPS), "--count", str(SCAN_COUNT),
                          "--N", str(SCAN_CONE[2]), "--cone", str(ctx.cone_path),
                          "--out-dir", str(out), "--jobs", str(ctx.jobs),
                          "--seed", str(ctx.seed)]


def scan_run(ctx: Ctx) -> None:
    _cli(ctx.inputs["argv"])


def scan_check(ctx: Ctx) -> Checked:
    ops = _Ops(f"row{i}" for i in range(SCAN_COUNT + 1))
    path = ctx.inputs["out"] / "fig6.csv"
    data = path.read_bytes() if path.exists() else b""
    rows = list(csv.DictReader(data.decode().splitlines())) if data else []
    by_index = {}
    for r in rows:
        by_index.setdefault(int(r["index"]), r)
    for i in range(SCAN_COUNT + 1):
        op = f"row{i}"
        r = by_index.get(i)
        if r is None:
            ops.fail(op, "missing")
            continue
        if r["verdict"] not in ("green", "red"):
            ops.fail(op, f"verdict {r['verdict']!r} ({r['error']})")
            continue
        dist = float(r["l2_distance"])
        if not dist <= SCAN_EPS + 1e-9:
            ops.fail(op, f"distance {dist} > eps")
        if i == 0 and (r["verdict"] != "green" or dist != 0.0):
            ops.fail(op, f"fold row is {r['verdict']} at distance {dist}")
    if len(rows) != SCAN_COUNT + 1:
        ops.fail("row0", f"CSV has {len(rows)} rows, expected {SCAN_COUNT + 1}")
    return ops.checked(_sha(data))


# -- cone -------------------------------------------------------------------------


def _cone_name(n, k, N) -> str:
    return f"cone-{n}-{k}-{N}"


def cone_prepare(ctx: Ctx) -> None:
    argvs = []
    for n, k, N, scale in CONE_PARTS:
        out = ctx.work / _cone_name(n, k, N) / "cone.json"
        argv = ["cone-build", "--n", str(n), "--k", str(k), "--N", str(N),
                "--out", str(out), "--seed", "0"]
        argvs.append(argv if scale else argv + ["--no-scale"])
    ctx.inputs["argvs"] = argvs


def cone_run(ctx: Ctx) -> None:
    for argv in ctx.inputs["argvs"]:
        _cli(argv)


def cone_check(ctx: Ctx) -> Checked:
    ops = _Ops(_cone_name(n, k, N) for n, k, N, _ in CONE_PARTS)
    h = hashlib.sha256()
    for n, k, N, scale in CONE_PARTS:
        op = _cone_name(n, k, N)
        path = ctx.work / op / "cone.json"
        if not path.exists():
            ops.fail(op, "no output")
            continue
        raw = path.read_bytes()
        h.update(raw)
        for err in check_cone_json(json.loads(raw), scale):
            ops.fail(op, err)
    return ops.checked(h.hexdigest())


# -- fold -------------------------------------------------------------------------


def fold_prepare(ctx: Ctx) -> None:
    ctx.inputs["argvs"] = [
        ["solve-fold", "--builtin", t, "--out", str(ctx.work / t.replace(":", "_") / "sol.json"),
         "--seed", "0"] for t in FOLD_TEMPLATES]


def fold_run(ctx: Ctx) -> None:
    for argv in ctx.inputs["argvs"]:
        _cli(argv)


def fold_check(ctx: Ctx) -> Checked:
    ops = _Ops(FOLD_TEMPLATES)
    h = hashlib.sha256()
    for t in FOLD_TEMPLATES:
        path = ctx.work / t.replace(":", "_") / "sol.json"
        if not path.exists():
            ops.fail(t, "no output")
            continue
        raw = path.read_bytes()
        h.update(raw)
        sols = json.loads(raw)["solutions"]
        if len(sols) != 1 or not sols[0]["exact"]:
            ops.fail(t, f"{len(sols)} solutions, exact={[s['exact'] for s in sols]}")
            continue
        sol = sols[0]
        if t.startswith("interval:"):
            want = folding.catalog("cheb:" + t.split(":")[1])
            if SimplexMap.from_json(sol["map"]) != want:
                ops.fail(t, "solution differs from the Table-1 fold")
        else:
            got = {k: Fraction(v) for k, v in sol["params"].items()}
            if got != TWOFOLD_PARAMS:
                ops.fail(t, f"params {sol['params']}")
    return ops.checked(h.hexdigest())


# -- census -----------------------------------------------------------------------


def _quadric(s, a):
    """Homogeneous coefficients and affine polynomial of
    sum s_i^2 x_i^2 - a sum_{i<j} s_i s_j x_i x_j on the triangle
    (x_3 = 1 - x_1 - x_2).  Positive on the simplex for a < 1; for a = 1 it
    is half a sum of squares with an interior zero."""
    H = {}
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 2
        H[tuple(e)] = s[i] * s[i]
        for j in range(i + 1, 3):
            e = [0, 0, 0]
            e[i] = e[j] = 1
            H[tuple(e)] = -a * s[i] * s[j]
    x, y = MultiPoly.variables(2)
    v = (x, y, 1 - x - y)
    p = MultiPoly.zero(2)
    for e, c in H.items():
        term = MultiPoly.constant(2, c)
        for i, d in enumerate(e):
            for _ in range(d):
                term = term * v[i]
        p = p + term
    return H, p


def polya_all_positive(H: dict, N: int) -> bool:
    """Whether every coefficient of (x1+x2+x3)^N * H is positive, computed
    by multinomial convolution, independently of the library's expansion."""
    scale = lcm(*(c.denominator for c in H.values()))
    Hi = {e: int(c * scale) for e, c in H.items()}
    deg = sum(next(iter(H)))
    fact = [factorial(i) for i in range(N + deg + 1)]
    total = N + deg
    for b1 in range(total + 1):
        for b2 in range(total + 1 - b1):
            beta = (b1, b2, total - b1 - b2)
            acc = 0
            for e, c in Hi.items():
                r = (beta[0] - e[0], beta[1] - e[1], beta[2] - e[2])
                if min(r) < 0:
                    continue
                acc += c * (fact[N] // (fact[r[0]] * fact[r[1]] * fact[r[2]]))
            if acc <= 0:
                return False
    return True


def stratified_targets(n: int, rng: np.random.Generator) -> list[list[float]]:
    """One uniform target in each cell of [0.02, 0.98] (n = 1) or of the
    triangle y >= 0.02, y1 + y2 <= 0.96 (n = 2), cut into TARGET_CELLS**2
    equal cells."""
    lo, hi, m = 0.02, 0.98, TARGET_CELLS
    if n == 1:
        w = (hi - lo) / m**2
        return [[lo + w * (i + float(rng.random()))] for i in range(m**2)]
    w = (hi - lo - lo) / m
    out = []
    for i in range(m):
        for j in range(m - i):
            cells = [((i, j), (1, 0), (0, 1))]
            if i + j < m - 1:
                cells.append(((i + 1, j + 1), (-1, 0), (0, -1)))
            for (ci, cj), e1, e2 in cells:
                u, v = (float(t) for t in rng.random(2))
                if u + v > 1:
                    u, v = 1 - u, 1 - v
                out.append([lo + w * (ci + u * e1[0] + v * e2[0]),
                            lo + w * (cj + u * e1[1] + v * e2[1])])
    return out


def census_prepare(ctx: Ctx) -> None:
    rng = np.random.default_rng([ctx.seed, 2013])
    preimages = []
    for name in CENSUS_FOLDS:
        n = folding.catalog(name).n
        for y in stratified_targets(n, rng):
            q = len(preimages)
            # one directory per query: rewriting an existing manifest.json
            # costs a synchronous flush on ext4, which would dominate
            out = ctx.work / f"pre{q:03d}" / "preimages.json"
            argv = ["preimage-count", "--catalog", name,
                    "--target", ",".join(repr(v) for v in y),
                    "--seed", str(q), "--out", str(out)]
            preimages.append((name, y, out, argv))
    polya = []
    for target in POLYA_STRATA:
        for _ in range(POLYA_PER_STRATUM):
            s = [Fraction(int(rng.integers(8, 13)), 8) for _ in range(3)]
            if target == 0:
                a = -Fraction(int(rng.integers(1, 9)), 8)
            else:
                a = 1 - Fraction(3, target + 1) * Fraction(int(rng.integers(98, 103)), 100)
            polya.append((False,) + _quadric(s, a))
    for _ in range(POLYA_INDETERMINATE):
        s = [Fraction(int(rng.integers(8, 13)), 8) for _ in range(3)]
        polya.append((True,) + _quadric(s, Fraction(1)))
    ctx.inputs.update(preimages=preimages, polya=polya,
                      fixed=[(name, folding.catalog(name)) for name in FIXED_POINT_MAPS])


def census_run(ctx: Ctx) -> None:
    for _name, _y, _out, argv in ctx.inputs["preimages"]:
        _cli(argv)
    ctx.outputs["fixed"] = [dynamics.find_fixed_points(f) for _name, f in ctx.inputs["fixed"]]
    ctx.outputs["polya"] = [positivity.polya_certify(p, k=2)
                            for _zero, _H, p in ctx.inputs["polya"]]


def census_check(ctx: Ctx) -> Checked:
    pre, fixed, polya = ctx.inputs["preimages"], ctx.inputs["fixed"], ctx.inputs["polya"]
    ops = _Ops([f"pre{q}" for q in range(len(pre))]
               + [f"fixed:{name}" for name in FIXED_POINT_MAPS]
               + [f"polya{i}" for i in range(len(polya))])
    record = {}
    floats = {name: folding.catalog(name).to_float() for name in CENSUS_FOLDS}

    for q, (name, y, out, _argv) in enumerate(pre):
        op = f"pre{q}"
        if not out.exists():
            ops.fail(op, "no output")
            continue
        got = json.loads(out.read_text())
        record[op] = got
        f = floats[name]
        d = folding.fold_order(name)
        if got["count"] != d:
            ops.fail(op, f"{name} at {y}: {got['count']} preimages, expected {d}")
        for x in got["preimages"]:
            err = max(abs(p.evaluate(x) - t) for p, t in zip(f.P, y))
            if not (min(x) >= -1e-10 and sum(x) <= 1 + 1e-10 and err <= 1e-9):
                ops.fail(op, f"{name}: {x} is not a preimage of {y} in the simplex")

    reports = ctx.outputs.get("fixed", [])
    points = {}
    for (name, f), rep in zip(fixed, reports):
        op = f"fixed:{name}"
        pts = [p.point for p in rep.points]
        points[name] = pts
        record[op] = [[list(p.point), p.classification] for p in rep.points]
        fl = f.to_float()
        for x in pts:
            err = max(abs(p.evaluate(list(x)) - xi) for p, xi in zip(fl.P, x))
            if err > 1e-9:
                ops.fail(op, f"{x} is not fixed (residual {err:.2e})")
        want, repelling = FIXED_POINT_PINS.get(name, (None, None))
        if want is not None and len(rep) != want:
            ops.fail(op, f"{len(rep)} fixed points, expected {want}")
        if repelling is not None and len(rep.repelling()) != repelling:
            ops.fail(op, f"{len(rep.repelling())} repelling, expected {repelling}")
    # fixed points of f2 are fixed points of f4 = f2 o f2 and f8 = f2 o f2 o f2
    for name in ("tri:f4", "tri:f8"):
        for x in points.get("tri:f2", []):
            if name in points and not any(np.allclose(x, z, atol=1e-8) for z in points[name]):
                ops.fail(f"fixed:{name}", f"misses tri:f2's fixed point {x}")

    certs = ctx.outputs.get("polya", [])
    for i, ((zero, H, _p), cert) in enumerate(zip(polya, certs)):
        op = f"polya{i}"
        record[op] = [cert.verdict, cert.N]
        if zero:
            if cert.verdict != positivity.INDETERMINATE or polya_all_positive(H, cert.N_max):
                ops.fail(op, f"interior-zero quadric gave {cert.verdict}")
        elif cert.verdict == positivity.CERTIFIED:
            if not polya_all_positive(H, cert.N):
                ops.fail(op, f"expansion at N={cert.N} is not all-positive")
            elif cert.N > 0 and polya_all_positive(H, cert.N - 1):
                ops.fail(op, f"N={cert.N} is not minimal")
        elif cert.verdict != positivity.INDETERMINATE or polya_all_positive(H, cert.N_max):
            ops.fail(op, f"positive quadric gave {cert.verdict}")
    for op in ops.names:
        if op not in record:
            ops.fail(op, "no result")
    digest = _sha(json.dumps(record, sort_keys=True).encode())
    return ops.checked(digest)


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "scan": Workload(scan_prepare, scan_run, scan_check),
    "cone": Workload(cone_prepare, cone_run, cone_check),
    "fold": Workload(fold_prepare, fold_run, fold_check),
    "census": Workload(census_prepare, census_run, census_check),
}
