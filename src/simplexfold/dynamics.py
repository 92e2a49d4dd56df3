"""Dynamics of simplex maps: fixed points, spectra, orbits, fixation times.

Fixed points come from batched multistart Newton, with values and
Jacobians read off the map's coefficient table (maps.MapCoefficients);
eigenvalues use closed-form characteristic polynomial roots for n <= 2 and
np.linalg.eigvals above.  Orbit classification follows the figure
convention of the deformation experiments: an orbit is "red" when it
converges to a fixed point or revisits itself within the detection window,
and "green" otherwise.  Cycle detection is Brent-style (power-of-two
anchors, O(1) memory) with an l-infinity tolerance.

The deformation scan runs in one process: after each map's distance and
fixed points, the orbits of all its maps advance as one lockstep batch,
each row through its own map's coefficients (maps.MapCoefficients), and a
map that leaves the simplex fails only its own row.  Every open row shares
Brent's anchor distance and power, so the rows that come back within
ORBIT_TOL of their anchor on one step share one period-check horizon: each
map's candidates advance through that horizon as one apply_many batch, and
the shift test then gives each row the period it gets when checked alone.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _newton, folding, sampler, simplex
from .maps import APPLY_TOL, MapCoefficients, MapImageError, SimplexMap, image_error
from .polynomial import EXACT, MultiPoly

CONVERGED_FIXED = "converged_fixed"
PERIODIC = "periodic"
NONPERIODIC = "nonperiodic_within_window"
FAILED = "failed"

log = logging.getLogger(__name__)

_CLASS_BAND = 1e-9
# an orbit step, or a return to Brent's anchor, shorter than this (l-infinity)
# counts as a standstill or a revisit
ORBIT_TOL = 1e-10


# -- eigenvalues ---------------------------------------------------------------


def small_matrix_eigenvalues(J: np.ndarray) -> list[complex]:
    """Eigenvalues: closed-form roots for n <= 2, np.linalg.eigvals beyond."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if n == 1:
        return [complex(J[0, 0])]
    if n == 2:
        tr = J[0, 0] + J[1, 1]
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        s = cmath.sqrt(tr * tr - 4.0 * det)
        return [(tr + s) / 2.0, (tr - s) / 2.0]
    return [complex(z) for z in np.linalg.eigvals(J)]


def classify_spectrum(eigenvalues) -> str:
    mods = [abs(z) for z in eigenvalues]
    if any(abs(m - 1.0) <= _CLASS_BAND for m in mods):
        return "marginal"
    if all(m < 1.0 - _CLASS_BAND for m in mods):
        return "attracting"
    if all(m > 1.0 + _CLASS_BAND for m in mods):
        return "repelling"
    return "saddle"


# -- fixed points ----------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    point: tuple[float, ...]
    residual: float
    eigenvalues: tuple[complex, ...]
    classification: str

    def min_abs_eig(self) -> float:
        return min(abs(z) for z in self.eigenvalues)


@dataclass
class FixedPointReport:
    points: list[FixedPoint]
    degenerate_identity: bool = False

    def __len__(self):
        return len(self.points)

    def attracting(self):
        return [p for p in self.points if p.classification == "attracting"]

    def repelling(self):
        return [p for p in self.points if p.classification == "repelling"]

    def min_abs_eig(self) -> float:
        return min((p.min_abs_eig() for p in self.points), default=float("nan"))


def _is_identity(f: SimplexMap) -> bool:
    for i, p in enumerate(f.P):
        xi = MultiPoly.variable(f.n, i, p.scalar_mode)
        if p.scalar_mode == EXACT:
            if p != xi:
                return False
        elif (p - xi).max_abs_coeff() > 1e-14:
            return False
    return True


def find_fixed_points(f: SimplexMap, *, lattice_target: int = 2000,
                      n_random: int = 1000, seed: int = 0,
                      dedup_tol: float = 1e-8) -> FixedPointReport:
    """All fixed points of f in the simplex, with Jacobian spectra.

    Seeds: a ~2000-point barycentric lattice, 1000 uniform points and the
    vertices.  Every reported point satisfies ||f(x)-x||_inf <=
    _newton.RESIDUAL_TOL on re-evaluation; the identity map is flagged
    degenerate instead of reporting a continuum.
    """
    if _is_identity(f):
        return FixedPointReport([], degenerate_identity=True)
    pts = _newton.solve_on_simplex(f, lattice_target=lattice_target,
                                   n_random=n_random, seed=seed, dedup_tol=dedup_tol)
    coeffs = f.coefficients()
    residuals = np.abs(coeffs.values(pts) - pts).max(axis=1)
    out = []
    for x, res, J in zip(pts, residuals, coeffs.jacobians(pts)):
        eigs = tuple(small_matrix_eigenvalues(J))
        out.append(FixedPoint(tuple(x), float(res), eigs, classify_spectrum(eigs)))
    out.sort(key=lambda p: p.point)
    return FixedPointReport(out)


# -- orbit classification ---------------------------------------------------------


@dataclass(frozen=True)
class OrbitVerdict:
    kind: str
    iterations_used: int
    period: int | None = None
    witness: tuple[float, ...] | None = None
    clamped: bool = False     # some image of the orbit was clamped onto the simplex
    error: str | None = None  # why the row's map failed (kind FAILED only)


def _orbits(f: SimplexMap, X: np.ndarray, horizon: int) -> np.ndarray:
    """The orbits of the rows of X for `horizon` steps, shape (horizon+1, rows, n)."""
    orbit = np.empty((horizon + 1,) + X.shape)
    orbit[0] = X
    for s in range(horizon):
        orbit[s + 1] = f.apply_many(orbit[s])
    return orbit


def _minimal_periods(f: SimplexMap, X: np.ndarray, lam: int, tol: float) -> list:
    """For each row of X, the smallest shift p <= lam under which its orbit
    matches itself, or None.

    All rows advance as one batch for a shared horizon of max(2*lam, 64)
    steps, well past the detected gap, so a slow passage near a repelling
    fixed point (where nearby states sit within tol of each other but the
    orbit is escaping) does not fake a cycle; such rows get None and the
    caller keeps iterating.  If an orbit leaves the simplex, the
    MapImageError is that of the first row, in row order, whose own orbit
    leaves it within the horizon.
    """
    horizon = max(2 * lam, 64)
    try:
        orbit = _orbits(f, X, horizon)
    except MapImageError:
        # the batch raised for its earliest bad step, not its first bad row
        for x in X:
            _orbits(f, x[None], horizon)
        raise
    # the shift-p test holds when every |x_s - x_(s+p)| < tol, s = 0..horizon-p;
    # shifts that already fail at s = 0 are ruled out for all rows at once
    near = np.abs(orbit[1:lam + 1] - orbit[0]).max(axis=2) < tol
    return [next((int(p) for p in np.flatnonzero(near[:, j]) + 1
                  if np.abs(orbit[:horizon + 1 - p, j] - orbit[p:, j]).max() < tol),
                 None)
            for j in range(X.shape[0])]


def classify_orbits(f, x0s, window: int = 10_000, burn_in: int = 1000, *,
                    map_index=None) -> list[OrbitVerdict]:
    """Brent cycle detection for a batch of orbits advanced in lockstep.

    f is one map for every row of x0s, or a sequence of maps with
    map_index[r] the index of row r's map.  Every row takes the same steps
    it would take in a batch of its map alone.  A map whose image leaves the
    simplex (in burn-in, in the window or in the period check) retires its
    own rows only: each gets a FAILED verdict whose error is the
    MapImageError text of the map's first bad open row.
    """
    X = np.atleast_2d(np.asarray(x0s, dtype=float)).copy()
    m = X.shape[0]
    if m == 0:
        return []
    fs = [f] if isinstance(f, SimplexMap) else list(f)
    owner = (np.zeros(m, dtype=np.intp) if map_index is None
             else np.asarray(map_index, dtype=np.intp))
    coeffs = MapCoefficients(fs, owner)
    failed = np.zeros(len(fs), dtype=bool)
    failures: dict[int, tuple[int, str]] = {}
    ever_clamped = np.zeros(m, dtype=bool)
    verdicts: list[OrbitVerdict | None] = [None] * m
    open_rows = np.arange(m)

    def fail(k: int, it: int, exc: MapImageError) -> None:
        if not failed[k]:
            failed[k] = True
            failures[k] = (it, f"{type(exc).__name__}: {exc}")

    def advance(X, it):
        Y, bad, clamped = coeffs.apply(X)
        if clamped.any():
            ever_clamped[open_rows[clamped]] = True
        if bad.any():
            for r in np.flatnonzero(bad):
                k = owner[open_rows[r]]
                fail(k, it, image_error(fs[k], X[r], Y[r], APPLY_TOL))
        return Y

    def finish(r: int, kind: str, it: int, period=None) -> None:
        row = open_rows[r]
        verdicts[row] = OrbitVerdict(kind, it, period=period, witness=tuple(X[r]),
                                     clamped=bool(ever_clamped[row]))

    for s in range(1, burn_in + 1):
        X = advance(X, s)
        dead = failed[owner[open_rows]]
        if dead.any():
            keep = np.flatnonzero(~dead)
            X, open_rows, coeffs = X[keep], open_rows[keep], coeffs.take(keep)
            if open_rows.size == 0:
                break
    # Brent's anchor distance lam and window power are the same for every
    # open row: they start together and advance together
    anchors = X
    power, lam = 1, 0
    prev_step = np.full(open_rows.size, np.inf)

    for t in range(1, window + 1 if open_rows.size else 1):
        Xn = advance(X, burn_in + t)
        # maxima over the columns pairwise: exact in any order, NaN included,
        # and much cheaper than a reduction along a short axis 1
        step = functools.reduce(np.maximum, np.abs(Xn - X).T)
        lam += 1
        danchor = functools.reduce(np.maximum, np.abs(Xn - anchors).T)
        X = Xn
        done = failed[owner[open_rows]]
        # converged: two consecutive sub-tol steps that are not growing,
        # so a slow escape from a repelling point does not count
        conv = (step < ORBIT_TOL) & (prev_step < ORBIT_TOL) & (step <= prev_step) & ~done
        prev_step = step
        for r in np.flatnonzero(conv):
            finish(r, CONVERGED_FIXED, burn_in + t)
            done[r] = True
        cand = np.flatnonzero((danchor < ORBIT_TOL) & ~done)
        if cand.size:
            maps_of = owner[open_rows[cand]]
            for k in np.unique(maps_of):
                rows = cand[maps_of == k]
                try:
                    periods = _minimal_periods(fs[k], X[rows], lam, ORBIT_TOL)
                except MapImageError as exc:
                    fail(k, burn_in + t, exc)
                    continue
                for r, p in zip(rows, periods):
                    if p is None:
                        continue
                    # a persistent period-1 cycle is a fixed point
                    finish(r, CONVERGED_FIXED if p == 1 else PERIODIC, burn_in + t,
                           period=None if p == 1 else p)
                    done[r] = True
        done |= failed[owner[open_rows]]
        if done.any():
            keep = np.flatnonzero(~done)
            X, anchors, coeffs = X[keep], anchors[keep], coeffs.take(keep)
            prev_step = prev_step[keep]
            open_rows = open_rows[keep]
            if open_rows.size == 0:
                break
        if lam == power:
            anchors = X
            power *= 2
            lam = 0
    for r in range(open_rows.size):
        finish(r, NONPERIODIC, burn_in + window)
    for row in np.flatnonzero(failed[owner]):
        it, error = failures[owner[row]]
        verdicts[row] = OrbitVerdict(FAILED, it, clamped=bool(ever_clamped[row]),
                                     error=error)
    return verdicts


def classify_orbit(f: SimplexMap, x0, window: int = 10_000,
                   burn_in: int = 1000) -> OrbitVerdict:
    return classify_orbits(f, [x0], window=window, burn_in=burn_in)[0]


# -- deformation scan --------------------------------------------------------------


@dataclass
class ScanRow:
    index: int
    l2_distance: float
    min_abs_eig: float
    verdict: str              # "green" | "red" | "failed"
    n_fixed_points: int
    per_point_min_eig: tuple[float, ...] = ()
    error: str | None = None


def _failed_row(index: int, error: str) -> ScanRow:
    return ScanRow(index, float("nan"), float("nan"), "failed", 0, error=error)


def _gradedlex(f: SimplexMap) -> SimplexMap:
    """f with every component's terms stored in graded-lex order."""
    return SimplexMap(f.n, f.k, [MultiPoly(f.n, dict(p.sorted_terms()), p.scalar_mode)
                                 for p in f.P], f.label)


def deform_scan(f_star: SimplexMap, samples, trials_per_map: int = 20, *,
                window: int = 10_000, burn_in: int = 1000,
                master_seed: int = 0) -> list[ScanRow]:
    """Distance / spectrum / orbit-verdict table for a batch of deformations.

    Row i scans samples[i]: its L2 distance to f_star, its fixed points
    (Newton from the vertices, a ~200-point lattice and 100 uniform points
    drawn with seed master_seed ^ i) and the verdicts of trials_per_map
    uniform starts drawn from Philox(key=[master_seed, i]); the row is
    green when every orbit stays nonperiodic through the window.  The
    orbits of every map are classified in one lockstep batch.  A failure
    (an exception in the distance or the fixed points, or an orbit leaving
    the simplex) fails only its own row, with the reason in `error`.  One
    DEBUG record on ``simplexfold.dynamics`` gives the rows by verdict, the
    failed rows by exception class, the clamped orbit rows and the lockstep
    steps run.
    """
    # l2_distance squares float polynomials, and MultiPoly.__mul__ sums in
    # the insertion order of the terms dict, so a distance depends in its
    # last digits on how each map was built.  Graded-lex order, the order
    # of map JSON, makes it a function of the coefficients alone.
    f_star = _gradedlex(f_star)
    samples = list(samples)
    rows: list[ScanRow | None] = [None] * len(samples)
    scanned, starts = [], []
    for index, g in enumerate(samples):
        g = _gradedlex(g)
        try:
            dist = simplex.l2_distance(f_star, g)
            report = find_fixed_points(g, lattice_target=200, n_random=100,
                                       seed=master_seed ^ index)
        except Exception as exc:  # row-level containment per the scan contract
            rows[index] = _failed_row(index, f"{type(exc).__name__}: {exc}")
            continue
        rng = np.random.Generator(np.random.Philox(
            key=np.array([master_seed, index], dtype=np.uint64)))
        starts.append(simplex.sample_uniform(g.n, trials_per_map, rng))
        scanned.append((index, g, dist, report))

    verdicts = []
    if scanned:
        verdicts = classify_orbits(
            [g for _, g, _, _ in scanned], np.vstack(starts), window=window,
            burn_in=burn_in,
            map_index=np.repeat(np.arange(len(scanned)), trials_per_map))
    for k, (index, g, dist, report) in enumerate(scanned):
        kinds = verdicts[k * trials_per_map:(k + 1) * trials_per_map]
        error = next((v.error for v in kinds if v.kind == FAILED), None)
        if error is not None:
            rows[index] = _failed_row(index, error)
            continue
        green = all(v.kind == NONPERIODIC for v in kinds)
        rows[index] = ScanRow(index, dist, report.min_abs_eig(),
                              "green" if green else "red", len(report),
                              tuple(p.min_abs_eig() for p in report.points))

    by_verdict = Counter(r.verdict for r in rows)
    by_error = Counter(r.error.split(":", 1)[0] for r in rows if r.error)
    clamped_rows = sum(v.clamped for v in verdicts)
    steps = max((v.iterations_used for v in verdicts), default=0)
    log.debug("deform_scan: %d rows %s, failures %s, %d clamped orbit rows, "
              "%d lockstep steps", len(rows), dict(by_verdict), dict(by_error),
              clamped_rows, steps,
              extra={"verdicts": dict(by_verdict), "failures": dict(by_error),
                     "clamped_rows": clamped_rows, "lockstep_steps": steps})
    return rows


# -- fixation ------------------------------------------------------------------------


@dataclass(frozen=True)
class FixationRecord:
    x0: tuple[float, ...]
    vertex: tuple[float, ...]
    time: int


@dataclass
class FixationResult:
    records: list[FixationRecord]
    unabsorbed: int
    mu: float | None = None
    sigma: float | None = None

    @property
    def absorbed(self) -> int:
        return len(self.records)


def fixation_experiment(f: SimplexMap, region: float = 0.01, count: int = 10_000,
                        absorb_tol: float = 1e-9, max_iters: int = 100_000,
                        master_seed: int = 0) -> FixationResult:
    """Absorption times of `count` uniform starts in the corner square (0, region)^n.

    Iterates the whole batch in lockstep, records first entry into an
    absorb_tol ball around any vertex, and fits a log-normal by maximum
    likelihood on the natural log of the positive times.
    """
    rng = sampler.make_rng(master_seed)
    X0 = region * rng.random((count, f.n))
    V = simplex.vertices(f.n)

    X = X0.copy()
    alive = np.arange(count)
    times = np.full(count, -1, dtype=np.int64)
    hit = np.zeros((count, f.n))
    for t in range(max_iters + 1):
        if alive.size == 0:
            break
        d2 = ((X[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
        jmin = d2.argmin(axis=1)
        absorbed = np.sqrt(d2[np.arange(len(X)), jmin]) <= absorb_tol
        if absorbed.any():
            rows = np.flatnonzero(absorbed)
            times[alive[rows]] = t
            hit[alive[rows]] = V[jmin[rows]]
            keep = np.flatnonzero(~absorbed)
            X, alive = X[keep], alive[keep]
            if alive.size == 0:
                break
        if t < max_iters:
            X = f.apply_many(X)

    records = [FixationRecord(tuple(X0[i]), tuple(hit[i]), int(times[i]))
               for i in range(count) if times[i] >= 0]
    unabsorbed = count - len(records)
    logs = np.log([r.time for r in records if r.time > 0])
    if logs.size:
        return FixationResult(records, unabsorbed,
                              mu=float(logs.mean()), sigma=float(logs.std(ddof=0)))
    return FixationResult(records, unabsorbed)


# -- invariant measure -------------------------------------------------------------


def arcsine_cdf(x):
    """CDF of the measure dx / (pi sqrt(x(1-x))) on [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return (2.0 / math.pi) * np.arcsin(np.sqrt(x))


def invariant_measure_test(d: int, sample_count: int = 100_000,
                           master_seed: int = 0) -> float:
    """KS statistic between the pushforward of the arcsine measure under the
    degree-d interval fold and the arcsine measure itself."""
    if d < 1:
        raise ValueError("fold order must be >= 1")
    rng = sampler.make_rng(master_seed)
    u = rng.random(sample_count)
    x = (1.0 - np.cos(math.pi * u)) / 2.0
    fd = folding.catalog(f"cheb:{d}").to_float()
    pushed = np.sort(fd.P[0].eval_many(x[:, None]))
    # one-sample KS statistic: max over i of i/n - F(x_(i)) and F(x_(i)) - (i-1)/n
    cdf = arcsine_cdf(pushed)
    n = pushed.size
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
