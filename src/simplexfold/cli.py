"""Experiment runner: every workflow as a subcommand with deterministic seeds.

Subcommands (one per reproducible artifact):

  tables          catalog maps + factorization/composition verification
  cone-build      Polya cone inequalities, extreme rays, scaled generators
  solve-fold      coefficient-matching solver on a template (builtin or JSON)
  verify-fold     factorization checks for a map
  deform-sample   random deformations of a map within an L2 ball
  fig6            deformation scan of the triangle two-fold (CSV)
  fig7            fixation-time experiment on the nine-fold (CSV + fit JSON)
  measure-test    KS statistic of the arcsine-measure pushforward
  preimage-count  interior preimage count of a map at a target point

Every run writes a manifest.json recording the subcommand, flags, the
resolved master seed, the library version and sha256 hashes of all outputs;
replaying a manifest reproduces the outputs byte for byte.  Floats print
with 17 significant digits so CSV round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__, cone, dynamics, folding, maps, sampler, simplex
from .maps import SimplexMap

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT % x
    return str(x)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _number(name: str, cast, low, high, interval: str):
    """An argparse type: the text cast to a number with low < value <= high."""
    def parse(text: str):
        value = cast(text)
        if not low < value <= high:
            raise argparse.ArgumentTypeError(f"{name} {value} outside {interval}")
        return value
    parse.__name__ = name
    return parse


# make_rng keys on the seed mod 2^64, so a seed outside [0, 2^64) would alias
_seed = _number("seed", int, -1, 2 ** 64 - 1, "[0, 2^64)")
_eps = _number("eps", float, 0, sys.float_info.max, "(0, inf)")
_positive_int = _number("integer", int, 0, float("inf"), "[1, inf)")
_natural = _number("integer", int, -1, float("inf"), "[0, inf)")
# fig7 starts in the corner square (0, region)^2, inside the triangle
_region = _number("region", float, 0, 0.5, "(0, 1/2]")


def _orders(text: str) -> str:
    """measure-test's --d, fold orders >= 1, kept as typed for the manifest."""
    for d in text.split(","):
        _positive_int(d)
    return text


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return secrets.randbits(32)


def _write_manifest(out_dir: Path, subcommand: str, args: argparse.Namespace,
                    seed: int, outputs: list[Path]) -> Path:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": subcommand,
        "flags": {k: (str(v) if isinstance(v, Path) else v) for k, v in flags.items()},
        "master_seed": seed,
        "version": __version__,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "metadata": {
            "period_boundary_convention":
                "orbits periodic within the window count red; only "
                "nonperiodic_within_window counts green",
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _dump_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _write_output(path, data, args, seed: int) -> None:
    """Write a run's one JSON output, and its manifest beside it."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _dump_json(out, data)
    _write_manifest(out.parent, args.command, args, seed, [out])


# -- tables ---------------------------------------------------------------------


def _map_to_csv(f: SimplexMap, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "component", "exp", "coef"])
        for i, p in enumerate(f.components_full()):
            for exp, c in p.sorted_terms():
                w.writerow([f.label, i + 1, " ".join(map(str, exp)), str(c)])


def cmd_tables(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = _resolve_seed(args)
    outputs, failures = [], []
    report = {}
    for name in folding.CATALOG_NAMES:
        f = folding.catalog(name)
        stem = name.replace(":", "_")
        path = out_dir / f"{stem}.{args.format}"
        if args.format == "json":
            _dump_json(path, f.to_json())
        else:
            _map_to_csv(f, path)
        outputs.append(path)
        ver = folding.verify_factorization(f, folding.catalog_factors(name))
        report[name] = {k: {"ok": ok, "detail": d} for k, (ok, d) in ver.checks.items()}
        if not ver.ok:
            failures.append(f"factorization checks failed for {name}")

    comp = {}
    for d, e in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 5), (2, 6), (3, 4)]:
        lhs = maps.compose_maps(folding.catalog(f"cheb:{d}"), folding.catalog(f"cheb:{e}"))
        ok = tuple(lhs.P) == tuple(folding.catalog(f"cheb:{d * e}").P)
        comp[f"cheb:{d}*cheb:{e}"] = ok
        if not ok:
            failures.append(f"composition mismatch cheb:{d} o cheb:{e}")
    f2 = folding.catalog("tri:f2")
    comp["tri:f4=f2of2"] = tuple(maps.compose_maps(f2, f2).P) == tuple(folding.catalog("tri:f4").P)
    comp["tri:f8=f2of2of2"] = tuple(
        maps.compose_maps(f2, maps.compose_maps(f2, f2)).P) == tuple(folding.catalog("tri:f8").P)
    for key, ok in comp.items():
        if not ok:
            failures.append(f"composition mismatch {key}")

    rep_path = out_dir / "verification.json"
    _dump_json(rep_path, {"factorization": report, "composition": comp,
                          "failures": failures})
    outputs.append(rep_path)
    _write_manifest(out_dir, "tables", args, seed, outputs)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"tables: {len(folding.CATALOG_NAMES)} maps -> {out_dir} "
          f"({'ok' if not failures else f'{len(failures)} failures'})")
    return 1 if failures else 0


# -- cone-build -------------------------------------------------------------------


def cmd_cone_build(args) -> int:
    out = Path(args.out)
    seed = _resolve_seed(args)
    rep = cone.build_inequalities(args.n, args.k, args.N)
    out.parent.mkdir(parents=True, exist_ok=True)
    cone.enumerate_rays(rep)
    if not args.no_scale:
        cone.scale_generators(rep)
    cone.save_json(rep, out)
    _write_manifest(out.parent, "cone-build", args, seed, [out])
    print(f"cone({args.n},{args.k},{args.N}): {len(rep.ineq)} inequalities, "
          f"{len(rep.rays)} extreme rays -> {out}")
    return 0


# -- solve-fold -------------------------------------------------------------------


def cmd_solve_fold(args) -> int:
    seed = _resolve_seed(args)
    template = (folding.BUILTIN_TEMPLATES[args.builtin]() if args.builtin
                else folding.FoldTemplate.from_json(
                    json.loads(Path(args.template).read_text())))
    solutions = folding.solve_fold(template)
    payload = []
    for s in solutions:
        payload.append({
            "params": {name: (str(v) if s.exact else float(v))
                       for name, v in s.named_params().items()},
            "exact": s.exact,
            "residual_norm": s.residual_norm,
            "map": s.map.to_json(),
        })
    _write_output(args.out, {"template": template.name, "solutions": payload}, args, seed)
    print(f"solve-fold[{template.name}]: {len(solutions)} solution(s) -> {args.out}")
    for s in solutions:
        print("  " + ", ".join(f"{k}={v}" for k, v in s.named_params().items()))
    return 0


# -- verify-fold ------------------------------------------------------------------


def cmd_verify_fold(args) -> int:
    if args.catalog:
        f = folding.catalog(args.catalog)
        factors = folding.catalog_factors(args.catalog)
    else:
        with open(args.map) as fh:
            f = SimplexMap.from_json(json.load(fh))
        factors = None
    report = folding.verify_factorization(f, factors)
    for name, (ok, detail) in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.out:
        _write_output(args.out, {name: {"ok": ok, "detail": d}
                                 for name, (ok, d) in report.checks.items()},
                      args, _resolve_seed(args))
    return 0 if report.ok else 1


# -- fig6: deformation scan --------------------------------------------------------


def cmd_fig6(args) -> int:
    seed = _resolve_seed(args)
    if args.cone and Path(args.cone).exists():
        rep = cone.load_json(args.cone)
        problem = (f"is ({rep.n},{rep.k},{rep.N}), not (2,2,{args.N})"
                   if (rep.n, rep.k, rep.N) != (2, 2, args.N)
                   else "has no scaled generators" if rep.scaled_vectors is None
                   else None)
        if problem:
            raise ValueError(f"cone {args.cone} {problem}")
    else:
        rep = cone.build_inequalities(2, 2, args.N)
        cone.enumerate_rays(rep)
        cone.scale_generators(rep)
        if args.cone:
            cone.save_json(rep, args.cone)
    cfg = sampler.SamplerConfig(cone=rep, epsilon=args.eps, master_seed=seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    f_star = folding.catalog("tri:f2")
    samples = [f_star.to_float()]
    for i in range(1, args.count + 1):
        samples.append(sampler.deform(f_star, cfg, sampler.make_rng(seed, i)))
    rows = dynamics.deform_scan(f_star, samples, args.trials, window=args.window,
                                burn_in=args.burn_in, master_seed=seed)

    csv_path = out_dir / "fig6.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        # per_point_min_eig holds each fixed point's own minimum modulus
        # (semicolon-joined), so the per-point reading of the vertical axis
        # can be plotted without rerunning the scan
        w.writerow(["index", "l2_distance", "min_abs_eig", "verdict",
                    "n_fixed_points", "per_point_min_eig", "error"])
        for r in rows:
            w.writerow([r.index, _fmt(r.l2_distance), _fmt(r.min_abs_eig), r.verdict,
                        r.n_fixed_points, ";".join(_fmt(v) for v in r.per_point_min_eig),
                        r.error or ""])
    _write_manifest(out_dir, "fig6", args, seed, [csv_path])
    n_green = sum(1 for r in rows if r.verdict == "green")
    n_red = sum(1 for r in rows if r.verdict == "red")
    print(f"fig6: {len(rows)} rows ({n_green} green / {n_red} red) -> {csv_path}")
    return 0


# -- deform-sample ------------------------------------------------------------------


def cmd_deform_sample(args) -> int:
    out_dir = Path(args.out)
    seed = _resolve_seed(args)
    with open(args.map) as fh:
        f_star = SimplexMap.from_json(json.load(fh))
    rep = cone.load_json(args.cone)
    cfg = sampler.SamplerConfig(cone=rep, epsilon=args.eps, master_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i in range(args.count):
        g = sampler.deform(f_star, cfg, sampler.make_rng(seed, i))
        path = out_dir / f"deform_{i:05d}.json"
        _dump_json(path, g.to_json())
        outputs.append(path)
    _write_manifest(out_dir, "deform-sample", args, seed, outputs)
    print(f"deform-sample: {args.count} maps within eps={args.eps} "
          f"of {f_star.label or 'map'} -> {out_dir}")
    return 0


# -- fig7: fixation ----------------------------------------------------------------


def cmd_fig7(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = _resolve_seed(args)
    f9 = folding.catalog("tri:f9").to_float()
    result = dynamics.fixation_experiment(
        f9, region=args.region, count=args.count,
        absorb_tol=args.absorb_tol, max_iters=args.max_iters, master_seed=seed)

    V = simplex.vertices(2)
    csv_path = out_dir / "fixation.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0_x", "x0_y", "vertex", "time"])
        for r in result.records:
            vid = int(np.argmin([np.hypot(*(np.array(r.vertex) - v)) for v in V]))
            w.writerow([_fmt(r.x0[0]), _fmt(r.x0[1]), vid, r.time])
    fit_path = out_dir / "fit.json"
    _dump_json(fit_path, {
        "mu": result.mu, "sigma": result.sigma,
        "count": args.count, "absorbed": result.absorbed,
        "unabsorbed": result.unabsorbed,
        "low_sample": args.count < 100,
    })
    _write_manifest(out_dir, "fig7", args, seed, [csv_path, fit_path])
    mu = "n/a" if result.mu is None else _fmt(result.mu)
    sg = "n/a" if result.sigma is None else _fmt(result.sigma)
    print(f"fig7: {result.absorbed}/{args.count} absorbed, "
          f"mu={mu} sigma={sg} -> {out_dir}")
    return 0


# -- measure-test -------------------------------------------------------------------


def cmd_measure_test(args) -> int:
    seed = _resolve_seed(args)
    orders = [int(d) for d in args.d.split(",")]
    stats = {d: dynamics.invariant_measure_test(d, args.samples, master_seed=seed)
             for d in orders}
    for d, ks in stats.items():
        print(f"cheb:{d}  KS = {_fmt(ks)}  (N = {args.samples})")
    if args.out:
        _write_output(args.out, {str(d): ks for d, ks in stats.items()}, args, seed)
    return 0


# -- preimage-count -----------------------------------------------------------------


def cmd_preimage_count(args) -> int:
    seed = _resolve_seed(args)
    if args.catalog:
        f = folding.catalog(args.catalog)
    else:
        with open(args.map) as fh:
            f = SimplexMap.from_json(json.load(fh))
    y = [float(v) for v in args.target.split(",")]
    count, pts = folding.preimage_count(f, y, seed=seed)
    print(f"{count} preimage(s) of {y} under {f.label or 'map'}")
    for p in pts:
        print("  " + " ".join(_fmt(float(v)) for v in p))
    if args.out:
        _write_output(args.out, {"target": y, "count": count,
                                 "preimages": [[float(v) for v in p] for p in pts]},
                      args, seed)
    return 0


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process."""
    ap = argparse.ArgumentParser(prog="simplexfold", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="emit catalog maps and verify them")
    p.add_argument("--out-dir", default="tables_out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("cone-build", help="build and enumerate a Polya cone")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_cone_build)

    p = sub.add_parser("solve-fold", help="solve a folding template")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--template", help="template JSON path")
    g.add_argument("--builtin", choices=sorted(folding.BUILTIN_TEMPLATES))
    p.add_argument("--out", default="solutions.json")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_solve_fold)

    p = sub.add_parser("verify-fold", help="verify a fold factorization")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--map", help="map JSON path")
    g.add_argument("--catalog", help="catalog name, e.g. tri:f9")
    p.add_argument("--out")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_verify_fold)

    p = sub.add_parser("fig6", help="deformation scan of the triangle two-fold")
    p.add_argument("--eps", type=_eps, default=0.05)
    p.add_argument("--count", type=_natural, default=1000)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--cone", help="cone JSON to load or save")
    p.add_argument("--out-dir", default="fig6_out")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--window", type=_positive_int, default=10_000)
    p.add_argument("--burn-in", type=_natural, default=1000)
    p.add_argument("--jobs", type=int,
                   help="accepted and recorded in the manifest, but has no effect: "
                        "the scan runs as one lockstep batch in one process")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("deform-sample", help="sample deformations of a map")
    p.add_argument("--map", required=True, help="reference map JSON")
    p.add_argument("--cone", required=True, help="scaled cone JSON")
    p.add_argument("--eps", type=_eps, default=0.05)
    p.add_argument("--count", type=_natural, default=1000)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_deform_sample)

    p = sub.add_parser("fig7", help="fixation times of the nine-fold")
    p.add_argument("--count", type=_positive_int, default=10_000)
    p.add_argument("--region", type=_region, default=0.01)
    p.add_argument("--absorb-tol", type=float, default=1e-9)
    p.add_argument("--max-iters", type=_natural, default=100_000)
    p.add_argument("--out-dir", default="fig7_out")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("measure-test", help="arcsine invariant measure KS test")
    p.add_argument("--d", type=_orders, default="2,3,4",
                   help="comma-separated fold orders")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--out")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_measure_test)

    p = sub.add_parser("preimage-count", help="count interior preimages")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--map", help="map JSON path")
    g.add_argument("--catalog", help="catalog name")
    p.add_argument("--target", required=True, help="comma-separated coordinates")
    p.add_argument("--out")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_preimage_count)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; a bad input file, name or value exits 1 with one
    stderr line, and a bad flag exits 2 through argparse."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, folding.FoldSolveError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"{args.command}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
