"""Layers and span tracing for the benchmark's traced run.

The program has no tracing of its own, so the benchmark wraps the public
functions named in LAYERS from outside, after the inputs are built and
before the timed call.  Spans are aggregated per (name, parent span) rather
than stored one by one, because the hot leaves (eval_many, apply_many, mul)
run about a million times in one scan.  A span's self time is its duration
minus the time of the wrapped spans it contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(X) -> int:
    shape = np.shape(X)
    return int(shape[0]) if len(shape) == 2 else 1


def _count_orbit_steps(tr, args, kwargs, result):
    tr.counts["dynamics.classify_orbits.orbit_steps"] += sum(
        v.iterations_used for v in result)


def _count_apply_rows(tr, args, kwargs, result):
    tr.counts["maps.apply_many.rows"] += _rows(args[1])


def _count_eval_rows(tr, args, kwargs, result):
    rows = _rows(args[1])
    tr.counts["polynomial.eval_many.rows"] += rows
    tr.counts["polynomial.eval_many.term_points"] += rows * len(args[0].terms)


def _count_membership(tr, args, kwargs, result):
    if tr.active["sampler.deform"]:
        tr.counts["sampler.deform.membership_checks"] += 1


def _count_rays(tr, args, kwargs, result):
    tr.counts["cone.enumerate_rays.rays"] += len(result.rays)


def _count_newton(tr, args, kwargs, result):
    seeds = args[2] if len(args) > 2 else kwargs["seeds"]
    tr.counts["newton.newton_batch.seeds"] += len(seeds)
    tr.counts["newton.newton_batch.converged"] += len(result[0])
    if tr.stack and tr.stack[-1][0] == "newton.solve_on_simplex":
        tr.counts["newton.solve_on_simplex.converged"] += len(result[0])


def _count_unique(tr, args, kwargs, result):
    tr.counts["newton.solve_on_simplex.unique"] += len(result)


@dataclass(frozen=True)
class Layer:
    """One wrapped function: where it lives, and what it should move."""
    name: str                    # reported name, "<layer>.<function>"
    module: str                  # simplexfold submodule
    owner: str | None            # class holding the method, or None
    attrs: tuple[str, ...]       # attribute names bound to the function
    moves: str                   # end-to-end metric and workload it moves
    count: Callable | None = None


# The layers are the package's modules.  `_newton` is reported as `newton`
# because benchmark metric names must start with a letter.
LAYERS = (
    Layer("cli.main", "cli", None, ("main",),
          "wall_s on scan, cone, fold and census (root span; self time is "
          "output writing and, at --jobs > 1, pool waiting)"),
    Layer("sampler.deform", "sampler", None, ("deform",),
          "wall_s on scan: deform runs serially in the parent"),
    Layer("dynamics.classify_orbits", "dynamics", None, ("classify_orbits",),
          "wall_s and cpu_s on scan; absent elsewhere", _count_orbit_steps),
    Layer("dynamics.find_fixed_points", "dynamics", None, ("find_fixed_points",),
          "wall_s on census; about 1% of scan"),
    Layer("maps.apply_many", "maps", "SimplexMap", ("apply_many",),
          "wall_s and cpu_s on scan; rows per call is the batch shape, "
          "which moves peak_rss_mb on scan", _count_apply_rows),
    Layer("maps.membership_check", "maps", None, ("membership_check",),
          "wall_s on fold; scan through deform", _count_membership),
    Layer("polynomial.eval_many", "polynomial", "MultiPoly", ("eval_many",),
          "scan at small batches; fold and cone at large batches",
          _count_eval_rows),
    Layer("polynomial.mul", "polynomial", "MultiPoly", ("__mul__", "__rmul__"),
          "wall_s on census (Polya expansion) and fold (exact re-verification)"),
    Layer("simplex.max_on_simplex", "simplex", None, ("max_on_simplex",),
          "wall_s and cpu_s on cone; scan through deform"),
    Layer("simplex.l2_distance", "simplex", None, ("l2_distance",),
          "wall_s on scan"),
    Layer("positivity.nonneg_on_simplex", "positivity", None, ("nonneg_on_simplex",),
          "wall_s on fold; scan through deform"),
    Layer("positivity.polya_certify", "positivity", None, ("polya_certify",),
          "wall_s on census"),
    Layer("cone.build_inequalities", "cone", None, ("build_inequalities",),
          "wall_s on cone (exact part)"),
    Layer("cone.enumerate_rays", "cone", None, ("enumerate_rays",),
          "wall_s on cone (exact double description)", _count_rays),
    Layer("cone.scale_generators", "cone", None, ("scale_generators",),
          "wall_s on cone (optimiser part)"),
    Layer("folding.solve_fold", "folding", None, ("solve_fold",),
          "wall_s on fold; self time is the deflated Newton sweeps"),
    Layer("folding.residual", "folding", None, ("residual",),
          "wall_s on fold (exact re-verification)"),
    Layer("folding.preimage_count", "folding", None, ("preimage_count",),
          "wall_s on census"),
    Layer("newton.newton_batch", "_newton", None, ("newton_batch",),
          "wall_s on census; about 1% of scan", _count_newton),
    Layer("newton.solve_on_simplex", "_newton", None, ("solve_on_simplex",),
          "wall_s on census; about 1% of scan", _count_unique),
)

# Layers each workload must reach in its traced run; a rename in the
# program that silently zeroes one of them fails the self-check.
EXPECTED = {
    "scan": ("cli.main", "sampler.deform", "dynamics.classify_orbits",
             "dynamics.find_fixed_points", "maps.apply_many",
             "maps.membership_check", "polynomial.eval_many", "polynomial.mul",
             "simplex.max_on_simplex", "simplex.l2_distance",
             "positivity.nonneg_on_simplex", "newton.newton_batch",
             "newton.solve_on_simplex"),
    "cone": ("cli.main", "cone.build_inequalities", "cone.enumerate_rays",
             "cone.scale_generators", "simplex.max_on_simplex",
             "polynomial.eval_many"),
    "fold": ("cli.main", "folding.solve_fold", "folding.residual",
             "maps.membership_check", "positivity.nonneg_on_simplex",
             "polynomial.eval_many", "polynomial.mul"),
    "census": ("cli.main", "folding.preimage_count", "dynamics.find_fixed_points",
               "newton.newton_batch", "newton.solve_on_simplex",
               "positivity.polya_certify", "polynomial.mul",
               "polynomial.eval_many"),
}

# Per-layer metrics beyond <name>.calls and <name>.self_s: (name, unit, better)
EXTRA_METRICS = (
    ("dynamics.classify_orbits.orbit_steps", "count", "lower"),
    ("maps.apply_many.rows", "count", "lower"),
    ("maps.apply_many.rows_per_call", "rows", "higher"),
    ("polynomial.eval_many.rows", "count", "lower"),
    ("polynomial.eval_many.term_points", "count", "lower"),
    ("polynomial.eval_many.ns_per_term_point", "ns", "lower"),
    ("polynomial.eval_many.rows_per_call", "rows", "higher"),
    ("sampler.membership_per_deform", "ratio", "lower"),
    ("cone.enumerate_rays.rays", "count", "higher"),
    ("newton.newton_batch.seeds", "count", "lower"),
    ("newton.newton_batch.converged", "count", "higher"),
    ("newton.converged_frac", "ratio", "higher"),
    ("newton.solve_on_simplex.unique_frac", "ratio", "higher"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds]
        self.spans: dict[tuple, list] = {}   # (name, parent) -> [calls, total, self]
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = {layer.name: 0 for layer in LAYERS}

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        stack, spans, active, perf = self.stack, self.spans, self.active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += dt
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function wherever the package binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "simplexfold" or name.startswith("simplexfold.")]
        for layer in LAYERS:
            module = importlib.import_module(f"simplexfold.{layer.module}")
            if layer.owner is not None:
                cls = getattr(module, layer.owner)
                wrapped = self.wrap(layer.name, cls.__dict__[layer.attrs[0]], layer.count)
                for attr in layer.attrs:
                    setattr(cls, attr, wrapped)
                continue
            orig = getattr(module, layer.attrs[0])
            wrapped = self.wrap(layer.name, orig, layer.count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def totals(self) -> dict[str, list]:
        """Per layer name: [calls, self seconds] summed over parents."""
        out = {layer.name: [0, 0.0] for layer in LAYERS}
        for (name, _parent), (calls, _total, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def report(self) -> dict:
        """Per-layer metric values (without the trace.* overhead entries)."""
        totals = self.totals()
        c = self.counts
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer.name}.calls"] = totals[layer.name][0]
            m[f"{layer.name}.self_s"] = totals[layer.name][1]
        for key in ("dynamics.classify_orbits.orbit_steps", "maps.apply_many.rows",
                    "polynomial.eval_many.rows", "polynomial.eval_many.term_points",
                    "cone.enumerate_rays.rays", "newton.newton_batch.seeds",
                    "newton.newton_batch.converged"):
            m[key] = c[key]

        def ratio(a, b):
            return a / b if b else 0.0

        m["maps.apply_many.rows_per_call"] = ratio(
            c["maps.apply_many.rows"], totals["maps.apply_many"][0])
        m["polynomial.eval_many.rows_per_call"] = ratio(
            c["polynomial.eval_many.rows"], totals["polynomial.eval_many"][0])
        m["polynomial.eval_many.ns_per_term_point"] = 1e9 * ratio(
            totals["polynomial.eval_many"][1], c["polynomial.eval_many.term_points"])
        m["sampler.membership_per_deform"] = ratio(
            c["sampler.deform.membership_checks"], totals["sampler.deform"][0])
        m["newton.converged_frac"] = ratio(
            c["newton.newton_batch.converged"], c["newton.newton_batch.seeds"])
        m["newton.solve_on_simplex.unique_frac"] = ratio(
            c["newton.solve_on_simplex.unique"], c["newton.solve_on_simplex.converged"])
        return m

    def span_table(self) -> list[list]:
        """Raw aggregated spans, heaviest self time first."""
        rows = [[name, parent, calls, total, self_s]
                for (name, parent), (calls, total, self_s) in self.spans.items()]
        return sorted(rows, key=lambda r: -r[4])
