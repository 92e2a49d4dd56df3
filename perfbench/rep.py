"""One repetition of one workload, in a fresh process.

Started by run.py, never by hand.  The program is imported from the
checkout's src/; the result goes to the JSON file named by --result:

  setup_s      --spawn-t (the parent's CLOCK_MONOTONIC just before it
               started this process) to the first timed call
  wall_s       the timed call
  cpu_s        user + sys of this process and its reaped children over
               the timed call (pool workers are reaped before it returns)
  peak_rss_mb  the larger of this process's and its children's peak RSS
  attempted, failed, failures, digest   from the workload's checks
  layers, spans                         with --trace 1

With --build-cone PATH it builds and checks the scan's input cone instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def build_cone(out: Path, result: Path) -> int:
    """Build the scan's input cone, check it, then publish it at `out`."""
    from simplexfold import cli
    from workloads import SCAN_CONE, check_cone_json
    n, k, N = SCAN_CONE
    built = result.parent / "build" / "cone.json"
    rc = cli.main(["cone-build", "--n", str(n), "--k", str(k), "--N", str(N),
                   "--out", str(built), "--seed", "0"])
    if rc != 0:
        return rc
    errors = check_cone_json(json.loads(built.read_text()), scaled=True)
    result.write_text(json.dumps({"errors": errors}))
    built.replace(out)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--cone", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--build-cone", type=Path)
    args = ap.parse_args()

    import simplexfold
    if Path(simplexfold.__file__).resolve().parent != SRC / "simplexfold":
        print(f"simplexfold imported from {simplexfold.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.build_cone:
        return build_cone(args.build_cone, args.result)

    import numpy
    import scipy
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Ctx(seed=args.seed, jobs=args.jobs, work=args.work, cone_path=args.cone)
    wl.prepare(ctx)
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0, _ = _usage()
    t0 = time.perf_counter()
    setup_s = time.monotonic() - args.spawn_t
    result = {"setup_s": setup_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0
    error = None
    try:
        wl.run(ctx)
    except Exception:  # the checks below then count the missing outputs
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu1, rss = _usage()
    checked = wl.check(ctx)
    failures = checked.messages
    failed = checked.failed
    if error is not None:
        failures = [error] + failures
        failed = max(failed, 1)
    result.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=rss,
                  attempted=checked.attempted, failed=failed,
                  failures=failures[:20], digest=checked.digest)
    if tracer is not None:
        result["layers"] = tracer.report()
        result["spans"] = tracer.span_table()[:40]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
