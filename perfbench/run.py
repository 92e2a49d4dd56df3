"""simplexfold benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload scan|cone|fold|census \\
        --seed N --seconds T --trace 0|1

Run it from the root of a checkout; the program is imported from src/.

--trace 0 repeats the workload, each repetition in a fresh process (see
rep.py), until --seconds have been measured (at least MIN_REPS
repetitions), then adds set-up-only processes until SETUP_SAMPLES set-ups
have been timed.  It reports the medians of setup_s, wall_s, cpu_s and
peak_rss_mb and ok_frac, the share of operations whose outputs passed every
check.

--trace 1 runs the workload once untraced and once with every function in
layers.LAYERS wrapped, both at --jobs 1 so that the scan's worker-side
layers are visible, and reports the per-layer metrics of the traced
repetition, the tracing overhead (traced wall_s / untraced wall_s) and a
self-check that every layer the workload should reach fired.  The scan
adds one untraced repetition at its own two jobs, so that its CSV is
compared across --jobs.

Every repetition of one seed must produce byte-identical outputs; a
repetition that differs counts all of its operations as failed.  The last
line of standard output is the result object; the line before it is the
full report (environment, raw per-repetition values, failures, spans).
Scratch files and the cached scan cone live in .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "simplexfold"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = tuple(layers.EXPECTED)   # scan, cone, fold, census
MIN_REPS = 2
MAX_REPS = 12
SETUP_SAMPLES = 5
RUN_LIMIT_S = 165.0
CONE_BUILD_LIMIT_S = 600.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "SIMPLEXFOLD_JOBS")


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(rep_args: list[str], result: Path, timeout: float):
    """Run rep.py in a fresh process group; return (result or None, seconds)."""
    t = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *rep_args,
         "--spawn-t", repr(t), "--result", str(result)],
        stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f}s", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    elapsed = time.monotonic() - t
    if proc.returncode != 0 or not result.is_file():
        return None, elapsed
    return json.loads(result.read_text()), elapsed


def ensure_cone(deadline: float) -> tuple[Path, list[str]]:
    """The scan's (2,2,8) cone, built once per source version and checked."""
    path = BUILD / f"cone-2-2-8-{source_hash()[:16]}.json"
    errors_path = path.with_suffix(".check.json")
    if not (path.is_file() and errors_path.is_file()):
        tmp = Path(tempfile.mkdtemp(prefix="cone-", dir=BUILD))
        try:
            res, _ = spawn(["--build-cone", str(path)], tmp / "r.json",
                           deadline - time.monotonic())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if res is None or not path.is_file():
            return path, ["building the (2,2,8) input cone failed"]
        errors_path.write_text(json.dumps(res["errors"]))
    return path, json.loads(errors_path.read_text())


def median(xs):
    return statistics.median(xs) if xs else None


def run(args) -> tuple[dict, dict]:
    t_start = time.monotonic()
    jobs = min(2, os.cpu_count() or 1)
    cone_errors: list[str] = []
    cone = None
    if args.workload == "scan":
        cone, cone_errors = ensure_cone(t_start + CONE_BUILD_LIMIT_S)
    t_measure = time.monotonic()
    deadline = t_measure + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    reps: list[dict] = []
    setups: list[float] = []

    def rep(label: str, rep_jobs: int, trace: int, setup_only: bool = False):
        d = work / f"rep{len(reps)}-{len(setups)}"
        d.mkdir()
        rep_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--jobs", str(rep_jobs), "--trace", str(trace), "--work", str(d)]
        if cone is not None:
            rep_args += ["--cone", str(cone)]
        if setup_only:
            rep_args.append("--setup-only")
        res, elapsed = spawn(rep_args, d / "result.json", deadline - time.monotonic())
        shutil.rmtree(d, ignore_errors=True)
        if res is not None:
            setups.append(res["setup_s"])
        if not setup_only:
            reps.append({"label": label, "jobs": rep_jobs, "trace": trace,
                         "elapsed_s": elapsed, "result": res})

    try:
        if args.trace:
            if args.workload == "scan":
                rep("untraced", jobs, 0)   # outputs must not depend on --jobs
            rep("untraced-jobs1", 1, 0)
            rep("traced", 1, 1)
        else:
            while time.monotonic() < deadline:
                rep("untraced", jobs, 0)
                est = median([r["elapsed_s"] for r in reps])
                spent = time.monotonic() - t_measure
                if len(reps) >= MAX_REPS or (len(reps) >= MIN_REPS and spent + est > args.seconds):
                    break
            for _ in range(SETUP_SAMPLES - len(setups)):
                if time.monotonic() + 5 < deadline:
                    rep("setup", jobs, 0, setup_only=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, jobs, reps, setups, cone_errors)


def summarize(args, jobs, reps, setups, cone_errors) -> tuple[dict, dict]:
    done = [r for r in reps if r["result"] is not None]
    if not done:
        raise RuntimeError("no repetition produced a result")
    ops = max(r["result"]["attempted"] for r in done)
    attempted = failed = 0
    failures = [f"input cone: {e}" for e in cone_errors]
    digest = done[0]["result"]["digest"]
    for i, r in enumerate(reps):
        res = r["result"]
        if res is None:
            attempted += ops
            failed += ops
            failures.append(f"rep {i} ({r['label']}): process failed")
            continue
        attempted += res["attempted"]
        bad = res["failed"]
        failures += [f"rep {i}: {m}" for m in res["failures"]]
        if res["digest"] != digest:
            bad = res["attempted"]
            failures.append(f"rep {i} ({r['label']}, jobs {r['jobs']}): outputs differ "
                            "from rep 0 at the same seed")
        if cone_errors:
            bad = res["attempted"]
        failed += bad

    correct = failed == 0
    if args.trace:
        traced = next(r["result"] for r in reps if r["label"] == "traced")
        base = next(r["result"] for r in reps if r["label"] == "untraced-jobs1")
        if traced is None or base is None:
            raise RuntimeError("the traced or the untraced reference repetition failed")
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = base["wall_s"]
        metrics["trace.traced_wall_s"] = traced["wall_s"]
        metrics["trace.overhead"] = traced["wall_s"] / base["wall_s"]
        missing = [name for name in layers.EXPECTED[args.workload]
                   if metrics[f"{name}.calls"] < 1]
        if missing:
            correct = False
            failures.append(f"trace self-check: layers never reached: {missing}")
        units = {name: unit for name, unit, _better in layers.metric_names()}
    else:
        untraced = [r["result"] for r in done]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in untraced]),
            "cpu_s": median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "ok_frac": "ratio"}

    versions = done[0]["result"]["versions"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_commit": git_commit(), "source_sha256": source_hash(),
            **versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            "jobs": jobs,
        },
        "medians": metrics if not args.trace else None,
        "setup_s_raw": setups,
        "reps": [{"label": r["label"], "jobs": r["jobs"], "trace": r["trace"],
                  "elapsed_s": r["elapsed_s"],
                  **({k: r["result"][k] for k in ("setup_s", "wall_s", "cpu_s",
                                                   "peak_rss_mb", "attempted", "failed",
                                                   "digest")}
                     if r["result"] is not None else {"failed": "process"})}
                 for r in reps],
        "failures": failures[:40],
    }
    if args.trace:
        report["spans"] = traced["spans"]
        report["layer_moves"] = {layer.name: layer.moves for layer in layers.LAYERS}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in report["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
