"""weldlab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {blind-walks,exact-wide,bottleneck}
        --seed N --seconds S --trace {0,1}

Run from a source checkout (the package is imported from ``src/``; nothing
is installed).  Every workload runs in fresh single-threaded processes
(``worker.py``) with BLAS/OpenMP pinned to one thread and ``jobs=1``, as a
closed loop with one client: the next item starts when the previous ends.

``--trace 0`` runs the workload untraced for S seconds and reports the
end-to-end metrics: set-up time (median over SETUP_RUNS fresh processes),
work per second, median and 90th-percentile item latency, and the peak RSS
of the process that ran the items.  Times are scaled to a reference machine
speed measured around every item (see worker.py); the info line carries
the unscaled figures too.  ``--trace 1`` runs it with every traced
function wrapped (``tracer.py``) and reports the per-layer metrics; it then
reruns the first half of those items untraced to measure the tracing
overhead, and writes the spans to ``.perfbench_out/trace-<workload>.npz``.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it records the environment (source digest,
git rev when there is one, nproc, Python/numpy/scipy versions), the sample
count behind each percentile and the failure ratio.  An item fails if it
raises, if a check of the package fails, or if its output departs from the
stored reference (``reference.py``).  ``selftest.py`` smoke-tests all this.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("blind-walks", "exact-wide", "bottleneck")
SETUP_RUNS = 3              # fresh processes whose set-up time gives the median
CHILD_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WELDLAB_JOBS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Start worker.py, wait for it, and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def environment(child: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": child["python"],
            "numpy": child["numpy"], "scipy": child["scipy"]}


def _failures(run: dict) -> tuple[int, int, list[str]]:
    errors = list(run["failures"])
    if run["warmup_error"]:
        errors.insert(0, run["warmup_error"])
    return run["attempted"], run["failed"] + bool(run["warmup_error"]), errors


def untraced(base: list[str], seconds: float, reference: list[str]) -> tuple[dict, dict, dict]:
    setups = [run_worker(base + ["--setup-only"] + reference)]
    main = run_worker(base + ["--seconds", str(seconds)] + reference)
    setups.append(main)
    while len(setups) < SETUP_RUNS:
        setups.append(run_worker(base + ["--setup-only"] + reference))
    if "work_per_s" not in main:
        raise BenchError(f"only {main['samples']} items completed; need at least 2")
    values = {name: main[name] for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    info = {"samples": {"setup_s": len(setups), "item_p50_ms": main["samples"],
                        "item_p90_ms": main["samples"], "work_per_s": main["samples"]},
            "setup_s_runs": [s["setup_s"] for s in setups],
            "unscaled": dict(main["wall"], setup_s=statistics.median(
                s["setup_wall_s"] for s in setups)),
            "median_speed": main["speed"], "items_in_list": main["items"],
            "loop_s": main["loop_s"], "work_unit": main["unit"]}
    return main, metrics, info


def traced(base: list[str], seconds: float, reference: list[str], workload: str
           ) -> tuple[dict, dict, dict]:
    from tracer import per_layer_metrics
    trace_path = OUT_DIR / f"trace-{workload}.npz"
    main = run_worker(base + ["--seconds", str(seconds), "--trace",
                              "--trace-out", str(trace_path)] + reference)
    # the first half of the traced items again, untraced
    half = max(1, len(main["elapsed"]) // 2)
    replay = run_worker(base + ["--items", str(half)] + reference)
    values = main["per_layer"]
    values["harness.trace_overhead_ratio"] = main["elapsed"][half - 1] / replay["loop_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in per_layer_metrics()}
    info = {"absent": main["absent"], "trace_file": str(trace_path.relative_to(ROOT)),
            "spans_kept": main["spans_kept"], "spans_dropped": main["spans_dropped"],
            "overhead_items": half, "traced_s": main["elapsed"][half - 1],
            "untraced_s": replay["loop_s"]}
    return main, metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=None,
                   help="run this many items instead of timing (smoke tests)")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference file to check against instead of the stored one")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "weldlab" / "__init__.py").is_file():
        sys.stderr.write(f"no weldlab sources under {ROOT / 'src'}\n")
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    reference = ["--reference", str(args.reference.resolve())] if args.reference else []
    limit = ["--items", str(args.items)] if args.items else []
    seconds = args.seconds if not args.items else 1e9
    try:
        if args.trace:
            run, metrics, info = traced(base + limit, seconds, reference, args.workload)
        else:
            run, metrics, info = untraced(base + limit, seconds, reference)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted, failed, errors = _failures(run)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failed_ratio=failed / max(attempted, 1), failures=errors,
                environment=environment(run))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
