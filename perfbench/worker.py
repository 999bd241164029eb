"""One workload in one fresh process; started by run.py, prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S --t0 T
        [--seconds X | --items K] [--trace] [--setup-only] [--reference PATH]
        [--trace-out PATH]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up and imports as well as
the workload's own set-up and warm-up.  The timed loop walks the item list
in order, wrapping around, until ``--seconds`` have passed or ``--items``
items have run.  Latency and throughput are taken from each list item's
median latency, so the metrics do not depend on how far the last pass got.

Times are reported at a reference machine speed.  On a shared host the
speed of one core drifts by up to 1.75x within a minute, and that drift
moves every item alike.  A short fixed probe (``probe_s``) is timed
between consecutive items; an item's wall time is scaled by
``PROBE_REF_S`` over the median of the probes taken within
``SPEED_WINDOW_S`` of the item's midpoint (its own two probes at least), so
the scale follows the drift but not the jitter of single probes.  Set-up
time is scaled by probes taken at process start and after warm-up.  The
unscaled figures are reported beside the scaled ones.
"""
from __future__ import annotations

import argparse
import bisect
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

MAX_REPORTED_FAILURES = 5
PROBE_LOOPS = 10_000
PROBE_REF_S = 0.0025        # probe time at the reference speed
SPEED_WINDOW_S = 2.0


def probe_s() -> float:
    """Time a fixed loop of integer and dict work: the core's current speed."""
    t = time.perf_counter()
    d: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        k = (i * 2654435761) & 0xFFFF
        d[k] = d.get(k, 0) + i
        acc ^= k
    return time.perf_counter() - t


def scale(timed, probes_at):
    """Per-item scaled and wall latencies, and each sample's speed factor."""
    scaled: dict[str, list[float]] = defaultdict(list)
    wall: dict[str, list[float]] = defaultdict(list)
    speeds = []
    times = [t for t, _p in probes_at]
    for key, start, end in timed:
        mid = (start + end) / 2
        lo = min(bisect.bisect_left(times, mid - SPEED_WINDOW_S),
                 bisect.bisect_left(times, start) - 1)
        hi = max(bisect.bisect_right(times, mid + SPEED_WINDOW_S),
                 bisect.bisect_right(times, end) + 1)
        speed = PROBE_REF_S / statistics.median(p for _t, p in probes_at[max(lo, 0):hi])
        speeds.append(speed)
        wall[key].append(end - start)
        scaled[key].append((end - start) * speed)
    return scaled, wall, speeds


def summarize(items, samples: dict[str, list[float]]) -> dict:
    """Median, 90th percentile and throughput over the list items' median latencies."""
    medians = {key: statistics.median(ts) for key, ts in samples.items()}
    units = {item.key: item.units for item in items}
    lat = sorted(medians.values())
    if len(lat) < 2:
        return {}
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {"item_p50_ms": statistics.median(lat) * 1e3, "item_p90_ms": q[8] * 1e3,
            "work_per_s": sum(units[k] for k in medians) / sum(lat)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--items", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", type=Path, default=None)
    args = p.parse_args(argv)

    probes = [probe_s() for _ in range(3)]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work_start = time.perf_counter()

    import numpy
    import scipy
    import weldlab
    import workloads as W

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(weldlab.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"weldlab imported from {weldlab.__file__}, not {src}\n")
        return 2

    items = W.SETUP_BY_WORKLOAD[args.workload](args.seed, args.reference)
    warm = min(items, key=lambda it: it.units)
    warmup_error = None
    try:
        warm.run()
    except Exception as exc:  # reported like an item failure
        warmup_error = f"warm-up {warm.key}: {type(exc).__name__}: {exc}"
    setup_wall_s = time.monotonic() - args.t0
    probes += [probe_s() for _ in range(3)]
    setup_speed = PROBE_REF_S / statistics.median(probes)
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_wall_s * setup_speed, "setup_wall_s": setup_wall_s,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "warmup_error": warmup_error}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    timed: list[tuple[str, float, float]] = []   # (item, start, end) of successful items
    probes_at: list[tuple[float, float]] = []   # (time, probe seconds)
    attempted = failed = 0
    failures: list[str] = []
    elapsed: list[float] = []           # loop time after each item
    loop_start = time.perf_counter()
    deadline = loop_start + (args.seconds if args.seconds is not None else float("inf"))
    probes_at.append((time.perf_counter(), probe_s()))
    while (attempted < args.items) if args.items is not None else (time.perf_counter() < deadline):
        item = items[attempted % len(items)]
        attempted += 1
        t = time.perf_counter()
        try:
            item.run()
        except Exception as exc:  # an item failure is a result, the loop goes on
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, W.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
        else:
            timed.append((item.key, t, time.perf_counter()))
        probes_at.append((time.perf_counter(), probe_s()))
        elapsed.append(time.perf_counter() - loop_start)
    loop_s = time.perf_counter() - loop_start

    samples, wall, speeds = scale(timed, probes_at)
    result.update(summarize(items, samples), attempted=attempted, failed=failed,
                  wall=summarize(items, wall),
                  speed=statistics.median(speeds) if speeds else None,
                  samples=len(samples), failures=failures, items=len(items), loop_s=loop_s,
                  unit=W.UNITS[args.workload],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(time.perf_counter() - work_start, attempted)
        result["absent"] = tracer.absent
        result["elapsed"] = elapsed
        result["spans_kept"] = len(tracer.start_ns)
        result["spans_dropped"] = tracer.dropped
        if args.trace_out:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
