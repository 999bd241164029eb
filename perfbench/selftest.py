"""Self-test of the benchmark.

    python3 perfbench/selftest.py                 # smoke run, about a minute
    python3 perfbench/selftest.py --acceptance 30 # full traced runs and layer checks

The smoke run checks, at a few items per workload, that every metric named
in BENCHMARK.json is emitted, that a deliberately corrupted reference
raises the failure ratio, and that the tracer leaves no wrapper behind.
``--acceptance`` runs each workload traced for the given seconds and checks
that the layers each workload is meant to bypass stay bypassed, and that
every traced span and counter that exists in the code is reached.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import inputs as I
import reference as R
import run as bench

SMOKE_ITEMS = 3
CORRUPTED = ("exact-wide", "bottleneck")


def bench_result(*args: str) -> tuple[dict, dict]:
    """(info, result) of one run.py invocation."""
    proc = subprocess.run([sys.executable, str(bench.HERE / "run.py"), *args],
                          cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=2 * bench.CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def declared() -> dict[str, set[str]]:
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"] for m in doc["end_to_end"]},
            "per_layer": {m["name"] for m in doc["per_layer"]}}


def corrupt(workload: str, seed: int) -> Path:
    """A copy of the reference in which every other item of the run is wrong."""
    doc = R.load(R.path_for(workload))
    specs = I.exact_wide_items(seed) if workload == "exact-wide" else I.bottleneck_items(seed)
    for spec in specs[1::2]:
        ref = doc["items"][spec.key]
        if workload == "exact-wide":
            ref["transcript"]["queries"] += 1
        else:
            ref["report"]["output"] ^= 1
    path = bench.OUT_DIR / f"corrupt-{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def tracer_roundtrip() -> None:
    """In a process that imports weldlab: install, use, uninstall, compare."""
    import weldlab.harness  # noqa: F401
    import workloads as W
    from tracer import Tracer

    def bindings() -> dict:
        out = {}
        for name, module in sorted(sys.modules.items()):
            if name == "weldlab" or name.startswith("weldlab."):
                for attr, value in vars(module).items():
                    out[(name, attr)] = value
                    if isinstance(value, type) and value.__module__ == name:
                        for cattr, cvalue in vars(value).items():
                            out[(name, attr, cattr)] = cvalue
        return out

    before = bindings()
    tracer = Tracer()
    tracer.install()
    changed = [k for k, v in bindings().items() if before.get(k) is not v]
    for must in (("weldlab.bottleneck", "sample_consistent"),
                 ("weldlab.bottleneck", "quantum_layer_sim"),
                 ("weldlab.bottleneck", "_quantum_tier_state"),
                 ("weldlab.bottleneck", "derive_seed"),
                 ("weldlab.walk", "make_rng"),
                 ("weldlab.tree", "OracleHandle", "query")):
        assert must in changed, f"tracer did not wrap {must}"
    spec, circuit, bbt = W.bottleneck_inputs(0)[0]
    W.run_bottleneck(spec, circuit, bbt)
    assert tracer.calls["bottleneck.bottleneck_wrapper"] == 2, dict(tracer.calls)
    tracer.uninstall()
    after = bindings()
    moved = [k for k, v in before.items() if after.get(k) is not v]
    assert not moved, f"bindings not restored: {moved[:5]}"
    left = [k for k, v in after.items() if hasattr(v, "__perfbench_original__")]
    assert not left, f"wrappers left behind: {left[:5]}"


def smoke() -> None:
    names = declared()
    for workload in bench.WORKLOADS:
        common = ["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--items", str(SMOKE_ITEMS)]
        info, res = bench_result(*common, "--trace", "0")
        assert res["correct"] and res["failed"] == 0, (workload, info["failures"])
        assert set(res["metrics"]) == names["end_to_end"], (workload, sorted(res["metrics"]))
        assert res["attempted"] == SMOKE_ITEMS
        info, res = bench_result(*common, "--trace", "1")
        assert set(res["metrics"]) == names["per_layer"], (workload, sorted(res["metrics"]))
        print(f"ok   {workload}: every declared metric emitted", flush=True)
        if workload in CORRUPTED:
            info, res = bench_result(*common, "--trace", "0",
                                     "--reference", str(corrupt(workload, 1)))
            assert not res["correct"] and info["failed_ratio"] > 0, (workload, info)
            print(f"ok   {workload}: corrupted reference gives failed_ratio "
                  f"{info['failed_ratio']:.2f}", flush=True)
    proc = subprocess.run([sys.executable, __file__, "--tracer-roundtrip"],
                          env=bench.child_env(), cwd=bench.ROOT, capture_output=True,
                          text=True, timeout=bench.CHILD_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    print("ok   tracer wraps every binding and restores them all", flush=True)


def acceptance(seconds: int) -> None:
    import tracer as T
    reached: set[str] = set()
    absent: set[str] = set()
    shares = {}
    for workload in bench.WORKLOADS:
        info, res = bench_result("--workload", workload, "--seed", "1",
                                 "--seconds", str(seconds), "--trace", "1")
        assert res["failed"] == 0, (workload, info["failures"])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        absent |= set(info["absent"])
        reached |= {k[: -len(".calls")] for k, v in m.items() if k.endswith(".calls") and v}
        shares[workload] = m
        print(f"{workload}: overhead {m['harness.trace_overhead_ratio']:.2f}x, "
              f"support_max {m['statevec.apply_layer.support_max']:.0f}, shares "
              + ", ".join(f"{mod} {m[mod + '.share']:.4f}" for mod in T.MODULES), flush=True)
    bw, ew, bn = (shares[w] for w in bench.WORKLOADS)
    bypass = bw["statevec.share"] + bw["hybrid_sim.share"] + bw["bottleneck.share"]
    assert bypass < 0.01, f"blind-walks spends {bypass:.4f} in executor/simulator spans"
    assert ew["tree.sample_consistent.calls"] == 0 and ew["bottleneck.share"] < 0.01
    assert bn["statevec.apply_layer.support_max"] <= 2 ** 10
    assert ew["statevec.apply_layer.support_max"] >= 2 ** 16
    missing = [s for s in T.SPANS + T.COUNTED if s not in absent and s not in reached]
    assert not missing, f"never reached: {missing}"
    print(f"ok   acceptance; absent from the code: {sorted(absent) or 'none'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--acceptance", type=int, default=None, metavar="SECONDS")
    p.add_argument("--tracer-roundtrip", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.tracer_roundtrip:
        tracer_roundtrip()
    elif args.acceptance:
        acceptance(args.acceptance)
    else:
        smoke()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
