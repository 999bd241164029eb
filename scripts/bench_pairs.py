"""Alternating parent/change runs of perfbench, summarized as one JSON document.

    python3 scripts/bench_pairs.py --parent DIR [--pairs 10] [--seconds 30] --out BENCH.json

DIR is a source checkout (a clone or worktree) of the commit to compare this
checkout against.  Pair i runs both checkouts on each workload with seed
900 + i, the parent first on odd pairs and the change first on even ones,
with the same ``perfbench/run.py --seconds`` setting.  For each
end-to-end metric the document holds every run's value, each side's median
and quartiles, the ratio of the medians (change over parent) and how many
pairs the change won.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("blind-walks", "exact-wide", "bottleneck")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result) of one untraced perfbench run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric, sense in better.items():
        sides = {side: [r[side]["metrics"][metric]["value"] for r in runs]
                 for side in ("parent", "change")}
        wins = sum((c > p) if sense == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: summary(values) for side, values in sides.items()}
        out[metric] = {**{side: {"runs": sides[side], **stats[side]} for side in sides},
                       "ratio_of_medians": stats["change"]["median"] / stats["parent"]["median"],
                       "change_wins": wins, "better": sense}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    doc = {"command": " ".join(["python3", "scripts/bench_pairs.py"] + sys.argv[1:]),
           "pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"seed": 900 + i, "first": order[0]}
            for side in order:
                info, result = run(checkouts[side], workload, 900 + i, args.seconds)
                pair[side] = {"metrics": result["metrics"], "attempted": result["attempted"],
                              "failed": result["failed"]}
                doc.setdefault("environment", {})[side] = info["environment"]
            runs.append(pair)
            print(f"{workload} pair {i} done", file=sys.stderr)
        doc["workloads"][workload] = {
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in checkouts},
            "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in checkouts},
            "metrics": compare(runs, better), "seeds": [r["seed"] for r in runs],
            "first": [r["first"] for r in runs]}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
