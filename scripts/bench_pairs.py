"""Alternating parent/change runs of perfbench, summarized as one JSON document.

    python3 scripts/bench_pairs.py --parent DIR [--pairs 10] [--seconds 30] --out BENCH.json
    python3 scripts/bench_pairs.py --compare OLD.json NEW.json

DIR is a source checkout (a clone or worktree) of the commit to compare this
checkout against.  Pair i runs both checkouts on each workload with seed
900 + i, the parent first on odd pairs and the change first on even ones,
with the same ``perfbench/run.py --seconds`` setting.  For each
end-to-end metric the document holds every run's value, each side's median
and quartiles, the ratio of the medians (change over parent) and how many
pairs the change won.  Under ``commands`` it holds the same summary of the
wall time and peak RSS of the five ``weldlab`` commands that
``tests/test_reports.py`` pins, each run once per pair and side as a fresh
``python -m weldlab.cli`` process on that checkout's ``src``.

The document's ``command`` names the parent checkout by what it holds,
not by its local path: ``<checkout of REV>``, REV the parent side's own
``environment.git_rev``, or its ``src_sha256`` where the checkout has no
``.git`` (one made by ``git archive``).

``--compare`` reads two such documents and prints, for each workload and
end-to-end metric, the median of NEW's change side over that of OLD's (the
revision each document was made for), marking ``WORSE`` every ratio worse
than the metric's ``BENCHMARK.json`` bound; it exits 1 if any is.  Where
both documents hold ``commands`` it then prints, for each command's wall
time and peak RSS, each document's own change/parent ratio of medians: a
command's medians drift with the host between documents far more than
its sides differ within one.  These rows carry no bound and never set the
exit code.  Both documents should come from the same host and ``--seconds``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("blind-walks", "exact-wide", "bottleneck")
COMMANDS = (("simulate", "-n", "2"),
            ("simulate", "--circuit", "scripts/circuits/entrance_query_n2.txt"),
            ("walk", "-n", "4"),
            ("discovery", "-n", "3"),
            ("e2e", "--config", "scripts/configs/e2e_n9.json"))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result) of one untraced perfbench run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def run_command(checkout: Path, argv: tuple[str, ...]) -> dict:
    """Wall time and peak RSS (``os.wait4``'s rusage) of one ``weldlab``
    command, run as a fresh process in ``checkout`` on its ``src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "weldlab.cli", *argv], cwd=checkout,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return {"wall_s": {"value": wall}, "peak_rss_mb": {"value": usage.ru_maxrss / 1024}}


def time_commands(checkouts: dict[str, Path], pairs: int) -> dict:
    """Per command in COMMANDS, the pair summary of its wall time and peak RSS,
    the sides alternating first as the workloads' pairs do."""
    out = {}
    for argv in COMMANDS:
        runs = []
        for i in range(1, pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            runs.append({side: {"metrics": run_command(checkouts[side], argv)} for side in order})
        out[" ".join(argv)] = compare(runs, {"wall_s": "lower", "peak_rss_mb": "lower"})
        print(f"{' '.join(argv)} done", file=sys.stderr)
    return out


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


def compare_docs(old: dict, new: dict, end_to_end: list[dict]) -> list[tuple]:
    """(workload, metric, OLD median, NEW median, NEW/OLD, worse than the bound)
    for every workload both documents hold, from each document's change side."""
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            before, after = (doc["workloads"][workload]["metrics"][name]["change"]["median"]
                             for doc in (old, new))
            ratio = after / before
            worse = ratio < 1 - bound if metric["better"] == "higher" else ratio > 1 + bound
            rows.append((workload, name, before, after, ratio, worse))
    return rows


def compare_commands(old: dict, new: dict) -> list[tuple]:
    """(command, metric, OLD's change/parent, NEW's change/parent) for every
    command both documents time, each ratio of that document's own medians;
    none if either document has no ``commands``."""
    if "commands" not in old or "commands" not in new:
        return []
    rows = []
    for command in sorted(set(old["commands"]) & set(new["commands"])):
        for metric in ("wall_s", "peak_rss_mb"):
            rows.append((command, metric, *(
                doc["commands"][command][metric]["change"]["median"]
                / doc["commands"][command][metric]["parent"]["median"] for doc in (old, new))))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        rows = compare_docs(old, new, end_to_end)
        print(f"{'workload':<12} {'metric':<12} {'old':>10} {'new':>10} {'new/old':>8}")
        for workload, name, before, after, ratio, worse in rows:
            print(f"{workload:<12} {name:<12} {before:>10.4g} {after:>10.4g} {ratio:>8.3f}"
                  + ("  WORSE" if worse else ""))
        commands = compare_commands(old, new)
        width = max((len(row[0]) for row in commands), default=0)
        if commands:
            print(f"\n{'command':<{width}} {'metric':<12} {'old c/p':>8} {'new c/p':>8}")
        for command, name, before, after in commands:
            print(f"{command:<{width}} {name:<12} {before:>8.3f} {after:>8.3f}")
        return int(any(row[-1] for row in rows))
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required unless --compare is given")
    better = {m["name"]: m["better"] for m in end_to_end}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    doc = {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
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
    doc["commands"] = time_commands(checkouts, args.pairs)
    parent = doc["environment"]["parent"]
    doc["command"] = (f"python3 scripts/bench_pairs.py --parent <checkout of "
                      f"{parent['git_rev'] or parent['src_sha256']}> --pairs {args.pairs} "
                      f"--seconds {args.seconds:g} --out {args.out}")
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
