"""``scripts/bench_pairs.py --compare``: one revision's medians over another's."""
from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

OLD = {"work_per_s": 20.0, "item_p50_ms": 40.0, "item_p90_ms": 100.0,
       "peak_rss_mb": 70.0, "setup_s": 0.7}


def _write(path: Path, medians: dict, commands: dict | None = None) -> Path:
    """A document whose change medians are ``medians``; ``commands`` maps a
    command to ((change, parent) wall_s, (change, parent) peak_rss_mb)."""
    def side(value, parent=1.0):
        return {"change": {"median": value}, "parent": {"median": parent}}

    doc = {"workloads": {"bottleneck": {"metrics": {
        name: side(value) for name, value in medians.items()}}}}
    if commands is not None:
        doc["commands"] = {command: {"wall_s": side(*wall), "peak_rss_mb": side(*rss)}
                           for command, (wall, rss) in commands.items()}
    path.write_text(json.dumps(doc))
    return path


def test_compare_marks_only_ratios_beyond_the_bound(tmp_path, capsys):
    # work_per_s 0.74x (bound 0.25, higher is better) and peak_rss_mb 1.11x
    # (bound 0.1) are worse than their bounds; item_p90_ms 1.24x is not
    new = {**OLD, "work_per_s": 14.8, "item_p90_ms": 124.0, "peak_rss_mb": 77.7}
    argv = ["--compare", str(_write(tmp_path / "old.json", OLD)),
            str(_write(tmp_path / "new.json", new))]
    assert bench_pairs.main(argv) == 1
    worse = [line.split()[1] for line in capsys.readouterr().out.splitlines()
             if line.endswith("WORSE")]
    assert worse == ["work_per_s", "peak_rss_mb"]


def test_compare_passes_within_bounds(tmp_path, capsys):
    new = {**OLD, "work_per_s": 40.0, "item_p50_ms": 20.0, "setup_s": 0.87}
    argv = ["--compare", str(_write(tmp_path / "old.json", OLD)),
            str(_write(tmp_path / "new.json", new))]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "WORSE" not in out and " 2.000" in out and " 0.500" in out


def test_compare_prints_each_documents_command_ratio_without_a_verdict(tmp_path, capsys):
    # each document's own change/parent ratio: OLD's sides 0.4 s / 0.5 s, NEW's
    # 0.8 s / 0.4 s on a slower host; a command twice as slow as its parent
    # is reported, but commands carry no bound
    old = _write(tmp_path / "old.json", OLD, {"walk -n 4": ((0.4, 0.5), (40.0, 40.0)),
                                              "gone": ((1.0, 1.0), (1.0, 1.0))})
    new = _write(tmp_path / "new.json", OLD, {"walk -n 4": ((0.8, 0.4), (30.0, 40.0))})
    assert bench_pairs.main(["--compare", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.startswith("walk -n 4")]
    assert rows == [["walk", "-n", "4", "wall_s", "0.800", "2.000"],
                    ["walk", "-n", "4", "peak_rss_mb", "1.000", "0.750"]]
    assert not any("gone" in line or "WORSE" in line for line in lines)


def test_compare_skips_commands_missing_from_either_document(tmp_path, capsys):
    with_commands = _write(tmp_path / "new.json", OLD, {"walk -n 4": ((0.8, 1.0), (30.0, 1.0))})
    argv = ["--compare", str(_write(tmp_path / "old.json", OLD)), str(with_commands)]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "command" not in out and "wall_s" not in out
    assert len(out.splitlines()) == 1 + len(OLD)


def test_commands_time_each_side_in_a_fresh_process(monkeypatch):
    # one cheap command instead of the five pinned ones; both sides are this
    # checkout, so each run is a real child of ``python -m weldlab.cli``
    monkeypatch.setattr(bench_pairs, "COMMANDS", (("discovery", "-n", "2", "--trials", "20"),))
    doc = bench_pairs.time_commands({"parent": ROOT, "change": ROOT}, pairs=2)
    assert list(doc) == ["discovery -n 2 --trials 20"]
    metrics = doc["discovery -n 2 --trials 20"]
    assert set(metrics) == {"wall_s", "peak_rss_mb"}
    for metric in metrics.values():
        for side in ("parent", "change"):
            assert len(metric[side]["runs"]) == 2 and min(metric[side]["runs"]) > 0
            assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
        assert metric["better"] == "lower" and 0 <= metric["change_wins"] <= 2
    # a child is a whole interpreter with numpy loaded
    assert metrics["peak_rss_mb"]["change"]["median"] > 10


def test_run_command_raises_on_a_failing_command():
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.run_command(ROOT, ("discovery", "--trials", "0"))


@pytest.mark.parametrize("git_rev, rev", [("0123abc", "0123abc"), (None, "5eed")],
                         ids=["clone", "archive"])
def test_document_names_the_parent_by_revision_not_path(tmp_path, monkeypatch, git_rev, rev):
    # the parent's own git revision, else (no .git) its source digest, and
    # the --out file's bare name: no local path reaches the document
    parent_dir = tmp_path / "scratch" / "parent"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds):
        env = ({"git_rev": git_rev, "src_sha256": "5eed"} if checkout == parent_dir.resolve()
               else {"git_rev": "feed", "src_sha256": "f00d"})
        return {"environment": env}, {"metrics": {m: {"value": 1.0} for m in names},
                                      "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "time_commands", lambda checkouts, pairs: {})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent_dir), "--pairs", "2",
                             "--seconds", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == (f"python3 scripts/bench_pairs.py --parent <checkout of {rev}> "
                              f"--pairs 2 --seconds 0.5 --out BENCH.json")
    assert doc["environment"]["parent"]["git_rev"] == git_rev
    assert str(tmp_path) not in out.read_text()
