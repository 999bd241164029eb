from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from weldlab import cli, tree
from weldlab.harness import (ExperimentConfig, cmd_discovery, cmd_simulate,
                             cmd_walk, discovery_bound, discovery_rate,
                             run_command, write_report)


def test_config_json_round_trip():
    cfg = ExperimentConfig(experiment="walk", n=5, seed=3, h_values=(1, 2))
    text = json.dumps(cfg.to_jsonable())
    back = ExperimentConfig.from_json(text)
    assert back == cfg


def test_discovery_bound_value():
    assert discovery_bound(3, 1) == 30 / 64
    assert discovery_bound(4, 0) == 0.0


def test_discovery_rate_deterministic_and_job_invariant():
    a = discovery_rate(3, 4, trials=2000, seed=7, jobs=1)
    b = discovery_rate(3, 4, trials=2000, seed=7, jobs=1)
    assert a == b
    c = discovery_rate(3, 4, trials=2000, seed=7, jobs=3)
    assert a == c
    # enough trials for several chunks, so jobs=3 really maps them over workers
    assert discovery_rate(3, 4, trials=20_000, seed=7, jobs=1) \
        == discovery_rate(3, 4, trials=20_000, seed=7, jobs=3)


def _exact_discovery_rate(n: int, h: int) -> Fraction:
    """(V - E|labels seen|) / 2^(2n), enumerating all 9^h color sequences.

    A guess hits exactly the labels of vertices the walk never stood on.
    For h <= n every walk stays inside the entrance's binary tree, which is
    the same in every welded tree, so one tree gives the exact value.
    """
    bbt = tree.make_blackbox(n, 0)
    seen_total = 0
    for colors in itertools.product(range(1, 10), repeat=h):
        cur, seen = 0, {0}
        for c in colors:
            ans = bbt.answer(cur, c)
            if ans != bbt.invalid:
                cur = ans
                seen.add(ans)
        seen_total += len(seen)
    V = bbt.structure.vertex_count
    return Fraction(V * 9 ** h - seen_total, 9 ** h * 2 ** (2 * n))


@pytest.mark.parametrize("n,h", [(3, 0), (3, 1), (2, 2)])
def test_discovery_rate_exact_expectation(n, h):
    exact = _exact_discovery_rate(n, h)
    # closed forms: h=0 hits any of the V-1 non-entrance labels; at h=1 the
    # query leaves the entrance on d=2 of 9 colors, and the guess must then
    # miss that label too (259/576 at n=3)
    V, space, d = (1 << (n + 2)) - 2, 1 << (2 * n), 2
    if h == 0:
        assert exact == Fraction(V - 1, space)
    if h == 1:
        assert exact == Fraction((9 - d) * (V - 1) + d * (V - 2), 9 * space)
    trials = 20_000
    rate, _ = discovery_rate(n, h, trials=trials, seed=21)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 5 * sigma


def test_walk_report_deterministic(tmp_path):
    cfg = ExperimentConfig(experiment="walk", n=3, trials=500, steps=100,
                           out=str(tmp_path / "r.jsonl"))
    r1 = cmd_walk(cfg)
    r2 = cmd_walk(cfg)
    assert r1.to_json() == r2.to_json()
    assert r1.ok()


def test_simulate_report_runs():
    cfg = ExperimentConfig(experiment="simulate", n=2, samples=8, seed=1)
    rep = cmd_simulate(cfg)
    assert rep.ok()
    names = [c.name for c in rep.checks]
    assert "fidelity identity gap <= 1e-10" in names


def test_discovery_report_statistical_fields():
    cfg = ExperimentConfig(experiment="discovery", n=3, trials=2000,
                           h_values=(1,))
    rep = cmd_discovery(cfg)
    chk = rep.checks[0]
    assert chk.kind == "statistical" and chk.sigma is not None
    assert rep.ok()


def test_report_append_only(tmp_path):
    out = tmp_path / "log.jsonl"
    cfg = ExperimentConfig(experiment="discovery", n=3, trials=500,
                           h_values=(1,), out=str(out))
    rep = cmd_discovery(cfg)
    l1 = write_report(rep, str(out))
    l2 = write_report(rep, str(out))
    assert l1 == l2
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    doc = json.loads(lines[0])
    assert doc["schema_version"] == 1
    assert {"checks", "config", "environment", "experiment"} <= set(doc)


def test_cli_main_exit_code(tmp_path):
    out = tmp_path / "cli.jsonl"
    code = cli.main(["walk", "-n", "3", "--trials", "200", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "cli.jsonl.walk-n3.csv").exists()


def test_cli_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        ExperimentConfig(experiment="discovery", n=3, trials=400,
                         h_values=(1,)).to_jsonable()))
    code = cli.main(["discovery", "--config", str(cfg_path), "--seed", "9"])
    assert code == 0


def test_cli_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["discovery", "-n", "3", "--trials", "300", "--seed", "4"]
    cli.main(argv + ["--out", str(out1)])
    cli.main(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("trials, budget, message", [
    (0, 3, "trials must be >= 1, got 0"),
    (5, -1, "query budget must be >= 0, got -1"),
])
def test_discovery_rate_rejects_bad_counts(trials, budget, message):
    with pytest.raises(ValueError, match=f"discovery_rate: {message}"):
        discovery_rate(3, budget, trials=trials, seed=0)


def test_cli_bad_trials_exit_2(capsys):
    assert cli.main(["discovery", "-n", "3", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("weldlab discovery: error: discovery_rate: "
                            "trials must be >= 1, got 0\n")
    assert cli.main(["walk", "-n", "3", "--trials", "0"]) == 2
    assert "walker_success_rate: trials must be >= 1" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_command(ExperimentConfig(experiment="nope"))


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "weldlab.cli", "discovery",
                           "-n", "3", "--trials", "200"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["experiment"] == "discovery"
