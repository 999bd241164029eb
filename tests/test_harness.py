from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import weldlab
from weldlab import cli, harness, tree, walk
from weldlab.harness import (ExperimentConfig, cmd_discovery, cmd_simulate,
                             cmd_walk, discovery_bound, discovery_rate,
                             run_command, write_report)
from weldlab.rng import derive_seed, make_rng


def test_config_json_round_trip():
    cfg = ExperimentConfig(experiment="walk", n=5, seed=3, h_values=(1, 2))
    text = json.dumps(cfg.to_jsonable())
    back = ExperimentConfig.from_json(text)
    assert back == cfg


def test_discovery_bound_value():
    assert discovery_bound(3, 1) == 30 / 64
    assert discovery_bound(4, 0) == 0.0


def _spy_chunks(monkeypatch) -> list[int]:
    """One entry per ``_discovery_chunk`` call: the path cells its walks hold."""
    cells: list[int] = []
    chunk, walks = harness._discovery_chunk, walk.blind_walks

    def spy_chunk(args):
        cells.append(0)
        return chunk(args)

    def spy_walks(neighbors, budget, trials, rng):
        path = walks(neighbors, budget, trials, rng)
        cells[-1] = path.size
        return path

    monkeypatch.setattr(harness, "_discovery_chunk", spy_chunk)
    monkeypatch.setattr(walk, "blind_walks", spy_walks)
    return cells


def test_discovery_rate_deterministic_and_job_invariant(monkeypatch):
    a = discovery_rate(3, 4, trials=2000, seed=7, jobs=1)
    b = discovery_rate(3, 4, trials=2000, seed=7, jobs=1)
    assert a == b
    c = discovery_rate(3, 4, trials=2000, seed=7, jobs=3)
    assert a == c
    cells = _spy_chunks(monkeypatch)
    serial = discovery_rate(3, 4, trials=40_000, seed=7, jobs=1)
    # 4 chunks of at most 13107 trials, so jobs=3 really maps them over workers
    assert len(cells) == 4
    monkeypatch.undo()      # process pools pickle the real chunk function
    assert serial == discovery_rate(3, 4, trials=40_000, seed=7, jobs=3)


@pytest.mark.parametrize("n, h, trials, chunks", [
    (3, 16, 1000, 1), (5, 16, 400, 1), (3, 4, 20_000, 2), (3, 4, 40_000, 4)])
def test_discovery_chunks_hold_at_most_batch_cells(monkeypatch, n, h, trials, chunks):
    # the benchmark's largest discovery cells run as one lockstep chunk; a
    # full chunk (13107 trials at h=4) still fits its paths, and a count that
    # is no multiple of it ends in one short chunk
    cells = _spy_chunks(monkeypatch)
    discovery_rate(n, h, trials=trials, seed=3)
    assert len(cells) == chunks
    assert 0 < max(cells) <= walk.BATCH_CELLS


@pytest.mark.parametrize("n, h", [(2, 0), (2, 9), (3, 16)])
def test_discovery_chunk_grades_by_distinct_vertices_reached(n, h):
    # a chunk hits where its guess falls below V - K, K the distinct vertices
    # a walk stood on; the walks and guesses come from the chunk's one stream
    structure = tree.generate_structure(n, 4)
    neighbors = tree.generate_coloring(structure, 4).by_color
    label_bits = tree.checked_label_bits(structure)
    trials = 3000
    hits = harness._discovery_chunk((neighbors, label_bits, h, 11, trials))
    rng = make_rng(11, "trials")
    path = walk.blind_walks(neighbors, h, trials, rng)
    reached = np.array([len(set(row.tolist())) for row in path])
    guess = rng.integers(0, 1 << label_bits, size=trials)
    assert hits == int(np.count_nonzero(guess < len(neighbors) - reached))
    if h == 0:
        # the entrance alone is reached: the open share is (V - 1) / 2^(2n)
        assert (reached == 1).all()


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


def test_walk_n1_walks_the_n1_tree():
    # the walker takes the bare structure, so walk -n 1 walks n=1; at budget
    # 40 its rate is the direct walk's there (an n=2 tree reads 0.2518)
    want = walk.walker_success_rate(tree.generate_structure(1, derive_seed(0, "walker-tree")),
                                    40, 10_000, derive_seed(0, "walker"))
    rep = cmd_walk(ExperimentConfig(experiment="walk", n=1, budget=40, steps=20))
    assert [c.measured for c in rep.checks if c.name.startswith("classical walker")] == [want]
    assert want > 0.5


def test_blind_paths_draw_no_coloring(monkeypatch):
    # the guessing trials and both walker baselines walk the bare structure:
    # a coloring drawn outside cmd_simulate raises, and in e2e only the
    # simulate part colors a tree
    inside, drawn = [], []
    coloring, simulate = tree.generate_coloring, harness.cmd_simulate

    def guarded(structure, seed):
        if not inside:
            raise AssertionError("a blind path drew a coloring")
        drawn.append(structure.n)
        return coloring(structure, seed)

    def simulate_part(config):
        inside.append(True)
        try:
            return simulate(config)
        finally:
            inside.pop()

    monkeypatch.setattr(tree, "generate_coloring", guarded)
    monkeypatch.setattr(harness, "cmd_simulate", simulate_part)
    rate, _ = discovery_rate(3, 4, trials=2000, seed=5)
    assert 0 < rate < 1
    assert cmd_walk(ExperimentConfig(experiment="walk", n=3, trials=500, steps=50)).ok()
    assert drawn == []
    with pytest.raises(AssertionError, match="a blind path drew a coloring"):
        tree.generate_coloring(tree.generate_structure(2, 0), 0)
    report = harness.cmd_e2e(ExperimentConfig(experiment="e2e", n=4, trials=500, steps=50,
                                              samples=3))
    assert report.ok() and drawn and set(drawn) == {3}


def test_e2e_n1_fails_before_the_walker_and_the_sweep(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("ran before the label space was checked")

    monkeypatch.setattr(walk, "walker_success_rate", ran)
    monkeypatch.setattr(walk, "sweep", ran)
    with pytest.raises(ValueError, match=r"label space 2\^2 cannot injectively label 6"):
        run_command(ExperimentConfig(experiment="e2e", n=1))


def test_simulate_report_runs():
    cfg = ExperimentConfig(experiment="simulate", n=2, samples=8, seed=1)
    rep = cmd_simulate(cfg)
    assert rep.ok()
    names = [c.name for c in rep.checks]
    assert "fidelity identity gap <= 1e-10" in names


def test_e2e_simulates_with_its_own_bottleneck_fields(tmp_path):
    # an all-quantum circuit reaches the Bottleneck, which aborts at a tiny tau
    (tmp_path / "allq.txt").write_text(
        "hybrid-allq n=3 g=16\ntier quantum\n"
        f"  {' '.join(f'ANC({w})' for w in range(3, 16))}\n"
        "  H(6) H(7)\n"
        f"  QRY({','.join(str(w) for w in range(16))})\n")

    def aborted(experiment: str) -> float:
        rep = run_command(ExperimentConfig(experiment=experiment, n=3, trials=100, steps=20,
                                           samples=2, tau=1e-12,
                                           circuit_file=str(tmp_path / "allq.txt")))
        return next(c.measured for c in rep.checks if c.name.endswith("bottleneck aborted"))

    assert aborted("simulate") == aborted("e2e") == 1.0


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


@pytest.mark.parametrize("text, message", [
    ('{"bogus": 1, "n": 3}', "unknown config key(s): bogus"),
    ("[1]", "config must be a JSON object, got list"),
])
def test_cli_bad_config_document_exit_2(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["walk", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab walk: error: config {cfg_path}: {message}\n"


def test_cli_config_without_experiment_takes_the_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"n": 3, "trials": 200, "h_values": [1]}')
    assert cli.main(["discovery", "--config", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "discovery" and doc["config"]["trials"] == 200


@pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                          (".", "Is a directory")])
def test_cli_unreadable_config_exit_2(tmp_path, capsys, name, reason):
    path = tmp_path / name
    assert cli.main(["walk", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab walk: error: config {path}: {reason}\n"


@pytest.mark.parametrize("text, message", [
    ('{"h_values": 5}', "config field 'h_values' must be a list of integers, got 5"),
    ('{"n": "3"}', "config field 'n' must be an integer, got \"3\""),
    ('{"h_values": [1, true]}', "config field 'h_values' must be a list of integers, "
                                "got [1, true]"),
    ('{"tau": "0.1"}', "config field 'tau' must be a number or null, got \"0.1\""),
])
def test_config_values_are_type_checked(tmp_path, capsys, text, message):
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_json(text, experiment="walk")
    assert str(info.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["walk", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab walk: error: config {cfg_path}: {message}\n"


def test_config_accepts_null_and_integral_numbers():
    cfg = ExperimentConfig.from_json('{"budget": null, "t_max": 40, "tau": 0}',
                                     experiment="walk")
    assert (cfg.budget, cfg.t_max, cfg.tau) == (None, 40, 0)


def test_config_without_an_experiment_is_rejected():
    with pytest.raises(ValueError, match="config names no experiment"):
        ExperimentConfig.from_json('{"n": 3}')


@pytest.mark.parametrize("name, text, reason", [
    ("missing.txt", None, "No such file or directory"),
    (".", None, "Is a directory"),
    ("bad.txt", "not a circuit\n",
     "line 1, column 1: expected header like 'hybrid n=2 g=12'"),
])
def test_cli_bad_circuit_file_exit_2(tmp_path, capsys, name, text, reason):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert cli.main(["simulate", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab simulate: error: circuit {path}: {reason}\n"


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


@pytest.mark.parametrize("argv, config, message", [
    (["discovery", "--trials", "0"], None, "config field 'trials' must be >= 1, got 0"),
    (["walk", "--trials", "0"], None, "config field 'trials' must be >= 1, got 0"),
    (["simulate", "--samples", "0"], None, "config field 'samples' must be >= 1, got 0"),
    (["e2e"], '{"samples": 0}', "config field 'samples' must be >= 1, got 0"),
    (["walk"], '{"steps": 0}', "config field 'steps' must be >= 1, got 0"),
    (["walk"], '{"t_max": -5}', "config field 't_max' must be >= 0, got -5"),
    (["simulate"], '{"sample_budget": 0}', "config field 'sample_budget' must be >= 1, got 0"),
    (["simulate"], '{"sample_budget": -3}',
     "config field 'sample_budget' must be >= 1, got -3"),
    (["simulate"], '{"tau": -1}', "config field 'tau' must be in [0, 1], got -1"),
    (["simulate"], '{"tau": 1.5}', "config field 'tau' must be in [0, 1], got 1.5"),
    (["simulate"], '{"tau": NaN}', "config field 'tau' must be in [0, 1], got nan"),
    (["e2e"], '{"sample_budget": 0}', "config field 'sample_budget' must be >= 1, got 0"),
    (["e2e"], '{"tau": -1}', "config field 'tau' must be in [0, 1], got -1"),
    (["walk"], '{"t_max": NaN}', "config field 't_max' must be finite, got nan"),
    (["walk"], '{"t_max": Infinity}', "config field 't_max' must be finite, got inf"),
    (["e2e"], '{"t_max": NaN}', "config field 't_max' must be finite, got nan"),
    (["simulate"], '{"rho_log2": NaN}', "config field 'rho_log2' must be finite, got nan"),
    (["simulate"], '{"rho_log2": Infinity}',
     "config field 'rho_log2' must be finite, got inf"),
    (["e2e"], '{"rho_log2": NaN}', "config field 'rho_log2' must be finite, got nan"),
    (["discovery"], '{"h_values": [-1]}',
     "config field 'h_values' must hold budgets >= 0, got [-1]"),
    (["walk", "-n", "40"], None, "config field 'n' must be in [1, 15], got 40"),
    (["discovery", "-n", "0"], None, "config field 'n' must be in [1, 15], got 0"),
    (["discovery", "-n", "1"], None, "label space 2^2 cannot injectively label 6 vertices "
                                     "(entrance pinned to 0, all-ones reserved)"),
    (["e2e", "-n", "16"], None, "config field 'n' must be in [1, 15], got 16"),
    (["e2e", "-n", "1"], None, "label space 2^2 cannot injectively label 6 vertices "
                               "(entrance pinned to 0, all-ones reserved)"),
    (["e2e", "--trials", "0"], None, "config field 'trials' must be >= 1, got 0"),
    (["walk"], '{"budget": -1}', "config field 'budget' must be >= 0, got -1"),
    (["e2e"], '{"budget": -1}', "config field 'budget' must be >= 0, got -1"),
], ids=["discovery-trials", "walk-trials", "simulate-samples", "e2e-samples",
        "walk-steps", "walk-t_max", "simulate-sample_budget-0", "simulate-sample_budget-neg",
        "simulate-tau-neg", "simulate-tau-above-1", "simulate-tau-nan", "e2e-sample_budget",
        "e2e-tau", "walk-t_max-nan", "walk-t_max-inf", "e2e-t_max-nan",
        "simulate-rho_log2-nan", "simulate-rho_log2-inf", "e2e-rho_log2-nan",
        "discovery-h_values", "walk-n-40", "discovery-n-0", "discovery-n-1",
        "e2e-n-16", "e2e-n-1", "e2e-trials", "walk-budget-neg", "e2e-budget-neg"])
def test_cli_bad_trials_exit_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    # n=3 unless the row gives its own -n, which comes later and wins
    assert cli.main(argv[:1] + ["-n", "3"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab {argv[0]}: error: {message}\n"


@pytest.mark.parametrize("argv, config, message", [
    (["--jobs", "-2"], None, "config field 'jobs' must be >= 1, got -2"),
    ([], '{"jobs": -2}', "config field 'jobs' must be >= 1, got -2"),
    (["--jobs", "0"], None, "config field 'jobs' must be >= 1, got 0"),
    ([], '{"jobs": 0}', "config field 'jobs' must be >= 1, got 0"),
], ids=["flag", "config", "flag-zero", "config-zero"])
def test_cli_bad_job_count_exit_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    for experiment in ("walk", "discovery"):
        assert cli.main([experiment, "-n", "3", "--trials", "10"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"{message}\n")


OUT_OF_BOUNDS = [("n", 0, "must be in [1, 15], got 0"), ("n", 16, "must be in [1, 15], got 16"),
                 ("trials", 0, "must be >= 1, got 0"), ("samples", 0, "must be >= 1, got 0"),
                 ("steps", 0, "must be >= 1, got 0"), ("sample_budget", 0, "must be >= 1, got 0"),
                 ("jobs", 0, "must be >= 1, got 0"), ("t_max", -1, "must be >= 0, got -1"),
                 ("t_max", math.inf, "must be finite, got inf"),
                 ("budget", -1, "must be >= 0, got -1"), ("tau", 1.5, "must be in [0, 1], got 1.5"),
                 ("rho_log2", math.nan, "must be finite, got nan"),
                 ("h_values", [-1], "must hold budgets >= 0, got [-1]")]


@pytest.mark.parametrize("experiment, name, value, message", [
    pytest.param(experiment, *row, id=f"{experiment}-{row[0]}={json.dumps(row[1])}")
    for experiment in ("walk", "discovery", "simulate", "e2e") for row in OUT_OF_BOUNDS])
def test_every_command_refuses_every_out_of_bound_field(tmp_path, capsys, experiment, name,
                                                        value, message):
    # one check before any work, whatever the command reads
    (tmp_path / "cfg.json").write_text(json.dumps({"n": 3, name: value}))
    assert cli.main([experiment, "--config", str(tmp_path / "cfg.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"weldlab {experiment}: error: config field {name!r} {message}\n"


@pytest.mark.parametrize("experiment, suffix", [("discovery", ""), ("walk", ".walk-n3.csv")])
def test_cli_unwritable_out_exit_2(tmp_path, capsys, experiment, suffix):
    # discovery fails on its report; walk first on its curve file beside it
    out = tmp_path / "missing" / "r.jsonl"
    argv = [experiment, "-n", "3", "--trials", "10", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"weldlab {experiment}: error: out {out}{suffix}: "
                            "No such file or directory\n")


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_command(ExperimentConfig(experiment="nope"))


def _package_env() -> dict:
    """A subprocess environment that imports the package from where this
    process found it."""
    src = str(Path(weldlab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cli_imports_no_scipy():
    code = ("import sys, weldlab.cli; print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "weldlab.cli", "discovery",
                           "-n", "3", "--trials", "200"],
                          capture_output=True, text=True, timeout=120, env=_package_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["experiment"] == "discovery"
