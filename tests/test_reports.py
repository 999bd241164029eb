"""Golden reports: the deterministic fields of pinned runs of every command.

``experiment``, ``config`` and ``checks`` of a report are a function of the
config alone, so any change to them is a change in results.  The two
``simulate`` values were recorded before the executor and the simulators
were merged into one query kernel and one tier driver per circuit family,
the others before the welded-structure builder was merged and the vertex
palette dropped; a refactor that keeps reports byte-identical keeps these
tests green.  The two walk cross-check values come from the full-graph
Taylor propagator (``walk.full_graph_state``) and are pinned on one
machine's numpy build.  The discovery rates and sigmas were recorded when
the guessing trials began to walk the bare structure's ``walk.blind_table``
(a vertex's neighbours at colors 1..deg v) instead of a drawn coloring's
neighbour table: each step still moves to each neighbour with probability
1/9, so the seeded paths moved while their law did not.  A trial's colors
are drawn in one call per chunk, and a chunk holds
``walk.batch_trials(h + 1)`` trials, so the 20,000 trials of each
``discovery -n 3`` cell run in 1, 2 and 6 chunks at h=1, 4 and 16.
Against the exact rates of the cells' own structures, 259/576 = 0.44965,
0.439384 and 0.4032091, h=1 reads 0.91 sigma below (z = -0.91), h=4 1.42
sigma below (z = -1.42) and h=16 0.69 sigma above (z = +0.69).
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from weldlab import cli

ROOT = Path(__file__).resolve().parents[1]
CIRCUIT = "scripts/circuits/entrance_query_n2.txt"


def _config(n: int, circuit_file: str | None, experiment: str = "simulate",
            **changed) -> dict:
    return {"budget": None, "circuit_file": circuit_file, "experiment": experiment,
            "h_values": [1, 4, 16], "n": n, "rho_log2": None, "sample_budget": 24,
            "samples": 50, "seed": 0, "steps": 400, "t_max": 40.0, "tau": None,
            "trials": 20000, **changed}


def check(name, kind, measured, bound, sigma=None):
    return {"bound": bound, "fatal": False, "kind": kind, "measured": measured,
            "name": name, "passed": True, "sigma": sigma}


def _checks(wrapper_ceiling: float) -> list[dict]:
    return [check("circuit validates", "hard", 0.0, 0.0),
            check("fidelity identity gap <= 1e-10", "hard", 4.440892098500626e-16, 1e-10),
            check("mean TV within query envelope", "statistical", 0.0, 3.5, 1e-300),
            check("mean queries per run", "info", 1.0, None),
            check("wrapper query ceiling", "hard", 1.0, wrapper_ceiling)]


@pytest.mark.parametrize("argv, config, checks", [
    (["simulate", "-n", "2"], _config(2, None), _checks(49152.0)),
    (["simulate", "--circuit", CIRCUIT], _config(4, CIRCUIT), _checks(57344.0)),
], ids=["default-n2", "entrance-query-n2"])
def test_simulate_report_pinned(argv, config, checks, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "simulate"
    assert doc["config"] == config
    assert doc["checks"] == checks


INVALID_CIRCUIT = """hybrid n=2 g=14
tier classical
  ANC(2) ANC(3) ANC(4) ANC(5) ANC(6) ANC(7) ANC(8) ANC(9) ANC(10) ANC(11) ANC(12) ANC(13)
  H(0) QRY(1,2,3,4,5,6,7,8,9,10,11,12)
tier quantum
  H(4) H(5) H(12) H(14)
"""
INVALID_PROBLEMS = ["tier 1 layer 1 gate 0 (H): H not allowed in a classical layer",
                    "tier 2 layer 0 gate 3 (H): wire 14 beyond layer input width 14"]


def test_simulate_report_of_invalid_circuit_pinned(tmp_path, monkeypatch, capsys):
    # a circuit that parses but does not validate: one fatal check, and each
    # located message in the report and on stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text(INVALID_CIRCUIT)
    assert cli.main(["simulate", "--circuit", "bad.txt"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["config"] == _config(4, "bad.txt")
    assert doc["checks"] == [{**check("circuit validates", "hard", 2.0, 0.0),
                              "passed": False, "fatal": True}]
    assert doc["artifacts"] == {"circuit_problems": "\n".join(INVALID_PROBLEMS)}
    assert captured.err.splitlines()[1:] == [
        f"weldlab simulate: invalid circuit: {p}" for p in INVALID_PROBLEMS]


WALK_BEST_P = 0.7199606810160964
E2E_BEST_P = 0.5631946280696672
WALK_N4 = [
    check("curve length equals steps", "hard", 400.0, 400.0),
    check("best exit probability positive", "hard", WALK_BEST_P, 0.0),
    check("best_t", "info", 4.2105263157894735, None),
    check("best_p", "info", WALK_BEST_P, None),
    check("reduced vs full agreement", "hard", 9.103828801926284e-15, 1e-09),
    check("probability conservation", "hard", 2.4424906541753444e-15, 1e-09),
    check("classical walker rate (budget 3)", "info", 0.0, None),
    check("separation factor >= 10x", "hard", WALK_BEST_P, 0.0),
]
DISCOVERY_N3 = [
    check("discovery n=3 h=1 rate<=bound", "statistical", 0.44645, 0.46875,
          0.003515198411896546),
    check("discovery n=3 h=4 rate<=bound", "statistical", 0.4344, 1.875,
          0.0035049724677948613),
    check("discovery n=3 h=16 rate<=bound", "statistical", 0.4056, 7.5,
          0.0034719493083857087),
    check("printed bound n=3 h=1 equals 30/64", "hard", 0.46875, 0.46875),
]
E2E_N9 = [
    check("classical walker rate <= 1e-3 (budget 8)", "hard", 0.0, 0.001),
    check("quantum walk best_p", "info", E2E_BEST_P, None),
    check("walk beats walker 10x", "hard", E2E_BEST_P, 0.0),
    check("simulate: circuit validates", "hard", 0.0, 0.0),
    check("simulate: fidelity identity gap <= 1e-10", "hard", 4.440892098500626e-16, 1e-10),
    check("simulate: mean TV within query envelope", "statistical", 0.0, 1.875, 1e-300),
    check("simulate: mean queries per run", "info", 1.0, None),
    check("simulate: wrapper query ceiling", "hard", 1.0, 65536.0),
]


@pytest.mark.parametrize("argv, config, checks", [
    (["walk", "-n", "4"], _config(4, None, "walk"), WALK_N4),
    (["discovery", "-n", "3"], _config(3, None, "discovery"), DISCOVERY_N3),
    (["e2e", "--config", "scripts/configs/e2e_n9.json"],
     _config(9, None, "e2e", samples=20, steps=600, t_max=60.0, trials=10000), E2E_N9),
], ids=["walk-n4", "discovery-n3", "e2e-n9"])
def test_report_pinned(argv, config, checks, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == argv[0]
    assert doc["config"] == config
    assert doc["checks"] == checks
