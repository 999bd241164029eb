"""Golden reports: the deterministic fields of two pinned ``simulate`` runs.

``experiment``, ``config`` and ``checks`` of a report are a function of the
config alone, so any change to them is a change in results.  The values
below were recorded before the executor and the simulators were merged
into one query kernel and one tier driver per circuit family; a refactor
that keeps reports byte-identical keeps these tests green.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from weldlab import cli

ROOT = Path(__file__).resolve().parents[1]
CIRCUIT = "scripts/circuits/entrance_query_n2.txt"


def _config(n: int, circuit_file: str | None) -> dict:
    return {"budget": None, "circuit_file": circuit_file, "experiment": "simulate",
            "h_values": [1, 4, 16], "n": n, "rho_log2": None, "sample_budget": 24,
            "samples": 50, "seed": 0, "steps": 400, "t_max": 40.0, "tau": None,
            "trials": 20000}


def _checks(wrapper_ceiling: float) -> list[dict]:
    def check(name, kind, measured, bound, sigma=None):
        return {"bound": bound, "fatal": False, "kind": kind, "measured": measured,
                "name": name, "passed": True, "sigma": sigma}

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
