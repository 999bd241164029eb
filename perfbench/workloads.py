"""The three workloads: set-up, timed items and the checks on their outputs.

Each ``build_*`` function does the workload's set-up (circuit parsing and
validation, trees, the stored reference) and returns its items in timed
order.  An item calls the package only through module attributes, so a
tracer that rewrites those attributes sees every call.

Why these workloads (each pairs with another that bypasses its layers):

* ``blind-walks`` -- guessing and blind-walker trials through the oracle
  handle, plus the pinned ``walk -n 4`` and e2e (n = 9) commands.  Per-trial
  Python work in ``tree``/``rng``/``harness``; no state ever exceeds four
  amplitudes, so executor changes should not move it.
* ``exact-wide`` -- exact executor, exact simulator and instrumented
  wrapper on wide hybrid (and a few Jozsa) circuits with 2^8 .. 2^16
  amplitudes.  Per-amplitude work in ``statevec`` and ``hybrid_sim``; the
  tree is touched once per labeling and nothing is sampled.
* ``bottleneck`` -- the Bottleneck pipeline on small all-quantum circuits:
  thousands of states of at most 2^10 amplitudes, consistent-tree sampling
  and replays, so per-call overhead dominates where ``exact-wide`` is
  dominated by per-amplitude cost.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from weldlab import bottleneck as BN
from weldlab import circuits as C
from weldlab import harness
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree

import inputs as I
import reference as R

UNITS = {"blind-walks": "blind oracle queries",
         "exact-wide": "amplitude-layer updates",
         "bottleneck": "pipeline runs"}


class CheckFailed(Exception):
    """An output that is wrong: a failed program check or a reference mismatch."""


@dataclass
class Item:
    key: str
    units: float
    run: Callable[[], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_circuit(text: str) -> C.Circuit:
    circuit = C.parse(text)
    problems = C.validate(circuit)
    _require(not problems, "generated circuit is invalid: " + "; ".join(problems[:3]))
    return circuit


def _reference(workload: str, path: Path | None) -> dict:
    doc = R.load(path or R.path_for(workload))
    _require(doc.get("pool_seed") == I.POOL_SEED, "reference was recorded for another pool")
    return doc["items"]


# ---------------------------------------------------------------------------
# blind-walks
# ---------------------------------------------------------------------------

def _discovery(spec: I.WalkSpec) -> None:
    rate, stderr = harness.discovery_rate(spec.n, spec.h, spec.trials, spec.seed, jobs=1)
    check = harness.stat_check(f"discovery n={spec.n} h={spec.h} rate<=bound", rate,
                               harness.discovery_bound(spec.n, spec.h), stderr)
    report = harness.Report(experiment="discovery", config={}, checks=[check])
    _require(report.ok(), f"{check.name}: rate {rate} beyond 5 sigma")


def _command(spec: I.WalkSpec) -> None:
    report = harness.run_command(harness.ExperimentConfig(**dict(spec.config)))
    failed = [c.name for c in report.checks if c.fatal]
    _require(report.ok(), f"{report.experiment} failed checks: {failed}")


def build_blind_walks(seed: int, reference: Path | None = None) -> list[Item]:
    items = []
    for spec in I.blind_walk_items(seed):
        fn = _discovery if spec.kind == "discovery" else _command
        items.append(Item(spec.key, spec.units, lambda s=spec, f=fn: f(s)))
    return items


# ---------------------------------------------------------------------------
# exact-wide
# ---------------------------------------------------------------------------

def check_wide(ref: dict, exact: dict, sim: dict, transcript: HS.SimTranscript) -> None:
    d = R.tv(exact, ref["exact"])
    _require(d <= R.TOL, f"executor distribution off the reference by TV {d!r}")
    d = R.tv(sim, ref["sim"])
    _require(d <= R.TOL, f"simulator distribution off the reference by TV {d!r}")
    gap = max((abs(r.fidelity - (1.0 - r.outlier_mass)) for r in transcript.per_layer),
              default=0.0)
    _require(gap <= R.TOL, f"fidelity identity gap {gap!r}")
    where = R.mismatch(json.loads(transcript.to_json()), ref["transcript"])
    _require(where is None, f"wrapper transcript: {where}")


def run_wide(spec: I.WideSpec, circuit: C.Circuit, bbt: tree.BlackBoxTree):
    """What compare_to_reference does for one labeling."""
    if spec.kind == "hybrid":
        exact = SV.run_hybrid_exact(circuit, bbt)
        sim = HS.few_tier_exact_distribution(circuit, bbt)
        run = HS.few_tier_wrapper(circuit, bbt, seed=spec.run_seed)
    else:
        exact = SV.run_jozsa_exact(circuit, bbt)
        sim = HS.jozsa_exact_distribution(circuit, bbt)
        run = HS.jozsa_wrapper(circuit, bbt, seed=spec.run_seed)
    return exact.probs, sim.probs, run.transcript


def wide_inputs(seed: int):
    """(spec, circuit, labeled tree) per exact-wide item, in timed order."""
    tree_seed = I.wide_tree_seed()
    structure = tree.generate_structure(I.N, tree_seed)
    coloring = tree.generate_coloring(structure, tree_seed)
    return [(spec, parse_circuit(spec.text),
             tree.generate_labels(structure, coloring, spec.labels_seed))
            for spec in I.exact_wide_items(seed)]


def build_exact_wide(seed: int, reference: Path | None = None) -> list[Item]:
    refs = _reference("exact-wide", reference)
    items = []
    for spec, circuit, bbt in wide_inputs(seed):
        ref = refs[spec.key]

        def run(spec=spec, circuit=circuit, bbt=bbt, ref=ref):
            check_wide(ref, *run_wide(spec, circuit, bbt))

        items.append(Item(spec.key, ref["units"], run))
    return items


# ---------------------------------------------------------------------------
# bottleneck
# ---------------------------------------------------------------------------

def run_bottleneck(spec: I.BottleneckSpec, circuit: C.HybridCircuit, bbt: tree.BlackBoxTree):
    """One pipeline run plus the tau=0 identity check, as ``simulate`` does it."""
    stats = C.accounting(circuit)
    tape = BN.SeedTape.generate(spec.run_seed, circuit.n, circuit.eta,
                                max(stats.max_quantum_depth, 1), circuit.g)
    cfg = BN.BottleneckConfig(sample_budget=I.SAMPLE_BUDGET, mode=spec.mode)
    res = BN.bottleneck_wrapper(circuit, bbt, seed=spec.run_seed, cfg=cfg, tape=tape)
    b0 = BN.bottleneck_wrapper(circuit, bbt, seed=spec.run_seed,
                               cfg=BN.BottleneckConfig(tau=0.0), tape=tape)
    f0 = HS.few_tier_wrapper(circuit, bbt, seed=spec.run_seed, tier_seed_fn=tape.tier_seed)
    _require(b0.output == f0.output and b0.transcript.to_json() == f0.transcript.to_json(),
             "tau=0 pipeline is not transcript-identical to few_tier_wrapper")
    return {"report": json.loads(res.report_json()),
            "transcript": json.loads(res.transcript.to_json()),
            "tau0_transcript": json.loads(b0.transcript.to_json())}


def bottleneck_inputs(seed: int):
    return [(spec, parse_circuit(spec.text), tree.make_blackbox(I.N, spec.tree_seed))
            for spec in I.bottleneck_items(seed)]


def build_bottleneck(seed: int, reference: Path | None = None) -> list[Item]:
    refs = _reference("bottleneck", reference)
    items = []
    for spec, circuit, bbt in bottleneck_inputs(seed):
        ref = refs[spec.key]

        def run(spec=spec, circuit=circuit, bbt=bbt, ref=ref):
            where = R.mismatch(run_bottleneck(spec, circuit, bbt), ref)
            _require(where is None, f"bottleneck output: {where}")

        items.append(Item(spec.key, 1, run))
    return items


SETUP_BY_WORKLOAD = {"blind-walks": build_blind_walks,
            "exact-wide": build_exact_wide,
            "bottleneck": build_bottleneck}
