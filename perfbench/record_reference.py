"""Record the stored reference for the exact-wide and bottleneck pools.

Run from the repository root against the package version whose outputs
are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Every variant of every pool slot is run once.  For exact-wide the record
also holds the item's work units: the input support of every layer the
exact executor applies, summed.
"""
from __future__ import annotations

import json
import sys
import time

from weldlab import statevec as SV
from weldlab import tree

import inputs as I
import reference as R
import workloads as W


def executor_units(spec: I.WideSpec, circuit, bbt) -> int:
    original = SV.apply_layer
    total = 0

    def counting(state, *args, **kwargs):
        nonlocal total
        total += len(state.amps)
        return original(state, *args, **kwargs)

    SV.apply_layer = counting
    try:
        if spec.kind == "hybrid":
            SV.run_hybrid_exact(circuit, bbt)
        else:
            SV.run_jozsa_exact(circuit, bbt)
    finally:
        SV.apply_layer = original
    return total


def record_exact_wide() -> dict:
    tree_seed = I.wide_tree_seed()
    structure = tree.generate_structure(I.N, tree_seed)
    coloring = tree.generate_coloring(structure, tree_seed)
    items = {}
    for variants in I.wide_pool().values():
        for spec in variants:
            circuit = W.parse_circuit(spec.text)
            bbt = tree.generate_labels(structure, coloring, spec.labels_seed)
            exact, sim, transcript = W.run_wide(spec, circuit, bbt)
            items[spec.key] = {"units": executor_units(spec, circuit, bbt),
                               "exact": R.dist_to_json(exact),
                               "sim": R.dist_to_json(sim),
                               "transcript": json.loads(transcript.to_json())}
    return items


def record_bottleneck() -> dict:
    items = {}
    for variants in I.bottleneck_pool().values():
        for spec in variants:
            circuit = W.parse_circuit(spec.text)
            bbt = tree.make_blackbox(I.N, spec.tree_seed)
            items[spec.key] = W.run_bottleneck(spec, circuit, bbt)
    return items


def main() -> int:
    for workload, record in (("exact-wide", record_exact_wide),
                             ("bottleneck", record_bottleneck)):
        t0 = time.perf_counter()
        items = record()
        R.save(R.path_for(workload), {"pool_seed": I.POOL_SEED, "items": items})
        sys.stderr.write(f"{workload}: {len(items)} items in "
                         f"{time.perf_counter() - t0:.1f} s\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
