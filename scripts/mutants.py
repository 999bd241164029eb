"""Mutation check: every recorded mutant of ``src/weldlab`` must fail a test.

    python3 scripts/mutants.py                      # every row of MUTANTS
    python3 scripts/mutants.py welded-weld-swap ... # the rows with these names

Each row of ``MUTANTS`` names a module of ``src/weldlab``, a text that
occurs in it exactly once, the text that replaces it, and the tests that
must fail once it does.  For each row the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
one replacement there and runs the row's tests with pytest.  A row whose
tests all pass is a survivor.  A row whose old text does not occur exactly
once, or whose pytest run ends other than in passes and failures (a
collection error, an unknown test), is broken.  The script prints one line
per row and exits 1 if any row survived or is broken.

``tests/test_mutants.py`` checks in Tier-1 that every row's old text still
occurs in its module, so the table cannot rot silently; the mutant runs
themselves stay out of Tier-1 for their cost.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str         # file under src/weldlab
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("welded-weld-swap", "tree.py",
           "neighbors[cyc, 1], neighbors[cyc, 2] = cyc[at - 1], cyc[(at + 1) % len(cyc)]",
           "neighbors[cyc, 1], neighbors[cyc, 2] = cyc[(at + 1) % len(cyc)], cyc[at - 1]",
           ("tests/test_tree.py::test_structure_arrays_pinned",)),
    Mutant("coloring-one-end", "tree.py",
           "    table[ends[:, 1], colors] = ends[:, 0]\n", "",
           ("tests/test_tree.py::test_coloring_tables_pinned",)),
    Mutant("tv-compensated", "statevec.py",
           "0.5 * seq_sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)",
           "0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)",
           ("tests/test_statevec.py::test_tv_distance_sums_left_to_right",)),
    Mutant("discovery-draws-coloring", "harness.py",
           "    neighbors = walk.blind_table(structure)\n",
           "    neighbors = tree.generate_coloring(structure, seed).by_color\n",
           ("tests/test_harness.py::test_blind_paths_draw_no_coloring",)),
    Mutant("blind-table-two-neighbours", "walk.py",
           "table[:, 1:4] = structure.neighbors", "table[:, 1:3] = structure.neighbors[:, :2]",
           ("tests/test_walk.py::test_blind_table_steps_as_every_coloring",)),
    Mutant("gathers-out-of-order", "walk.py",
           "gather = term[first] + term[second]\n                gather += term[third]",
           "gather = term[third] + term[second]\n                gather += term[first]",
           ("tests/test_walk.py::test_full_graph_state_bytes_pinned",)),
    Mutant("walk-moves-on-invalid", "walk.py",
           "step_to = np.where(neighbors >= 0, neighbors, np.arange(V)[:, None]).ravel()",
           "step_to = neighbors.ravel()",
           ("tests/test_walk.py::test_blind_walks_follow_the_drawn_colors",)),
    Mutant("walk-colors-from-zero", "walk.py",
           "colors = rng.integers(1, 10, size=(budget, trials), dtype=np.uint8)",
           "colors = rng.integers(0, 10, size=(budget, trials), dtype=np.uint8)",
           ("tests/test_walk.py::test_blind_walks_follow_the_drawn_colors",)),
    Mutant("discovery-grades-v-minus-k-plus-1", "harness.py",
           "guess < len(neighbors) - reached", "guess < len(neighbors) - reached + 1",
           ("tests/test_harness.py::test_discovery_chunk_grades_by_distinct_vertices_reached",)),
    Mutant("toffoli-one-control", "statevec.py",
           "if x & bits == bits:", "if x & bits:",
           ("tests/test_hybrid_sim.py::test_classical_toffoli_truth_table",)),
    Mutant("taylor-plus-i", "walk.py",
           "-1j * h / j", "1j * h / j",
           ("tests/test_walk.py::test_full_graph_matches_dense_eigh",)),
    Mutant("self-answer-accepted", "tree.py",
           "        if y == x:\n            loop = loop or", "        if False:\n            loop = loop or",
           ("tests/test_tree.py::test_sample_rejects_an_entry_that_answers_itself",)),
    Mutant("invalid-answers-dropped", "tree.py",
           "            invalid.add((x, c))\n", "",
           ("tests/test_tree.py::test_sample_rejection_messages_pinned",
            "tests/test_tree.py::test_sampled_arrays_pinned")),
    Mutant("short-weld-cycle-accepted", "tree.py",
           "return not _closes_short_weld_cycle(edges, cols, n)", "return True",
           ("tests/test_tree.py::test_sample_structures_mode_completes_walk_dictionaries",)),
    Mutant("never-prune", "statevec.py",
           "            amps = _prune(amps)\n", "            pass\n",
           ("tests/test_kernels.py::test_cancelled_amplitudes_pruned_after_h_layers",)),
    Mutant("validate-every-require-valid", "circuits.py",
           "problems = circuit.problems", "problems = validate(circuit)",
           ("tests/test_hybrid_sim.py::test_each_circuit_object_validated_once",)),
    Mutant("uncached-norm", "statevec.py",
           "if self._norm_sq is None:", "if True:",
           ("tests/test_kernels.py::test_wire_only_layers_reuse_amplitudes_and_norm",
            "tests/test_kernels.py::test_each_state_norm_summed_once_and_no_prune_without_h")),
    Mutant("queries-in-stored-order", "statevec.py",
           "queries = lay.split[1].gates",
           "queries = [g for g in lay.gates if g.kind == C.GateKind.QUERY]",
           ("tests/test_hybrid_sim.py::test_classical_layer_learns_in_first_wire_order",)),
    Mutant("validate-skips-alternation", "tree.py",
           "want_col = n if i % 2 == 0 else n + 1", "want_col = column[v]",
           ("tests/test_tree.py::test_structure_validate_names_each_problem",)),
    Mutant("taylor-third-neighbour-dropped", "walk.py",
           "                gather += term[third]\n", "",
           ("tests/test_walk.py::test_full_graph_matches_dense_eigh",)),
    Mutant("negative-probability-accepted", "statevec.py",
           "if any(p < -1e-12 for p in self.probs.values()):", "if False:",
           ("tests/test_statevec.py::test_output_distribution_refuses_an_improper_table",)),
    Mutant("distribution-sum-unchecked", "statevec.py",
           "if abs(total - 1.0) > NORM_TOL:", "if False:",
           ("tests/test_statevec.py::test_output_distribution_refuses_an_improper_table",)),
    Mutant("layer-norm-unchecked", "statevec.py",
           "if abs(nrm - prev_norm) > NORM_TOL:", "if False:",
           ("tests/test_statevec.py::test_a_layer_that_changes_the_norm_is_refused",)),
    # only the lowered-cap cases: unchecked, the cap-2^22 ones would make
    # 2^23 amplitudes
    Mutant("support-cap-unchecked", "statevec.py",
           "if n_h and (bound := ", "if False and (bound := ",
           tuple("tests/test_statevec.py::test_a_layer_past_the_support_cap_is_refused"
                 f"[{path}-lowered-cap]" for path in (
                     "run_hybrid_exact", "run_hybrid", "few_tier_exact_distribution",
                     "run_jozsa_exact"))),
    Mutant("zero-outcome-measured-on-arrays", "statevec.py",
           'raise AssertionError("measured an outcome of probability zero")\n        # 0j',
           "pass\n        # 0j",
           ("tests/test_statevec.py::test_measuring_an_outcome_of_probability_zero_is_refused",)),
    Mutant("zero-outcome-measured-on-dicts", "statevec.py",
           'raise AssertionError("measured an outcome of probability zero")\n    new:',
           "pass\n    new:",
           ("tests/test_statevec.py::test_measuring_an_outcome_of_probability_zero_is_refused",)),
    Mutant("growth-bound-refused", "hybrid_sim.py",
           "if V2.size() > 4 * max(size_before, 1):", "if V2.size() >= 4 * max(size_before, 1):",
           ("tests/test_hybrid_sim.py::test_a_layer_that_learns_more_than_4x_is_refused",)),
    Mutant("tier-ceiling-refused", "hybrid_sim.py",
           "if spent > (4 ** t.depth) * max(size_in, 1):",
           "if spent >= (4 ** t.depth) * max(size_in, 1):",
           ("tests/test_hybrid_sim.py::test_a_quantum_tier_over_its_query_ceiling_is_refused",)),
    Mutant("classical-ceiling-refused", "hybrid_sim.py",
           "if spent > width * max(t.depth, 1):", "if spent >= width * max(t.depth, 1):",
           ("tests/test_hybrid_sim.py::test_a_classical_tier_over_its_query_ceiling_is_refused",)),
    Mutant("wrapper-ceiling-refused", "hybrid_sim.py",
           "if ctx.transcript.queries > wrapper_query_ceiling(circuit):",
           "if ctx.transcript.queries >= wrapper_query_ceiling(circuit):",
           ("tests/test_hybrid_sim.py::test_a_run_over_the_wrapper_ceiling_is_refused",)),
    Mutant("loop-ceiling-refused", "bottleneck.py",
           "if iterations > ceiling:", "if iterations >= ceiling:",
           ("tests/test_bottleneck.py::test_a_call_past_its_ceiling_is_refused",)),
    Mutant("size-ceiling-refused", "bottleneck.py",
           "if out.size() > size_ceiling(", "if out.size() >= size_ceiling(",
           ("tests/test_bottleneck.py::test_a_call_past_its_ceiling_is_refused",)),
    Mutant("subset-chain-upper-half-only", "bottleneck.py",
           "if not V_current.is_key_subset_of(out) or not out.is_key_subset_of(V_hist):",
           "if not out.is_key_subset_of(V_hist):",
           ("tests/test_bottleneck.py::test_a_call_that_breaks_the_subset_chain_is_refused",)),
    Mutant("unreachable-key-unchecked", "bottleneck.py",
           "if target not in parent:", "if False:",
           ("tests/test_bottleneck.py::test_complete_subtree_refuses_a_key_the_history_cannot_reach",)),
    Mutant("replay-unchecked", "tree.py",
           "if got != y:", "if False:",
           ("tests/test_tree.py::test_replay_names_an_entry_the_sampled_tree_disagrees_with",)),
    Mutant("prune-band-unchecked", "statevec.py",
           "    keep[band] = np.hypot(re[band], im[band]) >= PRUNE_TOL\n", "",
           ("tests/test_statevec.py::test_array_prune_keeps_what_hypot_keeps",)),
    Mutant("l1-gap-two-sided-keys-only", "hybrid_sim.py",
           "d = np.delete(a - b, both + 1)", "d = (a - b)[both]",
           ("tests/test_hybrid_sim.py::test_l1_gap_is_the_dict_sum_in_key_order",)),
    Mutant("packed-order-index-bit-short", "statevec.py",
           "bits = (keys.size - 1).bit_length()", "bits = (keys.size - 1).bit_length() - 1",
           ("tests/test_statevec.py::test_stable_order_is_the_stable_argsort",
            "tests/test_statevec.py::test_stable_order_falls_back_where_key_and_index_bits_pass_63")),
    Mutant("unreached-violator-left-unrooted", "bottleneck.py",
           "while (u := parent.get(u)) is not None:", "while False:",
           ("tests/test_bottleneck.py::"
            "test_certify_round_adopts_the_entrance_path_to_an_unreached_violator",)),
    Mutant("replay-memo-reads-unchecked", "bottleneck.py",
           "all(V.entries.get(k) == a for k, a in reads.items())", "True",
           tuple("tests/test_bottleneck.py::test_known_replay_memo_needs_every_answer_it_read"
                 f"[{variant}-1]" for variant in ("changed", "missing"))),
    Mutant("replay-memo-keeps-placeholder-consults", "bottleneck.py",
           "    if oracle.placeholders and oracle.ctx.consulted:\n        return None\n"
           "    env.replays[i] = (oracle.reads if oracle.ctx.consulted else {}, y)\n",
           "    env.replays[i] = (oracle.reads if oracle.ctx.consulted else {}, y)\n"
           "    if oracle.placeholders and oracle.ctx.consulted:\n        return None\n",
           ("tests/test_bottleneck.py::test_consult_on_array_kernel_leaves_empty_V_undecided",)),
    Mutant("taylor-probe-breaks-early", "walk.py",
           "mods = np.abs(term)\n                    probe = int(mods.argmax())\n"
           "                    if mods[probe] < TAYLOR_TOL:\n                        break",
           "break",
           ("tests/test_walk.py::test_full_graph_state_bytes_pinned",)),
    Mutant("add-zero-writes-held-values", "statevec.py",
           "    if vals is held:\n        return vals + 0.0\n", "",
           tuple("tests/test_statevec.py::test_layers_leave_their_input_state_unchanged"
                 f"[{order}-arrays]" for order in ("ascending", "shuffled"))),
    Mutant("h-broadcast-drops-set-signs", "statevec.py",
           "negated ^ bool(keys[0] & bit)", "negated ^ False",
           ("tests/test_statevec.py::test_partner_free_h_matches_dict_kernel[every key]",
            "tests/test_statevec.py::test_partner_free_h_matches_dict_kernel[some wires]")),
    Mutant("quarter-turns-mod-4", "statevec.py",
           "        turns += (keys & bit) != 0\n",
           "        turns += (keys & bit) != 0\n    turns %= 4\n",
           ("tests/test_statevec.py::test_phase_runs_turn_each_amplitude_once_per_set_wire",)),
    Mutant("truth-map-reads-substitution", "hybrid_sim.py",
           "truth = SV.move_keys(support, regs, bbt.answer_many(pairs >> 4, pairs & 15)[group])",
           "truth = S.value_array",
           ("tests/test_kernels.py::test_paths_agree_on_outlier_circuits",)),
    Mutant("jobs-unbounded", "harness.py",
           '"jobs": 1, "t_max": 0', '"t_max": 0',
           ("tests/test_harness.py::test_every_command_refuses_every_out_of_bound_field",)),
    Mutant("completed-structure-unchecked", "tree.py",
           "problems = structure.validate()\n    if problems:", "problems = []\n    if problems:",
           ("tests/test_tree.py::test_sampler_refuses_a_completed_structure_that_fails_validate",)),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or ``BROKEN: <why>`` for one row."""
    text = (ROOT / "src" / "weldlab" / mutant.module).read_text()
    if text.count(mutant.old) != 1:
        return f"BROKEN: old text occurs {text.count(mutant.old)} times"
    with tempfile.TemporaryDirectory(prefix="weldlab-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / "src" / "weldlab" / mutant.module).write_text(
            text.replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"})
    if done.returncode == 0:
        return "SURVIVED"
    if done.returncode == 1:
        return "killed"
    lines = done.stdout.strip().splitlines()
    return f"BROKEN: pytest exit {done.returncode}: {lines[-1] if lines else ''}"


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in rows:
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
