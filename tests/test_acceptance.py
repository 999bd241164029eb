"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Tolerances are pinned here, straight from the package contract;
statistical checks use 3 sigma.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np

from weldlab import bottleneck as BN
from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree
from weldlab import walk
from weldlab.harness import (ExperimentConfig, discovery_bound,
                             discovery_rate, write_report)
from weldlab.known import KnownVertices
from weldlab.rng import derive_seed

from circuit_gen import (entrance_query_circuit, hardcoded_guess_circuit,
                         random_hybrid, random_jozsa, random_quantum_layer,
                         tier, total_quantum_layers)
from dense_reference import dense_tier_state
from tree_tools import coloring_problems, vertex_row


def _line(idx: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_oracle_correctness():
    t0 = time.time()
    failures = []
    for n in range(1, 7):
        for seed in range(1000):
            ts = tree.generate_structure(n, seed)
            if ts.validate():
                failures.append((n, seed, "structure"))
            col = tree.generate_coloring(ts, seed)
            if coloring_problems(ts, col):
                failures.append((n, seed, "coloring"))
            if n >= 2:
                bbt = tree.generate_labels(ts, col, seed)
                labs = bbt.labels
                if len(set(labs.tolist())) != ts.vertex_count \
                        or labs[ts.entrance] != 0 or bbt.invalid in labs:
                    failures.append((n, seed, "labels"))
    # n=1 labeling is a pigeonhole impossibility; the construction must say so
    ts1 = tree.generate_structure(1, 0)
    try:
        tree.generate_labels(ts1, tree.generate_coloring(ts1, 0), 0)
        failures.append((1, 0, "labels-not-rejected"))
    except ValueError:
        pass
    # query involution on 10^4 random (x, c)
    rng = np.random.default_rng(0)
    per_n = 2500
    for n in (2, 3, 4, 5):
        bbt = tree.make_blackbox(n, 1)
        h = bbt.handle()
        for _ in range(per_n):
            x = int(rng.integers(0, 1 << (2 * n)))
            c = int(rng.integers(1, 10))
            y = h.query(x, c)
            if y != bbt.invalid and h.query(y, c) != x:
                failures.append((n, x, c))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    _line(1, "oracle correctness n=1..6 x 1000 seeds + involution",
          ok, f"{elapsed:.1f}s, failures={failures[:3]}")
    assert ok


def test_criterion_2_discovery_envelope():
    cells = []
    for n in (3, 4, 5):
        for h in (1, 4, 16):
            rate, stderr = discovery_rate(n, h, trials=100_000,
                                          seed=derive_seed(0, "acc2", n, h),
                                          jobs=4)
            bound = discovery_bound(n, h)
            cells.append((n, h, rate, bound, stderr, rate <= bound + 3 * stderr))
    printed = discovery_bound(3, 1)
    exact = printed == 30 / 64
    ok = all(c[-1] for c in cells) and exact
    worst = min(c[3] + 3 * c[4] - c[2] for c in cells)
    _line(2, "fresh-label guessing rate within h(2^(n+2)-2)/2^(2n) + 3sigma",
          ok, f"n=3,h=1 bound={printed} (=30/64: {exact}); min slack={worst:.4f}")
    assert ok


def test_criterion_3_executor_exactness():
    rng = np.random.default_rng(33)
    worst = 0.0
    worst_norm = 0.0
    for _ in range(50):
        W = int(rng.integers(2, 11))
        depth = int(rng.integers(1, 4))
        layers = [random_quantum_layer(rng, W, n=77, p_query=0) for _ in range(depth)]
        t = tier("quantum", layers)
        x = int(rng.integers(0, 1 << W))
        state = SV.PureState.basis(W, x)
        for lay in t.layers:
            state = SV.apply_layer(state, lay)
            worst_norm = max(worst_norm, abs(state.norm_sq() - 1.0))
        dense = dense_tier_state(x, t, 77, None)
        for k in range(1 << W):
            worst = max(worst, abs(state.amps.get(k, 0j) - dense[k]))
    ok = worst <= 1e-10 and worst_norm <= 1e-9
    _line(3, "statevec vs dense-matrix oracle on 50 circuits (width<=10)",
          ok, f"max elementwise err={worst:.2e}, max norm drift={worst_norm:.2e}")
    assert ok


def test_criterion_4_walk_cross_check():
    worst = 0.0
    worst_norm = 0.0
    pairs = 0
    rng = np.random.default_rng(44)
    for n in (2, 3, 4, 5):
        for seed in range(5):
            s = tree.generate_structure(n, seed)
            rw = walk.build_reduced(s)
            t = float(rng.uniform(0.0, 40.0))
            [vec] = walk.full_graph_state(s, [t])
            [p] = walk.evolve_exit_probabilities(rw, [t])
            worst = max(worst, abs(p - float(np.abs(vec[s.exit]) ** 2)))
            worst_norm = max(worst_norm, abs(float(np.sum(np.abs(vec) ** 2)) - 1))
            pairs += 1
    t0 = time.time()
    res = walk.sweep(4, t_max=40.0, steps=400, seed=0)
    sweep_s = time.time() - t0
    ok = worst <= 1e-9 and worst_norm <= 1e-9 and sweep_s < 10.0 and res.best_p > 0
    _line(4, "reduced vs full walk on 20 (t, seed) pairs",
          ok, f"max |dp|={worst:.2e}, norm drift={worst_norm:.2e}, "
              f"n=4 sweep {sweep_s:.2f}s best_p={res.best_p:.3f}")
    assert ok and pairs == 20


def test_criterion_5_separation_snapshot():
    n = 9
    budget = round(2 ** (n / 3))
    rate = walk.walker_success_rate(tree.generate_structure(n, 5), budget, trials=10_000,
                                    seed=3)
    res = walk.sweep(n, t_max=60.0, steps=600, seed=5)
    ok = rate <= 1e-3 and res.best_p >= 10 * max(rate, 1e-3)
    _line(5, "n=9 walker (budget 2^(n/3)=8) vs reduced walk",
          ok, f"walker rate={rate} (<=1e-3), walk best_p={res.best_p:.3f} "
              f"(>= 10x)")
    assert ok


def test_criterion_6_few_tier_ceilings():
    rng = np.random.default_rng(66)
    count = 0
    worst_gap = 0.0
    for trial in range(100):
        n = 2 if trial < 60 else 3
        g = int(rng.integers(4 * n + 4 if n == 2 else 6, 13))
        eta = int(rng.integers(1, 5))
        circ = random_hybrid(rng, n=n, g=g, eta=eta, max_c=3, max_q=3,
                             p_query=0.7)
        bbt = tree.make_blackbox(n, 600 + trial)
        res = HS.few_tier_wrapper(circ, bbt, seed=trial)   # in-code ceilings assert
        prev = 1
        for rec in res.transcript.per_layer:
            assert rec.v_size <= 4 * max(prev, 1), "growth bound"
            worst_gap = max(worst_gap, abs(rec.fidelity - (1 - rec.outlier_mass)))
            prev = rec.v_size
        assert res.transcript.queries <= HS.wrapper_query_ceiling(circ)
        count += 1
    ok = count == 100 and worst_gap <= 1e-10
    _line(6, "few-tier growth/query ceilings + fidelity identity on 100 circuits",
          ok, f"max identity gap={worst_gap:.2e} "
              "(4x growth, 4^d|V| tier and g*d classical ceilings asserted per call)")
    assert ok


def test_criterion_7_simulator_faithfulness():
    # exact part: every query branch hits known vertices or invalid strings
    exact_ok = True
    for n in (2, 3):
        bbt = tree.make_blackbox(n, 70 + n)
        circ = entrance_query_circuit(n)
        ref = SV.run_hybrid_exact(circ, bbt)
        sim = HS.few_tier_exact_distribution(circ, bbt)
        exact_ok &= SV.tv_distance(ref.probs, sim.probs) == 0.0
    # a per-tree circuit aimed at a string that is invalid in that tree
    bbt = tree.make_blackbox(2, 77)
    junk = next(x for x in range(1, 15)
                if x not in bbt.inverse and x != bbt.invalid)
    circ = hardcoded_guess_circuit(2, junk)
    ref = SV.run_hybrid_exact(circ, bbt)
    sim = HS.few_tier_exact_distribution(circ, bbt)
    exact_ok &= SV.tv_distance(ref.probs, sim.probs) == 0.0

    # adversarial part over 10^3 labelings
    n = 2
    structure = tree.generate_structure(n, 7)
    adv = hardcoded_guess_circuit(n, guess=0b0110)
    rep = HS.compare_to_reference(adv, structure, labelings=1000, seed=9)
    queries = C.accounting(adv).query_gates
    envelope = 4 * (2 ** (n + 2) - 2) / 2 ** (2 * n) * queries
    adv_ok = rep.mean_tv <= envelope + 3 * rep.stderr_tv
    ok = exact_ok and adv_ok
    _line(7, "faithful circuits TV=0 exactly; adversarial within envelope",
          ok, f"exact={exact_ok}, adversarial mean TV={rep.mean_tv:.4f} "
              f"<= {envelope:.3f}+3sigma")
    assert ok


def test_criterion_8_jozsa_path():
    rng = np.random.default_rng(88)
    bbt = tree.make_blackbox(2, 8)
    ceiling_ok = True
    for trial in range(50):
        circ = random_jozsa(rng, n=2, g=12, eta=int(rng.integers(1, 3)),
                            max_c=2, max_q=2, p_query=0.6)
        res = HS.jozsa_wrapper(circ, bbt, seed=trial)
        d = total_quantum_layers(circ)
        c_depth = C.accounting(circ).max_classical_depth
        if res.transcript.queries > 4 ** d + c_depth * circ.g:
            ceiling_ok = False
    recomp_ok = True
    for trial in range(10):
        circ = random_jozsa(rng, n=2, g=8, eta=2, max_c=2, max_q=2, p_query=0.0)
        ref = SV.run_jozsa_exact(circ, bbt)
        sim = HS.jozsa_exact_distribution(circ, bbt)
        if SV.tv_distance(ref.probs, sim.probs) != 0.0:
            recomp_ok = False
    ok = ceiling_ok and recomp_ok
    _line(8, "jozsa 4^d + c*g ceiling on 50 circuits; R1/R2 recomposition exact",
          ok, f"ceiling={ceiling_ok}, recomposition={recomp_ok}")
    assert ok


def test_criterion_9_bottleneck():
    rng = np.random.default_rng(99)
    runs = 0
    aborts = 0
    for trial in range(200):
        n = 2 if trial % 2 else 3
        g = 4 * n + 4
        circ = random_hybrid(rng, n=n, g=g, eta=int(rng.integers(1, 4)),
                             max_c=1, max_q=2, p_query=0.6, all_quantum=True)
        bbt = tree.make_blackbox(n, 900 + trial)
        stats = C.accounting(circ)
        tape = BN.SeedTape.generate(trial, n, circ.eta,
                                    max(stats.max_quantum_depth, 1), g)
        if trial % 5 == 4:
            cfg = BN.BottleneckConfig(tau=1e-12, sample_budget=8,
                                      fresh_candidates=6)   # abort exercise
        else:
            cfg = BN.BottleneckConfig(sample_budget=12)
        res = BN.bottleneck_wrapper(circ, bbt, seed=trial, cfg=cfg, tape=tape)
        tape_len = len(tape)
        for call in res.calls:
            assert call.iterations <= BN.loop_ceiling(g, tape_len)
            if not call.aborted:
                assert call.v_out <= BN.size_ceiling(call.v_current, n, g, tape_len)
        if res.aborted:
            aborts += 1
        else:
            assert res.known.is_key_subset_of(res.hist)
            graph: dict[int, set[int]] = {}
            for (x, c), y in res.known.entries.items():
                if y != res.known.invalid:
                    graph.setdefault(x, set()).add(y)
                    graph.setdefault(y, set()).add(x)
            seen, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for w in graph.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert res.known.key_labels() <= seen, "entrance-rooted subtree"
        runs += 1

    # tau=0 degeneration on 20 circuits
    degen_ok = True
    for trial in range(20):
        circ = random_hybrid(rng, n=2, g=12, eta=int(rng.integers(1, 4)),
                             max_c=1, max_q=2, p_query=0.6, all_quantum=True)
        bbt = tree.make_blackbox(2, 990 + trial)
        stats = C.accounting(circ)
        tape = BN.SeedTape.generate(trial, 2, circ.eta,
                                    max(stats.max_quantum_depth, 1), 12)
        b = BN.bottleneck_wrapper(circ, bbt, seed=trial,
                                  cfg=BN.BottleneckConfig(tau=0.0), tape=tape)
        f = HS.few_tier_wrapper(circ, bbt, seed=trial, tier_seed_fn=tape.tier_seed)
        degen_ok &= (b.output == f.output
                     and b.transcript.to_json() == f.transcript.to_json())

    # estimators vs exhaustive enumeration at n=2
    bbt = tree.make_blackbox(2, 404)
    circ = random_hybrid(np.random.default_rng(5), n=2, g=12, eta=2, max_c=1,
                         max_q=2, p_query=0.7, all_quantum=True)
    stats = C.accounting(circ)
    tape = BN.SeedTape.generate(77, 2, circ.eta, max(stats.max_quantum_depth, 1), 12)
    env = BN.EstimatorEnv(circuit=circ, tape=tape, seed=123,
                          structure=bbt.structure, coloring=bbt.coloring)
    h = bbt.handle()
    V = KnownVertices(bbt.invalid)
    V.set_vertex(0, {c: h.query(0, c) for c in range(1, 10)})
    for lab in sorted(V.known_labels() - V.key_labels())[:2]:
        V.set_vertex(lab, vertex_row(bbt, lab))
    for lab in sorted(V.known_labels() - V.key_labels())[:3]:
        V.set_vertex(lab, vertex_row(bbt, lab))
    x = BN.replay_prefix(circ, bbt, tape, 1)
    pos = tree.embed_entries(tree.read_entries(V), bbt.structure, bbt.coloring)
    free_vs = [v for v in range(14) if v not in pos.values()]
    avail = sorted(set(range(1, 15)) - V.known_labels())
    accepted, valid_counts = 0, {}
    for combo in itertools.permutations(avail, len(free_vs)):
        labels = np.empty(14, dtype=np.int64)
        for lab, v in pos.items():
            labels[v] = lab
        for v, lab in zip(free_vs, combo):
            labels[v] = lab
        P = tree.BlackBoxTree(structure=bbt.structure, coloring=bbt.coloring,
                              labels=labels, label_bits=4)
        if BN.replay_prefix(circ, P, tape, 1) == x:
            accepted += 1
            for lab in combo:
                valid_counts[lab] = valid_counts.get(lab, 0) + 1
    cfg = BN.BottleneckConfig(sample_budget=300)
    est_ok = accepted > 0
    for b in avail[:2]:
        exact = valid_counts.get(b, 0) / accepted
        est = BN.estimate_membership_probability(V, x, 1, b, env, cfg)
        est_ok &= est.conclusive and abs(est.value - exact) <= 3 * max(est.stderr, 0.01)
    ratio = BN.estimate_consistency_ratio(V, x, 1, env, cfg)
    total = math.perm(len(avail), len(free_vs))
    est_ok &= abs(ratio.value - accepted / total) <= 3 * max(ratio.stderr, 0.01)

    ok = runs == 200 and degen_ok and est_ok
    _line(9, "bottleneck ceilings/subtrees on 200 runs; tau=0 identity; "
             "estimators vs enumeration",
          ok, f"aborts={aborts}/200 (threshold-tightened runs exercise them), "
              f"tau0={degen_ok}, estimators={est_ok}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    ok = True
    details = []
    for experiment, kwargs in [("walk", dict(n=3, trials=300, steps=120)),
                               ("discovery", dict(n=3, trials=500, h_values=(1, 4))),
                               ("simulate", dict(n=2, samples=6)),
                               ("e2e", dict(n=4, trials=500, samples=6, steps=120))]:
        lines = []
        for run in range(2):
            out = tmp_path / f"{experiment}-{run}.jsonl"
            cfg = ExperimentConfig(experiment=experiment, seed=11,
                                   out=str(out), **kwargs)
            from weldlab.harness import run_command
            rep = run_command(cfg)
            lines.append(write_report(rep, str(out)))
        same = lines[0] == lines[1]
        if experiment == "walk":
            csv0 = (tmp_path / "walk-0.jsonl.walk-n3.csv").read_bytes()
            csv1 = (tmp_path / "walk-1.jsonl.walk-n3.csv").read_bytes()
            same &= csv0 == csv1
        ok &= same
        details.append(f"{experiment}:{'=' if same else '!='}")
    _line(10, "byte-identical reports on rerun (all commands)", ok,
          " ".join(details))
    assert ok
