"""The dict and array kernels of ``statevec`` give bit-identical results.

Each check runs the same work with ``ARRAY_MIN_SUPPORT`` forced to 0 (every
step on arrays, as far as ``KEY_BITS`` allows) and to infinity (every step
on dicts) and compares with ``==``: amplitudes in key order, distributions,
transcripts and the order in which the simulators learned vertices.
"""
from __future__ import annotations

import json
import math

import numpy as np

from weldlab import bottleneck as BN
from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree

from circuit_gen import (_grow_layer, hardcoded_guess_circuit, query_gate, random_hybrid,
                         random_jozsa, random_quantum_layer, tier)
from dense_reference import dense_tier_vector

THRESHOLDS = {"arrays": 0, "dicts": math.inf}


def _both(monkeypatch, fn):
    """``fn()`` under each forced kernel: {"arrays": ..., "dicts": ...}."""
    out = {}
    for name, threshold in THRESHOLDS.items():
        monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
        out[name] = fn()
    return out


def _executor_states(circuit, bbt) -> list:
    """Every layer's state, amplitudes in key order, of each quantum tier
    run from the all-zeros input."""
    states = []
    for t in C._iter_tiers(circuit):
        if t.kind != "quantum":
            continue
        state = SV.PureState.basis(t.width_in, 0)
        for lay in t.layers:
            state = SV.apply_layer(state, lay, bbt, circuit.n)
            states.append((state.width, state.live, list(state.amps.items())))
        states.append(state.marginal())
    return states


def _simulator_states(circuit, bbt) -> list:
    """Every simulated layer's state and known vertices, in learning order."""
    states = []

    def record(lay, state, V, ctx, tier, layer_index):
        state, V = HS.quantum_layer_sim(lay, state, V, ctx, tier, layer_index)
        states.append((list(state.amps.items()), list(V.entries.items())))
        return state, V

    ctx = HS.SimContext.fresh(bbt)
    V = HS.entrance_known(ctx)
    for i, t in enumerate(C._iter_tiers(circuit), 1):
        if t.kind == "quantum":
            probs, V = HS._quantum_tier_state(i, t, 0, V, ctx, record)
            states.append(probs)
    states.append(ctx.transcript.to_json())
    return states


def _wrapper_view(res) -> tuple:
    return (res.output, res.transcript.to_json(), list(res.known.entries.items()))


def _hybrid_results(circuit, bbt, seed):
    return {"exact": list(SV.run_hybrid_exact(circuit, bbt).probs.items()),
            "sim": list(HS.few_tier_exact_distribution(circuit, bbt).probs.items()),
            "sampled": SV.run_hybrid(circuit, bbt, seed),
            "wrapper": _wrapper_view(HS.few_tier_wrapper(circuit, bbt, seed=seed)),
            "executor states": _executor_states(circuit, bbt),
            "simulator states": _simulator_states(circuit, bbt)}


def test_paths_agree_on_random_hybrid_circuits(monkeypatch, bbt2):
    rng = np.random.default_rng(404)
    for trial in range(12):
        circ = random_hybrid(rng, n=2, g=int(rng.integers(12, 15)),
                             eta=int(rng.integers(1, 4)), max_c=2, max_q=3, p_query=0.7)
        got = _both(monkeypatch, lambda: _hybrid_results(circ, bbt2, trial))
        assert got["arrays"] == got["dicts"], f"trial {trial}"


def test_paths_agree_on_outlier_circuits(monkeypatch, bbt2):
    # hardcoded guesses: the substituted answers differ from the true ones,
    # so outlier mass, fidelity and l1_gap are all away from their ideals
    outliers = 0.0
    for guess in range(1, 16):
        circ = hardcoded_guess_circuit(2, guess, color=None, queries=2)
        got = _both(monkeypatch, lambda: _hybrid_results(circ, bbt2, guess))
        assert got["arrays"] == got["dicts"], f"guess {guess}"
        records = json.loads(got["arrays"]["wrapper"][1])["per_layer"]
        outliers = max([outliers] + [r["outlier_mass"] for r in records])
    assert outliers > 0


def test_paths_agree_on_random_jozsa_circuits(monkeypatch, bbt2):
    rng = np.random.default_rng(405)
    for trial in range(8):
        circ = random_jozsa(rng, n=2, g=14, eta=int(rng.integers(1, 3)),
                            max_c=2, max_q=2, p_query=0.7)

        def results():
            return {"exact": list(SV.run_jozsa_exact(circ, bbt2).probs.items()),
                    "sim": list(HS.jozsa_exact_distribution(circ, bbt2).probs.items()),
                    "sampled": SV.run_jozsa(circ, bbt2, trial),
                    "wrapper": _wrapper_view(HS.jozsa_wrapper(circ, bbt2, seed=trial))}

        got = _both(monkeypatch, results)
        assert got["arrays"] == got["dicts"], f"trial {trial}"


def test_paths_agree_on_bottleneck_pipeline(monkeypatch):
    rng = np.random.default_rng(406)
    for trial in range(3):
        circ = random_hybrid(rng, n=2, g=12, eta=2, max_c=1, max_q=2, p_query=0.6,
                             all_quantum=True)
        bbt = tree.make_blackbox(2, 950 + trial)
        stats = C.accounting(circ)
        tape = BN.SeedTape.generate(trial, 2, circ.eta, max(stats.max_quantum_depth, 1), 12)

        def results():
            res = BN.bottleneck_wrapper(circ, bbt, seed=trial,
                                        cfg=BN.BottleneckConfig(sample_budget=8), tape=tape)
            return res.report_json(), res.transcript.to_json()

        got = _both(monkeypatch, results)
        assert got["arrays"] == got["dicts"], f"trial {trial}"


def _random_state(rng, width: int, size: int) -> SV.PureState:
    keys = rng.choice(1 << width, size=size, replace=False)
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    vals /= np.linalg.norm(vals)
    return SV.PureState(width, {int(k): complex(a) for k, a in zip(keys, vals)},
                        tuple(int(w) for w in rng.permutation(width)))


def _layer_record_view(state, lay, bbt, learned):
    ctx = HS.SimContext.fresh(bbt)
    V = HS.entrance_known(ctx)
    for x in learned:
        HS.vertex_query(ctx, V, x)
    psi, V2 = HS.quantum_layer_sim(lay, state, V, ctx)
    return (list(psi.amps.items()), list(V2.entries.items()),
            ctx.transcript.to_json())


def test_primitives_agree_on_large_random_states(monkeypatch, bbt2):
    # thousands of amplitudes, so sums run long enough for their order to
    # show, and query layers on shuffled wires, so the order in which the
    # substitution learns vertices is not the order of the (x, c) pairs
    rng = np.random.default_rng(408)
    learned = [int(x) for x in bbt2.labels[1:6]]
    for trial in range(4):
        state = _random_state(rng, 12, 2500)
        layers = [random_quantum_layer(rng, 12, n=2, p_query=1.0) for _ in range(3)]
        r1 = next(iter(state.marginal(6)))

        def results():
            out = {"norm": state.norm_sq(),
                   "marginals": [list(state.marginal(w).items()) for w in (None, 3, 6)],
                   "measured": list(SV._measure_r1(state, r1, 0b101101, 6).amps.items()),
                   "simulated": [_layer_record_view(state, lay, bbt2, learned)
                                 for lay in layers]}
            st_ = state
            for lay in layers:
                st_ = SV.apply_layer(st_, lay, bbt2, 2)
                out.setdefault("executed", []).append(list(st_.amps.items()))
            return out

        got = _both(monkeypatch, results)
        assert got["arrays"] == got["dicts"], f"trial {trial}"


def _deferred_discard_circuit() -> C.HybridCircuit:
    """128 to 256 amplitudes on 12 live wires, while eight cycles of
    (8 ancillas, a Toffoli into the first, discard all 8) push the physical
    width to 76; the last cycles' ancillas sit above bit 62."""
    g, k = 12, 8
    layers = [C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in range(7)])]
    for _ in range(8):
        layers.append(_grow_layer(g, g + k))
        layers.append(C.layer(g + k, [C.Gate(C.GateKind.TOFFOLI, (0, 1, g)),
                                      C.Gate(C.GateKind.H, (8,)),
                                      C.Gate(C.GateKind.PHASE, (9,))]))
        layers.append(C.layer(g + k, [C.Gate(C.GateKind.DISCARD, (g + j,))
                                      for j in range(k)]))
    layers.append(C.layer(g, [query_gate(2)]))
    layers.append(C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in (0, 3, 5)]))
    circ = C.HybridCircuit(n=2, g=g, tiers=(tier("classical", [_grow_layer(2, g)]),
                                            tier("quantum", layers)))
    C.require_valid(circ)
    return circ


def test_deferred_discards_past_key_bits_keep_the_dict_path(monkeypatch, bbt2):
    circ = _deferred_discard_circuit()
    got = _both(monkeypatch, lambda: _hybrid_results(circ, bbt2, 3))
    assert got["arrays"] == got["dicts"]
    states = [s for s in got["arrays"]["executor states"] if isinstance(s, tuple)]
    widest = max(max(k for k, _a in amps).bit_length() for _w, _l, amps in states)
    assert widest > SV.KEY_BITS and states[-1][0] == 12 + 8 * 8
    monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", 0)
    state = SV.PureState.basis(12, 0)
    for lay in circ.tiers[1].layers:
        state = SV.apply_layer(state, lay, bbt2, 2)
        assert isinstance(state.amps, SV.ArrayMap) == (state.width <= SV.KEY_BITS)


def test_executor_matches_dense_reference_at_wide_support(bbt2):
    # 2^15 amplitudes on 16 wires, query layers included; the default
    # threshold puts every layer on the array kernel
    rng = np.random.default_rng(407)
    W = 16
    layers = [C.layer(W, [C.Gate(C.GateKind.H, (w,)) for w in range(W) if w != 9])]
    layers += [random_quantum_layer(rng, W, n=2, p_query=1.0) for _ in range(3)]
    layers.append(C.layer(W, [query_gate(2, base=4)]))
    t = tier("quantum", layers)
    state = SV.PureState.basis(W, 0)
    support = []
    for lay in t.layers:
        state = SV.apply_layer(state, lay, bbt2, 2)
        assert isinstance(state.amps, SV.ArrayMap)
        support.append(len(state.amps))
    assert min(support) >= 1 << 14
    dense = dense_tier_vector(0, t, 2, bbt2)
    keys, vals = state.arrays()
    sparse = np.zeros(1 << W, dtype=complex)
    sparse[keys] = vals
    assert np.max(np.abs(sparse - dense)) <= 1e-10


def test_cancelled_amplitudes_pruned_after_h_layers(monkeypatch):
    # H on five wires twice is the identity: the second layer's sums leave
    # 31 keys at exactly 0.0, which only the prune after an H layer drops
    h_layer = C.layer(6, [C.Gate(C.GateKind.H, (w,)) for w in range(5)])
    for name, threshold in THRESHOLDS.items():
        monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
        state = SV.apply_layer(SV.PureState.basis(6, 0), h_layer)
        assert len(state.amps) == 32, name
        state = SV.apply_layer(state, h_layer)
        assert list(state.amps) == [0], name
        assert abs(state.amps[0] - 1) < 1e-12, name
        assert isinstance(state.amps, SV.ArrayMap) == (name == "arrays")


def _count_calls(monkeypatch, owner, name: str, calls: dict) -> None:
    fn = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


def test_wire_only_layers_reuse_amplitudes_and_norm(monkeypatch):
    # ANC, DIS and empty layers only move wires in and out of ``live``:
    # the output holds the input's mapping and norm, and no |a|^2 or prune
    # pass runs over the amplitudes
    h_layer = C.layer(12, [C.Gate(C.GateKind.H, (w,)) for w in range(7)])
    wire_only = [_grow_layer(12, 14),
                 C.layer(14, [C.Gate(C.GateKind.DISCARD, (w,)) for w in (12, 13)]),
                 C.identity_layer(12)]
    for name, threshold in THRESHOLDS.items():
        monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
        state = SV.apply_layer(SV.PureState.basis(12, 0), h_layer)
        norm = state.norm_sq()
        calls = {"abs_sq": 0, "hypot": 0}
        _count_calls(monkeypatch, SV, "abs_sq", calls)
        _count_calls(monkeypatch, SV.np, "hypot", calls)
        for lay in wire_only:
            out = SV.apply_layer(state, lay)
            assert out.amps is state.amps and out.norm_sq() == norm, name
            assert out.live == tuple(range(lay.width_out)), name
            state = out
        assert calls == {"abs_sq": 0, "hypot": 0}, name
        assert state.width == 14 and isinstance(state.amps, SV.ArrayMap) == (name == "arrays")
        monkeypatch.undo()


def test_each_state_norm_summed_once_and_no_prune_without_h(monkeypatch):
    # P and TOF layers on the array kernel: one |a|^2 pass per state made
    # (the input's norm is the previous output's), and no hypot prune
    h_layer = C.layer(12, [C.Gate(C.GateKind.H, (w,)) for w in range(8)])
    layers = [C.layer(12, [C.Gate(C.GateKind.PHASE, (w,)) for w in range(4)]),
              C.layer(12, [C.Gate(C.GateKind.TOFFOLI, (0, 1, 9))]),
              C.layer(12, [C.Gate(C.GateKind.PHASE, (9,)),
                           C.Gate(C.GateKind.TOFFOLI, (2, 3, 10))])]
    state = SV.apply_layer(SV.PureState.basis(12, 0), h_layer)
    assert state.wide
    calls = {"abs_sq": 0, "hypot": 0}
    _count_calls(monkeypatch, SV, "abs_sq", calls)
    _count_calls(monkeypatch, SV.np, "hypot", calls)
    for lay in layers:
        state = SV.apply_layer(state, lay)
        assert len(state.amps) == 256 and isinstance(state.amps, SV.ArrayMap)
    assert calls == {"abs_sq": len(layers), "hypot": 0}
