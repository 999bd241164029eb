from __future__ import annotations

import math

import numpy as np
import pytest

from weldlab import circuits as C
from weldlab import statevec as SV
from weldlab import tree
from weldlab.rng import make_rng

from circuit_gen import _x_layers, random_hybrid, random_quantum_layer
from dense_reference import dense_tier_state


def test_hadamard_on_zero():
    st_ = SV.apply_layer(SV.PureState.basis(1, 0),
                         C.layer(1, [C.Gate(C.GateKind.H, (0,))]))
    s = 1 / math.sqrt(2)
    assert abs(st_.amps[0] - s) < 1e-15 and abs(st_.amps[1] - s) < 1e-15


def test_phase_gate():
    st_ = SV.PureState(width=1, amps={0: 0.6, 1: 0.8}, live=(0,))
    st_ = SV.apply_layer(st_, C.layer(1, [C.Gate(C.GateKind.PHASE, (0,))]))
    assert st_.amps[1] == 0.8j and st_.amps[0] == 0.6


def test_toffoli_permutation():
    st_ = SV.PureState.basis(3, 0b011)
    st_ = SV.apply_layer(st_, C.layer(3, [C.Gate(C.GateKind.TOFFOLI, (0, 1, 2))]))
    assert set(st_.amps) == {0b111}


def test_query_layer_twice_is_identity(bbt2):
    lay = C.layer(12, [C.query_gate(2)])
    for start in (0b0, 0b1010, 0b000100000011):
        st_ = SV.PureState.basis(12, start)
        st_ = SV.apply_layer(st_, lay, bbt2, 2)
        st_ = SV.apply_layer(st_, lay, bbt2, 2)
        assert set(st_.amps) == {start}
        assert abs(st_.amps[start] - 1) < 1e-12


def test_query_branches_match_classical_per_basis(bbt2):
    # superpose junk labels, one query gate: every branch gets the classically
    # computed answer
    h_layer = C.layer(12, [C.Gate(C.GateKind.H, (w,)) for w in range(4)])
    q_layer = C.layer(12, [C.query_gate(2)])
    st_ = SV.PureState.basis(12, 1 << 4)  # color register = 1
    st_ = SV.apply_layer(st_, h_layer, bbt2, 2)
    st_ = SV.apply_layer(st_, q_layer, bbt2, 2)
    for key in st_.amps:
        x = key & 0xF
        y = (key >> 8) & 0xF
        assert y == bbt2.answer(x, 1)


def test_norm_drift_asserted():
    st_ = SV.PureState(width=1, amps={0: 1.0, 1: 0.5}, live=(0,))
    with pytest.raises(AssertionError):
        st_.assert_normalized()


def test_query_layer_linearity_on_random_sparse_states(bbt2):
    # applying the layer per basis state and summing equals applying it to
    # the superposition
    rng = np.random.default_rng(21)
    lay = C.layer(12, [C.query_gate(2)])
    for _ in range(10):
        keys = rng.choice(1 << 12, size=8, replace=False)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        raw /= np.linalg.norm(raw)
        state = SV.PureState(width=12, live=tuple(range(12)),
                             amps={int(k): complex(a) for k, a in zip(keys, raw)})
        whole = SV.apply_layer(state, lay, bbt2, 2)
        summed: dict[int, complex] = {}
        for k, a in state.amps.items():
            branch = SV.apply_layer(SV.PureState.basis(12, k), lay, bbt2, 2)
            for k2, a2 in branch.amps.items():
                summed[k2] = summed.get(k2, 0j) + a * a2
        assert set(summed) == set(whole.amps)
        for k2 in summed:
            assert abs(summed[k2] - whole.amps[k2]) <= 1e-12


def test_dense_reference_agreement_small():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        W = int(rng.integers(2, 9))
        layers = [random_quantum_layer(rng, W, n=50, p_query=0) for _ in range(3)]
        t = C.tier("quantum", layers)
        x = int(rng.integers(0, 1 << W))
        state = SV.PureState.basis(W, x)
        for lay in t.layers:
            state = SV.apply_layer(state, lay)
        dense = dense_tier_state(x, t, 50, None)
        for k in range(1 << W):
            worst = max(worst, abs(state.amps.get(k, 0j) - dense[k]))
    assert worst <= 1e-10


def test_dense_reference_agreement_with_queries(bbt2):
    rng = np.random.default_rng(12)
    for _ in range(5):
        layers = [random_quantum_layer(rng, 12, n=2, p_query=0.9) for _ in range(2)]
        t = C.tier("quantum", layers)
        state = SV.PureState.basis(12, 0)
        for lay in t.layers:
            state = SV.apply_layer(state, lay, bbt2, 2)
        dense = dense_tier_state(0, t, 2, bbt2)
        for k in np.flatnonzero(np.abs(dense) > 1e-13):
            assert abs(state.amps.get(int(k), 0j) - dense[k]) <= 1e-10


def test_identity_tier_echo(bbt2):
    t = C.tier("quantum", [C.identity_layer(5)])
    for x in (0, 7, 21):
        assert SV.run_quantum_tier(x, t, bbt2, seed=1) == x


def test_single_hadamard_tier_born_rule(bbt2):
    t = C.tier("quantum", [C.layer(1, [C.Gate(C.GateKind.H, (0,))])])
    hits = sum(SV.run_quantum_tier(0, t, bbt2, seed=s) for s in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_sampled_vs_exact_distribution_tv(bbt2):
    rng = np.random.default_rng(3)
    circ = random_hybrid(rng, n=2, g=12, eta=2, max_c=2, max_q=3, p_query=0.7)
    dist = SV.run_hybrid_exact(circ, bbt2)
    draw_rng = make_rng(99, "draws")
    draws = {}
    for _ in range(10_000):
        z = SV.sample_outcome(dist.probs, draw_rng)
        draws[z] = draws.get(z, 0) + 1
    emp = {k: v / 10_000 for k, v in draws.items()}
    assert SV.tv_distance(emp, dist.probs) <= 0.02


def test_query_free_circuit_independent_of_tree():
    rng = np.random.default_rng(4)
    circ = random_hybrid(rng, n=2, g=10, eta=3, max_c=2, max_q=2, p_query=0.0)
    d1 = SV.run_hybrid_exact(circ, tree.make_blackbox(2, 1))
    d2 = SV.run_hybrid_exact(circ, tree.make_blackbox(2, 2))
    assert d1.probs == d2.probs


def test_exact_width_cap():
    t1 = C.Tier("classical", (C.Layer(2, 23, tuple(
        C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(2, 23))),), 2, 23)
    circ = C.HybridCircuit(n=2, g=23, tiers=(t1,))
    with pytest.raises(ValueError):
        SV.run_hybrid_exact(circ, tree.make_blackbox(2, 1))


def test_discard_is_deferred_and_marginalized(bbt2):
    # entangle two wires through an always-on ancilla control, discard the
    # ancilla: the output marginal must be the Bell-pair distribution
    lay1 = C.Layer(2, 3, (C.Gate(C.GateKind.ANCILLA, (2,)),
                          C.Gate(C.GateKind.H, (0,))))
    lay2 = _x_layers(3, [2])  # set wire 2 to |1>
    lay3 = C.layer(3, [C.Gate(C.GateKind.TOFFOLI, (0, 2, 1))])  # CNOT 0->1
    lay4 = C.layer(3, [C.Gate(C.GateKind.DISCARD, (2,))])
    t = C.tier("quantum", [lay1] + lay2 + [lay3, lay4])
    probs = SV.exact_tier_distribution(0, t, bbt2)
    assert set(probs) == {0b00, 0b11}
    assert abs(probs[0b00] - 0.5) < 1e-12 and abs(probs[0b11] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# success probability over labelings
# ---------------------------------------------------------------------------

def _constant_output_circuit(n: int, value: int) -> C.HybridCircuit:
    """Output register wires 0..2n-1 set to ``value`` via HPPH bit-setters."""
    g = 2 * n + 1
    grow = C.Layer(n, g, tuple(C.Gate(C.GateKind.ANCILLA, (w,))
                               for w in range(n, g)))
    wires = [j for j in range(2 * n) if (value >> j) & 1]
    layers = _x_layers(g, wires) or [C.identity_layer(g)]
    return C.HybridCircuit(n=n, g=g, tiers=(
        C.Tier("classical", (grow,), n, g), C.tier("quantum", layers)))


def _walk_replay_circuit(bbt: tree.BlackBoxTree) -> C.HybridCircuit:
    """Chains query gates along the color path entrance->exit.

    The color path depends only on the fixed structure and coloring, so the
    circuit finds the exit label under every labeling.  Each query's
    x-register reuses the previous answer's y-register wires; the last
    answer lands on wires 0..2n-1, the output convention's window.
    """
    s, col, n = bbt.structure, bbt.coloring, bbt.n
    path = [s.entrance]
    prev = {s.entrance: None}
    queue = [s.entrance]
    while queue:
        v = queue.pop(0)
        if v == s.exit:
            break
        for w in s.adjacency[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [s.exit]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    colors = [col.edge_color(s, a, b) for a, b in zip(path, path[1:])]

    width = 2 * n  # final answer register: wires 0..2n-1
    x_regs = []
    c_regs = []
    y_regs = []
    cur_x = None
    for k, c in enumerate(colors):
        if k == 0:
            x_reg = tuple(range(width, width + 2 * n))  # all-zero = entrance
            width += 2 * n
        else:
            x_reg = y_regs[-1]
        c_reg = tuple(range(width, width + 4))
        width += 4
        y_reg = tuple(range(width, width + 2 * n)) if k < len(colors) - 1 \
            else tuple(range(0, 2 * n))
        if k < len(colors) - 1:
            width += 2 * n
        x_regs.append(x_reg)
        c_regs.append(c_reg)
        y_regs.append(y_reg)
    g = width
    grow = C.Layer(n, g, tuple(C.Gate(C.GateKind.ANCILLA, (w,))
                               for w in range(n, g)))
    layers: list[C.Layer] = []
    set_wires = []
    for c_reg, c in zip(c_regs, colors):
        set_wires += [c_reg[j] for j in range(4) if (c >> j) & 1]
    layers.extend(_x_layers(g, set_wires))
    for x_reg, c_reg, y_reg in zip(x_regs, c_regs, y_regs):
        layers.append(C.layer(g, [C.Gate(C.GateKind.QUERY, x_reg + c_reg + y_reg)]))
    circ = C.HybridCircuit(n=n, g=g, tiers=(
        C.Tier("classical", (grow,), n, g), C.tier("quantum", layers)))
    C.require_valid(circ)
    return circ


def test_success_probability_zero_for_entrance_output():
    structure = tree.generate_structure(2, 5)
    circ = _constant_output_circuit(2, 0)
    est = SV.success_probability(circ, structure, labelings=40, seed=1)
    assert est.value == 0.0


def test_success_probability_one_for_walk_replay():
    bbt = tree.make_blackbox(2, 5)
    circ = _walk_replay_circuit(bbt)
    # fix the same coloring by reusing the structure; the replay path is a
    # property of (structure, coloring), so rebuild per labeling with them
    hits = 0
    for t_idx in range(25):
        b = tree.generate_labels(bbt.structure, bbt.coloring, t_idx,
                                label_bits=bbt.label_bits)
        out = SV.run_hybrid(circ, b, seed=t_idx)
        hits += (out & 0xF) == b.exit_label()
    assert hits == 25


def test_success_probability_random_guess_rate():
    n = 3
    structure = tree.generate_structure(n, 9)
    rng = np.random.default_rng(1)
    guess = int(rng.integers(1, (1 << (2 * n)) - 1))
    circ = _constant_output_circuit(n, guess)
    est = SV.success_probability(circ, structure, labelings=3000, seed=2)
    expected = 1 / (2 ** (2 * n) - 2)
    assert abs(est.value - expected) <= 3 * max(est.stderr, 1e-4)
