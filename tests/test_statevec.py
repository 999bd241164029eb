from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree
from weldlab.rng import derive_seed, make_rng

from circuit_gen import _x_layers, query_gate, random_hybrid, random_quantum_layer, tier
from dense_reference import dense_tier_state
from tree_tools import edge_color, exit_label


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


def _dict_groups(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """What a dict filled in element order holds: distinct keys in order of
    first appearance, and each element's index among them."""
    first: dict[int, int] = {}
    group = [first.setdefault(k, len(first)) for k in keys.tolist()]
    return list(first), group


def _group_inputs():
    rng = np.random.default_rng(61)
    for size in (1, 2, 7, 130, 1000, 5000):
        yield rng.integers(0, 10, size=size)
        yield np.full(size, 12345)
        yield rng.permutation(size)
        yield rng.integers(0, 1 << 40, size=size)
        for span in (size // 2 + 1, size, SV.TABLE_SPAN * size - 1, SV.TABLE_SPAN * size,
                     64 * size):
            yield rng.integers(0, span, size=size)
    yield np.array([5, -3, 5, 0, -3, 9])


def test_first_groups_table_and_sort_agree(monkeypatch):
    # each input through the path its key range picks, then through each
    # path forced: the sort always, the table wherever it is small
    default = SV.TABLE_SPAN
    for keys in list(_group_inputs()):
        want = _dict_groups(keys)
        runs = {"default": default, "sort": 0}
        if keys.size and keys.min() >= 0 and keys.max() < 1 << 20:
            runs["table"] = 1 << 40
        for path, span in runs.items():
            monkeypatch.setattr(SV, "TABLE_SPAN", span)
            distinct, group = SV._first_groups(keys)
            assert (distinct.tolist(), group.tolist()) == want, (path, keys[:10])


def _order_inputs(size: int):
    """(kind, keys) of ``size`` elements, of each kind a layer can leave."""
    rng = np.random.default_rng(size)
    half = rng.integers(0, 1 << 20, size=size // 2)
    yield "random", rng.integers(0, 1 << 40, size=size)
    yield "negative", rng.integers(-(1 << 40), 1 << 40, size=size)
    yield "ascending", np.sort(rng.choice(1 << 30, size=size, replace=False))
    yield "descending", np.sort(rng.choice(1 << 30, size=size, replace=False))[::-1].copy()
    yield "pairs", SV._interleave(half & ~(1 << 20), half | (1 << 20))
    yield "duplicates", rng.integers(0, 50, size=size)


@pytest.mark.parametrize("size", [0, 1, 2, 300, SV.PACK_MIN_KEYS, 5000])
def test_stable_order_is_the_stable_argsort(size, monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    for kind, keys in _order_inputs(size):
        calls.clear()
        order, sorted_keys = SV.stable_order(keys)
        want = argsort(keys, kind="stable")
        assert order.tolist() == want.tolist() and sorted_keys.tolist() == keys[want].tolist()
        # packed from PACK_MIN_KEYS non-negative keys on
        assert bool(calls) == (size < SV.PACK_MIN_KEYS or kind == "negative"), kind


@pytest.mark.parametrize("top_bits, packed", [(52, True), (53, False)])
def test_stable_order_falls_back_where_key_and_index_bits_pass_63(top_bits, packed,
                                                                  monkeypatch):
    # 2,048 keys take 11 index bits: keys of 52 bits pack, of 53 bits do not
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    keys = np.random.default_rng(5).integers(0, 1 << 20, size=2048) << (top_bits - 20)
    keys[7] = (1 << top_bits) - 1
    order, sorted_keys = SV.stable_order(keys)
    want = argsort(keys, kind="stable")
    assert order.tolist() == want.tolist() and sorted_keys.tolist() == keys[want].tolist()
    assert bool(calls) != packed


def test_array_prune_keeps_what_hypot_keeps():
    # each component pair on both kernels: the bound m = max(|re|, |im|)
    # decides all but PRUNE_TOL/2 <= m < PRUNE_TOL, which hypot decides
    tol = SV.PRUNE_TOL
    below, above = np.nextafter(tol, 0), np.nextafter(tol, 1)
    parts = [(0.0, 0.0), (-0.0, 0.0), (tol / 2, 0.0), (tol / 2, tol / 2),
             (np.nextafter(tol / 2, 0), np.nextafter(tol / 2, 0)), (below, 0.0), (0.0, -below),
             (tol, 0.0), (0.0, -tol), (above, 0.0), (0.71 * tol, 0.71 * tol),
             (-0.7 * tol, 0.7 * tol), (0.8 * tol, -0.6 * tol), (0.6 * tol, 0.8 * tol),
             (below, below), (5e-324, 0.0), (1e-310, -1e-310), (1e-5, 0.0), (0.3, -0.4)]
    re, im = np.array(parts).T
    keys = np.arange(len(parts)) * 3
    want = np.hypot(re, im) >= tol
    assert 0 < np.count_nonzero(want & (np.maximum(abs(re), abs(im)) < tol))
    k, got = SV._prune_arrays(keys, SV._complex(re, im))
    assert k.tolist() == keys[want].tolist()
    assert (got.real.tolist(), got.imag.tolist()) == (re[want].tolist(), im[want].tolist())
    kept = SV._prune(dict(zip(keys.tolist(), SV._complex(re, im).tolist())))
    assert list(kept) == keys[want].tolist()


def _signed(pairs) -> list:
    """(key, re, im, sign of re, sign of im) of each amplitude: == then tells
    zeros of either sign apart."""
    return [(k, a.real, a.imag, math.copysign(1, a.real), math.copysign(1, a.imag))
            for k, a in pairs]


@pytest.mark.parametrize("ones", ["no key", "every key", "some wires"])
def test_partner_free_h_matches_dict_kernel(ones):
    # H on wires 4, 9 and 12 where no key meets its partner: every key lacks
    # each bit, has each, or has only bit 9 -- one broadcast; then H on wire
    # 2, where keys meet.  Zeros of both signs included
    rng = np.random.default_rng(71)
    run = [1 << w for w in (4, 9, 12)]
    keys = np.unique(rng.integers(0, 1 << 16, size=400) & ~sum(run))[:300]
    keys = rng.permutation(keys) | {"no key": 0, "every key": sum(run), "some wires": 1 << 9}[ones]
    re, im = rng.normal(size=300), rng.normal(size=300)
    re[:4], im[:4] = [0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]
    vals = SV._complex(re, im)
    for steps in ([(C.GateKind.H, bit, 0) for bit in run],
                  [(C.GateKind.H, bit, 0) for bit in run + [1 << 2]]):
        want = SV._steps_dict(dict(zip(keys.tolist(), vals.tolist())), steps)
        k, got = SV._steps_arrays(keys, vals, steps)
        assert _signed(zip(k.tolist(), got.tolist())) == _signed(want.items())
    assert len(want) < 2 * 8 * keys.size


def test_phase_runs_turn_each_amplitude_once_per_set_wire():
    # P on five wires and a Toffoli between them: keys with 0 to 5 of the
    # wires set, and every pattern of zero parts, where four turns flip a
    # zero's sign: (a, +0) -> (+0, a) -> (-a, +0) -> (-0, -a) -> (a, -0)
    rng = np.random.default_rng(72)
    wires = (1, 4, 6, 8, 11)
    keys = rng.permutation(1 << 12)[:900]
    parts = [0.0, -0.0, 0.7, -0.7]
    re = np.array([parts[i % 4] for i in range(900)]) * rng.uniform(1, 2, size=900)
    im = np.array([parts[i // 4 % 4] for i in range(900)]) * rng.uniform(1, 2, size=900)
    vals = SV._complex(re, im)
    steps = [(C.GateKind.PHASE, 1 << w, 0) for w in wires[:2]]
    steps += [(C.GateKind.TOFFOLI, (1 << 2) | (1 << 3), 1 << 5)]
    steps += [(C.GateKind.PHASE, 1 << w, 0) for w in wires[2:]]
    want = SV._steps_dict(dict(zip(keys.tolist(), vals.tolist())), steps)
    k, got = SV._steps_arrays(keys, vals, steps)
    assert _signed(zip(k.tolist(), got.tolist())) == _signed(want.items())
    four = [a for key, a in want.items() if sum(key >> w & 1 for w in wires) == 4
            and a.imag == 0 and a.real > 0]
    assert any(math.copysign(1, a.imag) < 0 for a in four)


def test_query_layer_twice_is_identity(bbt2):
    lay = C.layer(12, [query_gate(2)])
    for start in (0b0, 0b1010, 0b000100000011):
        st_ = SV.PureState.basis(12, start)
        st_ = SV.apply_layer(st_, lay, bbt2, 2)
        st_ = SV.apply_layer(st_, lay, bbt2, 2)
        assert set(st_.amps) == {start}
        assert abs(st_.amps[start] - 1) < 1e-12


def test_layer_plan_is_kept_only_once_built(bbt2):
    # without n a query layer cannot be planned: it raises on every call and
    # keeps nothing; with n its plan is built once per (width, live, n), and
    # without the tree it still raises
    q = C.layer(12, [query_gate(2)])
    state = SV.PureState.basis(12, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="black-box tree and n"):
            SV.apply_layer(state, q)
    assert q.plans == {}
    first = SV.apply_layer(state, q, bbt2, 2)
    plan = q.plans[(12, state.live, 2)]
    assert SV.apply_layer(state, q, bbt2, 2) == first
    assert list(q.plans) == [(12, state.live, 2)] and q.plans[(12, state.live, 2)] is plan
    with pytest.raises(ValueError, match="black-box tree and n"):
        SV.apply_layer(state, q, None, 2)


def test_query_branches_match_classical_per_basis(bbt2):
    # superpose junk labels, one query gate: every branch gets the classically
    # computed answer
    h_layer = C.layer(12, [C.Gate(C.GateKind.H, (w,)) for w in range(4)])
    q_layer = C.layer(12, [query_gate(2)])
    st_ = SV.PureState.basis(12, 1 << 4)  # color register = 1
    st_ = SV.apply_layer(st_, h_layer, bbt2, 2)
    st_ = SV.apply_layer(st_, q_layer, bbt2, 2)
    for key in st_.amps:
        x = key & 0xF
        y = (key >> 8) & 0xF
        assert y == bbt2.answer(x, 1)


def test_query_layer_linearity_on_random_sparse_states(bbt2):
    # applying the layer per basis state and summing equals applying it to
    # the superposition
    rng = np.random.default_rng(21)
    lay = C.layer(12, [query_gate(2)])
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
        t = tier("quantum", layers)
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
        t = tier("quantum", layers)
        state = SV.PureState.basis(12, 0)
        for lay in t.layers:
            state = SV.apply_layer(state, lay, bbt2, 2)
        dense = dense_tier_state(0, t, 2, bbt2)
        for k in np.flatnonzero(np.abs(dense) > 1e-13):
            assert abs(state.amps.get(int(k), 0j) - dense[k]) <= 1e-10


def _tier_probs(x: int, t: C.Tier, bbt) -> dict[int, float]:
    """The executor's outcome distribution of quantum tier ``t`` from basis ``x``."""
    return SV.TrueOracle(bbt, bbt.n).quantum_tier(1, t, x, None)[0]


def _run_quantum_tier(x: int, t: C.Tier, bbt, seed: int) -> int:
    return SV.sample_outcome(_tier_probs(x, t, bbt), make_rng(seed, "tier-measurement").random())


def test_identity_tier_echo(bbt2):
    t = tier("quantum", [C.identity_layer(5)])
    for x in (0, 7, 21):
        assert _run_quantum_tier(x, t, bbt2, seed=1) == x


def test_single_hadamard_tier_born_rule(bbt2):
    t = tier("quantum", [C.layer(1, [C.Gate(C.GateKind.H, (0,))])])
    hits = sum(_run_quantum_tier(0, t, bbt2, seed=s) for s in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_sampled_vs_exact_distribution_tv(bbt2):
    rng = np.random.default_rng(3)
    circ = random_hybrid(rng, n=2, g=12, eta=2, max_c=2, max_q=3, p_query=0.7)
    dist = SV.run_hybrid_exact(circ, bbt2)
    draw_rng = make_rng(99, "draws")
    draws = {}
    for _ in range(10_000):
        z = SV.sample_outcome(dist.probs, draw_rng.random())
        draws[z] = draws.get(z, 0) + 1
    emp = {k: v / 10_000 for k, v in draws.items()}
    assert SV.tv_distance(emp, dist.probs) <= 0.02


def test_tv_distance_sums_left_to_right():
    # a compensated sum, as builtin sum is from Python 3.12, gives
    # 0.5000000000000001 here; reports read the same on every Python
    assert SV.tv_distance({0: 1.0, 1: 1e-16, 2: 1e-16}, {}) == 0.5


def _left_to_right(values) -> float:
    total = 0
    for v in values:
        total = total + v
    return total


@pytest.mark.parametrize("size", [0, 1, 2, 3, 64, 1024])
def test_seq_sum_adds_left_to_right(size):
    # magnitudes spread over 30 decades, so a compensated or pairwise sum
    # differs from the loop in its last bits
    rng = np.random.default_rng(size)
    for _ in range(20):
        values = (rng.standard_normal(size) * 10.0 ** rng.integers(-15, 15, size)).tolist()
        want = _left_to_right(values)
        assert SV.seq_sum(values) == want
        assert SV.seq_sum(v for v in values) == want
        assert SV.seq_sum(dict(enumerate(values)).values()) == want
        assert SV.seq_sum(np.array(values)) == want


def test_query_free_circuit_independent_of_tree():
    rng = np.random.default_rng(4)
    circ = random_hybrid(rng, n=2, g=10, eta=3, max_c=2, max_q=2, p_query=0.0)
    d1 = SV.run_hybrid_exact(circ, tree.make_blackbox(2, 1))
    d2 = SV.run_hybrid_exact(circ, tree.make_blackbox(2, 2))
    assert d1.probs == d2.probs


def _grow(n: int, g: int) -> C.Layer:
    return C.layer(n, [C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(n, g)])


def _h_layer(width: int, wires) -> C.Layer:
    return C.layer(width, [C.Gate(C.GateKind.H, (w,)) for w in wires])


def test_support_cap_bounds_what_a_layer_can_hold(monkeypatch):
    # width bounds nothing: 23 wires of ANC gates run with support 1
    circ = C.HybridCircuit(n=2, g=23, tiers=(tier("classical", [_grow(2, 23)]),))
    assert SV.run_hybrid_exact(circ, tree.make_blackbox(2, 1)).probs == {0: 1.0}
    # a layer may hold min(support * 2^(H gates), 2^width) amplitudes: at a
    # cap of 2^4, four H gates on a basis state reach it and run, and one H
    # gate on a full 4-wire state is held to 2^4 by the width
    monkeypatch.setattr(SV, "EXACT_SUPPORT_CAP", 1 << 4)
    assert len(SV.apply_layer(SV.PureState.basis(4, 0), _h_layer(4, range(4))).amps) == 16
    full = SV.PureState(width=4, amps=dict.fromkeys(range(16), 0.25 + 0j), live=tuple(range(4)))
    assert len(SV.apply_layer(full, _h_layer(4, [0])).amps) == 8


def _hybrid_h(h: int) -> C.HybridCircuit:
    """n=2, grown to ``h`` wires, then one quantum layer of ``h`` H gates."""
    return C.HybridCircuit(n=2, g=h, tiers=(tier("classical", [_grow(2, h)]),
                                            tier("quantum", [_h_layer(h, range(h))])))


def _jozsa_h(h: int) -> C.JozsaCircuit:
    """n=2, grown to the even width h + 1, then ``h`` H gates; R1 is left alone."""
    g = h + 1
    return C.JozsaCircuit(
        n=2, g=g, quantum_tiers=(tier("quantum", [_grow(2, g), _h_layer(g, range(h))]),),
        classical_tiers=(C.Tier("classical", (), g // 2, g // 2),))


CAP_PATHS = {
    "run_hybrid_exact": ("tier 2, layer 0", lambda h, bbt: SV.run_hybrid_exact(_hybrid_h(h), bbt)),
    "run_hybrid": ("tier 2, layer 0", lambda h, bbt: SV.run_hybrid(_hybrid_h(h), bbt, 1)),
    "few_tier_exact_distribution": ("tier 2, layer 0", lambda h, bbt:
                                    HS.few_tier_exact_distribution(_hybrid_h(h), bbt)),
    "run_jozsa_exact": ("tier 1, layer 1", lambda h, bbt: SV.run_jozsa_exact(_jozsa_h(h), bbt)),
}


@pytest.mark.parametrize("h", [5, 23], ids=["lowered-cap", "cap"])
@pytest.mark.parametrize("path", list(CAP_PATHS))
def test_a_layer_past_the_support_cap_is_refused(path, h, bbt2, monkeypatch):
    # h H gates on a basis state may reach 2^h amplitudes, twice the cap;
    # the refusal comes before the layer makes any
    if h == 5:
        monkeypatch.setattr(SV, "EXACT_SUPPORT_CAP", 1 << 4)
    where, run = CAP_PATHS[path]
    cap = h - 1
    with pytest.raises(ValueError, match=re.escape(
            f"{where} may hold {1 << h} amplitudes, past the support cap 2^{cap} = {1 << cap}")):
        run(h, bbt2)


def test_a_28_wire_circuit_runs_exactly():
    # n=4: ANC up to 28 wires, H on the c-register, one query from the
    # entrance (x = 0) into y; each of the 16 colors holds 1/16
    bbt = tree.make_blackbox(4, 3)
    x, c, y = range(0, 8), range(8, 12), range(12, 20)
    query = C.Gate(C.GateKind.QUERY, (*x, *c, *y))
    circ = C.HybridCircuit(n=4, g=28, tiers=(
        tier("classical", [_grow(4, 28)]),
        tier("quantum", [_h_layer(28, c), C.layer(28, [query])])))
    probs = SV.run_hybrid_exact(circ, bbt).probs
    want = {(col << 8) | (bbt.answer(0, col) << 12) for col in range(16)}
    assert set(probs) == want and len(want) == 16
    assert all(abs(p - 1 / 16) <= 1e-12 for p in probs.values())


def test_apply_layer_rejects_a_state_of_another_width():
    with pytest.raises(ValueError, match="layer expects 3 wires, state has 2"):
        SV.apply_layer(SV.PureState.basis(2, 0), C.identity_layer(3))


def test_discard_is_deferred_and_marginalized(bbt2):
    # entangle two wires through an always-on ancilla control, discard the
    # ancilla: the output marginal must be the Bell-pair distribution
    lay1 = C.Layer(2, 3, (C.Gate(C.GateKind.ANCILLA, (2,)),
                          C.Gate(C.GateKind.H, (0,))))
    lay2 = _x_layers(3, [2])  # set wire 2 to |1>
    lay3 = C.layer(3, [C.Gate(C.GateKind.TOFFOLI, (0, 2, 1))])  # CNOT 0->1
    lay4 = C.layer(3, [C.Gate(C.GateKind.DISCARD, (2,))])
    t = tier("quantum", [lay1] + lay2 + [lay3, lay4])
    probs = _tier_probs(0, t, bbt2)
    assert set(probs) == {0b00, 0b11}
    assert abs(probs[0b00] - 0.5) < 1e-12 and abs(probs[0b11] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# success probability over labelings
# ---------------------------------------------------------------------------

@dataclass
class Estimate:
    value: float
    stderr: float
    trials: int


def success_probability(circuit: C.Circuit, structure, labelings: int,
                        seed: int) -> Estimate:
    """Monte Carlo over fresh labelings of the fixed structure.

    Success means the circuit's output (first 2n output bits, zero padded)
    equals the exit vertex's label.  The coloring is drawn once from the
    seed; per-trial labelings use derived seeds.
    """
    C.require_valid(circuit)
    coloring = tree.generate_coloring(structure, derive_seed(seed, "coloring-pick"))
    mask = (1 << (2 * structure.n)) - 1
    hits = 0
    for t_idx in range(labelings):
        bbt = tree.generate_labels(structure, coloring, derive_seed(seed, "labeling", t_idx))
        run_seed = derive_seed(seed, "run", t_idx)
        if isinstance(circuit, C.HybridCircuit):
            out = SV.run_hybrid(circuit, bbt, run_seed, handle=bbt.handle())
        else:
            out = SV.run_jozsa(circuit, bbt, run_seed, handle=bbt.handle())
        if (out & mask) == exit_label(bbt):
            hits += 1
    p = hits / labelings
    stderr = math.sqrt(max(p * (1 - p), 1.0 / labelings)) / math.sqrt(labelings)
    return Estimate(value=p, stderr=stderr, trials=labelings)

def _constant_output_circuit(n: int, value: int) -> C.HybridCircuit:
    """Output register wires 0..2n-1 set to ``value`` via HPPH bit-setters."""
    g = 2 * n + 1
    grow = C.Layer(n, g, tuple(C.Gate(C.GateKind.ANCILLA, (w,))
                               for w in range(n, g)))
    wires = [j for j in range(2 * n) if (value >> j) & 1]
    layers = _x_layers(g, wires) or [C.identity_layer(g)]
    return C.HybridCircuit(n=n, g=g, tiers=(
        C.Tier("classical", (grow,), n, g), tier("quantum", layers)))


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
        for w in s.neighbors[v].tolist():
            if w >= 0 and w not in prev:
                prev[w] = v
                queue.append(w)
    path = [s.exit]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    colors = [edge_color(col, a, b) for a, b in zip(path, path[1:])]

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
        C.Tier("classical", (grow,), n, g), tier("quantum", layers)))
    C.require_valid(circ)
    return circ


def test_success_probability_zero_for_entrance_output():
    structure = tree.generate_structure(2, 5)
    circ = _constant_output_circuit(2, 0)
    est = success_probability(circ, structure, labelings=40, seed=1)
    assert est.value == 0.0


def test_success_probability_one_for_walk_replay():
    bbt = tree.make_blackbox(2, 5)
    circ = _walk_replay_circuit(bbt)
    # fix the same coloring by reusing the structure; the replay path is a
    # property of (structure, coloring), so rebuild per labeling with them
    hits = 0
    for t_idx in range(25):
        b = tree.generate_labels(bbt.structure, bbt.coloring, t_idx)
        out = SV.run_hybrid(circ, b, seed=t_idx)
        hits += (out & 0xF) == exit_label(b)
    assert hits == 25


def test_success_probability_random_guess_rate():
    n = 3
    structure = tree.generate_structure(n, 9)
    rng = np.random.default_rng(1)
    guess = int(rng.integers(1, (1 << (2 * n)) - 1))
    circ = _constant_output_circuit(n, guess)
    est = success_probability(circ, structure, labelings=3000, seed=2)
    expected = 1 / (2 ** (2 * n) - 2)
    assert abs(est.value - expected) <= 3 * max(est.stderr, 1e-4)


# ---------------------------------------------------------------------------
# the executor's own checks: each fires when its invariant is broken
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("probs, error", [
    ({0: 1.5, 1: -0.5}, "negative probability"),
    ({0: 0.25, 1: 0.5}, "probabilities sum to 0.75"),
], ids=["negative", "sum below 1"])
def test_output_distribution_refuses_an_improper_table(probs, error):
    with pytest.raises(AssertionError, match=re.escape(error)):
        SV.OutputDistribution(1, probs)


KERNELS = pytest.mark.parametrize("threshold", [0, math.inf], ids=["arrays", "dicts"])


@KERNELS
def test_a_layer_that_changes_the_norm_is_refused(monkeypatch, threshold):
    # step kernels that keep only half of each amplitude, on an H layer from a
    # basis state and on a P layer after it, at supports 2, 128 and 2^16
    monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
    h_layers = [C.layer(16, [C.Gate(C.GateKind.H, (w,)) for w in range(k)])
                for k in (1, 7, 16)]
    spread = [SV.apply_layer(SV.PureState.basis(16, 0), lay) for lay in h_layers]
    p_layer = C.layer(16, [C.Gate(C.GateKind.PHASE, (0,))])
    steps_dict, steps_arrays = SV._steps_dict, SV._steps_arrays

    def halved_arrays(keys, vals, steps):
        keys, vals = steps_arrays(keys, vals, steps)
        return keys, vals / 2

    monkeypatch.setattr(SV, "_steps_dict", lambda amps, steps: {
        k: a / 2 for k, a in steps_dict(amps, steps).items()})
    monkeypatch.setattr(SV, "_steps_arrays", halved_arrays)
    for h_layer, state in zip(h_layers, spread):
        with pytest.raises(AssertionError, match="layer changed norm by -0.7"):
            SV.apply_layer(SV.PureState.basis(16, 0), h_layer)
        with pytest.raises(AssertionError, match="layer changed norm by -0.7"):
            SV.apply_layer(state, p_layer)


@pytest.mark.parametrize("size", [1 << 9, 1 << 14, 1 << 16])
def test_the_layer_check_sum_is_within_n_ulps_of_the_reported_norm(size):
    # the reported norm is summed left to right on both kernels; the check
    # on arrays is summed in numpy's order, so only a bound relates the two
    rng = np.random.default_rng(size)
    keys = np.arange(size, dtype=np.int64)
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    arrays = SV.PureState(17, SV.ArrayMap(keys, vals), tuple(range(17)))
    dicts = SV.PureState(17, dict(zip(keys.tolist(), vals.tolist())), tuple(range(17)))
    norm = arrays.norm_sq()
    assert dicts.check_sq() == dicts.norm_sq() == norm
    assert abs(arrays.check_sq() - norm) <= size * np.finfo(float).eps * norm


@KERNELS
def test_measuring_an_outcome_of_probability_zero_is_refused(monkeypatch, threshold):
    # R1 (wires 0 and 1) reads 0b01 or 0b11 on this state, never 0b10
    monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
    state = SV.PureState(width=4, amps={0b0001: 0.6 + 0j, 0b0111: 0.8 + 0j}, live=(0, 1, 2, 3))
    assert state.wide == (threshold == 0)
    with pytest.raises(AssertionError, match="measured an outcome of probability zero"):
        SV._measure_r1(state, 0b10, 0b00, 2)
    assert list(SV._measure_r1(state, 0b11, 0b00, 2).amps) == [0b0100]


def _held(state: SV.PureState):
    """What ``state`` holds, byte for byte: its key and amplitude arrays, or
    its dict's keys and amplitudes with the signs of their zeros."""
    if isinstance(state.amps, SV.ArrayMap):
        return state.amps.key_array.tobytes(), state.amps.value_array.tobytes()
    return _signed(state.amps.items())


@KERNELS
@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_layers_leave_their_input_state_unchanged(monkeypatch, threshold, order, bbt2):
    # each kind of layer, on a state whose zeros of either sign a stray
    # in-place ``+= 0.0`` would turn to +0.0; the query-only layer on
    # ascending keys hands the input's own arrays to the substitution
    monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
    rng = np.random.default_rng(73)
    width = 14
    keys = np.sort(rng.choice(1 << width, size=600, replace=False))
    if order == "shuffled":
        keys = rng.permutation(keys)
    re, im = rng.normal(size=600), rng.normal(size=600)
    re[::3], im[1::3] = -0.0, -0.0
    vals = SV._complex(re, im)
    gate = C.Gate
    layers = [C.layer(width, [gate(C.GateKind.H, (w,)) for w in (0, 5, 13)]),
              C.layer(width, [gate(C.GateKind.PHASE, (1,)), gate(C.GateKind.PHASE, (3,)),
                              gate(C.GateKind.TOFFOLI, (4, 6, 8))]),
              C.layer(width, [gate(C.GateKind.TOFFOLI, (0, 1, 2))]),
              C.layer(width, [query_gate(2)]),
              C.layer(width, [query_gate(2), gate(C.GateKind.H, (12,)),
                              gate(C.GateKind.PHASE, (13,))])]
    amps = SV.ArrayMap(keys, vals) if threshold == 0 else dict(zip(keys.tolist(), vals.tolist()))
    state = SV.PureState(width, amps, tuple(range(width)))
    before = _held(state)
    for lay in layers:
        SV.apply_layer(state, lay, bbt2, 2)
        assert _held(state) == before, lay.gates
        ctx = HS.SimContext.fresh(bbt2)
        psi, _V = HS.quantum_layer_sim(lay, state, HS.entrance_known(ctx), ctx)
        assert _held(state) == before, lay.gates
        assert isinstance(psi.amps, SV.ArrayMap) == (threshold == 0)


def test_two_query_gates_in_one_layer_agree_on_both_kernels(monkeypatch, bbt2):
    # two query gates side by side on 24 wires, from a state whose x
    # registers hold the entrance, learned labels and strings that label
    # nothing: the executor's images, and the substitution's images, the
    # order in which it learns and its transcript, are the dict kernel's
    rng = np.random.default_rng(74)
    labels = bbt2.labels.tolist()
    regs = [rng.choice(labels[:6] + [3, 9], size=300) | rng.integers(0, 16, size=300) << 4
            for _ in range(2)]
    keys = np.unique(regs[0] | regs[1] << 12)
    vals = rng.normal(size=keys.size) + 1j * rng.normal(size=keys.size)
    lay = C.layer(24, [query_gate(2), query_gate(2, base=12)])
    got = {}
    for name, threshold in (("arrays", 0), ("dicts", math.inf)):
        monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
        state = SV.PureState(24, dict(zip(keys.tolist(), vals.tolist())), tuple(range(24)))
        ctx = HS.SimContext.fresh(bbt2)
        psi, V = HS.quantum_layer_sim(lay, state, HS.entrance_known(ctx), ctx)
        out = SV.apply_layer(state, lay, bbt2, 2)
        got[name] = (list(out.amps.items()), list(psi.amps.items()),
                     list(V.entries.items()), ctx.transcript.to_json())
    assert got["arrays"] == got["dicts"]
    assert json.loads(got["arrays"][3])["per_layer"][0]["queries"] > 0
