from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree

from circuit_gen import (_grow_layer, entrance_query_circuit, hardcoded_guess_circuit, query_gate,
                         random_hybrid, random_jozsa, random_quantum_layer,
                         tier, total_quantum_layers)
from tree_tools import vertex_row


def _ctx(bbt):
    return HS.SimContext.fresh(bbt)


# ---------------------------------------------------------------------------
# simulate_oracle branches
# ---------------------------------------------------------------------------

def test_branch_a_known_key_spends_nothing(bbt2):
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    assert ctx.transcript.queries == 1  # the initialization vertex query
    lt = C.Layer(12, 12, (query_gate(2),))
    valid_color = next(c for c in range(1, 10) if bbt2.answer(0, c) != bbt2.invalid)
    z = valid_color << 4          # x-register = entrance, c = valid color
    S, V2 = HS.simulate_oracle(V, ctx, lt, [z], tuple(range(12)), 2)
    assert ctx.transcript.queries == 1
    assert (S[z] >> 8) & 0xF == bbt2.answer(0, valid_color)


def test_branch_b_fresh_key_spends_exactly_one_query(bbt2):
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    child = next(v for v in V.value_labels())
    lt = C.Layer(12, 12, (query_gate(2),))
    z = child | (1 << 4)
    S, V2 = HS.simulate_oracle(V, ctx, lt, [z], tuple(range(12)), 2)
    assert ctx.transcript.queries == 2          # entrance + the new vertex
    assert child in V2.key_labels()
    assert (S[z] >> 8) & 0xF == bbt2.answer(child, 1)


def test_branch_c_junk_substitutes_invalid_without_querying(bbt2):
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    junk = next(x for x in range(1, 16)
                if x not in V.known_labels() and x != bbt2.invalid)
    lt = C.Layer(12, 12, (query_gate(2),))
    z = junk | (1 << 4)
    S, V2 = HS.simulate_oracle(V, ctx, lt, [z], tuple(range(12)), 2)
    assert ctx.transcript.queries == 1
    assert (S[z] >> 8) & 0xF == bbt2.invalid
    assert V2.entries == V.entries


@pytest.mark.parametrize("kernel", ["dicts", "arrays"])
def test_consults_counted_on_both_kernels(bbt2, kernel):
    # every answer(x, c) with c in 1..9 reads the dictionary, answered or
    # not; colors 0 and 10..15 are INVALID without a read.  An int64 array
    # support takes the array kernel
    lt = C.Layer(12, 12, (query_gate(2),))
    for colors, consulted in (((0, 10, 15), 0), ((0, 1, 9, 12), 2)):
        ctx = _ctx(bbt2)
        V = HS.entrance_known(ctx)
        support = [c << 4 for c in colors]
        if kernel == "arrays":
            support = np.array(support, dtype=np.int64)
        HS.simulate_oracle(V, ctx, lt, support, tuple(range(12)), 2)
        assert ctx.consulted == consulted


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_split_partitions_wires(seed):
    rng = np.random.default_rng(seed)
    lay = random_quantum_layer(rng, 13, n=2, p_query=0.7)
    lg, lt = lay.split
    assert all(g.kind != C.GateKind.QUERY for g in lg.gates)
    assert all(g.kind == C.GateKind.QUERY for g in lt.gates)
    orig = {w for g in lay.gates for w in g.wires}
    split = {w for g in lg.gates + lt.gates for w in g.wires}
    assert orig == split
    assert lt.width_in == lg.width_out


def test_split_query_free_and_all_query():
    lay = C.layer(4, [C.Gate(C.GateKind.H, (0,))])
    lg, lt = lay.split
    assert lt.gates == ()
    lay = C.layer(12, [query_gate(2)])
    lg, lt = lay.split
    assert lg.gates == ()


# ---------------------------------------------------------------------------
# growth/ceiling/fidelity on random circuits
# ---------------------------------------------------------------------------

def test_random_corpus_ceilings_and_identity(bbt2):
    rng = np.random.default_rng(7)
    for trial in range(30):
        circ = random_hybrid(rng, n=2, g=12, eta=int(rng.integers(1, 5)),
                             max_c=3, max_q=3)
        res = HS.few_tier_wrapper(circ, bbt2, seed=trial)
        stats = C.accounting(circ)
        assert res.transcript.queries <= HS.wrapper_query_ceiling(circ)
        for rec in res.transcript.per_layer:
            assert abs(rec.fidelity - (1 - rec.outlier_mass)) <= 1e-10
            assert rec.v_size <= 4 ** (stats.max_quantum_depth + 1) * 100


def test_growth_bound_exact(bbt2):
    # |V'| <= 4|V| per quantum layer, visible in per-layer records
    rng = np.random.default_rng(17)
    for trial in range(10):
        circ = random_hybrid(rng, n=2, g=12, eta=2, max_c=2, max_q=3, p_query=0.9)
        res = HS.few_tier_wrapper(circ, bbt2, seed=trial)
        prev = 1
        for rec in res.transcript.per_layer:
            assert rec.v_size <= 4 * max(prev, 1)
            prev = rec.v_size


def test_truthfulness_replay(bbt3):
    rng = np.random.default_rng(5)
    circ = random_hybrid(rng, n=3, g=16, eta=3, max_c=2, max_q=2, p_query=0.8)
    res = HS.few_tier_wrapper(circ, bbt3, seed=1)
    for (x, c), y in res.known.entries.items():
        assert bbt3.answer(x, c) == y


def test_determinism_transcript_bytes(bbt2):
    rng = np.random.default_rng(9)
    circ = random_hybrid(rng, n=2, g=12, eta=3, max_c=2, max_q=2)
    a = HS.few_tier_wrapper(circ, bbt2, seed=42).transcript.to_json()
    b = HS.few_tier_wrapper(circ, bbt2, seed=42).transcript.to_json()
    assert a == b
    c = HS.few_tier_wrapper(circ, bbt2, seed=43).transcript.to_json()
    assert isinstance(c, str)


def test_initialization_learns_the_entrance_for_one_query(bbt2):
    ctx = HS.SimContext.fresh(bbt2)
    V = HS.entrance_known(ctx)
    assert V.key_labels() == {0}
    assert ctx.transcript.queries == 1


def test_identity_tier_echoes(bbt2):
    t1 = C.Tier("classical", (C.Layer(2, 5, tuple(
        C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(2, 5))),), 2, 5)
    t2 = tier("quantum", [C.identity_layer(5)])
    circ = C.HybridCircuit(n=2, g=5, tiers=(t1, t2))
    res = HS.few_tier_wrapper(circ, bbt2, seed=3)
    assert res.output == 0
    assert res.known.key_labels() == {0}


def test_toffoli_only_classical_tier_spends_nothing(bbt2):
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    lay = C.layer(5, [C.Gate(C.GateKind.TOFFOLI, (0, 1, 2))])
    t = tier("classical", [lay, lay])
    x, V2 = HS.classical_tier_sim(t, 0b11, V, ctx)
    assert ctx.transcript.queries == 1
    assert x == 0b11 ^ 0b100 ^ 0b100  # two identical Toffolis cancel


def test_classical_toffoli_truth_table(bbt2):
    # the target flips only when both controls are set, on both oracles
    t = tier("classical", [C.layer(3, [C.Gate(C.GateKind.TOFFOLI, (0, 2, 1))])])
    for x in range(8):
        want = x ^ 0b010 if x & 0b101 == 0b101 else x
        assert SV.TrueOracle(bbt2, 2).classical_tier(1, t, x, None)[0] == want
        ctx = _ctx(bbt2)
        assert HS.classical_tier_sim(t, x, HS.entrance_known(ctx), ctx)[0] == want


def test_classical_tier_matches_real_oracle_when_known(bbt2):
    # queries at the entrance: simulated answer equals the real evaluation
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    qlay = C.layer(12, [query_gate(2)])
    t = tier("classical", [qlay])
    valid_color = next(c for c in range(1, 10) if bbt2.answer(0, c) != bbt2.invalid)
    x = valid_color << 4
    got, _ = HS.classical_tier_sim(t, x, V, ctx)
    truth, _ = SV.TrueOracle(bbt2, 2).classical_tier(1, t, x, None)
    assert got == truth


@pytest.mark.parametrize("first", [0, 1])
def test_classical_layer_learns_in_first_wire_order(bbt2, first):
    # query gates stored out of first-wire order are asked in first-wire
    # order, as Layer.split gives them, so the vertices they learn enter the
    # dictionary in that order
    ctx = _ctx(bbt2)
    V = HS.entrance_known(ctx)
    low, high = np.roll(sorted(V.value_labels()), first).tolist()  # the entrance's neighbours
    lay = C.Layer(24, 24, (query_gate(2, 12), query_gate(2, 0)))
    t = C.Tier("classical", (lay,), 24, 24)
    x = low | 1 << 4 | high << 12 | 1 << 16     # each gate asks its label on color 1
    got, V2 = HS.classical_tier_sim(t, x, V, ctx)
    assert list(dict.fromkeys(key for key, _c in V2.entries)) == [0, low, high]
    assert got == SV.TrueOracle(bbt2, 2).classical_tier(1, t, x, None)[0]


# ---------------------------------------------------------------------------
# the simulator's own ceilings: each passes a run at its bound and refuses
# one step past it
# ---------------------------------------------------------------------------

def _entrance_query(bbt):
    """A one-layer query of the entrance on a valid color, and that input."""
    valid_color = next(c for c in range(1, 10) if bbt.answer(0, c) != bbt.invalid)
    return C.layer(12, [query_gate(2)]), valid_color << 4


def test_a_layer_that_learns_more_than_4x_is_refused(bbt2, monkeypatch):
    # from a dictionary of one vertex, a layer may end knowing four
    lay, z = _entrance_query(bbt2)
    simulate = HS.simulate_oracle
    others = [lab for lab in bbt2.labels.tolist() if lab != 0]

    def layer_learning(count):
        def learns_more(V, ctx, *args):
            S, V2 = simulate(V, ctx, *args)
            for lab in others[:count]:
                V2.set_vertex(lab, vertex_row(bbt2, lab))
            return S, V2

        monkeypatch.setattr(HS, "simulate_oracle", learns_more)
        ctx = _ctx(bbt2)
        return HS.quantum_layer_sim(lay, SV.PureState.basis(12, z), HS.entrance_known(ctx), ctx)

    assert layer_learning(3)[1].size() == 4
    with pytest.raises(AssertionError, match=re.escape("known-vertex growth 1 -> 5 exceeds 4x")):
        layer_learning(4)


def test_a_quantum_tier_over_its_query_ceiling_is_refused(bbt2):
    # one layer from a dictionary of one vertex: at most 4^1 * 1 queries
    lay, z = _entrance_query(bbt2)

    def tier_booking(booked):
        def overspends(lay, state, V, ctx, tier, layer_index):
            ctx.transcript.queries += booked
            return HS.quantum_layer_sim(lay, state, V, ctx, tier, layer_index)

        ctx = _ctx(bbt2)
        HS._quantum_tier_state(1, tier("quantum", [lay]), z, HS.entrance_known(ctx), ctx,
                               overspends)
        return ctx.transcript.per_tier_queries

    assert tier_booking(4) == [4]
    with pytest.raises(AssertionError, match="tier spent 5 queries, ceiling 4"):
        tier_booking(5)


def test_a_classical_tier_over_its_query_ceiling_is_refused(bbt2, monkeypatch):
    # one layer 12 wires wide: at most 12 * 1 queries
    lay, z = _entrance_query(bbt2)
    substitution = HS.substitution

    def tier_booking(booked):
        def overspends(V, ctx):
            ctx.transcript.queries += booked
            return substitution(V, ctx)

        monkeypatch.setattr(HS, "substitution", overspends)
        ctx = _ctx(bbt2)
        HS.classical_tier_sim(tier("classical", [lay]), z, HS.entrance_known(ctx), ctx)
        return ctx.transcript.per_tier_queries

    assert tier_booking(12) == [12]
    with pytest.raises(AssertionError, match="classical tier spent 13 queries, ceiling 12"):
        tier_booking(13)


def test_a_run_over_the_wrapper_ceiling_is_refused(bbt2, monkeypatch):
    circ = entrance_query_circuit(2)
    spent = HS.few_tier_wrapper(circ, bbt2, seed=3).transcript.queries
    monkeypatch.setattr(HS, "wrapper_query_ceiling", lambda circuit: spent)
    HS.few_tier_wrapper(circ, bbt2, seed=3)
    monkeypatch.setattr(HS, "wrapper_query_ceiling", lambda circuit: spent - 1)
    with pytest.raises(AssertionError, match="wrapper query ceiling exceeded"):
        HS.few_tier_wrapper(circ, bbt2, seed=3)


# ---------------------------------------------------------------------------
# zero-outlier soundness and faithfulness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threshold", [0, float("inf")], ids=["arrays", "dicts"])
@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_query_free_layer_fidelity_is_the_sorted_norm(monkeypatch, bbt2, order, threshold):
    # the fidelity of an instrumented layer without queries is report-grade:
    # |a|^2 summed left to right in psi's sorted key order, never the value
    # of the layer's norm check.  From 60 physical wires the layer's four
    # ancillas take the state past KEY_BITS, onto a dict after array inputs
    monkeypatch.setattr(SV, "ARRAY_MIN_SUPPORT", threshold)
    rng = np.random.default_rng(30)
    keys = rng.choice(1 << 12, size=600, replace=False)
    if order == "ascending":
        keys.sort()
    vals = rng.normal(size=600) + 1j * rng.normal(size=600)
    vals /= np.linalg.norm(vals)
    layers = [C.layer(12, [C.Gate(C.GateKind.PHASE, (2,)), C.Gate(C.GateKind.PHASE, (7,))]),
              _grow_layer(12, 16),
              C.layer(16, [C.Gate(C.GateKind.PHASE, (2,)),
                           C.Gate(C.GateKind.TOFFOLI, (0, 1, 13))])]
    for width in (12, 60):
        amps = (SV.ArrayMap(keys, vals) if threshold == 0
                else dict(zip(keys.tolist(), vals.tolist())))
        state = SV.PureState(width, amps, tuple(range(12)))
        for lay in layers:
            ctx = _ctx(bbt2)
            state, _V = HS.quantum_layer_sim(lay, state, HS.entrance_known(ctx), ctx)
            assert list(state.amps) == sorted(state.amps)
            want = SV.seq_sum((a * a.conjugate()).real for a in state.amps.values())
            assert ctx.transcript.per_layer[-1].fidelity == want, (width, lay)
        assert isinstance(state.amps, SV.ArrayMap) == (threshold == 0 and width == 12)


def test_zero_outlier_soundness(bbt2):
    circ = entrance_query_circuit(2)
    res = HS.few_tier_wrapper(circ, bbt2, seed=0)
    assert all(rec.outlier_mass == 0 for rec in res.transcript.per_layer)
    ref = SV.run_hybrid_exact(circ, bbt2)
    sim = HS.few_tier_exact_distribution(circ, bbt2)
    assert SV.tv_distance(ref.probs, sim.probs) == 0.0


def test_all_known_tier_matches_reference_exactly(bbt2):
    # width <= 12 exact-distribution comparison for a known-vertex tier
    circ = entrance_query_circuit(2, extra_h=3)
    ref = SV.run_hybrid_exact(circ, bbt2)
    sim = HS.few_tier_exact_distribution(circ, bbt2)
    assert ref.probs == sim.probs


@pytest.mark.parametrize("size", [0, 1, 40, SV.PACK_MIN_KEYS])
def test_l1_gap_is_the_dict_sum_in_key_order(size):
    # keys both maps reach, keys only one reaches, and zero amplitudes of
    # either sign; at PACK_MIN_KEYS keys a side the order is a packed sort
    rng = np.random.default_rng(size)
    pool = rng.choice(1 << 30, size=2 * size, replace=False)
    k1, k2 = pool[:size], rng.permutation(pool[size // 2:size + size // 2])
    vals = SV._complex(rng.normal(size=size), rng.normal(size=size))
    vals[:4] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)][:size]
    psi, phi = dict(zip(k1.tolist(), vals.tolist())), dict(zip(k2.tolist(), vals.tolist()))
    want = SV.seq_sum(abs(psi.get(k, 0j) - phi.get(k, 0j)) for k in sorted(set(psi) | set(phi)))
    got = HS._l1_sorted(k1, k2, vals)
    assert type(got) is float and got == want
    assert size < 2 or (set(psi) - set(phi) and set(phi) - set(psi) and set(psi) & set(phi))


def test_compare_to_reference_query_free():
    rng = np.random.default_rng(3)
    circ = random_hybrid(rng, n=2, g=10, eta=3, max_c=2, max_q=2, p_query=0.0)
    rep = HS.compare_to_reference(circ, tree.generate_structure(2, 1), 10, seed=5)
    assert rep.mean_tv == 0.0 and rep.max_tv == 0.0


def test_compare_to_reference_adversarial_envelope():
    n = 2
    structure = tree.generate_structure(n, 11)
    guess = 0b0110
    circ = hardcoded_guess_circuit(n, guess)
    rep = HS.compare_to_reference(circ, structure, labelings=200, seed=6)
    envelope = 4 * (2 ** (n + 2) - 2) / 2 ** (2 * n)
    assert rep.mean_tv <= envelope + 3 * rep.stderr_tv


# ---------------------------------------------------------------------------
# Jozsa path
# ---------------------------------------------------------------------------

def test_jozsa_query_ceiling_corpus(bbt2):
    rng = np.random.default_rng(8)
    for trial in range(10):
        circ = random_jozsa(rng, n=2, g=12, eta=int(rng.integers(1, 3)),
                            max_c=2, max_q=2, p_query=0.7)
        res = HS.jozsa_wrapper(circ, bbt2, seed=trial)
        d = total_quantum_layers(circ)
        stats = C.accounting(circ)
        ceiling = 4 ** d + stats.max_classical_depth * circ.g
        assert res.transcript.queries <= ceiling


def test_jozsa_identity_classical_blocks_match_reference(bbt2):
    # classical blocks that do nothing: simulator equals the executor exactly
    rng = np.random.default_rng(12)
    qt = tier("quantum", [C.Layer(2, 12, tuple(C.Gate(C.GateKind.ANCILLA, (w,))
                                                 for w in range(2, 12))),
                            random_quantum_layer(rng, 12, n=2, p_query=0.0)])
    ct = tier("classical", [C.identity_layer(6)])
    circ = C.JozsaCircuit(n=2, g=12, quantum_tiers=(qt,), classical_tiers=(ct,))
    ref = SV.run_jozsa_exact(circ, bbt2)
    sim = HS.jozsa_exact_distribution(circ, bbt2)
    assert SV.tv_distance(ref.probs, sim.probs) == 0.0


def test_jozsa_query_free_recomposition_exact(bbt2):
    rng = np.random.default_rng(13)
    for trial in range(5):
        circ = random_jozsa(rng, n=2, g=8, eta=2, max_c=2, max_q=2, p_query=0.0)
        ref = SV.run_jozsa_exact(circ, bbt2)
        sim = HS.jozsa_exact_distribution(circ, bbt2)
        assert SV.tv_distance(ref.probs, sim.probs) == 0.0


def test_jozsa_wrapper_initialization(bbt2):
    rng = np.random.default_rng(14)
    circ = random_jozsa(rng, n=2, g=8, eta=1, max_c=1, max_q=1, p_query=0.0)
    res = HS.jozsa_wrapper(circ, bbt2, seed=2)
    assert res.transcript.queries == 1  # entrance row only
    for (x, c), y in res.known.entries.items():
        assert bbt2.answer(x, c) == y


def test_each_circuit_object_validated_once(monkeypatch, bbt2):
    rng = np.random.default_rng(31)
    # random_hybrid validates the object it builds; replace makes a fresh one
    circ = dataclasses.replace(random_hybrid(rng, n=2, g=12, eta=3, max_c=2, max_q=2))
    validated = []
    validate = C.validate

    def spy(circuit):
        validated.append(circuit)
        return validate(circuit)

    monkeypatch.setattr(C, "validate", spy)
    runs = (SV.run_hybrid_exact, HS.few_tier_exact_distribution, HS.few_tier_wrapper)
    for run in runs:
        run(circ, bbt2)
    assert len(validated) == 1 and validated[0] is circ
    bad = C.HybridCircuit(n=2, g=2, tiers=(
        C.Tier("classical", (C.layer(2, [C.Gate(C.GateKind.H, (0,))]),), 2, 2),))
    for run in runs + runs:
        with pytest.raises(ValueError, match=r"^invalid circuit: tier 1 layer 0 gate 0 "
                                             r"\(H\): H not allowed in a classical layer$"):
            run(bad, bbt2)
    assert len(validated) == 2 and validated[1] is bad
