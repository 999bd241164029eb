from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from weldlab import bottleneck as BN
from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV
from weldlab import tree
from weldlab.known import KnownVertices
from weldlab.rng import derive_seed

from circuit_gen import _x_layers, query_gate, random_hybrid, tier
from tree_tools import vertex_row


def _allq(rng, n=2, g=12, eta=2, max_q=2, p_query=0.6):
    return random_hybrid(rng, n=n, g=g, eta=eta, max_c=1, max_q=max_q,
                         p_query=p_query, all_quantum=True)


def _superposed_query_circuit(n=2, g=12):
    """One quantum tier: color 1 (X on the first color wire), H on wires
    0..3, then a query of the superposed x-register, so its transcript
    depends on the tree's labels."""
    grow = C.Layer(n, g, tuple(C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(n, g)))
    layers = [grow] + _x_layers(g, [2 * n]) + [
        C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in range(4)]),
        C.layer(g, [query_gate(n)])]
    circ = C.HybridCircuit(n=n, g=g, tiers=(C.Tier("quantum", tuple(layers), n, g),),
                           all_quantum=True)
    C.require_valid(circ)
    return circ


def _tape_for(circ, seed):
    stats = C.accounting(circ)
    return BN.SeedTape.generate(seed, circ.n, circ.eta,
                                max(stats.max_quantum_depth, 1), circ.g)


# ---------------------------------------------------------------------------
# seed tape
# ---------------------------------------------------------------------------

def _with_suffix_scrambled(tape, i, master):
    """The tape with the same prefix r_<=i and fresh bits afterwards."""
    other = BN.SeedTape.generate(master, tape.n, tape.eta, tape.q, tape.g)
    bits = tape.bits.copy()
    cut = i * tape.segment_len
    bits[cut:] = other.bits[cut:]
    return BN.SeedTape(tape.n, tape.eta, tape.q, tape.g, bits)


def test_tape_prefix_determinism():
    rng = np.random.default_rng(0)
    circ = _allq(rng, eta=3)
    bbt = tree.make_blackbox(2, 5)
    tape = _tape_for(circ, 9)
    scrambled = _with_suffix_scrambled(tape, 2, master=12345)
    assert np.array_equal(tape.bits[:2 * tape.segment_len],
                          scrambled.bits[:2 * tape.segment_len])
    assert not np.array_equal(tape.bits, scrambled.bits)
    cfg = BN.BottleneckConfig(tau=0.0)
    first_two = dataclasses.replace(circ, tiers=circ.tiers[:2])
    a = BN.bottleneck_wrapper(first_two, bbt, seed=9, cfg=cfg, tape=tape)
    b = BN.bottleneck_wrapper(first_two, bbt, seed=9, cfg=cfg, tape=scrambled)
    assert a.output == b.output
    assert a.known.entries == b.known.entries
    assert a.transcript.to_json() == b.transcript.to_json()


def test_tape_tier_seed_reads_segment_only():
    tape = BN.SeedTape.generate(1, 2, 3, 2, 8)
    scr = _with_suffix_scrambled(tape, 1, master=7)
    assert tape.tier_seed(1) == scr.tier_seed(1)
    assert tape.tier_seed(2) != scr.tier_seed(2)


def test_tape_tier_seeds_folded_once(monkeypatch):
    tape = BN.SeedTape.generate(1, 2, 3, 2, 8)

    def refold(i: int) -> int:
        acc = 0
        for byte in np.packbits(tape.bits[(i - 1) * tape.segment_len:
                                          i * tape.segment_len]).tobytes():
            acc = derive_seed(acc, byte)
        return derive_seed(acc, "tape-tier", i)

    seeds = [tape.tier_seed(i) for i in (1, 2, 3)]
    assert seeds == [refold(i) for i in (1, 2, 3)]
    assert seeds == [5739363474584514656, 10996099801579948823, 11612928617094517997]
    monkeypatch.setattr(BN, "derive_seed", None)        # a refold would fail
    assert [tape.tier_seed(i) for i in (1, 2, 3)] == seeds


# ---------------------------------------------------------------------------
# bottleneck invariants
# ---------------------------------------------------------------------------

def _check_subtree(V: KnownVertices):
    """Keys must form an entrance-rooted connected set through recorded edges."""
    graph = {}
    for (x, c), y in V.entries.items():
        if y != V.invalid:
            graph.setdefault(x, set()).add(y)
            graph.setdefault(y, set()).add(x)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in graph.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert V.key_labels() <= seen


def test_bottleneck_runs_and_invariants():
    rng = np.random.default_rng(1)
    for trial in range(15):
        circ = _allq(rng, eta=int(rng.integers(1, 4)))
        bbt = tree.make_blackbox(2, 50 + trial)
        tape = _tape_for(circ, trial)
        res = BN.bottleneck_wrapper(circ, bbt, seed=trial, tape=tape)
        tape_len = len(tape)
        for call in res.calls:
            assert call.iterations <= BN.loop_ceiling(circ.g, tape_len)
            if not call.aborted:
                assert call.v_out <= BN.size_ceiling(call.v_current, circ.n,
                                                     circ.g, tape_len)
        if not res.aborted:
            assert res.known.is_key_subset_of(res.hist)
            _check_subtree(res.known)
            for (x, c), y in res.hist.entries.items():
                assert bbt.answer(x, c) == y


def test_tau_zero_degeneration_transcript_identical():
    rng = np.random.default_rng(2)
    for trial in range(8):
        circ = _allq(rng, eta=int(rng.integers(1, 4)), max_q=2)
        bbt = tree.make_blackbox(2, 80 + trial)
        tape = _tape_for(circ, trial)
        b = BN.bottleneck_wrapper(circ, bbt, seed=trial,
                                  cfg=BN.BottleneckConfig(tau=0.0), tape=tape)
        f = HS.few_tier_wrapper(circ, bbt, seed=trial, tier_seed_fn=tape.tier_seed)
        assert b.output == f.output
        assert b.transcript.to_json() == f.transcript.to_json()
        assert b.known.entries == f.known.entries


def test_transcript_json_is_asdict_json():
    rng = np.random.default_rng(3)
    circ = _allq(rng, eta=2, p_query=0.7)
    bbt = tree.make_blackbox(2, 7)
    tape = _tape_for(circ, 4)
    aborted = BN.bottleneck_wrapper(circ, bbt, seed=4, tape=tape, cfg=BN.BottleneckConfig(
        tau=1e-12, sample_budget=10, fresh_candidates=8)).transcript
    kept = BN.bottleneck_wrapper(circ, bbt, seed=4, tape=tape,
                                 cfg=BN.BottleneckConfig(tau=0.0)).transcript
    few = HS.few_tier_wrapper(circ, bbt, seed=4, tier_seed_fn=tape.tier_seed).transcript
    assert aborted.aborted and not kept.aborted and few.per_layer
    for t in (aborted, kept, few):
        assert t.to_json() == json.dumps(dataclasses.asdict(t), sort_keys=True,
                                         separators=(",", ":"))


def test_abort_guess_path_tiny_tau():
    rng = np.random.default_rng(3)
    circ = _allq(rng, eta=2, p_query=0.7)
    bbt = tree.make_blackbox(2, 7)
    cfg = BN.BottleneckConfig(tau=1e-12, sample_budget=10, fresh_candidates=8)
    res = BN.bottleneck_wrapper(circ, bbt, seed=4, cfg=cfg, tape=_tape_for(circ, 4))
    assert res.aborted
    assert res.abort_reason == "guessable label outside the history"
    assert 0 <= res.output < (1 << bbt.label_bits)


def test_abort_ratio_path_tight_rho():
    # querying a superposed x-register makes the tier transcript depend on
    # the tree's labels; conditioning on a minority transcript with a rho
    # floor near 1 fires the ratio abort
    circ = _superposed_query_circuit()
    bbt = tree.make_blackbox(2, 9)
    tape = _tape_for(circ, 0)
    env = BN.EstimatorEnv(circuit=circ, tape=tape, seed=6, structure=bbt.structure,
                          coloring=bbt.coloring)
    empty = KnownVertices(bbt.invalid)
    # find a transcript that only a minority of consistent trees reproduce
    outcomes = [BN.replay_prefix(circ, tree.sample_consistent(
        empty, 2, s, mode="labelings", structure=bbt.structure,
        coloring=bbt.coloring), tape, 1) for s in range(60)]
    counts = {x: outcomes.count(x) for x in set(outcomes)}
    x_minor = min(counts, key=lambda x: counts[x])
    assert counts[x_minor] / 60 < 0.5
    cfg = BN.BottleneckConfig(rho_log2=-0.2, sample_budget=80, fresh_candidates=0)
    out = BN.bottleneck(1, x_minor, empty, empty, env, cfg)
    assert isinstance(out, BN.Abort)
    assert out.reason == "consistency ratio below floor"


def test_merge_idempotent_order_insensitive():
    inv = tree.invalid_label(4)
    a = KnownVertices(inv, {(0, 1): 3, (0, 2): inv})
    b = KnownVertices(inv, {(3, 5): 7, (0, 1): 3})
    ab = a.merge(b)
    ba = b.merge(a)
    assert ab.entries == ba.entries
    assert ab.merge(ab).entries == ab.entries
    bad = KnownVertices(inv, {(0, 1): 9})
    with pytest.raises(ValueError):
        a.merge(bad)
    with pytest.raises(ValueError, match="cannot merge KnownVertices with different INVALID labels"):
        a.merge(KnownVertices(7, {(0, 1): 3}))


def test_key_labels_follow_every_write():
    inv = tree.invalid_label(4)
    V = KnownVertices(inv)
    V.set_vertex(0, {c: 3 if c == 1 else inv for c in range(1, 10)})
    assert V.size() == 1
    V.entries[(3, 2)] = 0               # a direct write of a new key vertex
    assert V.size() == 2 and V.key_labels() == {0, 3}
    V.entries[(3, 2)] = inv             # overwriting keeps the key
    assert V.size() == 2
    W = V.copy()
    W.set_vertex(5, {c: inv for c in range(1, 10)})
    W.entries[(7, 4)] = 5
    assert W.key_labels() == {0, 3, 5, 7} and V.key_labels() == {0, 3}
    M = V.merge(W)
    assert M.key_labels() == {0, 3, 5, 7}
    M.entries[(9, 1)] = inv
    assert M.size() == 5 and W.size() == 4 and V.is_key_subset_of(M)


def test_complete_subtree_minimal_on_paths(bbt2):
    # history = a path of rows; asking for the far end must include the path
    h = bbt2.handle()
    hist = KnownVertices(bbt2.invalid)
    cur, chain = 0, [0]
    hist.set_vertex(0, {c: h.query(0, c) for c in range(1, 10)})
    for _ in range(3):
        nxt = next(y for y in hist.row(cur).values() if y != hist.invalid)
        hist.set_vertex(nxt, {c: h.query(nxt, c) for c in range(1, 10)})
        chain.append(nxt)
        cur = nxt
    want = KnownVertices(bbt2.invalid)
    want.set_vertex(chain[-1], vertex_row(bbt2, chain[-1]))
    out = BN.complete_subtree(want, hist)
    assert set(chain) <= out.key_labels()


def test_complete_subtree_refuses_a_key_the_history_cannot_reach(bbt2):
    # the history holds the entrance's row and the row of a vertex that is
    # not its neighbour, but no row of the path between them
    hist = KnownVertices(bbt2.invalid)
    hist.set_vertex(0, vertex_row(bbt2, 0))
    far = next(lab for lab in bbt2.labels.tolist()
               if lab != 0 and lab not in hist.row(0).values())
    hist.set_vertex(far, vertex_row(bbt2, far))
    want = KnownVertices(bbt2.invalid)
    want.set_vertex(far, vertex_row(bbt2, far))
    with pytest.raises(AssertionError, match=f"label {far:#x} unreachable from the entrance "
                                             "in the recorded history"):
        BN.complete_subtree(want, hist)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _env_for(circ, bbt, seed):
    return BN.EstimatorEnv(circuit=circ, tape=_tape_for(circ, seed), seed=seed,
                           structure=bbt.structure, coloring=bbt.coloring)


def test_estimator_short_circuits(bbt2):
    rng = np.random.default_rng(5)
    circ = _allq(rng)
    env = _env_for(circ, bbt2, 3)
    cfg = BN.BottleneckConfig()
    ctx = HS.SimContext.fresh(bbt2)
    V = HS.entrance_known(ctx)
    known = sorted(V.known_labels())[1]
    est = BN.estimate_membership_probability(V, 0, 0, known, env, cfg)
    assert est.value == 1.0 and est.attempted == 0
    est = BN.estimate_membership_probability(V, 0, 0, bbt2.invalid, env, cfg)
    assert est.value == 0.0
    est = BN.estimate_consistency_ratio(V, 0, 0, env, cfg)
    assert est.value == 1.0


def test_estimators_match_enumeration(bbt2):
    # exhaustive oracle over all labelings consistent with a half-known tree
    rng = np.random.default_rng(6)
    circ = _allq(rng, p_query=0.7)
    env = _env_for(circ, bbt2, 11)
    h = bbt2.handle()
    V = KnownVertices(bbt2.invalid)
    V.set_vertex(0, {c: h.query(0, c) for c in range(1, 10)})
    frontier = sorted(V.known_labels() - V.key_labels())
    for lab in frontier[:2]:
        V.set_vertex(lab, vertex_row(bbt2, lab))
    for lab in sorted(V.known_labels() - V.key_labels())[:3]:
        V.set_vertex(lab, vertex_row(bbt2, lab))
    x = BN.replay_prefix(circ, bbt2, env.tape, 1)

    pos = tree.embed_entries(tree.read_entries(V), bbt2.structure, bbt2.coloring)
    free_vs = [v for v in range(bbt2.structure.vertex_count) if v not in pos.values()]
    avail = sorted(set(range(1, 15)) - V.known_labels())
    count = math.perm(len(avail), len(free_vs))
    assert 0 < count <= 5000
    accepted = 0
    valid_counts: dict[int, int] = {}
    for combo in itertools.permutations(avail, len(free_vs)):
        labels = np.empty(bbt2.structure.vertex_count, dtype=np.int64)
        for lab, v in pos.items():
            labels[v] = lab
        for v, lab in zip(free_vs, combo):
            labels[v] = lab
        P = tree.BlackBoxTree(structure=bbt2.structure, coloring=bbt2.coloring,
                              labels=labels, label_bits=bbt2.label_bits)
        if BN.replay_prefix(circ, P, env.tape, 1) == x:
            accepted += 1
            for lab in combo:
                valid_counts[lab] = valid_counts.get(lab, 0) + 1
    assert accepted > 0

    cfg = BN.BottleneckConfig(sample_budget=300)
    for b in avail[:2]:
        exact = valid_counts.get(b, 0) / accepted
        est = BN.estimate_membership_probability(V, x, 1, b, env, cfg)
        assert est.conclusive
        assert abs(est.value - exact) <= 3 * max(est.stderr, 0.01)

    est = BN.estimate_consistency_ratio(V, x, 1, env, cfg)
    exact_ratio = accepted / count
    assert abs(est.value - exact_ratio) <= 3 * max(est.stderr, 0.01)


def test_membership_inconclusive_where_no_tree_gives_the_transcript(bbt2):
    # a query-free circuit replays alike on every tree, so no tree reproduces
    # any other transcript, and no label's membership can be estimated
    circ = _allq(np.random.default_rng(8), p_query=0.0)
    env = _env_for(circ, bbt2, 13)
    other = BN.replay_prefix(circ, bbt2, env.tape, 1) ^ 1
    est = BN.estimate_membership_probability(KnownVertices(bbt2.invalid), other, 1, 1, env,
                                             BN.BottleneckConfig(sample_budget=8))
    assert (est.value, est.stderr, est.accepted, est.attempted) == (None, None, 0, 8)


def _spy(monkeypatch, name: str) -> list:
    """The argument tuples of every call to ``BN.<name>`` from now on."""
    calls, real = [], getattr(BN, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(BN, name, spy)
    return calls


@pytest.mark.parametrize("rows", ["entrance", "none"])
def test_estimator_inconclusive_on_impossible_transcript(bbt2, monkeypatch, rows):
    rng = np.random.default_rng(8)
    circ = _allq(rng, p_query=0.0)
    env = _env_for(circ, bbt2, 13)
    V = (HS.entrance_known(HS.SimContext.fresh(bbt2)) if rows == "entrance"
         else KnownVertices(bbt2.invalid))
    # a query-free deterministic circuit reproduces exactly one transcript;
    # its ratio is 1, and conditioning on any other accepts no samples.  The
    # replay reads only the entrance row and consults no answer, so both
    # ratios are decided without drawing a tree, whether V holds that row
    # or not
    good = BN.replay_prefix(circ, bbt2, env.tape, 1)

    def no_draws(*args, **kwargs):
        raise AssertionError("a tree was drawn")

    monkeypatch.setattr(BN, "sample_consistent", no_draws)
    cfg = BN.BottleneckConfig(sample_budget=8)
    est = BN.estimate_consistency_ratio(V, good, 1, env, cfg)
    assert (est.value, est.stderr, est.accepted, est.attempted) == (1.0, 0.0, 8, 8)
    est = BN.estimate_consistency_ratio(V, good ^ 1, 1, env, cfg)
    assert not est.conclusive and (est.accepted, est.attempted) == (0, 8)
    assert env.call_counter == 2


@pytest.mark.parametrize("rows", ["none", "entrance"])
def test_undecided_replay_draws_and_replays_every_tree(bbt2, monkeypatch, rows):
    # with no rows V decides no replay; with the entrance row alone the
    # superposed query still reads rows V lacks
    circ = _superposed_query_circuit()
    env = _env_for(circ, bbt2, 3)
    V = (HS.entrance_known(HS.SimContext.fresh(bbt2)) if rows == "entrance"
         else KnownVertices(bbt2.invalid))
    x = BN.replay_prefix(circ, bbt2, env.tape, 1)
    drawn, replays = _spy(monkeypatch, "sample_consistent"), _spy(monkeypatch, "replay_prefix")
    est = BN.estimate_consistency_ratio(V, x, 1, env, BN.BottleneckConfig(sample_budget=10))
    assert est.attempted == len(drawn) == 10
    assert len(replays) == 1 + 10       # the one against V, then one per tree


@pytest.mark.parametrize("mode", ["labelings", "structures"])
def test_replay_decided_from_empty_V_is_every_trees_replay(mode):
    # random all-quantum circuits x trees, tiers 1 and 2: where the replay
    # against V = {} is decided, every sampled consistent tree replays to it
    decided = undecided = 0
    for k in range(24):
        p_query = (0.3, 0.6, 0.9)[k % 3]
        circ = _allq(np.random.default_rng(300 + k), p_query=p_query)
        bbt = tree.make_blackbox(2, 400 + k)
        env = _env_for(circ, bbt, k)
        V = KnownVertices(bbt.invalid)
        for i in (1, 2):
            y = BN._known_replay(V, i, env)
            if y is None:
                undecided += 1
                continue
            decided += 1
            for s in range(6):
                P = tree.sample_consistent(V, 2, 1000 * k + s, mode=mode,
                                           structure=bbt.structure, coloring=bbt.coloring)
                assert BN.replay_prefix(circ, P, env.tape, i) == y, (k, i, s)
    assert decided and undecided


def _array_consult_circuit(n=2, g=12):
    """One quantum tier: H on three x-wires and the four color wires, then a
    query.  Its 2^7 amplitudes take the array kernel, and the query is the
    only step that consults: it asks the entrance's colors among others."""
    grow = C.Layer(n, g, tuple(C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(n, g)))
    h = C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in (1, 2, 3, *range(2 * n, 2 * n + 4))])
    circ = C.HybridCircuit(n=n, g=g, all_quantum=True, tiers=(
        tier("quantum", [grow, h, C.layer(g, [query_gate(n)])]),))
    C.require_valid(circ)
    return circ


@pytest.mark.parametrize("mode", ["labelings", "structures"])
def test_consult_on_array_kernel_leaves_empty_V_undecided(bbt2, mode):
    assert 2 ** 7 >= SV.ARRAY_MIN_SUPPORT
    circ = _array_consult_circuit()
    env = _env_for(circ, bbt2, 5)
    V = KnownVertices(bbt2.invalid)
    ctx = HS.SimContext.fresh(bbt2, instrument=False)
    BN.replay_prefix(circ, bbt2, env.tape, 1, ctx)
    assert ctx.consulted == 8 * 9           # one per distinct (x, c in 1..9)
    # it read placeholders and then consulted, so it is not kept: the
    # second call replays again and is undecided too
    assert BN._known_replay(V, 1, env) is None
    assert BN._known_replay(V, 1, env) is None
    # the entrance's answers reach the transcript: the trees do not agree
    replays = {BN.replay_prefix(circ, tree.sample_consistent(
        V, 2, s, mode=mode, structure=bbt2.structure, coloring=bbt2.coloring), env.tape, 1)
        for s in range(8)}
    assert len(replays) > 1


def _known_replay_count(monkeypatch):
    """A function giving how many replays against V have run from now on."""
    calls = _spy(monkeypatch, "replay_prefix")
    return lambda: sum(isinstance(args[1], BN._KnownOracle) for args in calls)


@pytest.mark.parametrize("mode", ["labelings", "structures"])
def test_known_replay_memo_gives_a_fresh_envs_replay(monkeypatch, mode):
    # random all-quantum circuits x trees, tiers 1 and 2, on dictionaries
    # that grow a row at a time from {}: one env, whose memo carries over,
    # answers each as a fresh env does
    replays = _known_replay_count(monkeypatch)
    calls, seen = 0, set()
    for k in range(12):
        circ = _allq(np.random.default_rng(500 + k), p_query=(0.3, 0.6, 0.9)[k % 3])
        bbt = tree.make_blackbox(2, 600 + k)
        env = _env_for(circ, bbt, k)
        if mode == "structures":
            env.structure = env.coloring = None
        V = KnownVertices(bbt.invalid)
        for step in range(7):
            for i in (1, 2):
                fresh = dataclasses.replace(env, replays={})
                want = BN._known_replay(V, i, fresh)
                assert BN._known_replay(V, i, env) == want, (k, step, i)
                calls += 1
                seen.add(want is None)
            V = V.copy()
            frontier = sorted(V.known_labels() - V.key_labels()) or [0]
            V.set_vertex(frontier[0], vertex_row(bbt, frontier[0]))
    # every call replayed in its fresh env; the memo spared some in env
    assert seen == {True, False} and calls < replays() < 2 * calls


def _full_dictionary(bbt) -> KnownVertices:
    V = KnownVertices(bbt.invalid)
    for lab in sorted(int(x) for x in bbt.labels):
        V.set_vertex(lab, vertex_row(bbt, lab))
    return V


@pytest.mark.parametrize("variant, replays", [("reads-only", 0), ("changed", 1),
                                              ("missing", 1)])
def test_known_replay_memo_needs_every_answer_it_read(bbt2, monkeypatch, variant, replays):
    # the superposed query reads several rows; against the whole tree its
    # replay is decided and kept with the answers it read.  A dictionary
    # holding just those answers reuses it; one that changes or lacks any
    # of them replays again
    circ = _superposed_query_circuit()
    V = _full_dictionary(bbt2)
    first = BN._KnownOracle(V, circ.n)
    env = _env_for(circ, bbt2, 3)
    y = BN.replay_prefix(circ, first, env.tape, 1, first.ctx)
    assert first.ctx.consulted and not first.placeholders and len(first.reads) > 9
    count = _known_replay_count(monkeypatch)
    for key in sorted(first.reads):
        env = _env_for(circ, bbt2, 3)
        assert BN._known_replay(V, 1, env) == y and env.replays[1] == (first.reads, y)
        W = KnownVertices(bbt2.invalid, dict(first.reads))
        if variant == "changed":
            W.entries[key] = bbt2.invalid if W.entries[key] != bbt2.invalid else 1
        elif variant == "missing":
            del W.entries[key]
        before = count()
        got = BN._known_replay(W, 1, env)
        assert count() - before == replays, key
        assert replays or got == y


def test_known_replay_memo_lives_for_one_run(monkeypatch):
    # a run's memo spares replays, and a second run of the same item starts
    # with an empty one: it replays as often as the first
    calls = _spy(monkeypatch, "_known_replay")
    replays = _known_replay_count(monkeypatch)
    counts = []
    for _ in range(2):
        before = len(calls), replays()
        _decidable_run("labelings", 2)
        counts.append((len(calls) - before[0], replays() - before[1]))
    assert counts[0] == counts[1] and counts[0][1] < counts[0][0]


def test_bottleneck_keeps_entrance_dictionary_on_query_free_circuit(bbt2):
    rng = np.random.default_rng(15)
    circ = _allq(rng, p_query=0.0)
    env = _env_for(circ, bbt2, 19)
    ctx = HS.SimContext.fresh(bbt2)
    V = HS.entrance_known(ctx)
    out = BN.bottleneck(0, 0, V.copy(), V.copy(), env, BN.BottleneckConfig())
    assert not isinstance(out, BN.Abort)
    assert out.entries == V.entries


def test_bottleneck_rejects_current_keys_outside_the_history(bbt2):
    circ = _allq(np.random.default_rng(15), p_query=0.0)
    V = HS.entrance_known(HS.SimContext.fresh(bbt2))
    with pytest.raises(ValueError, match="V_current must be a key-subset of V_hist"):
        BN.bottleneck(0, 0, V, KnownVertices(bbt2.invalid), _env_for(circ, bbt2, 19),
                      BN.BottleneckConfig())


def _left_tree_call(bbt2):
    """A tier-0 call on bbt2 whose V knows the left tree's rows and whose
    V_hist knows every row: returns (out, V, hist, record)."""
    circ = _allq(np.random.default_rng(15), p_query=0.0)
    s = bbt2.structure
    V, hist = KnownVertices(bbt2.invalid), KnownVertices(bbt2.invalid)
    for v, lab in enumerate(bbt2.labels.tolist()):
        hist.set_vertex(lab, vertex_row(bbt2, lab))
        if s.column[v] <= s.n:
            V.set_vertex(lab, vertex_row(bbt2, lab))
    rec = BN.CallRecord(tier=0, layer=-1, iterations=0, aborted=False, v_current=V.size(),
                        v_out=0, v_hist=hist.size(), ratio=None)
    cfg = BN.BottleneckConfig(tau=0.75, sample_budget=3, fresh_candidates=0)
    out = BN.bottleneck(0, 0, V, hist, _env_for(circ, bbt2, 19), cfg, record=rec)
    return out, V, hist, rec


def test_certify_round_adopts_a_violators_full_row(bbt2):
    # each label a round can certify lies in the right tree, a key of
    # V_hist, and the round adopts its whole row
    out, V, hist, rec = _left_tree_call(bbt2)
    assert rec.iterations > 0 and out.size() > V.size()
    assert all(out.row(v) == hist.row(v) for v in out.key_labels())


@pytest.mark.parametrize("mode", ["labelings", "structures"])
def test_certify_round_adopts_the_entrance_path_to_an_unreached_violator(bbt2, mode):
    # V is empty, so a certified label no entrance edge reaches would leave
    # V without a path from the entrance, and the next round's sampler
    # would refuse it; the round adopts V_hist's rows along that path too
    circ = _allq(np.random.default_rng(15), p_query=0.0)
    hist = KnownVertices(bbt2.invalid)
    for lab in bbt2.labels.tolist():
        hist.set_vertex(lab, vertex_row(bbt2, lab))
    rec = BN.CallRecord(tier=0, layer=-1, iterations=0, aborted=False, v_current=0,
                        v_out=0, v_hist=hist.size(), ratio=None)
    cfg = BN.BottleneckConfig(tau=0.75, sample_budget=3, fresh_candidates=0, mode=mode)
    out = BN.bottleneck(0, 0, KnownVertices(bbt2.invalid), hist, _env_for(circ, bbt2, 19),
                        cfg, record=rec)
    assert not isinstance(out, BN.Abort) and rec.iterations > 0
    entrance_row = set(hist.row(0).values())
    assert out.key_labels() - entrance_row - {0}
    assert all(out.row(v) == hist.row(v) for v in out.key_labels())


@pytest.mark.parametrize("ceiling", ["loop_ceiling", "size_ceiling"])
def test_a_call_past_its_ceiling_is_refused(bbt2, monkeypatch, ceiling):
    # the call runs at a ceiling equal to what it takes, and not below it
    out, _V, _hist, rec = _left_tree_call(bbt2)
    taken = rec.iterations if ceiling == "loop_ceiling" else out.size()
    monkeypatch.setattr(BN, ceiling, lambda *args: taken)
    assert _left_tree_call(bbt2)[0].entries == out.entries
    monkeypatch.setattr(BN, ceiling, lambda *args: taken - 1)
    error = (f"bottleneck while-loop exceeded {taken - 1} iterations"
             if ceiling == "loop_ceiling" else "bottleneck output size ceiling exceeded")
    with pytest.raises(AssertionError, match=error):
        _left_tree_call(bbt2)


def test_a_call_that_breaks_the_subset_chain_is_refused(bbt2, monkeypatch):
    # an output that drops V_current's keys
    monkeypatch.setattr(BN, "complete_subtree", lambda V, V_hist: KnownVertices(V.invalid))
    with pytest.raises(AssertionError, match="bottleneck subset chain violated"):
        _left_tree_call(bbt2)


def test_bottleneck_wrapper_rejects_a_circuit_with_classical_tiers(bbt2):
    circ = random_hybrid(np.random.default_rng(4), n=2, g=12, eta=2, max_c=1, max_q=1)
    with pytest.raises(ValueError, match="bottleneck pipeline expects the all-quantum-tier variant"):
        BN.bottleneck_wrapper(circ, bbt2, tape=_tape_for(circ, 0))


def test_replay_prefix_of_no_tiers_is_the_all_zeros_input(bbt2):
    circ = _allq(np.random.default_rng(16), eta=2)
    assert BN.replay_prefix(circ, bbt2, _tape_for(circ, 1), 0) == 0


@pytest.mark.parametrize("tiers", [-1, 3])
def test_replay_prefix_rejects_tier_count_out_of_range(bbt2, tiers):
    circ = _allq(np.random.default_rng(16), eta=2)
    with pytest.raises(ValueError, match=f"tier count {tiers} out of range 0..2"):
        BN.replay_prefix(circ, bbt2, _tape_for(circ, 1), tiers)


def fidelity_gap_check(result: BN.BottleneckResult) -> list[dict]:
    """Per-layer 1-norm gap between simulated and true-query layer outputs.

    Reported from the run's instrumentation: for outlier-free layers the gap
    is 0; otherwise it is bounded by twice the outlier amplitude mass (each
    outlier string contributes |c_z| at two basis positions at most).
    """
    return [{"tier": rec.tier, "layer": rec.layer, "outlier_mass": rec.outlier_mass,
             "l1_gap": rec.l1_gap} for rec in result.transcript.per_layer]


def test_fidelity_gap_positive_and_bounded_on_outliers():
    # a tier querying a superposed x-register produces outliers; the gap is
    # positive and bounded by twice the outlier amplitude mass
    circ = _superposed_query_circuit()
    bbt = tree.make_blackbox(2, 44)
    res = BN.bottleneck_wrapper(circ, bbt, seed=2, tape=_tape_for(circ, 2))
    rep = fidelity_gap_check(res)
    gaps = [r for r in rep if r["outlier_mass"] > 0]
    assert gaps, "expected at least one outlier layer"
    for r in gaps:
        assert 0 < r["l1_gap"] <= 2 * (r["outlier_mass"] * 16) ** 0.5 + 1e-9


def test_fidelity_gap_report():
    rng = np.random.default_rng(9)
    circ = _allq(rng, p_query=0.0)
    bbt = tree.make_blackbox(2, 3)
    res = BN.bottleneck_wrapper(circ, bbt, seed=1, tape=_tape_for(circ, 1))
    rep = fidelity_gap_check(res)
    assert all(r["l1_gap"] == 0.0 for r in rep)  # query-free: no outliers


def test_bottleneck_report_json():
    import json

    rng = np.random.default_rng(10)
    circ = _allq(rng, eta=2)
    bbt = tree.make_blackbox(2, 6)
    res = BN.bottleneck_wrapper(circ, bbt, seed=2, tape=_tape_for(circ, 2))
    doc = json.loads(res.report_json())
    assert {"aborted", "calls", "output", "v_hist", "v_known"} <= set(doc)
    call = doc["calls"][0]
    assert {"tier", "layer", "loop_iterations", "aborted", "v_current",
            "v_out", "v_hist", "ratio", "ratio_stderr"} <= set(call)
    assert res.report_json() == res.report_json()


# ---------------------------------------------------------------------------
# pinned runs and the certify round's skip rule
# ---------------------------------------------------------------------------

def _pinned_run(case: str) -> BN.BottleneckResult:
    """The Bottleneck run that ``test_bottleneck_run_pinned`` names by ``case``."""
    if case == "tiny-tau":      # the run of test_abort_guess_path_tiny_tau
        circ = _allq(np.random.default_rng(3), eta=2, p_query=0.7)
        cfg = BN.BottleneckConfig(tau=1e-12, sample_budget=10, fresh_candidates=8)
        return BN.bottleneck_wrapper(circ, tree.make_blackbox(2, 7), seed=4, cfg=cfg,
                                     tape=_tape_for(circ, 4))
    if case == "tight-rho":     # test_abort_ratio_path_tight_rho's config, whole pipeline
        circ = _superposed_query_circuit()
        cfg = BN.BottleneckConfig(rho_log2=-0.2, sample_budget=80, fresh_candidates=0)
        return BN.bottleneck_wrapper(circ, tree.make_blackbox(2, 9), seed=6, cfg=cfg,
                                     tape=_tape_for(circ, 0))
    # n=3 at the default tau; a second tier starts from a label-dependent
    # transcript, so its ratio estimates (and their seeds) show in the report
    n, g = 3, 16
    again = tier("quantum", [C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in range(3)]),
                               C.layer(g, [query_gate(n)])])
    circ = C.HybridCircuit(n=n, g=g, tiers=_superposed_query_circuit(n, g).tiers + (again,),
                           all_quantum=True)
    mode, budget = case.split("-")
    cfg = BN.BottleneckConfig(sample_budget=int(budget), mode=mode)
    return BN.bottleneck_wrapper(circ, tree.make_blackbox(n, 3), seed=5, cfg=cfg,
                                 tape=_tape_for(circ, 5))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of report_json() and transcript.to_json(), recorded before the
# certify round learnt to skip what cannot certify
PINNED_RUNS = {
    "labelings-12": ("ad86fa8c0534b4de26618b155ab84ea2cfcdb578a80452d916baae4050082387",
        "3a2fc892936f052b3ff90396ac801f6f76731ea446728f327185eaa843e26a2b"),
    "labelings-24": ("f08183bcf129d401529c2f8054e3eac7d96654485e54889ec84e392b8903eb3a",
        "3a2fc892936f052b3ff90396ac801f6f76731ea446728f327185eaa843e26a2b"),
    "structures-12": ("ca273d00483d00db92c9667a32e2578537a76a95a8406a47ee75444d0b7df70f",
        "3a2fc892936f052b3ff90396ac801f6f76731ea446728f327185eaa843e26a2b"),
    "structures-24": ("b8a55c5bf44dcd5b4556598ce1f6052bb03ecf298c2af2445a0952189dbe56a6",
        "3a2fc892936f052b3ff90396ac801f6f76731ea446728f327185eaa843e26a2b"),
    "tiny-tau": ("4b9a216497e22c7f3f0b1b2f64e03d6ea032aa70227b4b35c0ce4738c56b0631",
        "50ec3a3b7167a7948e5411e627520af613630c0114ca3378a9e509531145d93b"),
    "tight-rho": ("49fd2ea7519bafcc8a430e538aaac96a60a7dbbc109f4bf06fc66dc91a6f68e0",
        "cc4d80e32f00fd21a75775413edc8da1080f84a30bfe4d64d2d131a131b16242"),
}


@pytest.mark.parametrize("case", PINNED_RUNS)
def test_bottleneck_run_pinned(case):
    res = _pinned_run(case)
    assert (_sha(res.report_json()), _sha(res.transcript.to_json())) == PINNED_RUNS[case]


def _decidable_run(mode: str, seed: int) -> BN.BottleneckResult:
    """A run whose V holds every answer many of its replays read (basis-state
    queries of a random n=3 circuit).  At tau = 3/4 a round of 4 trees
    certifies a label all 4 hold, (4+1)/(4+2) > 3/4, so certify rounds draw
    trees, and at seeds 2 and 4 what they certify moves the report."""
    circ = _allq(np.random.default_rng(seed), n=3, g=16, eta=3, p_query=0.5)
    cfg = BN.BottleneckConfig(tau=0.75, sample_budget=4, mode=mode)
    return BN.bottleneck_wrapper(circ, tree.make_blackbox(3, seed), seed=seed, cfg=cfg,
                                 tape=_tape_for(circ, seed))


# case -> whether V decides any of its replays.  The pinned n=3 runs replay a
# superposed query whose rows the Bottleneck drops.  The tiny-tau run aborts
# in its first round, whose V is empty but whose replay of no tier consults
# no answer; tight-rho's certify rounds in tier 1 replay no tier and read
# only the entrance row.
SHORTCUT_CASES = {**{case: case in ("tight-rho", "tiny-tau") for case in PINNED_RUNS},
                  **{f"{mode}-{seed}": True
                     for mode in ("labelings", "structures") for seed in (2, 4)}}


@pytest.mark.parametrize("case", SHORTCUT_CASES)
def test_known_replay_shortcut_changes_no_result(case, monkeypatch):
    # the same run with every replay against V forced undecided, i.e. all
    # Monte Carlo, gives the same report and transcript
    decided, known_replay = [], BN._known_replay

    def spy(V, i, env):
        y = known_replay(V, i, env)
        decided.append(y is not None)
        return y

    def run():
        if case in PINNED_RUNS:
            return _pinned_run(case)
        mode, seed = case.split("-")
        return _decidable_run(mode, int(seed))

    monkeypatch.setattr(BN, "_known_replay", spy)
    shipped = run()
    assert any(decided) == SHORTCUT_CASES[case]
    monkeypatch.setattr(BN, "_known_replay", lambda V, i, env: None)
    forced = run()
    assert shipped.report_json() == forced.report_json()
    assert shipped.transcript.to_json() == forced.transcript.to_json()


@pytest.mark.parametrize("tau, budget, draws", [
    (None, 46, 0), (None, 47, 47), (0.75, 2, 0), (0.75, 3, 3)])
def test_certify_round_draws_only_if_a_full_sample_clears_tau(bbt3, monkeypatch,
                                                             tau, budget, draws):
    # the best a round can do is hits = m = budget, (budget+1)/(budget+2) > tau:
    # at n=3 the default tau 2^(-3/100) first allows it at budget 47, and
    # tau = 3/4 equals it at budget 2
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(args[2])
        return tree.sample_consistent(*args, **kwargs)

    monkeypatch.setattr(BN, "sample_consistent", spy)
    circ = _allq(np.random.default_rng(21), n=3, g=16)
    env = _env_for(circ, bbt3, 3)
    V = HS.entrance_known(HS.SimContext.fresh(bbt3))
    # tier 0: the ratio estimate draws nothing, so every draw is the certify round's
    out = BN.bottleneck(0, 0, V, V.copy(), env, BN.BottleneckConfig(tau=tau, sample_budget=budget))
    assert len(drawn) == draws
    assert not isinstance(out, BN.Abort) and out.entries == V.entries
    assert env.call_counter == 2        # the round's call id is taken either way
