from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldlab import tree
from weldlab.known import KnownVertices


def test_structure_counts_forced_at_n1():
    ts = tree.generate_structure(1, 0)
    assert ts.vertex_count == 6
    assert len(ts.adjacency[ts.entrance]) == 2
    assert len(ts.adjacency[ts.exit]) == 2
    assert len(ts.weld_cycle) == 4


def test_structure_rejects_n0():
    with pytest.raises(ValueError):
        tree.generate_structure(0, 1)


@given(st.integers(1, 5), st.integers(0, 2 ** 40))
@settings(max_examples=60, deadline=None)
def test_structure_invariants(n, seed):
    ts = tree.generate_structure(n, seed)
    assert ts.validate() == []


def test_weld_is_single_alternating_cycle_many_seeds():
    # exhaustive cycle check per sample over 10^4 seeds
    for seed in range(10_000):
        ts = tree.generate_structure(3, seed)
        cyc = ts.weld_cycle
        assert len(cyc) == 2 * 2 ** 3 and len(set(cyc)) == len(cyc)
        for i, v in enumerate(cyc):
            assert int(ts.column[v]) == (3 if i % 2 == 0 else 4)
            assert cyc[(i + 1) % len(cyc)] in ts.adjacency[v]


def test_structure_deterministic_per_seed():
    a = tree.generate_structure(4, 123)
    b = tree.generate_structure(4, 123)
    assert a.weld_cycle == b.weld_cycle
    assert tree.generate_structure(4, 124).weld_cycle != a.weld_cycle


def test_coloring_incident_distinct_n4_100_seeds():
    for seed in range(100):
        ts = tree.generate_structure(4, seed)
        col = tree.generate_coloring(ts, seed)
        assert col.validate(ts) == []


def test_coloring_entrance_edges_distinct_n1():
    ts = tree.generate_structure(1, 3)
    col = tree.generate_coloring(ts, 3)
    e = ts.entrance
    c1, c2 = (col.edge_color(ts, e, w) for w in ts.adjacency[e])
    assert c1 != c2


def test_labels_basics():
    for seed in range(50):
        bbt = tree.make_blackbox(2, seed)
        labs = [int(x) for x in bbt.labels]
        assert labs[bbt.structure.entrance] == 0
        assert bbt.invalid not in labs
        assert len(set(labs)) == len(labs)


def test_labels_impossible_at_n1():
    ts = tree.generate_structure(1, 0)
    col = tree.generate_coloring(ts, 0)
    with pytest.raises(ValueError):
        tree.generate_labels(ts, col, 0)
    # a widened space makes n=1 usable for tests
    bbt = tree.generate_labels(ts, col, 0, label_bits=3)
    assert len(set(int(x) for x in bbt.labels)) == 6


def test_query_all_ones_and_entrance(bbt3):
    inv = bbt3.invalid
    for c in range(1, 10):
        assert tree.query(bbt3, inv, c) == inv
    hits = {c: tree.query(bbt3, 0, c) for c in range(1, 10)}
    valid = [y for y in hits.values() if y != inv]
    assert len(valid) == 2  # entrance has degree 2


def test_query_involution(bbt3):
    rng = np.random.default_rng(0)
    h = bbt3.handle()
    for _ in range(500):
        x = int(rng.integers(0, 1 << 6))
        c = int(rng.integers(1, 10))
        y = h.query(x, c)
        if y != bbt3.invalid:
            assert h.query(y, c) == x


# 60-bit labels: a lookup key must hold the label and the row, not the vertex
@pytest.mark.parametrize("n,label_bits", [(1, 3), (2, None), (3, None), (5, None), (3, 60)])
def test_answer_many_matches_answer(n, label_bits):
    bbt = tree.make_blackbox(n, 4, label_bits=label_bits)
    space = 1 << bbt.label_bits
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.integers(-2, space + 2, size=2000), bbt.labels,
                         [bbt.invalid]])
    cs = rng.integers(-1, 12, size=xs.size)
    want = [bbt.answer(int(x), int(c)) for x, c in zip(xs, cs)]
    assert bbt.answer_many(xs, cs).tolist() == want


def test_label_batch_rows_are_uniform_labelings():
    ts = tree.generate_structure(1, 0)
    col = tree.generate_coloring(ts, 0)
    with pytest.raises(ValueError):
        tree.generate_label_batch(ts, col, 4, np.random.default_rng(0))
    # 13 free vertices share labels 1..14: a tight space, where rows are redrawn
    ts = tree.generate_structure(2, 0)
    col = tree.generate_coloring(ts, 0)
    rows = 20_000
    batch = tree.generate_label_batch(ts, col, rows, np.random.default_rng(0))
    labs = batch.labels
    assert (labs[:, ts.entrance] == 0).all()
    assert (np.sort(labs, axis=1)[:, 1:] != np.sort(labs, axis=1)[:, :-1]).all()
    assert labs.min() >= 0 and labs.max() <= 14
    free = np.delete(labs, ts.entrance, axis=1)
    sigma = math.sqrt((1 / 14) * (13 / 14) / rows)
    for v in range(free.shape[1]):
        freq = np.bincount(free[:, v], minlength=15)[1:] / rows
        assert np.abs(freq - 1 / 14).max() <= 5 * sigma


def test_label_batch_rows_answer_like_trees():
    ts = tree.generate_structure(3, 2)
    col = tree.generate_coloring(ts, 2)
    batch = tree.generate_label_batch(ts, col, 20, np.random.default_rng(1))
    xs = np.arange(-1, 66)
    for r in range(20):
        bbt = tree.BlackBoxTree(structure=ts, coloring=col,
                                labels=batch.labels[r].copy(), label_bits=6)
        for c in range(11):
            asked = np.zeros((xs.size, 20), dtype=np.int64)
            asked[:, r] = xs
            got = batch.answer_many(asked, np.full(asked.shape, c))[:, r]
            assert got.tolist() == [bbt.answer(int(x), c) for x in xs]


def test_tree_freed_without_cycle_collector():
    bbt = tree.make_blackbox(3, 1)
    tree.query(bbt, 0, 1)
    bbt.answer_many(np.zeros(3, dtype=np.int64), np.arange(1, 4))
    gone = weakref.ref(bbt)
    gc.disable()
    try:
        del bbt
        assert gone() is None
    finally:
        gc.enable()


def test_query_counter_counts_every_invocation(bbt2):
    h = bbt2.handle()
    for i in range(137):
        h.query(i % 16, 1 + i % 9)
    assert h.count == 137


def test_exit_label_n1_toy():
    # the degree-2 vertex in the last column (widened label space at n=1)
    b1 = tree.make_blackbox(1, 2, label_bits=3)
    ex = b1.exit_label()
    assert ex != 0 and ex != b1.invalid
    v = b1.inverse[ex]
    assert int(b1.structure.column[v]) == 3
    assert len(b1.structure.adjacency[v]) == 2


def test_exit_label(bbt3):
    ex = bbt3.exit_label()
    assert ex != 0 and ex != bbt3.invalid
    v = bbt3.inverse[ex]
    assert int(bbt3.structure.column[v]) == 2 * bbt3.n + 1
    assert len(bbt3.structure.adjacency[v]) == 2


# ---------------------------------------------------------------------------
# count_consistent
# ---------------------------------------------------------------------------

def _entries_from_walk(bbt, steps, seed):
    rng = np.random.default_rng(seed)
    V = KnownVertices(bbt.invalid)
    h = bbt.handle()
    cur = 0
    V.set_vertex(0, {c: h.query(0, c) for c in range(1, 10)})
    for _ in range(steps):
        nbrs = V.neighbors_of(cur)
        c = sorted(nbrs)[rng.integers(0, len(nbrs))]
        cur = nbrs[c]
        if cur not in V.key_labels():
            V.set_vertex(cur, {cc: h.query(cur, cc) for cc in range(1, 10)})
    return V


def test_count_trivial_values():
    # N=5 available, k=2 unlabeled -> 20; arrange via label_bits/known sizes
    assert math.perm(5, 2) == 20
    # k=0 -> 1: all vertices known
    bbt = tree.make_blackbox(2, 1)
    V = KnownVertices(bbt.invalid)
    for x in bbt.inverse:
        V.set_vertex(int(x), bbt.vertex_row(int(x)))
    assert tree.count_consistent(V, 2) == 1


def test_count_n1_entrance_only_matches_enumeration():
    # at n=1 the 2-bit space cannot label six vertices: enumeration gives 0
    inv = tree.invalid_label(2)
    V = KnownVertices(inv)
    V.set_vertex(0, {1: 1, 2: 2, **{c: inv for c in range(3, 10)}})
    assert tree.count_consistent(V, 1, label_bits=2) == 0


def test_count_chain_invariant(bbt2):
    V = _entries_from_walk(bbt2, 4, seed=1)
    c1 = tree.count_consistent(V, 2)
    avail = tree.available_labels(V, 2)
    frontier = sorted(V.known_labels() - V.key_labels())
    V2 = V.copy()
    V2.set_vertex(frontier[0], bbt2.vertex_row(frontier[0]))
    before = len(V.known_labels() | {0})
    added = len(V2.known_labels() | {0}) - before
    expected = c1
    for i in range(added):
        expected //= (avail - i)
    assert tree.count_consistent(V2, 2) == expected


def test_count_matches_enumeration_against_fixed_structure(bbt2):
    V = _entries_from_walk(bbt2, 8, seed=3)
    count = tree.count_consistent(V, 2)
    pos = tree.embed_entries(V, bbt2.structure, bbt2.coloring, bbt2.label_bits)
    free = bbt2.structure.vertex_count - len(pos)
    avail = tree.available_labels(V, 2)
    assert count == math.perm(avail, free)


def test_count_rejects_inconsistent():
    inv = tree.invalid_label(4)
    V = KnownVertices(inv)
    V.entries[(inv, 1)] = 3
    with pytest.raises(ValueError):
        tree.count_consistent(V, 2)


# ---------------------------------------------------------------------------
# sample_consistent
# ---------------------------------------------------------------------------

def test_sample_labelings_mode_replays(bbt2):
    V = _entries_from_walk(bbt2, 6, seed=5)
    for s in range(20):
        samp = tree.sample_consistent(V, 2, s, mode="labelings",
                                      structure=bbt2.structure,
                                      coloring=bbt2.coloring)
        for (x, c), y in V.entries.items():
            assert samp.answer(x, c) == y


def test_sample_labelings_mode_uniform_over_free_labels(bbt2):
    # know the whole L side; the exit and column-4 vertices stay free, and
    # the exit's label must be uniform over the unused labels
    s = bbt2.structure
    V = KnownVertices(bbt2.invalid)
    for v in range(s.vertex_count):
        if int(s.column[v]) <= s.n:
            lab = int(bbt2.labels[v])
            V.set_vertex(lab, bbt2.vertex_row(lab))
    pos = tree.embed_entries(V, s, bbt2.coloring, bbt2.label_bits)
    free_count = s.vertex_count - len(pos)
    avail = tree.available_labels(V, 2)
    assert free_count == 3 and avail == free_count + 1
    counts: dict[int, int] = {}
    trials = 600
    for sd in range(trials):
        samp = tree.sample_consistent(V, 2, sd, mode="labelings",
                                      structure=s, coloring=bbt2.coloring)
        counts[samp.exit_label()] = counts.get(samp.exit_label(), 0) + 1
    assert len(counts) == avail
    expected = trials / avail
    for v in counts.values():
        assert abs(v - expected) <= 5 * math.sqrt(expected)


def test_sample_structures_mode(bbt3):
    V = _entries_from_walk(bbt3, 9, seed=4)
    for s in range(20):
        samp = tree.sample_consistent(V, 3, s, mode="structures")
        assert samp.structure.validate() == []
        assert samp.coloring.validate(samp.structure) == []
        for (x, c), y in V.entries.items():
            assert samp.answer(x, c) == y


def test_sample_structures_empty_entries_matches_pipeline_invariants():
    V = KnownVertices(tree.invalid_label(6))
    for s in range(10):
        samp = tree.sample_consistent(V, 3, s, mode="structures")
        assert samp.structure.validate() == []
        assert samp.coloring.validate(samp.structure) == []
        assert samp.labels[samp.structure.entrance] == 0


def test_sample_rejects_unrooted_entries(bbt2):
    inv = bbt2.invalid
    V = KnownVertices(inv)
    far = int(bbt2.labels[9])  # some vertex, no path recorded from entrance
    V.set_vertex(far, bbt2.vertex_row(far))
    with pytest.raises(tree.EmbeddingError):
        tree.sample_consistent(V, 2, 0, mode="labelings",
                               structure=bbt2.structure, coloring=bbt2.coloring)


def test_sample_membership_statistics(bbt2):
    # 10^3-sample membership replay
    V = _entries_from_walk(bbt2, 5, seed=7)
    for s in range(1000):
        samp = tree.sample_consistent(V, 2, s, mode="labelings",
                                      structure=bbt2.structure,
                                      coloring=bbt2.coloring)
        assert set(V.known_labels()) <= set(int(x) for x in samp.labels)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,seed", [(2, 0), (3, 5), (4, 9)])
def test_serialization_round_trip(n, seed):
    bbt = tree.make_blackbox(n, seed)
    text = tree.save_tree(bbt)
    loaded = tree.load_tree(text)
    assert tree.save_tree(loaded) == text
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = int(rng.integers(0, 1 << (2 * n)))
        c = int(rng.integers(1, 10))
        assert bbt.answer(x, c) == loaded.answer(x, c)


def test_serialization_preserves_exit(bbt3):
    loaded = tree.load_tree(tree.save_tree(bbt3))
    assert loaded.exit_label() == bbt3.exit_label()


# ---------------------------------------------------------------------------
# discovery probability (small-scale; the full envelope runs in acceptance)
# ---------------------------------------------------------------------------

def test_discovery_probability_small():
    from weldlab.harness import discovery_bound, discovery_rate
    rate, stderr = discovery_rate(n=3, h=4, trials=4000, seed=11)
    assert rate <= discovery_bound(3, 4) + 3 * stderr
