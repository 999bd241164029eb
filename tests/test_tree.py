from __future__ import annotations

import gc
import hashlib
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldlab import tree
from weldlab.harness import discovery_rate
from weldlab.known import KnownVertices

from tree_tools import (eager_discovery_rate, edge_color, exit_label, labeled_blackbox,
                        vertex_row)


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
    c1, c2 = (edge_color(col, e, w) for w in ts.adjacency[e])
    assert c1 != c2


def test_labels_basics():
    for seed in range(50):
        bbt = tree.make_blackbox(2, seed)
        labs = [int(x) for x in bbt.labels]
        assert labs[bbt.structure.entrance] == 0
        assert bbt.invalid not in labs
        assert len(set(labs)) == len(labs)


def test_labels_drawn_at_a_span_above_2_22():
    # n=12 draws 16,381 of 2^24 - 2 labels in the same single draw as small n
    bbt = tree.make_blackbox(12, 3)
    labs = bbt.labels
    assert labs[bbt.structure.entrance] == 0
    assert np.unique(labs).size == labs.size
    assert not (labs == bbt.invalid).any()
    drawn = np.delete(labs, bbt.structure.entrance)
    # the top three bits: each of 8 values within 5 sigma of its share
    counts = np.bincount(drawn >> (bbt.label_bits - 3), minlength=8)
    sigma = np.sqrt(drawn.size * (1 / 8) * (7 / 8))
    assert (np.abs(counts - drawn.size / 8) <= 5 * sigma).all()


def test_labels_impossible_at_n1():
    ts = tree.generate_structure(1, 0)
    col = tree.generate_coloring(ts, 0)
    with pytest.raises(ValueError):
        tree.generate_labels(ts, col, 0)
    # a widened space makes n=1 usable for tests
    bbt = labeled_blackbox(1, 0, 3)
    assert len(set(int(x) for x in bbt.labels)) == 6


def test_query_all_ones_and_entrance(bbt3):
    inv = bbt3.invalid
    for c in range(1, 10):
        assert bbt3.handle().query(inv, c) == inv
    h = bbt3.handle()
    hits = {c: h.query(0, c) for c in range(1, 10)}
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
    bbt = tree.make_blackbox(n, 4) if label_bits is None else labeled_blackbox(n, 4, label_bits)
    space = 1 << bbt.label_bits
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.integers(-2, space + 2, size=2000), bbt.labels,
                         [bbt.invalid]])
    cs = rng.integers(-1, 12, size=xs.size)
    want = [bbt.answer(int(x), int(c)) for x, c in zip(xs, cs)]
    assert bbt.answer_many(xs, cs).tolist() == want


def test_discovery_rate_agrees_with_eager_labelings():
    trials = 20_000
    lazy, lazy_se = discovery_rate(3, 16, trials=trials, seed=31)
    eager, eager_se = eager_discovery_rate(3, 16, trials=trials, seed=32)
    assert abs(lazy - eager) <= 5 * math.hypot(lazy_se, eager_se)


def test_tree_freed_without_cycle_collector():
    bbt = tree.make_blackbox(3, 1)
    bbt.handle().query(0, 1)
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
    b1 = labeled_blackbox(1, 2, 3)
    ex = exit_label(b1)
    assert ex != 0 and ex != b1.invalid
    v = b1.inverse[ex]
    assert int(b1.structure.column[v]) == 3
    assert len(b1.structure.adjacency[v]) == 2


def test_exit_label(bbt3):
    ex = exit_label(bbt3)
    assert ex != 0 and ex != bbt3.invalid
    v = bbt3.inverse[ex]
    assert int(bbt3.structure.column[v]) == 2 * bbt3.n + 1
    assert len(bbt3.structure.adjacency[v]) == 2


# ---------------------------------------------------------------------------
# sample_consistent
# ---------------------------------------------------------------------------

def _entries_from_walk(bbt, steps, seed):
    rng = np.random.default_rng(seed)
    V = KnownVertices(bbt.invalid)
    h = bbt.handle()
    cur = 0
    V.set_vertex(0, {c: h.query(0, c) for c in range(1, 10)})
    for _ in range(steps):
        nbrs = {c: y for c, y in V.row(cur).items() if y != V.invalid}
        c = sorted(nbrs)[rng.integers(0, len(nbrs))]
        cur = nbrs[c]
        if cur not in V.key_labels():
            V.set_vertex(cur, {cc: h.query(cur, cc) for cc in range(1, 10)})
    return V


def test_count_rejects_inconsistent():
    inv = tree.invalid_label(4)
    V = KnownVertices(inv)
    V.entries[(inv, 1)] = 3
    with pytest.raises(ValueError):
        tree.sample_consistent(V, 2, 0)


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
            V.set_vertex(lab, vertex_row(bbt2, lab))
    pos = tree.embed_entries(V, s, bbt2.coloring)
    free_count = s.vertex_count - len(pos)
    avail = (1 << 4) - 1 - len(V.known_labels() | {0})
    assert free_count == 3 and avail == free_count + 1
    counts: dict[int, int] = {}
    trials = 600
    for sd in range(trials):
        samp = tree.sample_consistent(V, 2, sd, mode="labelings",
                                      structure=s, coloring=bbt2.coloring)
        counts[exit_label(samp)] = counts.get(exit_label(samp), 0) + 1
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
    V.set_vertex(far, vertex_row(bbt2, far))
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
# the sampler's random stream: every draw is pinned, so a rewrite that
# reorders, adds or drops a draw changes these digests
# ---------------------------------------------------------------------------

def _raw_tree(structure, coloring, labels=None) -> list:
    """The raw layout, no canonicalize; json refuses numpy scalars."""
    return [[list(nbrs) for nbrs in structure.adjacency], structure.weld_cycle,
            sorted([u, w, c] for (u, w), c in coloring.edges.items()),
            None if labels is None else labels.tolist()]


def _digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _pin_entries(bbt, s: int) -> KnownVertices:
    """Full answer rows along a walk of s % (2n+2) steps.  On odd seeds only
    the valid answers and the INVALID ones at colors c with c + s divisible
    by 3 are kept.  On seeds divisible by 3 every frontier vertex is also
    answered INVALID at its 5 + s % 2 lowest unrecorded colors: those
    forbids make the coloring backtrack, at times until its budget runs out."""
    V = _entries_from_walk(bbt, s % (2 * bbt.n + 2), seed=s)
    if s % 2:
        V.entries = {(x, c): y for (x, c), y in V.entries.items()
                     if y != V.invalid or (c + s) % 3 == 0}
    if s % 3 == 0:
        for y in sorted(V.value_labels() - V.key_labels()):
            recorded = {c for (_x, c), z in V.entries.items() if z == y}
            for c in [c for c in range(1, 10) if c not in recorded][:5 + s % 2]:
                V.entries[(y, c)] = V.invalid
    return V


def _sampled(V, n, s, **kwargs):
    try:
        samp = tree.sample_consistent(V, n, s, **kwargs)
    except tree.EmbeddingError as e:
        return f"EmbeddingError: {e}"
    return _raw_tree(samp.structure, samp.coloring, samp.labels)


STREAM_PINS = {
    (2, "structures"): "09283a497d05dc3b", (2, "labelings"): "75f06b0c1244b88c",
    (3, "structures"): "7a768ffd159ba899", (3, "labelings"): "aa04713f5dae9ac2",
    (4, "structures"): "3a73b8e92dd16d0a", (4, "labelings"): "02c8875fdadf82ab",
}


@pytest.mark.parametrize("n, mode", sorted(STREAM_PINS))
def test_sample_consistent_stream_pinned(n, mode):
    bbt = tree.make_blackbox(n, 1000 + n)
    fixed = dict(structure=bbt.structure, coloring=bbt.coloring) if mode == "labelings" else {}
    parts = [_sampled(_pin_entries(bbt, s), n, s, mode=mode, **fixed) for s in range(20)]
    assert _digest(parts) == STREAM_PINS[(n, mode)]


def test_generate_coloring_stream_pinned():
    parts = []
    for n in range(1, 7):
        for seed in (0, 1, 2, 1234567):
            ts = tree.generate_structure(n, seed)
            parts.append(_raw_tree(ts, tree.generate_coloring(ts, seed)))
    assert _digest(parts) == "00584da36c14a42d"


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
    assert exit_label(loaded) == exit_label(bbt3)


def _swap_entrance_label(doc):
    doc["labels"][0], doc["labels"][1] = doc["labels"][1], doc["labels"][0]


@pytest.mark.parametrize("breakage, message", [
    (lambda d: d.pop("n"), "tree field 'n' must be an integer >= 1"),
    (lambda d: d.update(n="2"), "tree field 'n' must be an integer >= 1"),
    (lambda d: d.update(label_bits=True), "tree field 'label_bits' must be an integer in 1..63"),
    (lambda d: d.pop("weld_cycle"), "tree field 'weld_cycle' must be a list of vertices in 0..13"),
    (lambda d: d["weld_cycle"].__setitem__(0, 14),
     "tree field 'weld_cycle' must be a list of vertices in 0..13"),
    (lambda d: d["edge_colors"].__setitem__(0, [0, 1]),
     "tree field 'edge_colors' must be a list of [u, w, color] integer triples"),
    (lambda d: d["labels"].pop(), "tree field 'labels' must be a list of 14 hex strings"),
    (lambda d: d["labels"].__setitem__(3, "zz"),
     "tree field 'labels' must be a list of 14 hex strings"),
    (lambda d: d["labels"].__setitem__(3, d["labels"][4]), "tree field 'labels' repeats a label"),
    (lambda d: d["labels"].__setitem__(3, "1f"), "tree field 'labels' holds a label outside"),
    (lambda d: d["labels"].__setitem__(3, "f"), "outside the 4-bit space or the INVALID label"),
    (lambda d: d["labels"].__setitem__(3, "-1"), "tree field 'labels' holds a label outside"),
    (_swap_entrance_label, "tree field 'labels' must give the entrance label 0"),
    (lambda d: d["edge_colors"].pop(), "loaded coloring invalid"),
    (lambda d: d["edge_colors"].append([0, 13, 9]), "loaded coloring invalid: 21 edge colors"),
    (lambda d: d.update(format_version=1, vertex_colors=["A"] * 14),
     "unknown tree format version 1, expected 2"),
    (lambda d: d["labels"].__setitem__(3, "0x3"),
     "tree field 'labels' must hold 1-digit lowercase hex strings, as save_tree writes them"),
    (lambda d: d["labels"].__setitem__(3, " 3 "),
     "tree field 'labels' must hold 1-digit lowercase hex strings, as save_tree writes them"),
    (lambda d: d["labels"].__setitem__(3, "0_3"),
     "tree field 'labels' must hold 1-digit lowercase hex strings, as save_tree writes them"),
    (lambda d: d["labels"].__setitem__(3, "03"),
     "tree field 'labels' must hold 1-digit lowercase hex strings, as save_tree writes them"),
    (lambda d: d["labels"].__setitem__(1, "A"),
     "tree field 'labels' must hold 1-digit lowercase hex strings, as save_tree writes them"),
])
def test_load_tree_rejects_malformed_documents(breakage, message):
    doc = json.loads(tree.save_tree(tree.make_blackbox(2, 0)))
    tree.load_tree(json.dumps(doc))
    breakage(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        tree.load_tree(json.dumps(doc))


# ---------------------------------------------------------------------------
# discovery probability (small-scale; the full envelope runs in acceptance)
# ---------------------------------------------------------------------------

def test_discovery_probability_small():
    from weldlab.harness import discovery_bound, discovery_rate
    rate, stderr = discovery_rate(n=3, h=4, trials=4000, seed=11)
    assert rate <= discovery_bound(3, 4) + 3 * stderr
