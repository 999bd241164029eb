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

from tree_tools import (coloring_problems, eager_discovery_rate, edge_color, exit_label,
                        labeled_blackbox, vertex_row)


def test_structure_counts_forced_at_n1():
    ts = tree.generate_structure(1, 0)
    assert ts.vertex_count == 6
    assert (ts.neighbors[[ts.entrance, ts.exit]] >= 0).sum(axis=1).tolist() == [2, 2]
    assert len(ts.weld_cycle) == 4


def test_structure_rejects_n0():
    with pytest.raises(ValueError):
        tree.generate_structure(0, 1)


@given(st.integers(1, 5), st.integers(0, 2 ** 40))
@settings(max_examples=60, deadline=None)
def test_structure_invariants(n, seed):
    ts = tree.generate_structure(n, seed)
    assert ts.validate() == []


# weld cycles the n=2 leaves 3..6 and 10..13 do not form
@pytest.mark.parametrize("cycle, problems", [
    ([0, 10, 4, 12, 5, 11, 6, 13],
     ["vertex 0 has degree 3, expected 2", "edge 0-10 skips columns", "edge 0-13 skips columns",
      "vertex 3 has degree 1, expected 3", "edge 10-0 skips columns", "edge 13-0 skips columns",
      "weld cycle position 0 not alternating"]),
    ([3, 10, 4, 12, 3, 11, 6, 13],
     ["vertex 5 has degree 1, expected 3", "weld cycle revisits a vertex",
      "weld cycle edge 3-10 missing from adjacency"]),
    ([3, 10, 4, 12, 5, 11],
     ["vertex 6 has degree 1, expected 3", "vertex 13 has degree 1, expected 3",
      "weld cycle length 6"]),
    ([10, 4, 12, 5, 11, 6, 13, 3],
     [f"weld cycle position {i} not alternating" for i in range(8)]),
], ids=["entrance welded", "leaf revisited", "short cycle", "not alternating"])
def test_structure_validate_names_each_problem(cycle, problems):
    assert tree._welded(2, cycle).validate() == problems


def test_weld_is_single_alternating_cycle_many_seeds():
    # exhaustive cycle check per sample over 10^4 seeds
    for seed in range(10_000):
        ts = tree.generate_structure(3, seed)
        cyc = ts.weld_cycle
        assert len(cyc) == 2 * 2 ** 3 and len(set(cyc)) == len(cyc)
        for i, v in enumerate(cyc):
            assert int(ts.column[v]) == (3 if i % 2 == 0 else 4)
            assert cyc[(i + 1) % len(cyc)] in ts.neighbors[v]


def test_structure_deterministic_per_seed():
    a = tree.generate_structure(4, 123)
    b = tree.generate_structure(4, 123)
    assert a.weld_cycle == b.weld_cycle
    assert tree.generate_structure(4, 124).weld_cycle != a.weld_cycle


def test_coloring_incident_distinct_n4_100_seeds():
    for seed in range(100):
        ts = tree.generate_structure(4, seed)
        col = tree.generate_coloring(ts, seed)
        assert coloring_problems(ts, col) == []


def _repeat_a_color(table, coloring):
    # the entrance's edge 0-2 takes the color of its edge 0-1
    c1, c2 = edge_color(coloring, 0, 1), edge_color(coloring, 0, 2)
    table[[0, 2], c2] = -1
    table[0, c1], table[2, c1] = 2, 0


def _move_an_edge(table, coloring):
    # edge 0-1 becomes the absent edge 0-13, in a color free at both its ends
    table[[0, 1], edge_color(coloring, 0, 1)] = -1
    c = int(np.flatnonzero((table[0] < 0) & (table[13] < 0))[1])   # [0] is column 0
    table[0, c], table[13, c] = 13, 0


def _use_color_0(table, coloring):
    # edge 0-1 moves to column 0, which no edge may hold
    table[[0, 1], edge_color(coloring, 0, 1)] = -1
    table[0, 0], table[1, 0] = 1, 0


@pytest.mark.parametrize("breakage, problem", [
    (_repeat_a_color, "vertex 0's edges do not each have one color in 1..9"),
    (_move_an_edge, "vertex 13's edges do not each have one color in 1..9"),
    (_use_color_0, "vertex 1's edges do not each have one color in 1..9"),
], ids=["a color twice at a vertex", "an absent edge", "color 0"])
def test_coloring_problems_names_an_improper_table(breakage, problem):
    bbt = tree.make_blackbox(2, 0)
    table = bbt.coloring.by_color.copy()
    breakage(table, bbt.coloring)
    assert problem in coloring_problems(bbt.structure, tree.EdgeColoring(table))


def test_coloring_entrance_edges_distinct_n1():
    ts = tree.generate_structure(1, 3)
    col = tree.generate_coloring(ts, 3)
    e = ts.entrance
    c1, c2 = (edge_color(col, e, w) for w in ts.neighbors[e] if w >= 0)
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
    assert np.count_nonzero(b1.structure.neighbors[v] >= 0) == 2


def test_exit_label(bbt3):
    ex = exit_label(bbt3)
    assert ex != 0 and ex != bbt3.invalid
    v = bbt3.inverse[ex]
    assert int(bbt3.structure.column[v]) == 2 * bbt3.n + 1
    assert np.count_nonzero(bbt3.structure.neighbors[v] >= 0) == 2


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
    pos = tree.embed_entries(tree.read_entries(V), s, bbt2.coloring)
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
        assert coloring_problems(samp.structure, samp.coloring) == []
        for (x, c), y in V.entries.items():
            assert samp.answer(x, c) == y


def test_sample_structures_empty_entries_matches_pipeline_invariants():
    V = KnownVertices(tree.invalid_label(6))
    for s in range(10):
        samp = tree.sample_consistent(V, 3, s, mode="structures")
        assert samp.structure.validate() == []
        assert coloring_problems(samp.structure, samp.coloring) == []
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


# the bbt2 entrance (label 0) has edges of colors 1 and 5 only; 15 is INVALID
_BOTH = ("structures", "labelings")


@pytest.mark.parametrize("modes, entries, error", [
    (_BOTH, KnownVertices(14, {(0, 1): 3}),
     "ValueError: entries INVALID label is not an all-ones string"),
    (_BOTH, KnownVertices(15, {(0, 1): 3, (15, 2): 3}),
     "ValueError: INVALID cannot be a queried vertex"),
    (_BOTH, KnownVertices(15, {(0, 0): 3}), "ValueError: color 0 out of range"),
    (_BOTH, KnownVertices(15, {(0, 10): 3}), "ValueError: color 10 out of range"),
    (_BOTH, KnownVertices(15, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 4): 4}),
     "ValueError: vertex 0x0 has more than 3 distinct neighbours"),
    (_BOTH, KnownVertices(3, {(0, 1): 1, (1, 2): 2, (2, 3): 4}),
     "ValueError: entries mention more labels than the space holds"),
    (_BOTH, KnownVertices(15, {(0, 1): 1, (2, 1): 1}),
     "EmbeddingError: vertex 0x1 has two 1-neighbours"),
    (_BOTH, KnownVertices(15, {(0, 1): 1, (0, 2): 1}),
     "EmbeddingError: vertex 0x0 repeats a neighbour across colors"),
    # a form error in a later entry is reported before an earlier graph error
    (_BOTH, KnownVertices(15, {(0, 1): 1, (2, 1): 1, (3, 10): 4}),
     "ValueError: color 10 out of range"),
    (("structures",), KnownVertices(15, {(0, 1): 1, **{(1, c): 15 for c in range(1, 10)}}),
     "EmbeddingError: vertex 0x1 has contradictory degree evidence"),
    (("labelings",), KnownVertices(15, {(0, 2): 1}),
     "EmbeddingError: structure has no 2-edge at placed vertex for 0x0"),
    (("labelings",), KnownVertices(15, {(0, 1): 15}),
     "EmbeddingError: recorded INVALID at (0x0, 1) but edge exists"),
    # a 3-bit INVALID leaves 7 labels for bbt2's 14 vertices
    (_BOTH, KnownVertices(7, {(0, 1): 3}), "EmbeddingError: label space exhausted"),
    (("structures",), KnownVertices(15, {(5, 1): 6}),
     "EmbeddingError: entries are not connected to the entrance"),
    # a triangle: no column assignment puts each edge between adjacent columns
    (("structures",), KnownVertices(15, {(0, 1): 1, (0, 2): 2, (1, 3): 2}),
     "EmbeddingError: entries cannot be embedded into any welded tree"),
    # a 4-cycle 0x3-0x4-0x5-0x6 whose 0x3 and 0x5 hang from the entrance's
    # children: it fits the slots only as weld edges between columns 2 and 3,
    # where it closes a cycle through 4 of the 8 leaves
    (("structures",), KnownVertices(15, {(0, 1): 1, (0, 2): 2, (1, 3): 3, (2, 4): 5, (3, 5): 4,
                                         (4, 6): 5, (5, 7): 6, (6, 8): 3}),
     "EmbeddingError: entries cannot be embedded into any welded tree"),
    (("structures",), KnownVertices(15, {(0, 1): 5, (5, 1): 15}),
     "EmbeddingError: pinned edge colors are inconsistent"),
    # 0xa and 0x3 are the entrance's children, and their 3-neighbours differ
    (("labelings",), KnownVertices(15, {(0, 1): 10, (0, 5): 3, (10, 3): 3}),
     "EmbeddingError: label 0xa placed twice inconsistently"),
    # two paths reach one left leaf: 0-0xa-0x5 down the left tree, and
    # 0-0x3-0x4 then across the weld through 0xe, whose end is labeled 0x2
    (("labelings",), KnownVertices(15, {(0, 1): 10, (10, 4): 5, (0, 5): 3, (3, 3): 4,
                                        (4, 2): 14, (14, 1): 2}),
     "EmbeddingError: two labels map to the same vertex"),
])
def test_sample_rejection_messages_pinned(bbt2, modes, entries, error):
    fixed = dict(structure=bbt2.structure, coloring=bbt2.coloring)
    for mode in modes:
        with pytest.raises(ValueError) as info:
            tree.sample_consistent(entries, 2, 0, mode=mode,
                                   **(fixed if mode == "labelings" else {}))
        assert f"{type(info.value).__name__}: {info.value}" == error


@pytest.mark.parametrize("entries, error", [
    (KnownVertices(15, {(0, 10): 3}), "color 10 out of range"),
    (KnownVertices(15, {(0, 1): 3}), "unknown mode 'walk'"),
])
def test_sample_reads_entries_before_its_mode(entries, error):
    # a form error in the dictionary is reported before a bad mode argument
    with pytest.raises(ValueError, match=re.escape(error)):
        tree.sample_consistent(entries, 2, 0, mode="walk")
    if "mode" not in error:
        with pytest.raises(ValueError, match=re.escape(error)):
            tree.sample_consistent(entries, 2, 0, mode="labelings")


def test_sample_labelings_mode_needs_the_fixed_tree():
    with pytest.raises(ValueError, match="labelings mode requires the fixed structure and coloring"):
        tree.sample_consistent(KnownVertices(15, {(0, 1): 3}), 2, 0, mode="labelings")


@pytest.mark.parametrize("s", [23, 37])
def test_sample_structures_mode_completes_walk_dictionaries(s):
    # full rows along a walk of a real tree: a column assignment whose
    # pinned weld edges close a cycle through fewer than all 16 leaves is
    # searched past, so every sampler seed completes the dictionary
    bbt = tree.make_blackbox(3, 1003)
    V = _entries_from_walk(bbt, s % 8, seed=s)
    for seed in range(20):
        samp = tree.sample_consistent(V, 3, seed, mode="structures")
        assert all(samp.answer(x, c) == y for (x, c), y in V.entries.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_structures_mode_on_fully_revealed_trees(n):
    # every row known pins the whole weld cycle, which the sampler rebuilds;
    # each draw then answers every query as the tree does
    bbt = labeled_blackbox(1, 5, 3) if n == 1 else tree.make_blackbox(n, 5)
    V = KnownVertices(bbt.invalid)
    for lab in bbt.labels.tolist():
        V.set_vertex(lab, vertex_row(bbt, lab))
    for s in range(20):
        samp = tree.sample_consistent(V, n, s, mode="structures")
        assert all(samp.answer(x, c) == y for (x, c), y in V.entries.items())


def test_edge_coloring_fails_where_forbids_leave_no_color():
    structure = tree.generate_structure(2, 0)
    forbid = {v: 0x3FE for v in range(structure.vertex_count)}
    with pytest.raises(ValueError, match="no proper edge coloring under the given constraints"):
        tree._greedy_edge_coloring(structure, np.random.default_rng(0), forbid=forbid)


def test_sampler_refuses_a_completed_structure_that_fails_validate(monkeypatch):
    # a weld completion that starts its cycle on a right leaf: the same
    # edges, but no position alternates from a left leaf as validate requires
    complete_weld = tree._complete_weld
    monkeypatch.setattr(tree, "_complete_weld",
                        lambda *args: (lambda cyc: cyc[1:] + cyc[:1])(complete_weld(*args)))
    with pytest.raises(tree.EmbeddingError, match=re.escape(
            "completed structure invalid: weld cycle position 0 not alternating; "
            "weld cycle position 1 not alternating; weld cycle position 2 not alternating")):
        tree.sample_consistent(KnownVertices(15), 2, 0, mode="structures")


def test_replay_names_an_entry_the_sampled_tree_disagrees_with(bbt2):
    # the entrance's 1-edge exists, so an INVALID entry there cannot replay
    got = bbt2.answer(0, 1)
    entries = KnownVertices(15, {(0, 5): bbt2.answer(0, 5), (0, 1): 15})
    with pytest.raises(tree.EmbeddingError, match=re.escape(
            f"sampled tree disagrees with entries at (0x0, 1): {got:#x} != 0xf")):
        tree._replay_entries(entries, bbt2)
    tree._replay_entries(KnownVertices(15, {(0, 1): got}), bbt2)


@pytest.mark.parametrize("mode", _BOTH)
def test_sample_rejects_an_entry_that_answers_itself(bbt2, mode):
    # a loop: no welded tree has one, whatever the seed
    fixed = dict(structure=bbt2.structure, coloring=bbt2.coloring) if mode == "labelings" else {}
    V = KnownVertices(15, {(0, 1): 5, (5, 2): 5})
    for s in range(5):
        with pytest.raises(tree.EmbeddingError, match=re.escape("label 0x5 answers itself at color 2")):
            tree.sample_consistent(V, 2, s, mode=mode, **fixed)


# ---------------------------------------------------------------------------
# the sampler's random stream: every draw is pinned, so a rewrite that
# reorders, adds or drops a draw changes these digests
# ---------------------------------------------------------------------------

def _raw_tree(structure, coloring, labels=None) -> list:
    """The tree's arrays as JSON lists, on its own vertex layout: each
    vertex's neighbours, the weld cycle, the [u, w, color] triples and the
    labels; json refuses numpy scalars."""
    return [[[w for w in row if w >= 0] for row in structure.neighbors.tolist()],
            structure.weld_cycle,
            sorted([u, w, c] for u, row in enumerate(coloring.by_color.tolist())
                   for c, w in enumerate(row) if u < w),
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


# sha256 prefixes of the arrays that hold a tree, recorded while adjacency
# tuples and an edge dict still stood beside them: building the arrays
# directly keeps every row, slot and color in place
def _array_digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part.tobytes())
    return digest.hexdigest()[:16]


def test_structure_arrays_pinned():
    parts = []
    for n in range(1, 11):
        for seed in (0, 1, 2):
            structure = tree.generate_structure(n, seed)
            parts += [structure.neighbors, structure.column]
    assert _array_digest(parts) == "d41f7a23c08997ae"


def test_blackbox_arrays_pinned():
    # make_blackbox's whole stream: structure, coloring and labels together,
    # recorded while the tree file format still pinned the same tree
    bbt = tree.make_blackbox(3, 5)
    assert _digest(_raw_tree(bbt.structure, bbt.coloring, bbt.labels)) == "748085c40ab19854"


def test_coloring_tables_pinned():
    parts = []
    for n in range(1, 9):
        for seed in (0, 1):
            structure = tree.generate_structure(n, seed)
            parts.append(tree.generate_coloring(structure, seed).by_color)
    assert _array_digest(parts) == "e62932c38f5855f2"


@pytest.mark.parametrize("mode, pin", [("structures", "53c107de60336895"),
                                       ("labelings", "19ce65e6e9d04e29")])
def test_sampled_arrays_pinned(mode, pin):
    bbt = tree.make_blackbox(3, 1003)
    fixed = dict(structure=bbt.structure, coloring=bbt.coloring) if mode == "labelings" else {}
    parts = []
    for s in range(20):
        try:
            samp = tree.sample_consistent(_pin_entries(bbt, s), 3, s, mode=mode, **fixed)
        except tree.EmbeddingError as e:
            parts.append(str(e))
            continue
        parts += [samp.structure.neighbors, samp.structure.column, samp.coloring.by_color]
    assert _array_digest(parts) == pin


# ---------------------------------------------------------------------------
# discovery probability (small-scale; the full envelope runs in acceptance)
# ---------------------------------------------------------------------------

def test_discovery_probability_small():
    from weldlab.harness import discovery_bound, discovery_rate
    rate, stderr = discovery_rate(n=3, h=4, trials=4000, seed=11)
    assert rate <= discovery_bound(3, 4) + 3 * stderr
