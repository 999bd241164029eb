"""Random welded black-box trees and their query oracle.

A height-``n`` welded tree joins two balanced binary trees of height ``n``
(2^(n+1) - 1 vertices each) by a random cycle of weld edges alternating
between the leaves of the left tree and the leaves of the right tree, so the
graph has 2^(n+2) - 2 vertices in columns 0 .. 2n+1.  The entrance (column 0)
and exit (column 2n+1) are the only degree-2 vertices.

Vertices carry distinct labels from {0,1}^(2n) by default; the entrance is
labeled all-zeros, and the all-ones string INVALID labels nothing.  The
oracle answers ``query(x, c)`` with the label of the c-colored neighbour of
x, or INVALID when there is none.  Edges carry colors 1..9 and every vertex
sees pairwise distinct colors on its incident edges, so "c-neighbour" is
single valued.

Label-space note: 2n-bit labels require 2^(2n) - 2 >= vertex_count - 1,
which fails only at n=1 (6 vertices, 4 strings).  ``checked_label_bits``
rejects that case for ``generate_labels``, the guessing experiment and
``e2e``; blind walkers read no label and walk the n=1 tree as any other.
A ``BlackBoxTree`` itself takes labels of any width; the consistent-tree
sampler reads the width from its entries' INVALID label.

A tree is held once, in arrays: the structure's (V, 3) ``neighbors`` and
the coloring's (V, 10) vertex-by-color table ``by_color``.
``BlackBoxTree.answer_many`` answers arrays from one lookup kept per tree:
its labels in ascending order, found by ``searchsorted``, and a table of
each labeled vertex's answer by color.  Blind walks and guessing trials
draw no labels and no coloring at all: they walk the structure's own
neighbour array in vertex space (see ``walk``).

The consistent-tree sampler's structures mode decides weld feasibility once,
in its column assignment: the search fits every recorded edge between
adjacent columns within each vertex's slots, and backtracks from an
assignment whose pinned weld edges close a cycle through fewer than all
leaves.  Tree and weld completion then cannot fail, and the completed
structure's ``validate`` and the replay of every entry stay as checks.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .known import KnownVertices
from .rng import make_rng

def invalid_label(label_bits: int) -> int:
    return (1 << label_bits) - 1


def column_size(n: int, j: int) -> int:
    return 1 << j if j <= n else 1 << (2 * n + 1 - j)


def _direction_slots(n: int, j: int) -> tuple[int, int]:
    """(edges toward column j-1, edges toward column j+1) for a column-j vertex."""
    if j == 0:
        return 0, 2
    if j <= n:
        return 1, 2
    if j <= 2 * n:
        return 2, 1
    return 2, 0


@dataclass
class TreeStructure:
    """Label-free welded-tree graph.  Immutable after construction.

    ``neighbors`` is the graph: a read-only (V, 3) array whose row v lists
    v's neighbours, padded with -1 where v has two.  On every layout a
    vertex lies in the exit's tree exactly when its column exceeds n.
    """

    n: int
    vertex_count: int
    column: np.ndarray          # vertex -> column in [0, 2n+1]
    neighbors: np.ndarray       # vertex -> its neighbours, padded with -1
    weld_cycle: list[int]       # alternating L-leaf, R-leaf, ... (length 2*2^n)
    entrance: int
    exit: int

    def __post_init__(self):
        self.column.flags.writeable = self.neighbors.flags.writeable = False

    def validate(self) -> list[str]:
        """The graph's problems; the vertex count and the column array come
        from the per-``n`` layouts, ``_tree_pair`` and ``_column_layout``."""
        problems: list[str] = []
        n = self.n
        column, rows = self.column.tolist(), self.neighbors.tolist()
        ends = (self.entrance, self.exit)
        for v in range(self.vertex_count):
            row, cv = rows[v], column[v]
            want = 2 if v in ends else 3
            degree = 3 - row.count(-1)
            if degree != want:
                problems.append(f"vertex {v} has degree {degree}, expected {want}")
            for w in row:
                if w >= 0 and column[w] - cv not in (1, -1):
                    problems.append(f"edge {v}-{w} skips columns")
        cyc = self.weld_cycle
        if len(cyc) != 2 * (1 << n):
            problems.append(f"weld cycle length {len(cyc)}")
        if len(set(cyc)) != len(cyc):
            problems.append("weld cycle revisits a vertex")
        for i, v in enumerate(cyc):
            want_col = n if i % 2 == 0 else n + 1
            if column[v] != want_col:
                problems.append(f"weld cycle position {i} not alternating")
            w = cyc[(i + 1) % len(cyc)]
            if w not in rows[v]:
                problems.append(f"weld cycle edge {v}-{w} missing from adjacency")
        return problems


@functools.lru_cache(maxsize=None)
def _tree_pair(n: int):
    """``_welded``'s two trees without weld edges, built once per ``n``:
    read-only neighbour and column arrays.  A row lists the vertex's parent,
    then its children; the root has no parent, and a leaf's last two slots
    stay -1 for its weld edges."""
    half = (1 << (n + 1)) - 1                   # vertices per tree
    u = np.arange(half)
    local = np.stack([(u - 1) // 2, 2 * u + 1, 2 * u + 2], axis=1)
    local[local >= half] = -1                   # a leaf has no children
    local[0] = [1, 2, -1]                       # nor the root a parent
    neighbors = np.concatenate([local, np.where(local >= 0, local + half, -1)])
    depth = np.repeat(np.arange(n + 1), 1 << np.arange(n + 1))
    column = np.concatenate([depth, 2 * n + 1 - depth])
    neighbors.flags.writeable = column.flags.writeable = False
    return neighbors, column


def _welded(n: int, cycle: list[int]) -> TreeStructure:
    """The two height-``n`` trees in the canonical layout, joined by ``cycle``.

    Each tree is numbered in heap order (local vertex u has children 2u+1
    and 2u+2): the left tree from the entrance, then the right tree from the
    exit.  A row lists tree edges top down, then weld edges in cycle order:
    the leaf at cycle position p > 0 takes cycle[p-1], then cycle[p+1], and
    the leaf at position 0 the same two the other way round.
    """
    tree_neighbors, column = _tree_pair(n)
    neighbors = tree_neighbors.copy()
    cyc = np.array(cycle, dtype=np.int64)
    at = np.arange(len(cyc))                    # cycle positions
    neighbors[cyc, 1], neighbors[cyc, 2] = cyc[at - 1], cyc[(at + 1) % len(cyc)]
    neighbors[cyc[:1], 1:] = neighbors[cyc[:1], :0:-1]
    return TreeStructure(n=n, vertex_count=len(column), column=column,
                         neighbors=neighbors, weld_cycle=list(cycle),
                         entrance=0, exit=len(column) // 2)


def generate_structure(n: int, seed: int) -> TreeStructure:
    """A uniformly random welding under ``seed``; deterministic per seed."""
    if n < 1:
        raise ValueError("tree height n must be >= 1")
    rng = make_rng(seed, "structure")
    l_leaf = (1 << n) - 1                       # the first leaf of each tree
    r_leaf = (1 << (n + 1)) - 1 + l_leaf
    a = rng.permutation(1 << n) + l_leaf
    b = rng.permutation(1 << n) + r_leaf
    return _welded(n, [int(v) for pair in zip(a, b) for v in pair])


# ---------------------------------------------------------------------------
# Edge coloring
# ---------------------------------------------------------------------------

@dataclass
class EdgeColoring:
    """Explicit proper edge coloring with the nine colors 1..9.

    ``by_color`` is the coloring: a read-only (V, 10) table whose row v holds
    v's c-neighbour in column c, and -1 where v has no edge of color c
    (column 0 throughout).  Every vertex sees pairwise distinct colors on its
    incident edges, so the oracle's "c-neighbour" map is single valued.  Edge
    colors are stored explicitly rather than induced from a coloring of the
    vertices by pairs, because the induced scheme has no solution on random
    welded trees at desk scale (provably none at n=2..4; the leaf cliques
    force rigid mod-3 chains around the weld cycle).
    """

    by_color: np.ndarray

    def __post_init__(self):
        self.by_color.flags.writeable = False


# the colors 1..9 absent from a 10-bit mask of colors, in ascending order
_FREE_COLORS = [tuple(c for c in range(1, 10) if not mask >> c & 1) for mask in range(1 << 10)]


def _greedy_edge_coloring(structure: TreeStructure, rng,
                          pinned: dict[tuple[int, int], int] | None = None,
                          forbid: dict[int, int] | None = None,
                          ) -> EdgeColoring:
    """Random proper edge coloring; backtracking only matters under forbids.

    With nine colors and degree at most three, an unconstrained edge sees at
    most four blocked colors, so plain greedy never gets stuck; recorded
    INVALID answers can forbid colors at a vertex (``forbid[v]``, a bit mask;
    bits outside 1..9 block nothing) and then small backtracking takes over.
    ``blocked[v]`` masks the colors v may not take: forbids and colored edges.
    """
    pinned = pinned or {}
    blocked = [0] * structure.vertex_count
    for v, mask in (forbid or {}).items():
        blocked[v] = mask & 0x3FE
    for (u, w), c in pinned.items():
        if (blocked[u] | blocked[w]) >> c & 1:
            raise ValueError("pinned edge colors are inconsistent")
        blocked[u] |= 1 << c
        blocked[w] |= 1 << c
    todo = [(u, w) for u, row in enumerate(structure.neighbors.tolist())
            for w in row if u < w and (u, w) not in pinned]
    todo.sort()
    if len(todo) > 1:
        rng.shuffle(todo)

    # iterative backtracking; None marks a node not yet expanded under the
    # current prefix, [] an exhausted one (reset when leaving backwards)
    pending: list[list[int] | None] = [None] * len(todo)
    colors = [0] * len(todo)
    steps = 0
    i = 0
    while i < len(todo):
        steps += 1
        if steps > 200_000:
            raise ValueError("edge coloring search budget exhausted")
        u, w = todo[i]
        options = pending[i]
        if options is None:
            options = pending[i] = list(_FREE_COLORS[blocked[u] | blocked[w]])
            if len(options) > 1:
                rng.shuffle(options)
        if options:
            c = colors[i] = options.pop()
            blocked[u] |= 1 << c
            blocked[w] |= 1 << c
            i += 1
        else:
            pending[i] = None
            if i == 0:
                raise ValueError("no proper edge coloring under the given constraints")
            i -= 1
            pu, pw = todo[i]
            blocked[pu] &= ~(1 << colors[i])
            blocked[pw] &= ~(1 << colors[i])
    ends = np.array([*pinned, *todo], dtype=np.int64).reshape(-1, 2)
    colors = np.array([*pinned.values(), *colors], dtype=np.int64)
    table = np.full((structure.vertex_count, 10), -1, dtype=np.int64)
    table[ends[:, 0], colors] = ends[:, 1]
    table[ends[:, 1], colors] = ends[:, 0]
    return EdgeColoring(table)


def generate_coloring(structure: TreeStructure, seed: int) -> EdgeColoring:
    """A valid coloring, randomized over valid colorings under ``seed``."""
    rng = make_rng(seed, "coloring")
    # the draw of a vertex palette that no longer exists: without it the
    # stream, and with it every seeded coloring, would shift
    rng.integers(0, 3, size=structure.vertex_count)
    return _greedy_edge_coloring(structure, rng)


# ---------------------------------------------------------------------------
# Black-box trees
# ---------------------------------------------------------------------------

class OracleHandle:
    """Per-worker query counter around a black-box tree.

    ``query`` counts every invocation exactly once, including INVALID
    answers.  Workers use one handle each and merge counts by summation.
    """

    __slots__ = ("bbt", "count")

    def __init__(self, bbt: "BlackBoxTree"):
        self.bbt = bbt
        self.count = 0

    def query(self, x: int, c: int) -> int:
        self.count += 1
        return self.bbt.answer(x, c)


@dataclass
class BlackBoxTree:
    """A welded tree plus labeling and coloring: the oracle under test."""

    structure: TreeStructure
    coloring: EdgeColoring
    labels: np.ndarray              # vertex -> label
    label_bits: int
    inverse: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.inverse = dict(zip(self.labels.tolist(), range(len(self.labels))))

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def invalid(self) -> int:
        return invalid_label(self.label_bits)

    def answer(self, x: int, c: int) -> int:
        """The raw oracle function; does not touch any counter.

        Only executors (which pay in quantum query gates, not classical
        calls) and test instrumentation may use this directly.
        """
        inv = self.invalid
        v = self.inverse.get(x)
        if v is None or x == inv or not 1 <= c <= 9:
            return inv
        w = self.coloring.by_color[v, c]
        return inv if w < 0 else int(self.labels[w])

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """(the labels in ascending order, each one's answers to colors 0..10
        in its row, and a last row of INVALID for strings that label none)."""
        order = np.argsort(self.labels)
        w = np.full((order.size + 1, 11), -1, dtype=np.int64)
        w[:-1, :10] = self.coloring.by_color[order]
        padded = np.append(self.labels, self.invalid)
        return self.labels[order], padded[w]

    def answer_many(self, xs, cs) -> np.ndarray:
        """``answer`` over arrays of labels and colors; uncounted."""
        xs = np.asarray(xs, dtype=np.int64)
        sorted_labels, answers = self._lookup
        i = np.minimum(np.searchsorted(sorted_labels, xs), sorted_labels.size - 1)
        i[sorted_labels[i] != xs] = sorted_labels.size
        # as unsigned, a negative color clamps to 10 with the too-large ones
        cs = np.minimum(np.asarray(cs, dtype=np.int64).view(np.uint64), 10)
        return answers[i, cs]

    def handle(self) -> OracleHandle:
        return OracleHandle(self)


def _sample_distinct(rng, low: int, high: int, k: int) -> np.ndarray:
    """k distinct ints uniform over [low, high); callers keep k <= high - low."""
    return low + rng.choice(high - low, size=k, replace=False)


def checked_label_bits(structure: TreeStructure) -> int:
    """2n, if a space of 2n-bit labels can label every vertex."""
    label_bits = 2 * structure.n
    V = structure.vertex_count
    if (1 << label_bits) - 2 < V - 1:
        raise ValueError(
            f"label space 2^{label_bits} cannot injectively label {V} vertices "
            f"(entrance pinned to 0, all-ones reserved)")
    return label_bits


def generate_labels(structure: TreeStructure, coloring: EdgeColoring,
                    seed: int) -> BlackBoxTree:
    """Uniform injective labeling, entrance pinned to all-zeros.

    Labels are drawn from {0,1}^(2n) minus the all-ones INVALID string.
    Raises when the space cannot hold vertex_count distinct labels (n=1).
    """
    label_bits = checked_label_bits(structure)
    drawn = _sample_distinct(make_rng(seed, "labels"), 1, (1 << label_bits) - 1,
                             structure.vertex_count - 1)
    labels = np.insert(drawn, structure.entrance, 0)
    return BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                        label_bits=label_bits)


def make_blackbox(n: int, seed: int) -> BlackBoxTree:
    """Full pipeline with derived subseeds: structure, coloring, labels."""
    structure = generate_structure(n, seed)
    coloring = generate_coloring(structure, seed)
    return generate_labels(structure, coloring, seed)


# ---------------------------------------------------------------------------
# Sampling consistent black-box trees
# ---------------------------------------------------------------------------

class EmbeddingError(ValueError):
    """Entries cannot be embedded into the requested structure."""


class EntryGraph(NamedTuple):
    """What a recorded-answer dictionary says about its tree, read once."""

    label_bits: int
    edges: dict[int, dict[int, int]]    # label -> {color: neighbour label}, symmetrized
    invalid: set[tuple[int, int]]       # the (label, color) keys answered INVALID
    labels: set[int]                    # every label the entries name but INVALID


def read_entries(entries: KnownVertices) -> EntryGraph:
    """One pass over ``entries``: the label width its INVALID label names and
    the graph its answers record.  Form errors (``ValueError``) come before
    graph errors (``EmbeddingError``), whichever entry holds them."""
    label_bits = entries.invalid.bit_length()
    inv = invalid_label(label_bits)
    if entries.invalid != inv:
        raise ValueError("entries INVALID label is not an all-ones string")
    edges: dict[int, dict[int, int]] = {}
    answers: dict[int, set[int]] = {}
    invalid: set[tuple[int, int]] = set()
    clash = loop = ""                   # graph errors, raised after the form checks
    for (x, c), y in entries.entries.items():
        if x == inv:
            raise ValueError("INVALID cannot be a queried vertex")
        if not (1 <= c <= 9):
            raise ValueError(f"color {c} out of range")
        if y == inv:
            invalid.add((x, c))
            continue
        answers.setdefault(x, set()).add(y)
        if y == x:
            loop = loop or f"label {x:#x} answers itself at color {c}"
        for a, b in ((x, y), (y, x)):
            if edges.setdefault(a, {}).setdefault(c, b) != b:
                clash = clash or f"vertex {a:#x} has two {c}-neighbours"
    for x, ys in answers.items():
        if len(ys) > 3:
            raise ValueError(f"vertex {x:#x} has more than 3 distinct neighbours")
    labels = set(edges).union(x for x, _c in invalid)
    if len(labels | {0}) > (1 << label_bits) - 1:
        raise ValueError("entries mention more labels than the space holds")
    if clash:
        raise EmbeddingError(clash)
    for a, row in edges.items():
        if len(set(row.values())) != len(row):
            raise EmbeddingError(f"vertex {a:#x} repeats a neighbour across colors")
    if loop:
        raise EmbeddingError(loop)
    return EntryGraph(label_bits, edges, invalid, labels)


def embed_entries(graph: EntryGraph, bbt_structure: TreeStructure,
                  coloring: EdgeColoring) -> dict[int, int]:
    """Place entry labels onto a fixed (structure, coloring); forced and unique.

    Starting at the entrance, every recorded edge follows the structure's
    c-edge deterministically (incident colors are distinct).  Raises
    EmbeddingError when an edge is missing, an INVALID answer contradicts an
    existing edge, the placement collides, or a label is unreachable from the
    entrance.
    """
    edges, nbc = graph.edges, coloring.by_color
    pos: dict[int, int] = {0: bbt_structure.entrance}
    stack = [0]
    while stack:
        x = stack.pop()
        for c, y in edges.get(x, {}).items():
            w = int(nbc[pos[x]][c])
            if w < 0:
                raise EmbeddingError(f"structure has no {c}-edge at placed vertex for {x:#x}")
            if y in pos:
                if pos[y] != w:
                    raise EmbeddingError(f"label {y:#x} placed twice inconsistently")
            else:
                pos[y] = w
                stack.append(y)
    if graph.labels - pos.keys():
        raise EmbeddingError("entries are not an entrance-rooted subtree")
    if len(set(pos.values())) != len(pos):
        raise EmbeddingError("two labels map to the same vertex")
    for (x, c) in graph.invalid:
        if int(nbc[pos[x]][c]) >= 0:
            raise EmbeddingError(f"recorded INVALID at ({x:#x}, {c}) but edge exists")
    return pos


def _fill_labels(structure: TreeStructure, pinned: dict[int, int], rng,
                 label_bits: int) -> np.ndarray:
    """The entrance labeled 0, ``pinned`` (label -> vertex) placed, the rest
    labeled uniformly without replacement.  One draw of free + used labels
    always suffices: 0 is never drawn, so at most used - 1 drawn are taken."""
    space = 1 << label_bits
    labels = [-1] * structure.vertex_count
    labels[structure.entrance] = 0
    for lab, v in pinned.items():
        labels[v] = lab
    used = {lab for lab in labels if lab >= 0}
    free = [v for v, lab in enumerate(labels) if lab < 0]
    if space - 1 - len(used) < len(free):
        raise EmbeddingError("label space exhausted")
    if free:
        drawn = _sample_distinct(rng, 1, space - 1, min(space - 2, len(free) + len(used)))
        for v, lab in zip(free, [lab for lab in drawn.tolist() if lab not in used]):
            labels[v] = lab
    return np.array(labels, dtype=np.int64)


def sample_consistent(entries: KnownVertices, n: int, seed: int, *,
                      mode: str = "structures",
                      structure: TreeStructure | None = None,
                      coloring: EdgeColoring | None = None) -> BlackBoxTree:
    """A black-box tree agreeing with ``entries`` on labels, colors, adjacency.

    mode="labelings": the welding and coloring are fixed (pass them in) and
    only the labeling varies; sampling is exactly uniform over consistent
    labelings (the embedding is forced, free labels are uniform without
    replacement).

    mode="structures": welding, coloring, and labeling all vary.  The entry
    subtree is embedded into a fresh structure, the weld cycle completed at
    random subject to recorded adjacencies, the coloring solved with entry
    colors pinned, and remaining labels drawn uniformly.  Approximately
    uniform over consistent trees; the approximation is documented rather
    than hidden.

    ``read_entries`` reads the dictionary once, before placement; every
    sampled tree is then checked by replaying each entry against it.
    """
    graph = read_entries(entries)
    rng = make_rng(seed, "sample_consistent")
    if mode == "labelings":
        if structure is None or coloring is None:
            raise ValueError("labelings mode requires the fixed structure and coloring")
        pos = embed_entries(graph, structure, coloring)
        labels = _fill_labels(structure, {lab: v for lab, v in pos.items() if lab != 0},
                              rng, graph.label_bits)
        bbt = BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                           label_bits=graph.label_bits)
    elif mode == "structures":
        bbt = _sample_structure_mode(graph, n, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _replay_entries(entries, bbt)
    return bbt


def _replay_entries(entries: KnownVertices, bbt: BlackBoxTree) -> None:
    for (x, c), y in entries.entries.items():
        got = bbt.answer(x, c)
        if got != y:
            raise EmbeddingError(
                f"sampled tree disagrees with entries at ({x:#x}, {c}): "
                f"{got:#x} != {y:#x}")


def _sample_structure_mode(graph: EntryGraph, n: int, rng) -> BlackBoxTree:
    edges = graph.edges
    labels_in_play = sorted(graph.labels | {0})
    invalid_counts: dict[int, int] = {}
    for (x, _c) in graph.invalid:
        invalid_counts[x] = invalid_counts.get(x, 0) + 1
    degree_bounds = {}
    for lab in labels_in_play:
        lo = len(edges.get(lab, {}))
        hi = min(3, 9 - invalid_counts.get(lab, 0))
        if lo > hi:
            raise EmbeddingError(f"vertex {lab:#x} has contradictory degree evidence")
        degree_bounds[lab] = (lo, hi)
    cols = _assign_columns(edges, labels_in_play, n, rng, degree_bounds)
    structure, vid = _complete_structure(edges, cols, n, rng)
    coloring = _complete_coloring(structure, graph, vid, rng)
    labels = _fill_labels(structure, {lab: v for lab, v in vid.items() if lab != 0},
                          rng, graph.label_bits)
    return BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                        label_bits=graph.label_bits)


def _assign_columns(edges: dict[int, dict[int, int]], labels_in_play: list[int],
                    n: int, rng, degree_bounds: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Backtracking column assignment for the entry graph (labels with 0 among them).

    ``degree_bounds[label] = (lo, hi)`` from the recorded answers: valid
    answers force at least lo edges, INVALID answers cap the degree at hi
    (a full row with two valid answers can only sit at the entrance or exit
    column).  The search returns the first assignment that fits every
    vertex's slots and closes no weld cycle through fewer than all leaves,
    so ``_complete_structure`` completes every assignment it returns.
    """
    order: list[int] = []
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop(0)
        order.append(x)
        for y in sorted(edges.get(x, {}).values()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if set(labels_in_play) - seen:
        raise EmbeddingError("entries are not connected to the entrance")

    cols: dict[int, int] = {}
    counts = [0] * (2 * n + 2)

    def feasible(x: int, j: int) -> bool:
        if not 0 <= j <= 2 * n + 1 or counts[j] >= column_size(n, j):
            return False
        dl, dr = _direction_slots(n, j)
        lo, hi = degree_bounds[x]
        if not lo <= dl + dr <= hi:
            return False
        left = right = 0
        for y in edges.get(x, {}).values():
            cy = cols.get(y)
            if cy is None:
                continue
            if abs(cy - j) != 1:
                return False
            left, right = left + (cy < j), right + (cy > j)
            # the placed neighbour must also keep its slot budget
            around = [j if z == x else cols.get(z) for z in edges.get(y, {}).values()]
            ydl, ydr = _direction_slots(n, cy)
            if around.count(cy - 1) > ydl or around.count(cy + 1) > ydr:
                return False
        return left <= dl and right <= dr

    def rec(idx: int) -> bool:
        if idx == len(order):
            return not _closes_short_weld_cycle(edges, cols, n)
        x = order[idx]
        # BFS order places a neighbour of every label but the entrance first
        cands = [0] if x == 0 else sorted(
            {cols[y] + d for y in edges[x].values() if y in cols for d in (-1, 1)})
        if x != 0 and rng.integers(0, 2):
            cands.reverse()
        for j in cands:
            if feasible(x, j):
                cols[x] = j
                counts[j] += 1
                if rec(idx + 1):
                    return True
                del cols[x]
                counts[j] -= 1
        return False

    if not rec(0):
        raise EmbeddingError("entries cannot be embedded into any welded tree")
    return cols


def _closes_short_weld_cycle(edges: dict[int, dict[int, int]], cols: dict[int, int],
                             n: int) -> bool:
    """Whether the weld edges between the labels ``cols`` places at columns
    n and n+1 close a cycle through fewer than the 2^(n+1) leaves; slot
    feasibility leaves each leaf at most two of them."""
    weld = {x: [y for y in edges[x].values() if cols[y] == 2 * n + 1 - j]
            for x, j in cols.items() if j in (n, n + 1)}
    seen: set[int] = set()
    for x in weld:
        if x in seen:
            continue
        seen.add(x)
        part = [x]
        for v in part:
            part += [y for y in weld[v] if y not in seen]
            seen.update(weld[v])
        if len(part) < 2 << n and all(len(weld[v]) == 2 for v in part):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _column_layout(n: int):
    """The sampler's column-by-column vertex numbering: ids per column, column and
    parent column per vertex, the column array its structures share, and the
    (children, parents, child slots per parent) of each column pair tree completion fills."""
    by_col, column = [], []
    for j in range(2 * n + 2):
        by_col.append(range(len(column), len(column) + column_size(n, j)))
        column += [j] * column_size(n, j)
    up = tuple(j - 1 if j <= n else j + 1 for j in column)
    column_arr = np.array(column, dtype=np.int64)
    pairs = []
    for j_child, j_parent in [(j + 1, j) for j in range(n)] + \
                             [(j - 1, j) for j in range(2 * n + 1, n + 1, -1)]:
        dl, dr = _direction_slots(n, j_parent)
        pairs.append((by_col[j_child], by_col[j_parent], dr if j_child > j_parent else dl))
    return tuple(by_col), tuple(column), up, column_arr, tuple(pairs)


def _complete_structure(edges: dict[int, dict[int, int]], cols: dict[int, int],
                        n: int, rng) -> tuple[TreeStructure, dict[int, int]]:
    by_col, column, up, column_arr, pairs = _column_layout(n)
    V = len(column)
    # each column's pinned labels, in label order, take its first vertex ids
    vid: dict[int, int] = {}
    taken = [0] * len(by_col)
    for x in sorted(cols):
        j = cols[x]
        vid[x] = by_col[j][taken[j]]
        taken[j] += 1

    adj: list[set[int]] = [set() for _ in range(V)]
    for x, row in edges.items():
        for y in row.values():
            u, w = vid[x], vid[y]
            adj[u].add(w)
            adj[w].add(u)

    # complete the two binary trees: parent side toward the nearer root.  A
    # column pair is completed once, so until then its only edges are pinned
    has_parent = [False] * V
    pinned_children = [0] * V
    for v in vid.values():
        for w in adj[v]:
            if column[w] == up[v]:
                has_parent[v] = True
            elif up[w] == column[v]:
                pinned_children[v] += 1
    for children, parents, cap in pairs:
        open_children = [w for w in children if not has_parent[w]]
        slots = [u for u in parents for _ in range(cap - pinned_children[u])]
        rng.shuffle(slots)
        rng.shuffle(open_children)
        for u, w in zip(slots, open_children):
            adj[u].add(w)
            adj[w].add(u)

    weld_cycle = _complete_weld(adj, by_col[n], by_col[n + 1], rng)
    for u, w in zip(weld_cycle, weld_cycle[1:] + weld_cycle[:1]):
        adj[u].add(w)
        adj[w].add(u)

    neighbors = np.array([sorted(a) + [-1] * (3 - len(a)) for a in adj], dtype=np.int64)
    structure = TreeStructure(n=n, vertex_count=V, column=column_arr, neighbors=neighbors,
                              weld_cycle=weld_cycle, entrance=by_col[0][0], exit=by_col[-1][0])
    problems = structure.validate()
    if problems:
        raise EmbeddingError("completed structure invalid: " + "; ".join(problems[:3]))
    return structure, vid


def _complete_weld(adj: list[set[int]], l_leaves: range, r_leaves: range,
                   rng) -> list[int]:
    """Complete pinned weld edges into one alternating cycle.

    ``_assign_columns`` gives each leaf at most two pinned weld edges and
    closes no cycle through fewer than all leaves, so the pinned edges are
    the whole cycle or disjoint paths.  Paths join end to opposite end: as
    each side holds half the leaves, an open end on the other side remains
    until every path is taken, and the chain then closes.
    """
    l_set, r_set = set(l_leaves), set(r_leaves)
    leaves = [*l_leaves, *r_leaves]
    pinned: dict[int, list[int]] = {v: [] for v in leaves}
    for u in l_leaves:
        for w in adj[u]:
            if w in r_set:
                pinned[u].append(w)
                pinned[w].append(u)

    # fragments: maximal alternating paths through pinned edges, each walked
    # from one end; a leaf without pinned weld edges is a fragment of its own
    visited = set()
    fragments: list[list[int]] = []
    for v in leaves:
        if not pinned[v]:
            fragments.append([v])
        elif len(pinned[v]) == 1 and v not in visited:
            path = [v]
            visited.add(v)
            prev = None
            cur = v
            while True:
                nxt = [w for w in pinned[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                visited.add(cur)
                path.append(cur)
            fragments.append(path)
    if not fragments:
        # entries already pin the entire cycle: reconstruct it
        cyc = [l_leaves[0]]
        prev = None
        while len(cyc) < len(leaves):
            nxt = [w for w in pinned[cyc[-1]] if w != prev]
            prev = cyc[-1]
            cyc.append(nxt[0])
        return cyc

    # option 2i joins fragment i at its start, 2i + 1 reversed at its end;
    # open_ends[left] holds the options not yet taken whose end is on that side
    left = [p[e] in l_set for p in fragments for e in (0, -1)]
    open_ends: tuple[list[int], list[int]] = ([], [])
    for k, is_left in enumerate(left):
        open_ends[is_left].append(k)

    def take(i: int) -> list[int]:
        open_ends[left[2 * i]].remove(2 * i)
        open_ends[left[2 * i + 1]].remove(2 * i + 1)
        return fragments[i]

    chain = take(int(rng.integers(0, len(fragments))))
    if rng.integers(0, 2):
        chain.reverse()
    for _ in range(len(fragments) - 1):
        options = open_ends[chain[-1] not in l_set]
        i, rev = divmod(options[int(rng.integers(0, len(options)))], 2)
        p = take(i)
        if rev:
            p.reverse()
        chain.extend(p)
    return chain if chain[0] in l_set else chain[1:] + chain[:1]


def _complete_coloring(structure: TreeStructure, graph: EntryGraph,
                       vid: dict[int, int], rng) -> EdgeColoring:
    """Complete a proper edge coloring around the entries' pinned colors."""
    pinned: dict[tuple[int, int], int] = {}
    for x, row in graph.edges.items():
        u = vid[x]
        for c, y in row.items():
            w = vid[y]
            pinned[(u, w) if u < w else (w, u)] = c
    forbid: dict[int, int] = {}         # vertex -> mask of its INVALID colors
    for (x, c) in graph.invalid:
        forbid[vid[x]] = forbid.get(vid[x], 0) | 1 << c
    try:
        coloring = _greedy_edge_coloring(structure, rng, pinned=pinned, forbid=forbid)
    except ValueError as e:
        raise EmbeddingError(str(e)) from e
    # as in generate_coloring: the labels drawn next keep their values
    rng.integers(0, 3, size=structure.vertex_count)
    return coloring
