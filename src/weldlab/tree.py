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

``BlackBoxTree.answer_many`` answers arrays from one lookup kept per tree:
its labels in ascending order, found by ``searchsorted``, and a table of
each labeled vertex's answer by color.  Blind walks and guessing trials
draw no labels at all: they walk ``neighbor_table`` in vertex space (see
``walk``).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

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
    """Label-free welded-tree graph.  Immutable after construction."""

    n: int
    vertex_count: int
    column: np.ndarray          # vertex -> column in [0, 2n+1]
    adjacency: list[tuple[int, ...]]
    side: np.ndarray            # vertex -> 0 for L, 1 for R
    weld_cycle: list[int]       # alternating L-leaf, R-leaf, ... (length 2*2^n)
    entrance: int
    exit: int

    def validate(self) -> list[str]:
        problems: list[str] = []
        n, V = self.n, self.vertex_count
        column, adjacency = self.column.tolist(), self.adjacency
        if V != (1 << (n + 2)) - 2:
            problems.append(f"vertex count {V} != 2^(n+2)-2")
        for j in range(2 * n + 2):
            if column.count(j) != column_size(n, j):
                problems.append(f"column {j} has {column.count(j)} vertices")
        ends = (self.entrance, self.exit)
        for v in range(V):
            nbrs, cv = adjacency[v], column[v]
            want = 2 if v in ends else 3
            if len(nbrs) != want:
                problems.append(f"vertex {v} has degree {len(nbrs)}, expected {want}")
            for w in nbrs:
                if column[w] - cv not in (1, -1):
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
            if w not in adjacency[v]:
                problems.append(f"weld cycle edge {v}-{w} missing from adjacency")
        return problems


@functools.lru_cache(maxsize=None)
def _tree_pair(n: int):
    """``_welded``'s two trees without weld edges, built once per ``n``: the
    adjacency tuples and read-only column and side arrays."""
    half = (1 << (n + 1)) - 1                   # vertices per tree
    depth = np.array([(u + 1).bit_length() - 1 for u in range(half)], dtype=np.int64)
    adj: list[list[int]] = [[] for _ in range(2 * half)]
    for base in (0, half):
        for u in range(half >> 1):              # the inner vertices
            for child in (2 * u + 1, 2 * u + 2):
                adj[base + u].append(base + child)
                adj[base + child].append(base + u)
    column = np.concatenate([depth, 2 * n + 1 - depth])
    side = np.repeat(np.array([0, 1], dtype=np.int64), half)
    column.flags.writeable = side.flags.writeable = False
    return tuple(map(tuple, adj)), column, side


def _welded(n: int, cycle: list[int]) -> TreeStructure:
    """The two height-``n`` trees in the canonical layout, joined by ``cycle``.

    Each tree is numbered in heap order (local vertex u has children 2u+1
    and 2u+2): the left tree from the entrance, then the right tree from the
    exit.  Adjacency lists keep insertion order: tree edges top down, left
    tree first, then the weld edges in cycle order.
    """
    tree_adj, column, side = _tree_pair(n)
    adjacency = list(tree_adj)
    for i, u in enumerate(cycle):
        w = cycle[(i + 1) % len(cycle)]
        adjacency[u] += (w,)
        adjacency[w] += (u,)
    return TreeStructure(n=n, vertex_count=len(tree_adj), column=column,
                         adjacency=adjacency, side=side, weld_cycle=list(cycle),
                         entrance=0, exit=len(tree_adj) // 2)


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

    Every vertex sees pairwise distinct colors on its incident edges, so the
    oracle's "c-neighbour" map is single valued.  Edge colors are stored
    explicitly rather than induced from a coloring of the vertices by pairs,
    because the induced scheme has no solution on random welded trees at
    desk scale (provably none at n=2..4; the leaf cliques force rigid mod-3
    chains around the weld cycle).
    """

    edges: dict[tuple[int, int], int]

    def validate(self, structure: TreeStructure) -> list[str]:
        problems = []
        for v in range(structure.vertex_count):
            seen = []
            for w in structure.adjacency[v]:
                key = (v, w) if v < w else (w, v)
                c = self.edges.get(key)
                if c is None:
                    problems.append(f"edge {key} has no color")
                    continue
                if not (1 <= c <= 9):
                    problems.append(f"edge {key} color {c} out of range")
                seen.append(c)
            if len(set(seen)) != len(seen):
                problems.append(f"vertex {v} has two same-colored incident edges")
        edge_count = sum(len(nbrs) for nbrs in structure.adjacency) // 2
        if len(self.edges) != edge_count:
            problems.append(f"{len(self.edges)} edge colors for {edge_count} edges")
        return problems


def neighbor_table(structure: TreeStructure, coloring: EdgeColoring) -> np.ndarray:
    """(V, 10) vertex-by-color neighbor table; cached on the coloring."""
    cached = getattr(coloring, "_nbc", None)
    if cached is not None and cached.shape[0] == structure.vertex_count:
        return cached
    table = np.full((structure.vertex_count, 10), -1, dtype=np.int64)
    count = len(coloring.edges)
    ends = np.fromiter(itertools.chain.from_iterable(coloring.edges), dtype=np.int64,
                       count=2 * count).reshape(count, 2)
    colors = np.fromiter(coloring.edges.values(), dtype=np.int64, count=count)
    table[ends[:, 0], colors] = ends[:, 1]
    table[ends[:, 1], colors] = ends[:, 0]
    coloring._nbc = table
    return table


# the colors 1..9 absent from a 10-bit mask of colors, in ascending order
_FREE_COLORS = [tuple(c for c in range(1, 10) if not mask >> c & 1) for mask in range(1 << 10)]


def _greedy_edge_coloring(structure: TreeStructure, rng,
                          pinned: dict[tuple[int, int], int] | None = None,
                          forbid: dict[int, int] | None = None,
                          ) -> dict[tuple[int, int], int]:
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
    todo = [(u, w) for u, nbrs in enumerate(structure.adjacency)
            for w in nbrs if u < w and (u, w) not in pinned]
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
    assigned = dict(pinned)
    assigned.update(zip(todo, colors))
    return assigned


def generate_coloring(structure: TreeStructure, seed: int) -> EdgeColoring:
    """A valid coloring, randomized over valid colorings under ``seed``."""
    rng = make_rng(seed, "coloring")
    # the draw of a vertex palette that no longer exists: without it the
    # stream, and with it every seeded coloring, would shift
    rng.integers(0, 3, size=structure.vertex_count)
    return EdgeColoring(_greedy_edge_coloring(structure, rng))


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
    neighbor_by_color: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.inverse = dict(zip(self.labels.tolist(), range(len(self.labels))))
        self.neighbor_by_color = neighbor_table(self.structure, self.coloring)

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
        w = self.neighbor_by_color[v, c]
        return inv if w < 0 else int(self.labels[w])

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """(the labels in ascending order, each one's answers to colors 0..10
        in its row, and a last row of INVALID for strings that label none)."""
        order = np.argsort(self.labels)
        w = np.full((order.size + 1, 11), -1, dtype=np.int64)
        w[:-1, :10] = self.neighbor_by_color[order]
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
    """k distinct ints uniform over [low, high)."""
    if k > high - low:
        raise ValueError("not enough labels available")
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

def _check_entries(entries: KnownVertices) -> int:
    """The label width that ``entries``' INVALID label names, once ``entries``
    can come from a tree with labels that wide."""
    label_bits = entries.invalid.bit_length()
    inv = invalid_label(label_bits)
    if entries.invalid != inv:
        raise ValueError("entries INVALID label is not an all-ones string")
    for (x, c) in entries.entries:
        if x == inv:
            raise ValueError("INVALID cannot be a queried vertex")
        if not (1 <= c <= 9):
            raise ValueError(f"color {c} out of range")
    nbrs_of: dict[int, set[int]] = {}
    for (x, _c), y in entries.entries.items():
        if y != inv:
            nbrs_of.setdefault(x, set()).add(y)
    for x, nbrs in nbrs_of.items():
        if len(nbrs) > 3:
            raise ValueError(f"vertex {x:#x} has more than 3 distinct neighbours")
    if len(entries.known_labels() | {0}) > (1 << label_bits) - 1:
        raise ValueError("entries mention more labels than the space holds")
    return label_bits


class EmbeddingError(ValueError):
    """Entries cannot be embedded into the requested structure."""


def _entry_edges(entries: KnownVertices) -> dict[int, dict[int, int]]:
    """label -> {color: neighbour label} over non-INVALID answers, symmetrized."""
    edges: dict[int, dict[int, int]] = {}
    for (x, c), y in entries.entries.items():
        if y == entries.invalid:
            continue
        for (a, b) in ((x, y), (y, x)):
            row = edges.setdefault(a, {})
            if c in row and row[c] != b:
                raise EmbeddingError(f"vertex {a:#x} has two {c}-neighbours")
            row[c] = b
    for a, row in edges.items():
        if len(set(row.values())) != len(row):
            raise EmbeddingError(f"vertex {a:#x} repeats a neighbour across colors")
    return edges


def _invalid_pairs(entries: KnownVertices) -> set[tuple[int, int]]:
    return {(x, c) for (x, c), y in entries.entries.items() if y == entries.invalid}


def embed_entries(entries: KnownVertices, bbt_structure: TreeStructure,
                  coloring: EdgeColoring) -> dict[int, int]:
    """Place entry labels onto a fixed (structure, coloring); forced and unique.

    Starting at the entrance, every recorded edge follows the structure's
    c-edge deterministically (incident colors are distinct).  Raises
    EmbeddingError when an edge is missing, an INVALID answer contradicts an
    existing edge, the placement collides, or a key is unreachable from the
    entrance.
    """
    inv = entries.invalid
    edges = _entry_edges(entries)
    nbc = neighbor_table(bbt_structure, coloring)

    pos: dict[int, int] = {0: bbt_structure.entrance}
    stack = [0]
    seen = {0}
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
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    unreached = set(edges) - set(pos)
    if entries.key_labels() - set(pos):
        raise EmbeddingError("entries are not an entrance-rooted subtree")
    if unreached:
        raise EmbeddingError("entries contain labels unreachable from the entrance")
    if len(set(pos.values())) != len(pos):
        raise EmbeddingError("two labels map to the same vertex")
    for (x, c) in _invalid_pairs(entries):
        if x == inv or x not in pos:
            continue
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
    """
    label_bits = _check_entries(entries)
    rng = make_rng(seed, "sample_consistent")
    if mode == "labelings":
        if structure is None or coloring is None:
            raise ValueError("labelings mode requires the fixed structure and coloring")
        pos = embed_entries(entries, structure, coloring)
        labels = _fill_labels(structure, {lab: v for lab, v in pos.items() if lab != 0},
                              rng, label_bits)
        bbt = BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                           label_bits=label_bits)
    elif mode == "structures":
        bbt = _sample_structure_mode(entries, n, rng, label_bits)
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


def _sample_structure_mode(entries: KnownVertices, n: int, rng,
                           label_bits: int) -> BlackBoxTree:
    edges = _entry_edges(entries)
    inv = invalid_label(label_bits)
    labels_in_play = sorted(set(edges) | entries.key_labels() | {0})
    if any(lab == inv for lab in labels_in_play):
        raise EmbeddingError("INVALID appears as a vertex")

    invalid_counts: dict[int, int] = {}
    for (x, _c) in _invalid_pairs(entries):
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
    coloring = _complete_coloring(structure, entries, edges, vid, rng)
    labels = _fill_labels(structure, {lab: v for lab, v in vid.items() if lab != 0},
                          rng, label_bits)
    return BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                        label_bits=label_bits)


def _assign_columns(edges: dict[int, dict[int, int]], labels_in_play: list[int],
                    n: int, rng, degree_bounds: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Backtracking column assignment for the entry graph (labels with 0 among them).

    ``degree_bounds[label] = (lo, hi)`` from the recorded answers: valid
    answers force at least lo edges, INVALID answers cap the degree at hi
    (a full row with two valid answers can only sit at the entrance or exit
    column).
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
            return True
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


@functools.lru_cache(maxsize=None)
def _column_layout(n: int):
    """The sampler's column-by-column vertex numbering: ids per column, column and
    parent column per vertex, read-only column and side arrays, and the (children,
    parents, child slots per parent) of each column pair tree completion fills."""
    by_col, column = [], []
    for j in range(2 * n + 2):
        by_col.append(range(len(column), len(column) + column_size(n, j)))
        column += [j] * column_size(n, j)
    up = tuple(j - 1 if j <= n else j + 1 for j in column)
    column_arr = np.array(column, dtype=np.int64)
    side_arr = (column_arr > n).astype(np.int64)
    column_arr.flags.writeable = side_arr.flags.writeable = False
    pairs = []
    for j_child, j_parent in [(j + 1, j) for j in range(n)] + \
                             [(j - 1, j) for j in range(2 * n + 1, n + 1, -1)]:
        dl, dr = _direction_slots(n, j_parent)
        pairs.append((by_col[j_child], by_col[j_parent], dr if j_child > j_parent else dl))
    return tuple(by_col), tuple(column), up, column_arr, side_arr, tuple(pairs)


def _complete_structure(edges: dict[int, dict[int, int]], cols: dict[int, int],
                        n: int, rng) -> tuple[TreeStructure, dict[int, int]]:
    by_col, column, up, column_arr, side_arr, pairs = _column_layout(n)
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
        if len(slots) != len(open_children):
            raise EmbeddingError("tree completion slots do not line up")
        rng.shuffle(slots)
        rng.shuffle(open_children)
        for u, w in zip(slots, open_children):
            adj[u].add(w)
            adj[w].add(u)

    weld_cycle = _complete_weld(adj, by_col[n], by_col[n + 1], rng)
    for u, w in zip(weld_cycle, weld_cycle[1:] + weld_cycle[:1]):
        adj[u].add(w)
        adj[w].add(u)

    structure = TreeStructure(
        n=n, vertex_count=V, column=column_arr, adjacency=list(map(tuple, map(sorted, adj))),
        side=side_arr, weld_cycle=weld_cycle, entrance=by_col[0][0], exit=by_col[-1][0])
    problems = structure.validate()
    if problems:
        raise EmbeddingError("completed structure invalid: " + "; ".join(problems[:3]))
    return structure, vid


def _complete_weld(adj: list[set[int]], l_leaves: range, r_leaves: range,
                   rng) -> list[int]:
    """Complete pinned weld edges into one alternating cycle."""
    l_set, r_set = set(l_leaves), set(r_leaves)
    leaves = [*l_leaves, *r_leaves]
    pinned: dict[int, list[int]] = {v: [] for v in leaves}
    for u in l_leaves:
        for w in adj[u]:
            if w in r_set:
                pinned[u].append(w)
                pinned[w].append(u)
    for v, ps in pinned.items():
        if len(ps) > 2:
            raise EmbeddingError("a leaf carries more than two weld edges")

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
                if cur in visited:
                    raise EmbeddingError("pinned weld edges form a bad configuration")
                visited.add(cur)
                path.append(cur)
            fragments.append(path)
    # pinned leaves no walk reached lie on closed cycles
    leftovers = [v for v in leaves if pinned[v] and v not in visited]
    if leftovers:
        m = len(l_leaves)
        if len(leftovers) != 2 * m or fragments:
            raise EmbeddingError("pinned weld edges close a sub-cycle")
        # entries already pin the entire cycle: reconstruct it
        cyc = [l_leaves[0]]
        prev = None
        while len(cyc) < 2 * m:
            nxt = [w for w in pinned[cyc[-1]] if w != prev]
            prev = cyc[-1]
            cyc.append(nxt[0])
        return cyc if cyc[0] in l_set else cyc[1:] + cyc[:1]

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
        if not options:
            raise EmbeddingError("weld completion is stuck")
        i, rev = divmod(options[int(rng.integers(0, len(options)))], 2)
        p = take(i)
        if rev:
            p.reverse()
        chain.extend(p)
    if len(chain) != len(l_leaves) + len(r_leaves):
        raise EmbeddingError("weld completion lost leaves")
    if (chain[0] in l_set) == (chain[-1] in l_set):
        raise EmbeddingError("weld completion cannot close the cycle")
    return chain if chain[0] in l_set else chain[1:] + chain[:1]


def _complete_coloring(structure: TreeStructure, entries: KnownVertices,
                       edges: dict[int, dict[int, int]], vid: dict[int, int],
                       rng) -> EdgeColoring:
    """Complete a proper edge coloring around the entries' pinned colors."""
    pinned: dict[tuple[int, int], int] = {}
    for x, row in edges.items():
        u = vid[x]
        for c, y in row.items():
            w = vid[y]
            if pinned.setdefault((u, w) if u < w else (w, u), c) != c:
                raise EmbeddingError("entry edge colors contradict each other")
    forbid: dict[int, int] = {}         # vertex -> mask of its INVALID colors
    for (x, c), y in entries.entries.items():
        if y == entries.invalid and x in vid:
            forbid[vid[x]] = forbid.get(vid[x], 0) | 1 << c
    try:
        assigned = _greedy_edge_coloring(structure, rng, pinned=pinned, forbid=forbid)
    except ValueError as e:
        raise EmbeddingError(str(e)) from e
    # as in generate_coloring: the labels drawn next keep their values
    rng.integers(0, 3, size=structure.vertex_count)
    return EdgeColoring(assigned)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 2


def canonicalize(bbt: BlackBoxTree) -> BlackBoxTree:
    """Isomorphic copy on the canonical vertex layout (query map unchanged)."""
    old = bbt.structure
    half = old.vertex_count // 2
    mapping = np.empty(old.vertex_count, dtype=np.int64)  # old -> new
    for root, base in ((old.entrance, 0), (old.exit, half)):
        # walk each tree in lockstep with its canonical heap order, children
        # (the same-side neighbours but the parent) taken in index order
        mapping[root] = base
        frontier = [(root, -1, 0)]
        while frontier:
            v, parent, u = frontier.pop()
            kids = sorted(w for w in old.adjacency[v]
                          if old.side[w] == old.side[v] and w != parent)
            for k, w in enumerate(kids):
                mapping[w] = base + 2 * u + 1 + k
                frontier.append((w, v, 2 * u + 1 + k))

    labels = np.empty(old.vertex_count, dtype=np.int64)
    labels[mapping] = bbt.labels
    edge_map = {}
    for (u, w), c in bbt.coloring.edges.items():
        a, b = int(mapping[u]), int(mapping[w])
        edge_map[(min(a, b), max(a, b))] = c
    return BlackBoxTree(structure=_welded(bbt.n, [int(mapping[v]) for v in old.weld_cycle]),
                        coloring=EdgeColoring(edge_map), labels=labels,
                        label_bits=bbt.label_bits)


def _hex_label(lab: int, label_bits: int) -> str:
    """A label as tree documents hold it: lowercase hex, one digit per 4 bits."""
    return format(lab, f"0{max(1, (label_bits + 3) // 4)}x")


def save_tree(bbt: BlackBoxTree) -> str:
    """Canonical JSON text; byte-stable round trip with ``load_tree``."""
    c = canonicalize(bbt)
    doc = {
        "format_version": _FORMAT_VERSION,
        "n": c.n,
        "label_bits": c.label_bits,
        "weld_cycle": c.structure.weld_cycle,
        "labels": [_hex_label(lab, c.label_bits) for lab in c.labels.tolist()],
        "edge_colors": [[u, w, col] for (u, w), col in sorted(c.coloring.edges.items())],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _tree_field(doc: dict, key: str, ok, wanted: str):
    """``doc[key]`` if ``ok`` accepts it, else a ValueError naming the field."""
    if key not in doc or not ok(doc[key]):
        raise ValueError(f"tree field {key!r} must be {wanted}")
    return doc[key]


def load_tree(text: str) -> BlackBoxTree:
    """The tree ``save_tree`` wrote; a malformed document is a ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a tree document must be a JSON object")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unknown tree format version {doc.get('format_version')!r}, "
                         f"expected {_FORMAT_VERSION}")
    n = _tree_field(doc, "n", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    label_bits = _tree_field(doc, "label_bits", lambda v: _is_int(v) and 1 <= v <= 63,
                             "an integer in 1..63")
    V = (1 << (n + 2)) - 2
    cycle = _tree_field(doc, "weld_cycle", lambda v: isinstance(v, list) and all(
        _is_int(u) and 0 <= u < V for u in v), f"a list of vertices in 0..{V - 1}")
    edge_colors = _tree_field(doc, "edge_colors", lambda v: isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 3 and all(map(_is_int, e)) for e in v),
        "a list of [u, w, color] integer triples")
    wanted = f"a list of {V} hex strings, one per vertex"
    hex_labels = _tree_field(doc, "labels", lambda v: isinstance(v, list) and len(v) == V
                             and all(isinstance(h, str) for h in v), wanted)
    try:
        labels = [int(h, 16) for h in hex_labels]
    except ValueError:
        raise ValueError(f"tree field 'labels' must be {wanted}") from None
    if not all(0 <= lab < invalid_label(label_bits) for lab in labels):
        raise ValueError(f"tree field 'labels' holds a label outside the "
                         f"{label_bits}-bit space or the INVALID label")
    if any(h != _hex_label(lab, label_bits) for h, lab in zip(hex_labels, labels)):
        raise ValueError(f"tree field 'labels' must hold {len(_hex_label(0, label_bits))}-digit "
                         f"lowercase hex strings, as save_tree writes them")
    if len(set(labels)) != V:
        raise ValueError("tree field 'labels' repeats a label")
    if labels[0] != 0:
        raise ValueError("tree field 'labels' must give the entrance label 0")

    structure = _welded(n, cycle)
    problems = structure.validate()
    if problems:
        raise ValueError("loaded structure invalid: " + "; ".join(problems[:3]))
    coloring = EdgeColoring({(u, w): col for u, w, col in edge_colors})
    problems = coloring.validate(structure)
    if problems:
        raise ValueError("loaded coloring invalid: " + "; ".join(problems[:3]))
    return BlackBoxTree(structure=structure, coloring=coloring,
                        labels=np.array(labels, dtype=np.int64), label_bits=label_bits)
