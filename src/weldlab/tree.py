"""Random welded black-box trees and their query oracle.

A height-``n`` welded tree joins two balanced binary trees of height ``n``
(2^(n+1) - 1 vertices each) by a random cycle of weld edges alternating
between the leaves of the left tree and the leaves of the right tree, so the
graph has 2^(n+2) - 2 vertices in columns 0 .. 2n+1.  The entrance (column 0)
and exit (column 2n+1) are the only degree-2 vertices.

Vertices carry distinct labels from {0,1}^(2n) by default; the entrance is
labeled all-zeros, and the all-ones string INVALID labels nothing.  The
oracle answers ``query(x, c)`` with the label of the c-colored neighbour of
x, or INVALID when there is none.  Colors 1..9 are the pairs of a vertex
coloring: odd columns take {1,2,3}, even columns take {A,B,C}, and every
vertex sees pairwise distinct colors on its incident edges, so "c-neighbour"
is single valued.

Label-space note: 2n-bit labels require 2^(2n) - 2 >= vertex_count - 1,
which fails only at n=1 (6 vertices, 4 strings).  ``generate_labels`` rejects
that case; ``count_consistent`` correctly reports 0 extensions there.  Tests
that need a shrunken label space (exhaustive enumeration oracles) may pass an
explicit ``label_bits``; that mode is test-only.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .known import KnownVertices
from .rng import make_rng

ODD_PALETTE = ("1", "2", "3")
EVEN_PALETTE = ("A", "B", "C")


def color_id(odd_idx: int, even_idx: int) -> int:
    """Edge color 1..9 from the palette indices of its two endpoints."""
    return 3 * odd_idx + even_idx + 1


def color_name(c: int) -> str:
    odd_idx, even_idx = divmod(c - 1, 3)
    return ODD_PALETTE[odd_idx] + EVEN_PALETTE[even_idx]


def color_from_name(name: str) -> int:
    return color_id(ODD_PALETTE.index(name[0]), EVEN_PALETTE.index(name[1]))


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

    def columns(self) -> list[list[int]]:
        cols: list[list[int]] = [[] for _ in range(2 * self.n + 2)]
        for v in range(self.vertex_count):
            cols[int(self.column[v])].append(v)
        return cols

    def validate(self) -> list[str]:
        problems: list[str] = []
        n, V = self.n, self.vertex_count
        if V != (1 << (n + 2)) - 2:
            problems.append(f"vertex count {V} != 2^(n+2)-2")
        for j, col in enumerate(self.columns()):
            if len(col) != column_size(n, j):
                problems.append(f"column {j} has {len(col)} vertices")
        for v in range(V):
            deg = len(self.adjacency[v])
            want = 2 if v in (self.entrance, self.exit) else 3
            if deg != want:
                problems.append(f"vertex {v} has degree {deg}, expected {want}")
            for w in self.adjacency[v]:
                if abs(int(self.column[v]) - int(self.column[w])) != 1:
                    problems.append(f"edge {v}-{w} skips columns")
        cyc = self.weld_cycle
        if len(cyc) != 2 * (1 << n):
            problems.append(f"weld cycle length {len(cyc)}")
        if len(set(cyc)) != len(cyc):
            problems.append("weld cycle revisits a vertex")
        for i, v in enumerate(cyc):
            want_col = n if i % 2 == 0 else n + 1
            if int(self.column[v]) != want_col:
                problems.append(f"weld cycle position {i} not alternating")
            w = cyc[(i + 1) % len(cyc)]
            if w not in self.adjacency[v]:
                problems.append(f"weld cycle edge {v}-{w} missing from adjacency")
        return problems


def generate_structure(n: int, seed: int) -> TreeStructure:
    """A uniformly random welding under ``seed``; deterministic per seed."""
    if n < 1:
        raise ValueError("tree height n must be >= 1")
    rng = make_rng(seed, "structure")
    V = (1 << (n + 2)) - 2
    base_r = (1 << (n + 1)) - 1

    column = np.empty(V, dtype=np.int64)
    side = np.empty(V, dtype=np.int64)
    adj: list[list[int]] = [[] for _ in range(V)]

    def l_vertex(j: int, i: int) -> int:
        return (1 << j) - 1 + i

    def r_vertex(k: int, i: int) -> int:
        # depth k from the exit; sits in column 2n+1-k
        return base_r + (1 << k) - 1 + i

    for j in range(n + 1):
        for i in range(1 << j):
            v = l_vertex(j, i)
            column[v] = j
            side[v] = 0
            if j < n:
                for child in (l_vertex(j + 1, 2 * i), l_vertex(j + 1, 2 * i + 1)):
                    adj[v].append(child)
                    adj[child].append(v)
    for k in range(n + 1):
        for i in range(1 << k):
            v = r_vertex(k, i)
            column[v] = 2 * n + 1 - k
            side[v] = 1
            if k < n:
                for child in (r_vertex(k + 1, 2 * i), r_vertex(k + 1, 2 * i + 1)):
                    adj[v].append(child)
                    adj[child].append(v)

    l_leaves = [l_vertex(n, i) for i in range(1 << n)]
    r_leaves = [r_vertex(n, i) for i in range(1 << n)]
    a = [l_leaves[i] for i in rng.permutation(len(l_leaves))]
    b = [r_leaves[i] for i in rng.permutation(len(r_leaves))]
    cycle: list[int] = []
    m = len(a)
    for i in range(m):
        cycle.append(a[i])
        cycle.append(b[i])
    for i in range(2 * m):
        u, w = cycle[i], cycle[(i + 1) % (2 * m)]
        adj[u].append(w)
        adj[w].append(u)

    return TreeStructure(
        n=n,
        vertex_count=V,
        column=column,
        adjacency=[tuple(nbrs) for nbrs in adj],
        side=side,
        weld_cycle=cycle,
        entrance=0,
        exit=base_r,
    )


# ---------------------------------------------------------------------------
# Edge coloring
# ---------------------------------------------------------------------------

@dataclass
class EdgeColoring:
    """Explicit proper edge coloring with the nine colors 1..9.

    Every vertex sees pairwise distinct colors on its incident edges, so the
    oracle's "c-neighbour" map is single valued.  ``vertex_color`` keeps the
    palette names ({1,2,3} on odd columns, {A,B,C} on even) for the
    serialization format; edge colors are stored explicitly rather than
    induced from vertex pairs, because the induced scheme has no solution on
    random welded trees at desk scale (provably none at n=2..4; the leaf
    cliques force rigid mod-3 chains around the weld cycle).
    """

    vertex_color: np.ndarray
    edges: dict[tuple[int, int], int]

    def vertex_color_name(self, structure: TreeStructure, v: int) -> str:
        pal = ODD_PALETTE if structure.column[v] % 2 == 1 else EVEN_PALETTE
        return pal[int(self.vertex_color[v])]

    def edge_color(self, structure: TreeStructure, u: int, v: int) -> int:
        return self.edges[(u, v) if u < v else (v, u)]

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
        return problems


def neighbor_table(structure: TreeStructure, coloring: EdgeColoring) -> np.ndarray:
    """(V, 10) vertex-by-color neighbor table; cached on the coloring."""
    cached = getattr(coloring, "_nbc", None)
    if cached is not None and cached.shape[0] == structure.vertex_count:
        return cached
    V = structure.vertex_count
    table = -np.ones((V, 10), dtype=np.int64)
    for v in range(V):
        for w in structure.adjacency[v]:
            table[v][coloring.edge_color(structure, v, w)] = w
    coloring._nbc = table
    return table


def _is_tree_child(structure: TreeStructure, v: int, w: int) -> bool:
    n = structure.n
    cv, cw = int(structure.column[v]), int(structure.column[w])
    if structure.side[v] == 0:
        return cw == cv + 1 and cw <= n
    return cw == cv - 1 and cw >= n + 1


def _all_edges(structure: TreeStructure) -> list[tuple[int, int]]:
    return sorted({(min(u, w), max(u, w))
                   for u in range(structure.vertex_count)
                   for w in structure.adjacency[u]})


def _greedy_edge_coloring(structure: TreeStructure, rng,
                          pinned: dict[tuple[int, int], int] | None = None,
                          forbid: dict[int, set[int]] | None = None,
                          ) -> dict[tuple[int, int], int]:
    """Random proper edge coloring; backtracking only matters under forbids.

    With nine colors and degree at most three, an unconstrained edge sees at
    most four blocked colors, so plain greedy never gets stuck; recorded
    INVALID answers can forbid colors at a vertex and then small backtracking
    takes over.
    """
    pinned = pinned or {}
    forbid = forbid or {}
    used: list[set[int]] = [set() for _ in range(structure.vertex_count)]
    assigned: dict[tuple[int, int], int] = {}
    for (u, w), c in pinned.items():
        if c in used[u] or c in used[w] or c in forbid.get(u, ()) or c in forbid.get(w, ()):
            raise ValueError("pinned edge colors are inconsistent")
        assigned[(u, w)] = c
        used[u].add(c)
        used[w].add(c)
    todo = [e for e in _all_edges(structure) if e not in pinned]
    todo = [todo[i] for i in rng.permutation(len(todo))] if todo else []

    # iterative backtracking; None marks a node not yet expanded under the
    # current prefix, [] an exhausted one (reset when leaving backwards)
    pending: list[list[int] | None] = [None] * len(todo)
    steps = 0
    i = 0
    while i < len(todo):
        steps += 1
        if steps > 200_000:
            raise ValueError("edge coloring search budget exhausted")
        u, w = todo[i]
        if pending[i] is None:
            options = [c for c in range(1, 10)
                       if c not in used[u] and c not in used[w]
                       and c not in forbid.get(u, ()) and c not in forbid.get(w, ())]
            pending[i] = [options[j] for j in rng.permutation(len(options))] \
                if options else []
        if pending[i]:
            c = pending[i].pop()
            assigned[(u, w)] = c
            used[u].add(c)
            used[w].add(c)
            i += 1
        else:
            pending[i] = None
            if i == 0:
                raise ValueError("no proper edge coloring under the given constraints")
            i -= 1
            pu, pw = todo[i]
            c = assigned.pop((pu, pw))
            used[pu].discard(c)
            used[pw].discard(c)
    return assigned


def generate_coloring(structure: TreeStructure, seed: int) -> EdgeColoring:
    """A valid coloring, randomized over valid colorings under ``seed``."""
    rng = make_rng(seed, "coloring")
    vertex_color = rng.integers(0, 3, size=structure.vertex_count)
    return EdgeColoring(vertex_color=vertex_color,
                        edges=_greedy_edge_coloring(structure, rng))


# ---------------------------------------------------------------------------
# Black-box trees
# ---------------------------------------------------------------------------

class OracleHandle:
    """Per-worker query counter around a black-box tree or a labeling batch.

    ``query`` counts every invocation exactly once, including INVALID
    answers, and ``query_many`` counts each element of its batch once.
    Workers use one handle each and merge counts by summation.
    """

    __slots__ = ("bbt", "count")

    def __init__(self, bbt: "BlackBoxTree | LabelingBatch"):
        self.bbt = bbt
        self.count = 0

    def query(self, x: int, c: int) -> int:
        self.count += 1
        return self.bbt.answer(x, c)

    def query_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        answers = self.bbt.answer_many(xs, cs)
        self.count += answers.size
        return answers


class LabelingBatch:
    """B injective labelings of one colored welded tree, asked row-aligned.

    Row b is an oracle of its own: ``answer_many(xs, cs)`` asks labeling b
    for ``xs[..., b]`` (a single row answers every element).  A lookup is a
    ``searchsorted`` over the sorted labels, each row offset into its own
    2^label_bits range, followed by a read of the vertex-by-color neighbour
    table; no dict and no 2^label_bits-sized array is built.
    """

    def __init__(self, structure: TreeStructure, coloring: "EdgeColoring",
                 labels: np.ndarray, label_bits: int):
        rows, V = labels.shape
        if label_bits + rows.bit_length() > 62:
            raise ValueError(f"{rows} rows of {label_bits}-bit labels overflow "
                             f"the int64 lookup keys")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.label_bits = label_bits
        self._neighbors = neighbor_table(structure, coloring)
        row = np.arange(rows, dtype=np.int64)
        self._label_base = row * V
        self._key_base = row << label_bits
        order = np.argsort(self.labels, axis=1)
        self._vertex = order.ravel()
        keys = np.take_along_axis(self.labels, order, 1)
        keys += self._key_base[:, None]
        self._keys = keys.ravel()

    @property
    def invalid(self) -> int:
        return invalid_label(self.label_bits)

    def vertex_of(self, xs) -> np.ndarray:
        """The vertex each row's labeling gives label ``xs``, else -1.

        Uncounted: the oracle's own lookup, and grading.
        """
        xs = np.asarray(xs, dtype=np.int64)
        keys = xs + self._key_base
        i = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        found = (self._keys[i] == keys) & (xs >= 0) & (xs < (1 << self.label_bits))
        return np.where(found, self._vertex[i], -1)

    def answer_many(self, xs, cs) -> np.ndarray:
        """``BlackBoxTree.answer`` elementwise, row-aligned; uncounted."""
        cs = np.asarray(cs, dtype=np.int64)
        v = self.vertex_of(xs)
        asked = (v >= 0) & (cs >= 1) & (cs <= 9)
        w = np.where(asked, self._neighbors[np.maximum(v, 0), np.clip(cs, 0, 9)], -1)
        found = self.labels.ravel()[self._label_base + np.maximum(w, 0)]
        return np.where(w >= 0, found, self.invalid)

    def handle(self) -> OracleHandle:
        return OracleHandle(self)


@dataclass
class BlackBoxTree:
    """A welded tree plus labeling and coloring: the oracle under test."""

    structure: TreeStructure
    coloring: EdgeColoring
    labels: np.ndarray              # vertex -> label
    label_bits: int
    inverse: dict[int, int] = field(default_factory=dict, repr=False)
    neighbor_by_color: np.ndarray | None = field(default=None, repr=False)
    default_handle: OracleHandle | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.inverse:
            self.inverse = {int(lab): v for v, lab in enumerate(self.labels)}
        if self.neighbor_by_color is None:
            self.neighbor_by_color = neighbor_table(self.structure, self.coloring)
        if self.default_handle is None:
            # a weak back-reference: a strong one would make every tree a
            # reference cycle, whose tables wait for the cyclic collector
            self.default_handle = OracleHandle(weakref.proxy(self))

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
        if c < 1 or c > 9:
            return self.invalid
        v = self.inverse.get(x)
        if v is None or x == self.invalid:
            return self.invalid
        w = int(self.neighbor_by_color[v][c])
        return self.invalid if w < 0 else int(self.labels[w])

    @cached_property
    def _one_row(self) -> LabelingBatch:
        return LabelingBatch(self.structure, self.coloring, self.labels[None, :],
                             self.label_bits)

    def answer_many(self, xs, cs) -> np.ndarray:
        """``answer`` over arrays of labels and colors; uncounted."""
        return self._one_row.answer_many(xs, cs)

    def handle(self) -> OracleHandle:
        return OracleHandle(self)

    @property
    def query_count(self) -> int:
        return self.default_handle.count

    def exit_label(self) -> int:
        """Grading only; hidden from algorithms under test."""
        return int(self.labels[self.structure.exit])

    def vertex_row(self, x: int) -> dict[int, int]:
        """All nine answers at label ``x`` (uncounted; instrumentation)."""
        return {c: self.answer(x, c) for c in range(1, 10)}


def query(bbt: BlackBoxTree, x: int, c: int) -> int:
    """Query via the tree's default handle, incrementing its counter."""
    return bbt.default_handle.query(x, c)


def exit_label(bbt: BlackBoxTree) -> int:
    return bbt.exit_label()


def _sample_distinct(rng, low: int, high: int, k: int) -> list[int]:
    """k distinct ints uniform over [low, high); Floyd's algorithm when huge."""
    span = high - low
    if k > span:
        raise ValueError("not enough labels available")
    if span <= (1 << 22):
        return [low + int(x) for x in rng.choice(span, size=k, replace=False)]
    chosen: set[int] = set()
    out = []
    for j in range(span - k, span):
        t = int(rng.integers(0, j + 1))
        pick = t if t not in chosen else j
        chosen.add(pick)
        out.append(low + pick)
    return out


def _checked_label_bits(structure: TreeStructure, label_bits: int | None) -> int:
    """``label_bits`` (default 2n), if its space can label every vertex."""
    if label_bits is None:
        label_bits = 2 * structure.n
    V = structure.vertex_count
    if (1 << label_bits) - 2 < V - 1:
        raise ValueError(
            f"label space 2^{label_bits} cannot injectively label {V} vertices "
            f"(entrance pinned to 0, all-ones reserved)")
    return label_bits


def _distinct_rows(rng, rows: int, k: int, span: int) -> np.ndarray:
    """(rows, k) ints; each row a uniform random sequence of k distinct values in [0, span).

    Every row draws m values with replacement and keeps the first k distinct
    ones.  Each new value is uniform over those not yet kept, so the kept
    sequence is a uniform injective one; whether a row meets k distinct
    values within m draws does not depend on which values they are, so short
    rows are simply drawn again.  m sits 4 sd above the mean number of draws
    that k distinct values take, so redraws are rare.
    """
    p_new = (span - np.arange(k)) / span
    m = math.ceil(np.sum(1 / p_new) + 4 * math.sqrt(np.sum((1 - p_new) / p_new ** 2)))
    shift = m.bit_length()
    out = np.empty((rows, k), dtype=np.int64)
    todo = np.arange(rows)
    while todo.size:
        draws = rng.integers(0, span, size=(todo.size, m))
        # sorting (value, position) keys puts equal values in draw order, so a
        # value equal to its sorted predecessor repeats an earlier draw
        keyed = draws << shift
        keyed |= np.arange(m)
        keyed.sort(axis=1)
        same = keyed[:, 1:] ^ keyed[:, :-1]
        same >>= shift
        again = same == 0
        del same
        at = keyed[:, 1:]                   # in place: flat index of each sorted draw
        at &= (1 << shift) - 1
        at += np.arange(0, draws.size, m)[:, None]
        repeat = np.zeros(draws.shape, dtype=bool)
        repeat.ravel()[at] = again
        del keyed, at, again
        rank = np.cumsum(~repeat, axis=1, dtype=np.int32)
        full = rank[:, -1] >= k
        if not full.all():
            draws, repeat, rank = draws[full], repeat[full], rank[full]
        out[todo[full]] = draws[~repeat & (rank <= k)].reshape(-1, k)
        todo = todo[~full]
    return out


def generate_label_batch(structure: TreeStructure, coloring: EdgeColoring, rows: int,
                         rng: np.random.Generator) -> LabelingBatch:
    """``rows`` independent labelings distributed as ``generate_labels``'s, drawn at once."""
    label_bits = _checked_label_bits(structure, None)
    V = structure.vertex_count
    drawn = _distinct_rows(rng, rows, V - 1, (1 << label_bits) - 2) + 1
    labels = np.insert(drawn, structure.entrance, 0, axis=1)
    return LabelingBatch(structure, coloring, labels, label_bits)


def generate_labels(structure: TreeStructure, coloring: EdgeColoring, seed: int,
                    label_bits: int | None = None) -> BlackBoxTree:
    """Uniform injective labeling, entrance pinned to all-zeros.

    Labels are drawn from {0,1}^label_bits minus the all-ones INVALID string.
    Raises when the space cannot hold vertex_count distinct labels (n=1 with
    the default 2n bits).
    """
    label_bits = _checked_label_bits(structure, label_bits)
    space = 1 << label_bits
    V = structure.vertex_count
    rng = make_rng(seed, "labels")
    labels = np.empty(V, dtype=np.int64)
    labels[structure.entrance] = 0
    rest = np.array([v for v in range(V) if v != structure.entrance])
    if space <= (1 << 22):
        drawn = rng.choice(space - 2, size=len(rest), replace=False) + 1
    else:
        drawn = np.array(_sample_distinct(rng, 1, space - 1, len(rest)))
    labels[rest] = drawn
    inverse = dict(zip(labels.tolist(), range(V)))
    return BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                        label_bits=label_bits, inverse=inverse)


def make_blackbox(n: int, seed: int, label_bits: int | None = None) -> BlackBoxTree:
    """Full pipeline with derived subseeds: structure, coloring, labels."""
    structure = generate_structure(n, seed)
    coloring = generate_coloring(structure, seed)
    return generate_labels(structure, coloring, seed, label_bits=label_bits)


# ---------------------------------------------------------------------------
# Counting consistent labelings
# ---------------------------------------------------------------------------

def _check_entries(entries: KnownVertices, n: int, label_bits: int) -> set[int]:
    inv = invalid_label(label_bits)
    if entries.invalid != inv:
        raise ValueError("entries INVALID label does not match label_bits")
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
    labels_used = entries.known_labels() | {0}
    if len(labels_used) > (1 << label_bits) - 1:
        raise ValueError("entries mention more labels than the space holds")
    return labels_used


def count_consistent(entries: KnownVertices, n: int, label_bits: int | None = None) -> int:
    """Number of labelings of a fixed welded tree extending ``entries``.

    Falling factorial P(N, k): N remaining labels (space minus INVALID minus
    labels already used, the entrance's zero label always counted as used),
    k unlabeled vertices.  Exact arbitrary-precision integer; 0 when the
    space cannot accommodate the free vertices.
    """
    if label_bits is None:
        label_bits = 2 * n
    labels_used = _check_entries(entries, n, label_bits)
    m = len(labels_used)
    vertex_total = (1 << (n + 2)) - 2
    k = vertex_total - m
    if k < 0:
        raise ValueError("entries mention more vertices than the tree has")
    avail = (1 << label_bits) - 1 - m
    if avail < 0:
        raise ValueError("entries use more labels than exist")
    return math.perm(avail, k) if k <= avail else 0


def available_labels(entries: KnownVertices, n: int, label_bits: int | None = None) -> int:
    """N in the falling-factorial count: unused valid labels."""
    if label_bits is None:
        label_bits = 2 * n
    labels_used = _check_entries(entries, n, label_bits)
    return (1 << label_bits) - 1 - len(labels_used)


# ---------------------------------------------------------------------------
# Sampling consistent black-box trees
# ---------------------------------------------------------------------------

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
                  coloring: EdgeColoring, label_bits: int) -> dict[int, int]:
    """Place entry labels onto a fixed (structure, coloring); forced and unique.

    Starting at the entrance, every recorded edge follows the structure's
    c-edge deterministically (incident colors are distinct).  Raises
    EmbeddingError when an edge is missing, an INVALID answer contradicts an
    existing edge, the placement collides, or a key is unreachable from the
    entrance.
    """
    inv = invalid_label(label_bits)
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
    space = 1 << label_bits
    V = structure.vertex_count
    labels = -np.ones(V, dtype=np.int64)
    labels[structure.entrance] = 0
    for lab, v in pinned.items():
        labels[v] = lab
    used = set(int(x) for x in labels if x >= 0)
    free_vs = [v for v in range(V) if labels[v] < 0]
    if space - 1 - len(used) < len(free_vs):
        raise EmbeddingError("label space exhausted")
    pool = []
    while len(pool) < len(free_vs):
        need = len(free_vs) - len(pool)
        cand = _sample_distinct(rng, 1, space - 1, min(space - 2, need + len(used)))
        pool.extend(x for x in cand if x not in used and x not in pool)
    for v, lab in zip(free_vs, pool):
        labels[v] = lab
    return labels


def sample_consistent(entries: KnownVertices, n: int, seed: int, *,
                      mode: str = "structures",
                      structure: TreeStructure | None = None,
                      coloring: EdgeColoring | None = None,
                      label_bits: int | None = None) -> BlackBoxTree:
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
    if label_bits is None:
        label_bits = 2 * n
    _check_entries(entries, n, label_bits)
    rng = make_rng(seed, "sample_consistent")
    if mode == "labelings":
        if structure is None or coloring is None:
            raise ValueError("labelings mode requires the fixed structure and coloring")
        pos = embed_entries(entries, structure, coloring, label_bits)
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
                    n: int, rng,
                    degree_bounds: dict[int, tuple[int, int]] | None = None,
                    ) -> dict[int, int]:
    """Backtracking column assignment for the entry graph.

    ``degree_bounds[label] = (lo, hi)`` from the recorded answers: valid
    answers force at least lo edges, INVALID answers cap the degree at hi
    (a full row with two valid answers can only sit at the entrance or exit
    column).
    """
    degree_bounds = degree_bounds or {}
    if 0 not in labels_in_play:
        labels_in_play = [0] + labels_in_play
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
        if j < 0 or j > 2 * n + 1:
            return False
        if counts[j] >= column_size(n, j):
            return False
        lo, hi = degree_bounds.get(x, (0, 3))
        dl_x, dr_x = _direction_slots(n, j)
        if not lo <= dl_x + dr_x <= hi:
            return False
        left = right = 0
        for y in edges.get(x, {}).values():
            if y in cols:
                d = cols[y] - j
                if abs(d) != 1:
                    return False
                if d == -1:
                    left += 1
                else:
                    right += 1
        dl, dr = _direction_slots(n, j)
        if left > dl or right > dr:
            return False
        # every already-placed neighbour must also keep its slot budget
        for y in edges.get(x, {}).values():
            if y in cols:
                yl = yr = 0
                for z in edges.get(y, {}).values():
                    if z == x:
                        zc = j
                    elif z in cols:
                        zc = cols[z]
                    else:
                        continue
                    if zc == cols[y] - 1:
                        yl += 1
                    elif zc == cols[y] + 1:
                        yr += 1
                ydl, ydr = _direction_slots(n, cols[y])
                if yl > ydl or yr > ydr:
                    return False
        return True

    def rec(idx: int) -> bool:
        if idx == len(order):
            return True
        x = order[idx]
        if x == 0:
            if not feasible(0, 0):
                return False
            cols[0] = 0
            counts[0] += 1
            if rec(idx + 1):
                return True
            del cols[0]
            counts[0] -= 1
            return False
        anchor = [cols[y] for y in edges.get(x, {}).values() if y in cols]
        if anchor:
            cands = sorted({a + d for a in anchor for d in (-1, 1)})
        else:
            cands = list(range(2 * n + 2))
        if rng.integers(0, 2):
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


def _complete_structure(edges: dict[int, dict[int, int]], cols: dict[int, int],
                        n: int, rng) -> tuple[TreeStructure, dict[int, int]]:
    V = (1 << (n + 2)) - 2
    # allocate vertex ids column by column: pinned labels first, then fresh
    vid: dict[int, int] = {}
    by_col: list[list[int]] = [[] for _ in range(2 * n + 2)]  # vertex ids per column
    column = np.empty(V, dtype=np.int64)
    side = np.empty(V, dtype=np.int64)
    next_id = 0
    for j in range(2 * n + 2):
        pinned_here = sorted(x for x, c in cols.items() if c == j)
        for x in pinned_here:
            vid[x] = next_id
            by_col[j].append(next_id)
            next_id += 1
        while len(by_col[j]) < column_size(n, j):
            by_col[j].append(next_id)
            next_id += 1
        for v in by_col[j]:
            column[v] = j
            side[v] = 0 if j <= n else 1

    adj: list[set[int]] = [set() for _ in range(V)]
    pinned_edges: set[tuple[int, int]] = set()
    for x, row in edges.items():
        for y in row.values():
            u, w = vid[x], vid[y]
            pinned_edges.add((min(u, w), max(u, w)))
            adj[u].add(w)
            adj[w].add(u)

    # complete the two binary trees: parent side toward the nearer root
    for j_child, j_parent in [(j + 1, j) for j in range(n)] + \
                             [(j - 1, j) for j in range(2 * n + 1, n + 1, -1)]:
        open_children = []
        for w in by_col[j_child]:
            if not any(column[u] == j_parent for u in adj[w]):
                open_children.append(w)
        slots = []
        for u in by_col[j_parent]:
            have = sum(1 for w in adj[u] if column[w] == j_child)
            dl, dr = _direction_slots(n, j_parent)
            cap = dr if j_child > j_parent else dl
            slots.extend([u] * (cap - have))
        if len(slots) != len(open_children):
            raise EmbeddingError("tree completion slots do not line up")
        slots = [slots[i] for i in rng.permutation(len(slots))]
        open_children = [open_children[i] for i in rng.permutation(len(open_children))]
        for u, w in zip(slots, open_children):
            adj[u].add(w)
            adj[w].add(u)

    weld_cycle = _complete_weld(adj, by_col[n], by_col[n + 1], rng)
    for i in range(len(weld_cycle)):
        u, w = weld_cycle[i], weld_cycle[(i + 1) % len(weld_cycle)]
        adj[u].add(w)
        adj[w].add(u)

    entrance = by_col[0][0]
    exit_v = by_col[2 * n + 1][0]
    structure = TreeStructure(
        n=n, vertex_count=V, column=column,
        adjacency=[tuple(sorted(s)) for s in adj],
        side=side, weld_cycle=weld_cycle, entrance=entrance, exit=exit_v)
    problems = structure.validate()
    if problems:
        raise EmbeddingError("completed structure invalid: " + "; ".join(problems[:3]))
    return structure, vid


def _complete_weld(adj: list[set[int]], l_leaves: list[int], r_leaves: list[int],
                   rng) -> list[int]:
    """Complete pinned weld edges into one alternating cycle."""
    l_set, r_set = set(l_leaves), set(r_leaves)
    pinned: dict[int, list[int]] = {v: [] for v in l_leaves + r_leaves}
    for u in l_leaves:
        for w in adj[u]:
            if w in r_set:
                pinned[u].append(w)
                pinned[w].append(u)
    for v, ps in pinned.items():
        if len(ps) > 2:
            raise EmbeddingError("a leaf carries more than two weld edges")

    # fragments: maximal alternating paths through pinned edges
    visited = set()
    fragments: list[list[int]] = []
    for v in l_leaves + r_leaves:
        if v in visited:
            continue
        if len(pinned[v]) == 2:
            continue  # interior of a fragment (or part of a closed cycle)
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
    leftovers = [v for v in l_leaves + r_leaves if v not in visited]
    if leftovers:
        # remaining pinned edges would have to be closed cycles
        if any(pinned[v] for v in leftovers):
            m = len(l_leaves)
            closed_ok = all(len(pinned[v]) == 2 for v in leftovers) and \
                len(leftovers) == 2 * m and not fragments
            if not closed_ok:
                raise EmbeddingError("pinned weld edges close a sub-cycle")
            # entries already pin the entire cycle: reconstruct it
            cyc = [l_leaves[0]]
            prev = None
            while len(cyc) < 2 * m:
                nxt = [w for w in pinned[cyc[-1]] if w != prev]
                prev = cyc[-1]
                cyc.append(nxt[0])
            return cyc if cyc[0] in l_set else cyc[1:] + cyc[:1]
        fragments.extend([v] for v in leftovers)

    def end_type(path, which):
        return "L" if path[which] in l_set else "R"

    frags = [list(p) for p in fragments]
    idx0 = int(rng.integers(0, len(frags)))
    chain = frags.pop(idx0)
    if rng.integers(0, 2):
        chain.reverse()
    while frags:
        need = "R" if chain[-1] in l_set else "L"
        options = []
        for i, p in enumerate(frags):
            if end_type(p, 0) == need:
                options.append((i, False))
            if end_type(p, -1) == need:
                options.append((i, True))
        if not options:
            raise EmbeddingError("weld completion is stuck")
        i, rev = options[int(rng.integers(0, len(options)))]
        p = frags.pop(i)
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
        for c, y in row.items():
            u, w = vid[x], vid[y]
            key = (min(u, w), max(u, w))
            if pinned.get(key, c) != c:
                raise EmbeddingError("entry edge colors contradict each other")
            pinned[key] = c
    forbid: dict[int, set[int]] = {}
    for (x, c) in _invalid_pairs(entries):
        if x in vid:
            forbid.setdefault(vid[x], set()).add(c)
    try:
        assigned = _greedy_edge_coloring(structure, rng, pinned=pinned, forbid=forbid)
    except ValueError as e:
        raise EmbeddingError(str(e)) from e
    vertex_color = rng.integers(0, 3, size=structure.vertex_count)
    return EdgeColoring(vertex_color=vertex_color, edges=assigned)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def canonicalize(bbt: BlackBoxTree) -> BlackBoxTree:
    """Isomorphic copy on the canonical vertex layout (query map unchanged)."""
    canon = generate_structure(bbt.n, 0)
    # map our structure onto the canonical one: BFS both trees in lockstep
    mapping = np.empty(bbt.structure.vertex_count, dtype=np.int64)  # old -> new

    def map_tree(root_old: int, root_new: int, side: int):
        mapping[root_old] = root_new
        frontier = [(root_old, -1, root_new)]
        while frontier:
            v_old, parent_old, v_new = frontier.pop()
            kids_old = [w for w in bbt.structure.adjacency[v_old]
                        if w != parent_old and _is_tree_child(bbt.structure, v_old, w)]
            kids_new = [w for w in canon.adjacency[v_new]
                        if _is_tree_child(canon, v_new, w)]
            for k_old, k_new in zip(sorted(kids_old), sorted(kids_new)):
                mapping[k_old] = k_new
                frontier.append((k_old, v_old, k_new))

    map_tree(bbt.structure.entrance, canon.entrance, 0)
    map_tree(bbt.structure.exit, canon.exit, 1)

    new_cycle = [int(mapping[v]) for v in bbt.structure.weld_cycle]
    V = bbt.structure.vertex_count
    adj: list[set[int]] = [set() for _ in range(V)]
    for v in range(V):
        for w in canon.adjacency[v]:
            if _is_tree_child(canon, v, w) or _is_tree_child(canon, w, v):
                adj[v].add(w)
    for i in range(len(new_cycle)):
        u, w = new_cycle[i], new_cycle[(i + 1) % len(new_cycle)]
        adj[u].add(w)
        adj[w].add(u)
    structure = TreeStructure(
        n=bbt.n, vertex_count=V, column=canon.column,
        adjacency=[tuple(sorted(s)) for s in adj], side=canon.side,
        weld_cycle=new_cycle, entrance=canon.entrance, exit=canon.exit)
    colors = np.empty(V, dtype=np.int64)
    labels = np.empty(V, dtype=np.int64)
    for v_old in range(V):
        colors[int(mapping[v_old])] = bbt.coloring.vertex_color[v_old]
        labels[int(mapping[v_old])] = bbt.labels[v_old]
    edge_map = {}
    for (u, w), c in bbt.coloring.edges.items():
        a, b = int(mapping[u]), int(mapping[w])
        edge_map[(min(a, b), max(a, b))] = c
    return BlackBoxTree(structure=structure,
                        coloring=EdgeColoring(colors, edges=edge_map),
                        labels=labels, label_bits=bbt.label_bits)


def save_tree(bbt: BlackBoxTree) -> str:
    """Canonical JSON text; byte-stable round trip with ``load_tree``."""
    c = canonicalize(bbt)
    hexw = max(1, (c.label_bits + 3) // 4)
    doc = {
        "format_version": _FORMAT_VERSION,
        "n": c.n,
        "label_bits": c.label_bits,
        "weld_cycle": [int(v) for v in c.structure.weld_cycle],
        "vertex_colors": [c.coloring.vertex_color_name(c.structure, v)
                          for v in range(c.structure.vertex_count)],
        "labels": [format(int(lab), f"0{hexw}x") for lab in c.labels],
    }
    doc["edge_colors"] = [[u, w, col] for (u, w), col
                          in sorted(c.coloring.edges.items())]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_tree(text: str) -> BlackBoxTree:
    doc = json.loads(text)
    if doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError("unknown tree format version")
    n = doc["n"]
    canon = generate_structure(n, 0)
    V = canon.vertex_count
    cycle = [int(v) for v in doc["weld_cycle"]]
    adj: list[set[int]] = [set() for _ in range(V)]
    for v in range(V):
        for w in canon.adjacency[v]:
            if _is_tree_child(canon, v, w) or _is_tree_child(canon, w, v):
                adj[v].add(w)
    for i in range(len(cycle)):
        u, w = cycle[i], cycle[(i + 1) % len(cycle)]
        adj[u].add(w)
        adj[w].add(u)
    structure = TreeStructure(
        n=n, vertex_count=V, column=canon.column,
        adjacency=[tuple(sorted(s)) for s in adj], side=canon.side,
        weld_cycle=cycle, entrance=canon.entrance, exit=canon.exit)
    problems = structure.validate()
    if problems:
        raise ValueError("loaded structure invalid: " + "; ".join(problems[:3]))
    colors = np.empty(V, dtype=np.int64)
    for v, name in enumerate(doc["vertex_colors"]):
        pal = ODD_PALETTE if structure.column[v] % 2 == 1 else EVEN_PALETTE
        colors[v] = pal.index(name)
    edge_map = {(u, w): col for u, w, col in doc["edge_colors"]}
    coloring = EdgeColoring(colors, edges=edge_map)
    problems = coloring.validate(structure)
    if problems:
        raise ValueError("loaded coloring invalid: " + "; ".join(problems[:3]))
    labels = np.array([int(h, 16) for h in doc["labels"]], dtype=np.int64)
    return BlackBoxTree(structure=structure, coloring=coloring, labels=labels,
                        label_bits=doc["label_bits"])
