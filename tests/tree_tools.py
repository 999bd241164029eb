"""Uncounted reads of a black-box tree that tests use as tools."""
from __future__ import annotations

import numpy as np

from weldlab import tree
from weldlab.rng import derive_seed, make_rng


def vertex_row(bbt, x: int) -> dict[int, int]:
    """All nine answers at label ``x``."""
    return {c: bbt.answer(x, c) for c in range(1, 10)}


def edge_color(coloring, u: int, v: int) -> int:
    return int(np.flatnonzero(coloring.by_color[u] == v)[0])


def coloring_problems(structure, coloring) -> list[str]:
    """Why ``coloring`` is not a proper edge coloring of ``structure`` with
    the colors 1..9: a vertex whose table row does not hold each of its
    edges once outside column 0, or an edge colored at one end only."""
    problems = []
    table = coloring.by_color.tolist()
    for v, row in enumerate(structure.neighbors.tolist()):
        colored = [w for w in table[v] if w >= 0]
        if table[v][0] >= 0 or sorted(colored) != sorted(w for w in row if w >= 0):
            problems.append(f"vertex {v}'s edges do not each have one color in 1..9")
        for c, w in enumerate(table[v]):
            if w >= 0 and table[w][c] != v:
                problems.append(f"edge {v}-{w} has color {c} at vertex {v} only")
    return problems


def exit_label(bbt) -> int:
    """The exit vertex's label: grading only, hidden from algorithms under test."""
    return int(bbt.labels[bbt.structure.exit])


def label_walks(oracle, colors: np.ndarray) -> np.ndarray:
    """Lockstep blind walks in label space from the entrance label 0.

    Step t asks each walk's query on ``colors[t]`` (one color per walk) in
    one ``oracle.answer_many`` call and moves the walks whose answer is not
    ``oracle.invalid``.  Returns the (walks, steps + 1) labels each walk
    stands on before and after each step.
    """
    steps, walks = colors.shape
    path = np.zeros((walks, steps + 1), dtype=np.int64)
    for t in range(steps):
        answers = oracle.answer_many(path[:, t], colors[t])
        path[:, t + 1] = np.where(answers != oracle.invalid, answers, path[:, t])
    return path


def labeled_blackbox(n: int, seed: int, label_bits: int) -> tree.BlackBoxTree:
    """``tree.make_blackbox(n, seed)`` with labels from a ``label_bits``-bit
    space, drawn as ``tree.generate_labels`` draws its 2n-bit ones.  n=1
    needs at least 3 bits; 60-bit labels test lookup keys."""
    structure = tree.generate_structure(n, seed)
    coloring = tree.generate_coloring(structure, seed)
    drawn = tree._sample_distinct(make_rng(seed, "labels"), 1, (1 << label_bits) - 1,
                                  structure.vertex_count - 1)
    return tree.BlackBoxTree(structure=structure, coloring=coloring,
                             labels=np.insert(drawn, structure.entrance, 0),
                             label_bits=label_bits)


class LabelingBatch:
    """B injective labelings of one colored welded tree, asked row-aligned.

    Row b is an oracle of its own: ``answer_many(xs, cs)`` asks labeling b
    for ``xs[..., b]`` (a single row answers every element).  A lookup is a
    ``searchsorted`` over the sorted labels, each row offset into its own
    2^label_bits range, followed by a read of the vertex-by-color neighbour
    table; no dict and no 2^label_bits-sized array is built.
    """

    def __init__(self, structure: tree.TreeStructure, coloring: tree.EdgeColoring,
                 labels: np.ndarray, label_bits: int):
        rows, V = labels.shape
        if label_bits + rows.bit_length() > 62:
            raise ValueError(f"{rows} rows of {label_bits}-bit labels overflow "
                             f"the int64 lookup keys")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.label_bits = label_bits
        self._neighbors = coloring.by_color
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
        return tree.invalid_label(self.label_bits)

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
        """``tree.BlackBoxTree.answer`` elementwise, row-aligned; uncounted."""
        cs = np.asarray(cs, dtype=np.int64)
        v = self.vertex_of(xs)
        asked = (v >= 0) & (cs >= 1) & (cs <= 9)
        w = np.where(asked, self._neighbors[np.maximum(v, 0), np.clip(cs, 0, 9)], -1)
        found = self.labels.ravel()[self._label_base + np.maximum(w, 0)]
        return np.where(w >= 0, found, self.invalid)


def eager_discovery_rate(n: int, h: int, trials: int, seed: int) -> tuple[float, float]:
    """(rate, stderr) of the guessing experiment on eagerly labeled trees.

    An independent reference for ``harness.discovery_rate``: every trial
    gets its own ``tree.generate_labels`` tree on one colored structure,
    all of them walked in label space by ``label_walks`` through one
    row-aligned ``LabelingBatch``, and a hit is a uniform guess that
    labels a vertex its walk never stood on.
    """
    structure = tree.generate_structure(n, derive_seed(seed, "structure"))
    coloring = tree.generate_coloring(structure, derive_seed(seed, "coloring"))
    labels = np.stack([tree.generate_labels(structure, coloring,
                                            derive_seed(seed, "labels", t)).labels
                       for t in range(trials)])
    batch = LabelingBatch(structure, coloring, labels, 2 * n)
    rng = make_rng(seed, "eager trials")
    colors = np.array([rng.integers(1, 10, size=trials) for _ in range(h)]).reshape(h, trials)
    seen = label_walks(batch, colors)
    guess = rng.integers(0, 1 << (2 * n), size=trials)
    hits = np.count_nonzero((batch.vertex_of(guess) >= 0) & (seen != guess[:, None]).all(axis=1))
    p = hits / trials
    return p, float(np.sqrt(p * (1 - p) / trials))
