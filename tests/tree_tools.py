"""Uncounted reads of a black-box tree that tests use as tools."""
from __future__ import annotations

import numpy as np

from weldlab import tree, walk
from weldlab.rng import derive_seed, make_rng


def vertex_row(bbt, x: int) -> dict[int, int]:
    """All nine answers at label ``x``."""
    return {c: bbt.answer(x, c) for c in range(1, 10)}


def edge_color(coloring, u: int, v: int) -> int:
    return coloring.edges[(u, v) if u < v else (v, u)]


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


def eager_discovery_rate(n: int, h: int, trials: int, seed: int) -> tuple[float, float]:
    """(rate, stderr) of the guessing experiment on eagerly labeled trees.

    An independent reference for ``harness.discovery_rate``: every trial
    gets its own ``tree.generate_labels`` tree on one colored structure,
    all of them walked in lockstep by ``walk.blind_walks`` through one
    row-aligned ``tree.LabelingBatch``, and a hit is a uniform guess that
    labels a vertex its walk never stood on.
    """
    structure = tree.generate_structure(n, derive_seed(seed, "structure"))
    coloring = tree.generate_coloring(structure, derive_seed(seed, "coloring"))
    labels = np.stack([tree.generate_labels(structure, coloring,
                                            derive_seed(seed, "labels", t)).labels
                       for t in range(trials)])
    batch = tree.LabelingBatch(structure, coloring, labels, 2 * n)
    rng = make_rng(seed, "eager trials")
    seen = walk.blind_walks(tree.OracleHandle(batch), h, trials, rng)
    guess = rng.integers(0, 1 << (2 * n), size=trials)
    hits = np.count_nonzero((batch.vertex_of(guess) >= 0) & (seen != guess[:, None]).all(axis=1))
    p = hits / trials
    return p, float(np.sqrt(p * (1 - p) / trials))
