"""Uncounted reads of a black-box tree that tests use as tools."""
from __future__ import annotations

import numpy as np

from weldlab import tree
from weldlab.rng import make_rng


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
