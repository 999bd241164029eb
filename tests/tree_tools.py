"""Uncounted reads of a black-box tree that tests use as tools."""
from __future__ import annotations


def vertex_row(bbt, x: int) -> dict[int, int]:
    """All nine answers at label ``x``."""
    return {c: bbt.answer(x, c) for c in range(1, 10)}


def edge_color(coloring, u: int, v: int) -> int:
    return coloring.edges[(u, v) if u < v else (v, u)]
