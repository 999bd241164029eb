"""Recorded oracle answers: the map (label, color) -> label.

A ``KnownVertices`` value holds every answer a classical procedure has
received (or is entitled to assume) from a black-box tree.  Keys are
``(label, color)`` pairs with ``color`` in 1..9; absent keys read as the
all-ones INVALID label.  ``size()`` counts distinct vertex labels appearing
as keys, which is the quantity the simulator growth and query ceilings are
stated in.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KnownVertices:
    invalid: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def get(self, x: int, c: int) -> int:
        return self.entries.get((x, c), self.invalid)

    def has_key(self, x: int, c: int) -> bool:
        return (x, c) in self.entries

    def key_labels(self) -> set[int]:
        return {x for (x, _c) in self.entries}

    def value_labels(self) -> set[int]:
        return {y for y in self.entries.values() if y != self.invalid}

    def known_labels(self) -> set[int]:
        """Labels of vertices known to be valid: keys plus non-INVALID values."""
        return self.key_labels() | self.value_labels()

    def size(self) -> int:
        return len(self.key_labels())

    def set_vertex(self, x: int, answers: dict[int, int]) -> None:
        """Record a full row for vertex ``x``: one entry per color 1..9."""
        for c in range(1, 10):
            self.entries[(x, c)] = answers[c]

    def row(self, x: int) -> dict[int, int]:
        return {c: self.entries[(x, c)] for c in range(1, 10) if (x, c) in self.entries}

    def copy(self) -> "KnownVertices":
        return KnownVertices(self.invalid, dict(self.entries))

    def merge(self, other: "KnownVertices") -> "KnownVertices":
        """Concatenate two answer dictionaries; conflicting answers are a bug."""
        if other.invalid != self.invalid:
            raise ValueError("cannot merge KnownVertices with different INVALID labels")
        merged = dict(self.entries)
        for k, v in other.entries.items():
            if k in merged and merged[k] != v:
                raise ValueError(f"inconsistent merge at key {k}: {merged[k]} != {v}")
            merged[k] = v
        return KnownVertices(self.invalid, merged)

    def is_key_subset_of(self, other: "KnownVertices") -> bool:
        return self.key_labels() <= other.key_labels()

    def __len__(self) -> int:
        return len(self.entries)
