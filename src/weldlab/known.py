"""Recorded oracle answers: the map (label, color) -> label.

A ``KnownVertices`` value holds every answer a classical procedure has
received (or is entitled to assume) from a black-box tree.  Keys are
``(label, color)`` pairs with ``color`` in 1..9; absent keys read as the
all-ones INVALID label.  ``size()`` counts distinct vertex labels appearing
as keys, which is the quantity the simulator growth and query ceilings are
stated in.

Entries are only ever added or overwritten, never removed, so the set of
key labels is kept while the entry count stands: a direct write to
``entries`` needs no hook.  Callers must not change that set.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KnownVertices:
    invalid: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    _keys: tuple = field(default=(-1, None), init=False, repr=False, compare=False)

    def key_labels(self) -> set[int]:
        if self._keys[0] != len(self.entries):
            self._keys = (len(self.entries), {x for (x, _c) in self.entries})
        return self._keys[1]

    def value_labels(self) -> set[int]:
        return {y for y in self.entries.values() if y != self.invalid}

    def known_labels(self) -> set[int]:
        """Labels of vertices known to be valid: keys plus non-INVALID values."""
        return self.key_labels() | self.value_labels()

    def size(self) -> int:
        return len(self.key_labels())

    def set_vertex(self, x: int, answers: dict[int, int]) -> None:
        """Record a full row for vertex ``x``: one entry per color 1..9."""
        labels = self.key_labels()
        for c in range(1, 10):
            self.entries[(x, c)] = answers[c]
        labels.add(x)
        self._keys = (len(self.entries), labels)

    def row(self, x: int) -> dict[int, int]:
        return {c: self.entries[(x, c)] for c in range(1, 10) if (x, c) in self.entries}

    def _with_keys(self, entries: dict, labels: set[int]) -> "KnownVertices":
        out = KnownVertices(self.invalid, entries)
        out._keys = (len(entries), labels)
        return out

    def copy(self) -> "KnownVertices":
        return self._with_keys(dict(self.entries), set(self.key_labels()))

    def merge(self, other: "KnownVertices") -> "KnownVertices":
        """Concatenate two answer dictionaries; conflicting answers are a bug."""
        if other.invalid != self.invalid:
            raise ValueError("cannot merge KnownVertices with different INVALID labels")
        merged = dict(self.entries)
        for k, v in other.entries.items():
            if k in merged and merged[k] != v:
                raise ValueError(f"inconsistent merge at key {k}: {merged[k]} != {v}")
            merged[k] = v
        return self._with_keys(merged, self.key_labels() | other.key_labels())

    def is_key_subset_of(self, other: "KnownVertices") -> bool:
        return self.key_labels() <= other.key_labels()
