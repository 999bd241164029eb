"""Deterministic seeded randomness for every module in the package.

All randomness flows through 64-bit seeds.  Derived seeds are produced by a
fully specified mixing scheme (splitmix64 over the master seed and a tag
sequence), so a transcript is a pure function of (inputs, master seed) and is
bit-reproducible across platforms.  Generators are numpy ``Generator(PCG64)``
instances; PCG64 streams are platform independent.

Tags may be ints or strings.  Strings are folded with FNV-1a (64 bit), never
with Python's randomized ``hash``.
"""
from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One splitmix64 step; the standard finalizer constants."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=None)
def _fnv1a(tag: str) -> int:
    """FNV-1a (64 bit) of the UTF-8 bytes; tags are few, so each is folded once."""
    h = _FNV_OFFSET
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _fold_tag(state: int, tag: int | str) -> int:
    if isinstance(tag, str):
        tag = _fnv1a(tag)
    return splitmix64((state ^ (tag & _MASK64)) & _MASK64)


def derive_seed(master: int, *tags: int | str) -> int:
    """Derive a 64-bit subseed from a master seed and a tag path.

    Distinct tag paths give independent-looking streams; the same path always
    gives the same seed.
    """
    state = splitmix64(int(master) & _MASK64)
    for tag in tags:
        if not isinstance(tag, str):
            tag = int(tag)
        state = _fold_tag(state, tag)
    return state


def make_rng(master: int, *tags: int | str) -> np.random.Generator:
    """A PCG64 generator keyed by (master, *tags)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *tags)))
