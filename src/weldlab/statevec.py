"""Ground-truth executor: exact sparse state-vector simulation.

States are sparse maps from basis keys (ints, wire i = bit i of the key) to
complex amplitudes.  A state keeps two squared norms, each summed once, when
first asked for.  ``norm_sq`` is report-grade: summed left to right, as is
every sum that reaches a report (a fidelity, an outlier mass, a marginal, a
distribution's total), so that no reported bit depends on the kernel or on
numpy's reduction order.  ``check_sq`` serves only the layer check: every
layer asserts its output's against its input's (drift <= 1e-9) and never
renormalizes.  On arrays it is one einsum pass with no temporary, in numpy's
order, and a layer that only moves amplitudes (ANC and DIS, the simulators'
substitution and sort) carries it over.  Amplitudes below 1e-14 are pruned after
layers with H gates, whose sums are the only way to make one: P, TOF and
query gates move or rotate amplitudes and keep every magnitude.  Discarded
wires stay in the key (deferred discard) but leave the ``live`` list, so
outputs and measurements marginalize over them.  A layer of ANC and DIS
gates only (or none) moves no amplitude: its output shares the input's
amplitude mapping and both norms.

Representation.  ``PureState.amps`` is a dict, or for a wide state an
``ArrayMap``: an int64 key array and a complex128 amplitude array that read
as a mapping (its dict is built only for a lookup or an iteration).  Every
step -- a layer, a query substitution, a marginal, a norm, an R1
measurement -- picks its kernel by support size: Python dict loops below
``ARRAY_MIN_SUPPORT`` amplitudes, numpy at or above it.  A layer is judged
by its input support times 2^(H gates in the layer), the support it may
reach.  A dict loop costs about a microsecond per amplitude and gate; a
numpy step makes ten to forty calls of a few microseconds each whatever
the size, so one-amplitude tiers stay several times faster on dicts.  The
measured crossover (see ``ARRAY_MIN_SUPPORT``) sits above nearly all of the
Bottleneck's layers and below the exact comparisons' wide ones.  Keys of
the array kernel are int64, so a state wider than ``KEY_BITS`` physical
wires (deferred discards add up) keeps the dict loops.  The threshold is
not an option: it changes speed, never a result, because both kernels give
bit-identical states:

* keys keep the dict's insertion order (first occurrence).  Where keys
  meet, ``_first_groups`` finds each one's first element through a table
  indexed by key (``np.minimum.at``) if the keys are below ``TABLE_SPAN``
  times their count, else as the first of its run in ``stable_order`` (one
  sort of keys packed above their indices): either gives the same groups;
* amplitudes that meet on one key are summed in that order, starting from
  0.0 as ``dict.get(k, 0j) + a`` does (``np.bincount``, ``np.cumsum``;
  ``np.sum`` and ``reduceat`` sum pairwise, and builtin ``sum`` compensates
  from Python 3.12 on, so neither kernel uses them -- see ``seq_sum``);
* |a|^2 is re*re + im*im and |a| is ``np.hypot``, as Python computes them
  (the prune takes it only where max(|re|, |im|) leaves it undecided);
* products and quotients of complex amplitudes by 1j, 1/sqrt(2) or a norm
  are taken part by part with Python's formulas (numpy's complex division
  multiplies by a reciprocal).

A wide layer writes its result once: an int64 key array and one complex128
amplitude array.  It takes the ``+ 0.0`` of a query in place on arrays it
made itself, and it never writes an array that its input holds.  A layer
of TOF gates only shares its input's amplitudes.  A run of H gates on
wires every key agrees on (from a basis state, every wire) is one
broadcast, with no grouping and no sums.  A run of P and TOF gates turns
each amplitude once per P wire its key has set, in one pass.

Query gates XOR the oracle answer into the y-register, so applying the same
query layer twice is the identity.  A layer's query gates write y wires that
none of them reads, so they permute the support.  ``query_map`` (dicts) and
``move_keys`` (arrays) are the one query kernel: each moves keys by the
answers of an oracle policy, so the executor, the classical simulators'
substitution and the instrumentation's truth map all run through it.  On
arrays the executor asks ``bbt.answer_many`` of every key (``query_keys``).
The simulators group a layer's distinct (x, c) pairs once
(``query_pairs``): the substitution is asked each pair in its order of
first asking, and the truth map asks ``bbt.answer_many`` of the same
pairs.  The executor reads the
oracle through ``bbt.answer``/``bbt.answer_many`` (query gates are quantum
queries, accounted as gates by circuits.accounting, not on the classical
per-handle counter); classical tiers of a hybrid circuit make real classical
queries through a handle.

Tiers and measurement branches are walked by one driver per circuit family
(``drive_hybrid``, ``drive_jozsa``), given an oracle policy (``TrueOracle``
here, ``hybrid_sim.SimContext`` for the simulators) and a measurement rule
(draw one outcome per step, or enumerate them all).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import circuits as C
from .rng import derive_seed, make_rng
from .tree import BlackBoxTree, OracleHandle

PRUNE_TOL = 1e-14
NORM_TOL = 1e-9
# Smallest support that takes the array kernel.  Measured per step on
# 16-wire states (2 cores, Python 3.11, numpy 2.4): arrays win from about
# 16 amplitudes for marginals, 40 for query layers, 64 for instrumented
# simulator layers and layers without H, and 150 to 300 reached amplitudes
# for layers of 3 to 5 H gates.
ARRAY_MIN_SUPPORT = 128
# Most amplitudes a layer with H gates may hold (width bounds nothing a
# sparse state allocates).  Above its input, an H layer peaks at 40 bytes per
# output amplitude on arrays and an instrumented simulator query layer at 78
# (tracemalloc, 2^16 outputs, tests/test_layer_memory.py); an H layer on
# dicts at 164 (2^17 outputs).  At 2^22 that is about 170, 330 and 700 MB,
# what one run on a desk machine can spare.
EXACT_SUPPORT_CAP = 1 << 22
# Keys below TABLE_SPAN times their count are grouped through a table of
# 8 bytes per possible key, not a sort.  On random keys (2 cores, numpy 2.4,
# 128 to 65,536 keys) the table is 1.2-3.4x faster up to a span of 16x and
# breaks even at 32-64x; at 8x it is about the size of the sort's temporaries.
TABLE_SPAN = 8
# ``stable_order`` packs from PACK_MIN_KEYS keys.  On exact-wide layers' keys
# (2 cores, AVX-512, numpy 2.4) stable argsort and its gather took 4.2, 7.2
# and 14 us at 256, 512 and 1,024 keys, packing 6.7, 8.2 and 13 us; from 2,048
# keys packing is 1.7-2.1x faster (124 against 257 us at 16,384 keys).
PACK_MIN_KEYS = 1024
KEY_BITS = 62               # physical wires an int64 key array can hold

_SQRT_HALF = 1 / math.sqrt(2)


def use_arrays(support: int, width: int) -> bool:
    """Whether a step over ``support`` amplitudes of a ``width``-wire state
    takes the array kernel."""
    return support >= ARRAY_MIN_SUPPORT and width <= KEY_BITS


def seq_sum(values):
    """Left-to-right sum from 0, as CPython 3.11's ``sum`` adds floats.

    An array is summed with ``np.cumsum`` in place: its running sums
    overwrite it, so a caller passes an array it made for the sum.  Anything
    else is summed with ``reduce``.  Empty input gives the int 0, as ``sum``
    does.
    """
    if isinstance(values, np.ndarray):
        return float(np.cumsum(values, out=values)[-1]) if values.size else 0
    return functools.reduce(operator.add, values, 0)


def abs_sq(vals: np.ndarray) -> np.ndarray:
    """|a|^2 of complex amplitudes, as ``(a * a.conjugate()).real``."""
    out = vals.real * vals.real
    out += vals.imag * vals.imag
    return out


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.size, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


class ArrayMap(Mapping):
    """A read-only ``{key: value}`` mapping held as two aligned arrays.

    Iteration follows the arrays' order.  ``len`` reads the array; any
    lookup or iteration goes through a dict built on first use.
    """

    __slots__ = ("key_array", "value_array", "_dict")

    def __init__(self, key_array: np.ndarray, value_array: np.ndarray):
        self.key_array = key_array
        self.value_array = value_array
        self._dict = None

    def as_dict(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self.key_array.tolist(), self.value_array.tolist()))
        return self._dict

    def __len__(self) -> int:
        return self.key_array.size

    def __iter__(self):
        return iter(self.as_dict())

    def __getitem__(self, key):
        return self.as_dict()[key]


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``np.argsort(keys, kind="stable")``, the keys in that order): one sort
    of each key packed above its index, read back from the low and high bits.
    Short arrays, negative keys and keys too wide to leave room for the
    index take ``np.argsort``; both give the same order."""
    bits = (keys.size - 1).bit_length()
    if (keys.size < PACK_MIN_KEYS or keys.min() < 0
            or int(keys.max()).bit_length() + bits > 63):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys << bits
    packed |= np.arange(keys.size)
    packed.sort()
    return packed & ((1 << bits) - 1), packed >> bits


def _first_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys in order of first occurrence, each element's group).

    ``group[i]`` indexes the distinct key of ``keys[i]``, so
    ``np.bincount(group, w)`` sums ``w`` per key in element order -- what a
    dict filled by ``d[k] = d.get(k, 0.0) + w`` holds, in the same order.
    """
    idx = np.arange(keys.size)
    if keys.size and keys.min() >= 0 and (top := int(keys.max())) < TABLE_SPAN * keys.size:
        table = np.full(top + 1, keys.size)
        np.minimum.at(table, keys, idx)         # each key's first index
        firsts = np.flatnonzero(table[keys] == idx)
        if firsts.size == keys.size:
            return keys, idx
        distinct = keys[firsts]
        table[distinct] = np.arange(firsts.size)
        return distinct, table[keys]
    order, sk = stable_order(keys)
    starts = np.empty(sk.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=starts[1:])
    if np.count_nonzero(starts) == keys.size:
        return keys, idx
    firsts = order[starts]          # per key, sorted: the order is stable
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[firsts] = True
    rank = np.cumsum(is_first) - 1          # of each first index, by appearance
    group = np.empty_like(order)
    group[order] = rank[firsts][np.cumsum(starts) - 1]
    return keys[is_first], group


def _runs(wires) -> list[list[int]]:
    """[first wire, first bit, length] of each run of consecutive wires."""
    runs: list[list[int]] = []
    for j, w in enumerate(wires):
        if runs and w == runs[-1][0] + runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([w, j, 1])
    return runs


def _gather(keys: np.ndarray, wires) -> np.ndarray:
    """Bit j of the result is bit ``wires[j]`` of each key."""
    out = np.zeros_like(keys)
    for w, j, length in _runs(wires):
        part = keys >> w
        part &= (1 << length) - 1
        part <<= j
        out |= part
    return out


def _scatter(vals: np.ndarray, wires) -> np.ndarray:
    """Bit ``wires[j]`` of the result is bit j of each value."""
    out = np.zeros_like(vals)
    for w, j, length in _runs(wires):
        part = vals >> j
        part &= (1 << length) - 1
        part <<= w
        out |= part
    return out


@dataclass
class PureState:
    """Sparse pure state.  ``live[j]`` is the physical wire of logical wire j.

    ``amps`` is a dict or, for states made by the array kernel, an
    ``ArrayMap``; either reads as ``{key: amplitude}`` in insertion order.
    """

    width: int
    amps: Mapping[int, complex]
    live: tuple[int, ...]
    _norm_sq: float | None = field(default=None, init=False, repr=False, compare=False)
    _check_sq: float | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def basis(cls, width: int, key: int) -> "PureState":
        return cls(width=width, amps={key: 1.0 + 0j}, live=tuple(range(width)))

    @property
    def logical_width(self) -> int:
        return len(self.live)

    @property
    def wide(self) -> bool:
        """Whether steps over this state take the array kernel."""
        return use_arrays(len(self.amps), self.width)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(int64 keys, complex128 amplitudes), in the order of ``amps``."""
        if isinstance(self.amps, ArrayMap):
            return self.amps.key_array, self.amps.value_array
        count = len(self.amps)
        return (np.fromiter(self.amps, np.int64, count),
                np.fromiter(self.amps.values(), np.complex128, count))

    def norm_sq(self) -> float:
        """Squared norm, summed once (a state's amplitudes never change) and
        report-grade: left to right, as the dict kernel sums it."""
        if self._norm_sq is None:
            if self.wide:
                self._norm_sq = seq_sum(abs_sq(self.arrays()[1]))
            else:
                self._norm_sq = seq_sum((a * a.conjugate()).real for a in self.amps.values())
        return self._norm_sq

    def check_sq(self) -> float:
        """Squared norm for ``apply_layer``'s check, summed once.  On arrays it
        is one einsum pass over the float64 view, with no temporary and in
        numpy's order, so its last bits are not ``norm_sq``'s (``np.dot`` would
        be BLAS, which may start threads); on a dict it is ``norm_sq``."""
        if self._check_sq is None:
            if isinstance(self.amps, ArrayMap):
                f = self.amps.value_array.view(np.float64)
                self._check_sq = float(np.einsum("i,i->", f, f))
            else:
                self._check_sq = self.norm_sq()
        return self._check_sq

    def marginal(self, wires: int | None = None) -> dict[int, float]:
        """Probability of each outcome on the first ``wires`` logical wires
        (all by default); dead wires and the rest are traced out."""
        live = self.live[:wires]
        if self.wide:
            keys, vals = self.arrays()
            zs, group = _first_groups(_gather(keys, live))
            return dict(zip(zs.tolist(),
                            np.bincount(group, abs_sq(vals), zs.size).tolist()))
        runs = [(w, j, (1 << length) - 1) for w, j, length in _runs(live)]
        probs: dict[int, float] = {}
        for key, a in self.amps.items():
            z = 0
            for w, j, mask in runs:
                z |= ((key >> w) & mask) << j
            probs[z] = probs.get(z, 0.0) + (a * a.conjugate()).real
        return probs


@dataclass
class OutputDistribution:
    """An exact output distribution; its norm is checked when it is made."""

    width: int
    probs: dict[int, float]

    def __post_init__(self) -> None:
        if any(p < -1e-12 for p in self.probs.values()):
            raise AssertionError("negative probability")
        total = seq_sum(self.probs.values())
        if abs(total - 1.0) > NORM_TOL:
            raise AssertionError(f"probabilities sum to {total!r}")


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * seq_sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _prune(amps: dict[int, complex]) -> dict[int, complex]:
    return {k: a for k, a in amps.items() if abs(a) >= PRUNE_TOL}


def _prune_arrays(keys: np.ndarray, vals: np.ndarray):
    """``_prune`` on arrays: keeps where ``np.hypot(re, im) >= PRUNE_TOL``.
    hypot lies in [m, sqrt(2) m] for m = max(|re|, |im|), and faithful
    rounding keeps both bounds, so only PRUNE_TOL/2 <= m < PRUNE_TOL takes it."""
    re, im = vals.real, vals.imag
    m = np.abs(re)
    np.maximum(m, np.abs(im), out=m)
    keep = m >= PRUNE_TOL
    if keep.all():
        return keys, vals
    band = ~keep & (m >= PRUNE_TOL / 2)
    keep[band] = np.hypot(re[band], im[band]) >= PRUNE_TOL
    return keys[keep], vals[keep]


def query_map(keys, regs, answer) -> dict[int, int]:
    """Where one layer's query gates send each basis key: ``{key: key'}``.

    ``regs`` holds one (x wires, c wires, y wires) triple of physical wires
    per query gate and ``answer(x, c)`` is the oracle policy; each answer is
    XORed into its gate's y-register.  Keys are visited in the order given,
    so a policy that learns as it answers sees them in that order.
    """
    out = {}
    for key in keys:
        moved = key
        for px, pc, py in regs:
            x = c = 0
            for j, w in enumerate(px):
                x |= ((key >> w) & 1) << j
            for j, w in enumerate(pc):
                c |= ((key >> w) & 1) << j
            ans = answer(x, c)
            for j, w in enumerate(py):
                if (ans >> j) & 1:
                    moved ^= 1 << w
        out[key] = moved
    return out


def _columns(cols: list[np.ndarray]) -> np.ndarray:
    """The arrays as the columns of one (keys, gates) array; a single one is
    viewed, not copied."""
    return cols[0][:, None] if len(cols) == 1 else np.stack(cols, axis=1)


def move_keys(keys: np.ndarray, regs, ans: np.ndarray) -> np.ndarray:
    """Each key with the answers ``ans``, of shape (keys, gates), XORed into
    the y-registers of ``regs``."""
    for g, (_px, _pc, py) in enumerate(regs):
        keys = keys ^ _scatter(ans[:, g], py)
    return keys


def query_keys(keys: np.ndarray, regs, answer_many) -> np.ndarray:
    """``query_map`` over an int64 key array and at least one query gate:
    each key's image, aligned.  ``answer_many(xs, cs)`` answers each key's x
    and c registers under each gate, arrays of shape (keys, gates)."""
    xs = _columns([_gather(keys, px) for px, _pc, _py in regs])
    cs = _columns([_gather(keys, pc) for _px, pc, _py in regs])
    return move_keys(keys, regs, answer_many(xs, cs))


def query_pairs(keys: np.ndarray, regs) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, group): the distinct ``(x << 4) | c`` pairs that ``query_map``
    asks of ``keys`` under ``regs``, in its order of first asking, and the
    index into ``pairs`` of each (key, gate), of shape (keys, gates).

    ``answers[group]`` for answers aligned with ``pairs`` is what
    ``move_keys`` takes.  A policy that learns as it answers (the
    simulators' substitution) has no side effect on a repeated pair, so
    asked once per pair in this order it learns what, and in the order, it
    would under ``query_map``.  c registers are four wires wide.
    """
    # c takes bits 0..3 and x the bits above: (x << 4) | c in one gather
    asked = _columns([_gather(keys, pc + px) for px, pc, _py in regs])
    pairs, group = _first_groups(asked.ravel())
    return pairs, group.reshape(asked.shape)


def add_zero(vals: np.ndarray, held: np.ndarray | None) -> np.ndarray:
    """``vals + 0.0``, each amplitude added to 0j as ``move_amps`` does:
    in place, unless ``vals`` is ``held``, an array an input state holds."""
    if vals is held:
        return vals + 0.0
    vals += 0.0
    return vals


def move_amps(amps: dict[int, complex], S: dict[int, int]) -> dict[int, complex]:
    """Amplitudes carried along the basis map ``S``, in the key order of ``S``."""
    out: dict[int, complex] = {}
    for z, k in S.items():
        out[k] = out.get(k, 0j) + amps[z]
    return out


def _steps_dict(amps: dict[int, complex], steps) -> dict[int, complex]:
    for kind, bit, t_bit in steps:
        if kind == C.GateKind.H:
            new: dict[int, complex] = {}
            for key, a in amps.items():
                s = a * _SQRT_HALF
                k0, k1 = key & ~bit, key | bit
                new[k0] = new.get(k0, 0j) + s
                new[k1] = new.get(k1, 0j) + (-s if key & bit else s)
            amps = new
        elif kind == C.GateKind.PHASE:
            amps = {k: (a * 1j if k & bit else a) for k, a in amps.items()}
        else:
            amps = {(k ^ t_bit if (k & bit) == bit else k): a for k, a in amps.items()}
    return amps


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _h_broadcast(keys: np.ndarray, vals: np.ndarray, bits) -> tuple[np.ndarray, np.ndarray]:
    """H on each wire of ``bits`` in turn, wires on which every key agrees.

    No key meets its partner, so each of the dict kernel's sums is one
    s + 0.0, and on |1> of a wire the keys have set, -s + 0.0 = 0.0 - (s + 0.0).
    That negation carries through the next gate's s + 0.0, so amplitude i
    ends as its m-fold s + 0.0, negated on the branches that pick |1> on an
    odd number of set wires.  Branch j of key i (one bit per gate, the first
    gate's highest) sits at i * 2^m + j, where the dict kernel puts it.
    """
    re, im = vals.real, vals.imag
    for _bit in bits:
        re, im = re * _SQRT_HALF + 0.0, im * _SQRT_HALF + 0.0
    s = _complex(re, im)

    def branches(bits):
        """(key bits, negated) of each branch of ``bits``, the first gate's bit highest."""
        key_bits, negated = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool)
        for bit in reversed(bits):
            key_bits = np.concatenate([key_bits, key_bits | bit])
            negated = np.concatenate([negated, negated ^ bool(keys[0] & bit)])
        return key_bits, negated

    # two halves, so that no step of the doubling writes the full width
    (hi_bits, hi_neg), (lo_bits, lo_neg) = (branches(bits[:len(bits) // 2]),
                                            branches(bits[len(bits) // 2:]))
    negated = (hi_neg[:, None] ^ lo_neg).ravel()
    out = np.empty((keys.size, negated.size), dtype=np.complex128)
    out[...] = s[:, None]
    if negated.any():
        np.copyto(out, (0.0 - s)[:, None], where=negated)
    keys = (((keys & ~sum(bits))[:, None] | hi_bits)[:, :, None] | lo_bits).ravel()
    return keys, out.ravel()


def _h_meeting(keys: np.ndarray, vals: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """H on one wire on which the keys differ: a * (1/sqrt 2) on |0>, negated
    on |1> for keys that had the bit, each summed onto its key from 0.0."""
    hi = (keys & bit) != 0
    k0, group = _first_groups(keys & ~bit)
    s_re, s_im = vals.real * _SQRT_HALF, vals.imag * _SQRT_HALF
    out = np.empty(2 * k0.size, dtype=np.complex128)
    out.real[0::2] = np.bincount(group, s_re, k0.size)
    out.real[1::2] = np.bincount(group, np.where(hi, -s_re, s_re), k0.size)
    out.imag[0::2] = np.bincount(group, s_im, k0.size)
    out.imag[1::2] = np.bincount(group, np.where(hi, -s_im, s_im), k0.size)
    return _interleave(k0, k0 | bit), out


def _turn(vals: np.ndarray) -> np.ndarray:
    """``a * 1j`` of each amplitude as Python takes it: (re*0 - im, re + im*0)."""
    out = np.empty_like(vals)
    np.multiply(vals.real, 0.0, out=out.real)
    out.real -= vals.imag
    np.multiply(vals.imag, 0.0, out=out.imag)
    out.imag += vals.real
    return out


def _quarter_turns(keys: np.ndarray, vals: np.ndarray, bits) -> np.ndarray:
    """P on each wire of ``bits``: each amplitude turned once per wire its key
    has set.  Four turns can flip the sign of a zero, so the count is not
    taken mod 4."""
    turns = np.zeros(keys.size, dtype=np.uint8)
    for bit in bits:
        turns += (keys & bit) != 0
    # one turn for every amplitude, taken back where the key has no wire set
    out = _turn(vals)
    unturned = np.flatnonzero(turns == 0)
    out[unturned] = vals[unturned]
    for count in range(2, len(bits) + 1):
        sel = np.flatnonzero(turns == count)
        turned = out[sel]
        for _turn_more in range(count - 1):
            turned = _turn(turned)
        out[sel] = turned
    return out


def _steps_arrays(keys: np.ndarray, vals: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """``_steps_dict`` on arrays, bit for bit (see the module docstring).

    Each run of H gates on wires every key agrees on is one broadcast; the P
    gates of each run of P and TOF gates are one pass.  No H gate changes
    whether the keys agree on another wire, and the gates of a layer are
    wire-disjoint, so no TOF moves a P wire.  ``vals`` is never written:
    a layer of TOF gates only returns it as it is.
    """
    for is_h, run in itertools.groupby(steps, key=lambda step: step[0] == C.GateKind.H):
        if is_h:
            agree = ~int(np.bitwise_or.reduce(keys) ^ np.bitwise_and.reduce(keys))
            for broadcast, bits in itertools.groupby((bit for _kind, bit, _t in run),
                                                     key=lambda bit: bool(bit & agree)):
                if broadcast:
                    keys, vals = _h_broadcast(keys, vals, list(bits))
                else:
                    for bit in bits:
                        keys, vals = _h_meeting(keys, vals, bit)
            continue
        phases = []
        for kind, bit, t_bit in run:
            if kind == C.GateKind.PHASE:
                phases.append(bit)
            else:
                keys = np.where((keys & bit) == bit, keys ^ t_bit, keys)
        if phases:
            vals = _quarter_turns(keys, vals, phases)
    return keys, vals


class LayerPlan(NamedTuple):
    """A layer's gates in physical wires, for one state width and ``live``."""

    width: int              # physical wires after the layer's ancillas
    steps: tuple            # (kind, control or target bit, Toffoli target bit)
    regs: tuple             # (x, c, y) physical wires of each query gate, by first wire
    live_out: tuple[int, ...]
    n_h: int                # H gates


def layer_plan(lay: C.Layer, width: int, live: tuple[int, ...], n: int | None) -> LayerPlan:
    """The plan of ``lay`` on a ``width``-wire state with logical wires
    ``live``, built once per (width, live, n) and kept in ``lay.plans``.

    A layer that cannot be planned raises ``ValueError`` on every call, as
    nothing is kept for it.
    """
    key = (width, live, n)
    plan = lay.plans.get(key)
    if plan is not None:
        return plan
    anc_phys: dict[int, int] = {}
    for gate in lay.gates:
        if gate.kind == C.GateKind.ANCILLA:
            anc_phys[gate.wires[0]] = width
            width += 1

    def phys(w: int) -> int:
        return anc_phys[w] if w in anc_phys else live[w]

    steps = []
    for gate in lay.gates:
        if gate.kind in (C.GateKind.H, C.GateKind.PHASE):
            steps.append((gate.kind, 1 << phys(gate.wires[0]), 0))
        elif gate.kind == C.GateKind.TOFFOLI:
            a, b, t = (phys(w) for w in gate.wires)
            steps.append((gate.kind, (1 << a) | (1 << b), 1 << t))
    queries = lay.split[1].gates
    if queries and n is None:
        raise ValueError("query gate needs the black-box tree and n")
    # in first-wire order (``C.Layer.split``), the order in which a policy
    # that learns as it answers is asked
    regs = [tuple(tuple(phys(w) for w in reg) for reg in C.query_registers(gate, n))
            for gate in queries]
    plan = LayerPlan(width=width, steps=tuple(steps), regs=tuple(regs),
                     live_out=tuple(phys(w) for w in range(lay.width_out)),
                     n_h=sum(kind == C.GateKind.H for kind, _b, _t in steps))
    lay.plans[key] = plan
    return plan


def apply_layer(state: PureState, lay: C.Layer, bbt: BlackBoxTree | None = None,
                n: int | None = None, tier: int = 0, layer: int = 0) -> PureState:
    """Apply one layer exactly; pure (returns a new state).

    ``n`` (label length parameter) is required when the layer has query
    gates, as is ``bbt``.  The gates of a layer are wire-disjoint, so the
    query gates act last, all in one pass over the support.  The input is
    taken to be pruned already (every state this module makes is).
    ``tier`` and ``layer`` locate a refusal by ``EXACT_SUPPORT_CAP``.
    """
    if state.logical_width != lay.width_in:
        raise ValueError(f"layer expects {lay.width_in} wires, state has "
                         f"{state.logical_width}")
    width, steps, regs, live_out, n_h = layer_plan(lay, state.width, state.live, n)
    if regs and bbt is None:
        raise ValueError("query gate needs the black-box tree and n")
    # each H gate at most doubles the support, never past 2^width; no other gate grows it
    if n_h and (bound := min(len(state.amps) << n_h, 1 << width)) > EXACT_SUPPORT_CAP:
        raise ValueError(f"tier {tier}, layer {layer} may hold {bound} amplitudes, past the "
                         f"support cap 2^{EXACT_SUPPORT_CAP.bit_length() - 1} = {EXACT_SUPPORT_CAP}")

    if not steps and not regs:
        # ANC and DIS only move wires in and out of ``live``: the amplitudes
        # and both norms carry over as they are
        amps = state.amps
        if isinstance(amps, ArrayMap) and width > KEY_BITS:
            amps = amps.as_dict()
        out = PureState(width=width, amps=amps, live=live_out)
        out._norm_sq, out._check_sq = state._norm_sq, state._check_sq
        return out
    prev_norm = state.check_sq()
    # P, TOF and queries move or rotate amplitudes, never shrink one, so only
    # an H gate's sums can leave one below PRUNE_TOL
    if use_arrays(len(state.amps) << n_h, width):
        keys, held = state.arrays()
        keys, vals = _steps_arrays(keys, held, steps)
        if regs:
            # the query permutes the support; move_amps adds each to 0j
            keys = query_keys(keys, regs, bbt.answer_many)
            vals = add_zero(vals, held)
        if n_h:
            keys, vals = _prune_arrays(keys, vals)
        amps = ArrayMap(keys, vals)
    else:
        amps = _steps_dict(state.amps, steps)
        if regs:
            amps = move_amps(amps, query_map(amps, regs, bbt.answer))
        if n_h:
            amps = _prune(amps)
    out = PureState(width=width, amps=amps, live=live_out)
    nrm = out.check_sq()
    if abs(nrm - prev_norm) > NORM_TOL:
        raise AssertionError(f"layer changed norm by {nrm - prev_norm!r}")
    return out


def sample_outcome(probs: dict[int, float], u: float) -> int:
    """The outcome the uniform ``u`` in [0, 1) picks, outcomes in key order."""
    keys = sorted(probs)
    total = seq_sum(probs[k] for k in keys)
    u = u * total
    acc = 0.0
    for k in keys[:-1]:
        acc += probs[k]
        if u <= acc:
            return k
    return keys[-1]


def eval_classical_layer(x: int, lay: C.Layer, n: int | None, answer) -> int:
    """A classical layer on the bitstring ``x``: its plan's Toffoli steps,
    then its query registers through ``query_map`` with the policy ``answer``.
    ``circuits.validate`` allows no H or P gate in a classical layer."""
    plan = layer_plan(lay, lay.width_in, tuple(range(lay.width_in)), n)
    for _kind, bits, t_bit in plan.steps:
        if x & bits == bits:
            x ^= t_bit
    return query_map([x], plan.regs, answer)[x] & ((1 << lay.width_out) - 1)


# ---------------------------------------------------------------------------
# Tier drivers: one per circuit family, shared by the executor and the
# classical simulators
# ---------------------------------------------------------------------------

@dataclass
class TrueOracle:
    """The executor's oracle policy: every query gets the tree's answer.

    A policy serves the drivers' three steps (``i`` is the 1-based tier and
    ``known`` whatever the policy carries between them: nothing here, the
    recorded answers in the simulators).  Classical queries are counted on
    ``handle`` if one is given.
    """

    bbt: BlackBoxTree
    n: int
    handle: OracleHandle | None = None

    def classical_tier(self, i: int, t: C.Tier, x: int, known):
        answer = self.handle.query if self.handle is not None else self.bbt.answer
        for lay in t.layers:
            x = eval_classical_layer(x, lay, self.n, answer)
        return x, known

    def layer(self, i: int, li: int, lay: C.Layer, state: PureState, known):
        return apply_layer(state, lay, self.bbt, self.n, i, li), known

    def quantum_tier(self, i: int, t: C.Tier, x: int, known):
        """Outcome distribution of quantum tier ``t`` from basis input ``x``."""
        state = PureState.basis(t.width_in, x)
        for li, lay in enumerate(t.layers):
            state, known = self.layer(i, li, lay, state, known)
        return state.marginal(), known


def _branches(probs: dict[int, float], u: float | None) -> list[tuple[int, float]]:
    """(outcome, probability) branches of one measurement: the outcome the
    uniform ``u`` picks, or with ``u=None`` every outcome with p > 0 in key order,
    renormalized only when float drift over many outcomes puts the total off 1
    (no layer changes the norm: a query layer permutes the support)."""
    if u is not None:
        return [(sample_outcome(probs, u), 1.0)]
    total = seq_sum(probs.values())
    scale = total if abs(total - 1.0) > 1e-12 else 1.0
    return [(y, p / scale) for y, p in sorted(probs.items()) if p > 0]


def drive_hybrid(circuit: C.HybridCircuit, policy, rng_for, known=None,
                 tiers: int | None = None) -> tuple[dict[int, float], object]:
    """Run the first ``tiers`` tiers from the all-zeros input, depth first.

    ``rng_for(i)`` is the uniform that measures tier i; ``None`` enumerates outcomes.
    Returns ({output: probability}, the policy's ``known`` at the last branch).
    """
    tiers = circuit.eta if tiers is None else tiers
    if not 0 <= tiers <= circuit.eta:
        raise ValueError(f"tier count {tiers} out of range 0..{circuit.eta}")
    acc: dict[int, float] = {}
    stack = [(0, 0, known, 1.0)]
    while stack:
        i, x, known, weight = stack.pop()
        if i == tiers:
            acc[x] = acc.get(x, 0.0) + weight
            continue
        t = circuit.tiers[i]
        x &= (1 << t.width_in) - 1
        if t.kind == "classical":
            x, known = policy.classical_tier(i + 1, t, x, known)
            branches = [(x, 1.0)]
        else:
            probs, known = policy.quantum_tier(i + 1, t, x, known)
            branches = _branches(probs, rng_for and rng_for(i + 1))
        stack.extend((i + 1, y, known, weight * p) for y, p in reversed(branches))
    return acc, known


def _measure_r1(state: PureState, r1: int, x: int, half: int) -> PureState:
    """Collapse R1 (the first ``half`` logical wires) onto ``r1``, renormalize,
    and overwrite R1 with the classical tier's output ``x``."""
    wires = state.live[:half]
    mask = sum(1 << w for w in wires)
    r1_bits, x_bits = (sum(((v >> j) & 1) << w for j, w in enumerate(wires))
                       for v in (r1, x))
    # the kept keys agree on R1, so overwriting R1 merges none of them
    if state.wide:
        keys, vals = state.arrays()
        sel = (keys & mask) == r1_bits
        keys, vals = keys[sel], vals[sel]
        nrm = math.sqrt(seq_sum(abs_sq(vals)))
        if nrm == 0:
            raise AssertionError("measured an outcome of probability zero")
        # 0j + a / nrm, divided part by part as Python divides by a real
        amps = ArrayMap((keys & ~mask) | x_bits,
                        _complex(vals.real / nrm + 0.0, vals.imag / nrm + 0.0))
        return PureState(width=state.width, live=state.live, amps=amps)
    sel = {k: a for k, a in state.amps.items() if k & mask == r1_bits}
    nrm = math.sqrt(seq_sum((a * a.conjugate()).real for a in sel.values()))
    if nrm == 0:
        raise AssertionError("measured an outcome of probability zero")
    new: dict[int, complex] = {}
    for key, a in sel.items():
        k2 = (key & ~mask) | x_bits
        new[k2] = new.get(k2, 0j) + a / nrm
    return PureState(width=state.width, live=state.live, amps=new)


def drive_jozsa(circuit: C.JozsaCircuit, policy, rng_for,
                known=None) -> tuple[dict[int, float], object]:
    """Jozsa circuits: R1 measured after each quantum tier, R2 stays quantum.

    As ``drive_hybrid``; ``rng_for(i)`` serves the R1 measurement after
    quantum tier i and ``rng_for(0)`` the final one.
    """
    half = circuit.r1_width
    acc: dict[int, float] = {}
    stack = [(0, PureState.basis(circuit.n, 0), known, 1.0)]
    while stack:
        i, state, known, weight = stack.pop()
        if i == circuit.eta:
            for z, p in _branches(state.marginal(), rng_for and rng_for(0)):
                acc[z] = acc.get(z, 0.0) + weight * p
            continue
        for li, lay in enumerate(circuit.quantum_tiers[i].layers):
            state, known = policy.layer(i + 1, li, lay, state, known)
        branches = []
        for r1, p in _branches(state.marginal(half), rng_for and rng_for(i + 1)):
            x, k = policy.classical_tier(i + 1, circuit.classical_tiers[i], r1, known)
            branches.append((i + 1, _measure_r1(state, r1, x, half), k, weight * p))
        stack.extend(reversed(branches))
    return acc, known


def run_hybrid(circuit: C.HybridCircuit, bbt: BlackBoxTree, seed: int,
               handle: OracleHandle | None = None) -> int:
    """Sampled execution; input is the all-zeros n-bit string."""
    C.require_valid(circuit)
    acc, _ = drive_hybrid(circuit, TrueOracle(bbt, circuit.n, handle),
                          lambda i: make_rng(derive_seed(seed, "tier", i),
                                             "tier-measurement").random())
    return next(iter(acc))


def run_hybrid_exact(circuit: C.HybridCircuit, bbt: BlackBoxTree) -> OutputDistribution:
    """Exact output distribution over the final tier's output bits."""
    C.require_valid(circuit)
    acc, _ = drive_hybrid(circuit, TrueOracle(bbt, circuit.n), None)
    return OutputDistribution(circuit.tiers[-1].width_out, acc)


def run_jozsa(circuit: C.JozsaCircuit, bbt: BlackBoxTree, seed: int,
              handle: OracleHandle | None = None) -> int:
    C.require_valid(circuit)
    acc, _ = drive_jozsa(circuit, TrueOracle(bbt, circuit.n, handle),
                         lambda i: (make_rng(seed, "r1", i) if i
                                    else make_rng(seed, "final")).random())
    return next(iter(acc))


def run_jozsa_exact(circuit: C.JozsaCircuit, bbt: BlackBoxTree) -> OutputDistribution:
    C.require_valid(circuit)
    acc, _ = drive_jozsa(circuit, TrueOracle(bbt, circuit.n), None)
    return OutputDistribution(circuit.g, acc)
