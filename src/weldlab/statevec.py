"""Ground-truth executor: exact sparse state-vector simulation.

States are sparse maps from basis keys (ints, wire i = bit i of the key) to
complex amplitudes.  A state's norm is summed once, when first asked for,
and kept; every layer asserts its output's norm against its input's (drift
<= 1e-9) and never renormalizes.  Amplitudes below 1e-14 are pruned after
layers with H gates, whose sums are the only way to make one: P, TOF and
query gates move or rotate amplitudes and keep every magnitude.  Discarded
wires stay in the key (deferred discard) but leave the ``live`` list, so
outputs and measurements marginalize over them.  A layer of ANC and DIS
gates only (or none) moves no amplitude: its output shares the input's
amplitude mapping and norm.

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
  times their count, else through a sort: either gives the same groups;
* amplitudes that meet on one key are summed in that order, starting from
  0.0 as ``dict.get(k, 0j) + a`` does (``np.bincount``, ``np.cumsum``;
  ``np.sum`` and ``reduceat`` sum pairwise, and builtin ``sum`` compensates
  from Python 3.12 on, so neither kernel uses them -- see ``seq_sum``);
* |a|^2 is re*re + im*im and |a| is ``np.hypot``, as Python computes them;
* products and quotients of complex amplitudes by 1j, 1/sqrt(2) or a norm
  are taken part by part with Python's formulas (numpy's complex division
  multiplies by a reciprocal).

Query gates XOR the oracle answer into the y-register, so applying the same
query layer twice is the identity.  A layer's query gates write y wires that
none of them reads, so they permute the support.  ``query_map`` (dicts) and
``query_keys`` (arrays) are the one query kernel: each takes the oracle as a
policy, so the executor, the classical simulators' substitution and the
instrumentation's truth map all run through it.  The executor reads the
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
EXACT_WIDTH_CAP = 22
# Smallest support that takes the array kernel.  Measured per step on
# 16-wire states (2 cores, Python 3.11, numpy 2.4): arrays win from about
# 16 amplitudes for marginals, 40 for query layers, 64 for instrumented
# simulator layers and layers without H, and 150 to 300 reached amplitudes
# for layers of 3 to 5 H gates.
ARRAY_MIN_SUPPORT = 128
# Keys below TABLE_SPAN times their count are grouped through a table of
# 8 bytes per possible key, not a sort.  On random keys (2 cores, numpy 2.4,
# 128 to 65,536 keys) the table is 1.2-3.4x faster up to a span of 16x and
# breaks even at 32-64x; at 8x it is about the size of the sort's temporaries.
TABLE_SPAN = 8
KEY_BITS = 62               # physical wires an int64 key array can hold

_SQRT_HALF = 1 / math.sqrt(2)


def use_arrays(support: int, width: int) -> bool:
    """Whether a step over ``support`` amplitudes of a ``width``-wire state
    takes the array kernel."""
    return support >= ARRAY_MIN_SUPPORT and width <= KEY_BITS


def seq_sum(values):
    """Left-to-right sum from 0, as CPython 3.11's ``sum`` adds floats.

    An array is summed with ``np.cumsum``; anything else with ``reduce``.
    Empty input gives the int 0, as ``sum`` does.
    """
    if isinstance(values, np.ndarray):
        return float(np.cumsum(values)[-1]) if values.size else 0
    return functools.reduce(operator.add, values, 0)


def abs_sq(vals: np.ndarray) -> np.ndarray:
    """|a|^2 of complex amplitudes, as ``(a * a.conjugate()).real``."""
    return vals.real * vals.real + vals.imag * vals.imag


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
    order = np.argsort(keys)
    sk = keys[order]
    starts = np.empty(sk.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=starts[1:])
    if np.count_nonzero(starts) == keys.size:
        return keys, idx
    firsts = np.minimum.reduceat(order, np.flatnonzero(starts))   # per key, sorted
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
        out |= ((keys >> w) & ((1 << length) - 1)) << j
    return out


def _scatter(vals: np.ndarray, wires) -> np.ndarray:
    """Bit ``wires[j]`` of the result is bit j of each value."""
    out = np.zeros_like(vals)
    for w, j, length in _runs(wires):
        out |= ((vals >> j) & ((1 << length) - 1)) << w
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
        """Squared norm, summed once: a state's amplitudes never change."""
        if self._norm_sq is None:
            if self.wide:
                self._norm_sq = seq_sum(abs_sq(self.arrays()[1]))
            else:
                self._norm_sq = seq_sum((a * a.conjugate()).real for a in self.amps.values())
        return self._norm_sq

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
        total = sum(self.probs.values())
        if abs(total - 1.0) > NORM_TOL:
            raise AssertionError(f"probabilities sum to {total!r}")


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _prune(amps: dict[int, complex]) -> dict[int, complex]:
    return {k: a for k, a in amps.items() if abs(a) >= PRUNE_TOL}


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


def gather_queries(keys: np.ndarray, regs) -> tuple[np.ndarray, np.ndarray]:
    """(xs, cs) of shape (keys, gates): each key's x and c registers under
    each query gate of ``regs`` (at least one), as ``query_keys`` asks them."""
    return (np.stack([_gather(keys, px) for px, _pc, _py in regs], axis=1),
            np.stack([_gather(keys, pc) for _px, pc, _py in regs], axis=1))


def query_keys(keys: np.ndarray, regs, answer_many, queries=None) -> np.ndarray:
    """``query_map`` over an int64 key array: each key's image, aligned.

    ``answer_many(xs, cs)`` answers arrays of shape (keys, gates); their
    row-major order is the order in which ``query_map`` asks its policy.
    ``queries`` is ``gather_queries(keys, regs)`` when the caller has
    gathered it already, to ask a second oracle of the same keys.
    """
    if not regs:
        return keys
    ans = answer_many(*(queries or gather_queries(keys, regs)))
    moved = keys.copy()
    for g, (_px, _pc, py) in enumerate(regs):
        moved ^= _scatter(ans[:, g], py)
    return moved


def distinct_answers(answer):
    """An ``answer_many`` policy that asks ``answer(x, c)`` once per distinct
    pair, in row-major order of first appearance.

    A policy that learns as it answers (the simulators' substitution) has
    no side effect on a repeated pair, so it learns what, and in the order,
    it would under ``query_map``.  c registers are four wires wide.
    """
    def answer_many(xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        pairs, group = _first_groups(((xs << 4) | cs).ravel())
        got = np.array([answer(p >> 4, p & 15) for p in pairs.tolist()], dtype=np.int64)
        return got[group].reshape(xs.shape)
    return answer_many


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


def _steps_arrays(keys: np.ndarray, re: np.ndarray, im: np.ndarray, steps):
    """``_steps_dict`` on arrays, bit for bit (see the module docstring)."""
    for kind, bit, t_bit in steps:
        if kind == C.GateKind.H:
            # a * (1/sqrt 2) on |0>, negated on |1> for keys that had the
            # bit, each summed onto its key from 0.0
            ones = np.count_nonzero(keys & bit)
            k0 = keys & ~bit
            if ones == 0 or ones == keys.size:
                # no key meets its partner: each sum is one s + 0.0, and
                # -s + 0.0 is 0.0 - (s + 0.0)
                re, im = re * _SQRT_HALF + 0.0, im * _SQRT_HALF + 0.0
                re, im = _interleave(re, 0.0 - re if ones else re), \
                    _interleave(im, 0.0 - im if ones else im)
            else:
                hi = (keys & bit) != 0
                s_re, s_im = re * _SQRT_HALF, im * _SQRT_HALF
                k0, group = _first_groups(k0)
                re = _interleave(np.bincount(group, s_re, k0.size),
                                 np.bincount(group, np.where(hi, -s_re, s_re), k0.size))
                im = _interleave(np.bincount(group, s_im, k0.size),
                                 np.bincount(group, np.where(hi, -s_im, s_im), k0.size))
            keys = _interleave(k0, k0 | bit)
        elif kind == C.GateKind.PHASE:
            # a * 1j = (re*0 - im, re + im*0)
            hit = (keys & bit) != 0
            re, im = np.where(hit, re * 0.0 - im, re), np.where(hit, re + im * 0.0, im)
        else:
            keys = np.where((keys & bit) == bit, keys ^ t_bit, keys)
    return keys, re, im


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
                n: int | None = None) -> PureState:
    """Apply one layer exactly; pure (returns a new state).

    ``n`` (label length parameter) is required when the layer has query
    gates, as is ``bbt``.  The gates of a layer are wire-disjoint, so the
    query gates act last, all in one pass over the support.  The input is
    taken to be pruned already (every state this module makes is).
    """
    if state.logical_width != lay.width_in:
        raise ValueError(f"layer expects {lay.width_in} wires, state has "
                         f"{state.logical_width}")
    width, steps, regs, live_out, n_h = layer_plan(lay, state.width, state.live, n)
    if regs and bbt is None:
        raise ValueError("query gate needs the black-box tree and n")

    if not steps and not regs:
        # ANC and DIS only move wires in and out of ``live``: the amplitudes
        # and their norm carry over as they are
        amps = state.amps
        if isinstance(amps, ArrayMap) and width > KEY_BITS:
            amps = amps.as_dict()
        out = PureState(width=width, amps=amps, live=live_out)
        out._norm_sq = state._norm_sq
        return out
    prev_norm = state.norm_sq()
    # P, TOF and queries move or rotate amplitudes, never shrink one, so only
    # an H gate's sums can leave one below PRUNE_TOL
    if use_arrays(len(state.amps) << n_h, width):
        keys, vals = state.arrays()
        keys, re, im = _steps_arrays(keys, vals.real, vals.imag, steps)
        if regs:
            # the query permutes the support; move_amps adds each to 0j
            keys = query_keys(keys, regs, bbt.answer_many)
            re, im = re + 0.0, im + 0.0
        if n_h:
            keep = np.hypot(re, im) >= PRUNE_TOL
            if not keep.all():
                keys, re, im = keys[keep], re[keep], im[keep]
        amps = ArrayMap(keys, _complex(re, im))
    else:
        amps = _steps_dict(state.amps, steps)
        if regs:
            amps = move_amps(amps, query_map(amps, regs, bbt.answer))
        if n_h:
            amps = _prune(amps)
    out = PureState(width=width, amps=amps, live=live_out)
    nrm = out.norm_sq()
    if abs(nrm - prev_norm) > NORM_TOL:
        raise AssertionError(f"layer changed norm by {nrm - prev_norm!r}")
    return out


def sample_outcome(probs: dict[int, float], u: float) -> int:
    """The outcome the uniform ``u`` in [0, 1) picks, outcomes in key order."""
    keys = sorted(probs)
    total = sum(probs[k] for k in keys)
    u = u * total
    acc = 0.0
    for k in keys:
        acc += probs[k]
        if u <= acc:
            return k
    return keys[-1]


def eval_classical_layer(x: int, lay: C.Layer, n: int | None, answer) -> int:
    """A classical layer on the bitstring ``x``: its plan's Toffoli steps,
    then its query registers through ``query_map`` with the policy ``answer``."""
    plan = layer_plan(lay, lay.width_in, tuple(range(lay.width_in)), n)
    for kind, bits, t_bit in plan.steps:
        if kind != C.GateKind.TOFFOLI:
            raise ValueError(f"{kind.value} in a classical layer")
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
        if t.kind != "classical":
            raise ValueError("classical tier expected")
        answer = self.handle.query if self.handle is not None else self.bbt.answer
        for lay in t.layers:
            x = eval_classical_layer(x, lay, self.n, answer)
        return x, known

    def layer(self, i: int, li: int, lay: C.Layer, state: PureState, known):
        return apply_layer(state, lay, self.bbt, self.n), known

    def quantum_tier(self, i: int, t: C.Tier, x: int, known):
        """Outcome distribution of quantum tier ``t`` from basis input ``x``."""
        if t.kind != "quantum":
            raise ValueError("quantum tier expected")
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
    total = sum(probs.values())
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


def _check_exact_cap(circuit: C.Circuit) -> None:
    widest = max((lay.working_width for t in C._iter_tiers(circuit) for lay in t.layers),
                 default=0)
    if widest > EXACT_WIDTH_CAP:
        raise ValueError(f"exact mode caps working width at {EXACT_WIDTH_CAP}, "
                         f"circuit reaches {widest}")


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
    _check_exact_cap(circuit)
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
    _check_exact_cap(circuit)
    acc, _ = drive_jozsa(circuit, TrueOracle(bbt, circuit.n), None)
    return OutputDistribution(circuit.g, acc)
