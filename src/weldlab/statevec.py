"""Ground-truth executor: exact sparse state-vector simulation.

States are sparse maps from basis keys (ints, wire i = bit i of the key) to
complex amplitudes.  Norm is asserted after every layer (drift <= 1e-9) and
never renormalized; amplitudes below 1e-14 are pruned.  Discarded wires stay
in the key (deferred discard) but leave the ``live`` list, so outputs and
measurements marginalize over them.

Query gates XOR the oracle answer into the y-register, so applying the same
query layer twice is the identity.  ``query_map`` is the one query kernel:
it takes the oracle as an ``answer(x, c)`` policy, so the executor, the
classical simulators' substitution and the instrumentation's truth map all
run through it.  The executor reads the oracle through ``bbt.answer``
(query gates are quantum queries, accounted as gates by
circuits.accounting, not on the classical per-handle counter); classical
tiers of a hybrid circuit make real classical queries through a handle.

Tiers and measurement branches are walked by one driver per circuit family
(``drive_hybrid``, ``drive_jozsa``), given an oracle policy (``TrueOracle``
here, ``hybrid_sim.SimContext`` for the simulators) and a measurement rule
(draw one outcome per step, or enumerate them all).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import circuits as C
from .rng import derive_seed, make_rng
from .tree import BlackBoxTree, OracleHandle

PRUNE_TOL = 1e-14
NORM_TOL = 1e-9
EXACT_WIDTH_CAP = 22

_SQRT_HALF = 1 / math.sqrt(2)


@dataclass
class PureState:
    """Sparse pure state.  ``live[j]`` is the physical wire of logical wire j."""

    width: int
    amps: dict[int, complex]
    live: tuple[int, ...]

    @classmethod
    def basis(cls, width: int, key: int) -> "PureState":
        return cls(width=width, amps={key: 1.0 + 0j}, live=tuple(range(width)))

    @property
    def logical_width(self) -> int:
        return len(self.live)

    def norm_sq(self) -> float:
        return sum((a * a.conjugate()).real for a in self.amps.values())

    def assert_normalized(self, tol: float = NORM_TOL) -> None:
        nrm = self.norm_sq()
        if abs(nrm - 1.0) > tol:
            raise AssertionError(f"state norm drifted: |psi|^2 = {nrm!r}")

    def marginal(self, wires: int | None = None) -> dict[int, float]:
        """Probability of each outcome on the first ``wires`` logical wires
        (all by default); dead wires and the rest are traced out."""
        live = self.live[:wires]
        probs: dict[int, float] = {}
        for key, a in self.amps.items():
            z = 0
            for j, phys in enumerate(live):
                z |= ((key >> phys) & 1) << j
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


def move_amps(amps: dict[int, complex], S: dict[int, int]) -> dict[int, complex]:
    """Amplitudes carried along the basis map ``S``, in the key order of ``S``."""
    out: dict[int, complex] = {}
    for z, k in S.items():
        out[k] = out.get(k, 0j) + amps[z]
    return out


def apply_layer(state: PureState, lay: C.Layer, bbt: BlackBoxTree | None = None,
                n: int | None = None) -> PureState:
    """Apply one layer exactly; pure (returns a new state).

    ``n`` (label length parameter) is required when the layer has query
    gates, as is ``bbt``.  The gates of a layer are wire-disjoint, so the
    query gates act last, all in one pass over the support.
    """
    if state.logical_width != lay.width_in:
        raise ValueError(f"layer expects {lay.width_in} wires, state has "
                         f"{state.logical_width}")
    prev_norm = state.norm_sq()
    width = state.width
    live = list(state.live)
    anc_phys: dict[int, int] = {}
    for gate in lay.gates:
        if gate.kind == C.GateKind.ANCILLA:
            anc_phys[gate.wires[0]] = width
            width += 1

    def phys(w: int) -> int:
        return anc_phys[w] if w in anc_phys else live[w]

    amps = dict(state.amps)
    regs = []
    for gate in lay.gates:
        if gate.kind == C.GateKind.ANCILLA or gate.kind == C.GateKind.DISCARD:
            continue
        if gate.kind == C.GateKind.H:
            bit = 1 << phys(gate.wires[0])
            new: dict[int, complex] = {}
            for key, a in amps.items():
                s = a * _SQRT_HALF
                k0, k1 = key & ~bit, key | bit
                new[k0] = new.get(k0, 0j) + s
                new[k1] = new.get(k1, 0j) + (-s if key & bit else s)
            amps = new
        elif gate.kind == C.GateKind.PHASE:
            bit = 1 << phys(gate.wires[0])
            amps = {k: (a * 1j if k & bit else a) for k, a in amps.items()}
        elif gate.kind == C.GateKind.TOFFOLI:
            a_bit = 1 << phys(gate.wires[0])
            b_bit = 1 << phys(gate.wires[1])
            t_bit = 1 << phys(gate.wires[2])
            amps = {(k ^ t_bit if (k & a_bit) and (k & b_bit) else k): a
                    for k, a in amps.items()}
        elif gate.kind == C.GateKind.QUERY:
            if bbt is None or n is None:
                raise ValueError("query gate needs the black-box tree and n")
            regs.append(tuple(tuple(phys(w) for w in reg)
                              for reg in C.query_registers(gate, n)))
        else:
            raise ValueError(f"unknown gate kind {gate.kind}")
    if regs:
        amps = move_amps(amps, query_map(amps, regs, bbt.answer))

    out = PureState(width=width, amps=_prune(amps),
                    live=tuple(phys(w) for w in range(lay.width_out)))
    nrm = out.norm_sq()
    if abs(nrm - prev_norm) > NORM_TOL:
        raise AssertionError(f"layer changed norm by {nrm - prev_norm!r}")
    return out


def sample_outcome(probs: dict[int, float], rng) -> int:
    keys = sorted(probs)
    total = sum(probs[k] for k in keys)
    u = rng.random() * total
    acc = 0.0
    for k in keys:
        acc += probs[k]
        if u <= acc:
            return k
    return keys[-1]


def eval_classical_layer(x: int, lay: C.Layer, bbt: BlackBoxTree,
                         handle: OracleHandle | None, n: int) -> int:
    """Classical evaluation on a plain bitstring; queries via ``handle``."""
    out = x
    regs = []
    for gate in lay.gates:
        if gate.kind == C.GateKind.TOFFOLI:
            a, b, t_ = gate.wires
            if (out >> a) & 1 and (out >> b) & 1:
                out ^= 1 << t_
        elif gate.kind == C.GateKind.QUERY:
            regs.append(C.query_registers(gate, n))
        elif gate.kind not in (C.GateKind.ANCILLA, C.GateKind.DISCARD):
            raise ValueError(f"{gate.kind.value} in a classical layer")
    if regs:
        answer = handle.query if handle is not None else bbt.answer
        out = query_map([out], regs, answer)[out]
    return out & ((1 << lay.width_out) - 1)


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
        for lay in t.layers:
            x = eval_classical_layer(x, lay, self.bbt, self.handle, self.n)
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


def _branches(probs: dict[int, float], rng) -> list[tuple[int, float]]:
    """(outcome, probability) branches of one measurement: the outcome drawn
    from ``rng``, or with ``rng=None`` every outcome with p > 0 in key order,
    renormalized only if substituted queries put the norm off."""
    if rng is not None:
        return [(sample_outcome(probs, rng), 1.0)]
    total = sum(probs.values())
    scale = total if abs(total - 1.0) > 1e-12 else 1.0
    return [(y, p / scale) for y, p in sorted(probs.items()) if p > 0]


def drive_hybrid(circuit: C.HybridCircuit, policy, rng_for, known=None,
                 tiers: int | None = None) -> tuple[dict[int, float], object]:
    """Run the first ``tiers`` tiers from the all-zeros input, depth first.

    ``rng_for(i)`` draws tier i's outcome; ``rng_for=None`` enumerates them.
    Returns ({output: probability}, the policy's ``known`` at the last branch).
    """
    tiers = circuit.eta if tiers is None else tiers
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
    sel = {k: a for k, a in state.amps.items() if k & mask == r1_bits}
    nrm = math.sqrt(sum((a * a.conjugate()).real for a in sel.values()))
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
                          lambda i: make_rng(derive_seed(seed, "tier", i), "tier-measurement"))
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
                         lambda i: make_rng(seed, "r1", i) if i else make_rng(seed, "final"))
    return next(iter(acc))


def run_jozsa_exact(circuit: C.JozsaCircuit, bbt: BlackBoxTree) -> OutputDistribution:
    C.require_valid(circuit)
    _check_exact_cap(circuit)
    acc, _ = drive_jozsa(circuit, TrueOracle(bbt, circuit.n), None)
    return OutputDistribution(circuit.g, acc)
