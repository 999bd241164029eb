"""Independent dense-matrix oracle for checking the sparse executor.

Builds an explicit 2^W x 2^W matrix per layer, column by column, with its
own gate logic (nothing shared with weldlab.statevec beyond the oracle's
answer function), and evolves dense vectors (``dense_tier_state``); for
wide registers it carries the one input vector through the same gate logic
instead (``dense_tier_vector``).  Width-stable layers only.

For the full-graph walk, ``dense_walk_states`` diagonalizes the dense
adjacency matrix with ``np.linalg.eigh`` (small n only).
"""
from __future__ import annotations

import math

import numpy as np

from weldlab import circuits as C

_S = 1 / math.sqrt(2)


def _apply_gate_dense(vec: dict[int, complex], gate: C.Gate, n: int, bbt) -> dict[int, complex]:
    out: dict[int, complex] = {}
    if gate.kind == C.GateKind.H:
        b = 1 << gate.wires[0]
        for k, a in vec.items():
            if k & b:
                out[k & ~b] = out.get(k & ~b, 0j) + a * _S
                out[k | b] = out.get(k | b, 0j) - a * _S
            else:
                out[k & ~b] = out.get(k & ~b, 0j) + a * _S
                out[k | b] = out.get(k | b, 0j) + a * _S
        return out
    if gate.kind == C.GateKind.PHASE:
        b = 1 << gate.wires[0]
        return {k: (a * 1j if k & b else a) for k, a in vec.items()}
    if gate.kind == C.GateKind.TOFFOLI:
        ab = (1 << gate.wires[0]) | (1 << gate.wires[1])
        t = 1 << gate.wires[2]
        return {(k ^ t if (k & ab) == ab else k): a for k, a in vec.items()}
    if gate.kind == C.GateKind.QUERY:
        xw, cw, yw = C.query_registers(gate, n)
        for k, a in vec.items():
            x = sum(((k >> w) & 1) << j for j, w in enumerate(xw))
            c = sum(((k >> w) & 1) << j for j, w in enumerate(cw))
            ans = bbt.answer(x, c)
            k2 = k
            for j, w in enumerate(yw):
                if (ans >> j) & 1:
                    k2 ^= 1 << w
            out[k2] = out.get(k2, 0j) + a
        return out
    raise ValueError(f"dense reference does not model {gate.kind}")


def layer_matrix(lay: C.Layer, n: int, bbt) -> np.ndarray:
    if lay.width_in != lay.width_out:
        raise ValueError("dense reference covers width-stable layers only")
    dim = 1 << lay.width_in
    M = np.zeros((dim, dim), dtype=complex)
    for z in range(dim):
        vec = {z: 1.0 + 0j}
        for gate in lay.gates:
            vec = _apply_gate_dense(vec, gate, n, bbt)
        for k, a in vec.items():
            M[k, z] += a
    return M


def dense_tier_state(x: int, t: C.Tier, n: int, bbt) -> np.ndarray:
    dim = 1 << t.width_in
    v = np.zeros(dim, dtype=complex)
    v[x] = 1.0
    for lay in t.layers:
        v = layer_matrix(lay, n, bbt) @ v
    return v


def dense_tier_vector(x: int, t: C.Tier, n: int, bbt) -> np.ndarray:
    """``dense_tier_state`` without the matrices: the one input vector is
    carried gate by gate, so widths whose 2^W x 2^W matrices would not fit
    in memory can be checked."""
    vec = {x: 1.0 + 0j}
    for lay in t.layers:
        if lay.width_in != lay.width_out:
            raise ValueError("dense reference covers width-stable layers only")
        for gate in lay.gates:
            vec = _apply_gate_dense(vec, gate, n, bbt)
    v = np.zeros(1 << t.width_in, dtype=complex)
    for k, a in vec.items():
        v[k] += a
    return v


def adjacency_matrix(structure) -> np.ndarray:
    """The welded tree's dense 0/1 adjacency matrix."""
    A = np.zeros((structure.vertex_count,) * 2)
    for v, row in enumerate(structure.neighbors.tolist()):
        A[v, [w for w in row if w >= 0]] = 1.0
    return A


def dense_walk_states(structure, times) -> np.ndarray:
    """exp(-iAt)|entrance> for each t, one row per t, by eigendecomposition."""
    evals, evecs = np.linalg.eigh(adjacency_matrix(structure))
    phases = np.exp(-1j * np.outer(times, evals)) * evecs[structure.entrance]
    return phases @ evecs.T
