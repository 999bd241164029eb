"""Random circuit corpora for tests.

X on a wire is not in the gate set; bit-setters use the H,P,P,H sandwich
(HZH = X), which is how adversarial circuits hardcode a guess label into
the x-register before querying.
"""
from __future__ import annotations

from weldlab import circuits as C


def query_gate(n: int, base: int = 0) -> C.Gate:
    """A query gate on the contiguous wires base .. base+4n+3."""
    return C.Gate(C.GateKind.QUERY, tuple(range(base, base + 4 * n + 4)))


def tier(kind: str, layers: list[C.Layer]) -> C.Tier:
    """A tier of ``layers`` (at least one), its widths read from its ends."""
    return C.Tier(kind, tuple(layers), layers[0].width_in, layers[-1].width_out)


def total_quantum_layers(circuit: C.Circuit) -> int:
    return sum(t.depth for t in C._iter_tiers(circuit) if t.kind == "quantum")


def _x_layers(width: int, wires: list[int]) -> list[C.Layer]:
    """Four layers realizing X on each listed wire (H, P, P, H)."""
    if not wires:
        return []
    h = C.layer(width, [C.Gate(C.GateKind.H, (w,)) for w in wires])
    p = C.layer(width, [C.Gate(C.GateKind.PHASE, (w,)) for w in wires])
    return [h, p, p, h]


def random_quantum_layer(rng, width: int, n: int, p_query: float = 0.5) -> C.Layer:
    wires = [int(w) for w in rng.permutation(width)]
    gates: list[C.Gate] = []
    if width >= 4 * n + 4 and rng.random() < p_query:
        q = wires[: 4 * n + 4]
        wires = wires[4 * n + 4:]
        gates.append(C.Gate(C.GateKind.QUERY, tuple(q)))
    while wires:
        r = rng.random()
        if r < 0.35:
            gates.append(C.Gate(C.GateKind.H, (wires.pop(),)))
        elif r < 0.5:
            gates.append(C.Gate(C.GateKind.PHASE, (wires.pop(),)))
        elif r < 0.75 and len(wires) >= 3:
            gates.append(C.Gate(C.GateKind.TOFFOLI,
                                (wires.pop(), wires.pop(), wires.pop())))
        else:
            wires.pop()  # idle wire
    return C.layer(width, gates)


def random_classical_layer(rng, width: int, n: int, p_query: float = 0.5) -> C.Layer:
    wires = [int(w) for w in rng.permutation(width)]
    gates: list[C.Gate] = []
    if width >= 4 * n + 4 and rng.random() < p_query:
        q = wires[: 4 * n + 4]
        wires = wires[4 * n + 4:]
        gates.append(C.Gate(C.GateKind.QUERY, tuple(q)))
    while len(wires) >= 3:
        if rng.random() < 0.6:
            gates.append(C.Gate(C.GateKind.TOFFOLI,
                                (wires.pop(), wires.pop(), wires.pop())))
        else:
            wires.pop()
    return C.layer(width, gates)


def _grow_layer(width_in: int, width_out: int) -> C.Layer:
    gates = [C.Gate(C.GateKind.ANCILLA, (w,)) for w in range(width_in, width_out)]
    return C.Layer(width_in, width_out, tuple(gates))


def random_hybrid(rng, n: int, g: int, eta: int, max_c: int, max_q: int,
                  p_query: float = 0.5, all_quantum: bool = False) -> C.HybridCircuit:
    """A valid random hybrid circuit; tier 1 grows the width from n to g."""
    tiers: list[C.Tier] = []
    for i in range(1, eta + 1):
        quantum = all_quantum or (i % 2 == 0)
        width_in = n if i == 1 else g
        layers: list[C.Layer] = []
        if width_in < g:
            layers.append(_grow_layer(width_in, g))
        depth = int(rng.integers(1, (max_q if quantum else max_c) + 1))
        while len(layers) < depth:
            if quantum:
                layers.append(random_quantum_layer(rng, g, n, p_query))
            else:
                layers.append(random_classical_layer(rng, g, n, p_query))
        kind = "quantum" if quantum else "classical"
        tiers.append(tier(kind, layers))
    circ = C.HybridCircuit(n=n, g=g, tiers=tuple(tiers), all_quantum=all_quantum)
    C.require_valid(circ)
    return circ


def random_jozsa(rng, n: int, g: int, eta: int, max_c: int, max_q: int,
                 p_query: float = 0.5) -> C.JozsaCircuit:
    qts: list[C.Tier] = []
    cts: list[C.Tier] = []
    half = g // 2
    for i in range(1, eta + 1):
        width_in = n if i == 1 else g
        layers: list[C.Layer] = []
        if width_in < g:
            layers.append(_grow_layer(width_in, g))
        depth = int(rng.integers(1, max_q + 1))
        while len(layers) < depth:
            layers.append(random_quantum_layer(rng, g, n, p_query))
        qts.append(tier("quantum", layers))
        cdepth = int(rng.integers(1, max_c + 1))
        clayers = [random_classical_layer(rng, half, n, p_query)
                   for _ in range(cdepth)]
        cts.append(tier("classical", clayers))
    circ = C.JozsaCircuit(n=n, g=g, quantum_tiers=tuple(qts),
                          classical_tiers=tuple(cts))
    C.require_valid(circ)
    return circ


def entrance_query_circuit(n: int, extra_h: int = 2) -> C.HybridCircuit:
    """Queries the entrance label (x-register left all-zeros) in superposition.

    Every simulated query branch hits the known entrance row or an invalid
    color, so the simulator is exact on this circuit for every labeling.
    """
    g = 4 * n + 4 + extra_h
    grow = _grow_layer(n, g)
    h_wires = [2 * n + j for j in range(2)]  # low c-register wires: colors vary
    h_wires += [4 * n + 4 + j for j in range(extra_h)]
    h_layer = C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in h_wires])
    q_layer = C.layer(g, [query_gate(n)])
    c1 = tier("classical", [grow])
    q1 = tier("quantum", [h_layer, q_layer])
    return C.HybridCircuit(n=n, g=g, tiers=(c1, q1))


def hardcoded_guess_circuit(n: int, guess: int, color: int | None = None,
                            queries: int = 1) -> C.HybridCircuit:
    """Writes ``guess`` into the x-register (HPPH bit-setters), then queries.

    ``color=None`` puts the c-register in uniform superposition over all 16
    values, hitting every color the guessed vertex might have; a fixed color
    is written with bit-setters.  The simulator treats the guess as unknown,
    so whenever the guess is a valid label with a queried-color edge the
    branch is an outlier.
    """
    g = 4 * n + 4
    grow = _grow_layer(n, g)
    set_wires = [j for j in range(2 * n) if (guess >> j) & 1]
    c_wires = list(range(2 * n, 2 * n + 4))
    if color is not None:
        set_wires += [c_wires[j] for j in range(4) if (color >> j) & 1]
    layers = _x_layers(g, set_wires)
    if color is None:
        layers.append(C.layer(g, [C.Gate(C.GateKind.H, (w,)) for w in c_wires]))
    if not layers:
        layers = [C.identity_layer(g)]
    for _ in range(queries):
        layers.append(C.layer(g, [query_gate(n)]))
        layers.append(C.layer(g, [query_gate(n)]))  # uncompute keeps y clean
    layers.pop()  # leave the final query's answer in y
    c1 = tier("classical", [grow])
    q1 = tier("quantum", layers)
    return C.HybridCircuit(n=n, g=g, tiers=(c1, q1))
