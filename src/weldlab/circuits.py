"""Relativized layered circuits: gates, layers, tiers, hybrid and Jozsa shapes.

Wire convention: logical wires 0..width-1, least significant bit first.  A
layer is depth-1 (no wire touched twice).  Width changes only at the tail:
a growing layer introduces wires [width_in, width_out) with one ANC gate
each; a shrinking layer discards wires [width_out, width_in) with one DIS
gate each.  Discards are deferred by executors (wire kept, excluded from
outputs).  Within a tier, consecutive layer widths chain exactly; between
tiers, extra outputs are traced (the next tier consumes a prefix).

Query gates span 4n+4 wires: the x-register (2n wires), the c-register
(4 wires encoding colors 1..9; other values mean "no such color" and the
oracle answers INVALID), and the y-register (2n wires, XORed with the
answer, so a query layer is self-inverse).

Circuit text format (one tier per block, one layer per line, gates as
NAME(w1,w2,...)):

    hybrid n=2 g=12        # or "hybrid-allq", "jozsa"
    tier classical
      ANC(2) ANC(3)
      TOF(0,1,2)
    tier quantum
      H(0) QRY(0,1,2,3,4,5,6,7,8,9,10,11)
      -

"-" is an identity layer; "#" starts a comment.  Jozsa circuits alternate
"tier quantum" (widths n->g then g->g) with "tier classical" blocks that act
on register R1, the first g/2 wires.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property


class GateKind(Enum):
    H = "H"
    PHASE = "P"
    TOFFOLI = "TOF"
    QUERY = "QRY"
    ANCILLA = "ANC"
    DISCARD = "DIS"


CLASSICAL_KINDS = {GateKind.TOFFOLI, GateKind.QUERY, GateKind.ANCILLA, GateKind.DISCARD}

_FIXED_ARITY = {GateKind.H: 1, GateKind.PHASE: 1, GateKind.TOFFOLI: 3,
                GateKind.ANCILLA: 1, GateKind.DISCARD: 1}


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    wires: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind.value}({','.join(map(str, self.wires))})"


def query_registers(gate: Gate, n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(x_wires, c_wires, y_wires) of a query gate for label length 2n."""
    w = gate.wires
    return w[: 2 * n], w[2 * n: 2 * n + 4], w[2 * n + 4:]


@dataclass(frozen=True)
class Layer:
    width_in: int
    width_out: int
    gates: tuple[Gate, ...] = ()

    @property
    def working_width(self) -> int:
        return max(self.width_in, self.width_out)

    @cached_property
    def split(self) -> tuple["Layer", "Layer"]:
        """Disjoint (non-query, query-only) layers with the query part after.

        The composition acts as the layer does on every basis state, as a
        layer's gates are wire-disjoint.  The query gates are in first-wire
        order.
        """
        non_query = tuple(g for g in self.gates if g.kind != GateKind.QUERY)
        queries = tuple(sorted((g for g in self.gates if g.kind == GateKind.QUERY),
                               key=lambda g: g.wires[0]))
        return (Layer(self.width_in, self.width_out, non_query),
                Layer(self.width_out, self.width_out, queries))

    @cached_property
    def plans(self) -> dict:
        """``statevec.layer_plan``'s plans of this layer, by (state width,
        live wires, n)."""
        return {}


def layer(width_in: int, gates: list[Gate] | tuple[Gate, ...] = ()) -> Layer:
    """Layer with the output width inferred from ANC/DIS gates.

    Gates are wire-disjoint, so their order is canonicalized (by first wire)
    for stable equality and printing.
    """
    gates = tuple(sorted(gates, key=lambda g: g.wires[0]))
    n_anc = sum(1 for g in gates if g.kind == GateKind.ANCILLA)
    n_dis = sum(1 for g in gates if g.kind == GateKind.DISCARD)
    return Layer(width_in, width_in + n_anc - n_dis, gates)


def identity_layer(width: int) -> Layer:
    return Layer(width, width, ())


@dataclass(frozen=True)
class Tier:
    kind: str                   # "classical" | "quantum"
    layers: tuple[Layer, ...]
    width_in: int
    width_out: int

    @property
    def depth(self) -> int:
        return len(self.layers)


def tier(kind: str, layers_: list[Layer]) -> Tier:
    if not layers_:
        raise ValueError("use Tier(...) directly for empty tiers")
    return Tier(kind, tuple(layers_), layers_[0].width_in, layers_[-1].width_out)


class _Validated:
    """A frozen circuit's ``validate`` diagnostics, computed on first use."""

    @cached_property
    def problems(self) -> tuple[str, ...]:
        return tuple(validate(self))


@dataclass(frozen=True)
class HybridCircuit(_Validated):
    """Alternating classical/quantum tiers (classical first), or all-quantum.

    ``all_quantum`` selects the polynomial-tier variant in which every tier,
    including the first, is a (g,g,q)-quantum tier (first is (n,g,q)).
    """

    n: int
    g: int
    tiers: tuple[Tier, ...]
    all_quantum: bool = False

    @property
    def eta(self) -> int:
        return len(self.tiers)


@dataclass(frozen=True)
class JozsaCircuit(_Validated):
    """Quantum tiers interleaved with measure-then-classical blocks on R1.

    After each quantum tier Q_i, register R1 (the first g/2 wires) is
    measured and fed to classical tier C_i, while R2 stays quantum.
    """

    n: int
    g: int
    quantum_tiers: tuple[Tier, ...]
    classical_tiers: tuple[Tier, ...]

    @property
    def eta(self) -> int:
        return len(self.quantum_tiers)

    @property
    def r1_width(self) -> int:
        return self.g // 2


Circuit = HybridCircuit | JozsaCircuit


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _validate_layer(lay: Layer, n: int, where: str, classical: bool) -> list[str]:
    out: list[str] = []
    seen: set[int] = set()
    anc_wires: set[int] = set()
    dis_wires: set[int] = set()
    for gi, gate in enumerate(lay.gates):
        loc = f"{where} gate {gi} ({gate.kind.value})"
        arity = _FIXED_ARITY.get(gate.kind, 4 * n + 4)
        if len(gate.wires) != arity:
            out.append(f"{loc}: expected {arity} wires, got {len(gate.wires)}")
            continue
        if len(set(gate.wires)) != len(gate.wires):
            out.append(f"{loc}: repeated wire")
        overlap = seen.intersection(gate.wires)
        if overlap:
            out.append(f"{loc}: wire {min(overlap)} used twice in layer")
        seen.update(gate.wires)
        if classical and gate.kind not in CLASSICAL_KINDS:
            out.append(f"{loc}: {gate.kind.value} not allowed in a classical layer")
        if gate.kind == GateKind.ANCILLA:
            anc_wires.add(gate.wires[0])
        elif gate.kind == GateKind.DISCARD:
            dis_wires.add(gate.wires[0])
        else:
            bad = [w for w in gate.wires if w >= lay.width_in]
            if bad:
                out.append(f"{loc}: wire {bad[0]} beyond layer input width {lay.width_in}")
    if lay.width_out > lay.width_in:
        expect = set(range(lay.width_in, lay.width_out))
        if anc_wires != expect or dis_wires:
            out.append(f"{where}: growing layer must ANC exactly wires "
                       f"{lay.width_in}..{lay.width_out - 1}")
    elif lay.width_out < lay.width_in:
        expect = set(range(lay.width_out, lay.width_in))
        if dis_wires != expect or anc_wires:
            out.append(f"{where}: shrinking layer must DIS exactly wires "
                       f"{lay.width_out}..{lay.width_in - 1}")
    else:
        if anc_wires or dis_wires:
            out.append(f"{where}: ANC/DIS present but widths are equal")
    if dis_wires and any(g.kind == GateKind.QUERY for g in lay.gates):
        out.append(f"{where}: query and discard gates cannot share a layer")
    if any(w < 0 for g in lay.gates for w in g.wires):
        out.append(f"{where}: negative wire index")
    return out


def _validate_tier(t: Tier, n: int, where: str) -> list[str]:
    out: list[str] = []
    if t.kind not in ("classical", "quantum"):
        out.append(f"{where}: unknown tier kind {t.kind!r}")
        return out
    if not t.layers:
        if t.width_in != t.width_out:
            out.append(f"{where}: empty tier cannot change width")
        return out
    if t.layers[0].width_in != t.width_in:
        out.append(f"{where}: declared input width {t.width_in} != first layer's "
                   f"{t.layers[0].width_in}")
    if t.layers[-1].width_out != t.width_out:
        out.append(f"{where}: declared output width {t.width_out} != last layer's "
                   f"{t.layers[-1].width_out}")
    for li, lay in enumerate(t.layers):
        out.extend(_validate_layer(lay, n, f"{where} layer {li}",
                                   classical=(t.kind == "classical")))
        if li + 1 < len(t.layers) and t.layers[li + 1].width_in != lay.width_out:
            out.append(f"{where} layer {li + 1}: input width "
                       f"{t.layers[li + 1].width_in} != previous output {lay.width_out}")
    return out


def validate(circuit: Circuit) -> list[str]:
    """Empty list iff all structural invariants hold; diagnostics are located."""
    out: list[str] = []
    if isinstance(circuit, HybridCircuit):
        if circuit.eta < 1:
            out.append("circuit: needs at least one tier")
        for i, t in enumerate(circuit.tiers, start=1):
            where = f"tier {i}"
            want_kind = "quantum" if (circuit.all_quantum or i % 2 == 0) else "classical"
            if t.kind != want_kind:
                out.append(f"{where}: expected a {want_kind} tier, found {t.kind}")
            want_in = circuit.n if i == 1 else circuit.g
            if t.width_in != want_in:
                out.append(f"{where}: input width {t.width_in}, expected {want_in}")
            if t.width_out != circuit.g:
                out.append(f"{where}: output width {t.width_out}, expected {circuit.g}")
            out.extend(_validate_tier(t, circuit.n, where))
        for i in range(len(circuit.tiers) - 1):
            if circuit.tiers[i + 1].width_in > circuit.tiers[i].width_out:
                out.append(f"tier {i + 2}: input width {circuit.tiers[i + 1].width_in} "
                           f"exceeds tier {i + 1} output {circuit.tiers[i].width_out}")
        if circuit.tiers and circuit.tiers[-1].width_out < 1:
            out.append("last tier: needs at least one output")
    elif isinstance(circuit, JozsaCircuit):
        if circuit.g % 2 != 0:
            out.append("circuit: width g must be even (R1 is g/2 wires)")
        if len(circuit.quantum_tiers) != len(circuit.classical_tiers):
            out.append("circuit: one classical block per quantum tier required")
        if circuit.eta < 1:
            out.append("circuit: needs at least one quantum tier")
        half = circuit.g // 2
        for i, t in enumerate(circuit.quantum_tiers, start=1):
            where = f"quantum tier {i}"
            if t.kind != "quantum":
                out.append(f"{where}: must be quantum")
            want_in = circuit.n if i == 1 else circuit.g
            if t.width_in != want_in:
                out.append(f"{where}: input width {t.width_in}, expected {want_in}")
            if t.width_out != circuit.g:
                out.append(f"{where}: output width {t.width_out}, expected {circuit.g}")
            out.extend(_validate_tier(t, circuit.n, where))
        for i, t in enumerate(circuit.classical_tiers, start=1):
            where = f"classical block {i}"
            if t.kind != "classical":
                out.append(f"{where}: must be classical")
            if t.width_in != half or t.width_out != half:
                out.append(f"{where}: must be ({half},{half},d) on register R1")
            out.extend(_validate_tier(t, circuit.n, where))
    else:
        out.append(f"unknown circuit type {type(circuit).__name__}")
    return out


def require_valid(circuit: Circuit) -> None:
    """A ValueError with the located diagnostics of an invalid circuit,
    raised on every call; each circuit object is validated once."""
    problems = circuit.problems
    if problems:
        raise ValueError("invalid circuit: " + "; ".join(problems[:5]))


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

@dataclass
class CircuitStats:
    n: int
    eta: int
    g: int
    max_classical_depth: int
    max_quantum_depth: int
    gate_counts: dict[str, int] = field(default_factory=dict)
    query_gates: int = 0


def _iter_tiers(circuit: Circuit):
    if isinstance(circuit, HybridCircuit):
        yield from circuit.tiers
    else:
        for q, c in zip(circuit.quantum_tiers, circuit.classical_tiers):
            yield q
            yield c


def accounting(circuit: Circuit) -> CircuitStats:
    require_valid(circuit)
    counts: dict[str, int] = {k.value: 0 for k in GateKind}
    c_depth = q_depth = 0
    for t in _iter_tiers(circuit):
        if t.kind == "classical":
            c_depth = max(c_depth, t.depth)
        else:
            q_depth = max(q_depth, t.depth)
        for lay in t.layers:
            for gate in lay.gates:
                counts[gate.kind.value] += 1
    eta = circuit.eta
    return CircuitStats(n=circuit.n, eta=eta, g=circuit.g,
                        max_classical_depth=c_depth, max_quantum_depth=q_depth,
                        gate_counts=counts, query_gates=counts[GateKind.QUERY.value])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

class CircuitParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_HEADER_RE = re.compile(r"^(hybrid|hybrid-allq|jozsa)\s+n=(\d+)\s+g=(\d+)\s*$")
_GATE_RE = re.compile(r"^([A-Z]+)\(([\d,]*)\)$")


def parse(text: str) -> Circuit:
    """Parse the circuit text format; errors carry line and column."""
    lines = text.splitlines()
    items: list[tuple[int, str]] = []
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            items.append((ln, stripped))
    if not items:
        raise CircuitParseError(1, 1, "empty circuit text")

    ln, head = items[0]
    m = _HEADER_RE.match(head.strip())
    if not m:
        raise CircuitParseError(ln, 1, "expected header like 'hybrid n=2 g=12'")
    flavor, n, g = m.group(1), int(m.group(2)), int(m.group(3))

    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for ln, content in items[1:]:
        s = content.strip()
        if s.startswith("tier"):
            parts = s.split()
            if len(parts) != 2 or parts[1] not in ("classical", "quantum"):
                raise CircuitParseError(ln, 1, "expected 'tier classical' or 'tier quantum'")
            blocks.append((ln, parts[1], []))
        else:
            if not blocks:
                raise CircuitParseError(ln, 1, "layer line before any 'tier' header")
            blocks[-1][2].append((ln, content))

    def parse_layer(ln: int, content: str, width_in: int) -> Layer:
        gates: list[Gate] = []
        col = len(content) - len(content.lstrip()) + 1
        body = content.strip()
        if body == "-":
            return identity_layer(width_in)
        for token in body.split():
            m = _GATE_RE.match(token)
            if not m:
                raise CircuitParseError(ln, col, f"cannot parse gate token {token!r}")
            name, args = m.group(1), m.group(2)
            try:
                kind = GateKind(name)
            except ValueError:
                raise CircuitParseError(ln, col, f"unknown gate name {name!r}") from None
            wires = tuple(int(a) for a in args.split(",") if a != "")
            if not wires:
                raise CircuitParseError(ln, col, f"gate {name} needs wire arguments")
            gates.append(Gate(kind, wires))
            col += len(token) + 1
        return layer(width_in, gates)

    def parse_tier(kind: str, width_in: int, rows: list[tuple[int, str]],
                   header_ln: int) -> Tier:
        if not rows:
            raise CircuitParseError(header_ln, 1, "tier has no layers")
        layers_: list[Layer] = []
        cur = width_in
        for ln, content in rows:
            lay = parse_layer(ln, content, cur)
            layers_.append(lay)
            cur = lay.width_out
        return Tier(kind, tuple(layers_), width_in, cur)

    if flavor in ("hybrid", "hybrid-allq"):
        tiers: list[Tier] = []
        for i, (hln, kind, rows) in enumerate(blocks, start=1):
            width_in = n if i == 1 else g
            tiers.append(parse_tier(kind, width_in, rows, hln))
        return HybridCircuit(n=n, g=g, tiers=tuple(tiers),
                             all_quantum=(flavor == "hybrid-allq"))

    qts: list[Tier] = []
    cts: list[Tier] = []
    for i, (hln, kind, rows) in enumerate(blocks):
        if i % 2 == 0:
            if kind != "quantum":
                raise CircuitParseError(hln, 1, "jozsa blocks must alternate quantum/classical")
            qts.append(parse_tier("quantum", n if i == 0 else g, rows, hln))
        else:
            if kind != "classical":
                raise CircuitParseError(hln, 1, "jozsa blocks must alternate quantum/classical")
            cts.append(parse_tier("classical", g // 2, rows, hln))
    return JozsaCircuit(n=n, g=g, quantum_tiers=tuple(qts), classical_tiers=tuple(cts))


def format_circuit(circuit: Circuit) -> str:
    """Canonical text; parse(format_circuit(c)) reproduces c."""
    flavor = ("jozsa" if isinstance(circuit, JozsaCircuit)
              else "hybrid-allq" if circuit.all_quantum else "hybrid")
    out = [f"{flavor} n={circuit.n} g={circuit.g}"]
    for t in _iter_tiers(circuit):
        out.append(f"tier {t.kind}")
        for lay in t.layers:
            if not lay.gates:
                out.append("  -")
            else:
                gates = sorted(lay.gates, key=lambda g: g.wires[0])
                out.append("  " + " ".join(str(g) for g in gates))
    return "\n".join(out) + "\n"
