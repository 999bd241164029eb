from __future__ import annotations

import numpy as np
import pytest

from weldlab import circuits as C
from circuit_gen import query_gate, random_hybrid, random_jozsa, tier


def test_parse_format_round_trip_corpus():
    rng = np.random.default_rng(5)
    corpus = []
    for i in range(10):
        corpus.append(random_hybrid(rng, n=2, g=12, eta=int(rng.integers(1, 5)),
                                    max_c=3, max_q=3))
    for i in range(6):
        corpus.append(random_jozsa(rng, n=2, g=12, eta=int(rng.integers(1, 3)),
                                   max_c=2, max_q=2))
    for i in range(4):
        corpus.append(random_hybrid(rng, n=3, g=16, eta=2, max_c=2, max_q=2,
                                    all_quantum=True))
    assert len(corpus) == 20
    for circ in corpus:
        text = C.format_circuit(circ)
        assert C.parse(text) == circ
        assert C.format_circuit(C.parse(text)) == text


def test_parse_unknown_gate_positioned_error():
    text = "hybrid n=2 g=4\ntier classical\n  FOO(0,1)\n"
    with pytest.raises(C.CircuitParseError) as err:
        C.parse(text)
    assert err.value.line == 3


def test_parse_syntax_error_has_line_and_column():
    text = "hybrid n=2 g=4\ntier classical\n  TOF(0,1 2)\n"
    with pytest.raises(C.CircuitParseError) as err:
        C.parse(text)
    assert err.value.line == 3 and err.value.column >= 1


def test_parse_rejects_bad_header():
    with pytest.raises(C.CircuitParseError):
        C.parse("widget n=2 g=4\n")


def test_validate_tier_compatibility_diagnostic():
    t1 = C.Tier("classical", (C.identity_layer(2),), 2, 2)
    t2 = C.Tier("quantum", (C.identity_layer(5),), 5, 5)
    circ = C.HybridCircuit(n=2, g=5, tiers=(t1, t2))
    problems = C.validate(circ)
    assert any("exceeds" in p or "width" in p for p in problems)


def test_validate_clean_hybrid():
    rng = np.random.default_rng(1)
    circ = random_hybrid(rng, n=2, g=12, eta=4, max_c=2, max_q=2)
    assert C.validate(circ) == []


def test_validate_jozsa_pi_width():
    rng = np.random.default_rng(2)
    circ = random_jozsa(rng, n=2, g=12, eta=1, max_c=1, max_q=1)
    bad = C.JozsaCircuit(n=2, g=12, quantum_tiers=circ.quantum_tiers,
                         classical_tiers=(C.Tier("classical",
                                                 (C.identity_layer(7),), 7, 7),))
    problems = C.validate(bad)
    assert any("R1" in p for p in problems)


def test_validate_classical_layer_gate_restriction():
    lay = C.layer(3, [C.Gate(C.GateKind.H, (0,))])
    t = C.Tier("classical", (lay,), 3, 3)
    circ = C.HybridCircuit(n=3, g=3, tiers=(t,))
    assert any("not allowed in a classical layer" in p for p in C.validate(circ))


def test_validate_wire_reuse_detected():
    lay = C.Layer(4, 4, (C.Gate(C.GateKind.H, (0,)), C.Gate(C.GateKind.PHASE, (0,))))
    t = C.Tier("quantum", (lay,), 4, 4)
    circ = C.HybridCircuit(n=4, g=4, tiers=(C.Tier("classical", (C.identity_layer(4),), 4, 4), t))
    assert any("used twice" in p for p in C.validate(circ))


def test_validate_is_pure_and_deterministic():
    rng = np.random.default_rng(3)
    circ = random_hybrid(rng, n=2, g=12, eta=3, max_c=2, max_q=2)
    assert C.validate(circ) == C.validate(circ)


def test_accounting_empty_tier_zeros():
    t = C.Tier("classical", (), 3, 3)
    circ = C.HybridCircuit(n=3, g=3, tiers=(t,))
    stats = C.accounting(circ)
    assert stats.max_classical_depth == 0
    assert stats.query_gates == 0
    assert sum(stats.gate_counts.values()) == 0


def test_accounting_eta_five_shape():
    rng = np.random.default_rng(4)
    circ = random_hybrid(rng, n=2, g=12, eta=5, max_c=2, max_q=2)
    stats = C.accounting(circ)
    assert stats.eta == 5 and stats.g == 12


def test_accounting_three_layer_tier_depth():
    layers = [C.identity_layer(4) for _ in range(3)]
    t1 = C.Tier("classical", (C.identity_layer(4),), 4, 4)
    t2 = tier("quantum", layers)
    circ = C.HybridCircuit(n=4, g=4, tiers=(t1, t2))
    assert C.accounting(circ).max_quantum_depth == 3


def test_query_registers_split():
    g = query_gate(2, base=3)
    xw, cw, yw = C.query_registers(g, 2)
    assert xw == (3, 4, 5, 6) and cw == (7, 8, 9, 10) and yw == (11, 12, 13, 14)


def test_query_discard_same_layer_rejected():
    gates = (query_gate(2), C.Gate(C.GateKind.DISCARD, (13,)))
    lay = C.Layer(14, 13, gates)
    t = C.Tier("quantum", (lay,), 14, 13)
    circ = C.HybridCircuit(n=14, g=13,
                           tiers=(C.Tier("classical", (C.identity_layer(14),), 14, 14), t))
    assert any("cannot share a layer" in p for p in C.validate(circ))


# ---------------------------------------------------------------------------
# every diagnostic of validate and parse, pinned
# ---------------------------------------------------------------------------

_G, _K, _L, _T, _I = C.Gate, C.GateKind, C.Layer, C.Tier, C.identity_layer


def _hybrid(*tiers, n=2, g=2):
    return C.HybridCircuit(n=n, g=g, tiers=tiers)


def _classical(*layers, w_in=2, w_out=2, kind="classical"):
    return _T(kind, layers, w_in, w_out)


@pytest.mark.parametrize("circuit, problems", [
    (_hybrid(_classical(_L(3, 3, (_G(_K.TOFFOLI, (0, 0, 1)),)), w_in=3, w_out=3), n=3, g=3),
     ["tier 1 layer 0 gate 0 (TOF): repeated wire"]),
    (_hybrid(_classical(_L(2, 3, ()), w_out=3), g=3),
     ["tier 1 layer 0: growing layer must ANC exactly wires 2..2"]),
    (_hybrid(_classical(_L(3, 2, ()), w_in=3), n=3),
     ["tier 1 layer 0: shrinking layer must DIS exactly wires 2..2"]),
    (_hybrid(_classical(_L(3, 3, (_G(_K.ANCILLA, (2,)),)), w_in=3, w_out=3), n=3, g=3),
     ["tier 1 layer 0: ANC/DIS present but widths are equal"]),
    (_hybrid(_classical(_L(2, 2, (_G(_K.TOFFOLI, (0, 1, -1)),)))),
     ["tier 1 layer 0: negative wire index"]),
    (_hybrid(_classical(_I(2), kind="mixed")),
     ["tier 1: expected a classical tier, found mixed", "tier 1: unknown tier kind 'mixed'"]),
    (_hybrid(_classical(w_out=3), g=3), ["tier 1: empty tier cannot change width"]),
    (_hybrid(_classical(_I(3), w_out=3), g=3),
     ["tier 1: declared input width 2 != first layer's 3"]),
    (_hybrid(_classical(_I(2), w_out=3), g=3),
     ["tier 1: declared output width 3 != last layer's 2"]),
    (_hybrid(_classical(_I(2), _L(3, 3, ()))),
     ["tier 1: declared output width 2 != last layer's 3",
      "tier 1 layer 1: input width 3 != previous output 2"]),
    (_hybrid(), ["circuit: needs at least one tier"]),
    (_hybrid(_classical(_I(2), kind="quantum")),
     ["tier 1: expected a classical tier, found quantum"]),
    (_hybrid(_T("classical", (), 0, 0), n=0, g=0), ["last tier: needs at least one output"]),
    (C.JozsaCircuit(n=1, g=3, quantum_tiers=(_T("quantum", (_L(1, 3, (
        _G(_K.ANCILLA, (1,)), _G(_K.ANCILLA, (2,)))),), 1, 3),),
        classical_tiers=(_T("classical", (_I(1),), 1, 1),)),
     ["circuit: width g must be even (R1 is g/2 wires)"]),
    (C.JozsaCircuit(n=2, g=2, quantum_tiers=(_T("quantum", (_I(2),), 2, 2),),
                    classical_tiers=()),
     ["circuit: one classical block per quantum tier required"]),
    (C.JozsaCircuit(n=2, g=2, quantum_tiers=(), classical_tiers=()),
     ["circuit: needs at least one quantum tier"]),
    (C.JozsaCircuit(n=2, g=2, quantum_tiers=(_T("classical", (_I(2),), 2, 2),),
                    classical_tiers=(_T("quantum", (_I(1),), 1, 1),)),
     ["quantum tier 1: must be quantum", "classical block 1: must be classical"]),
    (C.JozsaCircuit(n=2, g=4, quantum_tiers=(_T("quantum", (_I(3),), 3, 3),),
                    classical_tiers=(_T("classical", (_I(1),), 1, 1),)),
     ["quantum tier 1: input width 3, expected 2", "quantum tier 1: output width 3, expected 4",
      "classical block 1: must be (2,2,d) on register R1"]),
    ("hybrid n=2 g=2", ["unknown circuit type str"]),
])
def test_validate_diagnostics_pinned(circuit, problems):
    assert C.validate(circuit) == problems


@pytest.mark.parametrize("text, message", [
    ("# nothing\n", "line 1, column 1: empty circuit text"),
    ("hybrid n=2 g=2\ntier mixed\n  -\n",
     "line 2, column 1: expected 'tier classical' or 'tier quantum'"),
    ("hybrid n=2 g=2\n  -\n", "line 2, column 1: layer line before any 'tier' header"),
    ("hybrid n=2 g=2\ntier classical\n  TOF()\n", "line 3, column 3: gate TOF needs wire arguments"),
    ("hybrid n=2 g=2\ntier classical\ntier quantum\n  -\n", "line 2, column 1: tier has no layers"),
    ("jozsa n=2 g=4\ntier classical\n  -\n",
     "line 2, column 1: jozsa blocks must alternate quantum/classical"),
    ("jozsa n=2 g=4\ntier quantum\n  -\ntier quantum\n  -\n",
     "line 4, column 1: jozsa blocks must alternate quantum/classical"),
])
def test_parse_errors_pinned(text, message):
    with pytest.raises(C.CircuitParseError) as info:
        C.parse(text)
    assert str(info.value) == message


def test_identity_layer_round_trips():
    text = "hybrid n=2 g=2\ntier classical\n  -\ntier quantum\n  H(0)\n  -\n"
    circ = C.parse(text)
    assert circ.tiers[0].layers == (C.identity_layer(2),) == circ.tiers[1].layers[1:]
    assert C.format_circuit(circ) == text
