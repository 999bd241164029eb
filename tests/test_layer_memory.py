"""What a wide layer allocates: tracemalloc's peak above the layer's input,
per output amplitude, at 2^16 amplitudes.

A layer writes its result once (an int64 key and a complex128 amplitude
array, 24 bytes an amplitude) and keeps its temporaries below that.  The
bounds sit a few bytes above what the kernels measure, so a layer that
again builds a full-length array only to drop it fails here.
"""
from __future__ import annotations

import tracemalloc

import pytest

from weldlab import circuits as C
from weldlab import hybrid_sim as HS
from weldlab import statevec as SV

from circuit_gen import query_gate

WIDTH = 18


def _peak_per_amplitude(run) -> float:
    """tracemalloc's peak while ``run()`` makes its state, above what was
    allocated before, per amplitude of that state."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / len(state.amps)


def _h_layer() -> C.Layer:
    return C.layer(WIDTH, [C.Gate(C.GateKind.H, (w,)) for w in range(16)])


def _p_tof_layer() -> C.Layer:
    return C.layer(WIDTH, [C.Gate(C.GateKind.PHASE, (w,)) for w in (1, 5, 9, 13)]
                   + [C.Gate(C.GateKind.TOFFOLI, (2, 3, 16)),
                      C.Gate(C.GateKind.TOFFOLI, (6, 7, 17))])


@pytest.fixture(scope="module")
def wide_states():
    """(2^16 amplitudes from a basis state's H layer, the P/TOF layer's
    output from it: keys out of ascending order), each norm summed."""
    spread = SV.apply_layer(SV.PureState.basis(WIDTH, 0), _h_layer())
    turned = SV.apply_layer(spread, _p_tof_layer())
    assert len(turned.amps) == 1 << 16 and spread.norm_sq() and turned.norm_sq()
    return spread, turned


def test_h_layer_from_a_basis_state_peaks_at_44_bytes_per_amplitude():
    assert _peak_per_amplitude(
        lambda: SV.apply_layer(SV.PureState.basis(WIDTH, 0), _h_layer())) <= 44


def test_p_tof_layer_peaks_at_44_bytes_per_amplitude(wide_states):
    spread, _turned = wide_states
    assert _peak_per_amplitude(lambda: SV.apply_layer(spread, _p_tof_layer())) <= 44


def test_query_layer_peaks_at_45_bytes_per_amplitude(wide_states, bbt2):
    _spread, turned = wide_states
    lay = C.layer(WIDTH, [query_gate(2)])
    assert _peak_per_amplitude(lambda: SV.apply_layer(turned, lay, bbt2, 2)) <= 45


def test_instrumented_simulator_query_layer_peaks_at_82_bytes_per_amplitude(wide_states,
                                                                            bbt2):
    # the input's keys are out of order, so the layer sorts them first
    _spread, turned = wide_states
    lay = C.layer(WIDTH, [query_gate(2)])
    ctx = HS.SimContext.fresh(bbt2)
    V = HS.entrance_known(ctx)
    assert _peak_per_amplitude(lambda: HS.quantum_layer_sim(lay, turned, V, ctx)[0]) <= 82
    assert ctx.transcript.per_layer[-1].queries > 0
