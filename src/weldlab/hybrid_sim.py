"""Classical simulators for few-tier hybrid circuits and Jozsa circuits.

The simulator tracks a dictionary of known oracle answers and replaces every
query gate by a three-way substitution, per basis string of the current
sparse state:

  (a) the (x, c) key is already recorded -> substitute the stored answer;
  (b) x is a known-valid label (a key or non-INVALID value recorded at the
      start of the layer) but the key is new -> spend one real query to
      learn the whole vertex row (all nine colors) and substitute;
  (c) anything else -> substitute INVALID without querying.

Query accounting is per *vertex*: branch (b) and the entrance
initialization each cost one query on the transcript (the oracle handle
still counts all nine raw (x, c) invocations underneath).  Under this
accounting the growth and query ceilings are exact and asserted: a quantum
layer at most quadruples the number of known vertices, a depth-d quantum
tier of a hybrid circuit spends at most 4^d |V| queries (Jozsa quantum
tiers run layer by layer and are not checked), and a classical tier at
most width*depth.

The per-layer instrumentation records the outlier mass (squared amplitude
on basis strings where the substituted answers differ from the true
oracle's) and the simulated-vs-true layer fidelity, computed two ways: as
the branch-wise overlap sum_z |c_z|^2 <S(z)|L^T|z> and as 1 - outlier
mass.  The two agree exactly; the identity is asserted to 1e-10 in tests.

The substitution map S is evaluated lazily over the support of the current
state, never materialized over all basis strings; support-restricted
evaluation is pointwise identical on the states it is applied to.  It is
the ``answer`` policy handed to the executor's query kernel, and
``SimContext`` is the oracle policy under which the executor's tier drivers
run the simulators.  The wrappers run only circuits ``circuits.validate``
accepts, and the drivers pick a tier's step by its kind, so no step here
checks a tier's kind or its gates' kinds again.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import circuits as C
from . import statevec as SV
from .known import KnownVertices
from .rng import derive_seed, make_rng
from .tree import BlackBoxTree, OracleHandle


@dataclass
class LayerRecord:
    tier: int
    layer: int
    outlier_mass: float
    fidelity: float
    queries: int
    v_size: int
    l1_gap: float = 0.0        # || psi' - L^T phi ||_1 over amplitudes


@dataclass
class SimTranscript:
    """Query accounting and per-layer instrumentation for one simulation run."""

    queries: int = 0                  # vertex-level queries (the ceilings' unit)
    raw_queries: int = 0              # (x, c) oracle invocations underneath
    per_layer: list[LayerRecord] = field(default_factory=list)
    per_tier_queries: list[int] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None
    output: int | None = None

    def to_json(self) -> str:
        """The fields as JSON, as ``json.dumps(asdict(self))`` gives them but
        without its deep copy: every field value is a number, a string,
        None or a list of them."""
        doc = dict(vars(self), per_layer=[vars(r) for r in self.per_layer])
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class SimContext:
    """One simulation run, and the substitution oracle policy of the drivers.

    ``consulted`` counts the substitution's reads of the dictionary: every
    ``answer(x, c)`` with a color c in 1..9, on either kernel.  A run that
    consulted nothing put no oracle answer into its states.
    """

    bbt: BlackBoxTree
    handle: OracleHandle
    transcript: SimTranscript
    instrument: bool = True
    consulted: int = 0

    @classmethod
    def fresh(cls, bbt: BlackBoxTree, instrument: bool = True) -> "SimContext":
        return cls(bbt=bbt, handle=bbt.handle(), transcript=SimTranscript(),
                   instrument=instrument)

    def classical_tier(self, i: int, t: C.Tier, x: int, V: KnownVertices):
        return classical_tier_sim(t, x, V, self)

    def layer(self, i: int, li: int, lay: C.Layer, state: SV.PureState, V: KnownVertices):
        return quantum_layer_sim(lay, state, V, self, tier=i, layer_index=li)

    def quantum_tier(self, i: int, t: C.Tier, x: int, V: KnownVertices):
        return _quantum_tier_state(i, t, x, V, self)


def vertex_query(ctx: SimContext, V: KnownVertices, x: int) -> None:
    """Learn a whole vertex: ask all nine colors, count one query."""
    before = ctx.handle.count
    V.set_vertex(x, {c: ctx.handle.query(x, c) for c in range(1, 10)})
    ctx.transcript.queries += 1
    ctx.transcript.raw_queries += ctx.handle.count - before


def entrance_known(ctx: SimContext) -> KnownVertices:
    V = KnownVertices(ctx.bbt.invalid)
    vertex_query(ctx, V, 0)
    return V


def _query_regs(lt: C.Layer, n: int, live: tuple[int, ...]):
    """Physical (x, c, y) wires of each query gate, in the layer's order
    (first-wire order in the query part of ``C.Layer.split``).  A query-only
    layer adds no wire, so its plan for any state width serves."""
    return SV.layer_plan(lt, 0, live, n).regs


def substitution(V: KnownVertices, ctx: SimContext):
    """(answer, V'): the three-way substitution of one layer as an oracle
    policy, and the copy of ``V`` that records the vertices it learns.

    Branch (b) consults the labels known at layer start (frozen), so V'
    gains at most 3|V| new key vertices.
    """
    invalid = V.invalid
    frozen = V.known_labels()
    work = V.copy()
    entries = work.entries

    def answer(x: int, c: int) -> int:
        if not 1 <= c <= 9:
            return invalid          # no such color; truthful without a query
        ctx.consulted += 1
        y = entries.get((x, c))
        if y is None:
            if x not in frozen or x == invalid:
                return invalid
            vertex_query(ctx, work, x)
            y = entries[(x, c)]
        return y

    return answer, work


def simulate_oracle(V: KnownVertices, ctx: SimContext, lt: C.Layer, support,
                    live: tuple[int, ...], n: int,
                    pairs=None) -> tuple[Mapping[int, int], KnownVertices]:
    """Alg-style query substitution over ``support``; returns (S, updated V).

    ``support`` must be sorted ascending (the caller sorts it once, for its
    own use too); keys are visited in that order.  An int64 array
    ``support`` takes the array kernel, which asks each distinct (x, c) pair
    once in that order, and gives ``S`` as an ``SV.ArrayMap`` over
    ``support``; ``pairs`` are its ``SV.query_pairs`` if the caller has
    grouped them.  perfbench's tracer reads ``support`` as the fourth
    positional argument.
    """
    if not lt.gates:
        # no query gate: the identity, which asks and learns nothing
        if isinstance(support, np.ndarray):
            return SV.ArrayMap(support, support), V.copy()
        return {z: z for z in support}, V.copy()
    answer, work = substitution(V, ctx)
    regs = _query_regs(lt, n, live)
    if isinstance(support, np.ndarray):
        pairs, group = pairs or SV.query_pairs(support, regs)
        got = np.array([answer(p >> 4, p & 15) for p in pairs.tolist()], dtype=np.int64)
        return SV.ArrayMap(support, SV.move_keys(support, regs, got[group])), work
    return SV.query_map(support, regs, answer), work


def _l1_sorted(k1: np.ndarray, k2: np.ndarray, vals: np.ndarray) -> float:
    """sum |psi - phi| in sorted key order, where psi puts ``vals`` on the
    keys ``k1`` and phi puts them on ``k2`` (each one-to-one)."""
    if not vals.size:
        return 0.0
    # one stable order: a key both maps reach sits at i (psi's) and i + 1
    order, keys = SV.stable_order(np.concatenate([k1, k2]))
    on_psi = order < k1.size
    v = np.concatenate([vals, vals])[order]
    a, b = np.where(on_psi, v, 0j), np.where(on_psi, 0j, v)
    both = np.flatnonzero(keys[1:] == keys[:-1])
    b[both] = b[both + 1]
    d = np.delete(a - b, both + 1)      # a - b, a - 0j or 0j - b per key
    return SV.seq_sum(np.hypot(d.real, d.imag))


def quantum_layer_sim(lay: C.Layer, state: SV.PureState, V: KnownVertices,
                      ctx: SimContext, tier: int = 0,
                      layer_index: int = 0) -> tuple[SV.PureState, KnownVertices]:
    """One simulated quantum layer: exact non-query part, substituted queries.

    Both kernels visit the support in sorted key order; see ``statevec``.
    """
    bbt, n = ctx.bbt, ctx.bbt.n
    lg, lt = lay.split
    phi = SV.apply_layer(state, lg, bbt, n, tier, layer_index)
    # the substitution and the sort permute the support and move no value, so
    # psi has phi's check value; its reported norm is summed in its own order
    width, live, wide, check_sq = phi.width, phi.live, phi.wide, phi._check_sq
    size_before = V.size()
    q_before = ctx.transcript.queries
    regs = _query_regs(lt, n, live)
    if wide:
        support, vals = phi.arrays()
        # keys are distinct, so any stable order is the sorted one; about
        # half the layers leave them ascending, the rest take SV.stable_order
        if not (support[1:] > support[:-1]).all():
            order, support = SV.stable_order(support)
            vals = vals[order]
            del phi, order          # release the arrays in their old order
        # (x, c) grouped once for the substitution and the instrumented truth map
        asked = SV.query_pairs(support, regs) if regs else None
        S, V2 = simulate_oracle(V, ctx, lt, support, live, n, asked)
        # move_amps adds each amplitude to 0j; ``state``'s own values stay as they are
        held = state.amps.value_array if isinstance(state.amps, SV.ArrayMap) else None
        psi = SV.PureState(width=width, live=live,
                           amps=SV.ArrayMap(S.value_array, SV.add_zero(vals, held)))
    else:
        support = sorted(phi.amps)
        S, V2 = simulate_oracle(V, ctx, lt, support, live, n)
        psi = SV.PureState(width=width, live=live, amps=SV.move_amps(phi.amps, S))
    psi._check_sq = check_sq

    if V2.size() > 4 * max(size_before, 1):
        raise AssertionError(
            f"known-vertex growth {size_before} -> {V2.size()} exceeds 4x")

    if ctx.instrument:
        # the true oracle's action on the same support, read through the
        # tree itself: instrumentation is not the simulator's oracle access.
        # fidelity is <psi'|L^T|phi> in the branch-diagonal form
        # sum_z |c_z|^2 <S(z)|L^T|z>; equal to 1 - outlier mass exactly (the
        # global inner product gains cross terms where S sends one string to
        # the true image of another, so it is not the asserted quantity)
        if not regs:
            # the identity substitution is the truth: no outlier and no gap,
            # and the fidelity is psi's norm, summed in its sorted key order
            outlier_mass, fidelity, l1_gap = 0, psi.norm_sq(), 0.0
        elif wide:
            pairs, group = asked
            truth = SV.move_keys(support, regs, bbt.answer_many(pairs >> 4, pairs & 15)[group])
            del asked, group        # the truth map was the last to read them
            p = SV.abs_sq(vals)
            out = S.value_array != truth
            outlier_mass, fidelity = SV.seq_sum(p[out]), SV.seq_sum(p[~out])
            # both maps are one-to-one, so a key no outlier reaches holds the
            # same amplitude in psi' and L^T phi and adds an exact 0.0
            l1_gap = _l1_sorted(S.value_array[out], truth[out], vals[out])
        else:
            truth = SV.query_map(support, regs, bbt.answer)
            outlier_mass = SV.seq_sum((phi.amps[z] * phi.amps[z].conjugate()).real
                                      for z in support if S[z] != truth[z])
            fidelity = SV.seq_sum((phi.amps[z] * phi.amps[z].conjugate()).real
                                  for z in support if S[z] == truth[z])
            true_amps = SV.move_amps(phi.amps, truth)
            l1_gap = SV.seq_sum(abs(psi.amps.get(k, 0j) - true_amps.get(k, 0j))
                                for k in sorted(set(psi.amps) | set(true_amps)))
        ctx.transcript.per_layer.append(LayerRecord(
            tier=tier, layer=layer_index,
            outlier_mass=outlier_mass, fidelity=fidelity,
            queries=ctx.transcript.queries - q_before, v_size=V2.size(),
            l1_gap=l1_gap))
    return psi, V2


def _quantum_tier_state(i: int, t: C.Tier, x: int, V: KnownVertices, ctx: SimContext,
                        layer_sim=None) -> tuple[dict[int, float], KnownVertices]:
    """Outcome distribution of quantum tier ``t`` (index ``i``) from basis input ``x``.

    Layers run through ``layer_sim`` (default ``quantum_layer_sim``); then the
    4^d|V| ceiling is asserted and the queries booked.
    """
    layer_sim = layer_sim or quantum_layer_sim
    size_in = V.size()
    q_before = ctx.transcript.queries
    state = SV.PureState.basis(t.width_in, x)
    for li, lay in enumerate(t.layers):
        state, V = layer_sim(lay, state, V, ctx, tier=i, layer_index=li)
    spent = ctx.transcript.queries - q_before
    if spent > (4 ** t.depth) * max(size_in, 1):
        raise AssertionError(f"tier spent {spent} queries, ceiling "
                             f"{(4 ** t.depth) * max(size_in, 1)}")
    ctx.transcript.per_tier_queries.append(spent)
    return state.marginal(), V


def classical_tier_sim(t: C.Tier, x: int, V: KnownVertices,
                       ctx: SimContext) -> tuple[int, KnownVertices]:
    """Deterministic classical tier with the same query substitution rules."""
    q_before = ctx.transcript.queries
    width = max((lay.working_width for lay in t.layers), default=t.width_in)
    out = x
    for lay in t.layers:
        answer, V = substitution(V, ctx)
        out = SV.eval_classical_layer(out, lay, ctx.bbt.n, answer)
    spent = ctx.transcript.queries - q_before
    if spent > width * max(t.depth, 1):
        raise AssertionError(f"classical tier spent {spent} queries, ceiling "
                             f"{width * max(t.depth, 1)}")
    ctx.transcript.per_tier_queries.append(spent)
    return out, V


@dataclass
class SimResult:
    output: int
    known: KnownVertices
    transcript: SimTranscript


def wrapper_query_ceiling(circuit: C.Circuit) -> int:
    """4^(eta(d+1)) * g * d with d the max quantum depth, g*d the classical part."""
    stats = C.accounting(circuit)
    dq = max(stats.max_quantum_depth, 1)
    dc = max(stats.max_classical_depth, 1)
    return (4 ** (stats.eta * (dq + 1))) * stats.g * dc


def tier_draws(tier_seed_fn):
    """The simulators' measurement rule: tier i is measured with one uniform
    drawn from ``tier_seed_fn(i)``."""
    return lambda i: make_rng(tier_seed_fn(i), "sim-tier-measure").random()


def few_tier_wrapper(circuit: C.HybridCircuit, bbt: BlackBoxTree, seed: int = 0,
                     tier_seed_fn=None) -> SimResult:
    """Compose per-tier simulations of every tier.

    ``tier_seed_fn(i)`` overrides the per-tier measurement seed (the
    bottleneck equivalence checks share a seed tape).
    """
    C.require_valid(circuit)
    tier_seed_fn = tier_seed_fn or (lambda i: derive_seed(seed, "tier", i))
    ctx = SimContext.fresh(bbt)
    acc, V = SV.drive_hybrid(circuit, ctx, tier_draws(tier_seed_fn), entrance_known(ctx))
    if ctx.transcript.queries > wrapper_query_ceiling(circuit):
        raise AssertionError("wrapper query ceiling exceeded")
    ctx.transcript.output = next(iter(acc))
    return SimResult(output=ctx.transcript.output, known=V, transcript=ctx.transcript)


def few_tier_exact_distribution(circuit: C.HybridCircuit,
                                bbt: BlackBoxTree) -> SV.OutputDistribution:
    """Exact output distribution of the simulator (measurement branches enumerated)."""
    C.require_valid(circuit)
    ctx = SimContext.fresh(bbt, instrument=False)
    acc, _ = SV.drive_hybrid(circuit, ctx, None, entrance_known(ctx))
    return SV.OutputDistribution(circuit.tiers[-1].width_out, acc)


# ---------------------------------------------------------------------------
# Jozsa path
# ---------------------------------------------------------------------------

def jozsa_wrapper(circuit: C.JozsaCircuit, bbt: BlackBoxTree, seed: int = 0) -> SimResult:
    C.require_valid(circuit)
    ctx = SimContext.fresh(bbt)
    acc, V = SV.drive_jozsa(
        circuit, ctx,
        lambda i: (make_rng(seed, "sim-r1", i) if i else make_rng(seed, "sim-final")).random(),
        entrance_known(ctx))
    ctx.transcript.output = next(iter(acc))
    return SimResult(output=ctx.transcript.output, known=V, transcript=ctx.transcript)


def jozsa_exact_distribution(circuit: C.JozsaCircuit,
                             bbt: BlackBoxTree) -> SV.OutputDistribution:
    C.require_valid(circuit)
    ctx = SimContext.fresh(bbt, instrument=False)
    acc, _ = SV.drive_jozsa(circuit, ctx, None, entrance_known(ctx))
    return SV.OutputDistribution(circuit.g, acc)


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

@dataclass
class CompareReport:
    labelings: int
    mean_tv: float
    stderr_tv: float
    max_tv: float
    mean_queries: float
    max_fidelity_gap: float


def compare_to_reference(circuit: C.Circuit, structure, labelings: int,
                         seed: int) -> CompareReport:
    """Per-labeling TV between simulator and exact executor distributions."""
    from .tree import generate_coloring, generate_labels

    C.require_valid(circuit)
    coloring = generate_coloring(structure, derive_seed(seed, "coloring-pick"))
    tvs: list[float] = []
    queries: list[int] = []
    fgap = 0.0
    exact, simulated, wrapper = (
        (SV.run_hybrid_exact, few_tier_exact_distribution, few_tier_wrapper)
        if isinstance(circuit, C.HybridCircuit)
        else (SV.run_jozsa_exact, jozsa_exact_distribution, jozsa_wrapper))
    for t_idx in range(labelings):
        bbt = generate_labels(structure, coloring, derive_seed(seed, "labeling", t_idx))
        tvs.append(SV.tv_distance(exact(circuit, bbt).probs, simulated(circuit, bbt).probs))
        run = wrapper(circuit, bbt, seed=derive_seed(seed, "run", t_idx))
        queries.append(run.transcript.queries)
        for rec in run.transcript.per_layer:
            fgap = max(fgap, abs(rec.fidelity - (1.0 - rec.outlier_mass)))
    mean = SV.seq_sum(tvs) / len(tvs)
    var = SV.seq_sum((t - mean) ** 2 for t in tvs) / max(len(tvs) - 1, 1)
    return CompareReport(labelings=labelings, mean_tv=mean,
                         stderr_tv=(var / len(tvs)) ** 0.5, max_tv=max(tvs),
                         mean_queries=sum(queries) / len(queries),
                         max_fidelity_gap=fgap)
