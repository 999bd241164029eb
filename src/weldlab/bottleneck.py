"""Information-Bottleneck simulator for polynomially many quantum tiers.

After every simulated layer the dictionary of known vertices is rebuilt
from scratch: only labels that remain guessable from the tier's classical
input (membership probability above tau over trees consistent with the
kept dictionary and the transcript) survive, plus the minimum entrance-
rooted subtree closure.  A label guessable but never actually encountered
forces ABORT, as does a transcript whose consistency ratio falls below the
floor rho.

Estimators replay the first i tiers with the seed-tape prefix
(``replay_prefix``) in the tau=0 degeneration, where the pipeline is
transcript-identical to the few-tier simulator.  If the dictionary holds
every answer a replay reads, all consistent trees replay alike: the ratio is
exactly 1 or 0, and no tree is replayed.  So do they if the replay consults
no answer (no query asks a color 1..9), even where the dictionary lacks the
entrance row that every replay reads first: no answer then reaches the
state.  Only where the dictionary leaves the replay open does seeded Monte
Carlo stand in for the doubly exponential exact sets: consistent trees are
drawn, and those reproducing the transcript form the acceptance sample.

All estimator randomness is purpose-keyed off the master seed; measurement
randomness comes only from the seed tape, one segment per tier, so
rerunning tiers 1..i with the same tape prefix reproduces identical
results regardless of later tape bits.

At the default tau a round certifies a label only once it accepts m* = 47, 71
or 143 trees (n = 3, 2, 1): the default budget of 24 never does.  A conclusive
ratio, at least 1/budget, sits far above the default rho floor 2^(-n(g+|r|)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circuits as C
from . import statevec as SV
from .hybrid_sim import (SimContext, SimTranscript, entrance_known,
                         quantum_layer_sim, tier_draws, _quantum_tier_state)
from .known import KnownVertices
from .rng import derive_seed, make_rng
from .tree import BlackBoxTree, EdgeColoring, TreeStructure, sample_consistent


# ---------------------------------------------------------------------------
# Seed tape
# ---------------------------------------------------------------------------

@dataclass
class SeedTape:
    """Explicit random bits; tier i reads only the prefix r_<=i.

    The tape is laid out in segments of n*q*g bits, one per tier; the
    measurement generator for tier i is keyed by the bytes of segment i, so
    it is a function of the prefix alone.  A tape is not changed once made,
    so each tier's seed, and the uniform that measures the tier, is made
    once and kept.
    """

    n: int
    eta: int
    q: int
    g: int
    bits: np.ndarray
    _tier_seeds: dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)
    _tier_uniforms: dict[int, float] = field(default_factory=dict, init=False, repr=False,
                                             compare=False)

    @classmethod
    def generate(cls, master: int, n: int, eta: int, q: int, g: int) -> "SeedTape":
        length = max(n * eta * q * g, eta)
        rng = make_rng(master, "seed-tape")
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        return cls(n=n, eta=eta, q=q, g=g, bits=bits)

    @property
    def segment_len(self) -> int:
        return max(self.n * self.q * self.g, 1)

    def __len__(self) -> int:
        return len(self.bits)

    def tier_seed(self, i: int) -> int:
        """64-bit seed folded from tier i's segment (1-based)."""
        if i not in self._tier_seeds:
            seg = self.bits[(i - 1) * self.segment_len: i * self.segment_len]
            acc = 0
            for byte in np.packbits(seg).tobytes():
                acc = derive_seed(acc, byte)
            self._tier_seeds[i] = derive_seed(acc, "tape-tier", i)
        return self._tier_seeds[i]

    def tier_uniform(self, i: int) -> float:
        """The uniform that measures tier i: ``tier_draws(self.tier_seed)(i)``."""
        if i not in self._tier_uniforms:
            self._tier_uniforms[i] = tier_draws(self.tier_seed)(i)
        return self._tier_uniforms[i]


# ---------------------------------------------------------------------------
# Configuration and result records
# ---------------------------------------------------------------------------

@dataclass
class BottleneckConfig:
    """Thresholds and sampling budgets; defaults follow the source defaults.

    tau defaults to 2^(-n/100); rho is carried as log2 (its default
    -n(g+|r|) underflows a float).  tau=0 short-circuits to the keep-
    everything degeneration.
    """

    tau: float | None = None
    rho_log2: float | None = None
    sample_budget: int = 24
    fresh_candidates: int = 4
    mode: str = "labelings"

    def resolved_tau(self, n: int) -> float:
        return 2 ** (-n / 100) if self.tau is None else self.tau

    def resolved_rho_log2(self, n: int, g: int, tape_len: int) -> float:
        if self.rho_log2 is not None:
            return self.rho_log2
        return -float(n) * (g + tape_len)


@dataclass
class EstimateResult:
    value: float | None
    stderr: float | None
    accepted: int
    attempted: int

    @property
    def conclusive(self) -> bool:
        return self.value is not None


@dataclass
class CallRecord:
    tier: int
    layer: int              # -1 for the tier-start call
    iterations: int
    aborted: bool
    v_current: int
    v_out: int
    v_hist: int
    ratio: float | None
    ratio_stderr: float | None = None


class Abort(Exception):
    """First-class ABORT value: ``bottleneck`` returns it, a tier raises it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class BottleneckResult:
    output: int
    known: KnownVertices | None
    hist: KnownVertices | None
    transcript: SimTranscript
    calls: list[CallRecord]
    aborted: bool
    abort_reason: str | None = None

    def report_json(self) -> str:
        """Per-call report: tier, layer, aborts, loop iterations, set sizes,
        and the consistency-ratio estimates with their stderr."""
        import json
        doc = {
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "output": self.output,
            "v_known": None if self.known is None else self.known.size(),
            "v_hist": None if self.hist is None else self.hist.size(),
            "calls": [{"tier": c.tier, "layer": c.layer,
                       "loop_iterations": c.iterations, "aborted": c.aborted,
                       "v_current": c.v_current, "v_out": c.v_out,
                       "v_hist": c.v_hist, "ratio": c.ratio,
                       "ratio_stderr": c.ratio_stderr}
                      for c in self.calls],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Estimation environment: sampling + replay
# ---------------------------------------------------------------------------

@dataclass
class EstimatorEnv:
    """Everything the Monte Carlo estimators need that is not the secret tree.

    In "labelings" mode the fixed structure and coloring are supplied (the
    transcript distribution of Definition-style experiments varies labelings
    of a fixed tree); in "structures" mode fresh weldings are completed
    around the conditioning dictionary.  ``replays`` is ``_known_replay``'s
    memo: for each prefix length i, the answers its last decided replay read
    and the transcript it gave.
    """

    circuit: C.HybridCircuit
    tape: SeedTape
    seed: int
    structure: TreeStructure | None = None
    coloring: EdgeColoring | None = None
    call_counter: int = 0
    replays: dict[int, tuple[dict[tuple[int, int], int], int]] = field(
        default_factory=dict, repr=False)

    def next_call_id(self) -> int:
        self.call_counter += 1
        return self.call_counter


def replay_prefix(circuit: C.HybridCircuit, P: BlackBoxTree, tape: SeedTape, i: int,
                  ctx: SimContext | None = None) -> int:
    """The transcript of tiers 1..i on tree ``P`` in the tau=0 degeneration.

    Tier j is measured with ``tape.tier_uniform(j)``, so the transcript is a
    function of the tape prefix r_<=i.  The run uses ``ctx`` if given (a
    fresh uninstrumented context on ``P`` otherwise).  ``circuit`` is not
    validated here (``bottleneck_wrapper`` validates it once).
    """
    ctx = ctx or SimContext.fresh(P, instrument=False)
    reached, _ = SV.drive_hybrid(circuit, ctx, tape.tier_uniform, entrance_known(ctx), i)
    return next(iter(reached))


class _Undecided(Exception):
    """A replay read an answer that the known dictionary does not hold."""


class _KnownOracle:
    """V as the tree of a ``replay_prefix`` (which reads only ``n``, ``invalid``
    and ``handle().query``), run in ``ctx``.

    Until ``ctx`` has consulted its dictionary, an entrance-row key V lacks
    reads as an INVALID placeholder (and sets ``placeholders``); any other
    key V lacks raises ``_Undecided``.  ``reads`` holds each answer read from V.
    """

    def __init__(self, V: KnownVertices, n: int):
        self.entries, self.invalid, self.n, self.count = V.entries, V.invalid, n, 0
        self.placeholders = False
        self.reads: dict[tuple[int, int], int] = {}
        self.ctx = SimContext.fresh(self, instrument=False)

    def handle(self) -> "_KnownOracle":
        return self

    def query(self, x: int, c: int) -> int:
        self.count += 1
        y = self.entries.get((x, c))
        if y is not None:
            self.reads[(x, c)] = y
            return y
        if x != 0 or self.ctx.consulted:
            raise _Undecided
        self.placeholders = True
        return self.invalid


def _known_replay(V: KnownVertices, i: int, env: EstimatorEnv) -> int | None:
    """The replay of tiers 1..i on every tree consistent with V, or None.

    It is decided if every answer it read is V's (each consistent tree
    answers V's keys as V does), or if it consulted no answer at all: then
    only the entrance row was read, no answer reached a state, and every
    tree replays alike whatever its entrance row.

    A decided replay is kept in ``env.replays[i]`` with the answers it read
    (none if it consulted none).  A later V that holds each of them would be
    asked the same keys in the same order, so its transcript is reused.
    """
    reads, y = env.replays.get(i, (None, None))
    if reads is not None and all(V.entries.get(k) == a for k, a in reads.items()):
        return y
    oracle = _KnownOracle(V, env.circuit.n)
    try:
        y = replay_prefix(env.circuit, oracle, env.tape, i, oracle.ctx)
    except _Undecided:
        return None
    if oracle.placeholders and oracle.ctx.consulted:
        return None
    env.replays[i] = (oracle.reads if oracle.ctx.consulted else {}, y)
    return y


def _sample_accepted_trees(V: KnownVertices, x: int, i: int, env: EstimatorEnv,
                           cfg: BottleneckConfig,
                           need_trees: bool = True) -> tuple[list[BlackBoxTree] | None, int]:
    """Sampled consistent trees whose replay reproduces x, and how many were tried.

    Where the replay is decided (V holds every answer it reads, or it
    consults no answer) no tree is replayed, and none is drawn unless it
    gives x and ``need_trees`` is set (the accepted list is then [] or None).
    Each tree's seed is keyed by (call id, i, s), so this returns what
    drawing and replaying all ``sample_budget`` trees would.
    """
    call_id = env.next_call_id()
    decided = _known_replay(V, i, env)
    if decided is not None and decided != x:
        return [], cfg.sample_budget
    if decided == x and not need_trees:
        return None, cfg.sample_budget
    accepted: list[BlackBoxTree] = []
    for s in range(cfg.sample_budget):
        seed_s = derive_seed(env.seed, "estimator", call_id, i, s)
        P = sample_consistent(V, env.circuit.n, seed_s, mode=cfg.mode,
                              structure=env.structure, coloring=env.coloring)
        if decided == x or replay_prefix(env.circuit, P, env.tape, i) == x:
            accepted.append(P)
    return accepted, cfg.sample_budget


def _hits(accepted: list[BlackBoxTree], b: int) -> int:
    """How many accepted trees give label ``b`` to a vertex."""
    return sum(1 for P in accepted if b in P.inverse)


def estimate_membership_probability(V: KnownVertices, x: int, i: int, b: int,
                                    env: EstimatorEnv, cfg: BottleneckConfig) -> EstimateResult:
    """P[b is a valid label] over consistent trees reproducing transcript x."""
    if b == V.invalid:
        return EstimateResult(0.0, 0.0, 0, 0)
    if b == 0 or b in V.known_labels():
        return EstimateResult(1.0, 0.0, 0, 0)
    accepted, attempted = _sample_accepted_trees(V, x, i, env, cfg)
    if not accepted:
        return EstimateResult(None, None, 0, attempted)
    p = _hits(accepted, b) / len(accepted)
    return EstimateResult(p, math.sqrt(max(p * (1 - p), 1 / len(accepted)) / len(accepted)),
                          len(accepted), attempted)


def estimate_consistency_ratio(V: KnownVertices, x: int, i: int,
                               env: EstimatorEnv, cfg: BottleneckConfig) -> EstimateResult:
    """Fraction of consistent trees whose replay reproduces x; 0 hits -> inconclusive."""
    if i == 0:
        return EstimateResult(1.0, 0.0, 0, 0)
    accepted, attempted = _sample_accepted_trees(V, x, i, env, cfg, need_trees=False)
    hits = attempted if accepted is None else len(accepted)
    if not hits:
        return EstimateResult(None, None, 0, attempted)
    p = hits / attempted
    return EstimateResult(p, math.sqrt(p * (1 - p) / attempted), hits, attempted)


# ---------------------------------------------------------------------------
# The Bottleneck subroutine
# ---------------------------------------------------------------------------

def _entrance_parents(V_hist: KnownVertices) -> dict[int, int | None]:
    """Each label's BFS parent in V_hist's recorded-answer graph, on a
    shortest path from the entrance (whose parent is None)."""
    graph: dict[int, dict[int, int]] = {}
    for (xx, c), y in V_hist.entries.items():
        if y != V_hist.invalid:
            graph.setdefault(xx, {})[c] = y
    parent: dict[int, int | None] = {0: None}
    order = [0]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for c in sorted(graph.get(u, {})):
            w = graph[u][c]
            if w not in parent:
                parent[w] = u
                order.append(w)
    return parent


def complete_subtree(V: KnownVertices, V_hist: KnownVertices) -> KnownVertices:
    """Minimum entrance-rooted subtree of V_hist containing V, as full rows.

    BFS parents in the recorded-answer graph give shortest paths from the
    entrance; the union of those paths over V's key vertices (plus the
    entrance itself) is closed into a dictionary by copying each chosen
    vertex's full answer row from V_hist.
    """
    parent = _entrance_parents(V_hist)
    chosen = {0}
    for target in sorted(V.key_labels()):
        if target not in parent:
            raise AssertionError(f"label {target:#x} unreachable from the entrance "
                                 "in the recorded history")
        while target is not None and target not in chosen:
            chosen.add(target)
            target = parent[target]
    out = KnownVertices(V_hist.invalid)
    for v in sorted(chosen):
        for c, y in V_hist.row(v).items():
            out.entries[(v, c)] = y
    # keep any extra entries the caller already held (subset of V_hist)
    return out.merge(V)


def loop_ceiling(g: int, tape_len: int) -> int:
    return 2 * (g + tape_len)


def size_ceiling(v_current: int, n: int, g: int, tape_len: int) -> int:
    return v_current + 2 * n * (g + tape_len)


def bottleneck(i: int, x: int, V_current: KnownVertices, V_hist: KnownVertices,
               env: EstimatorEnv, cfg: BottleneckConfig,
               record: CallRecord | None = None) -> KnownVertices | Abort:
    """Rebuild the effectively-known dictionary; ABORT is a return value."""
    if not V_current.is_key_subset_of(V_hist):
        raise ValueError("V_current must be a key-subset of V_hist")
    n, g = env.circuit.n, env.circuit.g
    tape_len = len(env.tape)
    tau = cfg.resolved_tau(n)
    if record is None:
        record = CallRecord(tier=i, layer=-1, iterations=0, aborted=False,
                            v_current=V_current.size(), v_out=0,
                            v_hist=V_hist.size(), ratio=None)

    if tau <= 0.0:
        out = V_hist.copy()
        record.v_out = out.size()
        return out

    ratio = estimate_consistency_ratio(V_current, x, i, env, cfg)
    record.ratio = ratio.value
    record.ratio_stderr = ratio.stderr
    rho_log2 = cfg.resolved_rho_log2(n, g, tape_len)
    if ratio.conclusive and ratio.value > 0 and math.log2(ratio.value) < rho_log2:
        record.aborted = True
        return Abort("consistency ratio below floor")
    # an inconclusive or zero-hit estimate cannot certify smallness: no abort

    V = V_current.copy()
    ceiling = loop_ceiling(g, tape_len)
    iterations = 0
    rng_call_id = env.next_call_id()

    def clears_tau(hits: int, m: int) -> bool:
        # Laplace-smoothed comparison: a finite sample cannot certify
        # p > tau when tau is this close to 1 unless the evidence is strong
        return (hits + 1) / (m + 2) > tau

    # no round can certify a label if even hits = m = sample_budget fails
    certifiable = clears_tau(cfg.sample_budget, cfg.sample_budget)
    rng = make_rng(env.seed, "fresh-candidates", rng_call_id) if certifiable else None
    if not certifiable:
        env.next_call_id()      # the skipped round's, so later seeds stay put
    while certifiable:
        accepted, _ = _sample_accepted_trees(V, x, i, env, cfg)
        violator = None
        if accepted:
            m = len(accepted)
            known = V.known_labels() | {0}
            for b in sorted(V_hist.known_labels() - known):
                if clears_tau(_hits(accepted, b), m):
                    violator = b
                    break
            if violator is None:
                inv = V_hist.invalid
                for _ in range(cfg.fresh_candidates):
                    b = int(rng.integers(0, inv + 1))
                    if b == inv or b in known or b in V_hist.known_labels():
                        continue
                    if clears_tau(_hits(accepted, b), m):
                        record.aborted = True
                        record.iterations = iterations
                        return Abort("guessable label outside the history")
        if violator is None:
            break
        iterations += 1
        if iterations > ceiling:
            raise AssertionError(f"bottleneck while-loop exceeded {ceiling} iterations")
        row = V_hist.row(violator)
        # its row, or if known only as a neighbour the edge(s) pointing at it
        adopted = ({(violator, c): y for c, y in row.items()} if row else
                   {k: y for k, y in V_hist.entries.items() if y == violator})
        V.entries.update(adopted)
        if not known & ({xx for xx, _c in adopted} | set(adopted.values())):
            # nothing V knows leads to it: adopt the rows on V_hist's
            # entrance path to it too, so that V stays entrance-rooted
            parent, u = _entrance_parents(V_hist), violator
            while (u := parent.get(u)) is not None:
                V.entries.update(((u, c), y) for c, y in V_hist.row(u).items())
    record.iterations = iterations

    out = complete_subtree(V, V_hist)
    if out.size() > size_ceiling(V_current.size(), n, g, tape_len):
        raise AssertionError("bottleneck output size ceiling exceeded")
    if not V_current.is_key_subset_of(out) or not out.is_key_subset_of(V_hist):
        raise AssertionError("bottleneck subset chain violated")
    record.v_out = out.size()
    return out


# ---------------------------------------------------------------------------
# Tier simulation and wrapper
# ---------------------------------------------------------------------------

@dataclass
class _BottleneckTiers:
    """The oracle policy under which ``SV.drive_hybrid`` runs the pipeline.

    A tier is the few-tier simulator's (with its 4^d|V| ceiling and tier
    accounting) with a bottleneck call before it and after each layer; an
    ABORT from any of them is raised.  ``hist`` and ``calls`` outlive an
    ABORT, which leaves ``hist`` as it stood when the tier began.
    """

    ctx: SimContext
    env: EstimatorEnv
    cfg: BottleneckConfig
    hist: KnownVertices
    calls: list[CallRecord] = field(default_factory=list)

    def quantum_tier(self, j: int, t: C.Tier, x: int, V: KnownVertices):
        hist = self.hist

        def call(layer: int, V_cur: KnownVertices) -> KnownVertices:
            rec = CallRecord(tier=j, layer=layer, iterations=0, aborted=False,
                             v_current=V_cur.size(), v_out=0, v_hist=hist.size(),
                             ratio=None)
            self.calls.append(rec)
            V_next = bottleneck(j - 1, x, V_cur, hist, self.env, self.cfg, record=rec)
            if isinstance(V_next, Abort):
                raise V_next
            return V_next

        def layer_sim(lay, state, V, ctx, tier, layer_index):
            nonlocal hist
            state, V_temp = quantum_layer_sim(lay, state, V, ctx, tier, layer_index)
            hist = hist.merge(V_temp)
            return state, call(layer_index, V_temp)

        V0 = call(-1, KnownVertices(hist.invalid))
        probs, V = _quantum_tier_state(j, t, x, V0, self.ctx, layer_sim)
        self.hist = hist.merge(V)
        return probs, V


def bottleneck_wrapper(circuit: C.HybridCircuit, bbt: BlackBoxTree, seed: int = 0,
                       cfg: BottleneckConfig | None = None, *,
                       tape: SeedTape) -> BottleneckResult:
    """Iterative composition of bottlenecked tier simulations (all-quantum).

    On ABORT the result carries a uniformly random label as the exit guess.
    """
    C.require_valid(circuit)
    if not circuit.all_quantum:
        raise ValueError("bottleneck pipeline expects the all-quantum-tier variant")
    cfg = cfg or BottleneckConfig()
    env = EstimatorEnv(circuit=circuit, tape=tape, seed=seed,
                       structure=bbt.structure if cfg.mode == "labelings" else None,
                       coloring=bbt.coloring if cfg.mode == "labelings" else None)
    ctx = SimContext.fresh(bbt)
    V = entrance_known(ctx)
    policy = _BottleneckTiers(ctx, env, cfg, hist=V.copy())
    try:
        acc, V = SV.drive_hybrid(circuit, policy, tape.tier_uniform, V)
        output, reason = next(iter(acc)), None
    except Abort as abort:
        V, reason = None, abort.reason
        output = int(make_rng(seed, "abort-guess").integers(0, 1 << bbt.label_bits))
        ctx.transcript.aborted = True
        ctx.transcript.abort_reason = reason
    ctx.transcript.output = output
    return BottleneckResult(output=output, known=V, hist=policy.hist,
                            transcript=ctx.transcript, calls=policy.calls,
                            aborted=reason is not None, abort_reason=reason)
