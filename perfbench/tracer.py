"""Per-layer tracing by wrapping weldlab's public functions from outside.

``Tracer.install()`` replaces every binding of each traced function: the
module attribute, every ``from ... import`` copy held by another weldlab
module, or the class attribute of a traced method.  ``uninstall()`` puts
the originals back.  A target that no longer exists is recorded in
``absent`` and its metrics read zero.

Spans are kept in memory (name, start, end, parent) and written out by
``save()``.  Aggregates are kept online: calls, inclusive and self time per
span name, where self time is the duration minus the time covered by
direct child spans, plus counters and maxima taken at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

MAX_SPANS = 2_000_000       # spans kept for the trace file; aggregates stay exact

SPANS = [
    "tree.generate_structure", "tree.generate_coloring", "tree.generate_labels",
    "tree.sample_consistent",
    "rng.make_rng", "rng.derive_seed",
    "known.KnownVertices.copy", "known.KnownVertices.merge",
    "known.KnownVertices.known_labels",
    "circuits.parse", "circuits.validate",
    "statevec.apply_layer", "statevec.PureState.marginal",
    "statevec.run_hybrid_exact", "statevec.run_jozsa_exact",
    "hybrid_sim.quantum_layer_sim", "hybrid_sim._quantum_tier_state",
    "hybrid_sim.simulate_oracle",
    "hybrid_sim.few_tier_wrapper", "hybrid_sim.jozsa_wrapper",
    "hybrid_sim.few_tier_exact_distribution", "hybrid_sim.jozsa_exact_distribution",
    "bottleneck.bottleneck_wrapper", "bottleneck.bottleneck",
    "bottleneck.replay_prefix", "bottleneck.SeedTape.tier_seed",
    "walk.classical_walker", "walk.sweep", "walk.full_graph_state",
    "harness.discovery_rate", "harness.run_command",
]
COUNTED = ["tree.OracleHandle.query", "tree.BlackBoxTree.answer", "circuits.accounting"]
LAYER_KINDS = ("qry", "h", "tof_p")
MODULES = ("tree", "rng", "known", "circuits", "statevec", "hybrid_sim",
           "bottleneck", "walk", "harness")
# span names that also count the exceptions they raise
FAILURE_COUNTED = ("tree.sample_consistent",)
# wrappers whose results carry a transcript (counted at the outermost one)
TRANSCRIPT_SPANS = ("hybrid_sim.few_tier_wrapper", "hybrid_sim.jozsa_wrapper",
                    "bottleneck.bottleneck_wrapper")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPANS:
        names = [name] + ([f"{name}.{k}" for k in LAYER_KINDS]
                          if name == "statevec.apply_layer" else [])
        for span in names:
            out.append((f"{span}.calls", "count", "lower"))
            out.append((f"{span}.self_s", "s", "lower"))
    out += [("tree.sample_consistent.failed", "count", "lower"),
            ("tree.OracleHandle.query.calls", "count", "lower"),
            ("tree.BlackBoxTree.answer.calls", "count", "lower"),
            ("circuits.accounting.calls", "count", "lower"),
            ("statevec.apply_layer.amps_in", "count", "lower"),
            ("statevec.apply_layer.support_max", "count", "lower"),
            ("statevec.amps_per_s", "1/s", "higher"),
            ("hybrid_sim.simulate_oracle.support", "count", "lower"),
            ("hybrid_sim.vertex_queries", "count", "lower"),
            ("hybrid_sim.raw_queries", "count", "lower"),
            ("bottleneck.aborts", "count", "lower"),
            ("bottleneck.loop_iterations", "count", "lower"),
            ("bottleneck.accept_ratio", "ratio", "higher"),
            ("bottleneck.accept_ratio.attempted", "count", "lower"),
            ("harness.trace_overhead_ratio", "ratio", "lower"),
            ("perfbench.traced_items", "count", "higher")]
    out += [(f"{m}.share", "ratio", "lower") for m in MODULES]
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def layer_kind(lay) -> str:
    """qry if the layer queries, else h if it has an H gate, else tof_p."""
    kinds = {g.kind.value for g in lay.gates}
    if "QRY" in kinds:
        return "qry"
    return "h" if "H" in kinds else "tof_p"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of_span = array("H")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.share_ns: dict[str, int] = defaultdict(int)
        self._module_depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [span index, name, start, child ns]
        self._transcript_depth = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        start = time.perf_counter_ns()
        idx = -1
        if len(self.start_ns) < MAX_SPANS:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start_ns)
            self.name_of_span.append(nid)
            self.start_ns.append(start)
            self.end_ns.append(start)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
        else:
            self.dropped += 1
        module = name.split(".", 1)[0]
        self._module_depth[module] += 1
        frame = [idx, name, start, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        idx, name, start, child = frame
        self._stack.pop()
        if idx >= 0:
            self.end_ns[idx] = end
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        module = name.split(".", 1)[0]
        self._module_depth[module] -= 1
        if self._module_depth[module] == 0:
            self.share_ns[module] += dur

    def _span(self, name: str, fn):
        tracer = self
        count_failures = name in FAILURE_COUNTED
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        transcripts = name in TRANSCRIPT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "statevec.apply_layer":
                span_name = f"{name}.{layer_kind(_arg(args, kwargs, 1, 'lay'))}"
            frame = tracer._open(span_name)
            if transcripts:
                tracer._transcript_depth += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if count_failures:
                    tracer.counters[f"{name}.failed"] += 1
                raise
            finally:
                if transcripts:
                    tracer._transcript_depth -= 1
                tracer._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- counters read at span boundaries -----------------------------------

    def _after_statevec_apply_layer(self, args, kwargs, result) -> None:
        amps_in = len(_arg(args, kwargs, 0, "state").amps)
        self.counters["statevec.apply_layer.amps_in"] += amps_in
        key = "statevec.apply_layer.support_max"
        self.counters[key] = max(self.counters[key], amps_in, len(result.amps))

    def _after_hybrid_sim_simulate_oracle(self, args, kwargs, result) -> None:
        self.counters["hybrid_sim.simulate_oracle.support"] += len(
            _arg(args, kwargs, 3, "support"))

    def _count_transcript(self, result) -> None:
        if self._transcript_depth == 0:
            self.counters["hybrid_sim.vertex_queries"] += result.transcript.queries
            self.counters["hybrid_sim.raw_queries"] += result.transcript.raw_queries

    def _after_hybrid_sim_few_tier_wrapper(self, args, kwargs, result) -> None:
        self._count_transcript(result)

    def _after_hybrid_sim_jozsa_wrapper(self, args, kwargs, result) -> None:
        self._count_transcript(result)

    def _after_bottleneck_bottleneck_wrapper(self, args, kwargs, result) -> None:
        self._count_transcript(result)
        if self._transcript_depth:
            return
        self.counters["bottleneck.aborts"] += int(result.aborted)
        self.counters["bottleneck.loop_iterations"] += sum(c.iterations for c in result.calls)
        cfg = kwargs.get("cfg") or (args[4] if len(args) > 4 else None)
        if cfg is None or cfg.resolved_tau(_arg(args, kwargs, 0, "circuit").n) <= 0:
            return
        for call in result.calls:
            # tier-1 calls condition on the empty transcript and sample nothing
            if call.tier >= 2:
                self.counters["bottleneck.accept_ratio.accepted"] += (
                    (call.ratio or 0.0) * cfg.sample_budget)
                self.counters["bottleneck.accept_ratio.attempted"] += cfg.sample_budget

    # -- installation -------------------------------------------------------

    def _resolve(self, dotted: str):
        """(owner, attribute, original) for 'module.func' or 'module.Class.method'."""
        parts = dotted.split(".")
        try:
            owner = importlib.import_module(f"weldlab.{parts[0]}")
        except ImportError:
            return None
        for attr in parts[1:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        original = getattr(owner, parts[-1], None)
        return None if original is None else (owner, parts[-1], original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import weldlab.harness  # noqa: F401  (imports every traced module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "weldlab" or name.startswith("weldlab.")]
        for dotted in SPANS + COUNTED:
            found = self._resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            wrapper = (self._span(dotted, original) if dotted in SPANS
                       else self._counter(dotted, original))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float, items: int) -> dict[str, float]:
        """Every per-layer metric but the tracing overhead, which needs a second run.

        ``wall_s`` is the traced process's working time, the base of the shares.
        """
        names = [name for name, _unit, _better in per_layer_metrics()]
        out = dict.fromkeys(names, 0.0)
        for span in self.calls:
            out[f"{span}.calls"] = float(self.calls[span])
            out[f"{span}.self_s"] = self.self_ns[span] / 1e9
        layer_ns = 0
        for k in LAYER_KINDS:
            span = f"statevec.apply_layer.{k}"
            out["statevec.apply_layer.calls"] += self.calls.get(span, 0)
            out["statevec.apply_layer.self_s"] += self.self_ns.get(span, 0) / 1e9
            layer_ns += self.total_ns.get(span, 0)
        for key, value in self.counters.items():
            if key in out:
                out[key] = float(value)
        counters = self.counters
        if layer_ns:
            out["statevec.amps_per_s"] = counters["statevec.apply_layer.amps_in"] / (layer_ns / 1e9)
        if counters["bottleneck.accept_ratio.attempted"]:
            out["bottleneck.accept_ratio"] = (counters["bottleneck.accept_ratio.accepted"]
                                              / counters["bottleneck.accept_ratio.attempted"])
        for m in MODULES:
            out[f"{m}.share"] = self.share_ns.get(m, 0) / 1e9 / wall_s
        out["perfbench.traced_items"] = float(items)
        return out

    def save(self, path) -> None:
        """Write the kept spans as compressed columns (numpy .npz)."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name_of_span, np.uint16),
            start_ns=np.frombuffer(self.start_ns, np.int64),
            end_ns=np.frombuffer(self.end_ns, np.int64),
            parent=np.frombuffer(self.parent, np.int32),
            dropped=np.array(self.dropped), absent=np.array(self.absent, dtype=str))
