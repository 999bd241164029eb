"""Benchmark inputs, generated from integer seeds by the benchmark alone.

Nothing here imports weldlab.  Random choices come from numpy's
SeedSequence + PCG64 (both stream-stable across numpy releases), keyed by
the workload seed and a tag, so moving or rewriting a helper inside the
package cannot change what the benchmark feeds it.

Circuits are produced as text in the package's circuit format and parsed
by the package during set-up.  ``exact-wide`` and ``bottleneck`` draw their
items from fixed pools (``POOL_SEED``) because their outputs are checked
against a stored reference.  A pool slot fixes a circuit; its variants
differ in the tree labeling (or tree) and the run seed.  The workload seed
picks one variant per slot and the order in which items run.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

N = 3                       # tree height of every exact-wide / bottleneck input
POOL_SEED = 20191023        # fixes the exact-wide and bottleneck pools
VARIANTS = 2                # pooled variants per slot; the workload seed picks one

# exact-wide: support exponent (H wires in the one H layer) -> pool slots.
# Of the 100 items, 12 hold 2^14 or more amplitudes, so the 90th percentile
# sits inside the 2^14 group and the median inside the 2^9 group.  Few
# mid-size items keep a whole pass within a run on a slow shared core.
WIDE_SLOTS = {8: 30, 9: 30, 10: 14, 11: 6, 12: 3, 13: 1, 14: 11, 16: 1}
JOZSA_SLOTS = {8: 4}

# bottleneck: (eta, mode) -> pool slots; a fixed half-and-half mode mix
BOTTLENECK_SLOTS = {(2, "labelings"): 30, (3, "labelings"): 30,
                    (2, "structures"): 30, (3, "structures"): 30}
BOTTLENECK_G = 16           # = 4n+4: a query layer spans every wire
BOTTLENECK_MAX_DEPTH = 2
BOTTLENECK_MAX_H = 5        # H gates per layer; keeps states at <= 2^10 amplitudes
SAMPLE_BUDGET = 12

# blind-walks: (n, h) guessing cell -> items; trials per item by n.  Item
# latencies rise n5h1 ~ n5h4 < n5h16 < n3h1 ~ n3h4 < n3h16 < commands; the
# counts put the median inside the n5h16 group and the 90th percentile
# inside the n3h16 group.
DISCOVERY_CELLS = {(5, 1): 12, (5, 4): 12, (5, 16): 36,
                   (3, 1): 12, (3, 4): 12, (3, 16): 18}
DISCOVERY_TRIALS = {3: 1000, 5: 400}
# the pinned CLI configs: `weldlab walk -n 4` and scripts/configs/e2e_n9.json
# (seeds come from the workload seed instead)
WALK_N4 = {"experiment": "walk", "n": 4}
E2E_N9 = {"experiment": "e2e", "n": 9, "trials": 10000, "samples": 20,
          "t_max": 60.0, "steps": 600}
WALK_N4_WALKERS = 10_000    # `walk` runs min(trials, 10_000) walkers; trials defaults to 20_000


def stream(*key: int | str) -> np.random.Generator:
    """A generator keyed by a path of ints and strings."""
    words = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 62))


def walker_budget(n: int) -> int:
    """Queries per blind walker at height n: the harness default round(2^(n/3))."""
    return round(2 ** (n / 3))


def interleave(groups: dict[object, list], rng: np.random.Generator) -> list:
    """Merge groups so each is spread evenly over the result.

    Any prefix of the result then holds close to every group's share, so a
    run cut short by its time limit still sees the full mix.  Offsets below
    one half put every single-member group in the first half.
    """
    keyed = []
    for name in sorted(groups, key=repr):
        members = groups[name]
        order = rng.permutation(len(members))
        offset = float(rng.random()) / 2
        for j, idx in enumerate(order):
            keyed.append(((j + offset) / len(members), repr(name), members[idx]))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [t[2] for t in keyed]


# ---------------------------------------------------------------------------
# circuit text
# ---------------------------------------------------------------------------

def _gates(name: str, wires) -> str:
    return "  " + " ".join(f"{name}({w})" for w in wires)


def _qry(x, c, y) -> str:
    return "  QRY(" + ",".join(str(w) for w in (*x, *c, *y)) + ")"


def _p_tof_layer(rng: np.random.Generator, width: int, allow_p: bool = True) -> str:
    """A depth-1 layer of Toffolis and (optionally) phase gates."""
    wires = [int(w) for w in rng.permutation(width)]
    gates = []
    while len(wires) >= 3 and len(gates) < max(1, width // 6):
        a, b, t = wires.pop(), wires.pop(), wires.pop()
        gates.append(f"TOF({a},{b},{t})")
    if allow_p:
        for _ in range(min(len(wires), max(1, width // 5))):
            gates.append(f"P({wires.pop()})")
    return "  " + " ".join(gates) if gates else "  -"


def wide_hybrid_text(rng: np.random.Generator, k: int) -> str:
    """Hybrid circuit whose one H layer gives the state 2^k amplitudes.

    Wires: x = 0..5, c = 6..9, y = 10..15, spare = 16..g-1.  The H layer
    covers the whole c-register (colors, plus the values 0 and 10..15 that
    answer INVALID without a query), k-4 (at most 6) x wires and k-10 spare
    wires.  The first query reads x, which ranges over the entrance,
    unknown valid labels and non-labels; the second reads the first one's
    answers, which include the entrance's learned neighbours.  The tier
    ends by discarding and re-adding wires 6.., so the output is the
    x-register (at most 2^6 strings) while the work before it scales
    with 2^k.
    """
    if not 8 <= k <= 16:
        raise ValueError("support exponent must be in 8..16")
    g = 16 + max(0, k - 10)
    x, c, y = range(0, 6), range(6, 10), range(10, 16)
    xh = sorted(int(w) for w in rng.choice(list(x), size=min(k - 4, 6), replace=False))
    lines = [f"hybrid n={N} g={g}",
             "tier classical",
             _gates("ANC", range(N, g)),
             "tier quantum",
             _gates("H", [*xh, *c, *range(16, g)]),
             _qry(x, c, y),
             _p_tof_layer(rng, g),
             _qry(y, c, x),
             _gates("DIS", range(6, g)),
             _gates("ANC", range(6, g))]
    return "\n".join(lines) + "\n"


def wide_jozsa_text(rng: np.random.Generator, k: int, eta: int) -> str:
    """Jozsa circuit (g = 16, R1 = wires 0..7) with 2^k amplitudes after its H layer."""
    g = 16
    y, c, x = range(0, 6), range(6, 10), range(10, 16)
    xh = sorted(int(w) for w in rng.choice(list(x), size=min(k - 4, 6), replace=False))
    lines = [f"jozsa n={N} g={g}",
             "tier quantum",
             _gates("ANC", range(N, g)),
             _gates("H", [*xh, *c]),
             _qry(x, c, y),
             _p_tof_layer(rng, g),
             "tier classical",
             _p_tof_layer(rng, g // 2, allow_p=False)]
    for _ in range(eta - 1):
        lines += ["tier quantum",
                  _qry(y, c, x),
                  _p_tof_layer(rng, g),
                  "tier classical",
                  _p_tof_layer(rng, g // 2, allow_p=False)]
    return "\n".join(lines) + "\n"


def _random_quantum_layer(rng: np.random.Generator, width: int) -> str:
    """A query over all wires, or 2..BOTTLENECK_MAX_H H gates plus P/TOF."""
    wires = [int(w) for w in rng.permutation(width)]
    if rng.random() < 0.5:
        q = wires[: 4 * N + 4]
        return _qry(q[: 2 * N], q[2 * N: 2 * N + 4], q[2 * N + 4:])
    gates = [f"H({wires.pop()})" for _ in range(int(rng.integers(2, BOTTLENECK_MAX_H + 1)))]
    while wires:
        r = rng.random()
        if r < 0.25:
            gates.append(f"P({wires.pop()})")
        elif r < 0.6 and len(wires) >= 3:
            gates.append(f"TOF({wires.pop()},{wires.pop()},{wires.pop()})")
        else:
            wires.pop()
    return "  " + " ".join(gates)


def random_allq_text(rng: np.random.Generator, eta: int) -> str:
    """All-quantum hybrid circuit: eta tiers of depth <= 2, first grows n -> g."""
    g = BOTTLENECK_G
    lines = [f"hybrid-allq n={N} g={g}"]
    for i in range(eta):
        lines.append("tier quantum")
        depth = int(rng.integers(1, BOTTLENECK_MAX_DEPTH + 1))
        layers = [_gates("ANC", range(N, g))] if i == 0 else []
        while len(layers) < depth:
            layers.append(_random_quantum_layer(rng, g))
        lines += layers
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pools and item lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WideSpec:
    key: str                # "<slot>/<variant>", the reference key
    kind: str               # "hybrid" | "jozsa"
    k: int                  # support exponent of the H layer
    text: str
    labels_seed: int        # for tree.generate_labels on the shared structure
    run_seed: int           # for the sampled wrapper run


@dataclass(frozen=True)
class BottleneckSpec:
    key: str
    eta: int
    mode: str
    text: str
    tree_seed: int          # tree.make_blackbox(N, tree_seed)
    run_seed: int           # wrapper seed and seed-tape master


def wide_tree_seed() -> int:
    """Seed of the one structure + coloring that every exact-wide labeling uses."""
    return draw_seed(stream(POOL_SEED, "exact-wide", "tree"))


def wide_pool() -> dict[str, list[WideSpec]]:
    """slot -> its VARIANTS specs, for every exact-wide slot."""
    pool: dict[str, list[WideSpec]] = {}
    for kind, slots in (("hybrid", WIDE_SLOTS), ("jozsa", JOZSA_SLOTS)):
        for k, count in slots.items():
            for j in range(count):
                slot = f"{kind}-k{k}-{j}"
                rng = stream(POOL_SEED, "exact-wide", slot)
                text = (wide_hybrid_text(rng, k) if kind == "hybrid"
                        else wide_jozsa_text(rng, k, eta=1 + j % 2))
                pool[slot] = []
                for v in range(VARIANTS):
                    rng = stream(POOL_SEED, "exact-wide", slot, v)
                    pool[slot].append(WideSpec(f"{slot}/{v}", kind, k, text,
                                               draw_seed(rng), draw_seed(rng)))
    return pool


def bottleneck_pool() -> dict[str, list[BottleneckSpec]]:
    pool: dict[str, list[BottleneckSpec]] = {}
    for (eta, mode), count in BOTTLENECK_SLOTS.items():
        for j in range(count):
            slot = f"{mode}-eta{eta}-{j}"
            text = random_allq_text(stream(POOL_SEED, "bottleneck", slot), eta)
            pool[slot] = []
            for v in range(VARIANTS):
                rng = stream(POOL_SEED, "bottleneck", slot, v)
                pool[slot].append(BottleneckSpec(f"{slot}/{v}", eta, mode, text,
                                                 draw_seed(rng), draw_seed(rng)))
    return pool


def _pick(pool: dict[str, list], group_of, seed: int, name: str) -> list:
    """One variant per slot, chosen by the seed, interleaved by group."""
    rng = stream(seed, name)
    groups: dict[object, list] = {}
    for slot in sorted(pool):
        spec = pool[slot][int(rng.integers(0, VARIANTS))]
        groups.setdefault(group_of(spec), []).append(spec)
    return interleave(groups, rng)


def exact_wide_items(seed: int) -> list[WideSpec]:
    return _pick(wide_pool(), lambda s: (s.kind, s.k), seed, "exact-wide")


def bottleneck_items(seed: int) -> list[BottleneckSpec]:
    return _pick(bottleneck_pool(), lambda s: (s.eta, s.mode), seed, "bottleneck")


@dataclass(frozen=True)
class WalkSpec:
    key: str
    kind: str               # "discovery" | "command"
    units: int              # blind oracle queries
    n: int = 0
    h: int = 0
    trials: int = 0
    seed: int = 0
    config: tuple = ()      # ExperimentConfig fields for commands


def blind_walk_items(seed: int) -> list[WalkSpec]:
    rng = stream(seed, "blind-walks")
    groups: dict[object, list] = {}
    for (n, h), count in DISCOVERY_CELLS.items():
        trials = DISCOVERY_TRIALS[n]
        groups[("discovery", n, h)] = [
            WalkSpec(f"discovery-n{n}-h{h}-{r}", "discovery", trials * h, n=n, h=h,
                     trials=trials, seed=draw_seed(rng))
            for r in range(count)]
    for name, fields, walkers in (("walk-n4", WALK_N4, WALK_N4_WALKERS),
                                  ("e2e-n9", E2E_N9, E2E_N9["trials"])):
        cfg = dict(fields, seed=draw_seed(rng), jobs=1)
        groups[("command", name)] = [
            WalkSpec(name, "command", walkers * walker_budget(fields["n"]),
                     config=tuple(sorted(cfg.items())))]
    return interleave(groups, rng)
