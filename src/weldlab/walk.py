"""Continuous-time quantum walk on welded trees, plus classical baselines.

The adjacency operator preserves the span of the uniform column states, so
the walk from entrance to exit reduces to a (2n+2)-dimensional symmetric
tridiagonal matrix with entries E_j / sqrt(N_j N_{j+1}) computed from the
explicit structure (E_j edges between columns j and j+1, N_j vertices in
column j).  The reduced walk is evolved by eigendecomposition; the
full-graph cross-check propagates exp(-iAt) with truncated Taylor steps on
the graph's neighbour table (numpy only), independently of the columns.

The classical baseline walks the oracle blindly: one query per step on a
uniformly random color, moving to the answer when it is a valid label and
staying put otherwise.  Such a walker never compares label values, so its
path in vertex space is ``v' = nbr[v, c]`` where that neighbour exists and
``v`` otherwise, under every labeling; and the labeling is drawn
independently of the walk.  Each color a vertex has leads to one neighbour,
so a step moves to each neighbour with probability 1/9 under every coloring
too.  ``blind_walks`` walks vertex indices over ``blind_table``, a batch of
walks in lockstep, and callers grade the paths afterwards: the walker
baseline here by the exit vertex, the guessing experiment in ``harness`` by
the exact law of a guess given the vertices a walk reached.  Neither draws a
labeling or a coloring: both take only the structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng
from .tree import TreeStructure, generate_structure

FULL_WALK_MAX_N = 7


@dataclass
class ReducedWalk:
    """Column-space Hamiltonian with its eigendecomposition."""

    matrix: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray


def build_reduced(structure: TreeStructure) -> ReducedWalk:
    n = structure.n
    dim = 2 * n + 2
    col, nbr = structure.column, structure.neighbors
    counts = np.bincount(col, minlength=dim)                    # N_j
    rightward = (nbr >= 0) & (col[nbr] == col[:, None] + 1)
    edges_between = np.bincount(col[rightward.nonzero()[0]], minlength=dim - 1)
    off = edges_between / np.sqrt(counts[:-1] * counts[1:])
    mat = np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(mat)
    return ReducedWalk(matrix=mat, evals=evals, evecs=evecs)


def evolve_exit_probabilities(rw: ReducedWalk, ts: np.ndarray) -> np.ndarray:
    """|<exit column| exp(-iAt) |entrance column>|^2 for each t of ``ts``."""
    weights = rw.evecs[0, :] * rw.evecs[-1, :]
    amps = np.exp(-1j * np.outer(ts, rw.evals)) @ weights
    return np.abs(amps) ** 2


TAYLOR_THETA = 4.0      # largest |h| * 3 of a Taylor step; 3 bounds ||A|| (max degree)
TAYLOR_TOL = 1e-17      # a step adds terms until one's max-norm falls below this


def full_graph_state(structure: TreeStructure, times) -> np.ndarray:
    """exp(-iAt)|entrance> on the full 2^(n+2)-2 vertex graph, one row per t.

    Reads only ``structure.neighbors`` and ``structure.entrance``, so it
    checks the column reduction rather than repeating it.  It propagates
    once through ``times`` in sorted order, in truncated Taylor steps of
    |h| * 3 <= TAYLOR_THETA (Al-Mohy & Higham 2011) on the neighbour array,
    whose padding -1 reads a zero entry past the vertices.  Each term is
    written into one buffer, after its neighbour sums are gathered, and
    added to the state in place.  A term whose probed entry has a part of
    size TAYLOR_TOL or more has a max-norm that large too; only a term whose
    probe falls below takes the full max, and the probe moves to its argmax.
    """
    if structure.n > FULL_WALK_MAX_N:
        raise ValueError(f"full-graph walk capped at n <= {FULL_WALK_MAX_N}")
    V = structure.vertex_count
    first, second, third = structure.neighbors.T
    state = np.zeros(V + 1, dtype=complex)
    state[structure.entrance] = 1.0
    buffer = np.zeros(V + 1, dtype=complex)     # each term in turn; entry V stays 0
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, V), dtype=complex)
    now, probe = 0.0, structure.entrance
    for i in np.argsort(times, kind="stable"):
        steps = int(np.ceil(abs(times[i] - now) * 3 / TAYLOR_THETA))
        h = (times[i] - now) / max(steps, 1)
        for _ in range(steps):
            term, j = state, 0
            while True:
                z = term[probe]
                if max(abs(z.real), abs(z.imag)) < TAYLOR_TOL:
                    mods = np.abs(term)
                    probe = int(mods.argmax())
                    if mods[probe] < TAYLOR_TOL:
                        break
                j += 1
                gather = term[first] + term[second]
                gather += term[third]
                term = buffer
                np.multiply(-1j * h / j, gather, out=term[:V])
                state += term
        now = times[i]
        out[i] = state[:V]
    return out


@dataclass
class SweepResult:
    best_t: float
    best_p: float
    curve: list[tuple[float, float]]


def sweep(n: int, t_max: float, steps: int, seed: int) -> SweepResult:
    """Grid search of the reduced-walk exit probability over [0, t_max]."""
    structure = generate_structure(n, seed)
    rw = build_reduced(structure)
    ts = np.linspace(0.0, t_max, steps)
    ps = evolve_exit_probabilities(rw, ts)
    best = int(np.argmax(ps))
    curve = [(float(t), float(p)) for t, p in zip(ts, ps)]
    return SweepResult(best_t=float(ts[best]), best_p=float(ps[best]), curve=curve)


def curve_to_csv(curve: list[tuple[float, float]]) -> str:
    lines = ["t,p"]
    for t, p in curve:
        lines.append(f"{t:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


BATCH_CELLS = 1 << 16
"""Int64 path cells one batch of trials may hold: a trial, walker or
guessing, keeps the budget + 1 vertices its walk stands on, so a batch
holds ``batch_trials(budget + 1)`` trials.

A lockstep step costs a few numpy calls whatever the batch size, so fewer,
larger batches pay that overhead less often.  At 2^16 each perfbench
discovery item (n <= 5, h <= 16, at most 1000 trials) runs as one batch,
and a ``discovery -n 3`` cell of 20,000 trials runs in 1, 2 and 6 batches
at h = 1, 4 and 16 (32768, 13107 and 3855 trials each).  A full batch
holds 0.5 MB of cells and its colors, one byte per step and trial.  The
size was chosen when a guessing trial also kept a label map of V + 2
cells: over the 102 discovery items (2 cores, median of 5 interleaved
passes) a pass then took 0.76 (2^15), 0.55 (2^16) and 0.56 (2^17) of its
time at 2^14, so 2^16 took the gain for the least memory."""


def batch_trials(cells_per_trial: int) -> int:
    """Trials per batch when each trial keeps ``cells_per_trial`` cells."""
    return max(1, BATCH_CELLS // cells_per_trial)


def check_trials(where: str, trials: int, budget: int) -> None:
    if trials < 1:
        raise ValueError(f"{where}: trials must be >= 1, got {trials}")
    if budget < 0:
        raise ValueError(f"{where}: query budget must be >= 0, got {budget}")


def blind_walks(neighbors: np.ndarray, budget: int, trials: int,
                rng: np.random.Generator) -> np.ndarray:
    """Lockstep blind walks from the entrance, vertex 0, one per trial.

    ``neighbors`` is a (V, 10) vertex-by-color table, -1 where a vertex has
    no edge of that color (``blind_table``, or a coloring's
    ``EdgeColoring.by_color``); every welded-tree layout numbers the entrance
    0.  One call draws every step's color, a uniform 1..9 per trial, and
    each step moves a walk along the edge of its color or leaves it in
    place where there is none.  Returns the (trials, budget + 1) vertices
    each walk stands on before and after each step.
    """
    V, width = neighbors.shape
    # row v, column c: where a walk at v goes on color c
    step_to = np.where(neighbors >= 0, neighbors, np.arange(V)[:, None]).ravel()
    colors = rng.integers(1, 10, size=(budget, trials), dtype=np.uint8)
    path = np.zeros((budget + 1, trials), dtype=np.int64)
    for step in range(budget):
        path[step + 1] = step_to[path[step] * width + colors[step]]
    return path.T


def blind_table(structure: TreeStructure) -> np.ndarray:
    """(V, 10) table for ``blind_walks``: row v holds v's neighbours at
    colors 1..deg v and -1 elsewhere.  It steps as every coloring's
    ``EdgeColoring.by_color`` does: 1/9 to each neighbour, else in place."""
    table = np.full((structure.vertex_count, 10), -1, dtype=np.int64)
    table[:, 1:4] = structure.neighbors
    return table


def walker_success_rate(structure: TreeStructure, query_budget: int, trials: int,
                        seed: int) -> float:
    """Share of ``trials`` blind walkers that reach the exit of the tree, in
    batches of lockstep walks over its ``blind_table``."""
    check_trials("walker_success_rate", trials, query_budget)
    neighbors = blind_table(structure)
    per = batch_trials(query_budget + 1)
    hits = 0
    for start in range(0, trials, per):
        path = blind_walks(neighbors, query_budget, min(per, trials - start),
                           make_rng(seed, "walker", start))
        hits += int(np.count_nonzero((path == structure.exit).any(axis=1)))
    return hits / trials
