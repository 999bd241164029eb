"""Continuous-time quantum walk on welded trees, plus classical baselines.

The adjacency operator preserves the span of the uniform column states, so
the walk from entrance to exit reduces to a (2n+2)-dimensional symmetric
tridiagonal matrix with entries E_j / sqrt(N_j N_{j+1}) computed from the
explicit structure (E_j edges between columns j and j+1, N_j vertices in
column j).  The reduced walk is evolved by eigendecomposition; the
full-graph cross-check propagates exp(-iAt) with scipy's sparse
expm_multiply.

The classical baseline walks the oracle blindly: one query per step on a
uniformly random color, moving whenever the answer is a valid label.  It is
graded afterwards against the hidden exit label; the walker itself never
reads hidden structure.  ``blind_walks`` runs a batch of such walks in
lockstep, one batched oracle call per step; it serves the walker baseline
here and the guessing experiment in ``harness``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .rng import make_rng
from .tree import BlackBoxTree, OracleHandle, TreeStructure, generate_structure

FULL_WALK_MAX_N = 7


@dataclass
class ReducedWalk:
    """Column-space Hamiltonian with its eigendecomposition."""

    n: int
    matrix: np.ndarray
    counts: np.ndarray          # N_j, column occupancies
    evals: np.ndarray
    evecs: np.ndarray


def build_reduced(structure: TreeStructure) -> ReducedWalk:
    n = structure.n
    dim = 2 * n + 2
    counts = np.zeros(dim, dtype=np.int64)
    for v in range(structure.vertex_count):
        counts[int(structure.column[v])] += 1
    edges_between = np.zeros(dim - 1, dtype=np.int64)
    for v in range(structure.vertex_count):
        cv = int(structure.column[v])
        for w in structure.adjacency[v]:
            if int(structure.column[w]) == cv + 1:
                edges_between[cv] += 1
    mat = np.zeros((dim, dim))
    for j in range(dim - 1):
        mat[j, j + 1] = mat[j + 1, j] = edges_between[j] / np.sqrt(
            counts[j] * counts[j + 1])
    evals, evecs = np.linalg.eigh(mat)
    return ReducedWalk(n=n, matrix=mat, counts=counts, evals=evals, evecs=evecs)


def evolve_exit_probability(rw: ReducedWalk, t: float) -> float:
    """|<exit column| exp(-iAt) |entrance column>|^2."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return 0.0  # distinct basis columns
    phases = np.exp(-1j * rw.evals * t)
    amp = np.sum(rw.evecs[0, :] * rw.evecs[-1, :] * phases)
    return float(np.abs(amp) ** 2)


def evolve_exit_probabilities(rw: ReducedWalk, ts: np.ndarray) -> np.ndarray:
    weights = rw.evecs[0, :] * rw.evecs[-1, :]
    amps = np.exp(-1j * np.outer(ts, rw.evals)) @ weights
    return np.abs(amps) ** 2


def _full_adjacency(structure: TreeStructure) -> sp.csr_matrix:
    rows, cols = [], []
    for v in range(structure.vertex_count):
        for w in structure.adjacency[v]:
            rows.append(v)
            cols.append(w)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)),
                         shape=(structure.vertex_count,) * 2)


def full_graph_state(bbt_or_structure, t: float) -> np.ndarray:
    structure = getattr(bbt_or_structure, "structure", bbt_or_structure)
    if structure.n > FULL_WALK_MAX_N:
        raise ValueError(f"full-graph walk capped at n <= {FULL_WALK_MAX_N}")
    A = _full_adjacency(structure)
    v0 = np.zeros(structure.vertex_count, dtype=complex)
    v0[structure.entrance] = 1.0
    if t == 0:
        return v0
    return expm_multiply(-1j * t * A, v0)


def full_graph_walk(bbt_or_structure, t: float) -> float:
    """Exit-vertex probability under the full 2^(n+2)-2 dimensional evolution."""
    structure = getattr(bbt_or_structure, "structure", bbt_or_structure)
    vec = full_graph_state(structure, t)
    return float(np.abs(vec[structure.exit]) ** 2)


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


BATCH_CELLS = 1 << 14
"""Int64 cells (labelings plus walk paths) one batch of trials may hold."""


def batch_trials(cells_per_trial: int) -> int:
    """Trials per batch when each trial keeps ``cells_per_trial`` cells."""
    return max(1, BATCH_CELLS // cells_per_trial)


def check_trials(where: str, trials: int, budget: int) -> None:
    if trials < 1:
        raise ValueError(f"{where}: trials must be >= 1, got {trials}")
    if budget < 0:
        raise ValueError(f"{where}: query budget must be >= 0, got {budget}")


def blind_walks(handle: OracleHandle, budget: int, trials: int,
                rng: np.random.Generator) -> np.ndarray:
    """Lockstep blind walks from the entrance label 0, one per trial.

    Each step draws one uniform color per trial, asks every trial's query in
    one ``handle.query_many`` call and moves the trials whose answer is
    valid.  Returns the (trials, budget + 1) labels each walk stands on
    before and after each step.  The walks see only labels and answers;
    callers grade the paths against hidden labels afterwards.
    """
    invalid = handle.bbt.invalid
    path = np.zeros((trials, budget + 1), dtype=np.int64)
    for step in range(budget):
        answers = handle.query_many(path[:, step], rng.integers(1, 10, size=trials))
        path[:, step + 1] = np.where(answers != invalid, answers, path[:, step])
    return path


def _walker_hits(bbt: BlackBoxTree, query_budget: int, trials: int,
                 rng: np.random.Generator) -> int:
    path = blind_walks(bbt.handle(), query_budget, trials, rng)
    return int(np.count_nonzero((path == bbt.exit_label()).any(axis=1)))


def classical_walker(bbt: BlackBoxTree, query_budget: int, seed: int) -> bool:
    """Blind random walk through the oracle; True iff it ever saw the exit.

    One query per step on a uniform random color; moves on valid answers.
    The exit test compares visited labels against the hidden exit label only
    after the budget is spent (grading, not strategy).
    """
    check_trials("classical_walker", 1, query_budget)
    return _walker_hits(bbt, query_budget, 1, make_rng(seed, "walker")) == 1


def walker_success_rate(bbt: BlackBoxTree, query_budget: int, trials: int,
                        seed: int) -> float:
    """Share of ``trials`` blind walkers that see the exit, in batches of lockstep walks."""
    check_trials("walker_success_rate", trials, query_budget)
    per = batch_trials(query_budget + 1)
    hits = sum(_walker_hits(bbt, query_budget, min(per, trials - start),
                            make_rng(seed, "walker", start))
               for start in range(0, trials, per))
    return hits / trials
