from __future__ import annotations

import hashlib

import numpy as np
import pytest

from weldlab import tree, walk
from weldlab.rng import make_rng

from dense_reference import adjacency_matrix, dense_walk_states
from tree_tools import label_walks


def test_reduced_matrix_shape_and_symmetry():
    ts = tree.generate_structure(1, 0)
    rw = walk.build_reduced(ts)
    assert rw.matrix.shape == (4, 4)
    assert np.allclose(rw.matrix, rw.matrix.T)
    # tridiagonal
    assert np.count_nonzero(rw.matrix - np.diag(np.diag(rw.matrix))) == 6


def test_reduced_entries_from_structure():
    ts = tree.generate_structure(3, 2)
    rw = walk.build_reduced(ts)
    off = np.diag(rw.matrix, 1)
    assert np.allclose(off[:3], np.sqrt(2))
    assert np.isclose(off[3], 2.0)      # the weld doubles the edge count
    assert np.allclose(off[4:], np.sqrt(2))


def test_column_space_invariant_residual():
    for n in (1, 2, 3):
        s = tree.generate_structure(n, 5)
        A = adjacency_matrix(s)
        dim = 2 * n + 2
        counts = np.bincount(np.asarray(s.column), minlength=dim)
        P = np.zeros((s.vertex_count, dim))
        for v in range(s.vertex_count):
            j = int(s.column[v])
            P[v, j] = 1 / np.sqrt(counts[j])
        resid = np.linalg.norm(A @ P - P @ (P.T @ A @ P))
        assert resid <= 1e-12


def test_entries_stable_across_welding_seeds():
    mats = [walk.build_reduced(tree.generate_structure(4, s)).matrix
            for s in range(10)]
    for m in mats[1:]:
        assert np.array_equal(m, mats[0])


def test_evolution_basics():
    rw = walk.build_reduced(tree.generate_structure(3, 1))
    # entrance and exit are distinct basis columns
    assert walk.evolve_exit_probabilities(rw, [0.0])[0] <= 1e-24
    ps = walk.evolve_exit_probabilities(rw, np.random.default_rng(0).uniform(0, 50, 1000))
    assert ((-1e-12 <= ps) & (ps <= 1 + 1e-12)).all()


def test_reduced_matches_full_graph():
    for n in (2, 3, 5):
        s = tree.generate_structure(n, 3)
        rw = walk.build_reduced(s)
        ts = np.random.default_rng(n).uniform(0, 30, size=5)
        full = np.abs(walk.full_graph_state(s, ts)[:, s.exit]) ** 2
        assert np.abs(walk.evolve_exit_probabilities(rw, ts) - full).max() <= 1e-9


def test_full_graph_unitarity_and_t0():
    s = tree.generate_structure(3, 4)
    v0, v = walk.full_graph_state(s, [0.0, 7.3])
    assert v0[s.entrance] == 1.0 and np.count_nonzero(v0) == 1
    assert abs(float(np.sum(np.abs(v) ** 2)) - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_graph_matches_dense_eigh(n):
    # unsorted and repeated times, 0 and 40 among them: one sweep serves all
    s = tree.generate_structure(n, 7)
    ts = [12.5, 0.0, 40.0, 3.3, 12.5, 0.7, 40.0, 0.0, 25.1]
    got = walk.full_graph_state(s, ts)
    assert got.shape == (len(ts), s.vertex_count)
    assert np.abs(got - dense_walk_states(s, ts)).max() <= 1e-12


def test_full_graph_size_cap():
    s = tree.generate_structure(8, 0)
    with pytest.raises(ValueError, match="capped at n <= 7"):
        walk.full_graph_state(s, [1.0])


def test_sweep_curve():
    res = walk.sweep(4, t_max=40.0, steps=250, seed=2)
    assert len(res.curve) == 250
    assert res.best_p > 0
    assert res.best_p == max(p for _, p in res.curve)
    csv = walk.curve_to_csv(res.curve)
    assert csv.splitlines()[0] == "t,p"
    assert len(csv.splitlines()) == 251


def test_walker_budget_zero_false():
    assert walk.walker_success_rate(tree.generate_structure(2, 4), 0, trials=1, seed=1) == 0.0


def test_walker_small_tree_generous_budget():
    # a walker reads no label, so n=1, which 2n-bit labels cannot label, walks too
    rate = walk.walker_success_rate(tree.generate_structure(1, 3), query_budget=400,
                                    trials=100, seed=0)
    assert rate >= 0.95
    rate2 = walk.walker_success_rate(tree.generate_structure(2, 3), query_budget=500,
                                     trials=100, seed=0)
    assert rate2 >= 0.9


@pytest.mark.parametrize("n", range(2, 10))
def test_walker_rate_is_the_structure_tables_rate(n):
    # the walker walks the bare structure's blind_table, so its rate is, bit
    # for bit, the one read from lockstep walks over that table
    structure = tree.generate_structure(n, 11)
    budget, trials, seed = 8 * n, 600, 4
    per = walk.batch_trials(budget + 1)
    hits = sum(int(np.count_nonzero((walk.blind_walks(
        walk.blind_table(structure), budget, min(per, trials - start),
        make_rng(seed, "walker", start)) == structure.exit).any(axis=1)))
        for start in range(0, trials, per))
    rate = walk.walker_success_rate(structure, budget, trials, seed)
    assert rate == hits / trials
    if n <= 4:
        assert rate > 0     # the exit is reached, so the grading is exercised


def test_walker_rejects_bad_counts():
    structure = tree.generate_structure(2, 4)
    with pytest.raises(ValueError, match="walker_success_rate: trials must be >= 1, got 0"):
        walk.walker_success_rate(structure, 3, trials=0, seed=0)
    with pytest.raises(ValueError, match="walker_success_rate: query budget must be >= 0"):
        walk.walker_success_rate(structure, -1, trials=5, seed=0)


def _step_counts(table: np.ndarray) -> np.ndarray:
    """(V, V) counts of the colors 1..9 that move a blind walk from row v to
    column w of a vertex-by-color table: its one-step law, times 9."""
    V = len(table)
    to = np.where(table[:, 1:] >= 0, table[:, 1:], np.arange(V)[:, None])
    counts = np.zeros((V, V), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(V), 9), to.ravel()), 1)
    return counts


@pytest.mark.parametrize("n", range(1, 7))
def test_blind_table_steps_as_every_coloring(n):
    # a blind step goes to each neighbour on 1 color of 9 and stays on the
    # rest, whatever the coloring: the structure's table has the same law as
    # every colored tree's neighbour table
    for seed in (0, 1, 2):
        structure = tree.generate_structure(n, seed)
        bare = _step_counts(walk.blind_table(structure))
        for coloring_seed in (seed, 7 + seed):
            colored = tree.generate_coloring(structure, coloring_seed).by_color
            assert np.array_equal(bare, _step_counts(colored))
        # a table that drops one weld neighbour has another law
        u, w = structure.weld_cycle[:2]
        mutant = walk.blind_table(structure)
        mutant[u, mutant[u] == w] = -1
        assert not np.array_equal(_step_counts(mutant), bare)


# sha256 of the output bytes of full_graph_state for n = 1..7 at FULL_TIMES,
# recorded before the propagator stopped allocating per Taylor term; pinned on
# one machine's numpy build, as the walk report's cross-check values are
FULL_TIMES = [0.0, 0.37, 2.5, 7.3, 1.1, 13.0]
FULL_SHA256 = "ab69bec937c70e337d83cdb7073e43592f5615bb7b2946a0354d30cce86fea52"


def test_full_graph_state_bytes_pinned():
    digest = hashlib.sha256()
    for n in range(1, 8):
        out = walk.full_graph_state(tree.generate_structure(n, 20 + n), FULL_TIMES)
        digest.update(out.tobytes())
    assert digest.hexdigest() == FULL_SHA256


def test_structure_neighbors_are_its_adjacency():
    # the read-only (V, 3) array is the whole graph: an edge stands in the
    # rows of both its ends, and only the entrance and exit have a -1 slot
    for n in (1, 3, 6):
        structure = tree.generate_structure(n, n)
        nbr = structure.neighbors
        assert nbr.shape == (structure.vertex_count, 3) and not nbr.flags.writeable
        edges = {(v, w) for v, row in enumerate(nbr.tolist()) for w in row if w >= 0}
        assert edges == {(w, v) for v, w in edges}
        assert (nbr < 0).any(axis=1).nonzero()[0].tolist() == [structure.entrance, structure.exit]


def test_blind_walks_query_accounting():
    # every trial spends exactly the budget: one color, one query, per step,
    # and the stream gives up nothing more, so what a caller draws next is
    # fixed by (budget, trials) alone
    nbr = tree.make_blackbox(3, 8).coloring.by_color
    for budget, trials in [(7, 50), (5, 40), (0, 3)]:
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        path = walk.blind_walks(nbr, budget, trials, rng)
        twin.integers(1, 10, size=(budget, trials), dtype=np.uint8)
        assert path.shape == (trials, budget + 1)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_blind_walks_follow_the_drawn_colors():
    # every step moves along the edge of its drawn color, and a color the
    # vertex lacks leaves the walk in place; colors come from 1..9
    bbt = tree.make_blackbox(3, 8)
    nbr = bbt.coloring.by_color
    path = walk.blind_walks(nbr, 7, 500, np.random.default_rng(0))
    colors = np.random.default_rng(0).integers(1, 10, size=(7, 500), dtype=np.uint8)
    assert path.shape == (500, 8) and (path[:, 0] == bbt.structure.entrance).all()
    for t in range(7):
        edge = nbr[path[:, t], colors[t]]
        assert (path[:, t + 1] == np.where(edge >= 0, edge, path[:, t])).all()
    # both branches are taken: walks that stay put and walks that move
    assert (path[:, 1:] == path[:, :-1]).any() and (path[:, 1:] != path[:, :-1]).any()
    assert walk.blind_walks(nbr, 0, 3, np.random.default_rng(0)).shape == (3, 1)


@pytest.mark.parametrize("n, budget", [(2, 40), (4, 12)])
def test_blind_walks_are_label_space_walks(n, budget):
    # the vertex kernel, read through the labels, is the walk a label-space
    # walker makes through the oracle with the same colors, bit for bit
    bbt = tree.make_blackbox(n, 5)
    trials = 300
    path = walk.blind_walks(bbt.coloring.by_color, budget, trials, np.random.default_rng(9))
    colors = np.random.default_rng(9).integers(1, 10, size=(budget, trials), dtype=np.uint8)
    assert (bbt.labels[path] == label_walks(bbt, colors)).all()


def test_separation_snapshot_report():
    # best reduced-walk probability beats the walker at the 2^(n/3) budget
    for n in range(4, 9):
        res = walk.sweep(n, t_max=60.0, steps=300, seed=1)
        rate = walk.walker_success_rate(tree.generate_structure(n, 1), round(2 ** (n / 3)),
                                        trials=300, seed=2)
        assert res.best_p >= 10 * rate
