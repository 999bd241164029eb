from __future__ import annotations

import numpy as np
import pytest

from weldlab import tree, walk


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
        A = walk._full_adjacency(s).toarray()
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
    assert walk.evolve_exit_probability(rw, 0.0) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = walk.evolve_exit_probability(rw, float(rng.uniform(0, 50)))
        assert -1e-12 <= p <= 1 + 1e-12
    with pytest.raises(ValueError):
        walk.evolve_exit_probability(rw, -1.0)


def test_reduced_matches_full_graph():
    for n in (2, 3, 5):
        s = tree.generate_structure(n, 3)
        rw = walk.build_reduced(s)
        rng = np.random.default_rng(n)
        for _ in range(5):
            t = float(rng.uniform(0, 30))
            assert abs(walk.evolve_exit_probability(rw, t)
                       - walk.full_graph_walk(s, t)) <= 1e-9


def test_full_graph_unitarity_and_t0():
    s = tree.generate_structure(3, 4)
    v0 = walk.full_graph_state(s, 0.0)
    assert v0[s.entrance] == 1.0
    v = walk.full_graph_state(s, 7.3)
    assert abs(float(np.sum(np.abs(v) ** 2)) - 1.0) <= 1e-9


def test_full_graph_size_cap():
    s = tree.generate_structure(8, 0)
    with pytest.raises(ValueError):
        walk.full_graph_walk(s, 1.0)


def test_sweep_curve():
    res = walk.sweep(4, t_max=40.0, steps=250, seed=2)
    assert len(res.curve) == 250
    assert res.best_p > 0
    assert res.best_p == max(p for _, p in res.curve)
    csv = walk.curve_to_csv(res.curve)
    assert csv.splitlines()[0] == "t,p"
    assert len(csv.splitlines()) == 251


def test_walker_budget_zero_false():
    bbt = tree.make_blackbox(2, 4)
    assert walk.classical_walker(bbt, 0, seed=1) is False


def test_walker_small_tree_generous_budget():
    # n=1 needs the widened test-only label space
    b1 = tree.make_blackbox(1, 3, label_bits=3)
    rate = walk.walker_success_rate(b1, query_budget=400, trials=100, seed=0)
    assert rate >= 0.95
    b2 = tree.make_blackbox(2, 3)
    rate2 = walk.walker_success_rate(b2, query_budget=500, trials=100, seed=0)
    assert rate2 >= 0.9


def test_walker_rejects_bad_counts():
    bbt = tree.make_blackbox(2, 4)
    with pytest.raises(ValueError, match="walker_success_rate: trials must be >= 1, got 0"):
        walk.walker_success_rate(bbt, 3, trials=0, seed=0)
    with pytest.raises(ValueError, match="walker_success_rate: query budget must be >= 0"):
        walk.walker_success_rate(bbt, -1, trials=5, seed=0)
    with pytest.raises(ValueError, match="classical_walker: query budget must be >= 0"):
        walk.classical_walker(bbt, -1, seed=0)


def test_blind_walks_query_accounting():
    # every trial spends exactly the budget through the batched handle it
    # was given; the tree's own default handle stays untouched
    bbt = tree.make_blackbox(3, 8)
    handle = bbt.handle()
    path = walk.blind_walks(handle, 7, 50, np.random.default_rng(0))
    assert handle.count == 50 * 7 and path.shape == (50, 8)
    assert bbt.query_count == 0
    walk.walker_success_rate(bbt, 7, trials=300, seed=1)
    assert bbt.query_count == 0
    batch = tree.generate_label_batch(bbt.structure, bbt.coloring, 40,
                                      np.random.default_rng(1))
    handle = batch.handle()
    walk.blind_walks(handle, 5, 40, np.random.default_rng(2))
    assert handle.count == 40 * 5


def test_walker_never_reads_hidden_structure():
    # the walk itself spends exactly the budget on the oracle handle
    bbt = tree.make_blackbox(3, 8)
    handle_before = bbt.query_count
    walk.classical_walker(bbt, 50, seed=3)
    assert bbt.query_count == handle_before  # walker used its own handle


def test_separation_snapshot_report():
    # best reduced-walk probability beats the walker at the 2^(n/3) budget
    for n in range(4, 9):
        res = walk.sweep(n, t_max=60.0, steps=300, seed=1)
        bbt = tree.make_blackbox(n, 1)
        rate = walk.walker_success_rate(bbt, round(2 ** (n / 3)), trials=300, seed=2)
        assert res.best_p >= 10 * rate
