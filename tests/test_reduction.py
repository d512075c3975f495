"""Clique decision via the weighted spanning k-tree instance."""

import itertools

import numpy as np
import pytest

from ktspan import UndirectedGraph, build_tree_decomposition, solve_retaining_mskt
from ktspan.bruteforce import max_clique_exists
from ktspan.generate import gnp_graph
from ktspan.information import WeightProductOracle
from ktspan.reduction import decide_kclique, reduce_kclique


def cycle(n):
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_reduce_triangle():
    inst = reduce_kclique(UndirectedGraph.complete(3), 3)
    assert inst.kprime == 2
    assert inst.sigma == 1.0
    assert set(inst.gprime.edges) == {(0, 1), (0, 2), (1, 2)}
    assert inst.gprime.weights == dict.fromkeys(inst.gprime.edges, 1.0)
    assert sorted(inst.h.edges) == [(0, 1), (1, 2)]


def test_reduce_empty_graph():
    inst = reduce_kclique(UndirectedGraph(4, []), 2)
    assert inst.kprime == 1
    assert len(inst.gprime.edges) == 6
    assert inst.gprime.weights == dict.fromkeys(inst.gprime.edges, 0.0)


def test_reduce_cycle_marks_exactly_its_edges():
    g = cycle(5)
    inst = reduce_kclique(g, 3)
    unit = [e for e, w in inst.gprime.weights.items() if w == 1.0]
    assert sorted(unit) == sorted(g.edges)
    assert len(inst.gprime.edges) == 10


def test_reduce_structure_invariants():
    rng = np.random.default_rng(61)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        g = gnp_graph(n, 0.4, rng)
        k = int(rng.integers(3, min(n, 5) + 1))
        inst = reduce_kclique(g, k)
        assert inst.kprime == k - 1
        assert inst.sigma == 1.0
        assert len(inst.gprime.edges) == n * (n - 1) // 2
        assert sorted(inst.h.edges) == [(i, i + 1) for i in range(n - 1)]
        assert inst.h.degree_bound == 2


def test_reduce_rejects_bad_k():
    g = UndirectedGraph.complete(4)
    with pytest.raises(ValueError):
        reduce_kclique(g, 1)
    with pytest.raises(ValueError):
        reduce_kclique(g, 5)


def test_decide_examples():
    assert decide_kclique(UndirectedGraph.complete(3), 3)
    assert not decide_kclique(UndirectedGraph(3, [(0, 1), (1, 2)]), 3)
    assert decide_kclique(UndirectedGraph.complete(6), 4)
    assert not decide_kclique(cycle(6), 3)


@pytest.mark.parametrize("n", [22, 23])
def test_decide_near_complete_at_large_k(n):
    # at k' = 20 a path backbone's worst-case bound, k' + 2 components,
    # passes the DP's component cap, but every 21-clique of n <= 23
    # vertices leaves at most two vertices to place
    assert decide_kclique(UndirectedGraph.complete(n), 21)
    g = UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                            if e != (0, n - 1)])
    assert decide_kclique(g, n - 1)
    assert not decide_kclique(g, n)


def test_decide_agrees_with_clique_scan():
    rng = np.random.default_rng(62)
    for seed in range(8):
        g = gnp_graph(7, 0.5, rng)
        for k in (3, 4):
            assert decide_kclique(g, k) == max_clique_exists(g, k)


def test_threshold_witness_clique():
    """When the optimum reaches sigma, some clique of the winning tree
    carries unit weight throughout, i.e. sits inside the query graph."""
    rng = np.random.default_rng(63)
    for _ in range(6):
        g = gnp_graph(7, 0.55, rng)
        inst = reduce_kclique(g, 3)
        oracle = WeightProductOracle(inst.gprime)
        res = solve_retaining_mskt(inst.gprime, inst.h, inst.kprime, oracle)
        found = any(
            set(itertools.combinations(c, 2)) <= g.edges
            for c in build_tree_decomposition(res.ktree).nodes)
        assert (res.score >= inst.sigma) == found
        assert found == max_clique_exists(g, 3)
