"""Exhaustive enumeration reference implementations."""

import itertools

import numpy as np
import pytest

from ktspan import (
    InfeasibleError,
    InstanceTooLargeError,
    UndirectedGraph,
    path_backbone,
    require_retaining,
    reroot,
    score_ktree,
    tables_to_joint,
    validate_ktree,
)
from ktspan.bruteforce import (
    best_rooted_score,
    brute_max_score,
    brute_min_kl,
    enumerate_retaining_ktrees,
    max_clique_exists,
)
from ktspan.generate import (
    gnp_graph,
    random_backbone,
    random_conditionals,
    random_explicit_scores,
    random_host_graph,
    random_joint_table,
    random_retaining_ktree,
)
from ktspan.graphs import iter_cliques
from ktspan.information import ExplicitScoreOracle, JointTable


def test_k4_path_enumeration():
    g = UndirectedGraph.complete(4)
    ktrees = enumerate_retaining_ktrees(g, path_backbone(4), 2)
    assert len(ktrees) == 3
    full = set(g.edges)
    missing = [tuple(sorted(full - set(t.edges)))[0] for t in ktrees]
    assert sorted(missing) == [(0, 2), (0, 3), (1, 3)]


def test_seed_sized_host_single_instance():
    g = UndirectedGraph.complete(4)
    ktrees = enumerate_retaining_ktrees(g, path_backbone(4), 3)
    assert len(ktrees) == 1
    assert ktrees[0].edges == frozenset(g.edges)


def test_unrestricted_count_is_cayley():
    g = UndirectedGraph.complete(4)
    ktrees = enumerate_retaining_ktrees(g, None, 1)
    assert len(ktrees) == 16


def test_enumeration_guard():
    g = UndirectedGraph.complete(10)
    with pytest.raises(InstanceTooLargeError, match="guarded"):
        enumerate_retaining_ktrees(g, path_backbone(10), 2)
    with pytest.raises(InstanceTooLargeError):
        enumerate_retaining_ktrees(UndirectedGraph.complete(6),
                                   path_backbone(6), 4)


def test_instances_are_sorted_valid_and_retaining():
    rng = np.random.default_rng(51)
    for _ in range(6):
        n = int(rng.integers(4, 7))
        k = int(rng.integers(1, 3))
        h = random_backbone(n, 3, rng)
        g = random_host_graph(h, 0.5, rng)
        ktrees = enumerate_retaining_ktrees(g, h, k)
        keys = [tuple(sorted(t.edges)) for t in ktrees]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for t in ktrees:
            assert validate_ktree(t) is None
            require_retaining(t, h)
            assert set(t.edges) <= set(g.edges)


def test_brute_max_score_basics():
    g = UndirectedGraph.complete(4)
    h = path_backbone(4)
    ktrees = enumerate_retaining_ktrees(g, h, 2)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(52))
    winner, best = brute_max_score(ktrees, h, oracle)
    assert best == max(score_ktree(t, h, oracle) for t in ktrees)
    assert score_ktree(winner, h, oracle) == best


def test_brute_max_score_tie_keeps_first():
    g = UndirectedGraph.complete(4)
    h = path_backbone(4)
    ktrees = enumerate_retaining_ktrees(g, h, 2)
    roots = {c: 1.0 for c in itertools.combinations(range(4), 3)}
    pivots = {(w, tuple(b)): 1.0
              for c in itertools.combinations(range(4), 3)
              for w in c for b in [tuple(x for x in c if x != w)]}
    winner, best = brute_max_score(ktrees, h, ExplicitScoreOracle(2, roots, pivots))
    assert best == 2.0
    assert winner.edges == ktrees[0].edges


def test_brute_max_score_all_forbidden():
    g = UndirectedGraph.complete(4)
    h = path_backbone(4)
    ktrees = enumerate_retaining_ktrees(g, h, 2)
    with pytest.raises(InfeasibleError, match="no enumerated"):
        brute_max_score(ktrees, h, ExplicitScoreOracle(2, {}, {}))


def reroot_scan(t, h, oracle):
    """best_rooted_score's reference: rescore t rerooted at every
    clique, smallest root first, keeping the first maximum."""
    best = None
    winner = None
    for root in sorted(tuple(sorted(base + (v,)))
                       for v, base in t.creation_order[t.k:]):
        rooted = reroot(t, root)
        val = score_ktree(rooted, h, oracle)
        if val is not None and (best is None or val > best):
            best = val
            winner = rooted
    return best, winner


def tie_heavy_scores(g, k, rng, forbidden):
    """Integer tables from 0..3 over g's (k+1)-cliques, each entry
    forbidden with the given probability."""
    roots = {}
    pivots = {}
    for c in iter_cliques(g.adj, k + 1):
        if rng.random() >= forbidden:
            roots[c] = float(rng.integers(0, 4))
        for w in c:
            if rng.random() >= forbidden:
                pivots[(w, tuple(x for x in c if x != w))] = float(rng.integers(0, 4))
    return ExplicitScoreOracle(k, roots, pivots)


def test_best_rooted_score_matches_direct_reroot_scan():
    rng = np.random.default_rng(53)
    for k in (1, 2, 3):
        for n in (k + 1, k + 2, 7, 15, 30, 60):
            for forbidden in (0.0, 0.02, 0.2):
                h = random_backbone(n, 3, rng)
                t = random_retaining_ktree(h, k, rng)
                oracle = tie_heavy_scores(UndirectedGraph(n, t.edges), k, rng,
                                          forbidden)
                got, witness = best_rooted_score(t, h, oracle)
                want, ref = reroot_scan(t, h, oracle)
                assert got == want
                if ref is None:
                    assert witness is None
                else:
                    assert witness.creation_order == ref.creation_order
                    assert score_ktree(witness, h, oracle) == got


def test_best_rooted_score_all_forbidden():
    rng = np.random.default_rng(54)
    h = path_backbone(5)
    t = random_retaining_ktree(h, 2, rng)
    got, witness = best_rooted_score(t, h, ExplicitScoreOracle(2, {}, {}))
    assert got is None and witness is None


def test_brute_min_kl_product_distribution():
    rng = np.random.default_rng(55)
    prod = np.ones((2,) * 5)
    for v in range(5):
        m = rng.dirichlet([2, 2])
        shape = [1] * 5
        shape[v] = 2
        prod = prod * m.reshape(shape)
    p = JointTable(tuple(range(5)), prod)
    _, best = brute_min_kl(p, UndirectedGraph.complete(5), path_backbone(5), 2)
    assert best == pytest.approx(0.0, abs=1e-9)


def test_brute_min_kl_recovers_the_generating_tree():
    rng = np.random.default_rng(31)
    h = path_backbone(5)
    truth = random_retaining_ktree(h, 2, rng)
    tables = random_conditionals(truth, (2,) * 5, rng)
    p = tables_to_joint(truth, tables)
    winner, best = brute_min_kl(p, UndirectedGraph.complete(5), h, 2)
    assert best == pytest.approx(0.0, abs=1e-9)
    assert winner.edges == truth.edges


def test_brute_min_kl_infeasible():
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    h = path_backbone(4)
    p = random_joint_table((2,) * 4, np.random.default_rng(56))
    with pytest.raises(InfeasibleError):
        brute_min_kl(p, g, h, 2)


def test_max_clique_exists_examples():
    tri = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert max_clique_exists(tri, 3)
    path3 = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert not max_clique_exists(path3, 3)
    assert max_clique_exists(path3, 2)
    assert max_clique_exists(path3, 0)
    with pytest.raises(InstanceTooLargeError):
        max_clique_exists(UndirectedGraph.complete(25), 3)
    with pytest.raises(InstanceTooLargeError):
        max_clique_exists(UndirectedGraph.complete(10), 7)


def test_max_clique_exists_agrees_with_direct_scan():
    rng = np.random.default_rng(57)
    for _ in range(10):
        g = gnp_graph(8, 0.5, rng)
        for k in (3, 4, 5):
            direct = any(
                set(itertools.combinations(c, 2)) <= g.edges
                for c in itertools.combinations(range(8), k))
            assert max_clique_exists(g, k) == direct
