"""Core graph types: k-tree validation, decompositions, rerooting."""

import itertools

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    Clique,
    KTree,
    UndirectedGraph,
    build_tree_decomposition,
    path_backbone,
    require_retaining,
    reroot,
    retains,
    validate_backbone,
    validate_ktree,
)
from ktspan.errors import NotRetainingError
from ktspan.generate import gnp_graph, random_ktree
from ktspan.graphs import iter_bits, iter_cliques, mask_of, normalize_edge


def tri():
    return KTree.from_creation_order(3, 2, [(0, ()), (1, (0,)), (2, (0, 1))])


def k4_minus_03():
    order = [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2))]
    return KTree.from_creation_order(4, 2, order)


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(0, 2) == (0, 2)
    with pytest.raises(ValueError):
        normalize_edge(4, 4)


def test_mask_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(iter_bits(0)) == []


def test_clique_canonical_form():
    c = Clique.of(4, 1, 2)
    assert c.members == (1, 2, 4)
    assert list(c) == [1, 2, 4]
    assert 2 in c and 3 not in c
    assert len(c) == 3
    # also accepts a single iterable
    assert Clique.of([3, 0]).members == (0, 3)
    with pytest.raises(ValueError):
        Clique.of(1, 1, 2)


def test_graph_basics():
    g = UndirectedGraph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.neighbors(2) == (1, 3)
    assert g.is_clique((0, 1)) and not g.is_clique((0, 1, 2))
    assert UndirectedGraph.complete(5).is_clique(range(5))
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 4)])


def test_iter_cliques_matches_the_subset_scan():
    rng = np.random.default_rng(11)
    graphs = [UndirectedGraph(0, []), UndirectedGraph(6, [])]
    graphs += [gnp_graph(int(rng.integers(1, 12)), float(rng.random()), rng)
               for _ in range(200)]
    for g in graphs:
        for s in range(1, 5):
            scan = [c for c in itertools.combinations(range(g.n), s)
                    if g.is_clique(c)]
            assert list(iter_cliques(g.adj, s)) == scan
    with pytest.raises(ValueError):
        iter_cliques([0, 0], 0)


def test_graph_weights():
    g = UndirectedGraph(3, [(0, 1), (1, 2)], {(1, 0): 2.5, (1, 2): 0.0})
    assert g.weight(0, 1) == 2.5
    assert g.weight(2, 1) == 0.0
    assert UndirectedGraph(3, [(0, 1)]).weight(0, 1) is None
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 1)], {(0, 2): 1.0})


def test_validate_ktree_accepts_known_shapes():
    assert validate_ktree(tri()) is None
    assert validate_ktree(k4_minus_03()) is None
    # a bare seed clique with no attached vertices is still a k-tree
    seed_only = KTree.from_creation_order(2, 2, [(0, ()), (1, (0,))])
    assert validate_ktree(seed_only) is None


def test_validate_ktree_rejects_cycle():
    # C5 has 5 edges, a 2-tree on 5 vertices needs 1 + 2*3 = 7
    order = [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (2, 3))]
    with pytest.raises(ValueError, match="invalid k-tree: edge count"):
        KTree(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], order)


def test_validate_ktree_rejects_bad_orders():
    with pytest.raises(ValueError, match="invalid k-tree"):
        KTree.from_creation_order(
            4, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (2, (0, 1))])
    with pytest.raises(ValueError, match="not a clique"):
        KTree.from_creation_order(
            5, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (0, 1)), (4, (2, 3))])
    with pytest.raises(ValueError, match="invalid k-tree"):
        KTree.from_creation_order(4, 2, [(0, ()), (1, (0,)), (2, (0, 1))])


def test_ktree_identity_is_edge_set():
    a = k4_minus_03()
    b = KTree.from_creation_order(
        4, 2, [(1, ()), (2, (1,)), (0, (1, 2)), (3, (1, 2))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != tri()


def test_edge_and_clique_count_formulas():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 9))
        t = random_ktree(n, k, rng)
        assert validate_ktree(t) is None
        assert len(t.edges) == k * (k - 1) // 2 + k * (n - k)
        dec = build_tree_decomposition(t)
        assert len(dec.nodes) == n - k
        for node in dec.nodes:
            assert len(node) == k + 1


def test_decomposition_small_example():
    dec = build_tree_decomposition(k4_minus_03())
    assert [c.members for c in dec.nodes] == [(0, 1, 2), (1, 2, 3)]
    assert dec.root.members == (0, 1, 2)
    assert dec.parent[dec.nodes[1]] is dec.nodes[0]
    assert dec.parent[dec.root] is None
    assert dec.pivot[dec.nodes[1]] == 3


def test_decomposition_path_as_1tree():
    order = [(0, ()), (1, (0,)), (2, (1,)), (3, (2,))]
    t = KTree.from_creation_order(4, 1, order)
    dec = build_tree_decomposition(t)
    assert [c.members for c in dec.nodes] == [(0, 1), (1, 2), (2, 3)]
    assert dec.parent[dec.nodes[2]] is dec.nodes[1]


def test_decomposition_single_clique():
    t = KTree.from_creation_order(3, 2, [(0, ()), (1, (0,)), (2, (0, 1))])
    dec = build_tree_decomposition(t)
    assert len(dec.nodes) == 1 and dec.parent[dec.root] is None
    bare = KTree.from_creation_order(2, 2, [(0, ()), (1, (0,))])
    with pytest.raises(ValueError):
        build_tree_decomposition(bare)


def test_decomposition_running_intersection():
    """Nodes containing any fixed vertex form a connected subtree."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 9))
        t = random_ktree(n, k, rng)
        dec = build_tree_decomposition(t)
        index = {c: i for i, c in enumerate(dec.nodes)}
        for v in range(n):
            holding = [c for c in dec.nodes if v in c]
            # walk each holder toward the root; the first holding
            # ancestor must be the parent itself or the walk is broken
            for c in holding:
                if c is dec.root or v == dec.pivot[c]:
                    continue
                assert v in dec.parent[c].members
        for c in dec.nodes[1:]:
            assert index[dec.parent[c]] < index[c]


def test_reroot_preserves_edges_any_clique_root():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 9))
        t = random_ktree(n, k, rng)
        for node in build_tree_decomposition(t).nodes:
            r = reroot(t, node)
            assert r.edges == t.edges
            assert validate_ktree(r) is None
            assert r.root_clique.members == node.members


def test_reroot_rejects_non_clique():
    t = k4_minus_03()
    with pytest.raises(ValueError, match="missing edge"):
        reroot(t, Clique.of(0, 1, 3))
    with pytest.raises(ValueError, match="root needs"):
        reroot(t, Clique.of(0, 1))


def test_retains_and_require():
    t = k4_minus_03()  # edges 01 02 12 13 23
    assert retains(t, path_backbone(4))
    star = BackboneTree(4, [(0, 1), (0, 2), (0, 3)], 3)
    assert not retains(t, star)
    with pytest.raises(NotRetainingError, match=r"\(0, 3\)"):
        require_retaining(t, star)
    with pytest.raises(ValueError):
        require_retaining(t, path_backbone(5))


def test_validate_backbone():
    k5 = UndirectedGraph.complete(5)
    assert validate_backbone(k5, path_backbone(5)) is None
    star = BackboneTree(4, [(0, 1), (0, 2), (0, 3)], 2)
    assert "degree 3 > 2" in validate_backbone(UndirectedGraph.complete(4), star)
    c4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert validate_backbone(c4, path_backbone(4)) is None
    missing = BackboneTree(4, [(0, 2), (1, 2), (2, 3)], 3)
    assert "not in host graph" in validate_backbone(c4, missing)
    disconnected = BackboneTree(4, [(0, 1), (2, 3), (0, 2), (1, 3)], 3)
    assert validate_backbone(UndirectedGraph.complete(4), disconnected) is not None
    with pytest.raises(ValueError):
        validate_backbone(k5, path_backbone(4))


def test_path_backbone_shape():
    h = path_backbone(5)
    assert sorted(h.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert h.degree_bound == 2
    assert h.max_degree() == 2
    assert path_backbone(6, 3).degree_bound == 3
