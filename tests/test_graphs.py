"""Core graph types: k-tree validation, decompositions, rerooting."""

import itertools

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
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
from ktspan.errors import InstanceTooLargeError, NotRetainingError
from ktspan.generate import gnp_graph, random_ktree
from ktspan.graphs import MAX_VERTICES, iter_bits, iter_cliques, mask_of, normalize_edge


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


def test_graph_basics():
    g = UndirectedGraph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.edges == {(0, 1), (1, 2), (2, 3)}
    assert g.degree(1) == 2
    assert list(iter_bits(g.adj[2])) == [1, 3]
    assert g.is_clique((0, 1)) and not g.is_clique((0, 1, 2))
    assert UndirectedGraph.complete(5).is_clique(range(5))
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 4)])


def test_backbone_is_an_unweighted_graph():
    h = path_backbone(4)
    assert isinstance(h, UndirectedGraph) and h.weights is None
    assert type(BackboneTree.complete(3)) is UndirectedGraph
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range"):
        BackboneTree(3, [(3, 0)])


def edges_never_read():
    raise AssertionError("edges read before the vertex limit was checked")
    yield


@pytest.mark.parametrize("make", [
    lambda n: UndirectedGraph(n, edges_never_read()),
    lambda n: BackboneTree(n, edges_never_read()),
    UndirectedGraph.complete,
], ids=["graph", "backbone", "complete"])
def test_graphs_refuse_more_vertices_than_the_limit(make):
    # the library refuses what load_graph refuses, before any
    # per-vertex list is sized by n or any edge is read
    with pytest.raises(InstanceTooLargeError,
                       match=f"n={MAX_VERTICES + 1} is above the vertex "
                             f"limit {MAX_VERTICES}"):
        make(MAX_VERTICES + 1)
    with pytest.raises(InstanceTooLargeError):
        make(1 << 70)
    assert BackboneTree(MAX_VERTICES, []).n == MAX_VERTICES


def test_iter_cliques_matches_the_subset_scan():
    rng = np.random.default_rng(11)
    graphs = [UndirectedGraph(0, []), UndirectedGraph(6, [])]
    graphs += [gnp_graph(int(rng.integers(1, 12)), float(rng.random()), rng)
               for _ in range(200)]
    for g in graphs:
        within = int(rng.integers(1 << g.n))
        for s in range(1, 5):
            scan = [c for c in itertools.combinations(range(g.n), s)
                    if g.is_clique(c)]
            assert list(iter_cliques(g.adj, s)) == scan
            inside = [c for c in scan if mask_of(c) & within == mask_of(c)]
            assert list(iter_cliques(g.adj, s, within)) == inside
    with pytest.raises(ValueError):
        iter_cliques([0, 0], 0)


def test_graph_weights():
    g = UndirectedGraph(3, [(0, 1), (1, 2)], {(1, 0): 2.5, (1, 2): 0.0})
    assert g.weights == {(0, 1): 2.5, (1, 2): 0.0}
    assert UndirectedGraph(3, [(0, 1)]).weights is None
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 1)], {(0, 2): 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_graph_refuses_non_finite_weights(bad):
    # a NaN weight used to solve under WeightProductOracle to score nan
    weights = {e: 1.0 for e in itertools.combinations(range(6), 2)}
    weights[(2, 4)] = bad
    with pytest.raises(ValueError, match=r"non-finite weight .* on edge \(2, 4\)"):
        UndirectedGraph.complete(6, weights)


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
    assert dec.nodes == ((0, 1, 2), (1, 2, 3))
    assert dec.root == (0, 1, 2)
    assert dec.parent[dec.nodes[1]] == dec.nodes[0]
    assert dec.parent[dec.root] is None
    assert dec.pivot[dec.nodes[1]] == 3


def test_decomposition_path_as_1tree():
    order = [(0, ()), (1, (0,)), (2, (1,)), (3, (2,))]
    t = KTree.from_creation_order(4, 1, order)
    dec = build_tree_decomposition(t)
    assert dec.nodes == ((0, 1), (1, 2), (2, 3))
    assert dec.parent[dec.nodes[2]] == dec.nodes[1]


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
                if c == dec.root or v == dec.pivot[c]:
                    continue
                assert v in dec.parent[c]
        for c in dec.nodes[1:]:
            assert index[dec.parent[c]] < index[c]


def test_decomposition_parent_is_the_earliest_node_holding_the_base():
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 10))
        t = random_ktree(n, k, rng)
        dec = build_tree_decomposition(t)
        assert dec.root == t.root_clique
        assert dec.parent[dec.root] is None
        for c in dec.nodes[1:]:
            base = set(c) - {dec.pivot[c]}
            assert dec.parent[c] == next(d for d in dec.nodes if base <= set(d))


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
            assert r.root_clique == node


def strip_reroot_order(t, root):
    """Reference creation order for reroot: rescan the live vertices from
    the smallest after every strip and take the first whose live
    neighbourhood is a k-clique."""
    root = tuple(sorted(root))
    adj = [0] * t.n
    for u, v in t.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    alive = (1 << t.n) - 1
    rmask = mask_of(root)
    strips = []
    while alive != rmask:
        for v in iter_bits(alive & ~rmask):
            nbs = tuple(iter_bits(adj[v] & alive))
            if len(nbs) == t.k and all(
                    adj[a] >> b & 1 for a, b in itertools.combinations(nbs, 2)):
                strips.append((v, nbs))
                alive ^= 1 << v
                break
        else:
            raise AssertionError("reference strip stalled")
    order = [(v, root[:j]) for j, v in enumerate(root[:t.k])]
    order.append((root[t.k], root[:t.k]))
    return tuple(order + strips[::-1])


def test_reroot_matches_the_strip_loop():
    rng = np.random.default_rng(17)
    rootings = 0
    for trial in range(120):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k + 1, 40))
        t = random_ktree(n, k, rng)
        for v, base in t.creation_order[k:]:
            root = base + (v,)
            assert reroot(t, root).creation_order == strip_reroot_order(t, root)
            rootings += 1
    assert rootings > 2000


def test_reroot_rejects_non_clique():
    t = k4_minus_03()
    with pytest.raises(ValueError, match="missing edge"):
        reroot(t, (0, 1, 3))
    with pytest.raises(ValueError, match="root needs"):
        reroot(t, (0, 1))


def test_reroot_accepts_any_vertex_order_and_rejects_repeats():
    t = k4_minus_03()
    r = reroot(t, [3, 1, 2])
    assert r.root_clique == (1, 2, 3)
    assert r == reroot(t, (1, 2, 3))
    assert r.creation_order == reroot(t, (1, 2, 3)).creation_order
    with pytest.raises(ValueError, match="repeated vertex 1"):
        reroot(t, (1, 1, 2))


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
    assert max(map(h.degree, range(h.n))) == 2
    assert path_backbone(6, 3).degree_bound == 3
