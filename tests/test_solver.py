"""Dynamic-program solver against the exhaustive enumerator."""

import gc
import itertools

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    InfeasibleError,
    KTree,
    NotRetainingError,
    UndirectedGraph,
    build_tree_decomposition,
    chow_liu,
    path_backbone,
    score_ktree,
    solve_retaining_mskt,
)
from ktspan import solver as solver_mod
from ktspan.bruteforce import (
    best_rooted_score,
    brute_max_score,
    enumerate_retaining_ktrees,
)
from ktspan.generate import (
    gnp_graph,
    random_backbone,
    random_conditionals,
    random_explicit_scores,
    random_host_graph,
    random_joint_table,
    random_retaining_ktree,
    sample_markov_ktree,
)
from ktspan.graphs import iter_cliques
from ktspan.information import (
    ExplicitScoreOracle,
    JointTable,
    SampleMatrix,
    ScoreOracle,
    WeightProductOracle,
    materialize_scores,
)
from ktspan.solver import rescore_result


def seeded_instance(seed, n, k, complete=True):
    rng = np.random.default_rng(seed)
    h = random_backbone(n, 3, rng)
    if complete:
        g = UndirectedGraph.complete(n)
    else:
        g = random_host_graph(h, 0.45, rng)
    oracle = random_explicit_scores(g, k, rng)
    return g, h, oracle


def assert_matches_brute(g, h, k, oracle):
    ktrees = enumerate_retaining_ktrees(g, h, k)
    try:
        res = solve_retaining_mskt(g, h, k, oracle)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_max_score(ktrees, h, oracle)
        return None
    _, best = brute_max_score(ktrees, h, oracle)
    assert res.score == pytest.approx(best, abs=1e-9)
    assert score_ktree(res.ktree, h, oracle) == pytest.approx(res.score, abs=1e-9)
    return res


def test_k1_path_is_the_backbone():
    g = UndirectedGraph.complete(5)
    h = path_backbone(5)
    oracle = random_explicit_scores(g, 1, np.random.default_rng(0))
    res = solve_retaining_mskt(g, h, 1, oracle)
    # a spanning 1-tree retaining a spanning tree has no slack
    assert res.ktree.edges == frozenset(h.edges)


def test_seed_plus_one_is_root_only():
    g = UndirectedGraph.complete(4)
    h = path_backbone(4)
    oracle = random_explicit_scores(g, 3, np.random.default_rng(1))
    res = solve_retaining_mskt(g, h, 3, oracle)
    assert res.score == res.root_score_component
    assert res.ktree.edges == frozenset(g.edges)


def test_path_instance_matches_brute_exactly():
    g, h, oracle = seeded_instance(0, 6, 2)
    res = solve_retaining_mskt(g, h, 2, oracle)
    ktrees = enumerate_retaining_ktrees(g, h, 2)
    winner, best = brute_max_score(ktrees, h, oracle)
    assert res.score == pytest.approx(best, abs=1e-9)
    assert res.ktree.edges == winner.edges


@pytest.mark.parametrize("seed", range(15))
def test_random_complete_hosts_match_brute(seed):
    n = 5 + seed % 3
    k = 1 + seed % 3
    g, h, oracle = seeded_instance(100 + seed, n, k)
    assert_matches_brute(g, h, k, oracle)


@pytest.mark.parametrize("seed", range(15))
def test_random_sparse_hosts_match_brute(seed):
    n = 5 + seed % 3
    k = 1 + seed % 2
    g, h, oracle = seeded_instance(200 + seed, n, k, complete=False)
    assert_matches_brute(g, h, k, oracle)


def test_branch_absorbing_several_components():
    """Backbone splits into many pieces around a separator; a single
    subtree may swallow more than one of them."""
    h = BackboneTree(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6)])
    g = UndirectedGraph.complete(7)
    for seed in range(6):
        oracle = random_explicit_scores(g, 3, np.random.default_rng(300 + seed))
        assert_matches_brute(g, h, 3, oracle)


def test_tie_break_prefers_smallest_root():
    g = UndirectedGraph.complete(5)
    h = path_backbone(5)
    import itertools
    roots = {c: 5.0 for c in itertools.combinations(range(5), 3)}
    pivots = {(w, tuple(b)): 1.0
              for c in itertools.combinations(range(5), 3)
              for w in c
              for b in [tuple(x for x in c if x != w)]}
    oracle = ExplicitScoreOracle(2, roots, pivots)
    res = solve_retaining_mskt(g, h, 2, oracle)
    assert res.score == pytest.approx(7.0)
    assert res.ktree.root_clique == (0, 1, 2)
    again = solve_retaining_mskt(g, h, 2, oracle)
    assert again.ktree.edges == res.ktree.edges


class NoMemo(dict):
    def get(self, key, default=None):
        return default

    def __contains__(self, key):
        return False


def test_memoization_does_not_change_the_answer():
    for seed in (0, 3, 7):
        g, h, oracle = seeded_instance(400 + seed, 6, 2)
        ref = solve_retaining_mskt(g, h, 2, oracle)
        s = solver_mod._DPSolver(g, h, 2, oracle)
        assert {"_table", "_based"} <= set(vars(s))
        s._table = NoMemo()
        s._based = NoMemo()
        res = s.solve()
        assert res.score == pytest.approx(ref.score, abs=1e-9)
        assert res.ktree.edges == ref.ktree.edges


def dense_path_instance():
    rng = np.random.default_rng(31)
    n = 20
    edges = list(itertools.combinations(range(n), 2))
    g = UndirectedGraph(n, edges, {e: float(rng.uniform(0.5, 1.5)) for e in edges})
    return g, path_backbone(n), 2, WeightProductOracle(g)


def sparse_ktree_plus_chords_instance():
    rng = np.random.default_rng(32)
    n = 60
    h = random_backbone(n, 3, rng)
    t = random_retaining_ktree(h, 2, rng)
    g = UndirectedGraph(n, set(t.edges) | set(gnp_graph(n, 0.1, rng).edges))
    return g, h, 2, random_explicit_scores(g, 2, rng)


@pytest.mark.parametrize("instance, sizes", [
    (dense_path_instance, (4114, 459, 2091)),
    (sparse_ktree_plus_chords_instance, (1671, 1154, 305)),
], ids=["dense", "sparse"])
def test_dp_state_counts_are_pinned(instance, sizes):
    # one table state per (clique, region), one base state per
    # (base, cover) and one oracle call per (base, pivot) reached
    s = solver_mod._DPSolver(*instance())
    s.solve()
    assert (len(s._table), len(s._based), len(s._scores)) == sizes


def test_all_ties_pick_smallest_pivot_then_smallest_drop():
    # every root and pivot scores the same, so each choice comes from
    # the tie-break alone: smallest cover, then pivot, then drop
    g = UndirectedGraph.complete(10)
    h = random_backbone(10, 3, np.random.default_rng(5))
    cliques = list(iter_cliques(g.adj, 3))
    oracle = ExplicitScoreOracle(
        2, {c: 1.0 for c in cliques},
        {(w, tuple(x for x in c if x != w)): 1.0 for c in cliques for w in c})
    res = solve_retaining_mskt(g, h, 2, oracle)
    assert res.ktree.creation_order == (
        (0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (9, (2, 3)),
        (4, (0, 2)), (5, (2, 4)), (8, (4, 5)), (7, (2, 4)), (6, (1, 2)))


def test_pivots_above_127_keep_distinct_memo_keys():
    # backbone 129-0-1-...-128: only the root (0, 129) attaches 1 to 0
    # without also attaching 129 to 0
    n = 130
    edges = [(0, 129)] + [(i, i + 1) for i in range(128)]
    h = BackboneTree(n, edges)
    g = UndirectedGraph(n, edges)
    roots = {tuple(sorted(e)): 0.0 for e in edges}
    pivots = {}
    for u, v in edges:
        pivots[(u, (v,))] = 0.0
        pivots[(v, (u,))] = 0.0
    pivots[(1, (0,))] = 100.0
    pivots[(129, (0,))] = -100.0
    oracle = ExplicitScoreOracle(1, roots, pivots)
    # k = 1 solves walk the backbone; the DP's memo keys need the DP
    for res in (solve_retaining_mskt(g, h, 1, oracle),
                solver_mod._DPSolver(g, h, 1, oracle).solve()):
        assert res.score == 100.0
        assert res.ktree.root_clique == (0, 129)


@pytest.mark.parametrize("n", [130, 200, 300])
def test_large_k1_solve_matches_the_rerooted_backbone(n):
    # a retaining spanning 1-tree is the backbone itself, so a k = 1
    # solve only picks the backbone's root; the DP, which k = 1 solves
    # no longer run, stays exact there and must agree to the creation
    # order. Chords make every distance-2 edge a root the DP has to
    # reject, and integer scores make both sums exact
    h = path_backbone(n)
    g = UndirectedGraph(n, [(i, i + 1) for i in range(n - 1)]
                        + [(i, i + 2) for i in range(n - 2)])
    oracle = random_explicit_scores(g, 1, np.random.default_rng(n))
    res = solve_retaining_mskt(g, h, 1, oracle)
    ref = solver_mod._DPSolver(g, h, 1, oracle).solve()
    assert res.ktree.edges == frozenset(h.edges)
    assert res.score == ref.score
    assert res.root_score_component == ref.root_score_component
    assert res.ktree.creation_order == ref.ktree.creation_order


def k1_differential_instance(seed):
    """A random k = 1 instance: explicit integer tables from 0..4 with
    about 5 % of entries forbidden, or, for every third seed, weight
    products. The backbone is relabelled at random, so a subtree's
    smallest vertex need not be its top."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 41))
    tree = random_backbone(n, int(rng.integers(2, 6)), rng)
    label = rng.permutation(n).tolist()
    h = BackboneTree(n, [(label[u], label[v]) for u, v in tree.edges])
    g = random_host_graph(h, float(rng.uniform(0.0, 0.5)), rng)
    if seed % 3 == 2:
        g = UndirectedGraph(n, g.edges, {e: float(rng.uniform(0.5, 1.5))
                                         for e in g.edges})
        return g, h, WeightProductOracle(g)
    roots = {}
    pivots = {}
    for u, v in g.edges:
        for key, table in (((u, v), roots), ((u, (v,)), pivots),
                           ((v, (u,)), pivots)):
            if rng.random() >= 0.05:
                table[key] = float(rng.integers(0, 5))
    return g, h, ExplicitScoreOracle(1, roots, pivots)


def solve_or_message(solve):
    try:
        res = solve()
    except InfeasibleError as exc:
        return str(exc)
    return res


@pytest.mark.parametrize("chunk", range(3))
def test_k1_walk_matches_the_dp(chunk):
    # the k = 1 walk against the DP on 300 seeded instances (n 3-40):
    # explicit tables agree to the creation order and the infeasibility
    # text; weight products agree on the tree and the root, and the
    # score to a rounding, since which cover the DP keeps among equal
    # covers is decided by float noise there
    for seed in range(100 * chunk, 100 * chunk + 100):
        g, h, oracle = k1_differential_instance(seed)
        got = solve_or_message(lambda: solve_retaining_mskt(g, h, 1, oracle))
        ref = solve_or_message(lambda: solver_mod._DPSolver(g, h, 1, oracle).solve())
        if isinstance(ref, str):
            assert got == ref
            continue
        assert got.ktree.edges == ref.ktree.edges
        assert got.ktree.root_clique == ref.ktree.root_clique
        assert got.root_score_component == ref.root_score_component
        if oracle.root_invariant:
            assert abs(got.score - ref.score) <= 1e-12
        else:
            assert got.score == ref.score
            assert got.ktree.creation_order == ref.ktree.creation_order


@pytest.mark.parametrize("n, k", [(60, 2), (60, 3), (130, 2), (200, 3), (400, 2),
                                  (1000, 2), (1000, 3)])
def test_ktree_host_solve_returns_the_host(n, k):
    # a host that is itself a k-tree T retaining the backbone has T as
    # its only spanning k-tree, since every spanning k-tree on n
    # vertices has as many edges as T; so best_rooted_score(T) is an
    # exact answer at any n, and the sparse host leaves most region
    # vertices outside each base's neighbourhood
    rng = np.random.default_rng(100 * n + k)
    h = random_backbone(n, 3, rng)
    t = random_retaining_ktree(h, k, rng)
    g = UndirectedGraph(n, t.edges)
    oracle = random_explicit_scores(g, k, rng)
    res = solve_retaining_mskt(g, h, k, oracle)
    assert res.ktree.edges == t.edges
    assert res.score == best_rooted_score(t, h, oracle)[0]


class ScoresNonCliques(ScoreOracle):
    """Explicit tables that also score every attachment they lack, above
    any table entry, so only the solver keeps the k-tree on host edges."""

    def __init__(self, tables):
        self.tables = tables

    def score(self, pivot, base):
        val = self.tables.score(pivot, base)
        return 1000.0 if val is None else val

    def root_score(self, clique):
        return self.tables.root_score(clique)


@pytest.mark.parametrize("k", [2, 3])
def test_pivots_see_the_whole_base_under_a_permissive_oracle(k):
    n = 40
    rng = np.random.default_rng(700 + k)
    h = random_backbone(n, 3, rng)
    t = random_retaining_ktree(h, k, rng)
    g = UndirectedGraph(n, t.edges)
    oracle = ScoresNonCliques(random_explicit_scores(g, k, rng))
    res = solve_retaining_mskt(g, h, k, oracle)
    assert res.ktree.edges == t.edges
    assert res.score == best_rooted_score(t, h, oracle)[0]


def test_solve_leaves_no_solver_for_the_cyclic_collector():
    # the memo tables go as soon as the solve returns, by reference
    # counting alone
    g, h, oracle = seeded_instance(11, 7, 2)
    gc.collect()
    gc.disable()
    try:
        solve_retaining_mskt(g, h, 2, oracle)
        left = [o for o in gc.get_objects()
                if isinstance(o, solver_mod._DPSolver)]
    finally:
        gc.enable()
    assert left == []


def weight_product_instance(seed, n):
    rng = np.random.default_rng(seed)
    h = random_backbone(n, 3, rng)
    edges = list(itertools.combinations(range(n), 2))
    weights = dict(zip(edges, rng.uniform(0.5, 1.5, size=len(edges)).tolist()))
    return UndirectedGraph(n, edges, weights), h


def smallest_clique(t):
    return min(tuple(sorted(base + (w,))) for w, base in t.creation_order[t.k:])


@pytest.mark.parametrize("seed", range(30))
def test_root_invariant_sweep_matches_the_full_sweep(seed):
    n = 10 + seed % 5
    k = 1 + seed % 3
    g, h = weight_product_instance(500 + seed, n)
    oracle = WeightProductOracle(g)
    fast = solve_retaining_mskt(g, h, k, oracle)
    # frozen tables are not root-invariant, so they sweep every root
    full = solve_retaining_mskt(g, h, k, materialize_scores(oracle, g, k))
    assert fast.ktree.edges == full.ktree.edges
    assert abs(fast.score - full.score) <= 1e-12
    assert fast.ktree.root_clique == smallest_clique(fast.ktree)
    assert fast.root_score_component == oracle.root_score(fast.ktree.root_clique)


class RootLog(WeightProductOracle):
    def __init__(self, g):
        super().__init__(g)
        self.roots = []

    def root_score(self, clique):
        self.roots.append(tuple(clique))
        return super().root_score(clique)


def test_root_invariant_sweep_keeps_the_smallest_backbone_edge():
    # on this instance the sweep's best root is not the k-tree's
    # smallest clique, so the winner is rerooted and its root rescored
    g, h = weight_product_instance(0, 9)
    oracle = RootLog(g)
    res = solve_retaining_mskt(g, h, 2, oracle)
    u, v = min(h.edges)
    swept = [c for c in itertools.combinations(range(9), 3) if u in c and v in c]
    assert oracle.roots == swept + [res.ktree.root_clique]
    assert res.ktree.root_clique == smallest_clique(res.ktree)


@pytest.mark.parametrize("seed", range(9))
def test_weight_products_match_brute(seed):
    n = 6 + seed % 3
    k = 1 + seed // 3
    g, h = weight_product_instance(600 + seed, n)
    oracle = WeightProductOracle(g)
    res = solve_retaining_mskt(g, h, k, oracle)
    winner, best = brute_max_score(enumerate_retaining_ktrees(g, h, k), h, oracle)
    assert res.score == pytest.approx(best, abs=1e-9)
    assert res.ktree.edges == winner.edges


def test_score_ktree_hand_sum():
    t = KTree.from_creation_order(
        4, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2))])
    h = path_backbone(4)
    oracle = ExplicitScoreOracle(
        2,
        {(0, 1, 2): 5.0},
        {(3, (1, 2)): 7.0, (0, (1, 2)): 11.0},
    )
    assert score_ktree(t, h, oracle) == pytest.approx(12.0)
    # missing pivot entry means forbidden, not zero
    bare = ExplicitScoreOracle(2, {(0, 1, 2): 5.0}, {})
    assert score_ktree(t, h, bare) is None


def test_score_ktree_rejects_bad_input():
    t = KTree.from_creation_order(
        4, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2))])
    oracle = ExplicitScoreOracle(2, {(0, 1, 2): 1.0}, {(3, (1, 2)): 1.0})
    with pytest.raises(NotRetainingError):
        score_ktree(t, BackboneTree(4, [(0, 3), (1, 3), (2, 3)]), oracle)
    with pytest.raises(ValueError, match="invalid k-tree"):
        KTree(4, 2, {(0, 1)}, t.creation_order)
    seed_only = KTree.from_creation_order(2, 2, [(0, ()), (1, (0,))])
    with pytest.raises(ValueError, match="nothing to score"):
        score_ktree(seed_only, path_backbone(2), oracle)


def test_rescore_result_round_trip():
    g, h, oracle = seeded_instance(42, 6, 2)
    res = solve_retaining_mskt(g, h, 2, oracle)
    re = rescore_result(res.ktree, h, oracle)
    assert re.score == pytest.approx(res.score, abs=1e-12)
    assert re.ktree.edges == res.ktree.edges
    assert re.root_score_component == pytest.approx(
        res.root_score_component, abs=1e-12)


def test_solver_input_validation():
    g = UndirectedGraph.complete(4)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(2))
    with pytest.raises(ValueError, match="invalid backbone"):
        solve_retaining_mskt(g, BackboneTree(4, [(0, 1), (2, 3)]), 2, oracle)
    with pytest.raises(ValueError, match="1 <= k < n"):
        solve_retaining_mskt(g, path_backbone(4), 4, oracle)
    with pytest.raises(ValueError, match="1 <= k < n"):
        solve_retaining_mskt(g, path_backbone(4), 0, oracle)


def test_infeasible_diagnostic_names_a_backbone_edge():
    # host lacks any triangle through the edge (1, 2)
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    h = BackboneTree(4, [(0, 1), (1, 2), (2, 3)])
    oracle = random_explicit_scores(g, 2, np.random.default_rng(3))
    with pytest.raises(InfeasibleError, match="backbone edge"):
        solve_retaining_mskt(g, h, 2, oracle)


def test_infeasible_diagnostic_beyond_small_instances():
    # path plus distance-2 chords; without (19, 21) and (20, 22) no
    # triangle holds the backbone edge (20, 21)
    n = 40
    h = path_backbone(n)
    chords = [(i, i + 2) for i in range(n - 2) if i not in (19, 20)]
    g = UndirectedGraph(n, list(h.edges) + chords)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(5))
    with pytest.raises(InfeasibleError, match=r"backbone edge \(20, 21\) lies in no 3-clique"):
        solve_retaining_mskt(g, h, 2, oracle)


def test_all_forbidden_is_infeasible():
    g = UndirectedGraph.complete(4)
    oracle = ExplicitScoreOracle(2, {}, {})
    with pytest.raises(InfeasibleError):
        solve_retaining_mskt(g, path_backbone(4), 2, oracle)


def test_chow_liu_two_variables():
    p = JointTable((0, 1), np.array([[0.4, 0.1], [0.2, 0.3]]))
    t = chow_liu(p)
    assert t.k == 1
    assert t.edges == frozenset({(0, 1)})


def test_chow_liu_picks_the_dependent_pair():
    # x1 copies x0, x2 is noise: (0, 1) must be in the tree
    rows = [[0, 0, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]] * 25
    t = chow_liu(SampleMatrix(rows))
    assert (0, 1) in t.edges
    assert len(t.edges) == 2


def test_chow_liu_tie_break_star():
    # fully independent, every pairwise MI is 0: lexicographic Kruskal
    # keeps (0, 1), (0, 2), (0, 3)
    p = JointTable((0, 1, 2, 3), np.full((2,) * 4, 1 / 16))
    t = chow_liu(p)
    assert t.edges == frozenset({(0, 1), (0, 2), (0, 3)})


def test_chow_liu_recovers_a_chain():
    rng = np.random.default_rng(0)
    truth = KTree.from_creation_order(
        6, 1, [(0, ())] + [(v, (v - 1,)) for v in range(1, 6)])
    tables = random_conditionals(truth, (2,) * 6, rng, concentration=0.5)
    s = sample_markov_ktree(truth, tables, 100_000, seed=0)
    t = chow_liu(s)
    assert t.edges == truth.edges


def test_chow_liu_outputs_valid_ktrees():
    from ktspan import validate_ktree
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        p = random_joint_table((2,) * n, rng)
        t = chow_liu(p)
        assert t.k == 1 and t.n == n
        assert validate_ktree(t) is None
