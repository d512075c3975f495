"""Dynamic-program solver against the exhaustive enumerator."""

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    InfeasibleError,
    KTree,
    NotRetainingError,
    UndirectedGraph,
    build_mi_oracle,
    build_tree_decomposition,
    chow_liu,
    path_backbone,
    score_ktree,
    solve_retaining_mskt,
)
from ktspan import solver as solver_mod
from ktspan.bruteforce import brute_max_score, enumerate_retaining_ktrees
from ktspan.generate import (
    random_backbone,
    random_conditionals,
    random_explicit_scores,
    random_host_graph,
    random_joint_table,
    sample_markov_ktree,
)
from ktspan.information import ExplicitScoreOracle, JointTable, SampleMatrix
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
    report = enumerate_retaining_ktrees(g, h, k)
    try:
        res = solve_retaining_mskt(g, h, k, oracle)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_max_score(report, h, oracle)
        return None
    _, best = brute_max_score(report, h, oracle)
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
    report = enumerate_retaining_ktrees(g, h, 2)
    winner, best = brute_max_score(report, h, oracle)
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
    assert res.decomposition.root.members == (0, 1, 2)
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
        s._table = NoMemo()
        s._branch = NoMemo()
        res = s.solve()
        assert res.score == pytest.approx(ref.score, abs=1e-9)
        assert res.ktree.edges == ref.ktree.edges


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
    res = solve_retaining_mskt(g, h, 1, ExplicitScoreOracle(1, roots, pivots))
    assert res.score == 100.0
    assert res.decomposition.root.members == (0, 129)


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
