"""Acceptance suite.

Each test exercises one numbered shipping criterion and prints a
`[criterion N] PASS/FAIL` line that survives pytest's capture. The
retention/validity criterion runs last: it re-audits every solver
output the earlier criteria produced.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from ktspan import (
    InfeasibleError,
    KTree,
    UndirectedGraph,
    build_mi_oracle,
    build_tree_decomposition,
    chow_liu,
    kl_divergence,
    markov_ktree_distribution,
    mutual_information,
    path_backbone,
    reroot,
    retains,
    solve_retaining_mskt,
    total_correlation,
    validate_ktree,
)
from ktspan.bruteforce import (
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
    random_ktree,
)
from ktspan.graphs import mask_of
from ktspan.information import WeightProductOracle, sample_markov_ktree
from ktspan.reduction import decide_kclique
from ktspan.separation import components_masks

_SOLVER_OUTPUTS = []


def _emit(capsys, line):
    with capsys.disabled():
        print(line)


def _record(h, res):
    """Every solver output in this suite passes through here."""
    err = validate_ktree(res.ktree)
    assert err is None, err
    assert retains(res.ktree, h)
    assert len(res.decomposition.nodes) == res.ktree.n - res.ktree.k
    _SOLVER_OUTPUTS.append((h, res))


def test_criterion_1_oracle_optimality(capsys):
    rng = np.random.default_rng(1001)
    elapsed = -time.perf_counter()
    feasible = mismatches = infeasible = 0
    for i in range(140):
        k = 1 + i % 3
        n = int(rng.integers(k + 2, 9))
        h = random_backbone(n, 3, rng)
        g = UndirectedGraph.complete(n) if i < 70 else random_host_graph(h, 0.5, rng)
        oracle = random_explicit_scores(g, k, rng)
        report = enumerate_retaining_ktrees(g, h, k)
        try:
            res = solve_retaining_mskt(g, h, k, oracle)
        except InfeasibleError:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                brute_max_score(report, h, oracle)
            continue
        _record(h, res)
        feasible += 1
        _, best = brute_max_score(report, h, oracle)
        if res.score != best:
            mismatches += 1
    elapsed += time.perf_counter()
    ok = mismatches == 0 and feasible >= 100 and elapsed < 60.0
    _emit(capsys, f"[criterion 1] {'PASS' if ok else 'FAIL'} "
                  f"oracle optimality: {feasible - mismatches}/{feasible} "
                  f"feasible instances matched exactly "
                  f"({infeasible} infeasible, both agree), {elapsed:.1f} s")
    assert mismatches == 0
    assert feasible >= 100
    assert elapsed < 60.0


def test_criterion_3_projection_end_to_end(capsys):
    rng = np.random.default_rng(1003)
    g = UndirectedGraph.complete(5)
    h = path_backbone(5)
    elapsed = -time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p = random_joint_table((2,) * 5, rng)
        oracle = build_mi_oracle(p, g, 2)
        res = solve_retaining_mskt(g, h, 2, oracle)
        _record(h, res)
        achieved = kl_divergence(p, markov_ktree_distribution(res.ktree, p))
        _, best = brute_min_kl(p, g, h, 2)
        worst = max(worst, abs(achieved - best))
    elapsed += time.perf_counter()
    ok = worst <= 1e-9 and elapsed < 120.0
    _emit(capsys, f"[criterion 3] {'PASS' if ok else 'FAIL'} "
                  f"max-score topology minimizes divergence on 20/20 joints "
                  f"(worst gap {worst:.2e}), {elapsed:.1f} s")
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_criterion_4_separation_bound(capsys):
    rng = np.random.default_rng(1004)
    checked = violations = 0
    for _ in range(1200):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 13))
        h = random_backbone(n, d, rng)
        sep = {int(v) for v in rng.choice(n, size=k + 1, replace=False)}
        if len(components_masks(h.adj, n, mask_of(sep))) > d * (k + 1) - k:
            violations += 1
        checked += 1
    ok = violations == 0
    _emit(capsys, f"[criterion 4] {'PASS' if ok else 'FAIL'} "
                  f"separation bound: {checked - violations}/{checked} "
                  f"pairs within d(k+1)-k")
    assert violations == 0


def _neighbor_bound_holds(t: KTree) -> bool:
    nodes = [c.members for c in build_tree_decomposition(t).nodes]
    adj = {v: set() for v in range(t.n)}
    for u, v in t.edges:
        adj[u].add(v)
        adj[v].add(u)
    for c in nodes:
        cset = set(c)
        nbrs = sum(1 for d in nodes if d != c and len(cset & set(d)) == t.k)
        seen = set()
        comps = 0
        for s in range(t.n):
            if s in cset or s in seen:
                continue
            comps += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen and y not in cset:
                        seen.add(y)
                        stack.append(y)
        if nbrs > comps:
            return False
    return True


def test_criterion_5_clique_neighbor_bound(capsys):
    rng = np.random.default_rng(1005)
    instances = [(UndirectedGraph.complete(5), path_backbone(5), 1),
                 (UndirectedGraph.complete(6), path_backbone(6), 2),
                 (UndirectedGraph.complete(5), path_backbone(5), 3),
                 (UndirectedGraph.complete(6), path_backbone(6), 3)]
    for _ in range(6):
        n = int(rng.integers(6, 8))
        k = int(rng.integers(1, 3))
        h = random_backbone(n, 3, rng)
        instances.append((random_host_graph(h, 0.5, rng), h, k))
    checked = violations = 0
    for g, h, k in instances:
        for t in enumerate_retaining_ktrees(g, h, k).instances:
            checked += 1
            if not _neighbor_bound_holds(t):
                violations += 1
    ok = violations == 0 and checked > 0
    _emit(capsys, f"[criterion 5] {'PASS' if ok else 'FAIL'} "
                  f"neighbor count within component count on "
                  f"{checked - violations}/{checked} enumerated k-trees")
    assert checked > 0
    assert violations == 0


def test_criterion_6_reduction_equivalence(capsys):
    rng = np.random.default_rng(1006)
    elapsed = -time.perf_counter()
    checked = disagreements = 0
    for _ in range(30):
        g = gnp_graph(10, 0.5, rng)
        for k in (3, 4):
            if decide_kclique(g, k) != max_clique_exists(g, k):
                disagreements += 1
            checked += 1
    elapsed += time.perf_counter()
    ok = disagreements == 0 and elapsed < 120.0
    _emit(capsys, f"[criterion 6] {'PASS' if ok else 'FAIL'} "
                  f"clique decision agreement on {checked - disagreements}"
                  f"/{checked} graphs, {elapsed:.1f} s")
    assert disagreements == 0
    assert elapsed < 120.0


def test_criterion_7_information_identities(capsys):
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        shape = tuple(int(rng.integers(2, 4)) for _ in range(3))
        p = random_joint_table(shape, rng)
        assert mutual_information(p, 0, ()) == 0.0
        val = mutual_information(p, 0, (1, 2))
        assert val >= 0.0
        px = p.table.sum(axis=(1, 2))
        pys = p.table.sum(axis=0)
        direct = sum(
            pv * math.log2(pv / (px[i] * pys[j, l]))
            for (i, j, l), pv in np.ndenumerate(p.table) if pv > 0)
        worst = max(worst, abs(val - direct))
    for _ in range(15):
        p = random_joint_table((2, 2, 2), rng)
        q = random_joint_table((2, 2, 2), rng)
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == 0.0
        if not np.array_equal(p.table, q.table):
            assert kl_divergence(p, q) > 0.0
    trees = 0
    while trees < 50:
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 7))
        t = random_ktree(n, k, rng)
        p = random_joint_table((2,) * n, rng)
        ref_table = ref_obj = None
        for node in build_tree_decomposition(t).nodes:
            r = reroot(t, node)
            pg = markov_ktree_distribution(r, p)
            worst = max(worst, abs(float(pg.table.sum()) - 1.0))
            dec = build_tree_decomposition(r)
            obj = total_correlation(p, dec.root.members)
            for c in dec.nodes[1:]:
                w = dec.pivot[c]
                obj += mutual_information(p, w, tuple(x for x in c if x != w))
            if ref_table is None:
                ref_table, ref_obj = pg.table, obj
            else:
                worst = max(worst, float(np.abs(pg.table - ref_table).max()),
                            abs(obj - ref_obj))
        trees += 1
    ok = worst <= 1e-9
    _emit(capsys, f"[criterion 7] {'PASS' if ok else 'FAIL'} "
                  f"information identities hold; worst deviation {worst:.2e} "
                  f"across 35 tables and {trees} rerooted k-trees")
    assert worst <= 1e-9


def test_criterion_8_chow_liu_recovery(capsys):
    truth = KTree.from_creation_order(
        6, 1, [(0, ())] + [(v, (v - 1,)) for v in range(1, 6)])
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tables = random_conditionals(truth, (2,) * 6, rng, concentration=0.5)
        s = sample_markov_ktree(truth, tables, 100_000, seed=seed)
        hits += chow_liu(s).edges == truth.edges
    ok = hits >= 18
    _emit(capsys, f"[criterion 8] {'PASS' if ok else 'FAIL'} "
                  f"chain structure recovered on {hits}/20 seeds")
    assert hits >= 18


def test_criterion_9_census(capsys):
    cases = [(4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (5, 3)]
    rows = []
    for n, k in cases:
        expect = math.comb(n, k) * (k * (n - k) + 1) ** (n - k - 2)
        got = len(enumerate_retaining_ktrees(
            UndirectedGraph.complete(n), None, k).instances)
        rows.append((n, k, got, expect))
    ok = all(got == expect for _, _, got, expect in rows)
    detail = ", ".join(f"({n},{k})={got}" for n, k, got, _ in rows)
    _emit(capsys, f"[criterion 9] {'PASS' if ok else 'FAIL'} "
                  f"labeled census matches the closed form: {detail}")
    for n, k, got, expect in rows:
        assert got == expect, (n, k, got, expect)


def test_criterion_10_scaling_smoke(capsys):
    sizes = (20, 40, 80)
    medians = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        edges = list(itertools.combinations(range(n), 2))
        weights = {e: float(rng.uniform(0.5, 1.5)) for e in edges}
        g = UndirectedGraph(n, edges, weights)
        h = path_backbone(n)
        oracle = WeightProductOracle(g)
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = solve_retaining_mskt(g, h, 2, oracle)
            runs.append(time.perf_counter() - t0)
        _record(h, res)
        medians[n] = statistics.median(runs)
    c = medians[20] / 20 ** 4
    ok = all(medians[n] <= 3 * c * n ** 4 for n in sizes[1:])
    detail = ", ".join(f"n={n}: {medians[n]:.2f}s" for n in sizes)
    verdict = "PASS" if ok else "REVIEW"
    _emit(capsys, f"[criterion 10] {verdict} quartic scaling fit "
                  f"(informational): {detail}; allowance 3x n^4 from n=20")
    # informational: a miss flags review, it does not fail the suite


def test_criterion_2_retention_and_validity(capsys):
    """Defined last so it re-audits everything the suite produced."""
    bad = 0
    for h, res in _SOLVER_OUTPUTS:
        if validate_ktree(res.ktree) is not None:
            bad += 1
        elif not retains(res.ktree, h):
            bad += 1
        elif len(res.decomposition.nodes) != res.ktree.n - res.ktree.k:
            bad += 1
    total = len(_SOLVER_OUTPUTS)
    ok = bad == 0 and total >= 100
    _emit(capsys, f"[criterion 2] {'PASS' if ok else 'FAIL'} "
                  f"retention and validity on {total - bad}/{total} "
                  f"solver outputs, zero tolerance")
    assert total >= 100
    assert bad == 0
