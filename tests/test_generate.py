"""Random instance generators."""

import itertools

import numpy as np
import pytest

from ktspan import (
    UndirectedGraph,
    require_retaining,
    validate_backbone,
    validate_ktree,
)
from ktspan.generate import (
    gen_instance,
    gnp_graph,
    random_backbone,
    random_conditionals,
    random_explicit_scores,
    random_host_graph,
    random_joint_table,
    random_ktree,
    random_retaining_ktree,
)
from ktspan.graphs import iter_bits


def test_random_backbone_shape():
    rng = np.random.default_rng(70)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        bound = int(rng.integers(2, 5))
        h = random_backbone(n, bound, rng)
        assert h.n == n
        assert len(h.edges) == n - 1
        assert max(map(h.degree, range(n))) <= bound
        assert h.degree_bound == bound
        # connected: every vertex reachable from 0
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in iter_bits(h.adj[v]):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert seen == set(range(n))


def test_random_backbone_errors():
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError):
        random_backbone(0, 2, rng)
    with pytest.raises(ValueError):
        random_backbone(3, 0, rng)
    with pytest.raises(ValueError):
        random_backbone(4, 1, rng)


def test_random_ktree_valid():
    rng = np.random.default_rng(72)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, k + 6))
        t = random_ktree(n, k, rng)
        assert validate_ktree(t) is None


def test_random_retaining_ktree():
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(n, 4)))
        h = random_backbone(n, 3, rng)
        t = random_retaining_ktree(h, k, rng)
        assert validate_ktree(t) is None
        require_retaining(t, h)


def test_random_host_graph_superset():
    rng = np.random.default_rng(74)
    h = random_backbone(8, 3, rng)
    g0 = random_host_graph(h, 0.0, rng)
    assert sorted(g0.edges) == sorted(h.edges)
    g1 = random_host_graph(h, 1.0, rng)
    assert len(g1.edges) == 28
    g = random_host_graph(h, 0.4, rng)
    assert set(h.edges) <= set(g.edges)
    assert validate_backbone(g, h) is None


def test_gnp_extremes():
    rng = np.random.default_rng(75)
    assert not gnp_graph(6, 0.0, rng).edges
    assert len(gnp_graph(6, 1.0, rng).edges) == 15


def test_random_explicit_scores_cover_host_cliques():
    rng = np.random.default_rng(76)
    g = gnp_graph(6, 0.7, rng)
    oracle = random_explicit_scores(g, 2, rng)
    for c in itertools.combinations(range(6), 3):
        if g.is_clique(c):
            rs = oracle.root_score(c)
            assert rs is not None and 0 <= rs <= 100
            assert rs == int(rs)
            for w in c:
                fs = oracle.score(w, tuple(x for x in c if x != w))
                assert fs is not None and 0 <= fs <= 100
        else:
            assert oracle.root_score(c) is None


def test_random_conditionals_rows():
    rng = np.random.default_rng(77)
    t = random_ktree(6, 2, rng)
    tables = random_conditionals(t, (2, 3, 2, 2, 3, 2), rng)
    assert set(tables) == set(range(6))
    for v, ct in tables.items():
        assert ct.vertex == v
        rows = ct.probs.reshape(-1, ct.probs.shape[-1])
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert rows.min() >= 0


def test_random_joint_table_normalized():
    rng = np.random.default_rng(78)
    for conc in (0.3, 1.0, 4.0):
        p = random_joint_table((2, 3, 2), rng, concentration=conc)
        assert p.table.shape == (2, 3, 2)
        assert float(p.table.sum()) == pytest.approx(1.0, abs=1e-9)
        assert p.table.min() >= 0


def test_gen_instance_contents():
    inst = gen_instance(n=7, k=2, degree=3, n_samples=200, seed=5)
    g, h, truth = inst["g"], inst["h"], inst["truth"]
    assert g.n == 7 and len(g.edges) == 21
    assert validate_backbone(g, h) is None
    assert validate_ktree(truth) is None
    require_retaining(truth, h)
    assert inst["samples"].m == 200 and inst["samples"].n == 7


def test_gen_instance_deterministic():
    a = gen_instance(n=6, k=2, degree=3, n_samples=100, seed=9)
    b = gen_instance(n=6, k=2, degree=3, n_samples=100, seed=9)
    c = gen_instance(n=6, k=2, degree=3, n_samples=100, seed=10)
    assert np.array_equal(a["samples"].data, b["samples"].data)
    assert a["truth"].edges == b["truth"].edges
    assert sorted(a["h"].edges) == sorted(b["h"].edges)
    assert (a["truth"].edges != c["truth"].edges
            or not np.array_equal(a["samples"].data, c["samples"].data))


def test_gen_instance_errors():
    with pytest.raises(ValueError):
        gen_instance(n=3, k=3, degree=2, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        gen_instance(n=5, k=2, degree=1, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        gen_instance(n=5, k=2, degree=3, n_samples=0, seed=0)
