"""File formats: graphs, scores, samples, joints, results, DOT."""

import json
import re

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    KTree,
    UndirectedGraph,
    path_backbone,
    solve_retaining_mskt,
)
from ktspan.errors import InstanceTooLargeError
from ktspan.fileio import (
    ktree_to_dot,
    load_graph,
    load_joint,
    load_result_ktree,
    load_samples,
    load_scores,
    save_dot,
    save_graph,
    save_joint,
    save_ktree,
    save_result,
    save_samples,
    save_scores,
)
from ktspan.generate import (
    random_explicit_scores,
    random_joint_table,
    random_ktree,
)
from ktspan.information import JointTable, SampleMatrix


def test_graph_round_trip(tmp_path):
    p = tmp_path / "g.json"
    g = UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                        {(0, 1): 0.5, (1, 2): 2.0, (2, 3): 1.0,
                         (3, 4): 1.0, (0, 4): 3.5})
    h = BackboneTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    save_graph(p, g, h)
    g2, h2 = load_graph(p)
    assert g2.n == g.n and set(g2.edges) == set(g.edges)
    assert g2.weights == g.weights
    assert set(h2.edges) == set(h.edges)
    assert h2.degree_bound == 2


def test_graph_without_weights_or_backbone(tmp_path):
    p = tmp_path / "g.json"
    save_graph(p, UndirectedGraph(3, [(0, 1)]))
    g, h = load_graph(p)
    assert g.weights is None and h is None
    assert set(g.edges) == {(0, 1)}


def test_backbone_degree_bound_defaults_to_max_degree(tmp_path):
    p = tmp_path / "g.json"
    obj = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]],
           "backbone": [[0, 1], [0, 2], [0, 3]]}
    p.write_text(json.dumps(obj))
    _, h = load_graph(p)
    assert h.degree_bound == 3


def test_graph_missing_key_message(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 3}))
    with pytest.raises(ValueError, match='"edges"'):
        load_graph(p)
    p.write_text(json.dumps({"edges": []}))
    with pytest.raises(ValueError, match='"n"'):
        load_graph(p)


def test_json_dump_deterministic(tmp_path):
    g = UndirectedGraph(4, [(2, 3), (0, 1)], {(2, 3): 1.0, (0, 1): 2.0})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(a, g, path_backbone(4))
    save_graph(b, g, path_backbone(4))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_scores_round_trip(tmp_path):
    p = tmp_path / "scores.json"
    g = UndirectedGraph.complete(5)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(81))
    save_scores(p, oracle)
    back = load_scores(p)
    assert back.k == 2
    assert back.root_score((0, 1, 2)) == oracle.root_score((0, 1, 2))
    assert back.score(4, (1, 2)) == oracle.score(4, (1, 2))
    # sections are optional: absent entries are forbidden, not errors
    p.write_text(json.dumps({"k": 2, "root": {}}))
    assert load_scores(p).score(0, (1, 2)) is None
    p.write_text(json.dumps({"root": {}}))
    with pytest.raises(ValueError, match='"k"'):
        load_scores(p)


def test_samples_round_trip_and_errors(tmp_path):
    p = tmp_path / "s.csv"
    s = SampleMatrix([[0, 1, 2], [1, 0, 0], [0, 0, 1]])
    save_samples(p, s)
    back = load_samples(p)
    assert np.array_equal(back.data, s.data)
    assert back.alphabet_sizes == s.alphabet_sizes

    p.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_samples(p)
    p.write_text("x0,x1\n")
    with pytest.raises(ValueError, match="no sample rows"):
        load_samples(p)
    p.write_text("x0,x1\n0,1.5\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_samples(p)


def test_joint_round_trip_zero_fill(tmp_path):
    p = tmp_path / "joint.json"
    table = random_joint_table((2, 3), np.random.default_rng(82))
    save_joint(p, table)
    back = load_joint(p)
    assert back.variables == table.variables
    assert np.allclose(back.table, table.table, atol=1e-12)
    # omitted cells read back as zero mass
    obj = {"vars": [0, 1], "alphabets": [2, 2],
           "probs": {"0,0": 0.5, "1,1": 0.5}}
    p.write_text(json.dumps(obj))
    sparse = load_joint(p)
    assert sparse.table[0, 1] == 0.0 and sparse.table[1, 0] == 0.0
    obj = {"vars": [0], "alphabets": [2], "probs": {"5": 1.0}}
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_joint(p)
    p.write_text(json.dumps({"vars": [0], "alphabets": [2]}))
    with pytest.raises(ValueError, match='"probs"'):
        load_joint(p)


def test_result_round_trip(tmp_path):
    p = tmp_path / "result.json"
    g = UndirectedGraph.complete(6)
    h = path_backbone(6)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(83))
    res = solve_retaining_mskt(g, h, 2, oracle)
    save_result(p, res, oracle)
    t, obj = load_result_ktree(p)
    assert t.edges == res.ktree.edges
    assert obj["score"] == pytest.approx(res.score)
    assert len(obj["cliques"]) == 6 - 2 - 1

    obj["edges"] = obj["edges"][:-1]
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="edge list disagrees"):
        load_result_ktree(p)


def test_result_with_broken_clique_order_names_the_path(tmp_path):
    p = tmp_path / "truth.json"
    save_ktree(p, KTree.from_creation_order(
        5, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (2, 3))]))
    obj = json.loads(p.read_text())
    # vertex 3 now attaches to vertex 4, which comes after it
    obj["cliques"][0]["base"] = [1, 4]
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{p}: invalid k-tree")):
        load_result_ktree(p)


def test_joint_size_is_refused_before_allocating(tmp_path):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": list(range(21)), "alphabets": [2] * 21,
                             "probs": {}}))
    with pytest.raises(InstanceTooLargeError, match="2097152 cells"):
        load_joint(p)


def test_ktree_file_replays(tmp_path):
    p = tmp_path / "truth.json"
    t = random_ktree(6, 2, np.random.default_rng(84))
    save_ktree(p, t)
    back, _ = load_result_ktree(p)
    assert back.edges == t.edges


def test_dot_output():
    t = KTree.from_creation_order(
        5, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (2, 3))])
    h = path_backbone(5)
    dot = ktree_to_dot(t, h)
    assert dot.startswith("graph ktree {")
    assert dot.endswith("}\n")
    bold = [ln for ln in dot.splitlines() if "style=bold" in ln]
    assert len(bold) == 4
    for u, v in h.edges:
        assert f"{u} -- {v} [style=bold];" in dot


def test_dot_k1_edges_are_the_backbone():
    h = path_backbone(4)
    t = KTree.from_creation_order(
        4, 1, [(0, ()), (1, (0,)), (2, (1,)), (3, (2,))])
    dot = ktree_to_dot(t, h)
    plain = [ln for ln in dot.splitlines()
             if "--" in ln and "style=bold" not in ln]
    assert plain == []


def test_dot_isolated_vertices(tmp_path):
    t = KTree(1, 1, set(), [(0, ())])
    dot = ktree_to_dot(t)
    assert dot == "graph ktree {\n  0;\n}\n"
    out = tmp_path / "t.dot"
    save_dot(out, t)
    assert out.read_text() == dot
