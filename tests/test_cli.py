"""Command-line driver: formats, exit codes, round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktspan import (
    UndirectedGraph,
    mutual_information,
    path_backbone,
    solve_retaining_mskt,
    tables_to_joint,
)
from ktspan.bruteforce import brute_min_kl
from ktspan.cli import main
from ktspan.fileio import (
    load_graph,
    load_result_ktree,
    load_samples,
    load_scores,
    save_graph,
    save_joint,
    save_ktree,
    save_samples,
    save_scores,
)
from ktspan.generate import (
    gen_instance,
    random_conditionals,
    random_explicit_scores,
    random_retaining_ktree,
)
from ktspan.graphs import iter_cliques
from ktspan.information import (
    ExplicitScoreOracle,
    JointTable,
    MutualInformationOracle,
    SampleMatrix,
)


def write_instance(tmp_path, seed, n=6, k=2, samples=2000):
    out = tmp_path / f"inst{seed}"
    assert main(["gen", "--n", str(n), "--k", str(k), "--degree", "3",
                 "--samples", str(samples), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def test_fit_two_variable_pivot_is_pairwise_mi(tmp_path, capsys):
    rng = np.random.default_rng(90)
    x = rng.integers(0, 2, 3000)
    y = (x + rng.integers(0, 2, 3000) * rng.integers(0, 2, 3000)) % 2
    s = SampleMatrix(np.column_stack([x, y]))
    save_samples(tmp_path / "s.csv", s)
    save_graph(tmp_path / "g.json", UndirectedGraph(2, [(0, 1)]))
    assert main(["fit", "--samples", str(tmp_path / "s.csv"),
                 "--graph", str(tmp_path / "g.json"),
                 "--k", "1", "--out", str(tmp_path / "scores.json")]) == 0
    oracle = load_scores(tmp_path / "scores.json", 2)
    mi = mutual_information(s, 1, (0,))
    assert oracle.score(1, (0,)) == pytest.approx(mi, abs=1e-12)
    assert oracle.root_score((0, 1)) == pytest.approx(mi, abs=1e-12)


def test_fit_independent_columns_near_zero(tmp_path):
    rng = np.random.default_rng(91)
    s = SampleMatrix(rng.integers(0, 2, size=(5000, 3)))
    save_samples(tmp_path / "s.csv", s)
    save_graph(tmp_path / "g.json", UndirectedGraph.complete(3))
    assert main(["fit", "--samples", str(tmp_path / "s.csv"),
                 "--graph", str(tmp_path / "g.json"),
                 "--k", "1", "--out", str(tmp_path / "scores.json")]) == 0
    oracle = load_scores(tmp_path / "scores.json", 3)
    for u in range(3):
        for v in range(3):
            if u != v:
                assert oracle.score(u, (v,)) < 0.01


def test_fit_solve_round_trip_matches_library(tmp_path, capsys):
    for k in (1, 2, 3):
        out = write_instance(tmp_path / f"k{k}", 7, n=8, k=k, samples=5000)
        assert main(["fit", "--samples", str(out / "samples.csv"),
                     "--graph", str(out / "graph.json"),
                     "--k", str(k), "--out", str(out / "scores.json")]) == 0
        assert main(["solve", "--graph", str(out / "graph.json"),
                     "--scores", str(out / "scores.json"), "--k", str(k),
                     "--out", str(out / "result.json")]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("score ")
        assert lines[1].startswith("root ")
        assert lines[2].startswith("root_score ")

        # fitted scores and scores estimated during the solve are the
        # same floats, and both oracles are root-invariant, so both
        # routes sweep the same roots and print and write the same bytes
        assert main(["solve", "--graph", str(out / "graph.json"),
                     "--samples", str(out / "samples.csv"), "--k", str(k),
                     "--out", str(out / "direct.json")]) == 0
        assert capsys.readouterr().out == stdout
        assert (out / "direct.json").read_bytes() == (out / "result.json").read_bytes()

        g, h = load_graph(out / "graph.json")
        samples = load_samples(out / "samples.csv")
        ref = solve_retaining_mskt(g, h, k, MutualInformationOracle(samples, g))
        assert float(lines[0].split()[1]) == ref.score
        t, obj = load_result_ktree(out / "result.json")
        assert t.edges == ref.ktree.edges
        assert obj["score"] == ref.score


def test_solve_from_samples_directly(tmp_path, capsys):
    out = write_instance(tmp_path, 8)
    assert main(["solve", "--graph", str(out / "graph.json"),
                 "--samples", str(out / "samples.csv"), "--k", "2",
                 "--out", str(out / "result.json")]) == 0
    assert "score " in capsys.readouterr().out


def test_solve_dot_k1_is_the_backbone(tmp_path, capsys):
    out = write_instance(tmp_path, 9, k=1)
    assert main(["solve", "--graph", str(out / "graph.json"),
                 "--samples", str(out / "samples.csv"), "--k", "1",
                 "--format", "dot", "--out", str(out / "t.dot")]) == 0
    capsys.readouterr()
    _, h = load_graph(out / "graph.json")
    dot_edges = set()
    for ln in (out / "t.dot").read_text().splitlines():
        if "--" in ln:
            u, _, v = ln.strip().rstrip(";").replace(" [style=bold]", "").partition(" -- ")
            dot_edges.add((int(u), int(v)))
    assert dot_edges == set(h.edges)


def test_solve_missing_backbone_names_the_key(tmp_path, capsys):
    save_graph(tmp_path / "g.json", UndirectedGraph.complete(4))
    oracle = random_explicit_scores(UndirectedGraph.complete(4), 2,
                                    np.random.default_rng(92))
    save_scores(tmp_path / "scores.json", oracle)
    code = main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "scores.json"), "--k", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert '"backbone"' in capsys.readouterr().err


def test_solve_infeasible_exits_two(tmp_path, capsys):
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    save_graph(tmp_path / "g.json", g, path_backbone(4))
    save_scores(tmp_path / "scores.json",
                random_explicit_scores(g, 2, np.random.default_rng(93)))
    code = main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "scores.json"), "--k", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("n, k", [(600, 1), (1100, 2)])
def test_long_chord_paths_solve_without_recursion_error(tmp_path, capsys, n, k):
    # the DP and its traceback nest one level per backbone vertex on a
    # path backbone; with distance-2 chords and unit scores every
    # retaining k-tree scores one per clique, n - k in all
    g = UndirectedGraph(n, [(i, i + 1) for i in range(n - 1)]
                        + [(i, i + 2) for i in range(n - 2)])
    save_graph(tmp_path / "g.json", g, path_backbone(n))
    cliques = list(iter_cliques(g.adj, k + 1))
    save_scores(tmp_path / "scores.json", ExplicitScoreOracle(
        k, {c: 1.0 for c in cliques},
        {(w, tuple(x for x in c if x != w)): 1.0 for c in cliques for w in c}))
    code = main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "scores.json"), "--k", str(k),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert f"score {float(n - k)}" in capsys.readouterr().out.splitlines()


def test_solve_k_mismatch_with_score_file(tmp_path, capsys):
    out = write_instance(tmp_path, 10)
    assert main(["fit", "--samples", str(out / "samples.csv"),
                 "--graph", str(out / "graph.json"),
                 "--k", "2", "--out", str(out / "scores.json")]) == 0
    code = main(["solve", "--graph", str(out / "graph.json"),
                 "--scores", str(out / "scores.json"), "--k", "3",
                 "--out", str(out / "r.json")])
    assert code == 1
    assert "k=2" in capsys.readouterr().err


@pytest.mark.parametrize("k", [3, 5])
def test_fit_refuses_k_at_least_n(tmp_path, capsys, k):
    # the solver refuses such a k, so fit writes no table for it
    rng = np.random.default_rng(92)
    save_samples(tmp_path / "s.csv", SampleMatrix(rng.integers(0, 2, size=(50, 3))))
    save_graph(tmp_path / "g.json", UndirectedGraph.complete(3))
    assert main(["fit", "--samples", str(tmp_path / "s.csv"),
                 "--graph", str(tmp_path / "g.json"),
                 "--k", str(k), "--out", str(tmp_path / "scores.json")]) == 1
    assert f"need 1 <= k < n, got k={k}, n=3" in capsys.readouterr().err
    assert not (tmp_path / "scores.json").exists()


def test_missing_file_and_usage_errors(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "nope.json"),
                 "--scores", str(tmp_path / "nope2.json"), "--k", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert main(["solve", "--graph", "g.json"]) == 1
    assert main(["fit", "--samples", "s.csv", "--graph", "g.json",
                 "--k", "0", "--out", "o.json"]) == 1
    capsys.readouterr()


GOOD_GRAPH = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "backbone": [[0, 1], [1, 2]]}
GOOD_SCORES = {"k": 1, "root": {"0,1": 1.0}, "pivot": {"2|1": 1.0}}


@pytest.mark.parametrize("graph, scores", [
    (dict(GOOD_GRAPH, edges=[["0", "1"], ["1", "2"]]), GOOD_SCORES),
    (dict(GOOD_GRAPH, edges=5), GOOD_SCORES),
    (dict(GOOD_GRAPH, edges=[[0.5, 1], [1, 2]]), GOOD_SCORES),
    (dict(GOOD_GRAPH, weights=[1, 2]), GOOD_SCORES),
    (dict(GOOD_GRAPH, weights={"0,1": [1]}), GOOD_SCORES),
    (dict(GOOD_GRAPH, backbone=[["0", "1"], ["1", "2"]]), GOOD_SCORES),
    (GOOD_GRAPH, dict(GOOD_SCORES, root=[1])),
    (GOOD_GRAPH, dict(GOOD_SCORES, pivot=[1])),
    (GOOD_GRAPH, dict(GOOD_SCORES, root={"0,1": None})),
    (dict(GOOD_GRAPH, n=None), GOOD_SCORES),
    (dict(GOOD_GRAPH, degree_bound=[2]), GOOD_SCORES),
    (GOOD_GRAPH, dict(GOOD_SCORES, k=None)),
    (GOOD_GRAPH, dict(GOOD_SCORES, root={"0,1": float("nan")})),
    (GOOD_GRAPH, dict(GOOD_SCORES, pivot={"2|1": float("inf")})),
    (GOOD_GRAPH, dict(GOOD_SCORES, pivot={"2|1": 10 ** 400})),
    (dict(GOOD_GRAPH, weights={"0,1": float("-inf")}), GOOD_SCORES),
])
def test_malformed_graph_and_score_files_are_data_errors(tmp_path, capsys,
                                                         graph, scores):
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


GOOD_JOINT = {"vars": [0, 1, 2], "alphabets": [2, 2, 2], "probs": {"0,0,0": 1.0}}
GOOD_RESULT = {"k": 1, "root": [0, 1], "cliques": [{"pivot": 2, "base": [1]}],
               "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("joint, result", [
    (dict(GOOD_JOINT, alphabets=[None, 2, 2]), GOOD_RESULT),
    (dict(GOOD_JOINT, vars=[0, 1, None]), GOOD_RESULT),
    (dict(GOOD_JOINT, probs={"0,0,0": None}), GOOD_RESULT),
    (dict(GOOD_JOINT, probs=[1]), GOOD_RESULT),
    (GOOD_JOINT, dict(GOOD_RESULT, cliques=[5])),
    (GOOD_JOINT, dict(GOOD_RESULT, cliques=[{"pivot": 2}])),
    (GOOD_JOINT, dict(GOOD_RESULT, k=None)),
    (GOOD_JOINT, dict(GOOD_RESULT, k=-1, root=[])),
    (GOOD_JOINT, dict(GOOD_RESULT, edges=[[0, 1], 5])),
    (dict(GOOD_JOINT, probs={"0,0,0": float("nan")}), GOOD_RESULT),
    (dict(GOOD_JOINT, probs={"0,0,0": 0.5}), GOOD_RESULT),
    (dict(GOOD_JOINT, vars=[0, 1, 0]), GOOD_RESULT),
    ({"vars": [], "alphabets": [], "probs": {}}, GOOD_RESULT),
    ({"vars": [0, 1], "alphabets": [2, 0], "probs": {}}, GOOD_RESULT),
    ({"vars": [0], "alphabets": [-1], "probs": {}}, GOOD_RESULT),
])
def test_malformed_joint_and_result_files_are_data_errors(tmp_path, capsys,
                                                          joint, result):
    (tmp_path / "j.json").write_text(json.dumps(joint))
    (tmp_path / "r.json").write_text(json.dumps(result))
    assert main(["kl", "--joint", str(tmp_path / "j.json"),
                 "--result", str(tmp_path / "r.json")]) == 1
    # the message names the file at fault
    err = capsys.readouterr().err
    assert err.startswith((f"error: {tmp_path / 'j.json'}",
                           f"error: {tmp_path / 'r.json'}")), err


def test_well_formed_joint_and_result_files_pass_kl(tmp_path, capsys):
    (tmp_path / "j.json").write_text(json.dumps(GOOD_JOINT))
    (tmp_path / "r.json").write_text(json.dumps(GOOD_RESULT))
    assert main(["kl", "--joint", str(tmp_path / "j.json"),
                 "--result", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out == "0.000000\n"


@pytest.mark.parametrize("name, text", [
    ("g.json", '{"n": 3, "edges": [[0, 1], [1, 2], [0, 2],], "backbone": [[0, 1], [1, 2]]}'),
    ("s.json", '{"k": 1, "root": {"0,1": 1.0,}, "pivot": {"2|1": 1.0}}'),
    ("j.json", '{"vars": [0], "alphabets": [1], "probs": {"0": 1,}}'),
    ("r.json", '{"k": 1, "root": [0, 1], "cliques": [], "edges": [[0, 1],]}'),
], ids=["graph", "scores", "joint", "result"])
def test_json_syntax_errors_name_the_file(tmp_path, capsys, name, text):
    files = {"g.json": GOOD_GRAPH, "s.json": GOOD_SCORES, "j.json": GOOD_JOINT,
             "r.json": GOOD_RESULT}
    for other, obj in files.items():
        (tmp_path / other).write_text(json.dumps(obj))
    (tmp_path / name).write_text(text)
    if name in ("g.json", "s.json"):
        argv = ["solve", "--graph", str(tmp_path / "g.json"), "--scores",
                str(tmp_path / "s.json"), "--k", "1", "--out", str(tmp_path / "out.json")]
    else:
        argv = ["kl", "--joint", str(tmp_path / "j.json"), "--result", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: "), err


@pytest.mark.parametrize("scores, message", [
    (dict(GOOD_SCORES, root={"0,0": 1.0}), "root clique (0, 0) is not a 2-set"),
    (dict(GOOD_SCORES, pivot={"1|1": 1.0}), "pivot 1 inside its own attachment set"),
], ids=["repeated-root-vertex", "pivot-in-base"])
def test_score_table_errors_name_the_file(tmp_path, capsys, scores, message):
    (tmp_path / "g.json").write_text(json.dumps(GOOD_GRAPH))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 's.json'}: {message}\n"


GRAPH_2 = {"n": 2, "edges": [[0, 1]], "backbone": [[0, 1]]}


@pytest.mark.parametrize("command", [
    ["solve", "--graph", "{dir}/g.json", "--samples", "{dir}/s.csv", "--k", "1",
     "--out", "{dir}/r.json"],
    ["chowliu", "--samples", "{dir}/s.csv", "--out", "{dir}/t.json"],
])
def test_sample_cell_beyond_int64_is_a_data_error(tmp_path, capsys, command):
    (tmp_path / "g.json").write_text(json.dumps(GRAPH_2))
    (tmp_path / "s.csv").write_text("x0,x1\n0,99999999999999999999\n")
    assert main([a.format(dir=tmp_path) for a in command]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/s.csv: non-integer cell in sample rows\n")


@pytest.mark.parametrize("command", [
    ["fit", "--samples", "{dir}/s.csv", "--graph", "{dir}/g.json", "--k", "1",
     "--out", "{dir}/scores.json"],
    ["solve", "--graph", "{dir}/g.json", "--samples", "{dir}/s.csv", "--k", "1",
     "--out", "{dir}/r.json"],
])
def test_oversized_sample_marginal_is_a_data_error(tmp_path, capsys, command):
    # the pair (x0, x1) spans 1000001^2 cells; it is refused before any
    # allocation instead of failing with a numpy memory error
    (tmp_path / "g.json").write_text(json.dumps(GRAPH_2))
    (tmp_path / "s.csv").write_text("x0,x1\n0,1\n1000000,1000000\n")
    assert main([a.format(dir=tmp_path) for a in command]) == 1
    assert capsys.readouterr().err == (
        "error: marginal over variables (0, 1) would need 1000002000001 cells "
        "(limit 1048576)\n")


@pytest.mark.parametrize("section, key, message", [
    ("root", "a,1", "is not comma-separated integers"),
    ("root", "0,1_0", "is not comma-separated integers"),
    ("root", "0,1,2", "has wrong arity"),
    ("root", "0,99999999999999999999", "is out of range"),
    ("pivot", "1|x", 'is not "pivot|base" integers'),
    ("pivot", "1,0", 'is not "pivot|base" integers'),
    ("pivot", "0,1|2", 'is not "pivot|base" integers'),
    ("pivot", "2|\u0661", 'is not "pivot|base" integers'),
    ("weights", "a,1", "is not comma-separated integers"),
    ("weights", "1,2,3", "has wrong arity"),
    ("weights", "1", "has wrong arity"),
    ("weights", "0,1_0", "is not comma-separated integers"),
    ("weights", "0,\u0661", "is not comma-separated integers"),
    ("weights", "\u01ff,1", "is not comma-separated integers"),
    ("root", "0,\u01fe0\u01fe", "is not comma-separated integers"),
])
def test_non_integer_score_key_names_file_and_key(tmp_path, capsys,
                                                  section, key, message):
    # int() reads "1_0" as 10 and "\u0661" as 1, and numpy's parser
    # "\u01ff" as 463; keys take ASCII digits only
    graph, scores = GOOD_GRAPH, GOOD_SCORES
    if section == "weights":
        graph, bad = dict(graph, weights={key: 1.0}), "g.json"
    else:
        scores, bad = dict(scores, **{section: {key: 1.0}}), "s.json"
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}/{bad}: key {key!r} {message}\n"


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("section, key", [
    ("root", "0,99"), ("root", "-1,0"), ("pivot", "7|-3")])
def test_score_key_outside_the_graph_is_a_data_error(tmp_path, capsys,
                                                      command, section, key):
    scores = dict(GOOD_SCORES, **{section: {key: 1.0}})
    (tmp_path / "g.json").write_text(json.dumps(GOOD_GRAPH))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main([command, "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/s.json: key {key!r} is out of range\n")


@pytest.mark.parametrize("scores, message", [
    (dict(GOOD_SCORES, root={"0,99": 1.0}), "{}/s.json: key '0,99' is out of range"),
    ({"k": 2, "root": {"0,1,2": 1.0}, "pivot": {"2|0,1": 1.0}},
     "score file is for k=2, requested k=1")], ids=["out-of-range", "k-mismatch"])
def test_oracle_checks_the_score_file_before_enumerating(tmp_path, capsys,
                                                          scores, message):
    # nothing reaches stdout, not even the instance count
    (tmp_path / "g.json").write_text(json.dumps(GOOD_GRAPH))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["oracle", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(tmp_path)}\n"


def test_star_backbone_k1_solves_at_any_degree(tmp_path, capsys):
    # the host is the star itself and every score is 1, so every root
    # ties at n - 1; the DP grew about tenfold per two vertices here
    n = 2000
    edges = [[0, v] for v in range(1, n)]
    graph = {"n": n, "edges": edges, "backbone": edges}
    scores = {"k": 1, "root": {f"0,{v}": 1.0 for v in range(1, n)},
              "pivot": {**{f"{v}|0": 1.0 for v in range(1, n)},
                        **{f"0|{v}": 1.0 for v in range(1, n)}}}
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"score {float(n - 1)}", "root 0,1", "root_score 1.0"]


@pytest.mark.parametrize("n, code", [(6, 0), (9, 0), (12, 0), (20, 1), (2000, 1)])
def test_star_backbone_k2_solves_or_is_refused(tmp_path, capsys, n, code):
    # a star backbone inside a fan host: every triangle is (0, v, v + 1)
    # and scores 1, so the fan is the only retaining 2-tree. Each
    # triangle splits the star into n - 3 components, and the DP's cover
    # count grows exponentially in that, so above 16 of them the solve
    # is refused at the first root
    edges = [[0, v] for v in range(1, n)]
    rim = [[v, v + 1] for v in range(1, n - 1)]
    graph = {"n": n, "edges": edges + rim, "backbone": edges}
    scores = {"k": 2, "root": {}, "pivot": {}}
    for v in range(1, n - 1):
        scores["root"][f"0,{v},{v + 1}"] = 1.0
        for w, base in ((0, (v, v + 1)), (v, (0, v + 1)), (v + 1, (0, v))):
            scores["pivot"][f"{w}|{base[0]},{base[1]}"] = 1.0
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "2",
                 "--out", str(tmp_path / "r.json")]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.splitlines()[0] == f"score {float(n - 2)}"
    else:
        assert captured.out == ""
        assert captured.err == (
            f"error: clique (0, 1, 2) splits the backbone into {n - 3} "
            f"components (limit 16)\n")


def test_non_integer_joint_key_names_file_and_key(tmp_path, capsys):
    (tmp_path / "j.json").write_text(json.dumps(dict(GOOD_JOINT, probs={"a,0,0": 1.0})))
    (tmp_path / "r.json").write_text(json.dumps(GOOD_RESULT))
    assert main(["kl", "--joint", str(tmp_path / "j.json"),
                 "--result", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/j.json: assignment 'a,0,0' is not comma-separated integers\n")


def test_threads_flag_never_changes_output(tmp_path, capsys):
    out = write_instance(tmp_path, 11)
    results = []
    for threads, name in ((1, "a.json"), (4, "b.json")):
        assert main(["solve", "--graph", str(out / "graph.json"),
                     "--samples", str(out / "samples.csv"), "--k", "2",
                     "--threads", str(threads),
                     "--out", str(out / name)]) == 0
        results.append((capsys.readouterr().out, (out / name).read_bytes()))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_kl_identity_and_product(tmp_path, capsys):
    rng = np.random.default_rng(94)
    h = path_backbone(5)
    truth = random_retaining_ktree(h, 2, rng)
    tables = random_conditionals(truth, (2,) * 5, rng)
    p = tables_to_joint(truth, tables)
    save_joint(tmp_path / "joint.json", p)
    save_ktree(tmp_path / "result.json", truth)
    assert main(["kl", "--joint", str(tmp_path / "joint.json"),
                 "--result", str(tmp_path / "result.json")]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"

    prod = np.ones((2,) * 5)
    for v in range(5):
        m = rng.dirichlet([2, 2])
        shape = [1] * 5
        shape[v] = 2
        prod = prod * m.reshape(shape)
    save_joint(tmp_path / "prod.json", JointTable(tuple(range(5)), prod))
    assert main(["kl", "--joint", str(tmp_path / "prod.json"),
                 "--result", str(tmp_path / "result.json")]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_kl_matches_enumeration_optimum(tmp_path, capsys):
    rng = np.random.default_rng(95)
    from ktspan.generate import random_joint_table
    p = random_joint_table((2,) * 5, rng)
    g = UndirectedGraph.complete(5)
    h = path_backbone(5)
    winner, best = brute_min_kl(p, g, h, 2)
    save_joint(tmp_path / "joint.json", p)
    save_ktree(tmp_path / "result.json", winner)
    assert main(["kl", "--joint", str(tmp_path / "joint.json"),
                 "--result", str(tmp_path / "result.json")]) == 0
    assert capsys.readouterr().out.strip() == f"{best:.6f}"


def test_oracle_counts_scores_and_writes(tmp_path, capsys):
    g = UndirectedGraph.complete(4)
    h = path_backbone(4)
    save_graph(tmp_path / "g.json", g, h)
    assert main(["oracle", "--graph", str(tmp_path / "g.json"), "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "instances 3"

    oracle = random_explicit_scores(g, 2, np.random.default_rng(96))
    save_scores(tmp_path / "scores.json", oracle)
    assert main(["oracle", "--graph", str(tmp_path / "g.json"), "--k", "2",
                 "--scores", str(tmp_path / "scores.json"),
                 "--out", str(tmp_path / "best.json")]) == 0
    out = capsys.readouterr().out
    score = float(out.splitlines()[1].split()[1])
    ref = solve_retaining_mskt(g, h, 2, oracle)
    assert score == pytest.approx(ref.score, abs=1e-9)
    _, obj = load_result_ktree(tmp_path / "best.json")
    assert obj["score"] == pytest.approx(ref.score, abs=1e-9)


def test_reduce_clique_decisions(tmp_path, capsys):
    save_graph(tmp_path / "tri.json", UndirectedGraph.complete(3))
    assert main(["reduce-clique", "--graph", str(tmp_path / "tri.json"),
                 "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "decision true"
    save_graph(tmp_path / "path.json", UndirectedGraph(3, [(0, 1), (1, 2)]))
    assert main(["reduce-clique", "--graph", str(tmp_path / "path.json"),
                 "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "decision false"


def test_chowliu_writes_a_spanning_tree(tmp_path):
    rng = np.random.default_rng(97)
    x = rng.integers(0, 2, 2000)
    data = np.column_stack([x, x ^ rng.integers(0, 2, 2000, dtype=np.int64) // 2,
                            rng.integers(0, 2, 2000)])
    save_samples(tmp_path / "s.csv", SampleMatrix(data))
    assert main(["chowliu", "--samples", str(tmp_path / "s.csv"),
                 "--out", str(tmp_path / "t.json")]) == 0
    t, obj = load_result_ktree(tmp_path / "t.json")
    assert t.k == 1 and len(t.edges) == 2
    assert (0, 1) in t.edges
    assert main(["chowliu", "--samples", str(tmp_path / "s.csv"),
                 "--format", "dot", "--out", str(tmp_path / "t.dot")]) == 0
    assert (tmp_path / "t.dot").read_text().startswith("graph ktree {")


def test_gen_deterministic_bytes(tmp_path):
    a = write_instance(tmp_path, 12, samples=500)
    b_dir = tmp_path / "again"
    assert main(["gen", "--n", "6", "--k", "2", "--degree", "3",
                 "--samples", "500", "--seed", "12", "--out", str(b_dir)]) == 0
    for name in ("graph.json", "samples.csv", "truth.json"):
        assert (a / name).read_bytes() == (b_dir / name).read_bytes()


def test_gen_and_fit_bytes_are_pinned(tmp_path):
    # digests of what gen and fit write: the samples are those gen wrote
    # before the marginal kernel moved to column-major cell codes, and
    # the scores are sums of entropies rounded to multiples of 2**-36
    out = write_instance(tmp_path, 12, samples=500)
    assert main(["fit", "--samples", str(out / "samples.csv"),
                 "--graph", str(out / "graph.json"),
                 "--k", "2", "--out", str(out / "scores.json")]) == 0
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest("samples.csv") == (
        "5618c36d7c546d0f7e6d740f2531a1e171c09dc44bfa466522fcc7e20a45e2b5")
    assert digest("scores.json") == (
        "50652654636c2f1226c54b0719c461d3f5a920c84b71ed3f5f948fa50f5d4334")


def test_gen_truth_retains_backbone(tmp_path):
    out = write_instance(tmp_path, 13, samples=100)
    g, h = load_graph(out / "graph.json")
    truth, _ = load_result_ktree(out / "truth.json")
    from ktspan import require_retaining
    require_retaining(truth, h)
    assert set(truth.edges) <= set(g.edges)


def test_console_entry_point_exit_codes(tmp_path):
    save_graph(tmp_path / "g.json", UndirectedGraph.complete(3))
    # the subprocess imports the checkout's package, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "ktspan.cli", *args],
        capture_output=True, text=True, env=env)
    ok = run("reduce-clique", "--graph", str(tmp_path / "g.json"), "--k", "3")
    assert ok.returncode == 0 and ok.stdout.strip() == "decision true"
    bad = run("reduce-clique", "--graph", str(tmp_path / "missing.json"), "--k", "3")
    assert bad.returncode == 1 and "error:" in bad.stderr
    usage = run("solve", "--nope")
    assert usage.returncode == 1


def test_recovery_rate_over_twenty_seeds(tmp_path):
    """Strong samples pin down the generating structure: fit + solve
    gets the exact truth edge set on at least 18 of 20 seeds."""
    hits = 0
    for seed in range(20):
        out = write_instance(tmp_path, seed, n=10, k=2, samples=100_000)
        assert main(["fit", "--samples", str(out / "samples.csv"),
                     "--graph", str(out / "graph.json"),
                     "--k", "2", "--out", str(out / "scores.json")]) == 0
        assert main(["solve", "--graph", str(out / "graph.json"),
                     "--scores", str(out / "scores.json"), "--k", "2",
                     "--out", str(out / "result.json")]) == 0
        truth, _ = load_result_ktree(out / "truth.json")
        got, _ = load_result_ktree(out / "result.json")
        hits += got.edges == truth.edges
    assert hits >= 18
