"""Command-line driver: formats, exit codes, round trips."""

import json
import subprocess
import sys

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
from ktspan.information import JointTable, SampleMatrix, build_mi_oracle


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
    oracle = load_scores(tmp_path / "scores.json")
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
    oracle = load_scores(tmp_path / "scores.json")
    for u in range(3):
        for v in range(3):
            if u != v:
                assert oracle.score(u, (v,)) < 0.01


def test_fit_solve_round_trip_matches_library(tmp_path, capsys):
    out = write_instance(tmp_path, 7)
    assert main(["fit", "--samples", str(out / "samples.csv"),
                 "--graph", str(out / "graph.json"),
                 "--k", "2", "--out", str(out / "scores.json")]) == 0
    assert main(["solve", "--graph", str(out / "graph.json"),
                 "--scores", str(out / "scores.json"), "--k", "2",
                 "--out", str(out / "result.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("score ")
    assert lines[1].startswith("root ")
    assert lines[2].startswith("root_score ")

    g, h = load_graph(out / "graph.json")
    samples = load_samples(out / "samples.csv")
    ref = solve_retaining_mskt(g, h, 2, build_mi_oracle(samples, g, 2))
    assert float(lines[0].split()[1]) == pytest.approx(ref.score, abs=1e-9)
    t, obj = load_result_ktree(out / "result.json")
    assert t.edges == ref.ktree.edges
    assert obj["score"] == pytest.approx(ref.score, abs=1e-9)


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
])
def test_malformed_graph_and_score_files_are_data_errors(tmp_path, capsys,
                                                         graph, scores):
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(tmp_path / "g.json"),
                 "--scores", str(tmp_path / "s.json"), "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_gen_truth_retains_backbone(tmp_path):
    out = write_instance(tmp_path, 13, samples=100)
    g, h = load_graph(out / "graph.json")
    truth, _ = load_result_ktree(out / "truth.json")
    from ktspan import require_retaining
    require_retaining(truth, h)
    assert set(truth.edges) <= set(g.edges)


def test_console_entry_point_exit_codes(tmp_path):
    save_graph(tmp_path / "g.json", UndirectedGraph.complete(3))
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "ktspan.cli", *args],
        capture_output=True, text=True)
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
