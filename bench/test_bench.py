"""The benchmark's own tests: a tiny-size run of every workload, and
checkers that reject deliberately wrong results.

    python3 -m pytest -q bench
"""

import json
import math
import types
from pathlib import Path

import pytest

import run

spans, workloads, _ = run.import_package()
import checks  # noqa: E402  (after the package path is set)

OPS_PER_ROUND = {"mi-pipeline": 5, "dense-dp": 3, "sparse-sweep": 2}
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def one_round(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, "tiny", str(tmp_path))
    wl.setup()
    _, _, outputs, errors, _ = run.run_round(wl.operations(), lambda: 1.0)
    assert errors == []
    wl.check(outputs)
    return wl, outputs


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    result, _ = run.measure(workloads, spans, name, 3, 0.0, trace, "tiny", str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    # no time to measure still runs one whole round
    assert result["attempted"] == OPS_PER_ROUND[name]
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(name, tmp_path):
    counted = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                         if v["unit"] in ("count", "bytes")}
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(run.measure(workloads, spans, name, 4, 0.0, 1, "tiny", str(tmp_path / sub))[0])
    first, second = runs
    assert counted(first) == counted(second)
    assert counted(first)["solver.roots_scored"] > 0


def test_tracer_restores_the_package():
    from ktspan import information, solver
    before = (solver.solve_retaining_mskt, information.WeightProductOracle.score)
    tracer = spans.Tracer()
    tracer.install()
    assert solver.solve_retaining_mskt is not before[0]
    tracer.uninstall()
    assert (solver.solve_retaining_mskt, information.WeightProductOracle.score) == before


def off_by_one(stdout):
    lines = stdout.splitlines()
    score = float(lines[0].split()[1])
    return "\n".join([f"score {score + 1}"] + lines[1:]) + "\n"


def test_mi_check_rejects_wrong_score_and_kl(tmp_path):
    wl, outputs = one_round("mi-pipeline", tmp_path)
    for label in ("solve-scores", "solve-samples"):
        with pytest.raises(checks.CheckFailed, match="score"):
            wl.check({**outputs, label: off_by_one(outputs[label])})
    kl = float(outputs["kl"])
    with pytest.raises(checks.CheckFailed, match="kl"):
        wl.check({**outputs, "kl": f"{kl + 1e-5:.6f}\n"})


def test_mi_check_rejects_a_tree_missing_a_backbone_edge(tmp_path):
    wl, outputs = one_round("mi-pipeline", tmp_path)
    graph = json.loads((tmp_path / "graph.json").read_text())
    n = graph["n"]
    backbone = {tuple(e) for e in graph["backbone"]}
    # a fan 2-tree on the complete host: every vertex joins (a, b)
    a, b = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in backbone)
    rest = [v for v in range(n) if v not in (a, b)]
    edges = {(a, b)} | {tuple(sorted((v, x))) for v in rest for x in (a, b)}
    assert not backbone <= edges
    obj = {"k": 2, "root": sorted((a, b, rest[0])), "score": 0.0,
           "cliques": [{"pivot": v, "base": [a, b]} for v in rest[1:]],
           "edges": sorted(map(list, edges))}
    (tmp_path / "result-scores.json").write_text(json.dumps(obj))
    with pytest.raises(checks.CheckFailed, match="backbone edge"):
        wl.check(outputs)


def test_dense_check_rejects_wrong_score_and_missing_backbone_edge(tmp_path):
    wl, outputs = one_round("dense-dp", tmp_path)
    res = outputs["deg3"]
    shifted = types.SimpleNamespace(ktree=res.ktree, score=res.score + 1)
    with pytest.raises(checks.CheckFailed, match="score"):
        wl.check({**outputs, "deg3": shifted})
    # the fan 2-tree over the path's first edge keeps only that path edge
    label, n, backbone, weights, *_ = wl.instances[0]
    assert label == "path"
    order = [(0, ()), (1, (0,))] + [(v, (0, 1)) for v in range(2, n)]
    edges = {(0, 1)} | {(0, v) for v in range(2, n)} | {(1, v) for v in range(2, n)}
    cliques = [(0, 1, v) for v in range(2, n)]
    fan = types.SimpleNamespace(
        ktree=types.SimpleNamespace(n=n, k=2, creation_order=order, edges=edges),
        score=checks.weight_product_score(cliques, weights))
    with pytest.raises(checks.CheckFailed, match="backbone edge"):
        wl.check({**outputs, "path": fan})


def test_sparse_check_rejects_off_by_one_scores(tmp_path):
    wl, outputs = one_round("sparse-sweep", tmp_path)
    for label in ("solve-k1", "solve-k2"):
        with pytest.raises(checks.CheckFailed, match="score"):
            wl.check({**outputs, label: off_by_one(outputs[label])})


def test_sparse_check_rejects_a_tree_missing_a_backbone_edge(tmp_path):
    wl, outputs = one_round("sparse-sweep", tmp_path)
    path = tmp_path / "k1-result.json"
    obj = json.loads(path.read_text())
    base_of = {c["pivot"]: c["base"][0] for c in obj["cliques"]}
    # reattach one vertex to its grandparent, a distance-2 host edge
    v, p = next((v, p) for v, p in base_of.items() if p in base_of)
    g = base_of[p]
    for c in obj["cliques"]:
        if c["pivot"] == v:
            c["base"] = [g]
    obj["edges"] = [e for e in obj["edges"] if sorted(e) != sorted((v, p))] + [sorted((v, g))]
    path.write_text(json.dumps(obj))
    with pytest.raises(checks.CheckFailed, match="backbone edge"):
        wl.check(outputs)


def test_replay_rejects_trees_that_drop_a_backbone_edge():
    path = [(0, 1), (1, 2), (2, 3)]
    # the star at 0 is a valid 1-tree on the path's vertices
    star = [(1, (0,)), (2, (0,)), (3, (0,))]
    with pytest.raises(checks.CheckFailed, match=r"backbone edge \(1, 2\)"):
        checks.replay_ktree(4, 1, (0, 1), star[1:], path)
    assert checks.replay_ktree(4, 1, (0, 1), [(2, (1,)), (3, (2,))], path) == [
        (0, 1), (1, 2), (2, 3)]


def test_reference_constructions_are_retaining_and_exact():
    backbone = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]
    root, attachments = checks.parent_grandparent_2tree(6, backbone)
    checks.replay_ktree(6, 2, root, attachments, backbone)
    # at k=1 the rerooting sum agrees with scoring every rooting directly
    scores = {}
    for u, v in backbone:
        scores[(u, (v,))] = float(3 * u + v)
        scores[(v, (u,))] = float(u + 5 * v)
    roots = {e: float(7 * e[0] - e[1]) for e in backbone}
    direct = []
    for u, v in backbone:
        order, parent = checks.backbone_parents(6, backbone, u)
        direct.append(roots[(u, v)] + sum(scores[(w, (parent[w],))] for w in order
                                          if w not in (u, v)))
    best = checks.best_backbone_rooting(6, backbone, roots, scores)
    assert math.isclose(best, max(direct))
