"""Stable file formats: graph JSON, score JSON, samples CSV, joint
JSON, result JSON, and DOT rendering.

All JSON is written with sorted keys and a trailing newline so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InstanceTooLargeError
from .graphs import BackboneTree, KTree, UndirectedGraph, normalize_edge
from .information import MAX_TABLE_CELLS, ExplicitScoreOracle, JointTable, SampleMatrix
from .solver import SolveResult


def _load_json(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(obj, key, path):
    if key not in obj:
        raise ValueError(f'{path} is missing the "{key}" key')
    return obj[key]


def _edge_list(value, key, path):
    if not isinstance(value, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
            for e in value):
        raise ValueError(f'{path}: "{key}" must be a list of [u, v] integer pairs')
    return [tuple(e) for e in value]


def _number_map(value, key, path):
    if not isinstance(value, dict) or not all(
            isinstance(s, (int, float)) and not isinstance(s, bool)
            for s in value.values()):
        raise ValueError(f'{path}: "{key}" must be an object of numbers')
    return value


def load_graph(path):
    """Read a graph file; returns (UndirectedGraph, BackboneTree | None).

    A backbone without an explicit degree_bound gets its actual maximum
    degree as the bound.
    """
    obj = _load_json(path)
    n = int(_require(obj, "n", path))
    edges = _edge_list(_require(obj, "edges", path), "edges", path)
    weights = None
    if obj.get("weights") is not None:
        weights = {}
        for key, w in _number_map(obj["weights"], "weights", path).items():
            u, _, v = key.partition(",")
            weights[(int(u), int(v))] = float(w)
    g = UndirectedGraph(n, edges, weights)
    h = None
    if obj.get("backbone") is not None:
        bound = obj.get("degree_bound")
        h = BackboneTree(n, _edge_list(obj["backbone"], "backbone", path),
                         int(bound) if bound is not None else None)
        if h.degree_bound is None:
            h = BackboneTree(n, h.edges, h.max_degree())
    return g, h


def save_graph(path, g: UndirectedGraph, h: BackboneTree | None = None):
    obj = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    if g.weights is not None:
        obj["weights"] = {f"{u},{v}": w for (u, v), w in g.weights.items()}
    if h is not None:
        obj["backbone"] = [list(e) for e in sorted(h.edges)]
        if h.degree_bound is not None:
            obj["degree_bound"] = h.degree_bound
    _dump_json(path, obj)


def load_scores(path) -> ExplicitScoreOracle:
    """Read explicit score tables; absent entries mean forbidden."""
    obj = _load_json(path)
    k = int(_require(obj, "k", path))
    root = {}
    for key, s in _number_map(obj.get("root", {}), "root", path).items():
        root[tuple(int(x) for x in key.split(","))] = float(s)
    pivot = {}
    for key, s in _number_map(obj.get("pivot", {}), "pivot", path).items():
        wpart, _, cpart = key.partition("|")
        pivot[(int(wpart), tuple(int(x) for x in cpart.split(",")))] = float(s)
    return ExplicitScoreOracle(k, root, pivot)


def save_scores(path, oracle: ExplicitScoreOracle):
    obj = {
        "k": oracle.k,
        "root": {",".join(map(str, c)): s for c, s in oracle.root_scores.items()},
        "pivot": {f"{w}|" + ",".join(map(str, sorted(b))): s
                  for (w, b), s in oracle.pivot_scores.items()},
    }
    _dump_json(path, obj)


def load_samples(path) -> SampleMatrix:
    """Read a samples CSV with header x0,x1,...,x{n-1}."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        if not cols or cols != [f"x{i}" for i in range(len(cols))]:
            raise ValueError(f"{path}: header must be x0,x1,...")
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    try:
        data = np.array([[int(x) for x in row.split(",")] for row in rows],
                        dtype=np.int64)
    except ValueError:
        raise ValueError(f"{path}: non-integer cell in sample rows") from None
    if data.ndim != 2 or data.shape[1] != len(cols):
        raise ValueError(f"{path}: row width disagrees with header")
    return SampleMatrix(data)


def save_samples(path, samples: SampleMatrix):
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(samples.n)) + "\n")
        np.savetxt(fh, samples.data, fmt="%d", delimiter=",")


def load_joint(path) -> JointTable:
    """Read a dense joint table; absent assignments count as zero."""
    obj = _load_json(path)
    variables = [int(v) for v in _require(obj, "vars", path)]
    alphabets = [int(a) for a in _require(obj, "alphabets", path)]
    probs = _require(obj, "probs", path)
    if len(variables) != len(alphabets):
        raise ValueError(f"{path}: vars and alphabets differ in length")
    cells = 1
    for a in alphabets:
        cells *= a
    if cells > MAX_TABLE_CELLS:
        raise InstanceTooLargeError(
            f"{path}: assignment space has {cells} cells (limit {MAX_TABLE_CELLS})")
    table = np.zeros(tuple(alphabets))
    for key, p in probs.items():
        idx = tuple(int(x) for x in key.split(","))
        if len(idx) != len(variables):
            raise ValueError(f"{path}: assignment {key!r} has wrong arity")
        if any(not 0 <= x < a for x, a in zip(idx, alphabets)):
            raise ValueError(f"{path}: assignment {key!r} is out of range")
        table[idx] = float(p)
    return JointTable(tuple(variables), table)


def save_joint(path, p: JointTable):
    probs = {}
    for idx in np.ndindex(*p.table.shape):
        probs[",".join(map(str, idx))] = float(p.table[idx])
    _dump_json(path, {
        "vars": list(p.variables),
        "alphabets": list(p.table.shape),
        "probs": probs,
    })


def _ktree_json_obj(t: KTree, scores=None):
    k = t.k
    root = [v for v, _ in t.creation_order[:k + 1]]
    obj = {
        "k": k,
        "root": sorted(root),
        "cliques": [],
        "edges": [list(e) for e in sorted(t.edges)],
    }
    for i, (v, base) in enumerate(t.creation_order[k + 1:]):
        item = {"pivot": v, "base": list(base)}
        if scores is not None:
            item["score"] = scores[i]
        obj["cliques"].append(item)
    return obj


def save_ktree(path, t: KTree):
    """Write a bare k-tree (no scores) in the result-file layout."""
    _dump_json(path, _ktree_json_obj(t))


def save_result(path, result: SolveResult, oracle):
    """Write a solve result; per-clique scores come from the oracle."""
    dec = result.decomposition
    scores = []
    for node in dec.nodes[1:]:
        w = dec.pivot[node]
        scores.append(oracle.score(w, tuple(x for x in node.members if x != w)))
    obj = _ktree_json_obj(result.ktree, scores)
    obj["score"] = result.score
    _dump_json(path, obj)


def load_result_ktree(path):
    """Rebuild the k-tree encoded in a result or truth file.

    Returns (KTree, raw object). The creation order is recovered from
    the root clique plus the clique list in file order and checked
    against the explicit edge list.
    """
    obj = _load_json(path)
    k = int(_require(obj, "k", path))
    root = [int(v) for v in _require(obj, "root", path)]
    if len(root) != k + 1:
        raise ValueError(f"{path}: root must list {k + 1} vertices")
    order = [(v, tuple(root[:j])) for j, v in enumerate(root[:k])]
    order.append((root[k], tuple(root[:k])))
    for item in _require(obj, "cliques", path):
        order.append((int(item["pivot"]), tuple(int(b) for b in item["base"])))
    try:
        t = KTree.from_creation_order(len(order), k, order)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    edges = {normalize_edge(int(u), int(v)) for u, v in _require(obj, "edges", path)}
    if edges != t.edges:
        raise ValueError(f"{path}: edge list disagrees with the clique list")
    return t, obj


def ktree_to_dot(t: KTree, h: BackboneTree | None = None) -> str:
    """Render the k-tree in DOT; backbone edges are drawn bold."""
    backbone = h.edges if h is not None else frozenset()
    lines = ["graph ktree {"]
    touched = set()
    for u, v in sorted(t.edges):
        touched.update((u, v))
        style = " [style=bold]" if (u, v) in backbone else ""
        lines.append(f"  {u} -- {v}{style};")
    for v in range(t.n):
        if v not in touched:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_dot(path, t: KTree, h: BackboneTree | None = None):
    with open(path, "w") as fh:
        fh.write(ktree_to_dot(t, h))
