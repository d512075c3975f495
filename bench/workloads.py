"""The benchmark's workloads: seeded inputs, one round of operations,
and the independent checks of each round's outputs.

Inputs come from the benchmark seed alone. The dense and sparse hosts,
backbones, weights and score tables are built here rather than with
`ktspan.generate`, so a change to the package's generators cannot
change what is measured; `mi-pipeline` times the package's own `gen`
step, which is what a user runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os

import numpy as np

from checks import (
    CheckFailed,
    SampleEntropy,
    best_backbone_rooting,
    creation_order_ktree,
    joint_kl,
    parent_grandparent_2tree,
    require,
    require_at_least,
    require_close,
    result_file_ktree,
    table_score,
    weight_product_score,
)
from ktspan import cli, fileio, generate, graphs, information, solver

# op kinds; the CLI kinds double as the names of the cli.* layer metrics
GEN, FIT, SOLVE_SCORES, SOLVE_SAMPLES, KL = "gen", "fit", "solve_scores", "solve_samples", "kl"
LIBRARY_SOLVE = "library_solve"
CLI_KINDS = (GEN, FIT, SOLVE_SCORES, SOLVE_SAMPLES, KL)
# the op kinds whose times add up to the solve_ref metric
SOLVE_KINDS = (SOLVE_SCORES, SOLVE_SAMPLES, LIBRARY_SOLVE)

SIZES = {
    "full": {
        "mi-pipeline": {"n": 16, "k": 2, "degree": 3, "samples": 20000},
        "dense-dp": {"n_path": 32, "n_deg3": 32},
        "sparse-sweep": {"n_k2": 120, "n_k1": 500, "extra_edges": 6},
    },
    "tiny": {
        "mi-pipeline": {"n": 7, "k": 2, "degree": 3, "samples": 500},
        "dense-dp": {"n_path": 8, "n_deg3": 8},
        "sparse-sweep": {"n_k2": 14, "n_k1": 30, "extra_edges": 2},
    },
}


class OperationFailed(Exception):
    """An operation exited non-zero."""


class Op:
    """One timed call into the package."""

    __slots__ = ("label", "kind", "fn")

    def __init__(self, label, kind, fn):
        self.label = label
        self.kind = kind
        self.fn = fn


def run_cli(*argv):
    """Run one ktspan subcommand in this process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"ktspan {argv[0]} exited with code {code}")
    return buf.getvalue()


def printed_value(stdout, key):
    """The value of the `key value` line of a solve or kl report."""
    for line in stdout.splitlines():
        head, _, value = line.partition(" ")
        if head == key:
            return value
    raise CheckFailed(f"no {key!r} line in output {stdout!r}")


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def degree3_backbone(n, rng):
    """Random recursive tree of maximum degree 3: vertex j hangs off a
    uniformly chosen earlier vertex that still has a free slot."""
    deg = [0] * n
    edges = []
    for j in range(1, n):
        free = [u for u in range(j) if deg[u] < 3]
        u = free[int(rng.integers(len(free)))]
        edges.append((u, j))
        deg[u] += 1
        deg[j] += 1
    return edges


def sparse_host(n, backbone, extra, rng):
    """Backbone plus every distance-2 pair plus `extra` random edges."""
    nbrs = [[] for _ in range(n)]
    for u, v in backbone:
        nbrs[u].append(v)
        nbrs[v].append(u)
    edges = set(backbone)
    for around in nbrs:
        edges.update(itertools.combinations(sorted(around), 2))
    while extra:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return sorted(edges)


def host_cliques(n, edges, size):
    """Every clique of `size` (2 or 3) vertices of the host, sorted."""
    if size == 2:
        return sorted(edges)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return sorted((u, v, w) for u, v in edges for w in adj[u] & adj[v] if w > v)


class MiPipeline:
    """`gen -> fit -> solve --scores -> solve --samples -> kl` through the CLI."""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.cfg = SIZES[size]["mi-pipeline"]
        self.dir = workdir
        self._refs = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        c = self.cfg
        inst = generate.gen_instance(c["n"], c["k"], c["degree"], c["samples"], self.seed)
        joint = information.tables_to_joint(inst["truth"], inst["tables"])
        fileio.save_joint(self.path("joint.json"), joint)
        self.joint = joint.table
        self.truth_edges = sorted(inst["truth"].edges)

    def operations(self):
        c, p = self.cfg, self.path
        solve = ("solve", "--graph", p("graph.json"), "--k", c["k"])
        return [
            Op("gen", GEN, lambda: run_cli(
                "gen", "--n", c["n"], "--k", c["k"], "--degree", c["degree"],
                "--samples", c["samples"], "--seed", self.seed, "--out", self.dir)),
            Op("fit", FIT, lambda: run_cli(
                "fit", "--samples", p("samples.csv"), "--graph", p("graph.json"),
                "--k", c["k"], "--out", p("scores.json"))),
            Op("solve-scores", SOLVE_SCORES, lambda: run_cli(
                *solve, "--scores", p("scores.json"), "--out", p("result-scores.json"))),
            Op("solve-samples", SOLVE_SAMPLES, lambda: run_cli(
                *solve, "--samples", p("samples.csv"), "--out", p("result-samples.json"))),
            Op("kl", KL, lambda: run_cli(
                "kl", "--joint", p("joint.json"), "--result", p("result-scores.json"))),
        ]

    def _reference(self):
        """Inputs the round's gen wrote, parsed once per distinct content."""
        files = [self.path(f) for f in ("graph.json", "truth.json", "samples.csv")]
        key = _digest(*files)
        ref = self._refs.get(key)
        if ref is None:
            graph = _read_json(files[0])
            n = graph["n"]
            require(len(graph["edges"]) == n * (n - 1) // 2, "gen host is not complete")
            backbone = [tuple(e) for e in graph["backbone"]]
            truth = _read_json(files[1])
            truth_tree = result_file_ktree(truth, n, backbone)
            require(sorted(map(tuple, truth["edges"])) == self.truth_edges,
                    "gen wrote another truth k-tree than the seed's instance")
            data = np.loadtxt(files[2], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
            require(data.shape == (self.cfg["samples"], n), f"samples have shape {data.shape}")
            entropy = SampleEntropy(data)
            ref = self._refs[key] = {
                "n": n, "backbone": backbone, "entropy": entropy,
                "truth_score": entropy.mi_score(truth_tree[1], truth_tree[2]),
            }
        return ref

    def check(self, outputs):
        ref = self._reference()
        scores = {}
        trees = {}
        for label in ("solve-scores", "solve-samples"):
            obj = _read_json(self.path(f"result-{label.split('-')[1]}.json"))
            k, root, attachments, _ = result_file_ktree(obj, ref["n"], ref["backbone"])
            require(k == self.cfg["k"], f"{label} returned a {k}-tree")
            got = float(printed_value(outputs[label], "score"))
            want = ref["entropy"].mi_score(root, attachments)
            require_close(got, want, f"{label} score against the plug-in MI sum")
            require_at_least(got, ref["truth_score"], f"{label} score")
            scores[label] = got
            trees[label] = (root, attachments)
        require_close(scores["solve-scores"], scores["solve-samples"],
                      "solve --scores against solve --samples", rel=1e-12, abs_tol=1e-12)
        try:
            got = float(outputs["kl"])
        except ValueError:
            raise CheckFailed(f"kl printed {outputs['kl']!r}") from None
        want = joint_kl(self.joint, *trees["solve-scores"])
        require(abs(got - want) <= 5e-7 + 1e-12,
                f"kl printed {got!r}, independent value {want!r}")


class DenseDp:
    """`solve_retaining_mskt` with weight products on complete hosts."""

    K = 2

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.cfg = SIZES[size]["dense-dp"]
        self.dir = workdir
        self._refs = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        n_path, n_deg3 = self.cfg["n_path"], self.cfg["n_deg3"]
        specs = [("path", n_path, [(i, i + 1) for i in range(n_path - 1)], 2),
                 ("deg3", n_deg3, degree3_backbone(n_deg3, rng), 3)]
        insts = []
        for label, n, backbone, bound in specs:
            pairs = list(itertools.combinations(range(n), 2))
            weights = dict(zip(pairs, rng.uniform(0.5, 1.5, size=len(pairs)).tolist()))
            insts.append((label, n, backbone, bound, weights))
        # the path instance again under a random vertex permutation
        _, n, backbone, bound, weights = insts[0]
        perm = rng.permutation(n).tolist()
        relabel = lambda e: tuple(sorted((perm[e[0]], perm[e[1]])))
        insts.append(("path-relabelled", n, [relabel(e) for e in backbone], bound,
                      {relabel(e): w for e, w in weights.items()}))
        self.instances = []
        for label, n, backbone, bound, weights in insts:
            # the solves take the objects; the file records the instance
            _write_json(os.path.join(self.dir, f"{label}-graph.json"), {
                "n": n, "edges": [list(e) for e in sorted(weights)],
                "weights": {f"{u},{v}": w for (u, v), w in sorted(weights.items())},
                "backbone": [list(e) for e in sorted(backbone)], "degree_bound": bound})
            g = graphs.UndirectedGraph(n, list(weights), weights)
            h = graphs.BackboneTree(n, backbone, bound)
            self.instances.append((label, n, backbone, weights,
                                   g, h, information.WeightProductOracle(g)))

    def operations(self):
        k = self.K

        def solve(g, h, oracle):
            return lambda: solver.solve_retaining_mskt(g, h, k, oracle)

        return [Op(label, LIBRARY_SOLVE, solve(g, h, oracle))
                for label, _, _, _, g, h, oracle in self.instances]

    def _floor(self, n, backbone, weights):
        key = (n, tuple(backbone))
        if key not in self._refs:
            root, attachments = parent_grandparent_2tree(n, backbone)
            cliques = [tuple(sorted(root))] + [tuple(sorted(b + (v,))) for v, b in attachments]
            self._refs[key] = weight_product_score(cliques, weights)
        return self._refs[key]

    def check(self, outputs):
        best = {}
        for label, n, backbone, weights, *_ in self.instances:
            res = outputs[label]
            t = res.ktree
            require(t.k == self.K and t.n == n, f"{label}: result is a {t.k}-tree on {t.n}")
            _, _, cliques = creation_order_ktree(n, self.K, t.creation_order, t.edges, backbone)
            want = weight_product_score(cliques, weights)
            require_close(res.score, want, f"{label} score against the weight-product sum")
            require_at_least(res.score, self._floor(n, backbone, weights), f"{label} score")
            best[label] = res.score
        require_close(best["path-relabelled"], best["path"],
                      "relabelled optimum against the original", abs_tol=0.0)


class SparseSweep:
    """`solve --scores` on sparse hosts with explicit integer scores."""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.cfg = SIZES[size]["sparse-sweep"]
        self.dir = workdir
        self._refs = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.instances = []
        for k, n in ((2, self.cfg["n_k2"]), (1, self.cfg["n_k1"])):
            backbone = degree3_backbone(n, rng)
            edges = sparse_host(n, backbone, self.cfg["extra_edges"], rng)
            root_scores = {}
            pivot_scores = {}
            for c in host_cliques(n, edges, k + 1):
                root_scores[c] = int(rng.integers(0, 101))
                for w in c:
                    pivot_scores[(w, tuple(x for x in c if x != w))] = int(rng.integers(0, 101))
            stem = os.path.join(self.dir, f"k{k}")
            _write_json(stem + "-graph.json", {
                "n": n, "edges": [list(e) for e in edges],
                "backbone": [list(e) for e in sorted(backbone)], "degree_bound": 3})
            _write_json(stem + "-scores.json", {
                "k": k,
                "root": {",".join(map(str, c)): s for c, s in root_scores.items()},
                "pivot": {f"{w}|" + ",".join(map(str, b)): s
                          for (w, b), s in pivot_scores.items()}})
            self.instances.append((f"solve-k{k}", k, n, backbone, set(edges),
                                   root_scores, pivot_scores, stem))

    def operations(self):
        def solve(k, stem):
            return lambda: run_cli("solve", "--graph", stem + "-graph.json", "--scores",
                                   stem + "-scores.json", "--k", k,
                                   "--out", stem + "-result.json")

        return [Op(label, SOLVE_SCORES, solve(k, stem))
                for label, k, *_, stem in self.instances]

    def _floor(self, k, n, backbone, root_scores, pivot_scores):
        key = (k, n)
        if key not in self._refs:
            if k == 1:
                self._refs[key] = best_backbone_rooting(n, backbone, root_scores, pivot_scores)
            else:
                root, attachments = parent_grandparent_2tree(n, backbone)
                self._refs[key] = table_score(root, attachments, root_scores, pivot_scores)
        return self._refs[key]

    def check(self, outputs):
        for label, k, n, backbone, host, root_scores, pivot_scores, stem in self.instances:
            obj = _read_json(stem + "-result.json")
            got_k, root, attachments, _ = result_file_ktree(obj, n, backbone, host)
            require(got_k == k, f"{label} returned a {got_k}-tree")
            got = float(printed_value(outputs[label], "score"))
            want = table_score(root, attachments, root_scores, pivot_scores)
            require(got == want, f"{label} score {got!r}, score tables give {want!r}")
            floor = self._floor(k, n, backbone, root_scores, pivot_scores)
            if k == 1:
                require(got == floor, f"{label} score {got!r}, exact optimum {floor!r}")
            else:
                require(got >= floor, f"{label} score {got!r} is below the "
                                      f"parent-grandparent 2-tree's {floor!r}")


WORKLOADS = {
    "mi-pipeline": MiPipeline,
    "dense-dp": DenseDp,
    "sparse-sweep": SparseSweep,
}
