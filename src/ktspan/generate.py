"""Random instance generation, reproducible from a numpy Generator.

All randomness flows through numpy's default_rng so a single 64-bit
seed pins down every generated object.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InfeasibleError
from .graphs import BackboneTree, KTree, UndirectedGraph, iter_bits, iter_cliques
from .information import (
    ConditionalTable,
    ExplicitScoreOracle,
    JointTable,
    sample_markov_ktree,
)


def random_backbone(n: int, degree_bound: int, rng) -> BackboneTree:
    """Random labeled tree with maximum degree <= degree_bound.

    Each vertex j >= 1 hangs off a uniformly chosen earlier vertex with
    spare degree; degree_bound >= 2 guarantees one always exists.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n >= 2 and degree_bound < 1:
        raise ValueError("degree bound must be positive")
    if n >= 3 and degree_bound < 2:
        raise ValueError(f"no tree on {n} vertices has maximum degree 1")
    deg = [0] * n
    edges = []
    for j in range(1, n):
        free = [u for u in range(j) if deg[u] < degree_bound]
        u = free[int(rng.integers(len(free)))]
        edges.append((u, j))
        deg[u] += 1
        deg[j] += 1
    return BackboneTree(n, edges, degree_bound)


def random_ktree(n: int, k: int, rng) -> KTree:
    """Random k-tree on 0..n-1: shuffled vertex order, each newcomer
    attached to a uniformly chosen existing k-clique.

    Not uniform over all k-trees, but every k-tree has positive
    probability.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    verts = list(range(n))
    rng.shuffle(verts)
    seed = verts[:k]
    order = [(seed[j], tuple(seed[:j])) for j in range(k)]
    kcliques = [tuple(sorted(seed))]
    for v in verts[k:]:
        base = kcliques[int(rng.integers(len(kcliques)))]
        order.append((v, base))
        for u in base:
            kcliques.append(tuple(sorted(set(base) - {u} | {v})))
    return KTree.from_creation_order(n, k, order)


def random_retaining_ktree(h: BackboneTree, k: int, rng) -> KTree:
    """Random k-tree on the complete host that contains the tree h.

    The seed is a random connected k-subtree of h and vertices enter in
    a random connected expansion order, so each newcomer has exactly
    one backbone neighbor among the existing vertices. Attaching it to
    a k-clique through that neighbor keeps every backbone edge.
    """
    n = h.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    start = int(rng.integers(n))
    chosen = [start]
    cmask = 1 << start
    while len(chosen) < k:
        cands = []
        for u in chosen:
            cands.extend(iter_bits(h.adj[u] & ~cmask))
        v = int(rng.choice(sorted(set(cands))))
        chosen.append(v)
        cmask |= 1 << v
    order = [(v, tuple(chosen[:j])) for j, v in enumerate(chosen)]
    kcliques = [tuple(sorted(chosen))]
    created = cmask
    while created != (1 << n) - 1:
        frontier = sorted(set(itertools.chain.from_iterable(
            iter_bits(h.adj[u] & ~created) for u in iter_bits(created))))
        v = int(rng.choice(frontier))
        anchor_mask = h.adj[v] & created
        anchor = anchor_mask.bit_length() - 1
        if anchor_mask.bit_count() != 1:
            raise InfeasibleError(
                "expansion order broke the single-neighbor invariant")
        hosts = [q for q in kcliques if anchor in q]
        base = hosts[int(rng.integers(len(hosts)))]
        order.append((v, base))
        for u in base:
            kcliques.append(tuple(sorted(set(base) - {u} | {v})))
        created |= 1 << v
    return KTree.from_creation_order(n, k, order)


def random_host_graph(h: BackboneTree, extra_edge_prob: float, rng) -> UndirectedGraph:
    """Random supergraph of the backbone: every non-backbone pair joins
    independently with the given probability."""
    edges = set(h.edges)
    for u, v in itertools.combinations(range(h.n), 2):
        if (u, v) not in edges and rng.random() < extra_edge_prob:
            edges.add((u, v))
    return UndirectedGraph(h.n, edges)


def gnp_graph(n: int, p: float, rng) -> UndirectedGraph:
    """Erdos-Renyi G(n, p)."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(n, edges)


def random_explicit_scores(g: UndirectedGraph, k: int, rng) -> ExplicitScoreOracle:
    """Uniform integer score tables, 0..100, covering every (k+1)-clique
    of g."""
    root = {}
    pivot = {}
    for c in iter_cliques(g.adj, k + 1):
        root[c] = float(rng.integers(0, 101))
        for w in c:
            base = tuple(x for x in c if x != w)
            pivot[(w, base)] = float(rng.integers(0, 101))
    return ExplicitScoreOracle(k, root, pivot)


def random_conditionals(t: KTree, alphabet_sizes, rng,
                        concentration: float = 1.0) -> dict:
    """Random conditional tables along t's creation order, each row
    drawn from a symmetric Dirichlet."""
    sizes = tuple(int(a) for a in alphabet_sizes)
    if len(sizes) != t.n:
        raise ValueError("one alphabet size per vertex required")
    tables = {}
    for v, base in t.creation_order:
        parents = tuple(sorted(base))
        shape = tuple(sizes[p] for p in parents)
        rows = 1
        for a in shape:
            rows *= a
        probs = rng.dirichlet([concentration] * sizes[v], size=rows)
        tables[v] = ConditionalTable(v, parents, probs.reshape(shape + (sizes[v],)))
    return tables


def random_joint_table(alphabet_sizes, rng, concentration: float = 1.0) -> JointTable:
    """Dense random joint distribution, Dirichlet over all cells."""
    sizes = tuple(int(a) for a in alphabet_sizes)
    cells = 1
    for a in sizes:
        cells *= a
    probs = rng.dirichlet([concentration] * cells).reshape(sizes)
    return JointTable(tuple(range(len(sizes))), probs)


def gen_instance(n: int, k: int, degree: int, n_samples: int, seed):
    """Deterministic test instance: complete host graph, random bounded
    backbone, random retaining truth k-tree, Dirichlet(1) conditional
    tables over binary alphabets, and ancestral samples.

    Returns a dict with keys g, h, truth, tables, samples.
    """
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    h = random_backbone(n, degree, rng)
    truth = random_retaining_ktree(h, k, rng)
    tables = random_conditionals(truth, (2,) * n, rng)
    samples = sample_markov_ktree(truth, tables, n_samples,
                                  seed=int(rng.integers(2 ** 63)))
    return {
        "g": UndirectedGraph.complete(n),
        "h": h,
        "truth": truth,
        "tables": tables,
        "samples": samples,
    }
