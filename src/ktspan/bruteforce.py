"""Exhaustive reference implementations: k-tree enumeration, rooted
rescoring, KL minimization, and clique search.

The search here is deliberately independent of the dynamic program in
solver.py; only the shared graph types, the objective evaluator
score_ktree and the all-roots walk that scores a fixed k-tree are
reused. Hard size guards keep the exponential routines at desk scale.
"""

from __future__ import annotations

import itertools

from .errors import InfeasibleError, InstanceTooLargeError
from .graphs import (
    BackboneTree,
    KTree,
    UndirectedGraph,
    iter_bits,
    mask_of,
    normalize_edge,
    require_retaining,
    reroot,
    validate_backbone,
)
from .information import JointTable, kl_divergence, markov_ktree_distribution
from .solver import _best_root, score_ktree

ENUM_MAX_N = 9
ENUM_MAX_K = 3
CLIQUE_MAX_N = 20
CLIQUE_MAX_K = 6


def enumerate_retaining_ktrees(g: UndirectedGraph, h, k: int) -> tuple:
    """All spanning k-trees of g that contain h (all k-trees when h is
    None), one witness KTree per distinct edge set, sorted by edge list.

    Breadth-first over partial constructions deduplicated by (vertex
    set, edge set); a new vertex must immediately receive every
    backbone edge to already-present vertices, since rule 2 never adds
    an edge between two existing vertices later.
    """
    n = g.n
    if n > ENUM_MAX_N or k > ENUM_MAX_K:
        raise InstanceTooLargeError(
            f"enumeration guarded to n <= {ENUM_MAX_N}, k <= {ENUM_MAX_K}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if h is not None:
        err = validate_backbone(g, h)
        if err is not None:
            raise ValueError(f"invalid backbone: {err}")
    hadj = h.adj if h is not None else [0] * n
    pair_pos = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    full = (1 << n) - 1
    parents = {}
    frontier = []
    for seed in itertools.combinations(range(n), k):
        if not g.is_clique(seed):
            continue
        ebits = 0
        for p in itertools.combinations(seed, 2):
            ebits |= 1 << pair_pos[p]
        state = (mask_of(seed), ebits)
        if state not in parents:
            parents[state] = (None, seed, None)
            frontier.append(state)
    while frontier:
        nxt = []
        for state in frontier:
            cmask, ebits = state
            if cmask == full:
                continue
            created = tuple(iter_bits(cmask))
            for base in itertools.combinations(created, k):
                if any(not ebits >> pair_pos[p] & 1
                       for p in itertools.combinations(base, 2)):
                    continue
                bmask = mask_of(base)
                for v in iter_bits(full & ~cmask):
                    if bmask & ~g.adj[v]:
                        continue
                    if hadj[v] & cmask & ~bmask:
                        continue
                    nbits = ebits
                    for b in base:
                        nbits |= 1 << pair_pos[normalize_edge(v, b)]
                    nstate = (cmask | 1 << v, nbits)
                    if nstate not in parents:
                        parents[nstate] = (state, v, base)
                        nxt.append(nstate)
        frontier = nxt
    instances = []
    for state in parents:
        if state[0] != full:
            continue
        entries = []
        cur = state
        while True:
            prev, v, base = parents[cur]
            if prev is None:
                seed = v
                break
            entries.append((v, base))
            cur = prev
        entries.reverse()
        order = [(s, seed[:j]) for j, s in enumerate(seed)] + entries
        t = KTree.from_creation_order(n, k, order)
        if h is not None:
            require_retaining(t, h)
        instances.append(t)
    instances.sort(key=lambda t: tuple(sorted(t.edges)))
    return tuple(instances)


def best_rooted_score(t: KTree, h: BackboneTree, oracle):
    """Best construction score of the fixed k-tree t.

    The same edge set admits many creation orders, and scores depend on
    which vertex acts as pivot for each clique, so an edge set alone
    does not determine a score. Any (k+1)-clique of t can serve as the
    root of a rewritten creation order, and the score is a function of
    (edge set, root) only, so one walk over t's clique tree scores every
    root; ties go to the smallest root clique. Returns (score, witness
    KTree) for the best construction, the witness rerooted there by
    reroot and its score recomputed along that order, or (None, None)
    when every one is forbidden.
    """
    require_retaining(t, h)
    if t.n == t.k:
        raise ValueError("k-tree equals its seed clique, nothing to score")
    root = _best_root(t, oracle)
    if root is None:
        return None, None
    winner = reroot(t, root)
    return score_ktree(winner, h, oracle), winner


def brute_max_score(ktrees, h: BackboneTree, oracle):
    """Maximum construction score over the enumerated k-trees.

    They are scanned in sorted-edge-list order, so ties keep the
    lexicographically least edge set. Returns (ktree, score).
    """
    best = None
    winner = None
    for t in ktrees:
        val, witness = best_rooted_score(t, h, oracle)
        if val is None:
            continue
        if best is None or val > best:
            best = val
            winner = witness
    if winner is None:
        raise InfeasibleError("no enumerated k-tree has a defined score")
    return winner, best


def brute_min_kl(p: JointTable, g: UndirectedGraph, h: BackboneTree, k: int):
    """Optimal projection by enumeration: returns the retaining k-tree
    whose induced distribution minimizes D(p || .), with the value."""
    best = None
    winner = None
    for t in enumerate_retaining_ktrees(g, h, k):
        d = kl_divergence(p, markov_ktree_distribution(t, p))
        if best is None or d < best:
            best = d
            winner = t
    if winner is None:
        raise InfeasibleError("no spanning k-tree retains the backbone")
    return winner, best


def max_clique_exists(g: UndirectedGraph, k: int) -> bool:
    """Does g contain a clique on k vertices? Plain subset scan."""
    if g.n > CLIQUE_MAX_N or k > CLIQUE_MAX_K:
        raise InstanceTooLargeError(
            f"clique scan guarded to n <= {CLIQUE_MAX_N}, k <= {CLIQUE_MAX_K}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return any(g.is_clique(c) for c in itertools.combinations(range(g.n), k))
