"""Dynamic program for backbone-retaining maximum spanning k-trees.

A state pairs a candidate clique with the set of backbone components
still to be covered below it. One child branch may absorb several
components at once: the k-tree under construction is free to bridge
backbone components with its own edges, so the branch hanging off a
clique covers some union of them. The table therefore keys on
(clique, id subset); a companion table holds the best single branch
per (clique, covered subset), which keeps the hot loop linear in n.
Bitmask cliques and integer-packed keys keep both tables cheap;
traceback replays winning choices into a creation order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentPartitionError, InfeasibleError
from .graphs import (
    BackboneTree,
    KTree,
    UndirectedGraph,
    iter_bits,
    iter_cliques,
    mask_of,
    require_retaining,
    validate_backbone,
)
from .information import JointTable, SampleMatrix, ScoreOracle, _Entropies
from .separation import component_count_bound, components_masks, region_components

_MISSING = object()


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver output: the k-tree and the score split.

    The k-tree's creation order lists its cliques, root first; score is
    root_score_component plus one pivot score per later clique.
    """

    ktree: KTree
    score: float
    root_score_component: float


class _DPSolver:
    """One solve run; holds the memo tables and the traceback choices."""

    def __init__(self, g: UndirectedGraph, h: BackboneTree, k: int,
                 oracle: ScoreOracle):
        self.h = h
        self.k = k
        self.oracle = oracle
        self.n = g.n
        self.gadj = g.adj
        self.hadj = h.adj
        self._bound = component_count_bound(max(h.max_degree(), 1), k)
        # states pack (clique mask, component index mask) into one int
        self._ishift = self._bound
        # score-memo keys pack (base mask, pivot) with the pivot in the
        # low bits, which must hold every vertex id
        self._pshift = self.n.bit_length()
        self._comp_cache = {}
        self._table = {}
        self._tchoice = {}
        self._branch = {}
        self._bchoice = {}
        self._scores = {}

    def _components(self, cmask):
        comps = self._comp_cache.get(cmask)
        if comps is None:
            comps = components_masks(self.hadj, self.n, cmask)
            if len(comps) > self._bound:
                raise InconsistentPartitionError(
                    f"{len(comps)} backbone components exceed bound {self._bound}")
            self._comp_cache[cmask] = comps
        return comps

    def _score(self, basemask, w):
        key = (basemask << self._pshift) | w
        val = self._scores.get(key, _MISSING)
        if val is _MISSING:
            val = self.oracle.score(w, tuple(iter_bits(basemask)))
            self._scores[key] = val
        return val

    def _solve(self, cmask, imask):
        """Best score covering the index-masked components below cmask."""
        if not imask:
            return 0
        key = (cmask << self._ishift) | imask
        hit = self._table.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        # the component holding the lowest open id is covered by the
        # next branch; enumerating only covers that contain it visits
        # every partition into branches exactly once
        lowbit = imask & -imask
        covers = []
        sub = imask
        while True:
            if sub & lowbit:
                covers.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & imask
        covers.sort(key=_index_tuple)
        best = None
        bestcover = None
        for cover in covers:
            got = self._branch_best(cmask, cover)
            if got is None:
                continue
            rest = self._solve(cmask, imask ^ cover)
            if rest is None:
                continue
            total = got + rest
            if best is None or total > best:
                best = total
                bestcover = cover
        self._table[key] = best
        if bestcover is not None:
            self._tchoice[key] = bestcover
        return best

    def _branch_best(self, cmask, cover):
        """Best single branch below cmask covering exactly the union of
        the components indexed by cover."""
        key = (cmask << self._ishift) | cover
        hit = self._branch.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        comps = self._components(cmask)
        region = 0
        for idx in iter_bits(cover):
            region |= comps[idx][1]
        gadj = self.gadj
        # a dropped vertex never rejoins a clique below this point, so
        # any backbone edge from it into the region could never be built
        drops = [(x, cmask ^ (1 << x))
                 for x in iter_bits(cmask) if not self.hadj[x] & region]
        best = None
        bestchoice = None
        for w in iter_bits(region):
            gw = gadj[w]
            wbit = 1 << w
            rem = region ^ wbit
            for x, basemask in drops:
                if basemask & ~gw:
                    continue
                fs = self._score(basemask, w)
                if fs is None:
                    continue
                childmask = basemask | wbit
                childimask = region_components(self._components(childmask), rem)
                sub = self._solve(childmask, childimask)
                if sub is None:
                    continue
                total = fs + sub
                if best is None or total > best:
                    best = total
                    bestchoice = (w, x, childmask, childimask)
        self._branch[key] = best
        if bestchoice is not None:
            self._bchoice[key] = bestchoice
        return best

    def solve(self) -> SolveResult:
        n, k = self.n, self.k
        best = None
        best_members = None
        best_rs = None
        for members in iter_cliques(self.gadj, k + 1):
            rs = self.oracle.root_score(members)
            if rs is None:
                continue
            rmask = mask_of(members)
            full = (1 << len(self._components(rmask))) - 1
            sub = self._solve(rmask, full)
            if sub is None:
                continue
            total = rs + sub
            if best is None or total > best:
                best = total
                best_members = members
                best_rs = rs
        if best is None:
            raise InfeasibleError(self._diagnose())
        order = self._emit(best_members)
        try:
            ktree = KTree.from_creation_order(n, k, order)
        except ValueError as exc:
            raise RuntimeError(f"solver output rejected: {exc}") from exc
        require_retaining(ktree, self.h)
        # recompute the score along the creation order so rescoring the
        # output reproduces it bit for bit
        score = _tree_score(ktree, best_rs,
                            lambda w, base: self._score(mask_of(base), w))
        if score is None:
            raise RuntimeError("forbidden score on the winning path")
        return SolveResult(ktree, score, best_rs)

    def _emit(self, members):
        k = self.k
        order = [(v, members[:j]) for j, v in enumerate(members[:k])]
        order.append((members[k], members[:k]))

        def walk(cmask, imask):
            while imask:
                cover = self._tchoice[(cmask << self._ishift) | imask]
                w, x, childmask, childimask = \
                    self._bchoice[(cmask << self._ishift) | cover]
                order.append((w, tuple(iter_bits(cmask ^ (1 << x)))))
                walk(childmask, childimask)
                imask ^= cover

        rmask = mask_of(members)
        walk(rmask, (1 << len(self._components(rmask))) - 1)
        return order

    def _diagnose(self):
        # one pass over the (k+1)-cliques marks every host pair they cover
        covered = [0] * self.n
        for members in iter_cliques(self.gadj, self.k + 1):
            cmask = mask_of(members)
            for v in members:
                covered[v] |= cmask
        for u, v in sorted(self.h.edges):
            if not covered[u] >> v & 1:
                return (f"infeasible: backbone edge ({u}, {v}) lies in no "
                        f"{self.k + 1}-clique of the host graph")
        return "infeasible: no spanning k-tree of the host graph retains the backbone"


def _index_tuple(mask):
    return tuple(iter_bits(mask))


def solve_retaining_mskt(g: UndirectedGraph, h: BackboneTree, k: int,
                         oracle: ScoreOracle) -> SolveResult:
    """Maximum-score spanning k-tree of g containing every edge of h.

    Sweeps all (k+1)-cliques of g as roots and covers the backbone
    components by the memoized dynamic program. Ties break toward the
    lexicographically smallest root clique and, within a state, the
    smallest (covered ids, pivot, drop) choice. Raises InfeasibleError
    when no retaining k-tree has a defined score.
    """
    err = validate_backbone(g, h)
    if err is not None:
        raise ValueError(f"invalid backbone: {err}")
    if not 1 <= k < g.n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={g.n}")
    return _DPSolver(g, h, k, oracle).solve()


def _tree_score(t: KTree, root_score, score):
    """root_score plus score(pivot, base) for every creation-order entry
    after the root clique, or None once any of them is forbidden."""
    if root_score is None:
        return None
    total = root_score
    for w, base in t.creation_order[t.k + 1:]:
        fs = score(w, base)
        if fs is None:
            return None
        total += fs
    return total


def _rescore(t: KTree, h: BackboneTree, oracle: ScoreOracle):
    """Root score and total score of a retaining k-tree."""
    if t.n == t.k:
        raise ValueError("k-tree equals its seed clique, nothing to score")
    require_retaining(t, h)
    rs = oracle.root_score(t.root_clique)
    return rs, _tree_score(t, rs, oracle.score)


def score_ktree(t: KTree, h: BackboneTree, oracle: ScoreOracle):
    """Total clique score of a k-tree: root score plus one pivot score
    per non-root clique. Returns None when any configuration on the
    clique tree is forbidden.

    The k-tree must be valid and must retain the backbone; n == k is
    rejected since there is no clique to score.
    """
    return _rescore(t, h, oracle)[1]


def rescore_result(t: KTree, h: BackboneTree, oracle: ScoreOracle) -> SolveResult:
    """Package an existing retaining k-tree as a SolveResult."""
    rs, total = _rescore(t, h, oracle)
    if total is None:
        raise InfeasibleError("k-tree hits a forbidden configuration")
    return SolveResult(t, total, rs)


def chow_liu(source) -> KTree:
    """Maximum pairwise-MI spanning tree of the variables, as a 1-tree.

    Kruskal over all pairs, heaviest first, ties toward the
    lexicographically smaller edge; the creation order is a
    breadth-first walk from vertex 0. The pairs share one entropy memo,
    so each variable and each pair is estimated once.
    """
    if isinstance(source, SampleMatrix):
        n = source.n
    elif isinstance(source, JointTable):
        n = source.n
        if set(source.variables) != set(range(n)):
            raise ValueError(f"source must cover variables 0..{n - 1}")
    else:
        raise TypeError(f"unsupported source type {type(source).__name__}")
    if n < 2:
        raise ValueError("need at least 2 variables")
    entropies = _Entropies(source)
    pairs = sorted((-entropies.mutual_information(u, (v,)), u, v)
                   for u in range(n) for v in range(u + 1, n))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = []
    for _, u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
            if len(edges) == n - 1:
                break
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [(0, ())]
    seen = {0}
    queue = [0]
    for cur in queue:
        for nxt in sorted(adj[cur]):
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, (cur,)))
                queue.append(nxt)
    return KTree(n, 1, {tuple(sorted(e)) for e in edges}, order)
