"""Dynamic program for backbone-retaining maximum spanning k-trees.

A table state pairs a candidate clique with the region still to be
covered below it: a union of the clique's backbone components. One
branch may absorb several components at once: the k-tree under
construction is free to bridge backbone components with its own edges,
so the branch hanging off a clique covers some union of them. A table
state splits its region's components into covers, at most 2^(c-1) of
them where c is component_count_bound, and attaches each cover by one
branch. A branch drops a vertex x of the clique that has no backbone
edge into its cover and adds a pivot w from the cover; the pivot's
score and the child state (base plus w, cover minus w) depend only on
the base B = clique - x, not on the clique. So a base state keyed on
(B, cover) scans the pivots once, each one in the cover and adjacent to
the whole base, and every clique B + x reaching it reads its best pivot.
The child splits its region into components once, when first filled.
Neither walks the vertices or the backbone, so on hosts of bounded
degree a state costs the same at any n. Bitmask cliques and
integer-packed keys keep the tables cheap; traceback replays winning
choices into a creation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InconsistentPartitionError, InfeasibleError
from .graphs import (
    BackboneTree,
    KTree,
    UndirectedGraph,
    iter_bits,
    iter_cliques,
    mask_of,
    require_retaining,
    reroot,
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
    """One solve run; holds the memo tables and the traceback choices.

    Regions and covers are unions of a clique's backbone components
    written as vertex masks. _table and _tchoice key table states on
    (clique << n) | region; _tchoice holds the winning (cover, pivot,
    drop). _based keys base states on (base << n) | cover and holds
    (best, pivot). _solve_frame and _base_frame are generators that run
    as frames on one explicit work stack (_fill): each probes the memo
    before asking for a child state, so a memo hit costs one dict
    lookup, and a miss yields the child's frame, which the stack runs to
    completion before resuming the parent. Depth is bounded by memory,
    not by the interpreter's recursion limit.
    """

    def __init__(self, g: UndirectedGraph, h: BackboneTree, k: int,
                 oracle: ScoreOracle):
        self.h = h
        self.k = k
        self.oracle = oracle
        self.n = g.n
        self.gadj = g.adj
        self.hadj = h.adj
        self._bound = component_count_bound(max(h.max_degree(), 1), k)
        # score-memo keys pack (base mask, pivot) with the pivot in the
        # low bits, which must hold every vertex id
        self._pshift = self.n.bit_length()
        self._comp_cache = {}
        # iter_bits tuples of clique masks, and the cover index tuples
        # per part count; region masks are too many to keep
        self._bits = {}
        self._cover_cache = {}
        self._table = {}
        self._tchoice = {}
        self._based = {}
        self._scores = {}

    def _components(self, cmask):
        comps = self._comp_cache.get(cmask)
        if comps is None:
            comps = components_masks(self.h, cmask)
            if len(comps) > self._bound:
                raise InconsistentPartitionError(
                    f"{len(comps)} backbone components exceed bound {self._bound}")
            self._comp_cache[cmask] = comps
        return comps

    def _bits_of(self, mask):
        bits = self._bits.get(mask)
        if bits is None:
            bits = self._bits[mask] = tuple(iter_bits(mask))
        return bits

    def _covers(self, count):
        """Index tuples of the covers holding part 0 of a region split
        into count parts, in lexicographic order."""
        covers = self._cover_cache.get(count)
        if covers is None:
            # the part holding the region's smallest vertex is covered by
            # the next branch; enumerating only covers that contain it
            # visits every partition into branches exactly once
            covers = self._cover_cache[count] = tuple(sorted(
                (0,) + rest for size in range(count)
                for rest in combinations(range(1, count), size)))
        return covers

    def _score(self, basemask, w):
        key = (basemask << self._pshift) | w
        val = self._scores.get(key, _MISSING)
        if val is _MISSING:
            val = self.oracle.score(w, tuple(iter_bits(basemask)))
            self._scores[key] = val
        return val

    def _fill(self, cmask, region):
        """Best score covering region below cmask, with every state it
        depends on memoized."""
        if not region:
            return 0
        key = (cmask << self.n) | region
        hit = self._table.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        stack = [self._solve_frame(cmask, region)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
        return self._table[key]

    def _solve_frame(self, cmask, region):
        """Fill _table for (cmask, region): the best split of the
        region's components into branches, each one base state."""
        table = self._table
        based = self._based
        hadj = self.hadj
        n = self.n
        members = self._bits_of(cmask)
        key = cmask << n
        parts = region_components(self._components(cmask), region)
        best = None
        choice = None
        for idxs in self._covers(len(parts)):
            cover = 0
            for i in idxs:
                cover |= parts[i]
            # a dropped vertex never rejoins a clique below this point,
            # so any backbone edge from it into the cover could never be
            # built; ties go to the smaller pivot, then the smaller drop
            got = None
            for x in members:
                if hadj[x] & cover:
                    continue
                basemask = cmask ^ (1 << x)
                bkey = (basemask << n) | cover
                hit = based.get(bkey)
                if hit is None:
                    yield self._base_frame(basemask, cover)
                    hit = based[bkey]
                val, w = hit
                if val is not None and (got is None or val > got
                                        or (val == got and w < pivot)):
                    got, pivot, drop = val, w, x
            if got is None:
                continue
            rest = region ^ cover
            if rest:
                rkey = key | rest
                sub = table.get(rkey, _MISSING)
                if sub is _MISSING:
                    yield self._solve_frame(cmask, rest)
                    sub = table[rkey]
                if sub is None:
                    continue
            else:
                sub = 0
            total = got + sub
            if best is None or total > best:
                best = total
                choice = (cover, pivot, drop)
        table[key | region] = best
        if choice is not None:
            self._tchoice[key | region] = choice

    def _base_frame(self, basemask, region):
        """Fill _based for (basemask, region): the best pivot w, in the
        region and adjacent to the whole base, with the child state
        (base plus w, region minus w) below it; ties go to the smaller
        w."""
        gadj = self.gadj
        common = -1
        for b in iter_bits(basemask):
            common &= gadj[b]
        table = self._table
        scores = self._scores
        n = self.n
        skey = basemask << self._pshift
        best = None
        bestw = None
        # pivots in ascending order, peeled off inline: a generator per
        # state would cost one resume per bit
        pending = region & common
        while pending:
            wbit = pending & -pending
            pending ^= wbit
            w = wbit.bit_length() - 1
            fs = scores.get(skey | w, _MISSING)
            if fs is _MISSING:
                fs = self._score(basemask, w)
            if fs is None:
                continue
            rem = region ^ wbit
            if rem:
                childmask = basemask | wbit
                ckey = (childmask << n) | rem
                sub = table.get(ckey, _MISSING)
                if sub is _MISSING:
                    yield self._solve_frame(childmask, rem)
                    sub = table[ckey]
                if sub is None:
                    continue
            else:
                sub = 0
            total = fs + sub
            if best is None or total > best:
                best = total
                bestw = w
        self._based[(basemask << n) | region] = (best, bestw)

    def solve(self) -> SolveResult:
        n, k = self.n, self.k
        oracle = self.oracle
        roots = iter_cliques(self.gadj, k + 1)
        if oracle.root_invariant:
            # every retaining k-tree has a clique holding this edge, and
            # every root of a k-tree gives it the same score
            u, v = min(self.h.edges)
            roots = (c for c in roots if u in c and v in c)
        best = None
        best_members = None
        best_rs = None
        for members in roots:
            rs = oracle.root_score(members)
            if rs is None:
                continue
            rmask = mask_of(members)
            sub = self._fill(rmask, ((1 << n) - 1) ^ rmask)
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
        if oracle.root_invariant:
            # the winner may come from any swept root; report it rooted
            # at its smallest clique so the result does not depend on
            # which root the sweep kept
            root = min(tuple(sorted(base + (w,)))
                       for w, base in ktree.creation_order[k:])
            if root != ktree.root_clique:
                ktree = reroot(ktree, root)
                best_rs = oracle.root_score(root)
        # recompute the score along the creation order so rescoring the
        # output reproduces it bit for bit
        score = _tree_score(ktree, best_rs,
                            lambda w, base: self._score(mask_of(base), w))
        if score is None:
            raise RuntimeError("forbidden score on the winning path")
        return SolveResult(ktree, score, best_rs)

    def _emit(self, members):
        n, k = self.n, self.k
        order = [(v, members[:j]) for j, v in enumerate(members[:k])]
        order.append((members[k], members[:k]))
        rmask = mask_of(members)
        # depth first, each branch's subtree before the next cover of
        # its parent state: the child goes on top of the parent's rest
        stack = [(rmask, ((1 << n) - 1) ^ rmask)]
        while stack:
            cmask, region = stack.pop()
            if not region:
                continue
            cover, w, x = self._tchoice[(cmask << n) | region]
            basemask = cmask ^ (1 << x)
            order.append((w, tuple(iter_bits(basemask))))
            stack.append((cmask, region ^ cover))
            stack.append((basemask | (1 << w), cover ^ (1 << w)))
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


def solve_retaining_mskt(g: UndirectedGraph, h: BackboneTree, k: int,
                         oracle: ScoreOracle) -> SolveResult:
    """Maximum-score spanning k-tree of g containing every edge of h.

    Sweeps all (k+1)-cliques of g as roots and covers the backbone
    components by the memoized dynamic program. Ties break toward the
    lexicographically smallest root clique and, within a state, the
    smallest (covered ids, pivot, drop) choice. Under a root-invariant
    oracle (ScoreOracle.root_invariant) only the roots holding the
    smallest backbone edge are swept, and the result is rooted at the
    k-tree's smallest (k+1)-clique and scored along that creation
    order. Raises InfeasibleError when no retaining k-tree has a
    defined score.
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
