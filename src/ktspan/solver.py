"""Dynamic program for backbone-retaining maximum spanning k-trees.

A table state pairs a candidate clique with the region still to be
covered below it: a union of the clique's backbone components. One
branch may absorb several components at once: the k-tree under
construction is free to bridge backbone components with its own edges,
so the branch hanging off a clique covers some union of them. A table
state splits its region's components into covers, at most 2^(c-1) of
them where c is the number of components, and attaches each cover by one
branch. A branch drops a vertex x of the clique that has no backbone
edge into its cover and adds a pivot w from the cover; the pivot's
score and the child state (base plus w, cover minus w) depend only on
the base B = clique - x, not on the clique. So a base state keyed on
(B, cover) scans the pivots once, each one in the cover and adjacent to
the whole base, and every clique B + x reaching it reads its best pivot.
The child splits its region into components once, when first filled.
Neither walks the vertices or the backbone, so on hosts of bounded
degree a state costs the same at any n. Bitmask cliques,
integer-packed keys and one value per state keep the tables cheap. No
score is kept: the oracle takes the frames' vertex masks and keeps its
own cache. No choice is stored: the traceback runs the frame of each of
the n - k - 1 winning states again, which reads every child off the
memo, to recover its choice and build the creation order. One memo
keeps the component masks of every clique reached and of each prefix
they are cut from: a set's components are cut from those of the set
minus its largest vertex, down to the empty set, so besides the cliques
it holds at most n + C(n, 2) + ... + C(n, k) sets.
Every retaining k-tree has a clique holding the smallest backbone edge,
so only those cliques are swept as roots. Under an oracle that is not
root-invariant each state also keeps a rerooting value: the best total
with the root moved to a clique below it, which the same frame fills
beside its table value. Moving the root from B + x to B + w adds
root_score(B + w) - root_score(B + x) + score(x | B) - score(w | B),
so the sweep reaches every (k-tree, root) pair and solves only the
winning root's states again. k = 1 skips the DP: the backbone is the
only retaining spanning 1-tree, and one walk over its clique tree
scores every root.
Either search hands back a creation order, and one function turns it
into the result: it reports infeasibility, applies the root-invariant
reroot and rescores along the final order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InfeasibleError, InstanceTooLargeError
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
from .information import ScoreOracle, _Entropies, _check_source
from .separation import cut_components, region_components

_MISSING = object()

# most backbone components a reached clique may split off. A root state
# splits its c components into covers 2^(c-1) ways and the states below
# it split every subset again, about 3^(c-1) covers per clique, so the
# check reads the clique's actual components, not a bound from the
# backbone's degree: a path backbone at any k, or a clique leaving few
# vertices, never comes near it. Measured with unit weight products on
# star backbones in fan hosts at k = 2, where each of the n - 2
# triangles splits off n - 3 components: 13, 14, 15 and 16 components
# took 0.6, 2.2, 6.1 and 21 s, about 3x per component
_MAX_COMPONENTS = 16


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
    """One DP search; holds the memo tables, one value per state.

    Regions and covers are unions of a clique's backbone components
    written as vertex masks. _table keys table states on
    (clique << n) | region and holds the best total below the state.
    _based keys base states on (base << n) | cover and holds (best,
    pivot): the pivot breaks the drop tie of every clique reaching the
    base. _splits keys on a vertex mask the backbone components it
    leaves, as a tuple of masks: every reached clique's, and those of
    each prefix they are cut from. No score is kept: each lookup asks
    the oracle, by vertex mask. No choice is stored: _solve_frame keeps
    its winning (cover, pivot, drop) in locals and reports it only when
    the traceback asks, and the traceback runs the frame of each winning
    state again, which after a sweep finds every child in the memo.
    _rtable and _rbased key the same states as _table and _based and
    hold their rerooting values, as (total, root) with the root a
    reversed mask (vertex v at bit n - 1 - v), so of equal totals the
    larger pair holds the root clique listed first; None when no
    rerooting has a defined total.
    _solve_frame and _base_frame are generators that run as frames on
    one explicit work stack (_run): each probes the memo before asking
    for a child state, so a memo hit costs one dict lookup, and a miss
    yields the child's frame, which the stack runs to completion before
    resuming the parent. Depth is bounded by memory, not by the
    interpreter's recursion limit.
    """

    def __init__(self, g: UndirectedGraph, h: BackboneTree, k: int,
                 oracle: ScoreOracle):
        self.h = h
        self.k = k
        self.oracle = oracle
        self.n = g.n
        self.gadj = g.adj
        self.hadj = h.adj
        # per clique mask and per prefix of one the backbone components
        # it leaves (the empty set leaves the whole tree), and the cover
        # index tuples per part count; region masks are too many to keep
        self._splits = {0: ((1 << self.n) - 1,)}
        self._cover_cache = {}
        self._table = {}
        self._based = {}
        self._rtable = {}
        self._rbased = {}

    def _clique_split(self, cmask):
        """_split of a clique mask, refused past _MAX_COMPONENTS. Only a
        clique is capped: cutting a vertex that is a component on its own
        lowers the count, so a prefix may leave more components than its
        clique."""
        comps = self._split(cmask)
        if len(comps) > _MAX_COMPONENTS:
            raise InstanceTooLargeError(
                f"clique {tuple(iter_bits(cmask))} splits the backbone "
                f"into {len(comps)} components (limit {_MAX_COMPONENTS})")
        return comps

    def _split(self, mask):
        """Backbone components left by the vertices of mask, as masks
        ascending by smallest vertex: those of mask minus its largest
        vertex, cut at that vertex, and kept in _splits."""
        comps = self._splits.get(mask)
        if comps is None:
            x = mask.bit_length() - 1
            comps = self._splits[mask] = cut_components(
                self.h, self._split(mask ^ (1 << x)), x)
        return comps

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

    def _solve_frame(self, cmask, region, choice=None):
        """Fill _table for (cmask, region): the best split of the
        region's components into branches, each one base state. A
        choice list, when given, receives the winning (cover, pivot,
        drop)."""
        table = self._table
        based = self._based
        hadj = self.hadj
        n = self.n
        key = cmask << n
        comps = self._splits.get(cmask)
        if comps is None:
            comps = self._clique_split(cmask)
        parts = region_components(comps, region)
        best = None
        for idxs in self._covers(len(parts)):
            cover = 0
            for i in idxs:
                cover |= parts[i]
            # a dropped vertex never rejoins a clique below this point,
            # so any backbone edge from it into the cover could never be
            # built; ties go to the smaller pivot, then the smaller drop,
            # the clique's bits taken in ascending order
            got = None
            pending = cmask
            while pending:
                xbit = pending & -pending
                pending ^= xbit
                x = xbit.bit_length() - 1
                if hadj[x] & cover:
                    continue
                basemask = cmask ^ xbit
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
                best, bcover, bpivot, bdrop = total, cover, pivot, drop
        table[key | region] = best
        if choice is not None:
            choice += bcover, bpivot, bdrop

    def _base_frame(self, basemask, region):
        """Fill _based for (basemask, region): the best pivot w, in the
        region and adjacent to the whole base, with the child state
        (base plus w, region minus w) below it; ties go to the smaller
        w."""
        gadj = self.gadj
        common = -1
        for b in iter_bits(basemask):
            common &= gadj[b]
        score = self.oracle.score
        table = self._table
        n = self.n
        best = None
        bestw = None
        # pivots in ascending order, peeled off inline: a generator per
        # state would cost one resume per bit
        pending = region & common
        while pending:
            wbit = pending & -pending
            pending ^= wbit
            w = wbit.bit_length() - 1
            fs = score(w, basemask)
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

    def _reroot_frame(self, cmask, region):
        """Fill _table for (cmask, region) as _solve_frame does, and
        _rtable with the best total when the root moves to a clique
        strictly below cmask in the region, counting cmask's own
        attachment toward it. That root lies below one branch: dropping
        x for the base B, cmask attaches as score(x | B) on B's rerooting
        value, and the other branches keep their table totals."""
        table = self._table
        rtable = self._rtable
        based = self._based
        rbased = self._rbased
        score = self.oracle.score
        hadj = self.hadj
        n = self.n
        key = cmask << n
        comps = self._splits.get(cmask)
        if comps is None:
            comps = self._clique_split(cmask)
        parts = region_components(comps, region)
        best = moved = None
        for idxs in self._covers(len(parts)):
            cover = 0
            for i in idxs:
                cover |= parts[i]
            got = mgot = None
            pending = cmask
            while pending:
                xbit = pending & -pending
                pending ^= xbit
                x = xbit.bit_length() - 1
                if hadj[x] & cover:
                    continue
                basemask = cmask ^ xbit
                bkey = (basemask << n) | cover
                hit = based.get(bkey)
                if hit is None:
                    yield self._reroot_base_frame(basemask, cover)
                    hit = based[bkey]
                val = hit[0]
                if val is not None and (got is None or val > got):
                    got = val
                hit = rbased[bkey]
                if hit is not None:
                    fs = score(x, basemask)
                    if fs is not None:
                        cand = (fs + hit[0], hit[1])
                        if mgot is None or cand > mgot:
                            mgot = cand
            if got is None and mgot is None:
                continue
            rest = region ^ cover
            if rest:
                rkey = key | rest
                sub = table.get(rkey, _MISSING)
                if sub is _MISSING:
                    yield self._reroot_frame(cmask, rest)
                    sub = table[rkey]
                below = rtable[rkey]
            else:
                sub = 0
                below = None
            if sub is not None:
                if got is not None and (best is None or got + sub > best):
                    best = got + sub
                if mgot is not None:
                    cand = (mgot[0] + sub, mgot[1])
                    if moved is None or cand > moved:
                        moved = cand
            if got is not None and below is not None:
                cand = (got + below[0], below[1])
                if moved is None or cand > moved:
                    moved = cand
        table[key | region] = best
        rtable[key | region] = moved

    def _reroot_base_frame(self, basemask, region):
        """Fill _based for (basemask, region) as _base_frame does, and
        _rbased with the best total rooted at or below a child clique
        base plus w. A pivot forbidden on this base still counts here:
        with the root moved below, the child is no longer attached on
        it."""
        gadj = self.gadj
        common = -1
        rbase = 0
        top = self.n - 1
        for b in iter_bits(basemask):
            common &= gadj[b]
            rbase |= 1 << (top - b)
        score = self.oracle.score
        root_score = self.oracle.root_score
        table = self._table
        rtable = self._rtable
        n = self.n
        best = bestw = moved = None
        pending = region & common
        while pending:
            wbit = pending & -pending
            pending ^= wbit
            w = wbit.bit_length() - 1
            fs = score(w, basemask)
            rem = region ^ wbit
            childmask = basemask | wbit
            if rem:
                ckey = (childmask << n) | rem
                sub = table.get(ckey, _MISSING)
                if sub is _MISSING:
                    yield self._reroot_frame(childmask, rem)
                    sub = table[ckey]
                below = rtable[ckey]
            else:
                sub = 0
                below = None
            if sub is not None:
                if fs is not None and (best is None or fs + sub > best):
                    best = fs + sub
                    bestw = w
                rs = root_score(childmask)
                if rs is not None:
                    cand = (rs + sub, rbase | 1 << (top - w))
                    if moved is None or cand > moved:
                        moved = cand
            if below is not None and (moved is None or below > moved):
                moved = below
        self._based[(basemask << n) | region] = (best, bestw)
        self._rbased[(basemask << n) | region] = moved

    @staticmethod
    def _run(frame):
        """Run frame to completion on one explicit work stack: every
        child frame it yields runs before it resumes."""
        stack = [frame]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)

    def sweep(self):
        """Creation order of the best retaining k-tree, or None when no
        root has a defined score.

        Every retaining k-tree has a clique holding the smallest backbone
        edge: the edge plus a (k-1)-clique of its ends' common neighbors,
        swept in the lexicographic order iter_cliques lists them in. Each
        offers its own rooting and, under an oracle that is not
        root-invariant, its _rtable value; ties go to the root clique
        listed first, and the winner's states are then filled by
        _solve_frame for the traceback."""
        n, k = self.n, self.k
        top = n - 1
        full = (1 << n) - 1
        reroot = not self.oracle.root_invariant
        frame = self._reroot_frame if reroot else self._solve_frame
        u, v = min(self.h.edges)
        common = self.gadj[u] & self.gadj[v]
        best = None
        for c in iter_cliques(self.gadj, k - 1, common) if k > 1 else [()]:
            members = tuple(sorted((u, v, *c)))
            rmask = mask_of(members)
            rs = self.oracle.root_score(rmask)
            if rs is None and not reroot:
                continue
            region = full ^ rmask
            sub = 0
            if region:
                # a root's region holds every vertex outside it, so no
                # frame below ever asks for this state: run it unprobed
                self._run(frame(rmask, region))
                rkey = (rmask << n) | region
                sub = self._table[rkey]
                moved = self._rtable.get(rkey)
                if moved is not None and (best is None or moved > best):
                    best = moved
            if rs is not None and sub is not None:
                cand = (rs + sub, mask_of(top - x for x in members))
                if best is None or cand > best:
                    best = cand
        if best is None:
            return None
        members = tuple(sorted(top - x for x in iter_bits(best[1])))
        rmask = mask_of(members)
        if reroot and rmask != full:
            self._run(self._solve_frame(rmask, full ^ rmask))
        return self._emit(members)

    def _emit(self, members):
        n = self.n
        order = [(v, members[:j]) for j, v in enumerate(members)]
        rmask = mask_of(members)
        # depth first, each branch's subtree before the next cover of
        # its parent state: the child goes on top of the parent's rest.
        # Each winning state's frame runs again to report its choice
        stack = [(rmask, ((1 << n) - 1) ^ rmask)]
        while stack:
            cmask, region = stack.pop()
            if not region:
                continue
            choice = []
            self._run(self._solve_frame(cmask, region, choice))
            cover, w, x = choice
            basemask = cmask ^ (1 << x)
            order.append((w, tuple(iter_bits(basemask))))
            stack.append((cmask, region ^ cover))
            stack.append((basemask | (1 << w), cover ^ (1 << w)))
        return order


def _diagnose(gadj, h: BackboneTree, k: int) -> str:
    # one pass over the (k+1)-cliques marks every host pair they cover
    covered = [0] * len(gadj)
    for members in iter_cliques(gadj, k + 1):
        cmask = mask_of(members)
        for v in members:
            covered[v] |= cmask
    for u, v in sorted(h.edges):
        if not covered[u] >> v & 1:
            return (f"infeasible: backbone edge ({u}, {v}) lies in no "
                    f"{k + 1}-clique of the host graph")
    return "infeasible: no spanning k-tree of the host graph retains the backbone"


def _best_root(k: int, creation_order, oracle: ScoreOracle):
    """Root clique of the best creation order of the k-tree that
    creation_order builds, or None when every one is forbidden; ties go
    to the smallest clique. The order is trusted to be valid: callers
    pass a KTree's order or one that is validated after the walk.

    One walk over the k-tree's clique tree. A clique's parent is the
    clique in which the latest-created member of its base was created,
    and the two share that base S. Moving the root from a parent P = S + p to its
    child C = S + c takes out root_score(P) and score(c | S) and puts in
    root_score(C) and score(p | S); every other clique keeps its term.
    So each clique's sum is its parent's plus two oracle calls, kept
    relative to the first root, with a count of forbidden terms beside
    it.
    """
    score = oracle.score
    v, base = creation_order[k]
    root = tuple(sorted(base + (v,)))
    cliques = [root]
    # index of the clique each vertex was created in; the seed vertices
    # share the root
    made = dict.fromkeys(root, 0)
    # per clique, its pivot-term sum and forbidden-term count minus the
    # first root's; first_forbidden is the first root's count
    shift = [0]
    forbidden = [0]
    first_forbidden = 0
    for v, base in creation_order[k + 1:]:
        parent = max(made[b] for b in base)
        p = next(x for x in cliques[parent] if x not in base)
        bmask = mask_of(base)
        down = score(v, bmask)
        up = score(p, bmask)
        s = shift[parent]
        f = forbidden[parent]
        if down is None:
            first_forbidden += 1
            f -= 1
        else:
            s -= down
        if up is None:
            f += 1
        else:
            s += up
        made[v] = len(cliques)
        cliques.append(tuple(sorted(base + (v,))))
        shift.append(s)
        forbidden.append(f)
    best = None
    winner = None
    for clique, s, f in zip(cliques, shift, forbidden):
        if f + first_forbidden:
            continue
        rs = oracle.root_score(mask_of(clique))
        if rs is None:
            continue
        total = rs + s
        if best is None or total > best or (total == best and clique < winner):
            best = total
            winner = clique
    return winner


def _backbone_order(h: BackboneTree, root) -> list:
    """Creation order of the backbone rooted at the edge root, the order
    the DP's traceback gives it: depth first from the root edge, the
    pending subtrees of each vertex (of both root vertices, for the
    root edge) taken by their smallest vertex."""
    a, b = root
    adj = h.adj
    parent = {a: b, b: a}
    bfs = [a, b]
    seen = (1 << a) | (1 << b)
    for v in bfs:
        kids = adj[v] & ~seen
        seen |= kids
        for c in iter_bits(kids):
            parent[c] = v
            bfs.append(c)
    # smallest vertex of each subtree, folded up in reverse breadth-first
    # order; disjoint subtrees never share it, so it orders siblings
    low = list(range(h.n))
    children = [[] for _ in range(h.n)]
    for v in reversed(bfs[2:]):
        p = parent[v]
        children[p].append(v)
        if low[v] < low[p]:
            low[p] = low[v]
    order = [(a, ()), (b, (a,))]
    stack = sorted(children[a] + children[b], key=low.__getitem__, reverse=True)
    while stack:
        v = stack.pop()
        order.append((v, (parent[v],)))
        stack.extend(sorted(children[v], key=low.__getitem__, reverse=True))
    return order


def solve_retaining_mskt(g: UndirectedGraph, h: BackboneTree, k: int,
                         oracle: ScoreOracle) -> SolveResult:
    """Maximum-score spanning k-tree of g containing every edge of h.

    Sweeps the (k+1)-cliques of g holding the smallest backbone edge as
    roots and covers the backbone components by the memoized dynamic
    program; every retaining k-tree has such a clique. Unless the oracle
    is root-invariant (ScoreOracle.root_invariant), each state also
    carries the best total with the root moved below it, so every
    (k+1)-clique is weighed as a root. Ties break toward the
    lexicographically smallest root clique and, within a state, the
    smallest (covered ids, pivot, drop) choice; where totals differ only
    by rounding, the rerooting sums decide, as they do at k = 1. Under a
    root-invariant oracle the result is rooted at the k-tree's smallest
    (k+1)-clique and scored along that creation order. At k = 1 the
    only retaining spanning 1-tree is the backbone, so no DP runs: one
    walk over the backbone's edges scores every root in O(n) oracle
    calls at any backbone degree, the best root wins (the smallest edge
    on ties, the smallest backbone edge under a root-invariant oracle),
    and the backbone is emitted in the DP's order, depth first with each
    vertex's subtrees taken by their smallest vertex. Raises
    InfeasibleError when no retaining k-tree has a defined score, and at
    k >= 2 InstanceTooLargeError when a clique the search reaches from
    those roots splits the backbone into more than 16 components,
    before any of that clique's states is filled.
    """
    err = validate_backbone(g, h)
    if err is not None:
        raise ValueError(f"invalid backbone: {err}")
    if not 1 <= k < g.n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={g.n}")
    if k > 1:
        return _result(g, h, k, oracle, _DPSolver(g, h, k, oracle).sweep())
    # a retaining spanning 1-tree has n - 1 edges, so it is the backbone
    # itself, and only its root is left to choose
    root = min(h.edges)
    if not oracle.root_invariant:
        root = _best_root(1, _backbone_order(h, root), oracle)
    return _result(g, h, 1, oracle,
                   None if root is None else _backbone_order(h, root))


def _result(g: UndirectedGraph, h: BackboneTree, k: int, oracle: ScoreOracle,
            order) -> SolveResult:
    """The solve result for the creation order a search picked, None when
    it found no root with a defined score. Under a root-invariant oracle
    the k-tree is rerooted at its smallest clique, so the result does not
    depend on which of its roots the search kept; either way it is
    scored along its final creation order, so rescoring the output
    reproduces the score bit for bit."""
    if order is not None:
        try:
            ktree = KTree.from_creation_order(g.n, k, order)
        except ValueError as exc:
            raise RuntimeError(f"solver output rejected: {exc}") from exc
        if oracle.root_invariant:
            root = min(tuple(sorted(base + (w,)))
                       for w, base in ktree.creation_order[k:])
            if root != ktree.root_clique:
                ktree = reroot(ktree, root)
        rs, score = _rescore(ktree, h, oracle)
        if score is not None:
            return SolveResult(ktree, score, rs)
    raise InfeasibleError(_diagnose(g.adj, h, k))


def _rescore(t: KTree, h: BackboneTree, oracle: ScoreOracle):
    """Root score and total score of a retaining k-tree: the root score
    plus score(pivot, base) for every creation-order entry after the
    root clique. The total is None once any term is forbidden."""
    if t.n == t.k:
        raise ValueError("k-tree equals its seed clique, nothing to score")
    require_retaining(t, h)
    rs = total = oracle.root_score(mask_of(t.root_clique))
    if rs is None:
        return None, None
    for w, base in t.creation_order[t.k + 1:]:
        fs = oracle.score(w, mask_of(base))
        if fs is None:
            return rs, None
        total += fs
    return rs, total


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
    _check_source(source)
    n = source.n
    if n < 2:
        raise ValueError("need at least 2 variables")
    entropies = _Entropies(source)
    pairs = sorted((-entropies.information(1 << u, 1 << v), u, v)
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
