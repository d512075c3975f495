"""Core graph types: host graphs, backbone trees, and k-trees.

Vertices are integers 0..n-1 and undirected edges are stored as
(min, max) tuples. A k-tree is carried around together with a creation
order that witnesses its recursive construction: lay down a k-clique
seed, then attach each further vertex to an existing k-clique.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import InstanceTooLargeError, NotRetainingError

# most vertices a graph may have; per-vertex bitmasks grow with n, so a
# larger n is refused before anything is sized by it
MAX_VERTICES = 1 << 14


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_is_clique(adj, mask: int) -> bool:
    """Whether the vertices of mask are pairwise adjacent; adj is a
    per-vertex neighbor bitmask list, and a vertex past its end is
    adjacent to none."""
    if mask >> len(adj):
        return False
    rest = mask
    while rest:
        bit = rest & -rest
        if mask & ~adj[bit.bit_length() - 1] != bit:
            return False
        rest ^= bit
    return True


def iter_bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_cliques(adj, size: int, within: int | None = None):
    """Yield every clique of `size` vertices as an ascending tuple, in
    lexicographic order, among the vertices of the mask `within` (all
    vertices when None).

    adj is a per-vertex neighbor bitmask list. Each prefix is extended
    only by the common neighbors of its members above its last vertex
    (Chiba & Nishizeki 1985), so non-cliques are never enumerated.
    """
    if size < 1:
        raise ValueError(f"clique size must be positive, got {size}")

    def extend():
        prefix = []
        # stack[i] holds the candidates still open for position i; an
        # explicit stack, since size may exceed the recursion limit
        stack = [(1 << len(adj)) - 1 if within is None else within]
        while stack:
            cand = stack[-1]
            if cand.bit_count() < size - len(prefix):
                # too few candidates left to complete any clique here
                stack.pop()
                if prefix:
                    prefix.pop()
                continue
            low = cand & -cand
            cand ^= low
            stack[-1] = cand
            v = low.bit_length() - 1
            if len(prefix) + 1 == size:
                yield (*prefix, v)
            else:
                prefix.append(v)
                stack.append(cand & adj[v])

    return extend()


def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class UndirectedGraph:
    """Simple undirected graph with optional finite edge weights.

    Adjacency is kept as one bitmask per vertex; the solvers lean on
    that for fast neighborhood intersections. An n above MAX_VERTICES
    raises InstanceTooLargeError before the edges are read.
    """

    __slots__ = ("n", "edges", "weights", "adj")

    def __init__(self, n: int, edges, weights=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise InstanceTooLargeError(
                f"n={n} is above the vertex limit {MAX_VERTICES}")
        self.n = n
        self.edges = frozenset(normalize_edge(u, v) for u, v in edges)
        for u, v in self.edges:
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        self.adj = _adjacency(n, self.edges)
        if weights is None:
            self.weights = None
        else:
            wnorm = {}
            for (u, v), w in weights.items():
                e = normalize_edge(u, v)
                if e not in self.edges:
                    raise ValueError(f"weight on non-edge {e}")
                w = float(w)
                if not math.isfinite(w):
                    raise ValueError(f"non-finite weight {w} on edge {e}")
                wnorm[e] = w
            self.weights = wnorm

    @staticmethod
    def complete(n: int, weights=None) -> "UndirectedGraph":
        # lazy pairs: combinations would build a tuple of range(n) before
        # the constructor checks n
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        return UndirectedGraph(n, pairs, weights)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_clique(self, vertices) -> bool:
        vs = tuple(vertices)
        mask = mask_of(vs)
        return mask.bit_count() == len(vs) and mask_is_clique(self.adj, mask)


class BackboneTree(UndirectedGraph):
    """Spanning tree whose edges the k-tree is required to keep; an
    unweighted UndirectedGraph.

    degree_bound is the largest vertex degree the tree may use, None
    means unbounded. The constructor only checks vertex ranges; use
    validate_backbone to verify tree shape against a host graph.
    """

    __slots__ = ("degree_bound", "_subtrees")

    def __init__(self, n: int, edges, degree_bound=None):
        super().__init__(n, edges)
        self.degree_bound = degree_bound
        self._subtrees = None

    def subtree_masks(self) -> tuple:
        """sub[v], the vertex mask of v's subtree with the tree rooted at
        vertex 0; v's children are then adj[v] & sub[v].

        Built on the first call and kept. Raises ValueError naming the
        problem when the edges do not form a spanning tree.
        """
        if self._subtrees is None:
            n, adj = self.n, self.adj
            if len(self.edges) != n - 1:
                raise ValueError(
                    f"backbone has {len(self.edges)} edges, expected {n - 1}")
            # breadth-first from vertex 0; parents precede children in
            # order, so one reverse pass folds each subtree into its parent
            order = [0]
            parent = [0] * n
            seen = 1
            for v in order:
                kids = adj[v] & ~seen
                seen |= kids
                for c in iter_bits(kids):
                    parent[c] = v
                    order.append(c)
            if len(order) != n:
                raise ValueError("backbone is not connected")
            sub = [1 << v for v in range(n)]
            for v in reversed(order[1:]):
                sub[parent[v]] |= sub[v]
            self._subtrees = tuple(sub)
        return self._subtrees


def path_backbone(n: int, degree_bound: int = 2) -> BackboneTree:
    """The path 0-1-...-(n-1)."""
    return BackboneTree(n, [(i, i + 1) for i in range(n - 1)], degree_bound)


def validate_backbone(g: UndirectedGraph, h: BackboneTree):
    """Check that h is a spanning tree of g within its degree bound.

    Returns None when valid, otherwise a message describing the first
    problem found. Raises ValueError when the vertex counts disagree,
    that is an instance mismatch rather than a bad backbone.
    """
    if g.n != h.n:
        raise ValueError(f"vertex count mismatch: host n={g.n}, backbone n={h.n}")
    for u, v in sorted(h.edges):
        if (u, v) not in g.edges:
            return f"backbone edge ({u}, {v}) not in host graph"
    try:
        h.subtree_masks()
    except ValueError as exc:
        return str(exc)
    if h.degree_bound is not None:
        for v in range(h.n):
            d = h.degree(v)
            if d > h.degree_bound:
                return f"degree {d} > {h.degree_bound} at vertex {v}"
    return None


class KTree:
    """A k-tree plus a creation order witnessing its construction.

    creation_order is a tuple of (vertex, base) pairs. The first k
    entries lay down the seed clique, entry j attaching to the j
    earlier seed vertices, and every later entry attaches a new vertex
    to an existing k-clique. The constructor runs validate_ktree and
    raises ValueError on any violation, so every KTree that exists is
    a valid k-tree whose edge set its creation order replays. Equality
    and hashing ignore the creation order: two k-trees are equal iff
    n, k, and the edge set agree.
    """

    __slots__ = ("n", "k", "edges", "creation_order", "_hash")

    def __init__(self, n: int, k: int, edges, creation_order):
        self.n = n
        self.k = k
        self.edges = frozenset(normalize_edge(u, v) for u, v in edges)
        self.creation_order = tuple((v, tuple(sorted(base)))
                                    for v, base in creation_order)
        self._hash = None
        err = validate_ktree(self)
        if err is not None:
            raise ValueError(f"invalid k-tree: {err}")

    @classmethod
    def from_creation_order(cls, n: int, k: int, creation_order) -> "KTree":
        """Build a KTree whose edge set is replayed from the order."""
        edges = set()
        for v, base in creation_order:
            for b in base:
                edges.add(normalize_edge(v, b))
        return cls(n, k, edges, creation_order)

    @property
    def root_clique(self):
        """Sorted vertex tuple of the first (k+1)-clique laid down, or
        None when n == k. Every later creation-order entry (pivot, base)
        adds one more clique, base + (pivot,)."""
        if self.n <= self.k:
            return None
        v, base = self.creation_order[self.k]
        return tuple(sorted(base + (v,)))

    def __eq__(self, other):
        if not isinstance(other, KTree):
            return NotImplemented
        return (self.n, self.k, self.edges) == (other.n, other.k, other.edges)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.k, self.edges))
        return self._hash

    def __repr__(self):
        return f"KTree(n={self.n}, k={self.k}, edges={len(self.edges)})"


def validate_ktree(t: KTree):
    """Check the creation order witnesses a k-tree with t's edge set.

    Returns None when valid, otherwise a message describing the first
    violation found. KTree's constructor runs this check, so it holds
    for every constructed KTree.
    """
    n, k = t.n, t.k
    if not 1 <= k <= n:
        return f"need 1 <= k <= n, got k={k}, n={n}"
    expected = k * (k - 1) // 2 + k * (n - k)
    if len(t.edges) != expected:
        return f"edge count {len(t.edges)} != {expected} for n={n}, k={k}"
    if len(t.creation_order) != n:
        return f"creation order lists {len(t.creation_order)} vertices, expected {n}"
    if sorted(v for v, _ in t.creation_order) != list(range(n)):
        return "creation order is not a permutation of the vertices"
    created = set()
    edges = set()
    for i, (v, base) in enumerate(t.creation_order):
        bset = set(base)
        if len(bset) != len(base):
            return f"vertex {v} has a repeated attachment vertex"
        if i < k:
            # seed precursors nest: each seed vertex sees all earlier ones
            if bset != created:
                return (f"seed vertex {v} must attach to all {i} earlier seed "
                        f"vertices, got {base}")
        else:
            if len(bset) != k:
                return f"vertex {v} attaches to {len(bset)} vertices, expected {k}"
            if not bset <= created:
                return f"vertex {v} attaches to a not-yet-created vertex"
            for a, b in itertools.combinations(base, 2):
                if normalize_edge(a, b) not in edges:
                    return f"attachment set {base} of vertex {v} is not a clique"
        for b in bset:
            edges.add(normalize_edge(v, b))
        created.add(v)
    if edges != t.edges:
        return "edge set does not match the replayed creation order"
    return None


def retains(t: KTree, h: BackboneTree) -> bool:
    """True when every backbone edge appears in the k-tree."""
    return h.edges <= t.edges


def require_retaining(t: KTree, h: BackboneTree):
    if t.n != h.n:
        raise ValueError(f"vertex count mismatch: k-tree n={t.n}, backbone n={h.n}")
    if not retains(t, h):
        u, v = min(h.edges - t.edges)
        raise NotRetainingError(f"backbone edge ({u}, {v}) missing from k-tree")


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Clique tree of a k-tree, one node per (k+1)-clique.

    Nodes are sorted vertex tuples in creation order, root first. parent
    maps each node to its parent (None for the root): the node created
    by the latest-created member of the node's attachment set, which is
    the earliest node containing that set. pivot maps each node to the
    vertex whose attachment created it; for the root that is the first
    vertex attached after the seed.
    """

    nodes: tuple
    root: tuple
    parent: dict
    pivot: dict


def build_tree_decomposition(t: KTree) -> TreeDecomposition:
    if t.n <= t.k:
        raise ValueError("k-tree has no (k+1)-cliques, decomposition undefined")
    root = t.root_clique
    nodes = [root]
    parent = {root: None}
    pivot = {root: t.creation_order[t.k][0]}
    # vertex -> index of the node its attachment created; the seed
    # vertices share the root
    made = dict.fromkeys(root, 0)
    for v, base in t.creation_order[t.k + 1:]:
        node = tuple(sorted(base + (v,)))
        # the latest-created member of base saw all the others when it
        # was attached, so its node is the earliest one containing base
        parent[node] = nodes[max(made[b] for b in base)]
        pivot[node] = v
        made[v] = len(nodes)
        nodes.append(node)
    return TreeDecomposition(tuple(nodes), root, parent, pivot)


def reroot(t: KTree, root) -> KTree:
    """Rewrite t's creation order to start from the (k+1)-clique on the
    given vertices, which may come in any order.

    The edge set is untouched. Vertices outside the target root are
    stripped one at a time, always the smallest of alive degree k, then
    replayed in reverse on top of the root seed. In a k-tree a vertex of
    degree k is simplicial, and any (k+1)-clique can act as root, so a
    stall means the input was malformed. Raises ValueError when root is
    not k+1 distinct vertices of t forming a clique.
    """
    root = tuple(sorted(root))
    if len(root) != t.k + 1:
        raise ValueError(f"root needs {t.k + 1} vertices, got {len(root)}")
    for a, b in zip(root, root[1:]):
        if a == b:
            raise ValueError(f"repeated vertex {a} in root")
    if not all(0 <= v < t.n for v in root):
        raise ValueError("root vertex out of range")
    adj = _adjacency(t.n, t.edges)
    for u, v in itertools.combinations(root, 2):
        if not adj[u] >> v & 1:
            raise ValueError(f"root is not a clique: missing edge ({u}, {v})")
    alive = (1 << t.n) - 1
    rmask = mask_of(root)
    degree = [m.bit_count() for m in adj]
    # non-root vertices of alive degree k, ascending; the vertex list is
    # already a heap
    ready = [v for v in range(t.n) if degree[v] == t.k and not rmask >> v & 1]
    strips = []
    while alive != rmask:
        if not ready:
            raise ValueError("rerooting stalled, no simplicial vertex outside root")
        v = heapq.heappop(ready)
        alive ^= 1 << v
        nbs = tuple(iter_bits(adj[v] & alive))
        strips.append((v, nbs))
        for u in nbs:
            degree[u] -= 1
            if degree[u] == t.k and not rmask >> u & 1:
                heapq.heappush(ready, u)
    order = [(v, root[:j]) for j, v in enumerate(root)]
    order.extend(reversed(strips))
    return KTree(t.n, t.k, t.edges, order)
