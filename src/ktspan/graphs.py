"""Core graph types: host graphs, backbone trees, and k-trees.

Vertices are integers 0..n-1 and undirected edges are stored as
(min, max) tuples. A k-tree is carried around together with a creation
order that witnesses its recursive construction: lay down a k-clique
seed, then attach each further vertex to an existing k-clique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotRetainingError


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_cliques(adj, size: int):
    """Yield every clique of `size` vertices as an ascending tuple, in
    lexicographic order.

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
        stack = [(1 << len(adj)) - 1]
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


@dataclass(frozen=True)
class Clique:
    """A set of mutually adjacent vertices, stored as a sorted tuple."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, *vertices) -> "Clique":
        if len(vertices) == 1 and not isinstance(vertices[0], int):
            vertices = tuple(vertices[0])
        members = tuple(sorted(vertices))
        for a, b in zip(members, members[1:]):
            if a == b:
                raise ValueError(f"repeated vertex {a} in clique")
        return cls(members)

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, v) -> bool:
        return v in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class UndirectedGraph:
    """Simple undirected graph with optional edge weights.

    Adjacency is kept as one bitmask per vertex; the solvers lean on
    that for fast neighborhood intersections.
    """

    __slots__ = ("n", "edges", "weights", "adj")

    def __init__(self, n: int, edges, weights=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
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
                wnorm[e] = float(w)
            self.weights = wnorm

    @classmethod
    def complete(cls, n: int, weights=None) -> "UndirectedGraph":
        return cls(n, itertools.combinations(range(n), 2), weights)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def is_clique(self, vertices) -> bool:
        return all(self.adj[u] >> v & 1
                   for u, v in itertools.combinations(tuple(vertices), 2))

    def weight(self, u: int, v: int):
        """Weight of the edge, or None when absent or unweighted."""
        if self.weights is None:
            return None
        return self.weights.get(normalize_edge(u, v))


class BackboneTree:
    """Spanning tree whose edges the k-tree is required to keep.

    degree_bound is the largest vertex degree the tree may use, None
    means unbounded. The constructor only checks vertex ranges; use
    validate_backbone to verify tree shape against a host graph.
    """

    __slots__ = ("n", "edges", "degree_bound", "adj")

    def __init__(self, n: int, edges, degree_bound=None):
        self.n = n
        self.edges = frozenset(normalize_edge(u, v) for u, v in edges)
        for u, v in self.edges:
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        self.degree_bound = degree_bound
        self.adj = _adjacency(n, self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)


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
    if len(h.edges) != h.n - 1:
        return f"backbone has {len(h.edges)} edges, expected {h.n - 1}"
    if h.n > 0:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= h.adj[v]
            frontier = nxt & ~seen
            seen |= nxt
        if seen != (1 << h.n) - 1:
            return "backbone is not connected"
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
        """First (k+1)-clique laid down, or None when n == k."""
        if self.n <= self.k:
            return None
        v, base = self.creation_order[self.k]
        return Clique.of(base + (v,))

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

    nodes follows the creation order with the root first. parent maps
    each clique to its parent (None for the root): the earliest clique
    containing the node's attachment set. pivot maps each clique to the
    vertex whose attachment created it; for the root that is the first
    vertex attached after the seed.
    """

    nodes: tuple
    root: Clique
    parent: dict
    pivot: dict


def build_tree_decomposition(t: KTree) -> TreeDecomposition:
    if t.n <= t.k:
        raise ValueError("k-tree has no (k+1)-cliques, decomposition undefined")
    nodes = []
    parent = {}
    pivot = {}
    for v, base in t.creation_order[t.k:]:
        node = Clique.of(base + (v,))
        if not nodes:
            parent[node] = None
        else:
            bset = set(base)
            # exists for any valid k-tree: the clique created by the
            # latest member of base contains all of base
            parent[node] = next(c for c in nodes if bset <= c.member_set)
        pivot[node] = v
        nodes.append(node)
    return TreeDecomposition(tuple(nodes), nodes[0], parent, pivot)


def reroot(t: KTree, root: Clique) -> KTree:
    """Rewrite t's creation order to start from the given (k+1)-clique.

    The edge set is untouched. Simplicial vertices outside the target
    root are stripped one at a time (smallest first), then replayed in
    reverse on top of the root seed. Any (k+1)-clique of a k-tree can
    act as root, so a stall means the input was malformed.
    """
    if len(root) != t.k + 1:
        raise ValueError(f"root needs {t.k + 1} vertices, got {len(root)}")
    if not all(0 <= v < t.n for v in root):
        raise ValueError("root vertex out of range")
    adj = _adjacency(t.n, t.edges)
    for u, v in itertools.combinations(root.members, 2):
        if not adj[u] >> v & 1:
            raise ValueError(f"root is not a clique: missing edge ({u}, {v})")
    alive = (1 << t.n) - 1
    rmask = mask_of(root.members)
    strips = []
    while alive != rmask:
        for v in iter_bits(alive & ~rmask):
            nb = adj[v] & alive & ~(1 << v)
            if nb.bit_count() != t.k:
                continue
            nbs = tuple(iter_bits(nb))
            if all(adj[a] >> b & 1 for a, b in itertools.combinations(nbs, 2)):
                strips.append((v, nbs))
                alive ^= 1 << v
                break
        else:
            raise ValueError("rerooting stalled, no simplicial vertex outside root")
    order = [(v, root.members[:j]) for j, v in enumerate(root.members[:t.k])]
    order.append((root.members[t.k], root.members[:t.k]))
    order.extend(reversed(strips))
    return KTree(t.n, t.k, t.edges, order)
