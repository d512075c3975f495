"""Independent checks of ktspan's outputs.

Nothing here imports ktspan: every reference value is recomputed from
the inputs with plain Python and numpy, so a fault in the package cannot
hide in its own check. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def replay_ktree(n, k, root, attachments, backbone, edges=None, host=None):
    """Replay a k-tree from its root clique and (pivot, base) list.

    Checks that every attachment extends a k-clique by a new vertex,
    that all n vertices are created, that the edge count is the one of
    a k-tree, that the listed edge set (when given) is the replayed one,
    that every edge is a host edge (when the host is given) and that
    every backbone edge is kept. Returns the (k+1)-cliques, root first.
    """
    root = tuple(sorted(root))
    require(len(set(root)) == k + 1, f"root {root} is not {k + 1} distinct vertices")
    created = set(root)
    have = {tuple(e) for e in itertools.combinations(root, 2)}
    cliques = [root]
    for pivot, base in attachments:
        base = tuple(sorted(base))
        require(pivot not in created, f"vertex {pivot} is created twice")
        require(len(set(base)) == k and created.issuperset(base),
                f"vertex {pivot} attaches to {base}, not {k} created vertices")
        require(all(e in have for e in itertools.combinations(base, 2)),
                f"attachment set {base} of vertex {pivot} is not a clique")
        have.update((min(pivot, b), max(pivot, b)) for b in base)
        created.add(pivot)
        cliques.append(tuple(sorted(base + (pivot,))))
    require(created == set(range(n)), f"k-tree covers {len(created)} of {n} vertices")
    expected = k * (k - 1) // 2 + k * (n - k)
    require(len(have) == expected, f"{len(have)} edges, a {k}-tree on {n} vertices has {expected}")
    if edges is not None:
        require({(min(u, v), max(u, v)) for u, v in edges} == have,
                "listed edges differ from the replayed clique list")
    if host is not None:
        stray = sorted(have - host)
        require(not stray, f"edge {stray[0] if stray else None} is not a host edge")
    missing = sorted(set(backbone) - have)
    require(not missing, f"backbone edge {missing[0] if missing else None} is missing")
    return cliques


def result_file_ktree(obj, n, backbone, host=None):
    """Replay the k-tree of a result JSON object; returns (k, root, attachments, cliques)."""
    k = int(obj["k"])
    root = tuple(int(v) for v in obj["root"])
    attachments = [(int(c["pivot"]), tuple(int(b) for b in c["base"]))
                   for c in obj["cliques"]]
    cliques = replay_ktree(n, k, root, attachments, backbone, obj["edges"], host)
    return k, root, attachments, cliques


def creation_order_ktree(n, k, creation_order, edges, backbone):
    """Replay a k-tree given as a creation order (seed vertices first)."""
    order = list(creation_order)
    root = tuple(v for v, _ in order[:k + 1])
    attachments = [(v, tuple(base)) for v, base in order[k + 1:]]
    cliques = replay_ktree(n, k, root, attachments, backbone, edges)
    return root, attachments, cliques


def require_close(got, want, what, rel=1e-9, abs_tol=1e-9):
    require(math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol),
            f"{what}: got {got!r}, independent value {want!r}")


def require_at_least(got, floor, what, tol=1e-9):
    require(got >= floor - tol * max(1.0, abs(floor)),
            f"{what}: {got!r} is below the reference construction's {floor!r}")


def weight_product_score(cliques, weights):
    """Sum over cliques of the product of their pair weights."""
    total = 0.0
    for c in cliques:
        prod = 1.0
        for e in itertools.combinations(c, 2):
            prod *= weights[e]
        total += prod
    return total


def table_score(root, attachments, root_scores, pivot_scores):
    """Root score plus one pivot score per attachment, from the tables."""
    total = root_scores.get(tuple(sorted(root)))
    require(total is not None, f"root {sorted(root)} has no score")
    for pivot, base in attachments:
        s = pivot_scores.get((pivot, tuple(sorted(base))))
        require(s is not None, f"attachment of {pivot} to {sorted(base)} has no score")
        total += s
    return total


class SampleEntropy:
    """Plug-in joint entropies (bits) of column subsets of a sample matrix,
    from counts of distinct rows."""

    def __init__(self, data):
        self.data = np.asarray(data)
        self._memo = {}

    def __call__(self, subset):
        key = tuple(sorted(subset))
        if not key:
            return 0.0
        val = self._memo.get(key)
        if val is None:
            _, counts = np.unique(self.data[:, key], axis=0, return_counts=True)
            p = counts / self.data.shape[0]
            val = self._memo[key] = float(-(p * np.log2(p)).sum())
        return val

    def mi_score(self, root, attachments):
        """Total correlation of the root plus I(pivot; base) per attachment."""
        total = sum(self((v,)) for v in root) - self(root)
        for pivot, base in attachments:
            total += self((pivot,)) + self(base) - self(tuple(base) + (pivot,))
        return total


def joint_kl(joint, root, attachments):
    """D(p || p_T) = sum_v H(X_v | X_base(v)) - H(X) for the k-tree T,
    with entropies (bits) of marginals of the dense joint array p."""
    p = np.asarray(joint)
    n = p.ndim

    def h(subset):
        keep = set(subset)
        marg = p.sum(axis=tuple(a for a in range(n) if a not in keep)) if keep else np.ones(1)
        q = marg.ravel()
        q = q[q > 0]
        return float(-(q * np.log2(q)).sum())

    order = [(v, tuple(root[:j])) for j, v in enumerate(root)] + list(attachments)
    return sum(h(base + (v,)) - h(base) for v, base in order) - h(range(n))


def backbone_parents(n, backbone, start=0):
    """Breadth-first order and parent map of the backbone from start."""
    adj = [[] for _ in range(n)]
    for u, v in backbone:
        adj[u].append(v)
        adj[v].append(u)
    parent = {start: None}
    order = [start]
    for cur in order:
        for nxt in sorted(adj[cur]):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
    require(len(order) == n, "backbone is not spanning")
    return order, parent


def parent_grandparent_2tree(n, backbone):
    """A retaining 2-tree: each vertex joins its backbone parent and
    grandparent, and children of the start vertex join it and its first
    child. Needs the host to hold every distance-2 pair of the backbone.
    Returns (root, attachments)."""
    order, parent = backbone_parents(n, backbone)
    first = order[1]
    attachments = []
    for v in order[2:]:
        p = parent[v]
        attachments.append((v, (p, first) if p == order[0] else (p, parent[p])))
    root = (order[0], first) + (attachments[0][0],)
    return root, attachments[1:]


def best_backbone_rooting(n, backbone, root_scores, pivot_scores):
    """Exact optimum at k=1: the retaining 1-tree is the backbone, so
    only the root edge is free. Rooting at vertex a gives D(a), the sum
    of score(v | parent) over v != a; moving the root across an edge
    (a, b) swaps score(b | a) for score(a | b)."""
    order, parent = backbone_parents(n, backbone)
    down = {order[0]: sum(pivot_scores[(v, (parent[v],))] for v in order[1:])}
    for v in order[1:]:
        p = parent[v]
        down[v] = down[p] - pivot_scores[(v, (p,))] + pivot_scores[(p, (v,))]
    best = None
    for u, v in backbone:
        # seed u, then v joins u: v's own attachment is the root's score
        total = root_scores[(min(u, v), max(u, v))] + down[u] - pivot_scores[(v, (u,))]
        best = total if best is None else max(best, total)
    return best
