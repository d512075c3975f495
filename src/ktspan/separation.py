"""Separator components of the backbone tree.

Removing a candidate clique from the backbone leaves a forest. Each
connected component is a region the construction must still cover, and
is named by its smallest vertex. A branch entering a region hands its
child separator the components that partition what is left of it.
Bounded backbone degree caps how many regions a separator can create,
which is what keeps the search state space polynomial.
"""

from __future__ import annotations

from .errors import InconsistentPartitionError
from .graphs import iter_bits


def component_count_bound(degree_bound: int, k: int) -> int:
    """Most components removing k+1 vertices can leave in a tree of
    maximum degree degree_bound."""
    if degree_bound < 1 or k < 1:
        raise ValueError("need degree_bound >= 1 and k >= 1")
    return degree_bound * (k + 1) - k


def components_masks(adj, n: int, sep_mask: int):
    """Connected components after deleting sep_mask, as bitmasks.

    adj is a per-vertex neighbor bitmask list. Returns a list of
    (min_vertex, component_mask) pairs ascending by min_vertex.
    """
    remaining = ((1 << n) - 1) & ~sep_mask
    out = []
    while remaining:
        low = remaining & -remaining
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        out.append((low.bit_length() - 1, comp))
        remaining &= ~comp
    return out


def region_components(comps, region: int) -> int:
    """Index mask of the components that partition region.

    comps is a components_masks list for a child separator and region
    the backbone vertices its branch still has to cover. Every component
    meeting region must lie inside it and together they must cover it;
    anything else means the transition itself was malformed.
    """
    imask = 0
    covered = 0
    for idx, (_, m) in enumerate(comps):
        if m & region:
            imask |= 1 << idx
            covered |= m
    if covered != region:
        for cid, m in comps:
            if m & region and m & ~region:
                raise InconsistentPartitionError(
                    f"component {cid} {tuple(iter_bits(m))} straddles the "
                    f"region boundary")
        raise InconsistentPartitionError(
            f"region vertices {tuple(iter_bits(region & ~covered))} are "
            f"unreachable")
    return imask
