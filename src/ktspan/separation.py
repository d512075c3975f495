"""Separator components of the backbone tree.

Removing a candidate clique from the backbone leaves a forest. Each
connected component is a region the construction must still cover, and
is named by its smallest vertex. A branch entering a region hands its
child separator the components that partition what is left of it.
Bounded backbone degree caps how many regions a separator can create,
which is what keeps the search state space polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentPartitionError
from .graphs import BackboneTree, Clique, iter_bits, mask_of


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


@dataclass(frozen=True, eq=False)
class ComponentMap:
    """Components of the backbone minus a separator.

    components are frozensets ordered by smallest member. A component
    is named by its smallest vertex; ids maps that canonical id to the
    component's index in the components tuple.
    """

    separator: Clique
    components: tuple
    ids: dict

    def component_of(self, cid: int) -> frozenset:
        return self.components[self.ids[cid]]


def separate(h: BackboneTree, sep: Clique) -> ComponentMap:
    """Split the backbone by removing the separator's vertices."""
    for v in sep:
        if not 0 <= v < h.n:
            raise ValueError(f"separator vertex {v} out of range for n={h.n}")
    comps = components_masks(h.adj, h.n, mask_of(sep))
    ids = {cid: i for i, (cid, _) in enumerate(comps)}
    return ComponentMap(sep, tuple(frozenset(iter_bits(m)) for _, m in comps), ids)


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
