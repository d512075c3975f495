"""Separator components of the backbone tree.

Removing a candidate clique from the backbone leaves a forest. Each
connected component is a region the construction must still cover, and
is named by its smallest vertex. A state's region is a union of such
components; region_components splits it back into them. Both raise
ValueError on malformed input. Bounded backbone degree caps how many
regions a separator can create, which is what keeps the search state
space polynomial. Components are read off the subtree masks of the
backbone rooted at vertex 0, so splitting at a separator costs a number
of mask operations bounded by its size and the backbone degree, not by n.
"""

from __future__ import annotations

from .graphs import BackboneTree, iter_bits


def components_masks(h: BackboneTree, sep_mask: int):
    """Connected components of the backbone tree h after deleting the
    vertices of sep_mask, as bitmasks.

    Returns a list of (min_vertex, component_mask) pairs ascending by
    min_vertex. h must be a spanning tree and sep_mask a set of its
    vertices: ValueError names the problem otherwise. With the tree
    rooted at vertex 0, each component hangs from one top, vertex 0 or
    a child of a separator vertex, and is the top's subtree minus the
    subtrees of the separator vertices below it, so a call costs
    O((k+1) * degree) mask operations whatever n is.
    """
    sub = h.subtree_masks()
    if sep_mask >> h.n:
        raise ValueError(f"separator names a vertex outside 0..{h.n - 1}")
    adj = h.adj
    seps = tuple(iter_bits(sep_mask))
    tops = 1
    for s in seps:
        tops |= adj[s] & sub[s]
    tops &= ~sep_mask
    out = []
    for t in iter_bits(tops):
        comp = sub[t]
        for s in seps:
            if comp >> s & 1:
                comp &= ~sub[s]
        out.append(((comp & -comp).bit_length() - 1, comp))
    out.sort()
    return out


def region_components(comps, region: int) -> tuple:
    """The components that partition region, as masks ascending by
    smallest vertex.

    comps holds the masks of a clique's components_masks list, in its
    order, and region the backbone vertices its state still has to
    cover. Every component meeting region must lie inside it and
    together they must cover it; anything else means the transition
    itself was malformed, and the ValueError names the component by its
    smallest vertex.
    """
    parts = []
    covered = 0
    for m in comps:
        if m & region:
            parts.append(m)
            covered |= m
    if covered != region:
        for m in comps:
            if m & region and m & ~region:
                raise ValueError(
                    f"component {(m & -m).bit_length() - 1} "
                    f"{tuple(iter_bits(m))} straddles the region boundary")
        raise ValueError(
            f"region vertices {tuple(iter_bits(region & ~covered))} are "
            f"unreachable")
    return tuple(parts)
