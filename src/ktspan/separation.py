"""Separator components of the backbone tree.

Removing a candidate clique from the backbone leaves a forest. Each
connected component is a region the construction must still cover, and
is named by its smallest vertex. A state's region is a union of such
components; region_components splits it back into them. Bounded
backbone degree caps how many regions a separator can create, which is
what keeps the search state space polynomial.

Components are cut, never searched for. cut_components takes the
components left by some vertex set and removes one more vertex x: the
component holding x falls apart into the subtrees of x's children and
the rest on x's parent's side, all read off the subtree masks of the
backbone rooted at vertex 0. So a cut costs a number of mask operations
bounded by the backbone degree and the component count, not by n. The
solver cuts each clique's components from those of its base, and
components_masks folds the cuts over a separator from the whole tree.
All three functions raise ValueError on malformed input.
"""

from __future__ import annotations

from .graphs import BackboneTree, iter_bits


def cut_components(h: BackboneTree, comps, x: int) -> tuple:
    """The components comps leaves once vertex x is removed as well.

    comps holds the components of the backbone tree h minus some vertex
    set, as masks ascending by smallest vertex; the one holding x is
    replaced by its pieces: with the tree rooted at vertex 0, the part
    of each child's subtree inside it and the part outside x's subtree,
    on the parent's side. Returns the masks ascending by smallest vertex
    as a tuple. h must be a spanning tree, and x must lie in one of
    comps: ValueError names the problem otherwise.
    """
    sub = h.subtree_masks()
    xbit = 1 << x
    for i, comp in enumerate(comps):
        if comp & xbit:
            break
    else:
        raise ValueError(f"vertex {x} lies in no component")
    below = sub[x]
    out = list(comps)
    del out[i]
    up = comp & ~below
    if up:
        out.append(up)
    for c in iter_bits(h.adj[x] & below & comp):
        out.append(comp & sub[c])
    out.sort(key=lambda m: m & -m)
    return tuple(out)


def components_masks(h: BackboneTree, sep_mask: int) -> tuple:
    """Connected components of the backbone tree h after deleting the
    vertices of sep_mask, as bitmasks.

    Returns the masks ascending by smallest vertex as a tuple, the
    format cut_components takes and returns. h must be a spanning tree
    and sep_mask a set of its vertices: ValueError names the problem
    otherwise. The components are the whole tree cut at each separator
    vertex in turn, so a call costs O((k+1) * (degree + components))
    mask operations whatever n is.
    """
    h.subtree_masks()  # a non-tree fails here even with no separator
    if sep_mask >> h.n:
        raise ValueError(f"separator names a vertex outside 0..{h.n - 1}")
    comps = ((1 << h.n) - 1,)
    for s in iter_bits(sep_mask):
        comps = cut_components(h, comps, s)
    return comps


def region_components(comps, region: int) -> tuple:
    """The components that partition region, as masks ascending by
    smallest vertex.

    comps holds the masks of a clique's components, smallest vertex
    first, and region the backbone vertices its state still has to
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
