"""Backbone separation: components, their count, and how a child
separator partitions the region its branch enters."""

import itertools

import numpy as np
import pytest

from ktspan import BackboneTree, path_backbone
from ktspan.generate import random_backbone
from ktspan.graphs import iter_bits, mask_of
from ktspan.separation import components_masks, region_components


def star5():
    # center 2 over vertices 0..4
    return BackboneTree(5, [(0, 2), (1, 2), (2, 3), (2, 4)], 4)


def components(h, sep):
    """Vertex set of each component of h minus sep, in the order
    components_masks lists them."""
    return [set(iter_bits(m)) for m in components_masks(h, mask_of(sep))]


def test_separate_path_interior():
    assert components(path_backbone(5), (1, 2)) == [{0}, {3, 4}]


def test_separate_path_endpoints():
    assert components(path_backbone(5), (0, 4)) == [{1, 2, 3}]


def test_separate_star_center():
    assert components(star5(), (2, 0)) == [{1}, {3}, {4}]


def test_components_masks_named_by_minimum():
    h = path_backbone(6)
    # a tuple of masks, ascending by smallest vertex
    assert components_masks(h, 0b001100) == (0b000011, 0b110000)
    assert components_masks(h, 0b010010) == (0b000001, 0b001100, 0b100000)


def bfs_components(h, sep_mask):
    """Reference split: breadth-first search from the smallest vertex
    left, over the whole backbone, one component at a time."""
    remaining = ((1 << h.n) - 1) & ~sep_mask
    out = ()
    while remaining:
        low = remaining & -remaining
        comp = frontier = low
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= h.adj[v]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        out += (comp,)
        remaining &= ~comp
    return out


def relabelled(h, rng):
    perm = [int(v) for v in rng.permutation(h.n)]
    return BackboneTree(h.n, [(perm[u], perm[v]) for u, v in h.edges],
                        h.degree_bound)


def test_components_masks_match_bfs_on_random_backbones():
    rng = np.random.default_rng(2024)
    for trial in range(320):
        n = int(rng.integers(2, 301)) if trial % 4 else int(rng.integers(2, 9))
        h = random_backbone(n, int(rng.integers(2, 5)), rng)
        if trial % 2:
            h = relabelled(h, rng)
        leaves = [v for v in range(n) if h.degree(v) == 1]
        u, v = sorted(h.edges)[int(rng.integers(n - 1))]
        size = int(rng.integers(1, min(4, n) + 1))
        seps = [
            {0},
            {int(leaves[int(rng.integers(len(leaves)))])},
            {u, v},
            {0, u, v},
            set(leaves[:size]),
            {0, *leaves[:size - 1]},
            {int(x) for x in rng.choice(n, size=size, replace=False)},
        ]
        for sep in seps:
            sep_mask = mask_of(sep)
            assert components_masks(h, sep_mask) == bfs_components(h, sep_mask)


@pytest.mark.parametrize("edges, n, message", [
    ([(0, 1), (1, 2), (3, 4)], 5, "backbone has 3 edges, expected 4"),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, "backbone has 4 edges, expected 3"),
    # n - 1 edges: a triangle and a separate path
    ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], 6, "backbone is not connected"),
], ids=["forest", "cycle", "disconnected"])
def test_components_masks_refuses_a_non_tree(edges, n, message):
    with pytest.raises(ValueError, match=message):
        components_masks(BackboneTree(n, edges), 0b1)


def test_components_masks_refuses_a_separator_outside_the_tree():
    with pytest.raises(ValueError, match=r"outside 0\.\.4"):
        components_masks(path_backbone(5), 0b100001)
    with pytest.raises(ValueError, match=r"outside 0\.\.4"):
        components_masks(path_backbone(5), -1)


def child_ids(h, child, region, pivot):
    """Ids of the components of h minus child that partition region
    minus the pivot, via region_components."""
    comps = components_masks(h, mask_of(child))
    parts = region_components(comps, mask_of(region) & ~(1 << pivot))
    return frozenset((m & -m).bit_length() - 1 for m in parts)


def test_region_components_path_examples():
    h = path_backbone(5)
    assert child_ids(h, (1, 2, 3), {3, 4}, 3) == frozenset({4})
    h6 = path_backbone(6)
    assert child_ids(h6, (2, 3, 4), {4, 5}, 4) == frozenset({5})


def test_region_components_singleton_region():
    assert child_ids(path_backbone(4), (1, 2, 3), {3}, 3) == frozenset()


def test_region_components_union_region():
    """A branch may take over several components at once; the child ids
    then partition the union minus the pivot."""
    h = star5()
    # {3, 4} are two components of H - {1, 2}, bridged below
    assert child_ids(h, (2, 3), {3, 4}, 3) == frozenset({4})


def test_region_components_mask_tuple():
    # removing {2, 3} from the path 0..6 leaves {0, 1} and {4, 5, 6}
    comps = components_masks(path_backbone(7), 0b0001100)
    assert region_components(comps, 0b1110000) == (0b1110000,)
    assert region_components(comps, 0b1110011) == (0b0000011, 0b1110000)
    assert region_components(comps, 0) == ()


def test_region_components_straddle_is_rejected():
    # star center 0: dropping the center strands its far leaves, the
    # resulting component crosses the region boundary
    h = BackboneTree(5, [(0, 1), (0, 2), (0, 3), (0, 4)], 4)
    with pytest.raises(ValueError, match="straddles"):
        child_ids(h, (1, 2, 3), {3, 4}, 3)


def test_region_components_unreachable_region_is_rejected():
    # the region names a separator vertex, which no component holds
    h = path_backbone(5)
    with pytest.raises(ValueError, match=r"\(2,\) are unreachable"):
        child_ids(h, (1, 2), {2, 3, 4, 0}, 0)


def test_separation_bound_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 14))
        h = random_backbone(n, d, rng)
        sep = [int(v) for v in rng.choice(n, size=k + 1, replace=False)]
        comps = components(h, sep)
        # removing k+1 vertices from a tree leaves 1 - (k+1) plus their
        # degrees minus the edges among them, at most d(k+1) - k
        assert len(comps) <= d * (k + 1) - k
        # components partition the leftover vertices
        assert set().union(*comps) == set(range(n)) - set(sep)
