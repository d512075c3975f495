"""Backbone separation: components, their bound, and how a child
separator partitions the region its branch enters."""

import itertools

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    Clique,
    component_count_bound,
    path_backbone,
    separate,
)
from ktspan.errors import InconsistentPartitionError
from ktspan.generate import random_backbone
from ktspan.graphs import iter_bits, mask_of
from ktspan.separation import components_masks, region_components


def star5():
    # center 2 over vertices 0..4
    return BackboneTree(5, [(0, 2), (1, 2), (2, 3), (2, 4)], 4)


def test_component_count_bound_values():
    assert component_count_bound(2, 2) == 4
    assert component_count_bound(1, 1) == 1
    assert component_count_bound(3, 3) == 9
    with pytest.raises(ValueError):
        component_count_bound(0, 2)
    with pytest.raises(ValueError):
        component_count_bound(2, 0)


def test_separate_path_interior():
    cm = separate(path_backbone(5), Clique.of(1, 2))
    assert cm.components == (frozenset({0}), frozenset({3, 4}))
    assert set(cm.ids) == {0, 3}
    assert cm.component_of(3) == frozenset({3, 4})


def test_separate_path_endpoints():
    cm = separate(path_backbone(5), Clique.of(0, 4))
    assert cm.components == (frozenset({1, 2, 3}),)
    assert set(cm.ids) == {1}


def test_separate_star_center():
    cm = separate(star5(), Clique.of(2, 0))
    assert cm.components == (frozenset({1}), frozenset({3}), frozenset({4}))


def test_separate_out_of_range():
    with pytest.raises(ValueError):
        separate(path_backbone(4), Clique.of(2, 5))


def test_components_masks_named_by_minimum():
    h = path_backbone(6)
    comps = components_masks(h.adj, 6, 0b001100)  # remove {2, 3}
    assert comps == [(0, 0b000011), (4, 0b110000)]
    # ids come out ascending
    assert [cid for cid, _ in comps] == sorted(cid for cid, _ in comps)


def child_ids(h, child, region, pivot):
    """Ids of the components of h minus child that partition region
    minus the pivot, via region_components."""
    comps = components_masks(h.adj, h.n, mask_of(child))
    imask = region_components(comps, mask_of(region) & ~(1 << pivot))
    return frozenset(comps[idx][0] for idx in iter_bits(imask))


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


def test_region_components_index_mask():
    # removing {2, 3} from the path 0..6 leaves {0, 1} and {4, 5, 6}
    comps = components_masks(path_backbone(7).adj, 7, 0b0001100)
    assert region_components(comps, 0b1110000) == 0b10
    assert region_components(comps, 0b1110011) == 0b11
    assert region_components(comps, 0) == 0


def test_region_components_straddle_is_rejected():
    # star center 0: dropping the center strands its far leaves, the
    # resulting component crosses the region boundary
    h = BackboneTree(5, [(0, 1), (0, 2), (0, 3), (0, 4)], 4)
    with pytest.raises(InconsistentPartitionError, match="straddles"):
        child_ids(h, (1, 2, 3), {3, 4}, 3)


def test_region_components_unreachable_region_is_rejected():
    # the region names a separator vertex, which no component holds
    h = path_backbone(5)
    with pytest.raises(InconsistentPartitionError, match=r"\(2,\) are unreachable"):
        child_ids(h, (1, 2), {2, 3, 4, 0}, 0)


def test_separation_bound_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 14))
        h = random_backbone(n, d, rng)
        sep = rng.choice(n, size=k + 1, replace=False)
        cm = separate(h, Clique.of(*(int(v) for v in sep)))
        assert len(cm.components) <= component_count_bound(d, k)
        # components partition the leftover vertices
        rest = set(range(n)) - set(int(v) for v in sep)
        assert set().union(*cm.components) == rest
