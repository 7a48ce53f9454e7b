"""The placement axis: canonical forms, enumeration, two-level search."""

import itertools

import pytest

from repro.core import (
    candidate_placements,
    canonical_placement,
    placement_mapping,
    two_level_search,
)
from repro.errors import ConfigurationError
from repro.machine.system import System, SystemConfig
from repro.workloads.generators import distant_pairs_programs

WORKS = [1.0e9, 2.6e9, 1.4e9, 3.0e9, 1.8e9, 2.2e9, 1.2e9, 2.8e9]


# 16 MB exchanges over the uniform network's 250 MB/s: the crossing
# cost is large enough that co-locating partners dominates priority
# tuning — the regime the placement axis exists for. (At a few MB the
# axes trade off and the greedy placement-first order can lose to a
# well-prioritised identity layout.)
def factory():
    return distant_pairs_programs(
        WORKS, iterations=2, exchange_bytes=16_000_000
    )


class TestCanonicalPlacement:
    def test_sorts_groups_with_empties_last(self):
        raw = ((), (2, 3), (0, 1))
        assert canonical_placement(raw) == ((0, 1), (2, 3), ())

    def test_idempotent(self):
        for raw in itertools.permutations([(1, 3), (0, 2), ()]):
            once = canonical_placement(tuple(raw))
            assert canonical_placement(once) == once

    def test_two_level_sorts_within_switch_blocks(self):
        # 4 nodes, 2 per switch: swapping the two switches' blocks is a
        # symmetry, but moving a group between switches is not.
        raw = ((2,), (3,), (0,), (1,))
        assert canonical_placement(raw, nodes_per_switch=2) == (
            (0,), (1,), (2,), (3,),
        )


class TestCandidatePlacements:
    def test_four_ranks_four_nodes_counts(self):
        pruned = candidate_placements(4, 4)
        full = candidate_placements(4, 4, prune_symmetry=False)
        assert len(full) == 256
        assert len(pruned) == 15
        assert len(full) / len(pruned) >= 4

    def test_eight_ranks_two_nodes_counts(self):
        assert len(candidate_placements(8, 2)) == 35
        assert len(candidate_placements(8, 2, prune_symmetry=False)) == 70

    def test_pruned_set_is_the_canonical_subset(self):
        full = candidate_placements(4, 2, prune_symmetry=False)
        pruned = set(candidate_placements(4, 2))
        assert pruned == {
            p for p in full if canonical_placement(p) == p
        }
        # Every orbit is represented: canonicalising the full set hits
        # exactly the pruned set.
        assert {canonical_placement(p) for p in full} == pruned

    def test_capacity_respected(self):
        for placement in candidate_placements(8, 2, cpus_per_node=4):
            assert all(len(group) <= 4 for group in placement)

    def test_over_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_placements(9, 2, cpus_per_node=4)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_placements(0, 2)
        with pytest.raises(ConfigurationError):
            candidate_placements(4, 0)


class TestPlacementMapping:
    def test_global_cpu_addressing(self):
        # Ranks are packed in sorted order onto each node's lowest CPUs:
        # within-node order is not part of the placement's identity.
        mapping = placement_mapping(((1, 0), (3, 2)), cpus_per_node=4)
        assert mapping.as_dict() == {0: 0, 1: 1, 2: 4, 3: 5}

    def test_empty_nodes_skipped(self):
        mapping = placement_mapping(((0, 1), (), (2,)), cpus_per_node=4)
        assert mapping.as_dict() == {0: 0, 1: 1, 2: 8}


class TestTwoLevelSearch:
    @pytest.fixture()
    def system(self):
        return System(SystemConfig(n_nodes=2))

    def test_pruned_and_unpruned_agree_on_the_winner(self, system):
        kwargs = dict(
            n_ranks=8, n_nodes=2, levels=(4, 5), max_gap=2, keep_top=1
        )
        pruned = two_level_search(
            system, factory, prune_symmetry=True, **kwargs
        )
        full = two_level_search(
            system, factory, prune_symmetry=False, **kwargs
        )
        p_best, p_time, _ = pruned.entries[0]
        f_best, f_time, _ = full.entries[0]
        assert p_time == f_time
        assert p_best.mapping.rank_to_cpu == f_best.mapping.rank_to_cpu
        assert p_best.priorities == f_best.priorities
        assert pruned.stats.evaluations < full.stats.evaluations

    def test_beats_priority_only_on_distant_pairs(self, system):
        """The acceptance differential: on the distant-neighbour
        workload, opening the placement axis beats the best
        priority-only assignment under the default (identity) layout."""
        kwargs = dict(
            n_ranks=8, n_nodes=2, levels=(4, 5, 6), max_gap=2, keep_top=1
        )
        identity = ((0, 1, 2, 3), (4, 5, 6, 7))
        priority_only = two_level_search(
            system, factory, placements=[identity], **kwargs
        )
        full = two_level_search(system, factory, **kwargs)
        assert full.entries[0][1] < priority_only.entries[0][1]
