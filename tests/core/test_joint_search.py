"""The joint (mapping × priority) search axis.

The load-bearing fact this file proves at the digest level: sibling
contexts within a core and whole-core permutations are physics
equivalent, so the symmetry pruning in
:func:`~repro.core.candidate_mappings` evaluates one representative per
class and loses nothing. The proof (``TestSymmetryEquivalence``)
licenses the pruning; the search tests then hold pruned and unpruned
sweeps to the same winner. Proof sketch in ``docs/mapping.md``.
"""

import itertools

import pytest

from repro.core.search import (
    candidate_assignments,
    candidate_mappings,
    joint_search,
    paired_adjacent_mapping,
    paired_extremes_mapping,
    rank_pressures,
)
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import trace_digest
from repro.workloads.generators import barrier_loop_programs

WORKS = [8e8, 2.4e9, 1.2e9, 2e9]


def factory():
    return barrier_loop_programs(WORKS, iterations=2)


def _digest(system, mapping, priorities=None):
    run = system.run(
        list(factory()),
        mapping=mapping,
        priorities=priorities,
        label="joint.test",
    )
    return trace_digest(run)


def _class_of(mapping: ProcessMapping):
    """Every physics-equivalent variant of ``mapping``: swap siblings
    within each core, permute whole cores."""
    pairs = mapping.core_pairs()
    n_cores = len(pairs)
    variants = set()
    for core_order in itertools.permutations(range(n_cores)):
        for flips in itertools.product((False, True), repeat=n_cores):
            out = {}
            for slot, core_idx in enumerate(core_order):
                group = pairs[core_idx]
                for ctx, rank in enumerate(group):
                    ctx = (1 - ctx if flips[slot] else ctx) if len(group) == 2 else ctx
                    out[rank] = 2 * slot + ctx
            variants.add(tuple(sorted(out.items())))
    return [ProcessMapping(v) for v in variants]


class TestSymmetryEquivalence:
    def test_every_class_member_produces_the_same_trace_digest(self):
        """The proof: all sibling-swap/core-permutation variants of a
        mapping are bit-identical at the trace level."""
        system = System(SystemConfig())
        for representative in candidate_mappings(4, 2):
            members = _class_of(representative)
            assert len(members) == 8  # 2 cores: 2! orders x 2^2 flips
            digests = {_digest(system, m) for m in members}
            assert len(digests) == 1

    def test_classes_are_physically_distinct(self):
        """The complement: different partitions produce different
        traces (pruning collapses symmetry, not information)."""
        system = System(SystemConfig())
        digests = [_digest(system, m) for m in candidate_mappings(4, 2)]
        assert len(set(digests)) == len(digests) == 3

    def test_canonical_is_the_lexicographic_minimum_of_its_class(self):
        for n_ranks, n_cores in ((4, 2), (3, 2), (5, 3)):
            for cpus in itertools.permutations(range(2 * n_cores), n_ranks):
                mapping = ProcessMapping(tuple(enumerate(cpus)))
                lex_min = min(
                    m.rank_to_cpu for m in _class_of(mapping)
                )
                assert mapping.canonical().rank_to_cpu == lex_min


class TestCandidateMappings:
    def test_paper_chip_counts(self):
        assert len(candidate_mappings(4, 2, prune_symmetry=False)) == 24
        assert len(candidate_mappings(4, 2)) == 3

    def test_large_chip_counts(self):
        # P(8, 6) = 20160 injective assignments; 60 canonical classes.
        assert len(candidate_mappings(6, 4, prune_symmetry=False)) == 20160
        assert len(candidate_mappings(6, 4)) == 60

    def test_pruned_is_a_subset_of_unpruned(self):
        pruned = {m.rank_to_cpu for m in candidate_mappings(4, 2)}
        unpruned = {
            m.rank_to_cpu
            for m in candidate_mappings(4, 2, prune_symmetry=False)
        }
        assert pruned <= unpruned

    def test_every_survivor_is_canonical(self):
        for m in candidate_mappings(5, 3):
            assert m.is_canonical()

    def test_invalid_shapes(self):
        with pytest.raises(ConfigurationError):
            candidate_mappings(5, 2)  # more ranks than contexts
        with pytest.raises(ConfigurationError):
            candidate_mappings(0, 2)
        with pytest.raises(ConfigurationError):
            candidate_mappings(4, 0)


class TestJointSearch:
    def test_pruned_and_unpruned_find_the_same_winner(self):
        """The acceptance bar: identical best trace digest, >= 4x fewer
        candidates evaluated."""
        system = System(SystemConfig())
        pruned = joint_search(
            system, factory, 4, levels=(4, 5), max_gap=1, keep_top=1
        )
        unpruned = joint_search(
            system, factory, 4, levels=(4, 5), max_gap=1, keep_top=1,
            prune_symmetry=False,
        )
        assert unpruned.evaluated >= 4 * pruned.evaluated
        assert pruned.best_time == unpruned.best_time
        d_pruned = _digest(
            system, pruned.best.mapping, pruned.best.priority_dict
        )
        d_unpruned = _digest(
            system, unpruned.best.mapping, unpruned.best.priority_dict
        )
        assert d_pruned == d_unpruned

    def test_beats_or_ties_priority_only_search(self):
        """The joint space contains every priority-only candidate, so
        its optimum can only be at least as good."""
        system = System(SystemConfig())
        joint = joint_search(system, factory, 4, levels=(4, 5), max_gap=1)
        prio_only = joint_search(
            system, factory, 4, levels=(4, 5), max_gap=1,
            mappings=[ProcessMapping.identity(4)],
        )
        assert joint.best_time <= prio_only.best_time

    def test_explicit_mapping_shortlist(self):
        system = System(SystemConfig())
        shortlist = candidate_mappings(4, 2)[:2]
        result = joint_search(
            system, factory, 4, levels=(4,), max_gap=0, mappings=shortlist
        )
        assert result.evaluated == 2  # one MEDIUM assignment per mapping

    def test_mapping_rank_mismatch_raises(self):
        system = System(SystemConfig())
        with pytest.raises(ConfigurationError):
            joint_search(
                system, factory, 4,
                mappings=[ProcessMapping.identity(2)],
            )

    def test_stats_and_kind_recorded(self):
        system = System(SystemConfig())
        result = joint_search(system, factory, 4, levels=(4,), max_gap=0)
        assert result.stats is not None
        assert result.stats.evaluations == result.evaluated == 3


class TestRankPressures:
    def test_single_profile_orders_like_work(self):
        pressures = rank_pressures(WORKS, "hpc")
        assert sorted(range(4), key=lambda r: pressures[r]) == sorted(
            range(4), key=lambda r: WORKS[r]
        )

    def test_profile_mix_tilts_the_order(self):
        # Same work everywhere: a memory-bound profile has less decode
        # appetite than a compute-bound one, so it sinks in the order.
        pressures = rank_pressures([1e9, 1e9], ["fpu", "mem"])
        assert pressures[0] > pressures[1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            rank_pressures(WORKS, ["hpc", "dft"])


class TestPairingHeuristics:
    def test_extremes_pairs_heaviest_with_lightest(self):
        mapping = paired_extremes_mapping((4.0, 1.0, 3.0, 2.0))
        pairs = {frozenset(g) for g in mapping.core_pairs()}
        assert pairs == {frozenset((0, 1)), frozenset((2, 3))}

    def test_adjacent_pairs_like_with_like(self):
        mapping = paired_adjacent_mapping((4.0, 1.0, 3.0, 2.0))
        pairs = {frozenset(g) for g in mapping.core_pairs()}
        assert pairs == {frozenset((1, 3)), frozenset((0, 2))}

    def test_odd_rank_count_isolates_the_median(self):
        mapping = paired_extremes_mapping((1.0, 2.0, 3.0))
        groups = mapping.core_pairs()
        assert sorted(len(g) for g in groups) == [1, 2]
        lone = [g[0] for g in groups if len(g) == 1][0]
        assert lone == 1  # the median rank gets a core to itself

    def test_results_are_canonical(self):
        for pressures in ((4.0, 1.0, 3.0, 2.0), (1.0, 1.0, 1.0, 1.0)):
            assert paired_extremes_mapping(pressures).is_canonical()
            assert paired_adjacent_mapping(pressures).is_canonical()


def staged_search(system, **kwargs):
    """The staged heuristic: the joint search over the one mapping the
    decode-pressure pairing picks."""
    mapping = paired_extremes_mapping(rank_pressures(WORKS, "hpc"))
    return joint_search(system, factory, 4, mappings=[mapping], **kwargs)


class TestStagedHeuristic:
    def test_matches_exhaustive_on_its_own_mapping(self):
        """Stage two is every priority combination on the paired
        mapping, and nothing else."""
        system = System(SystemConfig())
        staged = staged_search(system, levels=(4, 5), max_gap=1)
        mapping = paired_extremes_mapping(rank_pressures(WORKS, "hpc"))
        expected = candidate_assignments(mapping, levels=(4, 5), max_gap=1)
        assert {a.mapping for a, _, _ in staged.entries} == {mapping}
        assert sorted(a.priorities for a, _, _ in staged.entries) == sorted(
            a.priorities for a in expected
        )
        assert staged.evaluated == len(expected)

    def test_never_beats_the_joint_optimum(self):
        system = System(SystemConfig())
        staged = staged_search(system, levels=(4, 5), max_gap=1)
        joint = joint_search(system, factory, 4, levels=(4, 5), max_gap=1)
        assert joint.best_time <= staged.best_time
