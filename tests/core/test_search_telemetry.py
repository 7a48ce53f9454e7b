"""Search telemetry: one record per search call, under the call's kind.

Each of the three strategies publishes exactly one
``repro_search_seconds`` observation per call, and its
``repro_search_*_total`` counters move by exactly the returned
:class:`~repro.core.SearchStats` — a two-level search is one call, not
a placement search plus one search per node.
"""

import pytest

from repro.core import greedy_priority_search, joint_search, two_level_search
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.telemetry import MetricRegistry, set_default_registry
from repro.workloads.generators import (
    barrier_loop_programs,
    distant_pairs_programs,
)

WORKS = [1e9, 3e9, 2e9, 4e9]


def chip_factory():
    return barrier_loop_programs(WORKS, iterations=1)


def cluster_factory():
    return distant_pairs_programs(WORKS, iterations=1, exchange_bytes=1_000_000)


SEARCHES = {
    "joint": lambda: joint_search(
        System(SystemConfig()), chip_factory, 4, levels=(4, 5), max_gap=1
    ),
    "two-level": lambda: two_level_search(
        System(SystemConfig(n_nodes=2)), cluster_factory, n_ranks=4,
        n_nodes=2, levels=(4, 5), max_gap=1,
    ),
    "greedy": lambda: greedy_priority_search(
        System(SystemConfig()), chip_factory, ProcessMapping.identity(4),
        levels=(4, 5), max_gap=1, max_steps=2,
    ),
}


@pytest.fixture()
def registry():
    fresh = MetricRegistry()
    previous = set_default_registry(fresh)
    try:
        yield fresh
    finally:
        set_default_registry(previous)


def _by_kind(registry, name):
    metric = registry.snapshot().get(name)
    if metric is None:
        return {}
    return {s["labels"]["kind"]: s for s in metric["samples"]}


@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_one_record_per_call_under_its_kind(registry, kind):
    result = SEARCHES[kind]()
    stats = result.stats
    assert stats.evaluations == len(result.entries)  # every stage counted

    seconds = _by_kind(registry, "repro_search_seconds")
    assert set(seconds) == {kind}
    assert seconds[kind]["count"] == 1

    expected = {
        "repro_search_evaluations_total": stats.evaluations,
        "repro_search_cache_hits_total": stats.cache_hits,
        "repro_search_cache_misses_total": stats.cache_misses,
    }
    for name, value in expected.items():
        samples = _by_kind(registry, name)
        assert set(samples) == {kind}, name
        assert samples[kind]["value"] == value, name

