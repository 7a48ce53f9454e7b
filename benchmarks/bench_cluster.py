"""Cluster placement search: node-symmetry pruning, proven and priced.

Two experiments, results in ``benchmarks/results/BENCH_cluster.json``:

*Equivalence* — 4 ranks on a 4-node cluster, where the node-symmetry
cut bites hardest: 4^4 = 256 raw placements collapse to 15 canonical
classes (17x, comfortably past the 4x acceptance bar). Both the pruned
and the unpruned two-level sweeps are fully simulated and the winners'
trace digests must be bit-identical — pruning collapses symmetry, not
information (the canonical-form argument lives in
``docs/cluster.md``; the unit-level proof in
``tests/core/test_placement.py``).

*Differential* — the distant-neighbour acceptance case: 8 ranks on 2
nodes whose partners sit half the ring away, so the identity layout
puts every exchange on the wire. The two-level (placement -> per-node
priority) search must beat the best priority-only assignment on the
default layout, and the gap is recorded.
"""

import json
import pathlib
import time

from repro.machine.system import System, SystemConfig
from repro.core import candidate_placements, two_level_search
from repro.scenarios.engines import trace_digest
from repro.workloads.generators import distant_pairs_programs

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_cluster.json"
)

SMALL_WORKS = [1.0e9, 2.6e9, 1.4e9, 3.0e9]
LARGE_WORKS = [1.0e9, 2.6e9, 1.4e9, 3.0e9, 1.8e9, 2.2e9, 1.2e9, 2.8e9]
EXCHANGE_BYTES = 16_000_000


def small_factory():
    return distant_pairs_programs(
        SMALL_WORKS, iterations=2, exchange_bytes=EXCHANGE_BYTES
    )


def large_factory():
    return distant_pairs_programs(
        LARGE_WORKS, iterations=2, exchange_bytes=EXCHANGE_BYTES
    )


def _record(update: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    results: dict = {}
    if RESULTS_PATH.exists():
        try:
            results = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            results = {}
    results.update(update)
    RESULTS_PATH.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def _cluster(n_nodes: int) -> System:
    return System(SystemConfig(n_nodes=n_nodes))


def _best_digest(system, factory, result) -> str:
    assignment, _, _ = result.entries[0]
    run = system.run(
        list(factory()),
        mapping=assignment.mapping,
        priorities=assignment.priority_dict,
        label="bench.cluster.best",
    )
    return trace_digest(run)


def test_pruned_matches_unpruned_best_digest():
    """Acceptance: same winner physics, >= 4x fewer placements."""
    system = _cluster(4)
    placements_pruned = candidate_placements(4, 4)
    placements_total = candidate_placements(4, 4, prune_symmetry=False)
    ratio = len(placements_total) / len(placements_pruned)

    t0 = time.perf_counter()
    pruned = two_level_search(
        system, small_factory, n_ranks=4, n_nodes=4,
        levels=(4, 5, 6), max_gap=2, keep_top=1,
    )
    pruned_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    unpruned = two_level_search(
        system, small_factory, n_ranks=4, n_nodes=4,
        levels=(4, 5, 6), max_gap=2, keep_top=1, prune_symmetry=False,
    )
    unpruned_s = time.perf_counter() - t0

    pruned_digest = _best_digest(system, small_factory, pruned)
    unpruned_digest = _best_digest(system, small_factory, unpruned)

    assert pruned_digest == unpruned_digest
    assert pruned.entries[0][1] == unpruned.entries[0][1]
    assert ratio >= 4.0

    _record({
        "equivalence": {
            "n_ranks": 4,
            "n_nodes": 4,
            "levels": [4, 5, 6],
            "max_gap": 2,
            "placements_pruned": len(placements_pruned),
            "placements_unpruned": len(placements_total),
            "placement_ratio": ratio,
            "pruned_candidates": pruned.stats.evaluations,
            "unpruned_candidates": unpruned.stats.evaluations,
            "pruned_s": pruned_s,
            "unpruned_s": unpruned_s,
            "candidates_per_s": pruned.stats.evaluations / pruned_s,
            "best_time_s": pruned.entries[0][1],
            "best_trace_digest": pruned_digest,
            "digests_identical": pruned_digest == unpruned_digest,
        },
    })


def test_two_level_beats_priority_only_on_distant_pairs():
    """Acceptance: opening the placement axis beats priority-only
    tuning on the default (identity, maximally network-crossing)
    layout."""
    system = _cluster(2)
    identity = ((0, 1, 2, 3), (4, 5, 6, 7))

    priority_only = two_level_search(
        system, large_factory, n_ranks=8, n_nodes=2,
        levels=(4, 5, 6), max_gap=2, keep_top=1, placements=[identity],
    )

    t0 = time.perf_counter()
    full = two_level_search(
        system, large_factory, n_ranks=8, n_nodes=2,
        levels=(4, 5, 6), max_gap=2, keep_top=1,
    )
    full_s = time.perf_counter() - t0

    best_full = full.entries[0][1]
    best_priority_only = priority_only.entries[0][1]
    assert best_full < best_priority_only

    _record({
        "differential": {
            "n_ranks": 8,
            "n_nodes": 2,
            "exchange_bytes": EXCHANGE_BYTES,
            "levels": [4, 5, 6],
            "max_gap": 2,
            "priority_only_best_s": best_priority_only,
            "two_level_best_s": best_full,
            "gain_percent": (
                (best_priority_only - best_full) / best_priority_only * 100.0
            ),
            "evaluated_candidates": full.stats.evaluations,
            "sweep_s": full_s,
            "candidates_per_s": full.stats.evaluations / full_s,
        },
    })
