"""Joint (mapping × priority) search: symmetry pruning, proven and priced.

Two experiments, results in ``benchmarks/results/BENCH_joint_search.json``:

*Equivalence* — on the paper chip (4 ranks, 2 cores) the pruned and the
unpruned joint sweeps are both fully simulated. The acceptance bar
rides along as assertions: the two winners' trace digests must be
bit-identical (pruning never changes the physics the search returns —
the digest-level equivalence proof lives in
``tests/core/test_joint_search.py``) while the pruned sweep evaluates
at least 4x fewer candidates (measured: 8x — 24 mappings collapse to 3
canonical classes).

*Scale* — the shape where pruning stops being a nicety: 6 ranks on a
4-core chip. The unpruned mapping axis alone is P(8, 6) = 20,160
injective assignments (336x the 60 canonical classes); crossed with
the per-core priority space the unpruned sweep would be ~1.5 × 10^7
candidates. The pruned sweep — 43,740 candidates, comfortably past
10^4 — is actually run and timed, and the pruning ratios are recorded.
"""

import json
import pathlib
import time

from repro.core import candidate_assignments, candidate_mappings, joint_search
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import trace_digest
from repro.smt.chip import ChipConfig
from repro.workloads.generators import barrier_loop_programs

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_joint_search.json"
)

SMALL_WORKS = [8e8, 2.4e9, 1.2e9, 2e9]
LARGE_WORKS = [1e9, 2.5e9, 1.5e9, 3e9, 8e8, 2e9]


def small_factory():
    return barrier_loop_programs(SMALL_WORKS, iterations=2)


def large_factory():
    return barrier_loop_programs(LARGE_WORKS, iterations=2)


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


def _best_digest(system, factory, result) -> str:
    best = result.best
    run = system.run(
        list(factory()),
        mapping=best.mapping,
        priorities=best.priority_dict,
        label="bench.joint.best",
    )
    return trace_digest(run)


def test_pruned_matches_unpruned_best_digest():
    """Acceptance: same winner physics, >= 4x fewer candidates."""
    system = System(SystemConfig())

    t0 = time.perf_counter()
    pruned = joint_search(
        system, small_factory, 4, levels=(4, 5, 6), max_gap=2, keep_top=1
    )
    pruned_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    unpruned = joint_search(
        system, small_factory, 4, levels=(4, 5, 6), max_gap=2, keep_top=1,
        prune_symmetry=False,
    )
    unpruned_s = time.perf_counter() - t0

    pruned_digest = _best_digest(system, small_factory, pruned)
    unpruned_digest = _best_digest(system, small_factory, unpruned)
    ratio = unpruned.evaluated / pruned.evaluated

    assert pruned_digest == unpruned_digest
    assert pruned.best_time == unpruned.best_time
    assert ratio >= 4.0

    _record({
        "equivalence": {
            "n_ranks": 4,
            "n_cores": 2,
            "levels": [4, 5, 6],
            "max_gap": 2,
            "pruned_candidates": pruned.evaluated,
            "unpruned_candidates": unpruned.evaluated,
            "candidate_ratio": ratio,
            "pruned_s": pruned_s,
            "unpruned_s": unpruned_s,
            "best_time_s": pruned.best_time,
            "best_trace_digest": pruned_digest,
            "digests_identical": pruned_digest == unpruned_digest,
        },
    })


def test_large_sweep_past_ten_thousand_candidates():
    """The 10^4-candidate sweep: 6 ranks / 4 cores, pruned, timed."""
    system = System(SystemConfig(chip=ChipConfig(n_cores=4)))

    mappings_pruned = candidate_mappings(6, 4)
    mappings_total = candidate_mappings(6, 4, prune_symmetry=False)
    unpruned_candidates = sum(
        len(candidate_assignments(m, (4, 5, 6), 2)) for m in mappings_total
    )

    t0 = time.perf_counter()
    result = joint_search(
        system, large_factory, 6, levels=(4, 5, 6), max_gap=2,
        keep_top=5,
    )
    elapsed = time.perf_counter() - t0

    assert result.evaluated >= 10_000
    assert len(mappings_total) / len(mappings_pruned) >= 4.0

    _record({
        "scale": {
            "n_ranks": 6,
            "n_cores": 4,
            "levels": [4, 5, 6],
            "max_gap": 2,
            "mappings_pruned": len(mappings_pruned),
            "mappings_unpruned": len(mappings_total),
            "mapping_ratio": len(mappings_total) / len(mappings_pruned),
            "evaluated_candidates": result.evaluated,
            "unpruned_candidates": unpruned_candidates,
            "candidate_ratio": unpruned_candidates / result.evaluated,
            "sweep_s": elapsed,
            "candidates_per_s": result.evaluated / elapsed,
            "best_time_s": result.best_time,
        },
    })
