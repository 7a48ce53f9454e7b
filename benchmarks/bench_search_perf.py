"""Priority-search performance (classic pytest-benchmark targets).

Tracks the cost of the automated case-study search from
:mod:`repro.core.search`: an exhaustive priority sweep on one mapping
(``joint_search(..., mappings=[m])``), serial vs. the process-pool
path, with the throughput-model cache accounting recorded alongside
the timings in
``benchmarks/results/BENCH_simulator.json``.
"""

import pytest

from repro.core.search import joint_search
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.workloads.generators import barrier_loop_programs

MAPPING = ProcessMapping.identity(4)
WORKS = [1e9, 2e9, 3e9, 4e9]


def factory():
    return barrier_loop_programs(WORKS, iterations=5)


def _record(record_bench, name, benchmark, result):
    st = benchmark.stats.stats
    record_bench(
        name,
        {
            "mean_s": st.mean,
            "min_s": st.min,
            "median_s": st.median,
            "stddev_s": st.stddev,
            "rounds": st.rounds,
            "evaluations": result.stats.evaluations,
            "cache_hits": result.stats.cache_hits,
            "cache_misses": result.stats.cache_misses,
            "workers": result.stats.workers,
        },
    )


def test_exhaustive_search_serial(benchmark, record_bench):
    """16 candidates (levels 4-5, gap <= 1) on a warm shared model."""
    system = System(SystemConfig())

    def run():
        return joint_search(
            system, factory, 4, levels=(4, 5), max_gap=1, mappings=[MAPPING]
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.best_time > 0
    _record(record_bench, "exhaustive_search_serial", benchmark, result)


def test_exhaustive_search_parallel(benchmark, record_bench):
    """Same sweep through the process pool (falls back to serial when
    the pool cannot start); the ranking must match the serial sweep."""
    serial = joint_search(
        System(SystemConfig()), factory, 4, levels=(4, 5), max_gap=1,
        mappings=[MAPPING],
    )

    def run():
        return joint_search(
            System(SystemConfig()),
            factory,
            4,
            levels=(4, 5),
            max_gap=1,
            workers=2,
            mappings=[MAPPING],
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    # Per-candidate times must agree to ~1e-5; they can differ in the
    # last digits because the serial model cache warms *across*
    # candidates (its external-traffic keys are rounded to 1e-4) while
    # each worker starts from the same pickled snapshot — which also
    # lets symmetric near-ties swap ranking positions.
    par_times = {tuple(sorted(a.priority_dict.items())): t for a, t, _ in result.entries}
    ser_times = {tuple(sorted(a.priority_dict.items())): t for a, t, _ in serial.entries}
    assert par_times.keys() == ser_times.keys()
    for key, t_ser in ser_times.items():
        assert par_times[key] == pytest.approx(t_ser, rel=1e-5)
    _record(record_bench, "exhaustive_search_parallel", benchmark, result)
