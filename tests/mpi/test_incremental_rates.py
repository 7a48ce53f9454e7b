"""Incremental rate recomputation: correctness of the dirty-group fast path.

The runtime only re-solves the IPC of core groups (chips) whose load or
priority state actually changed. These tests pin down the two promises
that optimisation makes: (1) runs are byte-identical with the fast path
on or off, and (2) a change on chip 0 never triggers — or perturbs — a
re-solve of chip 1.
"""

from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import MpiRuntime, RuntimeConfig
from repro.smt.analytic import AnalyticThroughputModel
from repro.workloads.generators import barrier_loop_programs

WORKS = [1e9, 2e9, 3e9, 4e9]


def _trace_tuples(result):
    return [
        (tl.rank, [(iv.start, iv.end, iv.state) for iv in tl.intervals])
        for tl in result.trace
    ]


class TestIncrementalEquivalence:
    def test_traces_identical_with_and_without_fast_path(self):
        results = []
        for incremental in (True, False):
            cfg = SystemConfig(runtime=RuntimeConfig(incremental_rates=incremental))
            result = System(cfg).run(
                barrier_loop_programs(WORKS, iterations=5),
                ProcessMapping.identity(4),
                priorities={0: 6, 1: 4, 2: 5, 3: 4},
            )
            results.append(result)
        fast, slow = results
        assert fast.total_time == slow.total_time
        assert fast.events_processed == slow.events_processed
        assert _trace_tuples(fast) == _trace_tuples(slow)

    def test_cluster_traces_identical_with_and_without_fast_path(self):
        results = []
        for incremental in (True, False):
            cfg = SystemConfig(
                n_nodes=2,
                runtime=RuntimeConfig(incremental_rates=incremental),
            )
            result = System(cfg).run(
                barrier_loop_programs([1e9, 2e9] * 4, iterations=3),
                ProcessMapping.identity(8),
            )
            results.append(result)
        fast, slow = results
        assert fast.total_time == slow.total_time
        assert _trace_tuples(fast) == _trace_tuples(slow)


def _cluster_runtime():
    """A 2-node cluster runtime with ranks packed onto both chips."""
    system = System(SystemConfig(n_nodes=2))
    machine, hmt, scheduler, kernel = system.build_machine()
    runtime = MpiRuntime(
        chip=machine,
        kernel=kernel,
        hmt=hmt,
        model=AnalyticThroughputModel(),
        programs=barrier_loop_programs([1e9] * 8, iterations=1),
        mapping=ProcessMapping.identity(8).as_dict(),
    )
    return runtime, machine


class TestMultiChipGrouping:
    def test_one_group_per_chip(self):
        runtime, machine = _cluster_runtime()
        assert len(runtime._core_groups) == len(machine.chips) == 2
        # Chip 0 owns global cores 0-1, chip 1 owns 2-3.
        assert runtime._core_groups[0] == [0, 1]
        assert runtime._core_groups[1] == [2, 3]

    def test_chip0_priority_write_does_not_touch_chip1(self):
        runtime, machine = _cluster_runtime()
        for rank in range(8):
            runtime._set_context_load(runtime._procs[rank], "hpc")
        runtime._recompute_rates()
        base_counts = list(runtime.group_recompute_counts)
        chip1_rates = {
            core: runtime._ipc_by_core[core] for core in runtime._core_groups[1]
        }

        # A priority write on CPU 0 (chip 0) dirties only group 0 ...
        machine.set_priority(0, 6)
        runtime._mark_dirty_cpu(0)
        assert runtime._dirty_groups == {0}
        runtime._recompute_rates()

        # ... so chip 1 was neither re-solved nor perturbed.
        assert runtime.group_recompute_counts[0] == base_counts[0] + 1
        assert runtime.group_recompute_counts[1] == base_counts[1]
        for core in runtime._core_groups[1]:
            assert runtime._ipc_by_core[core] == chip1_rates[core]
        # Chip 0 genuinely changed (the write was not a no-op).
        assert runtime._ipc_by_core[0] != runtime._ipc_by_core[1]

    def test_disabling_incremental_marks_everything(self):
        runtime, _ = _cluster_runtime()
        runtime._incremental = False
        runtime.config = RuntimeConfig(incremental_rates=False)
        runtime._recompute_rates()
        runtime._mark_dirty_cpu(0)
        assert runtime._dirty_groups == {0, 1}
