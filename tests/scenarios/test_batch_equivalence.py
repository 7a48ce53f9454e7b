"""Batch-vs-scalar equivalence: the contract behind ``run_batch``.

Every registered engine must produce, through one ``run_batch`` call,
results *bit-identical* to per-spec ``run`` on fresh engines — trace
digests for the trace-producing backends (fluid, cycle), exact
``total_time`` for the closed-form analytic engine (it declares no
tolerances, so exact equality is the bar). Covered per the issue: every
engine × all four ``ScenarioSpec`` kinds, seeded generator corpora,
mixed-kind batches, batch size 1, and the empty batch; plus the base
protocol's default loop fallback and its label validation.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    Engine,
    ScenarioGenerator,
    ScenarioSpec,
    all_engines,
    fast_cycle_table,
)
from repro.scenarios.engines import AnalyticEngine, CycleEngine, FluidEngine
from repro.smt.analytic import AnalyticThroughputModel

#: One handcrafted spec per spec kind (siesta is outside the generator's
#: draw space, so it is exercised here explicitly).
KIND_SPECS = {
    "barrier_loop": ScenarioSpec(
        name="eq-barrier",
        kind="barrier_loop",
        works=(1.0e9, 2.0e9, 1.5e9, 2.5e9),
        iterations=2,
        priorities=((0, 4), (1, 6), (2, 5), (3, 4)),
    ),
    "metbench": ScenarioSpec(
        name="eq-metbench",
        kind="metbench",
        works=(8.0e8, 1.6e9),
        iterations=2,
    ),
    "btmz": ScenarioSpec(
        name="eq-btmz",
        kind="btmz",
        works=(6.0e8, 1.1e9, 1.9e9, 1.4e9),
        iterations=2,
        mapping="btmz",
        priorities=((0, 4), (1, 4), (2, 5), (3, 6)),
    ),
    "siesta": ScenarioSpec(
        name="eq-siesta",
        kind="siesta",
        works=(9.0e8, 1.2e9, 1.0e9, 1.4e9),
        iterations=2,
        mapping="siesta",
        params={
            "init_works": (1.0e8, 1.0e8, 1.0e8, 1.0e8),
            "final_works": (5.0e7, 5.0e7, 5.0e7, 5.0e7),
        },
    ),
}

ENGINE_TYPES = {e.name: type(e) for e in all_engines()}


def _fresh(name: str) -> Engine:
    """A cold engine instance: no memo caches, no warm Systems — the
    scalar baseline and the batch under test never share state."""
    return ENGINE_TYPES[name]()


def _options(name: str):
    # The cycle engine measures a throughput table per System; the
    # oracle-speed table keeps each run fast without changing the
    # equivalence contract (options pass through run and run_batch
    # identically).
    if name == "cycle":
        return {"table": fast_cycle_table(0)}
    return None


def _signature(result):
    """Everything two equivalent executions must agree on, bit-for-bit.

    ``digest`` covers the full-precision trace for trace-producing
    engines; the analytic engine has no trace, so its closed-form
    ``total_time`` stands in. ``compute_seconds`` is wall clock and is
    deliberately excluded.
    """
    return (
        result.engine,
        result.spec_fingerprint,
        result.label,
        result.total_time,
        result.digest,
        result.imbalance_percent,
        result.events_processed,
        result.final_priorities,
    )


def assert_batch_equivalent(name: str, specs):
    options = _options(name)
    scalar = [_fresh(name).run(s, options=options) for s in specs]
    batch = _fresh(name).run_batch(specs, options=options)
    assert len(batch) == len(specs)
    for a, b in zip(scalar, batch):
        assert _signature(a) == _signature(b)


class TestEveryEngineEveryKind:
    @pytest.mark.parametrize("name", sorted(ENGINE_TYPES))
    @pytest.mark.parametrize("kind", sorted(KIND_SPECS))
    def test_single_kind_batch_matches_scalar(self, name, kind):
        assert_batch_equivalent(name, [KIND_SPECS[kind]])

    @pytest.mark.parametrize("name", sorted(ENGINE_TYPES))
    def test_mixed_kind_batch_matches_scalar(self, name):
        specs = [KIND_SPECS[k] for k in sorted(KIND_SPECS)]
        assert_batch_equivalent(name, specs)

    @pytest.mark.parametrize("name", sorted(ENGINE_TYPES))
    def test_empty_batch(self, name):
        assert _fresh(name).run_batch([]) == []


class TestGeneratorCorpora:
    """Seeded fuzz corpora through the batch path — the adversarial
    sweep over mappings, profiles, priorities, and rank counts."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_fluid_corpus(self, seed):
        assert_batch_equivalent("fluid", ScenarioGenerator(seed=seed).take(10))

    @pytest.mark.parametrize("seed", [11, 29])
    def test_analytic_corpus(self, seed):
        assert_batch_equivalent(
            "analytic", ScenarioGenerator(seed=seed).take(16)
        )

    def test_cycle_corpus(self):
        assert_batch_equivalent("cycle", ScenarioGenerator(seed=11).take(4))

    def test_analytic_duplicate_specs_in_one_batch(self):
        # Dedupe inside the batch must still yield one result per spec.
        spec = KIND_SPECS["barrier_loop"]
        assert_batch_equivalent("analytic", [spec, spec, spec])


class TestMappingDistinctBatches:
    """Spec v2 explicit mappings through the batch path: the coalescing
    keys are per-core chip states derived from each spec's own mapping,
    so mapping-distinct specs must never share a solve."""

    def _mapping_sweep(self):
        import dataclasses

        base = ScenarioSpec(
            name="eq-map",
            kind="metbench",
            works=(8.0e8, 2.4e9, 1.2e9, 2.0e9),
            iterations=2,
        )
        return [
            dataclasses.replace(base, mapping=m)
            for m in (
                "identity",
                {0: 0, 1: 2, 2: 1, 3: 3},
                {0: 0, 1: 2, 2: 3, 3: 1},  # normalises to "btmz"
                {0: 3, 1: 1, 2: 2, 3: 0},
            )
        ]

    @pytest.mark.parametrize("name", sorted(ENGINE_TYPES))
    def test_same_works_different_mappings_batch_matches_scalar(self, name):
        assert_batch_equivalent(name, self._mapping_sweep())

    def test_distinct_partitions_produce_distinct_physics(self):
        # The guard the dedupe keys must respect: these cells are not
        # interchangeable, so a wrong coalescing would be visible here.
        specs = self._mapping_sweep()
        results = _fresh("fluid").run_batch(specs)
        partitions = {
            tuple(s.mapping_obj().canonical().rank_to_cpu) for s in specs
        }
        digests = {r.digest for r in results}
        assert len(digests) == len(partitions) == 3


#: Topology-bearing specs: the 1-node twin of a single-chip spec, a
#: 2-node uniform cluster and a 2-node two-level tree with the nodes on
#: separate switches. Partly occupied nodes and cross-node exchanges are
#: both exercised.
TOPOLOGY_SPECS = [
    ScenarioSpec(
        name="eq-topo-1node",
        kind="barrier_loop",
        works=(1.0e9, 2.0e9, 1.5e9, 2.5e9),
        iterations=2,
        priorities=((0, 4), (1, 6), (2, 5), (3, 4)),
        topology={"n_nodes": 1},
    ),
    ScenarioSpec(
        name="eq-topo-uniform",
        kind="distant_pairs",
        works=(1.0e9, 2.6e9, 1.4e9, 3.0e9, 1.8e9, 2.2e9),
        iterations=2,
        priorities=((0, 5), (1, 6), (4, 6)),
        params={"exchange_bytes": 1 << 20},
        topology={"n_nodes": 2},
    ),
    ScenarioSpec(
        name="eq-topo-tree",
        kind="metbench",
        works=(8.0e8, 2.4e9, 1.2e9, 2.0e9),
        iterations=2,
        mapping={0: 0, 1: 4, 2: 1, 3: 6},
        priorities=((1, 6), (3, 5)),
        topology={
            "n_nodes": 2,
            "network": "two-level-tree",
            "params": {"nodes_per_switch": 1},
        },
    ),
]


class TestTopologyBatches:
    """Topology specs mixed into one batch with single-chip specs: the
    per-node solves stack with the single-chip ones and every result
    still equals the scalar run."""

    @pytest.mark.parametrize("name", ["fluid", "analytic"])
    def test_mixed_topology_batch_matches_scalar(self, name):
        specs = [KIND_SPECS["barrier_loop"], *TOPOLOGY_SPECS,
                 KIND_SPECS["btmz"], TOPOLOGY_SPECS[1]]
        assert_batch_equivalent(name, specs)

    def test_one_node_twin_matches_the_single_chip(self):
        """The 1-node law holds inside a batch too (the 1-node spec is
        the barrier_loop spec plus a topology)."""
        single = KIND_SPECS["barrier_loop"]
        for name in ("fluid", "analytic"):
            results = _fresh(name).run_batch([single, TOPOLOGY_SPECS[0]])
            assert results[0].total_time == results[1].total_time
            assert results[0].digest == results[1].digest


class TestFluidPresolveGroups:
    """The fluid engine presolves only seed/topology groups of two or
    more specs; a lone spec runs exactly as ``run`` does."""

    @pytest.fixture
    def stack_calls(self, monkeypatch):
        calls = []
        real = AnalyticThroughputModel.chip_ipc_stack

        def counting(model, chip_states):
            calls.append(len(chip_states))
            return real(model, chip_states)

        monkeypatch.setattr(
            AnalyticThroughputModel, "chip_ipc_stack", counting
        )
        return calls

    def test_lone_spec_is_not_presolved(self, stack_calls):
        spec = KIND_SPECS["barrier_loop"]
        [batched] = FluidEngine().run_batch([spec])
        assert stack_calls == []
        assert _signature(batched) == _signature(FluidEngine().run(spec))

    def test_multi_spec_group_is_presolved(self, stack_calls):
        specs = [KIND_SPECS["barrier_loop"], KIND_SPECS["btmz"]]
        FluidEngine().run_batch(specs)
        assert len(stack_calls) == 1 and stack_calls[0] > 0


class TestBatchProtocol:
    def test_default_fallback_loops_over_run(self):
        calls = []

        class Loopy(Engine):
            name = "loopy-test-engine"

            def run(self, spec, label=None, system=None, options=None):
                calls.append((spec.name, label))
                return FluidEngine().run(spec, label=label, options=options)

        specs = [KIND_SPECS["barrier_loop"], KIND_SPECS["metbench"]]
        results = Loopy().run_batch(specs, labels=["a", "b"])
        assert [c[0] for c in calls] == [s.name for s in specs]
        assert [c[1] for c in calls] == ["a", "b"]
        assert [r.label for r in results] == ["a", "b"]

    def test_labels_length_mismatch_rejected(self):
        for engine in all_engines():
            with pytest.raises(ConfigurationError, match="labels"):
                engine.run_batch(
                    [KIND_SPECS["barrier_loop"]], labels=["a", "b"]
                )

    def test_every_engine_declares_batch_strategy(self):
        strategies = {e.name: e.batch_strategy for e in all_engines()}
        assert strategies == {
            "fluid": "vectorized",
            "analytic": "vectorized",
            "cycle": "shared-table",
        }

    def test_batch_telemetry_observed(self):
        from repro.telemetry import default_registry

        engine = AnalyticEngine()
        reg = default_registry()
        counter = reg.counter(
            "repro_engine_batches_total", "run_batch calls, by engine.",
            labelnames=("engine",),
        ).labels("analytic")
        before = counter.value
        engine.run_batch([KIND_SPECS["barrier_loop"]])
        assert counter.value == before + 1


class TestCycleSharedTable:
    def test_table_path_batch_matches_scalar(self, tmp_path):
        """The shared-table batch path (one load per System, one
        merge-then-save per batch) serves the same digests as per-run
        persistence.

        Small same-profile specs on purpose: both resolve to one
        measured table key, so the test exercises the load/merge/save
        choreography rather than paying for a broad measurement sweep.
        """
        specs = [
            ScenarioSpec(
                name="eq-table-a",
                kind="barrier_loop",
                works=(4.0e8, 9.0e8),
                iterations=2,
            ),
            ScenarioSpec(
                name="eq-table-b",
                kind="barrier_loop",
                works=(7.0e8, 5.0e8),
                iterations=2,
            ),
        ]
        scalar_path = str(tmp_path / "scalar.table.json")
        batch_path = str(tmp_path / "batch.table.json")
        scalar = [
            CycleEngine().run(s, options={"table_path": scalar_path})
            for s in specs
        ]
        batch = CycleEngine().run_batch(
            specs, options={"table_path": batch_path}
        )
        for a, b in zip(scalar, batch):
            assert _signature(a) == _signature(b)
        import os

        assert os.path.exists(batch_path)
