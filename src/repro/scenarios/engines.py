"""Execution engines: the pluggable backends a :class:`ScenarioSpec` runs on.

One spec, three physics paths — the same split the differential oracle
checks and the service serves, now behind a single interface:

``fluid``
    The default simulator: the discrete-event MPI runtime driven by the
    analytic throughput model. Produces a full trace (and therefore a
    digest).
``cycle``
    The same runtime driven by cycle-level pipeline measurements
    (:class:`~repro.smt.throughput.ThroughputTable`) — the decode
    mechanism's ground truth. Optionally shares a persisted table.
``analytic``
    A closed-form execution-time estimate that never runs an event loop:
    the bottleneck rank's total work over its steady-state chip-coupled
    IPC. No trace, no digest — a bound, not a simulation.

Every engine returns an :class:`ExecutionResult` carrying the spec's
fingerprint, the engine's name, the paper's two metrics where defined,
and the sha256 trace digest for trace-producing engines — the provenance
the golden-trace layer pins and the service caches.

Engines own their warm-state reuse: trace-producing engines keep
per-thread ``System`` caches (the model's memo cache warms across runs,
the cycle table accumulates measurements) keyed by everything that
changes construction, so the service's worker threads get the same
warm-path behaviour the old executor hand-rolled.

Batched execution: every engine also implements ``run_batch(specs)``,
with a correct default fallback (a loop over :meth:`Engine.run`) and
native strategies where amortisation pays:

``fluid``
    Predicts the chip states a batch will visit (every combination of
    compute/spin postures per mapped context at the static priorities),
    dedupes them across the batch, solves the misses in one stacked
    numpy call (:meth:`AnalyticThroughputModel.chip_ipc_stack`), then
    runs the per-spec event loops against the warmed memo. The
    prediction is purely a speed heuristic — anything it missed is
    solved on demand — and the solve itself is a pure function, so
    batch traces are bit-identical to scalar ones.
``analytic``
    Stacks all specs' steady-state chip solves into one vectorized
    call; the per-spec closed form then reads warm cache entries.
``cycle``
    Shares the persisted :class:`ThroughputTable` across the batch:
    loaded once per (seed, path) System, merged and saved once per
    batch instead of once per run.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError, SimulationError
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import RunResult, RuntimeConfig
from repro.scenarios.spec import ScenarioSpec
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.chip import ChipConfig
from repro.smt.instructions import BASE_PROFILES
from repro.smt.throughput import ThroughputTable
from repro.telemetry import CacheStats, default_registry, register_cache_metrics

__all__ = [
    "ExecutionResult",
    "Engine",
    "FluidEngine",
    "CycleEngine",
    "AnalyticEngine",
    "trace_digest",
    "fast_cycle_table",
]


def _observe_run(engine: str, elapsed_s: float, nodes: int = 1) -> None:
    """Publish one engine run into the default registry.

    One event per whole run (the simulation inside is the expensive
    part), so this is always on; the event loop itself is untouched.
    ``nodes`` is the scenario's cluster size (1 for the default single
    chip), so ``/metrics`` distinguishes cluster from single-chip
    traffic.
    """
    reg = default_registry()
    labels = (engine, str(nodes))
    reg.counter(
        "repro_engine_runs_total",
        "Executed scenario runs, by engine and node count.",
        labelnames=("engine", "nodes"),
    ).labels(*labels).inc()
    reg.histogram(
        "repro_engine_run_seconds",
        "Wall seconds per engine run, by engine and node count.",
        labelnames=("engine", "nodes"),
    ).labels(*labels).observe(elapsed_s)


def _spec_nodes(spec: ScenarioSpec) -> int:
    """Node count a spec targets (1 = the default single chip)."""
    return spec.topology.n_nodes if spec.topology is not None else 1


def _observe_batch(engine: str, size: int, elapsed_s: float) -> None:
    """Publish one ``run_batch`` call into the default registry.

    Per-spec run counters/histograms still fire individually inside the
    batch (the scalar ``run`` path is reused per spec), so these batch
    instruments are additive: calls, sizes, and whole-batch wall time.
    """
    reg = default_registry()
    reg.counter(
        "repro_engine_batches_total",
        "run_batch calls, by engine.",
        labelnames=("engine",),
    ).labels(engine).inc()
    reg.histogram(
        "repro_engine_batch_size", "Specs per run_batch call.",
        labelnames=("engine",),
    ).labels(engine).observe(size)
    reg.histogram(
        "repro_engine_batch_seconds", "Wall seconds per run_batch call.",
        labelnames=("engine",),
    ).labels(engine).observe(elapsed_s)


_DEFAULT_FREQ_HZ: Optional[float] = None


def _default_freq_hz() -> float:
    """The default chip clock, resolved once per process.

    ``SystemConfig()`` is a frozen default every time, so the frequency
    it carries is a constant; constructing it per analytic run showed up
    as real overhead in the batch profile.
    """
    global _DEFAULT_FREQ_HZ
    if _DEFAULT_FREQ_HZ is None:
        _DEFAULT_FREQ_HZ = SystemConfig().chip.freq_hz
    return _DEFAULT_FREQ_HZ


def trace_digest(result: RunResult) -> str:
    """sha256 over the full-precision interval stream of a finished run.

    ``repr(float)`` round-trips exactly, so two runs share a digest iff
    their traces are bit-identical — the equality the determinism and
    incremental-rates guarantees promise.
    """
    h = hashlib.sha256()
    for tl in result.trace:
        for iv in tl.intervals:
            h.update(
                f"{tl.rank}:{iv.state.value}:{iv.start!r}:{iv.end!r}\n".encode()
            )
    return h.hexdigest()


#: Logical CPUs per node: scenario machines are built from default chips.
_CPUS_PER_NODE = ChipConfig().n_cpus


def _placement(spec: ScenarioSpec, cpus_per_node: int) -> List[Tuple[int, int]]:
    """``(node, node-local CPU)`` of every rank of ``spec``."""
    mapping = spec.mapping_obj()
    return [
        divmod(mapping.cpu_of(rank), cpus_per_node) for rank in range(spec.n_ranks)
    ]


def _chip_state(loads: List, prios: List) -> tuple:
    """Per-CPU load/priority rows as one chip query:
    ``(load_a, load_b, prio_a, prio_b)`` per core."""
    return tuple(
        (loads[c], loads[c + 1], prios[c], prios[c + 1])
        for c in range(0, len(loads), 2)
    )


def _state_key(core_states: tuple) -> tuple:
    """The memo key :meth:`AnalyticThroughputModel.chip_ipc` files a
    chip query under."""
    return tuple(
        (pa.name if pa else None, pb.name if pb else None, xa, xb)
        for (pa, pb, xa, xb) in core_states
    )


def fast_cycle_table(seed: int = 0) -> ThroughputTable:
    """A cycle model with short measurement windows (oracle-speed).

    IPC from an 8k-cycle window is stable to a few percent for the
    bundled profiles — plenty under the cross-model tolerances, and an
    order of magnitude faster than the production windows. Share one
    table across a fuzz campaign so repeated (loads, priorities) keys
    are measured once.
    """
    return ThroughputTable(warmup_cycles=2_000, measure_cycles=8_000, seed=seed)


@dataclass(frozen=True)
class ExecutionResult:
    """What every engine returns for one executed spec.

    ``digest`` is the sha256 trace digest for trace-producing engines
    and ``None`` for closed-form ones; ``run`` keeps the raw
    :class:`~repro.mpi.runtime.RunResult` for callers that need the
    trace itself (excluded from equality and serialisation).
    """

    engine: str
    spec_fingerprint: str
    label: str
    total_time: float
    compute_seconds: float
    digest: Optional[str] = None
    imbalance_percent: Optional[float] = None
    events_processed: int = 0
    final_priorities: Tuple[int, ...] = ()
    ranks: Tuple[dict, ...] = ()
    run: Optional[RunResult] = field(default=None, compare=False, repr=False)

    @classmethod
    def from_run(
        cls,
        engine: str,
        spec: ScenarioSpec,
        run: RunResult,
        compute_seconds: float,
    ) -> "ExecutionResult":
        return cls(
            engine=engine,
            spec_fingerprint=spec.fingerprint,
            label=run.label,
            total_time=run.total_time,
            compute_seconds=compute_seconds,
            digest=trace_digest(run),
            imbalance_percent=run.imbalance_percent,
            events_processed=run.events_processed,
            final_priorities=tuple(int(p) for p in run.final_priorities),
            ranks=tuple(
                {
                    "rank": r.rank,
                    "compute": r.compute_fraction,
                    "sync": r.sync_fraction,
                    "comm": r.comm_fraction,
                    "noise": r.noise_fraction,
                    "idle": r.idle_fraction,
                }
                for r in run.stats.ranks
            ),
            run=run,
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "engine": self.engine,
            "spec_fingerprint": self.spec_fingerprint,
            "label": self.label,
            "total_time": self.total_time,
            "compute_seconds": self.compute_seconds,
            "events_processed": self.events_processed,
            "final_priorities": list(self.final_priorities),
            "ranks": [dict(r) for r in self.ranks],
        }
        if self.digest is not None:
            doc["digest"] = self.digest
        if self.imbalance_percent is not None:
            doc["imbalance_percent"] = self.imbalance_percent
        return doc


class Engine:
    """The execution interface every backend implements.

    ``run(spec)`` is the whole contract: deterministic for a given
    (spec, options) pair, returning an :class:`ExecutionResult`.
    ``options`` carries engine-specific knobs (declared in
    :attr:`option_names`; unknown keys raise) so callers — notably the
    conformance oracle — can iterate the registry generically while
    still steering individual backends.
    """

    name: str = ""
    description: str = ""
    #: Engine-specific ``options`` keys :meth:`run` accepts.
    option_names: Tuple[str, ...] = ()
    #: How :meth:`run_batch` amortises work: ``"loop"`` (the default
    #: fallback — correct but nothing shared), ``"vectorized"`` (stacked
    #: numpy solves), or ``"shared-table"`` (one table load/save per
    #: batch). Shown by ``repro engines list``.
    batch_strategy: str = "loop"
    #: The spec/search axes this engine's physics distinguishes.
    #: ``"priority"``: static hardware priorities change the outcome;
    #: ``"mapping"``: *which ranks share a core* changes the outcome
    #: (every backend models intra-core decode coupling, so both are on
    #: by default); ``"dynamic"``: runtime priority rewrites via the
    #: ``controllers`` hook. Shown by ``repro engines list`` and what
    #: the joint (mapping × priority) search relies on.
    axes: Tuple[str, ...] = ("priority", "mapping")

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        raise NotImplementedError

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Execute many specs; one :class:`ExecutionResult` per spec.

        The contract every backend must honour: results are index-
        aligned with ``specs``, and each is bit-identical to a scalar
        ``run(spec)`` with the same options (batching is an execution
        strategy, never a physics change). This default implementation
        simply loops :meth:`run`; backends override it where shared
        work can be amortised across the batch.
        """
        specs, labels = self._batch_args(specs, labels)
        t0 = time.perf_counter()
        results = [
            self.run(spec, label=label, options=options)
            for spec, label in zip(specs, labels)
        ]
        _observe_batch(self.name, len(specs), time.perf_counter() - t0)
        return results

    def _batch_args(
        self, specs, labels: Optional[List[str]]
    ) -> Tuple[List[ScenarioSpec], List[Optional[str]]]:
        """Normalise/validate the (specs, labels) pair of a batch call."""
        specs = list(specs)
        if labels is None:
            labels = [None] * len(specs)
        else:
            labels = list(labels)
            if len(labels) != len(specs):
                raise ConfigurationError(
                    f"run_batch got {len(specs)} specs but "
                    f"{len(labels)} labels"
                )
        return specs, labels

    def _opts(self, options: Optional[Mapping[str, object]]) -> dict:
        opts = dict(options or {})
        unknown = set(opts) - set(self.option_names)
        if unknown:
            raise ConfigurationError(
                f"engine {self.name!r} does not accept options "
                f"{sorted(unknown)} (allowed: {sorted(self.option_names)})"
            )
        return opts


class FluidEngine(Engine):
    """The default simulator: fluid MPI runtime + analytic model."""

    name = "fluid"
    description = ("discrete-event MPI runtime driven by the analytic "
                   "throughput model (the default simulator)")
    #: ``controllers`` is a zero-argument factory returning the runtime
    #: controllers for one run (fresh objects per run — controllers are
    #: stateful). A factory rather than instances so ``run_batch`` can
    #: give every spec its own controllers; this is how dynamic
    #: balancing policies ride the batch API.
    option_names = ("incremental_rates", "check_invariants", "controllers")
    batch_strategy = "vectorized"
    axes = ("priority", "mapping", "dynamic", "topology")

    def __init__(self) -> None:
        self._local = threading.local()
        self._systems_lock = threading.Lock()
        self._systems: List[System] = []
        register_cache_metrics(
            default_registry(), "fluid_models", self._model_cache_stats
        )

    def _model_cache_stats(self) -> CacheStats:
        """Summed memo accounting across every warm System this engine
        has built (pull-based; evaluated only at collection time)."""
        with self._systems_lock:
            systems = list(self._systems)
        total = CacheStats(hits=0, misses=0, size=0, max_size=0)
        for system in systems:
            getter = getattr(system.model, "cache_stats", None)
            if callable(getter):
                total = total + getter()
        return total

    def _system(
        self,
        seed: int,
        incremental: bool,
        invariants: bool,
        topology: Optional[TopologySpec] = None,
    ) -> System:
        """Per-thread warm Systems: the shared analytic model's memo
        cache warms across runs on the same worker. Keyed by the
        (hashable) :class:`~repro.cluster.TopologySpec` too — one warm
        System per distinct machine shape per thread."""
        cache: Optional[Dict[tuple, System]] = getattr(
            self._local, "systems", None
        )
        if cache is None:
            cache = self._local.systems = {}
        key = (seed, incremental, invariants, topology)
        system = cache.get(key)
        if system is None:
            shape = topology or TopologySpec(n_nodes=1)
            system = System(SystemConfig(
                n_nodes=shape.n_nodes,
                network=shape.network_model(),
                seed=seed,
                runtime=RuntimeConfig(
                    incremental_rates=incremental,
                    check_invariants=invariants,
                ),
            ))
            cache[key] = system
            with self._systems_lock:
                self._systems.append(system)
        return system

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        opts = self._opts(options)
        t0 = time.perf_counter()
        if system is None:
            system = self._system(
                spec.seed,
                bool(opts.get("incremental_rates", True)),
                bool(opts.get("check_invariants", False)),
                spec.topology,
            )
        controllers = None
        factory = opts.get("controllers")
        if factory is not None:
            if not callable(factory):
                raise ConfigurationError(
                    "controllers option must be a zero-arg factory "
                    "returning fresh controller objects"
                )
            controllers = list(factory())
        run = system.run(
            spec.programs(),
            mapping=spec.mapping_obj(),
            priorities=spec.priority_dict(),
            label=label if label is not None else f"scenario.{spec.name}",
            controllers=controllers,
        )
        elapsed = time.perf_counter() - t0
        _observe_run(self.name, elapsed, nodes=_spec_nodes(spec))
        return ExecutionResult.from_run(self.name, spec, run, elapsed)

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Batch execution: presolve the batch's chip states, then run.

        Phase 1 predicts every chip state the batch's event loops will
        query (per spec: each mapped context either computes its profile
        or spins at a barrier, at its static priority), dedupes them
        across the batch, and solves the cache misses in one stacked
        numpy call. Phase 2 runs the ordinary scalar event loops, which
        now hit a warm memo. Correctness never depends on the
        prediction: a state it missed is solved on demand, and the
        solve is a pure function of the state — so digests are
        bit-identical to per-spec ``run`` calls in any order. A spec
        alone in its seed/topology group is not presolved: its event
        loop solves the states it visits, typically fewer than the
        prediction enumerates, so a lone spec costs what ``run`` does.
        """
        specs, labels = self._batch_args(specs, labels)
        opts = self._opts(options)
        t0 = time.perf_counter()
        incremental = bool(opts.get("incremental_rates", True))
        invariants = bool(opts.get("check_invariants", False))

        by_system: Dict[tuple, List[ScenarioSpec]] = {}
        for spec in specs:
            by_system.setdefault((spec.seed, spec.topology), []).append(spec)
        for (seed, topology), group in by_system.items():
            if len(group) > 1:
                system = self._system(seed, incremental, invariants, topology)
                self._presolve(system, group)

        results = [
            self.run(spec, label=label, options=options)
            for spec, label in zip(specs, labels)
        ]
        _observe_batch(self.name, len(specs), time.perf_counter() - t0)
        return results

    def _presolve(self, system: System, specs: List[ScenarioSpec]) -> None:
        """Warm ``system.model``'s chip memo for a group of specs."""
        model = system.model
        stack = getattr(model, "chip_ipc_stack", None)
        if stack is None:  # pragma: no cover - non-analytic model
            return
        chip_cache = model._chip_cache
        seen = set()
        states = []
        for spec in specs:
            for core_states in self._candidate_chip_states(system, spec):
                key = _state_key(core_states)
                if key not in seen and key not in chip_cache:
                    seen.add(key)
                    states.append(core_states)
        if states:
            stack(states)

    def _candidate_chip_states(self, system, spec: ScenarioSpec):
        """Chip states ``spec``'s event loop is expected to query.

        Mirrors the runtime's state construction: each node's chip is
        one core group covering *all* its cores (idle contexts included,
        at the default MEDIUM priority); static priorities are applied at t=0;
        each mapped context is either computing ``spec.profile`` or
        parked in the wait posture (the spin profile under the default
        ``wait_mode="spin"``, an empty context under ``"block"``).
        Enumerates the cartesian product of the two postures per mapped
        context — at most ``2**n_ranks`` states, of which a run
        typically visits a handful.

        The throughput-coupling domain is one node's chip (the
        runtime's ``core_groups``), so the posture product runs per
        occupied node and yields that node's chip states — never a
        cross-node product, which would be exponentially larger and
        query states no chip ever sees.
        """
        runtime_cfg = system.config.runtime
        if runtime_cfg.wait_mode == "spin":
            wait_load = BASE_PROFILES[runtime_cfg.spin_profile]
        else:
            wait_load = None
        profile = BASE_PROFILES[spec.profile]
        prios = spec.priority_dict() or {}
        n_cpus = system.config.chip.n_cpus
        placement = _placement(spec, n_cpus)
        by_node: Dict[int, List[int]] = {}
        for rank, (node, _local) in enumerate(placement):
            by_node.setdefault(node, []).append(rank)
        for ranks in by_node.values():
            prio_row = [4] * n_cpus
            for rank in ranks:
                prio_row[placement[rank][1]] = int(prios.get(rank, 4))
            for postures in itertools.product((profile, wait_load),
                                              repeat=len(ranks)):
                load_row = [None] * n_cpus
                for rank, load in zip(ranks, postures):
                    load_row[placement[rank][1]] = load
                yield _chip_state(load_row, prio_row)


class CycleEngine(Engine):
    """The fluid runtime driven by cycle-level pipeline measurements."""

    name = "cycle"
    description = ("MPI runtime driven by measured pipeline IPC "
                   "(ThroughputTable — the decode mechanism's ground truth)")
    option_names = ("table", "table_path")
    batch_strategy = "shared-table"

    #: Serialises load/construct/save of shared on-disk tables across
    #: worker threads (merge-then-save: the table only ever grows).
    _table_io_lock = threading.Lock()

    def __init__(self) -> None:
        self._local = threading.local()

    def _system(self, seed: int, table_path: Optional[str]) -> System:
        cache: Optional[Dict[tuple, System]] = getattr(
            self._local, "systems", None
        )
        if cache is None:
            cache = self._local.systems = {}
        key = (seed, table_path)
        system = cache.get(key)
        if system is None:
            config = SystemConfig(
                model="cycle", seed=seed, throughput_table_path=table_path
            )
            if table_path is not None:
                with self._table_io_lock:
                    system = System(config)
            else:
                system = System(config)
            cache[key] = system
        return system

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        opts = self._opts(options)
        if spec.topology is not None:
            raise ConfigurationError(
                "the cycle engine models one chip's pipelines; "
                f"scenario {spec.name!r} names a {spec.topology.n_nodes}-node "
                "topology (use the fluid engine)"
            )
        table: Optional[ThroughputTable] = opts.get("table")
        table_path: Optional[str] = opts.get("table_path")
        if table is not None and table_path is not None:
            raise ConfigurationError(
                "cycle engine takes table= or table_path=, not both"
            )
        t0 = time.perf_counter()
        persist = False
        if system is None:
            if table is not None:
                # Oracle fast path: a fresh system whose production
                # table is swapped for the (possibly shared,
                # short-window) measurement table. Never cached — the
                # override must not leak into later runs.
                system = System(SystemConfig(model="cycle", seed=spec.seed))
                system.model = table
            else:
                system = self._system(spec.seed, table_path)
                persist = table_path is not None
        run = system.run(
            spec.programs(),
            mapping=spec.mapping_obj(),
            priorities=spec.priority_dict(),
            label=label if label is not None else f"scenario.{spec.name}",
        )
        if persist:
            # Merge-then-save: pick up entries concurrent workers
            # persisted since we loaded, so the shared table only grows.
            with self._table_io_lock:
                system.model.load(table_path)
                system.save_throughput_table()
        elapsed = time.perf_counter() - t0
        _observe_run(self.name, elapsed)
        return ExecutionResult.from_run(self.name, spec, run, elapsed)

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Batch execution with one table load/merge-save per batch.

        With ``table_path``, the scalar path merges and persists the
        shared on-disk table after *every* run; the batch path runs all
        specs against the (per-seed) warm Systems and persists each
        table once at the end. The table only ever grows and per-run
        measurement state is identical either way, so digests match the
        scalar path bit for bit.
        """
        specs, labels = self._batch_args(specs, labels)
        opts = self._opts(options)
        table: Optional[ThroughputTable] = opts.get("table")
        table_path: Optional[str] = opts.get("table_path")
        if table is not None and table_path is not None:
            raise ConfigurationError(
                "cycle engine takes table= or table_path=, not both"
            )
        t0 = time.perf_counter()
        if table_path is None:
            results = [
                self.run(spec, label=label, options=options)
                for spec, label in zip(specs, labels)
            ]
        else:
            systems = []
            results = []
            for spec, label in zip(specs, labels):
                system = self._system(spec.seed, table_path)
                if system not in systems:
                    systems.append(system)
                results.append(
                    self.run(spec, label=label, system=system,
                             options=options)
                )
            for system in systems:
                # Same merge-then-save the scalar path does per run,
                # amortised to once per batch and system.
                with self._table_io_lock:
                    system.model.load(table_path)
                    system.save_throughput_table()
        _observe_batch(self.name, len(specs), time.perf_counter() - t0)
        return results


class AnalyticEngine(Engine):
    """Closed-form execution-time estimate, no event loop.

    Steady state: every mapped context runs its profile at its static
    priority; the bottleneck rank's total work over its chip-coupled IPC
    bounds the run. Communication, init phases and spin-wait rate shifts
    are deliberately ignored — the conformance tolerance absorbs them.
    """

    name = "analytic"
    description = ("closed-form steady-state estimate (bottleneck rank's "
                   "work over its chip-coupled IPC; no event loop)")
    option_names = ("model",)
    batch_strategy = "vectorized"
    #: Topology-aware: per-node chip solves keep the IPC coupling within
    #: each node's chip (communication is ignored either way, so the
    #: estimate stays the same compute-bound lower bound on a cluster).
    axes = ("priority", "mapping", "topology")

    def __init__(self) -> None:
        self._model = AnalyticThroughputModel()
        register_cache_metrics(
            default_registry(), "analytic_model", self._model.cache_stats
        )

    @staticmethod
    def _node_states(spec: ScenarioSpec, placement) -> Dict[int, tuple]:
        """The steady-state chip query of every occupied node: each
        mapped context runs its profile at its static priority, idle
        contexts sit at MEDIUM (the coupling domain is one node's chip,
        exactly like the runtime's per-node core groups)."""
        prios = spec.priority_dict() or {}
        profile = BASE_PROFILES[spec.profile]
        loads: Dict[int, List] = {}
        prio_rows: Dict[int, List] = {}
        for rank, (node, local) in enumerate(placement):
            if node not in loads:
                loads[node] = [None] * _CPUS_PER_NODE
                prio_rows[node] = [4] * _CPUS_PER_NODE
            loads[node][local] = profile
            prio_rows[node][local] = prios.get(rank, 4)
        return {
            node: _chip_state(loads[node], prio_rows[node]) for node in loads
        }

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        if system is not None:
            raise ConfigurationError(
                "the analytic engine runs no System; drop the system= arg"
            )
        opts = self._opts(options)
        model: AnalyticThroughputModel = opts.get("model") or self._model
        t0 = time.perf_counter()
        placement = _placement(spec, _CPUS_PER_NODE)
        node_ipcs = {
            node: model.chip_ipc(states)
            for node, states in self._node_states(spec, placement).items()
        }
        return self._finish(spec, label, placement, node_ipcs, t0)

    def _finish(
        self,
        spec: ScenarioSpec,
        label: Optional[str],
        placement,
        node_ipcs: Dict[int, tuple],
        t0: float,
    ) -> ExecutionResult:
        """The closed form proper: bottleneck rank's work over its IPC."""
        freq = _default_freq_hz()
        worst = 0.0
        for rank, (node, local) in enumerate(placement):
            ipc = node_ipcs[node][local // 2][local % 2]
            if ipc <= 0.0:
                raise SimulationError(
                    f"scenario {spec.name!r}: rank {rank} has zero "
                    "steady-state IPC"
                )
            total_work = spec.works[rank] * spec.iterations
            worst = max(worst, total_work / (ipc * freq))
        result = ExecutionResult(
            engine=self.name,
            spec_fingerprint=spec.fingerprint,
            label=label if label is not None else f"scenario.{spec.name}",
            total_time=worst,
            compute_seconds=time.perf_counter() - t0,
        )
        _observe_run(self.name, result.compute_seconds, nodes=_spec_nodes(spec))
        return result

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Batch execution: one stacked solve for the whole batch.

        Every spec's per-node steady-state chip queries are collected,
        deduped, and the cache misses solved in a single vectorized call
        (:meth:`AnalyticThroughputModel.chip_ipc_stack`, which reads and
        fills the same memo caches scalar queries use); the closed form
        per spec then consumes the solved IPCs directly. Identical to
        looping :meth:`run` — same pure solve, same caches.
        """
        specs, labels = self._batch_args(specs, labels)
        opts = self._opts(options)
        model: AnalyticThroughputModel = opts.get("model") or self._model
        batch_t0 = time.perf_counter()
        placements = [_placement(spec, _CPUS_PER_NODE) for spec in specs]
        node_keys = []
        unique: Dict[tuple, tuple] = {}
        for spec, placement in zip(specs, placements):
            keys = {}
            for node, states in self._node_states(spec, placement).items():
                keys[node] = key = _state_key(states)
                unique.setdefault(key, states)
            node_keys.append(keys)
        solved = model.chip_ipc_stack(list(unique.values())) if unique else []
        by_key = dict(zip(unique, solved))
        results = []
        for spec, label, placement, keys in zip(
            specs, labels, placements, node_keys
        ):
            t0 = time.perf_counter()
            node_ipcs = {node: by_key[key] for node, key in keys.items()}
            results.append(self._finish(spec, label, placement, node_ipcs, t0))
        _observe_batch(self.name, len(specs), time.perf_counter() - batch_t0)
        return results
