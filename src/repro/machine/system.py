"""System: the simulated machine as one object — the only runner.

Wires ``n_nodes`` POWER5 chips (one
:class:`~repro.cluster.machine.ClusterMachine`; the default single node
is the paper's IBM OpenPower 710), a kernel model (standard/patched),
the privilege-checked priority controller, optional kernel-event
sources (ticks, interrupts, noise), a throughput model and, between
nodes, a network model into a single entry point::

    system = System(SystemConfig(kernel="patched"))
    result = system.run(
        programs,                   # one generator function per rank
        mapping=ProcessMapping.identity(4),
        priorities={0: 4, 1: 6, 2: 4, 3: 6},   # set via /proc before launch
    )

Each :meth:`System.run` builds a fresh machine (chip state, scheduler,
runtime), so a ``System`` can run many experiments independently. A
1-node machine is the single chip: messages only cross the network
model when the mapping places ranks on more than one node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Sequence

import heapq

from repro.cluster.machine import ClusterConfig, ClusterMachine
from repro.cluster.topology import NetworkModel, UniformNetwork
from repro.errors import ConfigurationError
from repro.kernel.hmt import Actor, HmtController
from repro.kernel.interrupts import InterruptSource, KernelEvent, TimerTickSource
from repro.kernel.kernel import KernelModel, make_kernel
from repro.kernel.noise import NoiseConfig, make_noise_sources
from repro.kernel.scheduler import PinnedScheduler
from repro.machine.mapping import ProcessMapping
from repro.mpi.p2p import CommCosts
from repro.mpi.process import RankProgram
from repro.mpi.runtime import MpiRuntime, RunResult, RuntimeConfig
from repro.smt.analytic import AnalyticModelConfig, AnalyticThroughputModel
from repro.smt.chip import ChipConfig
from repro.smt.instructions import LoadProfile
from repro.smt.throughput import ThroughputTable
from repro.util.rng import RngStreams
from repro.util.validation import check_positive, check_type

__all__ = ["SystemConfig", "System", "NETWORK_EAGER_THRESHOLD"]

#: Eager/rendezvous switch for inter-node messages (network transports
#: buffer less than shared memory).
NETWORK_EAGER_THRESHOLD = 16384


@dataclass(frozen=True)
class SystemConfig:
    """Everything configurable about the simulated machine."""

    #: The chip of every node.
    chip: ChipConfig = field(default_factory=ChipConfig)
    #: Identical nodes behind ``network``; node ``k`` owns global CPUs
    #: ``k * chip.n_cpus ..``. 1 is the paper's single chip.
    n_nodes: int = 1
    #: Per-node-pair latency/bandwidth for inter-node messages.
    network: NetworkModel = field(default_factory=UniformNetwork)
    kernel: str = "patched"  # "standard" | "patched"
    model: str = "analytic"  # "analytic" | "cycle"
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    analytic: AnalyticModelConfig = field(default_factory=AnalyticModelConfig)
    #: Timer tick frequency; 0 disables ticks (default for table repro
    #: runs, where the patched kernel makes them irrelevant and the cost
    #: is negligible).
    tick_hz: float = 0.0
    #: Poisson device-interrupt rate routed to CPU0 (the "interrupt
    #: annoyance" model); 0 disables.
    irq_rate_hz: float = 0.0
    #: Daemon noise sources.
    noise: tuple = ()
    seed: int = 0
    #: Where the cycle model's measured throughput table is persisted.
    #: When set (model="cycle" only), measurements found there are loaded
    #: at construction and :meth:`System.save_throughput_table` writes
    #: new ones back, so repeated cycle-model experiments skip the
    #: 50k-cycle pipeline measurements entirely.
    throughput_table_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_type("n_nodes", self.n_nodes, int)
        check_positive("n_nodes", self.n_nodes)
        if self.kernel not in ("standard", "patched"):
            raise ConfigurationError(f"kernel must be standard|patched, got {self.kernel!r}")
        if self.model not in ("analytic", "cycle"):
            raise ConfigurationError(f"model must be analytic|cycle, got {self.model!r}")
        if self.throughput_table_path is not None and self.model != "cycle":
            raise ConfigurationError(
                "throughput_table_path only applies to model='cycle' "
                f"(got model={self.model!r})"
            )
        if self.tick_hz < 0 or self.irq_rate_hz < 0:
            raise ConfigurationError("tick_hz/irq_rate_hz must be >= 0")
        for cfg in self.noise:
            if not isinstance(cfg, NoiseConfig):
                raise ConfigurationError(f"noise entries must be NoiseConfig, got {cfg!r}")


class System:
    """Factory/runner for simulated machines."""

    #: Horizon for pre-generating kernel events; extended automatically
    #: would be better, but the runtime's time_limit bounds real use and
    #: generating a fixed horizon keeps sources simple and deterministic.
    KERNEL_EVENT_HORIZON = 4000.0

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        self._machine_config = ClusterConfig(
            n_nodes=self.config.n_nodes, chip=self.config.chip
        )
        self._streams = RngStreams(self.config.seed)
        # The model is shared across runs so its memo cache warms up.
        if self.config.model == "analytic":
            self.model = AnalyticThroughputModel(self.config.analytic)
        else:
            self.model = ThroughputTable(seed=self.config.seed)
            if self.config.throughput_table_path:
                self.model.load(self.config.throughput_table_path)

    def save_throughput_table(self) -> Optional[int]:
        """Persist the cycle model's measured table to the configured path.

        No-op (returns ``None``) for the analytic model or when no
        ``throughput_table_path`` is configured; otherwise returns the
        number of entries written.
        """
        path = self.config.throughput_table_path
        if path and isinstance(self.model, ThroughputTable):
            return self.model.save(path)
        return None

    # -- machine assembly -------------------------------------------------------

    def build_machine(self):
        """Fresh (machine, hmt, scheduler, kernel) for one run: one kernel
        image spanning every node, pinning by global CPU."""
        machine = ClusterMachine(self._machine_config)
        hmt = HmtController(machine)
        scheduler = PinnedScheduler(machine.config.n_cpus)
        kernel = make_kernel(self.config.kernel, hmt, scheduler)
        return machine, hmt, scheduler, kernel

    def _pair_costs(self, rank_cpu: Mapping[int, int]):
        """Per-rank-pair transfer parameters, or ``None`` when every rank
        sits on one node (then every message uses shared memory and the
        runtime's uniform costs apply without a per-pair lookup)."""
        cpus_per_node = self._machine_config.cpus_per_node
        rank_node = {rank: cpu // cpus_per_node for rank, cpu in rank_cpu.items()}
        if len(set(rank_node.values())) <= 1:
            return None
        base = self.config.runtime.comm_costs
        network = self.config.network

        def costs(src: int, dst: int) -> CommCosts:
            a, b = rank_node[src], rank_node[dst]
            if a == b:
                return base
            return CommCosts(
                latency=base.latency + network.latency(a, b),
                bandwidth=min(base.bandwidth, network.bandwidth(a, b)),
                eager_threshold=NETWORK_EAGER_THRESHOLD,
                call_overhead=base.call_overhead,
            )

        return costs

    def _kernel_event_stream(self, horizon: float) -> Optional[Iterator[KernelEvent]]:
        cfg = self.config
        sources: List[object] = []
        if cfg.tick_hz > 0:
            sources.append(
                TimerTickSource(
                    list(range(self._machine_config.n_cpus)), hz=cfg.tick_hz
                )
            )
        if cfg.irq_rate_hz > 0:
            sources.append(
                InterruptSource(
                    self._streams.get("irq.cpu0"), rate_hz=cfg.irq_rate_hz, cpu=0
                )
            )
        if cfg.noise:
            sources.extend(make_noise_sources(list(cfg.noise), self._streams))
        if not sources:
            return None
        return iter(heapq.merge(*(src.events(horizon) for src in sources)))

    # -- running ------------------------------------------------------------------

    def run(
        self,
        programs: Sequence[RankProgram],
        mapping: Optional[ProcessMapping] = None,
        priorities: Optional[Mapping[int, int]] = None,
        profiles: Optional[Mapping[str, LoadProfile]] = None,
        label: str = "",
        event_horizon: Optional[float] = None,
        controllers: Optional[Sequence] = None,
    ) -> RunResult:
        """Run one experiment.

        Parameters
        ----------
        mapping:
            rank -> *global* CPU (node ``k`` owns CPUs
            ``k * chip.n_cpus ..``); defaults to packing ranks onto
            nodes in order.
        priorities:
            rank -> hardware priority, installed through the kernel's
            ``/proc/<pid>/hmt_priority`` interface *before* launch — the
            paper's static balancing. Requires the patched kernel for
            levels outside 2-4 (a standard kernel raises
            ``FileNotFoundError``, and would reset them at the first
            interrupt anyway).
        """
        mapping = mapping or ProcessMapping.identity(len(programs))
        if mapping.n_ranks != len(programs):
            raise ConfigurationError(
                f"mapping covers {mapping.n_ranks} ranks but {len(programs)} programs given"
            )
        rank_cpu = mapping.as_dict()
        machine, hmt, scheduler, kernel = self.build_machine()

        on_start = None
        if priorities:
            wanted = dict(priorities)

            def on_start(runtime: MpiRuntime) -> None:
                # Runs at t=0 after mpirun has started (and priority-reset)
                # every rank: the balancing script's `echo N > /proc/...`.
                self._apply_priorities(kernel, hmt, wanted)

        runtime = MpiRuntime(
            chip=machine,
            kernel=kernel,
            hmt=hmt,
            model=self.model,
            programs=programs,
            mapping=rank_cpu,
            profiles=profiles,
            config=self.config.runtime,
            kernel_events=self._kernel_event_stream(
                event_horizon or self.KERNEL_EVENT_HORIZON
            ),
            label=label,
            on_start=on_start,
            controllers=controllers,
            pair_costs=self._pair_costs(rank_cpu),
        )
        return runtime.run()

    @staticmethod
    def _apply_priorities(
        kernel: KernelModel,
        hmt: HmtController,
        priorities: Mapping[int, int],
    ) -> None:
        for pid, prio in sorted(priorities.items()):
            if kernel.has_hmt_procfs:
                # echo N > /proc/<pid>/hmt_priority, at OS privilege.
                kernel.procfs.set_priority_of_pid(pid, prio, time=0.0)
            else:
                # Standard kernel: userspace can only use the or-nop path
                # (2-4); anything else is silently impossible.
                cpu = kernel.scheduler.cpu_of(pid)
                hmt.try_set_priority(cpu, prio, time=0.0, via="or-nop", actor=Actor.USER)
