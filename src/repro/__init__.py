"""repro — reproduction of Boneti et al., *Balancing HPC Applications
Through Smart Allocation of Resources in MT Processors* (IPDPS 2008).

The package simulates the paper's whole stack in Python:

* :mod:`repro.smt` — a POWER5-like dual-core 2-way-SMT chip whose decode
  slots are divided between hardware threads by *priorities* (the
  paper's Tables I-III), with cycle-level and closed-form throughput
  models.
* :mod:`repro.kernel` — standard vs. patched Linux behaviour around those
  priorities, including the ``/proc/<PID>/hmt_priority`` interface the
  paper adds.
* :mod:`repro.mpi` — a deterministic fluid-rate MPI runtime whose ranks
  busy-wait like MPI-CH, so priority changes reshape application balance.
* :mod:`repro.workloads` — MetBench, BT-MZ and SIESTA models.
* :mod:`repro.core` — the contribution: static priority balancing, plus
  the dynamic balancer the paper proposes as future work.
* :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart::

    from repro import System, SystemConfig, ProcessMapping
    from repro.workloads import metbench_programs

    system = System(SystemConfig(kernel="patched"))
    result = system.run(
        metbench_programs(light_work=1.5e10, heavy_work=6.0e10),
        mapping=ProcessMapping.identity(4),
        priorities={0: 4, 1: 6, 2: 4, 3: 6},
    )
    print(result.total_time, result.imbalance_percent)
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    PrivilegeError,
    InvalidPriorityError,
    MpiError,
    DeadlockError,
    MappingError,
    TraceError,
    WorkloadError,
    SimulationError,
)
from repro.machine import ProcessMapping, System, SystemConfig, paper_mapping, paired_mapping
from repro.mpi import RunResult, RuntimeConfig, RankApi
from repro.smt import (
    HardwarePriority,
    PrivilegeLevel,
    decode_share,
    decode_allocation,
    slice_length,
    LoadProfile,
    AnalyticThroughputModel,
    ThroughputTable,
)
from repro.trace import Trace, TraceStats, compute_stats, render_gantt
from repro.cluster import (
    ClusterConfig,
    ClusterMachine,
    NetworkModel,
    NETWORK_KINDS,
    TopologySpec,
    UniformNetwork,
    TwoLevelTree,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "PrivilegeError",
    "InvalidPriorityError",
    "MpiError",
    "DeadlockError",
    "MappingError",
    "TraceError",
    "WorkloadError",
    "SimulationError",
    "ProcessMapping",
    "System",
    "SystemConfig",
    "paper_mapping",
    "paired_mapping",
    "RunResult",
    "RuntimeConfig",
    "RankApi",
    "HardwarePriority",
    "PrivilegeLevel",
    "decode_share",
    "decode_allocation",
    "slice_length",
    "LoadProfile",
    "AnalyticThroughputModel",
    "ThroughputTable",
    "Trace",
    "TraceStats",
    "compute_stats",
    "render_gantt",
    "ClusterConfig",
    "ClusterMachine",
    "NetworkModel",
    "NETWORK_KINDS",
    "TopologySpec",
    "UniformNetwork",
    "TwoLevelTree",
]
