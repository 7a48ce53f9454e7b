"""Multi-node machines: several POWER5 chips behind a network model.

The paper runs on one OpenPower 710 but motivates everything with
MareNostrum (10 240 CPUs): imbalance wastes a *cluster*. This subpackage
scales the simulation to many nodes:

* :mod:`repro.cluster.topology` — network models (uniform, two-level
  switch tree), providing per-node-pair latency/bandwidth. Distant
  neighbours are one of the paper's extrinsic imbalance causes.
* :mod:`repro.cluster.machine` — :class:`ClusterMachine`, a multi-chip
  machine exposing the single-chip interface on global CPU ids (the MPI
  runtime and kernel layers work unchanged), with per-chip core groups so
  shared-cache coupling stays within a chip.
* :mod:`repro.cluster.system` — ``ClusterSystem`` and
  ``ClusterSystemConfig``, former names kept for older callers:
  :class:`repro.machine.system.System` runs every machine, and
  ``SystemConfig(n_nodes=..., network=...)`` describes a cluster.
* :mod:`repro.cluster.spec` — :class:`TopologySpec`, the frozen,
  strictly-serialisable cluster shape a v3
  :class:`~repro.scenarios.ScenarioSpec` may carry.
"""

from repro.cluster.topology import (
    NETWORK_KINDS,
    NetworkModel,
    TwoLevelTree,
    UniformNetwork,
    network_from_doc,
)
from repro.cluster.machine import ClusterMachine, ClusterConfig
from repro.cluster.spec import TopologySpec

__all__ = [
    "NETWORK_KINDS",
    "NetworkModel",
    "UniformNetwork",
    "TwoLevelTree",
    "network_from_doc",
    "ClusterMachine",
    "ClusterConfig",
    "ClusterSystem",
    "ClusterSystemConfig",
    "TopologySpec",
]


def __getattr__(name: str):
    # The compatibility names import the runner, which imports this
    # package; resolving them on first use keeps the import acyclic.
    if name in ("ClusterSystem", "ClusterSystemConfig"):
        from repro.cluster import system

        return getattr(system, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
