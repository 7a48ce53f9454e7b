"""Compatibility names for the former multi-node runner.

:class:`repro.machine.system.System` runs every machine, one node or
many: ``SystemConfig(n_nodes=..., network=...)`` describes a cluster.
These two names keep older call sites working and add nothing.
"""

from __future__ import annotations

from repro.cluster.machine import ClusterConfig
from repro.cluster.topology import NetworkModel, UniformNetwork
from repro.machine.system import System, SystemConfig

__all__ = ["ClusterSystemConfig", "ClusterSystem"]


def ClusterSystemConfig(  # noqa: N802 - keeps the former class name
    cluster: ClusterConfig = ClusterConfig(),
    network: NetworkModel = UniformNetwork(),
    **fields,
) -> SystemConfig:
    """The :class:`SystemConfig` of ``cluster`` behind ``network``."""
    return SystemConfig(
        chip=cluster.chip, n_nodes=cluster.n_nodes, network=network, **fields
    )


class ClusterSystem(System):
    """:class:`System` under its former multi-node name."""
