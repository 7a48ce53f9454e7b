"""ClusterMachine: several POWER5 chips behind one chip-like interface.

Global logical CPU ids run ``0 .. 4*n_nodes - 1``: node ``k`` owns CPUs
``4k .. 4k+3`` (with the default 2-core/2-thread chips). The facade
implements everything :class:`~repro.mpi.runtime.MpiRuntime`,
:class:`~repro.kernel.hmt.HmtController` and the kernel models use on a
single chip — ``cores`` (flattened), ``set_load``/``set_priority``/
``priority`` by global CPU, ``config.n_cpus`` — plus ``core_groups``,
which the runtime uses to keep the throughput model's shared-cache
coupling within each chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.smt.chip import ChipConfig, Power5Chip
from repro.smt.core import SmtCore
from repro.smt.instructions import LoadProfile
from repro.smt.priorities import HardwarePriority
from repro.util.validation import check_positive

__all__ = ["ClusterConfig", "ClusterMachine"]


@dataclass(frozen=True)
class ClusterConfig:
    """A cluster of identical nodes."""

    n_nodes: int = 2
    chip: ChipConfig = field(default_factory=ChipConfig)

    def __post_init__(self) -> None:
        check_positive("n_nodes", self.n_nodes)

    @property
    def n_cpus(self) -> int:
        return self.n_nodes * self.chip.n_cpus

    @property
    def cpus_per_node(self) -> int:
        return self.chip.n_cpus

    #: The runtime only reads n_cpus and freq_hz from ``machine.config``.
    @property
    def freq_hz(self) -> float:
        return self.chip.freq_hz


class ClusterMachine:
    """Multi-chip machine with the single-chip surface on global CPUs."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.chips: List[Power5Chip] = [
            Power5Chip(self.config.chip) for _ in range(self.config.n_nodes)
        ]
        #: Global CPU -> (its core, thread), resolved once: the kernel
        #: and the dynamic balancer address contexts on every event.
        self._contexts: List[Tuple[SmtCore, int]] = [
            (core, thread)
            for chip in self.chips
            for core in chip.cores
            for thread in (0, 1)
        ]

    @property
    def cpus(self) -> List[int]:
        return list(range(self.config.n_cpus))

    # -- chip-like surface (flattened cores + per-chip groups) -------------------

    @property
    def cores(self) -> List[SmtCore]:
        """All cores, flattened in node order (global core = global cpu // 2)."""
        out: List[SmtCore] = []
        for chip in self.chips:
            out.extend(chip.cores)
        return out

    @property
    def core_groups(self) -> List[List[int]]:
        """Core indices per chip — the throughput-coupling domains."""
        per_chip = self.config.chip.n_cores
        return [
            list(range(k * per_chip, (k + 1) * per_chip))
            for k in range(self.config.n_nodes)
        ]

    def _context(self, cpu: int) -> Tuple[SmtCore, int]:
        if not 0 <= cpu < len(self._contexts):
            raise ConfigurationError(
                f"cpu must be in 0..{len(self._contexts) - 1}, got {cpu}"
            )
        return self._contexts[cpu]

    def priority(self, cpu: int) -> HardwarePriority:
        core, thread = self._context(cpu)
        return core.priority(thread)

    def set_priority(self, cpu: int, priority: int) -> None:
        core, thread = self._context(cpu)
        core.set_priority(thread, priority)

    def load(self, cpu: int) -> Optional[LoadProfile]:
        core, thread = self._context(cpu)
        return core.load(thread)

    def set_load(self, cpu: int, profile: Optional[LoadProfile]) -> None:
        core, thread = self._context(cpu)
        core.set_load(thread, profile)

    def reset(self) -> None:
        for chip in self.chips:
            chip.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterMachine(n_nodes={self.config.n_nodes})"
