"""TopologySpec: the serialisable cluster-shape half of a scenario.

:class:`~repro.scenarios.ScenarioSpec` (v3) optionally carries one of
these to target an N-node cluster behind a network model instead of the
default single POWER5 chip. It is deliberately small — node count, a
network kind from :data:`~repro.cluster.topology.NETWORK_KINDS`, and the
network's parameter overrides — because it is part of the scenario wire
format: frozen, hashable (it participates in engine batch dedup keys),
strictly validated, and byte-stable under ``to_doc``/``from_doc``.

The node chips are always the paper's default
:class:`~repro.smt.chip.ChipConfig` (2 cores × 2 threads): node ``k``
owns global CPUs ``4k .. 4k+3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Union

from repro.cluster.topology import NETWORK_KINDS, NetworkModel, network_from_doc
from repro.errors import ConfigurationError, ValidationError
from repro.smt.chip import ChipConfig
from repro.util.fingerprint import fingerprint_doc
from repro.util.validation import check_choice

__all__ = ["TopologySpec"]

_CPUS_PER_NODE = ChipConfig().n_cpus

_ParamValue = Union[int, float]


def _freeze_topology_params(
    params: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]],
) -> Tuple[Tuple[str, _ParamValue], ...]:
    """Canonical params form: key-sorted tuple of scalar pairs."""
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"topology param {key!r} must be a number, got {value!r}"
            )
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class TopologySpec:
    """A declarative cluster shape: N default-chip nodes behind a network."""

    n_nodes: int
    #: Network kind, one of :data:`~repro.cluster.topology.NETWORK_KINDS`.
    network: str = "uniform"
    #: Overrides for the network model's parameters (scalars only),
    #: canonically key-sorted. Empty = the network kind's defaults.
    params: Tuple[Tuple[str, _ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.n_nodes, bool) or not isinstance(self.n_nodes, int):
            raise ConfigurationError(
                f"topology n_nodes must be an int, got {self.n_nodes!r}"
            )
        if self.n_nodes < 1:
            raise ConfigurationError(
                f"topology n_nodes must be >= 1, got {self.n_nodes}"
            )
        check_choice("topology.network", self.network, NETWORK_KINDS)
        object.__setattr__(self, "params", _freeze_topology_params(self.params))
        # Building the model validates the param names and values against
        # the network kind's strict document schema.
        try:
            self.network_model()
        except ValidationError as exc:
            raise ConfigurationError(f"invalid topology params: {exc}") from exc

    # -- derived views ---------------------------------------------------------

    @property
    def n_cpus(self) -> int:
        """Global logical CPUs the cluster exposes (4 per node)."""
        return self.n_nodes * _CPUS_PER_NODE

    @property
    def cpus_per_node(self) -> int:
        return _CPUS_PER_NODE

    def network_model(self) -> NetworkModel:
        """Instantiate the network model this spec names."""
        doc: Dict[str, Any] = {"kind": self.network}
        doc.update(dict(self.params))
        return network_from_doc(doc)

    # -- serialisation ---------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe canonical document (``params`` omitted when empty)."""
        doc: Dict[str, Any] = {"n_nodes": self.n_nodes, "network": self.network}
        if self.params:
            doc["params"] = dict(self.params)
        return doc

    _FIELDS = ("n_nodes", "network", "params")

    @classmethod
    def from_doc(cls, doc: object) -> "TopologySpec":
        """Strict inverse of :meth:`to_doc` — unknown fields rejected."""
        if not isinstance(doc, Mapping):
            raise ValidationError(
                f"topology document must be a mapping, got {type(doc).__name__}"
            )
        unknown = sorted(set(doc) - set(cls._FIELDS))
        if unknown:
            raise ValidationError(f"unknown topology fields: {unknown}")
        if "n_nodes" not in doc:
            raise ValidationError("topology document needs 'n_nodes'")
        network = doc.get("network", "uniform")
        if not isinstance(network, str):
            raise ValidationError(
                f"topology field 'network' must be a string, got {network!r}"
            )
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError(
                f"topology field 'params' must be an object, got {params!r}"
            )
        try:
            return cls(
                n_nodes=doc["n_nodes"],
                network=network,
                params=_freeze_topology_params(params),
            )
        except ConfigurationError as exc:
            raise ValidationError(f"invalid topology document: {exc}") from exc

    @property
    def fingerprint(self) -> str:
        """Canonical content hash of :meth:`to_doc` (memoised)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_doc(self.to_doc())
            object.__setattr__(self, "_fingerprint", cached)
        return cached
