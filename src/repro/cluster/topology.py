"""Cluster network models.

Section II-B (extrinsic imbalance, "network topology"): *"if the job
scheduler has placed processes that need to communicate 'far away', their
communication latency could increase so much that the whole application
will be affected."* These models supply per-node-pair latency and
bandwidth; rank-pair communication costs are derived from them by
:class:`~repro.machine.system.System`.

Every concrete model carries a ``kind`` discriminator and serialises
through strict ``to_doc``/``from_doc`` (unknown fields rejected, like
:meth:`repro.scenarios.ScenarioSpec.from_doc`), so topologies can be
fingerprinted, cached, and embedded in scenario documents.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type

from repro.errors import ConfigurationError, ValidationError
from repro.util.fingerprint import fingerprint_doc
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "NETWORK_KINDS",
    "NetworkModel",
    "UniformNetwork",
    "TwoLevelTree",
    "network_from_doc",
]

#: Registered network-model discriminators (doc ``kind`` values).
NETWORK_KINDS = ("uniform", "two-level-tree")


def _check_doc_fields(
    kind: str, doc: Mapping[str, Any], allowed: Tuple[str, ...]
) -> None:
    """Reject non-mapping docs and unknown fields (strict wire format)."""
    if not isinstance(doc, Mapping):
        raise ValidationError(
            f"{kind} network document must be a mapping, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - set(allowed) - {"kind"})
    if unknown:
        raise ValidationError(f"unknown {kind} network fields: {unknown}")


def _doc_number(kind: str, doc: Mapping[str, Any], field: str, default: Any) -> Any:
    value = doc.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{kind} network field {field!r} must be a number, "
            f"got {type(value).__name__}"
        )
    return value


class NetworkModel(ABC):
    """Per-node-pair transfer parameters."""

    #: Wire-format discriminator; one of :data:`NETWORK_KINDS`.
    kind: ClassVar[str] = ""

    @abstractmethod
    def latency(self, node_a: int, node_b: int) -> float:
        """One-way latency in seconds between two nodes (0 for a == b)."""

    @abstractmethod
    def bandwidth(self, node_a: int, node_b: int) -> float:
        """Link bandwidth in bytes/second between two nodes."""

    @abstractmethod
    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe document (round-trips through :func:`network_from_doc`)."""

    @property
    def fingerprint(self) -> str:
        """Canonical content hash of :meth:`to_doc`."""
        return fingerprint_doc(self.to_doc())

    def check_node(self, node: int) -> None:
        if node < 0:
            raise ConfigurationError(f"node index must be >= 0, got {node}")


@dataclass(frozen=True)
class UniformNetwork(NetworkModel):
    """Every node pair has the same parameters (a flat switch).

    Myrinet-class defaults, roughly MareNostrum's interconnect era.
    """

    kind: ClassVar[str] = "uniform"

    inter_latency: float = 6.0e-6
    inter_bandwidth: float = 250e6

    def __post_init__(self) -> None:
        check_non_negative("inter_latency", self.inter_latency)
        check_positive("inter_bandwidth", self.inter_bandwidth)

    def latency(self, node_a: int, node_b: int) -> float:
        self.check_node(node_a)
        self.check_node(node_b)
        return 0.0 if node_a == node_b else self.inter_latency

    def bandwidth(self, node_a: int, node_b: int) -> float:
        self.check_node(node_a)
        self.check_node(node_b)
        return float("inf") if node_a == node_b else self.inter_bandwidth

    def to_doc(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "inter_latency": self.inter_latency,
            "inter_bandwidth": self.inter_bandwidth,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "UniformNetwork":
        _check_doc_fields(cls.kind, doc, ("inter_latency", "inter_bandwidth"))
        try:
            return cls(
                inter_latency=float(
                    _doc_number(cls.kind, doc, "inter_latency", cls.inter_latency)
                ),
                inter_bandwidth=float(
                    _doc_number(cls.kind, doc, "inter_bandwidth", cls.inter_bandwidth)
                ),
            )
        except ConfigurationError as exc:
            raise ValidationError(f"invalid uniform network document: {exc}") from exc


@dataclass(frozen=True)
class TwoLevelTree(NetworkModel):
    """Nodes grouped under leaf switches; crossing the spine costs more.

    Nodes ``k*nodes_per_switch .. (k+1)*nodes_per_switch - 1`` share leaf
    switch ``k``. Same-switch pairs pay ``near_latency``; pairs in
    different sub-trees pay ``far_latency`` and the (lower) spine
    bandwidth — the "far away in the network" scenario.
    """

    kind: ClassVar[str] = "two-level-tree"

    nodes_per_switch: int = 4
    near_latency: float = 6.0e-6
    far_latency: float = 18.0e-6
    near_bandwidth: float = 250e6
    far_bandwidth: float = 120e6

    def __post_init__(self) -> None:
        check_positive("nodes_per_switch", self.nodes_per_switch)
        check_non_negative("near_latency", self.near_latency)
        check_non_negative("far_latency", self.far_latency)
        check_positive("near_bandwidth", self.near_bandwidth)
        check_positive("far_bandwidth", self.far_bandwidth)
        if self.far_latency < self.near_latency:
            raise ConfigurationError("far_latency must be >= near_latency")

    def switch_of(self, node: int) -> int:
        self.check_node(node)
        return node // self.nodes_per_switch

    def latency(self, node_a: int, node_b: int) -> float:
        self.check_node(node_a)
        self.check_node(node_b)
        if node_a == node_b:
            return 0.0
        if self.switch_of(node_a) == self.switch_of(node_b):
            return self.near_latency
        return self.far_latency

    def bandwidth(self, node_a: int, node_b: int) -> float:
        self.check_node(node_a)
        self.check_node(node_b)
        if node_a == node_b:
            return float("inf")
        if self.switch_of(node_a) == self.switch_of(node_b):
            return self.near_bandwidth
        return self.far_bandwidth

    def to_doc(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "nodes_per_switch": self.nodes_per_switch,
            "near_latency": self.near_latency,
            "far_latency": self.far_latency,
            "near_bandwidth": self.near_bandwidth,
            "far_bandwidth": self.far_bandwidth,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TwoLevelTree":
        _check_doc_fields(
            cls.kind,
            doc,
            (
                "nodes_per_switch",
                "near_latency",
                "far_latency",
                "near_bandwidth",
                "far_bandwidth",
            ),
        )
        nodes_per_switch = doc.get("nodes_per_switch", cls.nodes_per_switch)
        if isinstance(nodes_per_switch, bool) or not isinstance(nodes_per_switch, int):
            raise ValidationError(
                "two-level-tree field 'nodes_per_switch' must be an int, "
                f"got {type(nodes_per_switch).__name__}"
            )
        try:
            return cls(
                nodes_per_switch=nodes_per_switch,
                near_latency=float(
                    _doc_number(cls.kind, doc, "near_latency", cls.near_latency)
                ),
                far_latency=float(
                    _doc_number(cls.kind, doc, "far_latency", cls.far_latency)
                ),
                near_bandwidth=float(
                    _doc_number(cls.kind, doc, "near_bandwidth", cls.near_bandwidth)
                ),
                far_bandwidth=float(
                    _doc_number(cls.kind, doc, "far_bandwidth", cls.far_bandwidth)
                ),
            )
        except ConfigurationError as exc:
            raise ValidationError(
                f"invalid two-level-tree network document: {exc}"
            ) from exc


_NETWORK_TYPES: Dict[str, Type[NetworkModel]] = {
    UniformNetwork.kind: UniformNetwork,
    TwoLevelTree.kind: TwoLevelTree,
}


def network_from_doc(doc: Mapping[str, Any]) -> NetworkModel:
    """Rebuild a network model from its document (``kind``-dispatched)."""
    if not isinstance(doc, Mapping):
        raise ValidationError(
            f"network document must be a mapping, got {type(doc).__name__}"
        )
    kind = doc.get("kind")
    if kind not in _NETWORK_TYPES:
        raise ValidationError(
            f"unknown network kind {kind!r}; expected one of {NETWORK_KINDS}"
        )
    return _NETWORK_TYPES[kind].from_doc(doc)
