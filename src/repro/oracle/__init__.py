"""Invariant-checking oracle layer.

Three pillars, one package:

* :mod:`repro.oracle.invariants` — registry of machine-checkable facts
  the paper fixes (Table II/III decode arbitration, IPC monotonicity,
  trace conservation) plus :mod:`repro.oracle.checker`, which attaches
  them to live runs and finished results.
* :mod:`repro.oracle.differential` — the same
  :class:`~repro.scenarios.ScenarioSpec` pushed through every engine in
  the :mod:`repro.scenarios` registry and compared under declared
  tolerances; includes the seeded fuzz driver. (``ScenarioGenerator``
  is a re-export kept for compatibility.)
* :mod:`repro.oracle.golden` — versioned golden-trace snapshots under
  ``tests/golden/`` with ``record``/``check`` replay.
"""

from repro.oracle.checker import (
    CheckReport,
    InvariantChecker,
    RuntimeChecker,
    verify_decode_law,
    verify_model,
    verify_run,
    verify_trace,
)
from repro.oracle.differential import (
    ClusterEquivalenceCheck,
    ConformanceResult,
    ScenarioGenerator,
    Tolerances,
    check_cluster_equivalence,
    check_conformance,
    fuzz,
    trace_digest,
)
from repro.oracle.golden import (
    GOLDEN_FORMAT,
    GOLDEN_VERSION,
    GoldenCheck,
    JointSearchCheck,
    check_all,
    check_joint_search,
    default_scenarios,
    record_all,
)
from repro.oracle.invariants import (
    PAPER_TABLE_II,
    PAPER_TABLE_III,
    Invariant,
    REGISTRY,
    invariants_for_scope,
)

__all__ = [
    "CheckReport",
    "InvariantChecker",
    "RuntimeChecker",
    "verify_decode_law",
    "verify_model",
    "verify_run",
    "verify_trace",
    "ClusterEquivalenceCheck",
    "ConformanceResult",
    "ScenarioGenerator",
    "Tolerances",
    "check_cluster_equivalence",
    "check_conformance",
    "fuzz",
    "trace_digest",
    "GOLDEN_FORMAT",
    "GOLDEN_VERSION",
    "GoldenCheck",
    "JointSearchCheck",
    "check_all",
    "check_joint_search",
    "default_scenarios",
    "record_all",
    "PAPER_TABLE_II",
    "PAPER_TABLE_III",
    "Invariant",
    "REGISTRY",
    "invariants_for_scope",
]
