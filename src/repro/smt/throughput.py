"""Measured throughput tables: the cycle simulator behind a memo cache.

:class:`ThroughputTable` answers the same query as
:class:`~repro.smt.analytic.AnalyticThroughputModel` — per-thread IPC for
``(load_a, load_b, prio_a, prio_b)`` — but by *running* the cycle-level
pipeline for a measurement window and caching the result. It is the
ground truth the analytic model is validated against, and can be plugged
into the MPI runtime for higher-fidelity (slower) experiments.

Both models satisfy the informal ``ThroughputModel`` protocol used by
:mod:`repro.mpi.runtime`: a ``core_ipc(profile_a, profile_b, prio_a,
prio_b) -> (ipc_a, ipc_b)`` method.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import PersistenceError
from repro.smt.cache import CacheHierarchy
from repro.smt.instructions import LoadProfile
from repro.smt.pipeline import CorePipeline, PipelineConfig
from repro.util.fingerprint import fingerprint_doc
from repro.util.jsonfile import write_json_atomic
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["ThroughputResult", "ThroughputTable"]


@dataclass(frozen=True)
class ThroughputResult:
    """One measured operating point of a core."""

    ipc_a: float
    ipc_b: float
    decode_share_a: float
    decode_share_b: float
    cycles: int

    @property
    def pair(self) -> Tuple[float, float]:
        return (self.ipc_a, self.ipc_b)


class ThroughputTable:
    """Memoised cycle-simulator measurements.

    Parameters
    ----------
    warmup_cycles:
        Cycles run (and discarded) before the measurement window, so the
        pipeline reaches steady state (pools populated, caches warm).
    measure_cycles:
        Length of the measurement window. 40k cycles gives IPC stable to
        ~2 % for the bundled profiles.
    seed:
        Root seed of the measurement RNG streams; measurements are
        deterministic per (key, seed).
    """

    def __init__(
        self,
        warmup_cycles: int = 10_000,
        measure_cycles: int = 40_000,
        seed: int = 0,
        pipeline_config: Optional[PipelineConfig] = None,
    ) -> None:
        check_positive("warmup_cycles", warmup_cycles)
        check_positive("measure_cycles", measure_cycles)
        self.warmup_cycles = int(warmup_cycles)
        self.measure_cycles = int(measure_cycles)
        self.seed = int(seed)
        self.pipeline_config = pipeline_config or PipelineConfig()
        self._streams = RngStreams(seed)
        self._cache: Dict[tuple, ThroughputResult] = {}

    def _key(
        self,
        profile_a: Optional[LoadProfile],
        profile_b: Optional[LoadProfile],
        prio_a: int,
        prio_b: int,
    ) -> tuple:
        return (
            profile_a.name if profile_a else None,
            profile_b.name if profile_b else None,
            int(prio_a),
            int(prio_b),
        )

    def measure(
        self,
        profile_a: Optional[LoadProfile],
        profile_b: Optional[LoadProfile],
        prio_a: int,
        prio_b: int,
    ) -> ThroughputResult:
        """Measure (or fetch the cached) operating point for this key."""
        key = self._key(profile_a, profile_b, prio_a, prio_b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        rng = self._streams.spawn(str(key)).get("pipeline")
        pipe = CorePipeline(
            (profile_a, profile_b),
            (int(prio_a), int(prio_b)),
            rng,
            config=self.pipeline_config,
            caches=CacheHierarchy(),
        )
        pipe.run(self.warmup_cycles)
        before = tuple(c.completed for c in pipe.counters)
        granted_before = tuple(c.decode_cycles_granted for c in pipe.counters)
        ca, cb = pipe.run(self.measure_cycles)
        window = self.measure_cycles
        result = ThroughputResult(
            ipc_a=(ca.completed - before[0]) / window,
            ipc_b=(cb.completed - before[1]) / window,
            decode_share_a=(ca.decode_cycles_granted - granted_before[0]) / window,
            decode_share_b=(cb.decode_cycles_granted - granted_before[1]) / window,
            cycles=window,
        )
        self._cache[key] = result
        return result

    def core_ipc(
        self,
        profile_a: Optional[LoadProfile],
        profile_b: Optional[LoadProfile],
        prio_a: int,
        prio_b: int,
        external_traffic: float = 0.0,
    ) -> Tuple[float, float]:
        """ThroughputModel-protocol adapter (cross-core traffic ignored —
        the cycle model is per-core; documented fidelity trade-off)."""
        del external_traffic
        return self.measure(profile_a, profile_b, prio_a, prio_b).pair

    def chip_ipc(self, core_states) -> Tuple[Tuple[float, float], ...]:
        """Per-core measurement without cross-core coupling."""
        return tuple(self.core_ipc(pa, pb, xa, xb) for (pa, pb, xa, xb) in core_states)

    @property
    def cached_keys(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- persistence -----------------------------------------------------------

    FORMAT = "repro-throughput-table"
    VERSION = 1

    @property
    def fingerprint(self) -> str:
        """Hash of everything a measurement depends on.

        Two tables agree on every possible entry iff their fingerprints
        match: warmup/measure windows, RNG seed, and the pipeline
        configuration (resource pool sizes included).  A persisted file
        carries this so stale tables are never silently reused.
        """
        pc = self.pipeline_config
        payload = {
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seed": self.seed,
            "pipeline": {
                "decode_width": pc.decode_width,
                "retire_width": pc.retire_width,
                "branch_flush_penalty": pc.branch_flush_penalty,
                "gct": [pc.gct_spec.name, pc.gct_spec.capacity, pc.gct_spec.per_thread_cap],
                "rename": [
                    pc.rename_spec.name,
                    pc.rename_spec.capacity,
                    pc.rename_spec.per_thread_cap,
                ],
                "rename_per_instr": pc.rename_per_instr,
            },
        }
        return fingerprint_doc(payload)

    def save(self, path: str) -> int:
        """Persist every cached measurement to ``path`` (JSON).

        The write is atomic (temp file + rename) so a concurrent reader
        never sees a torn table.  Returns the number of entries written.
        """
        entries = []
        for key in sorted(self._cache, key=repr):
            r = self._cache[key]
            entries.append(
                {
                    "key": list(key),
                    "ipc_a": r.ipc_a,
                    "ipc_b": r.ipc_b,
                    "decode_share_a": r.decode_share_a,
                    "decode_share_b": r.decode_share_b,
                    "cycles": r.cycles,
                }
            )
        doc = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "fingerprint": self.fingerprint,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seed": self.seed,
            "entries": entries,
        }
        write_json_atomic(path, doc)
        return len(entries)

    def load(self, path: str, strict: bool = False) -> int:
        """Merge measurements persisted at ``path`` into the cache.

        Entries are only accepted when the file's fingerprint matches
        this table's (same windows, seed and pipeline config); a
        mismatched or missing file is skipped and 0 returned, unless
        ``strict`` is true, in which case :class:`PersistenceError` is
        raised.  Returns the number of entries loaded.
        """
        if not os.path.exists(path):
            if strict:
                raise PersistenceError(f"throughput table not found: {path}")
            return 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"unreadable throughput table {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != self.FORMAT:
            raise PersistenceError(f"{path} is not a throughput table file")
        if doc.get("version") != self.VERSION:
            if strict:
                raise PersistenceError(
                    f"{path}: unsupported table version {doc.get('version')!r}"
                )
            return 0
        if doc.get("fingerprint") != self.fingerprint:
            if strict:
                raise PersistenceError(
                    f"{path}: fingerprint mismatch — table was measured under a "
                    "different pipeline config/seed; re-measure or delete it"
                )
            return 0
        loaded = 0
        for entry in doc.get("entries", ()):
            try:
                raw_key = entry["key"]
                key = (raw_key[0], raw_key[1], int(raw_key[2]), int(raw_key[3]))
                result = ThroughputResult(
                    ipc_a=float(entry["ipc_a"]),
                    ipc_b=float(entry["ipc_b"]),
                    decode_share_a=float(entry["decode_share_a"]),
                    decode_share_b=float(entry["decode_share_b"]),
                    cycles=int(entry["cycles"]),
                )
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"{path}: malformed table entry {entry!r}"
                ) from exc
            if key not in self._cache:
                self._cache[key] = result
                loaded += 1
        return loaded
