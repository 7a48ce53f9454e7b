"""Search over mappings and priorities — automating the paper's case studies.

The paper finds good configurations by manually trying cases A-D per
application. These helpers enumerate (or greedily walk) the assignment
space and run each candidate through a :class:`~repro.machine.system.System`,
returning a ranking by total execution time. On the 4-rank machine the
exhaustive per-core space is small (priorities 3-6 per rank = 256
combinations, fewer after symmetry pruning), so exhaustive search is
practical with the analytic model.

The paper fixes the rank→context mapping and searches only priorities;
related work (ILP-aware scheduling, thread-to-core allocation families)
says the mapping is the bigger lever. :func:`candidate_mappings`
enumerates injective rank→CPU assignments — with **symmetry pruning**:
the chip's two contexts per core are interchangeable and its cores are
identical, so mappings inducing the same rank partition are physics
equivalent (digest-proven in ``tests/core/test_joint_search.py``; proof
sketch in ``docs/mapping.md``) and only each class's canonical
representative is evaluated. :func:`joint_search` crosses that axis
with the priority axis, and :func:`mapping_then_priority_search` is the
staged heuristic: pick the mapping from per-rank decode pressure
(:func:`rank_pressures` — work × ILP appetite from the profile's
miss/unit rates), then search priorities on it alone.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.balancer import PriorityAssignment
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping, paired_mapping
from repro.machine.system import System
from repro.mpi.process import RankProgram
from repro.smt.cache import CacheHierarchy
from repro.smt.instructions import BASE_PROFILES, LoadProfile
from repro.telemetry import default_registry

__all__ = [
    "SearchStats",
    "SearchResult",
    "candidate_assignments",
    "candidate_mappings",
    "candidate_placements",
    "canonical_placement",
    "exhaustive_priority_search",
    "greedy_priority_search",
    "joint_search",
    "mapping_then_priority_search",
    "placement_mapping",
    "rank_pressures",
    "paired_extremes_mapping",
    "paired_adjacent_mapping",
    "two_level_search",
]


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one search invocation.

    ``evaluations`` counts every candidate actually simulated — it is
    the honest cost figure even when the result keeps only the top N
    entries. Cache hits/misses are the throughput model's memo deltas
    over the search (all zeros when the model keeps no stats, and for
    worker-process caches, which die with their pool).
    """

    evaluations: int
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class SearchResult:
    """Ranking of evaluated assignments."""

    entries: Tuple[Tuple[PriorityAssignment, float, float], ...]
    """(assignment, total_time, imbalance_percent), best first."""

    stats: Optional[SearchStats] = None
    """Evaluation/cache accounting; ``None`` for hand-built results."""

    @property
    def best(self) -> PriorityAssignment:
        return self.entries[0][0]

    @property
    def best_time(self) -> float:
        return self.entries[0][1]

    @property
    def evaluated(self) -> int:
        """Candidates actually simulated.

        Historically this was ``len(entries)``, which under-reported
        whenever ``keep_top`` truncated the ranking; it now comes from
        :attr:`stats` when available.
        """
        if self.stats is not None:
            return self.stats.evaluations
        return len(self.entries)

    def improvement_over(self, reference_time: float) -> float:
        """Percent improvement of the best over a reference time."""
        if reference_time <= 0:
            raise ConfigurationError(f"reference_time must be > 0, got {reference_time}")
        return (reference_time - self.best_time) / reference_time * 100.0


def candidate_assignments(
    mapping: ProcessMapping,
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
) -> List[PriorityAssignment]:
    """All per-core priority combinations within ``levels`` and ``max_gap``.

    Per-core symmetry is pruned by fixing the *lower-numbered rank of a
    pair* to never exceed its sibling unless the combination is distinct —
    i.e. plain product filtered by gap; combinations equal after swapping
    identical levels are naturally unique. Priority pairs that only shift
    both levels (e.g. (3,3) vs (4,4)) are kept: absolute level matters at
    the boundaries (1 and 6) and for later dynamic adjustment headroom.
    """
    for lv in levels:
        if not 1 <= lv <= 6:
            raise ConfigurationError(f"levels must be OS-settable (1-6), got {lv}")
    pairs = mapping.core_pairs()
    per_core_choices: List[List[Dict[int, int]]] = []
    for pair in pairs:
        choices: List[Dict[int, int]] = []
        if len(pair) == 1:
            for lv in levels:
                choices.append({pair[0]: lv})
        else:
            a, b = pair
            for la, lb in itertools.product(levels, repeat=2):
                if abs(la - lb) <= max_gap:
                    choices.append({a: la, b: lb})
        per_core_choices.append(choices)
    out: List[PriorityAssignment] = []
    for combo in itertools.product(*per_core_choices):
        prios: Dict[int, int] = {}
        for d in combo:
            prios.update(d)
        out.append(PriorityAssignment.build(mapping, prios, label="search"))
    return out


def _model_cache_stats(system: System):
    """The model's memo counters, or ``None`` if it keeps none."""
    getter = getattr(system.model, "cache_stats", None)
    return getter() if callable(getter) else None


def _record_search(kind: str, stats: SearchStats, elapsed_s: float) -> None:
    """Publish one search's accounting into the default registry.

    One event per whole search — far off any hot path — so these are
    always on. :class:`SearchStats` stays the returned public shape;
    the registry is the cross-surface aggregate.
    """
    reg = default_registry()
    reg.counter(
        "repro_search_evaluations_total",
        "Candidate assignments actually simulated, by search kind.",
        labelnames=("kind",),
    ).labels(kind).inc(stats.evaluations)
    reg.counter(
        "repro_search_cache_hits_total",
        "Throughput-model memo hits during searches.",
        labelnames=("kind",),
    ).labels(kind).inc(max(0, stats.cache_hits))
    reg.counter(
        "repro_search_cache_misses_total",
        "Throughput-model memo misses during searches.",
        labelnames=("kind",),
    ).labels(kind).inc(max(0, stats.cache_misses))
    reg.histogram(
        "repro_search_seconds",
        "Wall seconds per search invocation.",
        labelnames=("kind",),
    ).labels(kind).observe(elapsed_s)


def _evaluate_assignment(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    assignment: PriorityAssignment,
) -> Tuple[float, float]:
    result = system.run(
        list(program_factory()),
        mapping=assignment.mapping,
        priorities=assignment.priority_dict,
        label=assignment.describe(),
    )
    return result.total_time, result.imbalance_percent


def _evaluate_candidate(payload) -> Tuple[float, float]:
    """Worker entry point for parallel search (module-level so it is
    picklable by :mod:`concurrent.futures`)."""
    system, program_factory, assignment = payload
    return _evaluate_assignment(system, program_factory, assignment)


def _ranked_search(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    candidates: Sequence[PriorityAssignment],
    keep_top: int,
    workers: int,
    kind: str,
) -> SearchResult:
    """Evaluate ``candidates`` (pool or serial), rank them, record stats.

    The shared engine behind the exhaustive, joint and staged searches:
    ``executor.map`` preserves candidate order, and each run is
    deterministic given (programs, mapping, priorities), so the ranking
    is byte-identical to the serial one. The system and factory must be
    picklable for the pool path; when they are not (e.g. a lambda
    factory), the search transparently falls back to the serial path.
    Worker model caches are private to the pool, so cross-candidate
    cache reuse — and the hit/miss accounting — only happens in serial
    mode.
    """
    if not candidates:
        raise ConfigurationError("search evaluated no candidates")
    before = _model_cache_stats(system)
    t0 = time.perf_counter()

    outcomes: Optional[List[Tuple[float, float]]] = None
    used_workers = 1
    if workers > 1 and len(candidates) > 1:
        try:
            n = min(int(workers), len(candidates))
            with ProcessPoolExecutor(max_workers=n) as pool:
                outcomes = list(
                    pool.map(
                        _evaluate_candidate,
                        [(system, program_factory, a) for a in candidates],
                    )
                )
            used_workers = n
        except Exception:
            # Unpicklable system/factory or a broken pool: evaluate
            # serially instead (any genuine simulation error will
            # re-raise below, from the same candidate).
            outcomes = None
    if outcomes is None:
        outcomes = [
            _evaluate_assignment(system, program_factory, a) for a in candidates
        ]

    entries: List[Tuple[PriorityAssignment, float, float]] = [
        (a, t, imb) for a, (t, imb) in zip(candidates, outcomes)
    ]
    after = _model_cache_stats(system)
    hits = misses = 0
    if before is not None and after is not None:
        hits = after.hits - before.hits
        misses = after.misses - before.misses
    stats = SearchStats(
        evaluations=len(candidates),
        cache_hits=hits,
        cache_misses=misses,
        workers=used_workers,
    )
    _record_search(kind, stats, time.perf_counter() - t0)
    entries.sort(key=lambda e: e[1])
    if keep_top > 0:
        entries = entries[:keep_top]
    return SearchResult(tuple(entries), stats=stats)


def exhaustive_priority_search(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    mapping: ProcessMapping,
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
    keep_top: int = 0,
    workers: int = 1,
) -> SearchResult:
    """Evaluate every candidate assignment; return them ranked.

    ``program_factory`` must build *fresh* generator programs per run
    (generators are single-use). Parallelism, determinism and the
    serial fallback are :func:`_ranked_search`'s contract.
    """
    candidates = candidate_assignments(mapping, levels, max_gap)
    return _ranked_search(
        system, program_factory, candidates, keep_top, workers, "exhaustive"
    )


def greedy_priority_search(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    mapping: ProcessMapping,
    start: Optional[PriorityAssignment] = None,
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
    max_steps: int = 20,
) -> SearchResult:
    """Hill-climb: try single-rank priority moves until no improvement.

    Far fewer runs than exhaustive search (the paper's manual procedure
    is essentially this loop); may stop in a local optimum.
    """
    if start is None:
        start = PriorityAssignment.build(
            mapping, {r: 4 for r in range(mapping.n_ranks)}, label="start"
        )

    before = _model_cache_stats(system)
    t0 = time.perf_counter()

    def evaluate(assignment: PriorityAssignment) -> Tuple[float, float]:
        return _evaluate_assignment(system, program_factory, assignment)

    current = start
    current_time, current_imb = evaluate(current)
    history: List[Tuple[PriorityAssignment, float, float]] = [
        (current, current_time, current_imb)
    ]
    for _ in range(max_steps):
        best_move: Optional[Tuple[PriorityAssignment, float, float]] = None
        prios = current.priority_dict
        for rank in range(mapping.n_ranks):
            for lv in levels:
                if lv == prios[rank]:
                    continue
                trial_prios = dict(prios)
                trial_prios[rank] = lv
                trial = PriorityAssignment.build(mapping, trial_prios, label="greedy")
                if trial.max_gap > max_gap:
                    continue
                t, imb = evaluate(trial)
                history.append((trial, t, imb))
                if best_move is None or t < best_move[1]:
                    best_move = (trial, t, imb)
        if best_move is None or best_move[1] >= current_time:
            break
        current, current_time, current_imb = best_move
    after = _model_cache_stats(system)
    hits = misses = 0
    if before is not None and after is not None:
        hits = after.hits - before.hits
        misses = after.misses - before.misses
    evaluations = len(history)
    stats = SearchStats(
        evaluations=evaluations, cache_hits=hits, cache_misses=misses
    )
    _record_search("greedy", stats, time.perf_counter() - t0)
    history.sort(key=lambda e: e[1])
    return SearchResult(tuple(history), stats=stats)


# -- the mapping axis -----------------------------------------------------------


def candidate_mappings(
    n_ranks: int,
    n_cores: int = 2,
    prune_symmetry: bool = True,
) -> List[ProcessMapping]:
    """Injective rank→CPU assignments on an ``n_cores``-core SMT chip.

    Unpruned, this is every ordered choice of ``n_ranks`` CPUs out of
    ``2 * n_cores`` — P(2c, r) mappings. With ``prune_symmetry`` (the
    default) only each physics-equivalence class's canonical
    representative survives (:meth:`ProcessMapping.canonical`): the two
    contexts of a core are interchangeable and cores are identical, so
    the class is really *which ranks share a core*, and the pruned count
    is the number of rank partitions into at most ``n_cores`` groups of
    at most two. On the paper chip (4 ranks, 2 cores) that is 24 → 3 —
    an 8x cut before a single candidate is simulated.

    Enumeration order is deterministic: lexicographic in the per-rank
    CPU tuple. The canonical representative is the lexicographic minimum
    of its class, so for tied objective values a stable ranking picks
    the same physics with or without pruning.
    """
    if n_cores <= 0:
        raise ConfigurationError(f"n_cores must be > 0, got {n_cores}")
    n_cpus = 2 * n_cores
    if not 0 < n_ranks <= n_cpus:
        raise ConfigurationError(
            f"n_ranks must be in 1..{n_cpus} on a {n_cores}-core chip, "
            f"got {n_ranks}"
        )
    out: List[ProcessMapping] = []
    for cpus in itertools.permutations(range(n_cpus), n_ranks):
        mapping = ProcessMapping(tuple(enumerate(cpus)))
        if prune_symmetry and not mapping.is_canonical():
            continue
        out.append(mapping)
    return out


def joint_search(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    n_ranks: int,
    n_cores: Optional[int] = None,
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
    keep_top: int = 0,
    workers: int = 1,
    prune_symmetry: bool = True,
    mappings: Optional[Sequence[ProcessMapping]] = None,
) -> SearchResult:
    """Search the joint (mapping × priority) space, ranked best first.

    The cross product of :func:`candidate_mappings` (symmetry-pruned by
    default; pass ``mappings`` to search an explicit shortlist instead)
    with :func:`candidate_assignments` per mapping. Every entry's
    :class:`~repro.core.balancer.PriorityAssignment` carries its mapping,
    so the result shape, the process-pool parallelism and the
    :class:`SearchStats` accounting are exactly the priority-only
    search's. ``n_cores`` defaults to the system's chip.
    """
    if n_cores is None:
        n_cores = system.config.chip.n_cores
    if mappings is None:
        mappings = candidate_mappings(n_ranks, n_cores, prune_symmetry)
    candidates: List[PriorityAssignment] = []
    for mapping in mappings:
        if mapping.n_ranks != n_ranks:
            raise ConfigurationError(
                f"mapping {mapping.as_dict()} has {mapping.n_ranks} ranks, "
                f"expected {n_ranks}"
            )
        candidates.extend(candidate_assignments(mapping, levels, max_gap))
    return _ranked_search(
        system, program_factory, candidates, keep_top, workers, "joint"
    )


# -- the placement axis (clusters) ----------------------------------------------
#
# On a cluster the assignment problem grows a third dimension above
# mapping and priority: *which node* each rank lives on. A placement is
# the per-node rank grouping — ``placement[k]`` is the sorted tuple of
# ranks on node ``k`` — and, like the mapping axis, most of the raw
# space is symmetry: identical nodes (and, on a two-level tree,
# identical switches) can be permuted without changing any latency any
# message ever sees.

Placement = Tuple[Tuple[int, ...], ...]


def canonical_placement(
    placement: Sequence[Sequence[int]],
    nodes_per_switch: Optional[int] = None,
) -> Placement:
    """The node-symmetry-canonical representative of a placement.

    Uniform network: every node is interchangeable, so the class is the
    *multiset* of rank groups — the canonical form sorts the non-empty
    groups (lexicographically, which for disjoint sorted groups is
    min-rank order) onto the lowest node ids and parks empty nodes last.
    Two-level tree (``nodes_per_switch`` given): nodes are only
    interchangeable *within* a switch and full switches with each other,
    so groups are sorted within each switch block and the full blocks
    sorted among themselves (a trailing partial block stays last).

    The canonical form is also the lexicographic minimum of the class
    under the per-rank node-id tuple, so pruned enumeration keeps
    exactly the candidate the unpruned sweep would rank first on a tie.
    """
    groups = [tuple(sorted(int(r) for r in g)) for g in placement]

    def group_key(g: Tuple[int, ...]):
        return (not g, g)  # non-empty groups first, in min-rank order

    if nodes_per_switch is None:
        return tuple(sorted(groups, key=group_key))
    if nodes_per_switch < 1:
        raise ConfigurationError(
            f"nodes_per_switch must be >= 1, got {nodes_per_switch}"
        )
    blocks = [
        tuple(sorted(groups[i:i + nodes_per_switch], key=group_key))
        for i in range(0, len(groups), nodes_per_switch)
    ]
    # Only same-size blocks are physics-interchangeable; at most the
    # last block is partial, and the key keeps it last.
    blocks.sort(key=lambda b: (len(b) != nodes_per_switch, b))
    return tuple(g for block in blocks for g in block)


def candidate_placements(
    n_ranks: int,
    n_nodes: int,
    cpus_per_node: int = 4,
    nodes_per_switch: Optional[int] = None,
    prune_symmetry: bool = True,
) -> List[Placement]:
    """Every way to spread ``n_ranks`` over ``n_nodes`` capacity-bounded
    nodes, optionally keeping only canonical representatives.

    Unpruned this is the capacity-filtered ``n_nodes ** n_ranks``
    per-rank node choice; with ``prune_symmetry`` (the default) one
    placement per :func:`canonical_placement` class survives — on 4
    ranks × 4 nodes that is 256 → 15, a 17x cut before a single
    candidate is simulated. Enumeration order is deterministic:
    lexicographic in the per-rank node tuple.
    """
    if n_ranks <= 0:
        raise ConfigurationError(f"n_ranks must be > 0, got {n_ranks}")
    if n_nodes <= 0:
        raise ConfigurationError(f"n_nodes must be > 0, got {n_nodes}")
    if cpus_per_node <= 0:
        raise ConfigurationError(
            f"cpus_per_node must be > 0, got {cpus_per_node}"
        )
    if n_ranks > n_nodes * cpus_per_node:
        raise ConfigurationError(
            f"{n_ranks} ranks cannot fit {n_nodes} nodes x "
            f"{cpus_per_node} CPUs"
        )
    out: List[Placement] = []
    for assign in itertools.product(range(n_nodes), repeat=n_ranks):
        groups: List[List[int]] = [[] for _ in range(n_nodes)]
        for rank, node in enumerate(assign):
            groups[node].append(rank)
        if any(len(g) > cpus_per_node for g in groups):
            continue
        placement = tuple(tuple(g) for g in groups)
        if prune_symmetry and placement != canonical_placement(
            placement, nodes_per_switch
        ):
            continue
        out.append(placement)
    return out


def placement_mapping(
    placement: Sequence[Sequence[int]], cpus_per_node: int = 4
) -> ProcessMapping:
    """The packed mapping a placement induces: node ``k``'s ranks on
    ascending global CPUs ``k*cpus_per_node ...``.

    Packing fixes the within-node core pairing (adjacent ranks share a
    core); the placement axis deliberately searches only *which node*,
    leaving within-node refinement to the priority stage. Do **not**
    compare placements through :meth:`ProcessMapping.canonical` — that
    repacks onto the lowest cores and would move ranks across nodes.
    """
    mapping: Dict[int, int] = {}
    for node, group in enumerate(placement):
        if len(group) > cpus_per_node:
            raise ConfigurationError(
                f"node {node} holds {len(group)} ranks > {cpus_per_node} CPUs"
            )
        for i, rank in enumerate(sorted(group)):
            mapping[int(rank)] = node * cpus_per_node + i
    return ProcessMapping.from_dict(mapping)


def two_level_search(
    system,
    program_factory: Callable[[], Sequence[RankProgram]],
    n_ranks: int,
    n_nodes: int,
    cpus_per_node: int = 4,
    nodes_per_switch: Optional[int] = None,
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
    keep_top: int = 0,
    workers: int = 1,
    prune_symmetry: bool = True,
    placements: Optional[Sequence[Placement]] = None,
) -> SearchResult:
    """Placement sweep, then per-node priority refinement.

    Stage one evaluates every candidate placement (symmetry-pruned by
    default; pass ``placements`` for an explicit shortlist) under flat
    MEDIUM priorities — on a cluster the placement decides which
    messages cross the network, which dwarfs any priority effect, so it
    is fixed first. Stage two walks the winning placement node by node,
    exhausting that node's per-core priority combinations (``levels``,
    ``max_gap`` — the same grammar as :func:`candidate_assignments`)
    while the other nodes hold their current best; a node's winner is
    adopted only on strict improvement. ``system`` is typically a
    multi-node :class:`~repro.machine.system.System`; anything with the
    ``System.run`` signature works. The result ranks everything both
    stages evaluated, best first.
    """
    if placements is None:
        placements = candidate_placements(
            n_ranks, n_nodes, cpus_per_node, nodes_per_switch, prune_symmetry
        )
    flat = {r: 4 for r in range(n_ranks)}
    stage1 = _ranked_search(
        system,
        program_factory,
        [
            PriorityAssignment.build(
                placement_mapping(p, cpus_per_node), flat, label="placement"
            )
            for p in placements
        ],
        0,
        workers,
        "placement",
    )
    best_entry = stage1.entries[0]
    mapping = best_entry[0].mapping

    entries: List[Tuple[PriorityAssignment, float, float]] = list(stage1.entries)
    evaluations = stage1.stats.evaluations
    hits, misses = stage1.stats.cache_hits, stage1.stats.cache_misses
    current = dict(flat)
    for node in range(n_nodes):
        by_core: Dict[int, List[int]] = {}
        for rank in range(n_ranks):
            cpu = mapping.cpu_of(rank)
            if cpu // cpus_per_node == node:
                by_core.setdefault(cpu // 2, []).append(rank)
        if not by_core:
            continue
        per_core_choices: List[List[Dict[int, int]]] = []
        for core in sorted(by_core):
            group = sorted(by_core[core])
            if len(group) == 1:
                per_core_choices.append([{group[0]: lv} for lv in levels])
            else:
                a, b = group
                per_core_choices.append([
                    {a: la, b: lb}
                    for la, lb in itertools.product(levels, repeat=2)
                    if abs(la - lb) <= max_gap
                ])
        candidates = []
        for combo in itertools.product(*per_core_choices):
            prios = dict(current)
            for d in combo:
                prios.update(d)
            candidates.append(
                PriorityAssignment.build(mapping, prios, label="two-level")
            )
        ranked = _ranked_search(
            system, program_factory, candidates, 0, workers, "two-level"
        )
        entries.extend(ranked.entries)
        evaluations += ranked.stats.evaluations
        hits += ranked.stats.cache_hits
        misses += ranked.stats.cache_misses
        if ranked.best_time < best_entry[1]:
            best_entry = ranked.entries[0]
            current = best_entry[0].priority_dict

    entries.sort(key=lambda e: e[1])
    if keep_top > 0:
        entries = entries[:keep_top]
    stats = SearchStats(
        evaluations=evaluations, cache_hits=hits, cache_misses=misses,
        workers=max(stage1.stats.workers, 1),
    )
    return SearchResult(tuple(entries), stats=stats)


# -- the staged heuristic -------------------------------------------------------

_CACHES = CacheHierarchy()


def _decode_appetite(profile: LoadProfile) -> float:
    """How many decode slots per cycle a profile can actually consume.

    Its ILP, discounted by the expected off-L1 stall cycles per memory
    instruction (the profile's miss chain priced at the hierarchy's
    latencies): a memory-bound thread is parked on misses most of the
    time and leaves its decode share to the sibling, which is exactly
    why ILP-aware allocation pairs it with a high-ILP neighbour.
    """
    levels = _CACHES.levels
    stall_cycles = profile.l1_miss_rate * (
        levels["l2"].latency
        + profile.l2_miss_rate
        * (levels["l3"].latency + profile.l3_miss_rate * _CACHES.memory.latency)
    )
    return profile.ilp / (1.0 + profile.memory_fraction * stall_cycles)


def rank_pressures(
    works: Sequence[float],
    profiles: Union[str, LoadProfile, Sequence[Union[str, LoadProfile]]] = "hpc",
) -> Tuple[float, ...]:
    """Per-rank decode pressure: work × the profile's decode appetite.

    The scalar the allocation heuristics sort by. With one profile for
    every rank (the common scenario shape) pressure orders exactly like
    work, so extreme-pairing degrades to the paper's BT-MZ move (heaviest
    with lightest); with per-rank profiles the miss/unit rates tilt the
    order toward pairing high-ILP with memory-bound ranks.
    """
    if isinstance(profiles, (str, LoadProfile)):
        profiles = [profiles] * len(works)
    if len(profiles) != len(works):
        raise ConfigurationError(
            f"{len(profiles)} profiles for {len(works)} works"
        )
    resolved = [
        BASE_PROFILES[p] if isinstance(p, str) else p for p in profiles
    ]
    return tuple(
        float(w) * _decode_appetite(p) for w, p in zip(works, resolved)
    )


def _pressure_order(pressures: Sequence[float]) -> List[int]:
    """Ranks sorted by (pressure, rank) — the deterministic tie-break."""
    return sorted(range(len(pressures)), key=lambda r: (pressures[r], r))


def paired_extremes_mapping(pressures: Sequence[float]) -> ProcessMapping:
    """Pair the highest-pressure rank with the lowest, and inward.

    The ILP-aware allocation move: each core gets one decode-hungry rank
    and one that leaves slots on the floor. Returns the canonical
    representative, so the choice is stable under input symmetries.
    """
    order = _pressure_order(pressures)
    pairs = []
    lo, hi = 0, len(order) - 1
    while lo < hi:
        pairs.append((order[lo], order[hi]))
        lo += 1
        hi -= 1
    mapping = {}
    for core, (a, b) in enumerate(pairs):
        mapping[a] = 2 * core
        mapping[b] = 2 * core + 1
    if lo == hi:  # odd rank count: the median rank gets a core to itself
        mapping[order[lo]] = 2 * len(pairs)
    return ProcessMapping.from_dict(mapping).canonical()


def paired_adjacent_mapping(pressures: Sequence[float]) -> ProcessMapping:
    """Pair like with like: adjacent ranks in pressure order share a core.

    The contrast case to :func:`paired_extremes_mapping` — two
    decode-hungry ranks fight for the same core's slots while an idle
    core's worth of bandwidth goes unused elsewhere.
    """
    order = _pressure_order(pressures)
    mapping = {}
    for i, rank in enumerate(order):
        mapping[rank] = i
    return ProcessMapping.from_dict(mapping).canonical()


def mapping_then_priority_search(
    system: System,
    program_factory: Callable[[], Sequence[RankProgram]],
    works: Sequence[float],
    profiles: Union[str, LoadProfile, Sequence[Union[str, LoadProfile]]] = "hpc",
    levels: Sequence[int] = (3, 4, 5, 6),
    max_gap: int = 2,
    keep_top: int = 0,
    workers: int = 1,
) -> SearchResult:
    """The staged heuristic: choose the mapping, then search priorities.

    Stage one costs no simulation at all — the mapping comes from
    :func:`rank_pressures` over the per-workload profiles
    :mod:`repro.smt` already models (extreme pairing, the ILP-aware
    allocation rule). Stage two is the exhaustive priority search on
    that single mapping. Against :func:`joint_search` this trades the
    mapping dimension's whole candidate factor for one pressure sort;
    ``benchmarks/bench_joint_search.py`` records how much of the joint
    optimum it recovers.
    """
    mapping = paired_extremes_mapping(rank_pressures(works, profiles))
    candidates = candidate_assignments(mapping, levels, max_gap)
    return _ranked_search(
        system, program_factory, candidates, keep_top, workers, "staged"
    )
