"""The fluid-rate discrete-event MPI runtime.

Each rank program advances through *work* (instructions) at a rate set by
the SMT throughput model for the current machine state — co-runner loads
and hardware priorities per core. Between state changes rates are
constant, so the next interesting instant is computed exactly:

* the earliest compute completion ``now + remaining/rate``, or
* the earliest scheduled event (message transfer completion, collective
  release, kernel interrupt/noise, noise end).

At each instant the runtime fires due events, advances the affected rank
generators (which may post new operations, change priorities, block or
finish), re-derives per-context rates from the chip state, and repeats.
Everything is deterministic: ties are broken by sequence numbers, and all
stochastic inputs (noise arrival times) come from named RNG streams.

Waiting semantics (``RuntimeConfig.wait_mode``):

``"spin"`` (default, MPI-CH behaviour)
    A blocked rank runs the spin-loop profile on its hardware context at
    its current priority — it *keeps consuming decode slots and shared
    resources*, slowing its core sibling. This is the effect the paper's
    balancing exploits.
``"block"``
    A blocked rank vacates its context (load ``None``), as a
    sleep-waiting MPI would. Provided for the ablation benchmark.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    DeadlockError,
    MappingError,
    SimulationError,
)
from repro.kernel.hmt import HmtController
from repro.kernel.interrupts import KernelEvent
from repro.kernel.kernel import KernelModel
from repro.mpi.collectives import CollectiveManager
from repro.mpi.communicator import Communicator
from repro.mpi.p2p import CommCosts, MessageEngine
from repro.mpi.process import (
    AllgatherOp,
    AllreduceOp,
    AlltoallOp,
    BarrierOp,
    BcastOp,
    ComputeOp,
    GatherOp,
    IrecvOp,
    IsendOp,
    Op,
    RankApi,
    RankProgram,
    RecvOp,
    ReduceOp,
    ScatterOp,
    SendOp,
    SendrecvOp,
    SetPriorityOp,
    WaitOp,
    WaitallOp,
)
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.smt.chip import Power5Chip
from repro.smt.instructions import BASE_PROFILES, LoadProfile
from repro.telemetry import default_registry as _telemetry_registry
from repro.telemetry import enabled as _telemetry_enabled
from repro.trace.events import RankState
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace
from repro.util.deadline import check_deadline, current_deadline
from repro.util.units import POWER5_FREQ_HZ
from repro.util.validation import check_positive

__all__ = ["RuntimeConfig", "RunResult", "MpiRuntime"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Behavioural knobs of the runtime."""

    wait_mode: str = "spin"
    spin_profile: str = "spin"
    #: Load profile contexts run while executing kernel handlers/daemons.
    noise_profile: str = "int"
    comm_costs: CommCosts = field(default_factory=CommCosts)
    #: Hard wall on simulated seconds, to catch runaway programs.
    time_limit: float = 1e5
    #: Hard wall on processed events.
    max_events: int = 2_000_000
    #: Temporal tolerance for simultaneity.
    epsilon: float = 1e-9
    #: Per-core-group dirty tracking: a state change on one chip only
    #: re-solves that chip's IPC. Disable to force a full re-solve on
    #: every state change (equivalence testing / ablation — results are
    #: identical either way).
    incremental_rates: bool = True
    #: Attach the oracle layer's :class:`~repro.oracle.checker.RuntimeChecker`
    #: to this run: every rate re-solve and time advance is checked live
    #: (finite non-negative rates, monotone time) and the finished result
    #: is swept against the decode/trace/run invariants. Off by default;
    #: when off the event loop pays a single ``is None`` test per
    #: iteration.
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.wait_mode not in ("spin", "block"):
            raise ConfigurationError(
                f"wait_mode must be 'spin' or 'block', got {self.wait_mode!r}"
            )
        check_positive("time_limit", self.time_limit)
        check_positive("max_events", self.max_events)
        check_positive("epsilon", self.epsilon)


@dataclass
class RunResult:
    """Everything an experiment needs from one simulated run."""

    label: str
    trace: Trace
    stats: TraceStats
    total_time: float
    events_processed: int
    priority_history_len: int
    final_priorities: Tuple[int, ...]

    @property
    def imbalance_percent(self) -> float:
        return self.stats.imbalance_percent


class _PState:
    READY = "ready"
    COMPUTING = "computing"
    BLOCKED = "blocked"
    NOISE = "noise"
    DONE = "done"


class _Proc:
    """Runtime-internal per-rank state."""

    __slots__ = (
        "rank",
        "cpu",
        "core_idx",
        "thread",
        "gen",
        "state",
        "remaining",
        "rate",
        "profile_name",
        "trace_state",
        "timeline",
        "compute_trace_state",
        "resume_value",
        "awaiting",
        "single_wait",
        "blocked_trace_state",
        "noise_resume",
        "released",
    )

    def __init__(self, rank: int, cpu: int, gen: Generator[Op, object, None]) -> None:
        self.rank = rank
        self.cpu = cpu
        self.core_idx = cpu // 2
        self.thread = cpu % 2
        self.gen = gen
        self.state = _PState.READY
        self.remaining = 0.0
        self.rate = 0.0  # instructions/second while computing
        self.profile_name: Optional[str] = None
        self.trace_state: Optional[RankState] = None
        self.timeline = None  # bound to the rank's RankTimeline by the runtime
        #: Which useful state (COMPUTE/INIT/FINAL) the current compute is.
        self.compute_trace_state: RankState = RankState.COMPUTE
        self.resume_value: object = None
        #: Requests this rank is blocked on (empty + blocked = collective).
        self.awaiting: Set[int] = set()
        #: The single request whose status becomes the resume value.
        self.single_wait: Optional[Request] = None
        self.blocked_trace_state: RankState = RankState.SYNC
        #: What to restore after a noise preemption ends.
        self.noise_resume: Optional[str] = None
        #: Unblock arrived while this rank was preempted by noise.
        self.released: bool = False


class MpiRuntime:
    """Coordinator of rank programs over the simulated machine.

    Parameters
    ----------
    chip, kernel, hmt:
        The machine (see :mod:`repro.machine.system` for convenient
        wiring).
    model:
        A throughput model with ``chip_ipc(core_states)`` —
        :class:`~repro.smt.analytic.AnalyticThroughputModel` or
        :class:`~repro.smt.throughput.ThroughputTable`.
    programs:
        One generator function per rank.
    mapping:
        rank -> logical CPU. Must be injective.
    profiles:
        Name -> :class:`LoadProfile` registry; defaults to
        ``BASE_PROFILES`` and is augmented, not replaced, by the caller's
        entries.
    kernel_events:
        Optional time-ordered iterator of :class:`KernelEvent` (merged
        interrupt + noise streams).
    """

    def __init__(
        self,
        chip: Power5Chip,
        kernel: KernelModel,
        hmt: HmtController,
        model,
        programs: Sequence[RankProgram],
        mapping: Mapping[int, int],
        profiles: Optional[Mapping[str, LoadProfile]] = None,
        config: Optional[RuntimeConfig] = None,
        kernel_events: Optional[Iterator[KernelEvent]] = None,
        label: str = "",
        on_start=None,
        controllers: Optional[Sequence] = None,
        pair_costs=None,
    ) -> None:
        self.chip = chip
        self.kernel = kernel
        self.hmt = hmt
        self.model = model
        self.config = config or RuntimeConfig()
        self.label = label
        self.n_ranks = len(programs)
        if self.n_ranks == 0:
            raise ConfigurationError("need at least one rank program")
        if sorted(mapping) != list(range(self.n_ranks)):
            raise MappingError(
                f"mapping must cover ranks 0..{self.n_ranks - 1}, got {sorted(mapping)}"
            )
        cpus = list(mapping.values())
        if len(set(cpus)) != len(cpus):
            raise MappingError(f"mapping reuses a cpu: {mapping}")
        for cpu in cpus:
            if not 0 <= cpu < chip.config.n_cpus:
                raise MappingError(f"cpu {cpu} out of range for this chip")
        self.mapping = dict(mapping)

        self.profiles: Dict[str, LoadProfile] = dict(BASE_PROFILES)
        if profiles:
            self.profiles.update(profiles)
        for key in (self.config.spin_profile, self.config.noise_profile):
            if key not in self.profiles:
                raise ConfigurationError(f"unknown runtime profile {key!r}")

        self.world = Communicator.world(self.n_ranks)
        self.engine = MessageEngine(
            self.n_ranks, self.config.comm_costs, pair_costs=pair_costs
        )
        self.collectives = CollectiveManager(
            self.config.comm_costs, pair_costs=pair_costs
        )
        self.trace = Trace(self.n_ranks, label=label)

        self._procs: List[_Proc] = []
        for rank, prog in enumerate(programs):
            api = RankApi(rank, self.n_ranks)
            proc = _Proc(rank, self.mapping[rank], prog(api))
            proc.timeline = self.trace[rank]
            self._procs.append(proc)
        self._by_request: Dict[int, _Proc] = {}

        self.now = 0.0
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, str, object]] = []
        self._kernel_events = kernel_events
        self._next_kernel: Optional[KernelEvent] = None
        # Multi-chip machines group their cores per chip so the model's
        # shared-L2 coupling stays within a chip; a plain Power5Chip is a
        # single group. Rate recomputation is tracked per group: a
        # priority write or load change on one chip only re-solves that
        # chip's IPC.
        self._cores = list(chip.cores)
        groups = getattr(chip, "core_groups", None)
        if groups is None:
            groups = [list(range(len(self._cores)))]
        self._core_groups: List[List[int]] = [list(g) for g in groups]
        self._group_of_core: Dict[int, int] = {
            core: gi for gi, group in enumerate(self._core_groups) for core in group
        }
        self._dirty_groups: Set[int] = set(range(len(self._core_groups)))
        self._incremental = bool(self.config.incremental_rates)
        self._ipc_by_core: Dict[int, Tuple[float, float]] = {}
        #: Per-run memo of group state -> chip_ipc result.  The model's own
        #: chip cache persists across runs; this dict just skips the
        #: name-key construction inside ``chip_ipc`` for repeat states.
        self._group_ipc_memo: Dict[tuple, tuple] = {}
        #: How often each group's IPC was re-solved (observability: the
        #: multi-chip tests assert a chip-0 event leaves chip 1 alone).
        self.group_recompute_counts: List[int] = [0] * len(self._core_groups)
        self.events_processed = 0
        self._finished = 0
        #: Called once at t=0 after all processes are pinned and started —
        #: the hook through which static priority assignments are applied
        #: (they must come *after* launch, which resets priorities to
        #: MEDIUM, exactly like `echo N > /proc/<pid>/hmt_priority` after
        #: mpirun).
        self._on_start = on_start
        #: Periodic controllers (e.g. the dynamic balancer): objects with
        #: an ``interval`` in seconds and an ``on_tick(runtime, now)``
        #: method, invoked at each multiple of their interval.
        self._controllers = list(controllers or ())
        #: Live invariant oracle (None unless ``config.check_invariants``).
        #: Imported lazily: the oracle package imports this module.
        self._oracle = None
        if self.config.check_invariants:
            from repro.oracle.checker import RuntimeChecker

            self._oracle = RuntimeChecker(self)
        #: Coarse phase-timing instruments, or None. Checked once, at
        #: construction — the ``check_invariants`` discipline: when
        #: telemetry is off the run loop pays a single ``is None`` test
        #: per *run* (not per event), and all observations happen after
        #: the loop ends, so traces are byte-identical either way.
        self._telemetry = None
        if _telemetry_enabled():
            reg = _telemetry_registry()
            self._telemetry = {
                "launch": reg.histogram(
                    "repro_runtime_launch_seconds",
                    "Wall seconds spent launching ranks (pin + start + "
                    "first advance), per run.",
                ),
                "loop": reg.histogram(
                    "repro_runtime_loop_seconds",
                    "Wall seconds spent in the event loop, per run.",
                ),
                "runs": reg.counter(
                    "repro_runtime_runs_total", "Completed runtime runs."
                ),
                "events": reg.counter(
                    "repro_runtime_events_total",
                    "Discrete events processed across runs.",
                ),
                "recomputes": reg.counter(
                    "repro_runtime_rate_recomputes_total",
                    "Per-group IPC re-solves across runs.",
                ),
                "simulated": reg.counter(
                    "repro_runtime_simulated_seconds_total",
                    "Simulated seconds across runs.",
                ),
            }

    # -- helpers ---------------------------------------------------------------

    def _push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    @property
    def _rates_dirty(self) -> bool:
        """Whether any group needs a rate re-solve (compat view of the
        dirty set; assigning True marks every group)."""
        return bool(self._dirty_groups)

    @_rates_dirty.setter
    def _rates_dirty(self, value: bool) -> None:
        if value:
            self._mark_all_dirty()
        else:
            self._dirty_groups.clear()

    def _mark_all_dirty(self) -> None:
        self._dirty_groups.update(range(len(self._core_groups)))

    def _mark_dirty_cpu(self, cpu: int) -> None:
        if self.config.incremental_rates:
            self._dirty_groups.add(self._group_of_core[cpu // 2])
        else:
            self._mark_all_dirty()

    def _set_context_load(self, proc: _Proc, name: Optional[str]) -> None:
        profile = self.profiles[name] if name is not None else None
        core = self._cores[proc.core_idx]
        # Hot path: ``proc.thread`` is 0/1 by construction and ``profile``
        # comes from the validated profile table, so skip SmtCore's
        # per-call checks and write the context slot directly.
        if core._loads[proc.thread] is profile:
            return  # no state change (e.g. re-installing the spin posture)
        core._loads[proc.thread] = profile
        if self._incremental:
            self._dirty_groups.add(self._group_of_core[proc.core_idx])
        else:
            self._mark_all_dirty()

    def _set_trace(self, proc: _Proc, state: Optional[RankState]) -> None:
        if proc.trace_state is not state:
            proc.timeline.transition(self.now, state)
            proc.trace_state = state

    def _recompute_rates(self) -> None:
        cores = self._cores
        ipc_by_core = self._ipc_by_core
        dirty = self._dirty_groups
        memo = self._group_ipc_memo
        for gi in sorted(dirty) if len(dirty) > 1 else tuple(dirty):
            group = self._core_groups[gi]
            # Profiles are interned in ``self.profiles`` for the runtime's
            # lifetime, so identity is a sound (and cheap) memo key; the
            # full state tuple is only materialised on a memo miss.
            key_parts = [gi]
            for i in group:
                core = cores[i]
                loads = core._loads
                prios = core._priorities
                key_parts.append((id(loads[0]), id(loads[1]), prios[0], prios[1]))
            key = tuple(key_parts)
            ipcs = memo.get(key)
            if ipcs is None:
                ipcs = self.model.chip_ipc(tuple(cores[i].state() for i in group))
                memo[key] = ipcs
            for i, pair in zip(group, ipcs):
                ipc_by_core[i] = pair
            self.group_recompute_counts[gi] += 1
        dirty.clear()
        freq = self.chip.config.freq_hz
        computing = _PState.COMPUTING
        for proc in self._procs:
            if proc.state is computing:
                proc.rate = ipc_by_core[proc.core_idx][proc.thread] * freq

    # -- generator advancement -----------------------------------------------------

    def _advance(self, proc: _Proc) -> None:
        """Drive ``proc``'s generator until it blocks, computes or ends."""
        while True:
            try:
                op = proc.gen.send(proc.resume_value)
            except StopIteration:
                self._on_done(proc)
                return
            proc.resume_value = None
            # Exact-type fast paths for the two ops that dominate HPC
            # phase structure; isinstance keeps subclasses working below.
            op_type = type(op)
            if op_type is ComputeOp:
                self._start_compute(proc, op)
                return
            if op_type is BarrierOp:
                self._start_collective(proc, op)
                return
            if isinstance(op, ComputeOp):
                self._start_compute(proc, op)
                return
            if isinstance(
                op,
                (
                    BarrierOp,
                    BcastOp,
                    ReduceOp,
                    AllreduceOp,
                    GatherOp,
                    ScatterOp,
                    AllgatherOp,
                    AlltoallOp,
                ),
            ):
                self._start_collective(proc, op)
                return
            if isinstance(op, IsendOp):
                req, completions = self.engine.post_send(
                    proc.rank, op.dest, op.tag, op.nbytes, self.now
                )
                self._register(proc, req, completions)
                proc.resume_value = req
                continue
            if isinstance(op, IrecvOp):
                req, completions = self.engine.post_recv(
                    proc.rank, op.source, op.tag, self.now
                )
                self._register(proc, req, completions)
                proc.resume_value = req
                continue
            if isinstance(op, SendOp):
                req, completions = self.engine.post_send(
                    proc.rank, op.dest, op.tag, op.nbytes, self.now
                )
                self._register(proc, req, completions)
                if req.done:
                    proc.resume_value = None
                    continue
                self._block_on(proc, [req], single=None, state=RankState.COMM)
                return
            if isinstance(op, RecvOp):
                req, completions = self.engine.post_recv(
                    proc.rank, op.source, op.tag, self.now
                )
                self._register(proc, req, completions)
                if req.done:
                    proc.resume_value = req.status
                    continue
                self._block_on(proc, [req], single=req, state=RankState.COMM)
                return
            if isinstance(op, SendrecvOp):
                sreq, s_completions = self.engine.post_send(
                    proc.rank, op.dest, op.send_tag, op.nbytes, self.now
                )
                self._register(proc, sreq, s_completions)
                rreq, r_completions = self.engine.post_recv(
                    proc.rank, op.source, op.recv_tag, self.now
                )
                self._register(proc, rreq, r_completions)
                pending = [r for r in (sreq, rreq) if not r.done]
                if not pending:
                    proc.resume_value = rreq.status
                    continue
                self._block_on(proc, pending, single=rreq, state=RankState.COMM)
                return
            if isinstance(op, WaitOp):
                op.request.check_waitable()
                if op.request.done:
                    proc.resume_value = op.request.status
                    continue
                self._block_on(proc, [op.request], single=op.request, state=RankState.SYNC)
                return
            if isinstance(op, WaitallOp):
                for r in op.requests:
                    r.check_waitable()
                pending = [r for r in op.requests if not r.done]
                if not pending:
                    proc.resume_value = None
                    continue
                self._block_on(proc, pending, single=None, state=RankState.SYNC)
                return
            if isinstance(op, SetPriorityOp):
                self._apply_priority(proc, op)
                continue
            raise SimulationError(f"rank {proc.rank} yielded unknown op {op!r}")

    def _start_compute(self, proc: _Proc, op: ComputeOp) -> None:
        if op.profile not in self.profiles:
            raise ConfigurationError(
                f"rank {proc.rank}: unknown load profile {op.profile!r}"
            )
        if op.instructions <= 0:
            # Zero work: complete immediately without a state excursion.
            proc.state = _PState.READY
            self._advance(proc)
            return
        proc.state = _PState.COMPUTING
        proc.remaining = float(op.instructions)
        proc.profile_name = op.profile
        proc.compute_trace_state = op.state
        self._set_context_load(proc, op.profile)
        self._set_trace(proc, op.state)

    _COLLECTIVE_KINDS = {
        BcastOp: "bcast",
        ReduceOp: "reduce",
        AllreduceOp: "allreduce",
        GatherOp: "gather",
        ScatterOp: "scatter",
        AllgatherOp: "allgather",
        AlltoallOp: "alltoall",
    }

    def _start_collective(self, proc: _Proc, op) -> None:
        comm = op.comm or self.world
        if isinstance(op, BarrierOp):
            kind, nbytes = "barrier", 0
        else:
            kind, nbytes = self._COLLECTIVE_KINDS[type(op)], op.nbytes
        outcome = self.collectives.arrive(comm, proc.rank, kind, nbytes, self.now)
        proc.state = _PState.BLOCKED
        proc.awaiting = set()
        proc.single_wait = None
        proc.released = False
        proc.blocked_trace_state = RankState.SYNC
        self._wait_posture(proc, RankState.SYNC)
        if outcome is not None:
            release_time, ranks = outcome
            self._push(release_time, "coll", tuple(ranks))

    def _register(
        self,
        proc: _Proc,
        req: Request,
        completions: List[Tuple[float, Request, Optional[Status]]],
    ) -> None:
        self._by_request[req.id] = proc
        for time, r, status in completions:
            self._push(max(time, self.now), "req", (r, status))

    def _block_on(
        self,
        proc: _Proc,
        requests: Sequence[Request],
        single: Optional[Request],
        state: RankState,
    ) -> None:
        proc.state = _PState.BLOCKED
        proc.awaiting = {r.id for r in requests}
        proc.single_wait = single
        proc.released = False
        proc.blocked_trace_state = state
        for r in requests:
            self._by_request[r.id] = proc
        self._wait_posture(proc, state)

    def _wait_posture(self, proc: _Proc, state: RankState) -> None:
        """Install the waiting behaviour on the hardware context."""
        if self.config.wait_mode == "spin":
            self._set_context_load(proc, self.config.spin_profile)
        else:
            self._set_context_load(proc, None)
        self._set_trace(proc, state)

    def _apply_priority(self, proc: _Proc, op: SetPriorityOp) -> None:
        if op.via == "or-nop":
            # User-privilege nop: silently ignored outside 2..4.
            self.hmt.or_nop_priority(proc.cpu, op.priority, self.now)
        else:
            self.kernel.procfs.set_priority_of_pid(proc.rank, op.priority, self.now)
        self._mark_dirty_cpu(proc.cpu)

    def _on_done(self, proc: _Proc) -> None:
        proc.state = _PState.DONE
        self._finished += 1
        self._set_context_load(proc, None)
        self._set_trace(proc, RankState.IDLE)
        self.kernel.on_cpu_idle(proc.cpu, self.now)
        self._mark_dirty_cpu(proc.cpu)

    # -- event handling ---------------------------------------------------------

    def _handle_request(self, req: Request, status: Optional[Status]) -> None:
        if not req.done:
            req.complete(status)
        proc = self._by_request.get(req.id)
        if proc is None:
            return
        if req.id in proc.awaiting:
            proc.awaiting.discard(req.id)
            if not proc.awaiting:
                self._unblock_proc(proc)
        # Nonblocking requests not currently awaited just become done.

    def _unblock_proc(self, proc: _Proc) -> None:
        if proc.state == _PState.NOISE:
            proc.released = True
            return
        if proc.state != _PState.BLOCKED:
            raise SimulationError(
                f"rank {proc.rank} unblocked while {proc.state}"
            )
        self._resume_from_block(proc)

    def _resume_from_block(self, proc: _Proc) -> None:
        """Transition a blocked rank back to running its generator."""
        if proc.single_wait is not None:
            proc.resume_value = proc.single_wait.status
            proc.single_wait = None
        proc.state = _PState.READY
        proc.released = False
        self._advance(proc)

    def _handle_collective_release(self, ranks: Tuple[int, ...]) -> None:
        for rank in ranks:
            proc = self._procs[rank]
            if proc.state == _PState.NOISE:
                proc.released = True
            elif proc.state == _PState.BLOCKED and not proc.awaiting:
                proc.state = _PState.READY
                self._advance(proc)
            else:
                raise SimulationError(
                    f"collective released rank {rank} in state {proc.state}"
                )

    def _handle_kernel_event(self, event: KernelEvent) -> None:
        self.kernel.on_interrupt_entry(event.cpu, self.now)
        self._mark_dirty_cpu(event.cpu)
        if event.duration <= 0:
            return
        # Preempt whatever runs on that cpu.
        victim: Optional[_Proc] = None
        for proc in self._procs:
            if proc.cpu == event.cpu and proc.state in (
                _PState.COMPUTING,
                _PState.BLOCKED,
            ):
                victim = proc
                break
        if victim is None:
            return
        victim.noise_resume = victim.state
        victim.state = _PState.NOISE
        self._set_context_load(victim, self.config.noise_profile)
        self._set_trace(victim, RankState.NOISE)
        self._push(self.now + event.duration, "noise_end", victim.rank)

    def _handle_noise_end(self, rank: int) -> None:
        proc = self._procs[rank]
        if proc.state != _PState.NOISE:
            raise SimulationError(f"noise_end for rank {rank} in state {proc.state}")
        resume = proc.noise_resume
        proc.noise_resume = None
        if resume == _PState.COMPUTING:
            proc.state = _PState.COMPUTING
            self._set_context_load(proc, proc.profile_name)
            # Recover the trace state of the interrupted compute segment.
            self._set_trace(proc, proc.compute_trace_state)
        else:
            proc.state = _PState.BLOCKED
            if proc.released and not proc.awaiting:
                self._resume_from_block(proc)
                return
            self._wait_posture(proc, proc.blocked_trace_state)
        self._mark_dirty_cpu(proc.cpu)

    # -- kernel event feed ---------------------------------------------------------

    def _peek_kernel(self) -> Optional[KernelEvent]:
        if self._next_kernel is None and self._kernel_events is not None:
            self._next_kernel = next(self._kernel_events, None)
            if self._next_kernel is None:
                self._kernel_events = None
        return self._next_kernel

    # -- the main loop ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run all rank programs to completion and return the result."""
        cfg = self.config
        # The cooperative deadline (repro.util.deadline), read once per
        # run: without one the event loop pays a single ``is None`` test
        # per event, with one a single clock comparison.
        expiry = current_deadline()
        check_deadline()
        telemetry = self._telemetry
        t_run0 = _time.perf_counter() if telemetry is not None else 0.0
        # Process launch: pin + default priorities.
        for proc in self._procs:
            self.kernel.scheduler.pin(proc.rank, proc.cpu)
            self.kernel.on_process_start(proc.rank, proc.cpu, 0.0)
        if self._on_start is not None:
            self._on_start(self)
        for i, ctrl in enumerate(self._controllers):
            interval = float(getattr(ctrl, "interval"))
            check_positive("controller.interval", interval)
            self._push(interval, "ctrl", i)
        for proc in self._procs:
            self._advance(proc)
        t_launched = _time.perf_counter() if telemetry is not None else 0.0

        eps = cfg.epsilon
        max_events = cfg.max_events
        time_limit = cfg.time_limit
        procs = self._procs
        heap = self._heap
        computing_state = _PState.COMPUTING
        oracle = self._oracle
        monotonic = _time.monotonic
        while self._finished < self.n_ranks:
            if expiry is not None and monotonic() >= expiry:
                raise DeadlineExceeded(monotonic() - expiry)
            if self.events_processed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}"
                )
            if self._dirty_groups:
                self._recompute_rates()
                if oracle is not None:
                    oracle.on_rates()

            t_next = math.inf
            if heap:
                t_next = heap[0][0]
            if self._next_kernel is not None or self._kernel_events is not None:
                kernel_ev = self._peek_kernel()
                if kernel_ev is not None:
                    t_next = min(t_next, kernel_ev.time)
            computing = [p for p in procs if p.state is computing_state]
            for proc in computing:
                rate = proc.rate
                if rate > 0.0:
                    t_next = min(t_next, self.now + proc.remaining / rate)
            if math.isinf(t_next):
                raise DeadlockError(
                    f"t={self.now:.6f}s: no runnable rank and no pending event. "
                    f"p2p: {self.engine.pending_summary()}; "
                    f"collectives: {self.collectives.pending_summary()}"
                )
            t_next = max(t_next, self.now)
            if t_next > time_limit:
                raise SimulationError(
                    f"exceeded time_limit={time_limit}s "
                    f"(next event at t={t_next:.3f}s)"
                )

            # Advance fluid work.
            dt = t_next - self.now
            if dt > 0:
                for proc in computing:
                    remaining = proc.remaining - proc.rate * dt
                    proc.remaining = remaining if remaining > 0.0 else 0.0
            self.now = t_next
            if oracle is not None:
                oracle.on_advance()

            # Fire due heap events.
            while heap and heap[0][0] <= self.now + eps:
                _, _, kind, payload = heapq.heappop(heap)
                self.events_processed += 1
                if kind == "req":
                    req, status = payload  # type: ignore[misc]
                    self._handle_request(req, status)
                elif kind == "coll":
                    self._handle_collective_release(payload)  # type: ignore[arg-type]
                elif kind == "noise_end":
                    self._handle_noise_end(payload)  # type: ignore[arg-type]
                elif kind == "ctrl":
                    idx = payload  # type: ignore[assignment]
                    ctrl = self._controllers[idx]
                    ctrl.on_tick(self, self.now)
                    # Controllers may touch any CPU's priority/load.
                    self._mark_all_dirty()
                    if self._finished < self.n_ranks:
                        self._push(self.now + float(ctrl.interval), "ctrl", idx)
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind!r}")

            # Fire due kernel events.
            while self._next_kernel is not None or self._kernel_events is not None:
                kernel_ev = self._peek_kernel()
                if kernel_ev is None or kernel_ev.time > self.now + eps:
                    break
                self._next_kernel = None
                self.events_processed += 1
                self._handle_kernel_event(kernel_ev)

            # Complete computes that drained.
            for proc in procs:
                if proc.state is computing_state:
                    rate = proc.rate
                    if proc.remaining <= 0.0 or (
                        rate > 0.0 and proc.remaining / rate <= eps
                    ):
                        proc.remaining = 0.0
                        proc.state = _PState.READY
                        self.events_processed += 1
                        self._advance(proc)

        self.trace.finish_all(self.now)
        stats = compute_stats(self.trace)
        result = RunResult(
            label=self.label,
            trace=self.trace,
            stats=stats,
            total_time=self.now,
            events_processed=self.events_processed,
            priority_history_len=len(self.hmt.history),
            final_priorities=tuple(int(p) for p in self.hmt.priorities()),
        )
        if oracle is not None:
            oracle.on_finish(result)
        if telemetry is not None:
            t_end = _time.perf_counter()
            telemetry["launch"].observe(t_launched - t_run0)
            telemetry["loop"].observe(t_end - t_launched)
            telemetry["runs"].inc()
            telemetry["events"].inc(self.events_processed)
            telemetry["recomputes"].inc(sum(self.group_recompute_counts))
            telemetry["simulated"].inc(self.now)
        return result
