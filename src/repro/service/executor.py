"""The worker pool that turns queued :class:`JobSpec` s into results.

:class:`ScenarioService` owns the three pieces the rest of the package
provides — a :class:`~repro.service.queue.JobQueue`, a
:class:`~repro.service.cache.ResultCache`, and N worker threads — and
adds the execution policy: cache-first admission (a stored fingerprint
is served without a queue slot; an in-flight one coalesces), per-attempt
timeouts, total deadlines, and retry-with-backoff for transient worker
failures.

The unit of work is a list of same-engine jobs. Each worker dequeues up
to :data:`MAX_BATCH_SIZE` compatible queued jobs (see
:meth:`ScenarioService._compat_key`) and runs them through one
``runner(specs)`` call — by default :func:`execute_specs`, one
``engine.run_batch`` call. Results, errors, and telemetry stay per job,
and a failed multi-job attempt falls back to running each job alone so
one poison spec cannot fail its neighbours.

Execution itself goes through the :mod:`repro.scenarios` engine
registry: the spec's model knob resolves to a registered engine
(:attr:`JobSpec.engine`), which runs the request's
:class:`~repro.scenarios.ScenarioSpec` — the scenario it embeds, or the
named paper case's spec — so a served digest is bit-identical to a
direct run of the same spec through the same engine. Warm per-thread
Systems and the shared persistent
:class:`~repro.smt.throughput.ThroughputTable` at
``ServiceConfig.throughput_table_path`` (merge-then-save, so concurrent
workers accumulate measurements instead of clobbering) are owned by the
engines themselves, not hand-rolled here.

Timeouts are cooperative: every attempt runs inline on its worker
thread inside a :func:`~repro.util.deadline.deadline_scope`, and the MPI
runtime checks that deadline before each run and at every event, so a
timed-out simulation stops where it is and the worker moves on — no
thread outlives its job. A runner that never checks the deadline (a
custom one, or a non-runtime engine) is judged when it returns: a result
that arrives after the deadline is discarded. Either way the attempt
fails with :class:`~repro.errors.JobTimeoutError`. Running inline also
lets each worker's warm engine Systems serve every job it takes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    JobTimeoutError,
    ServiceError,
    TransientWorkerError,
    UnknownJobError,
)
from repro.service.cache import ResultCache
from repro.service.jobs import (
    Job,
    JobResult,
    JobSpec,
    JobState,
    RetryPolicy,
    jobs_by_state,
)
from repro.service.queue import JobQueue
from repro.telemetry import MetricRegistry, get_logger
from repro.util.deadline import deadline_scope
from repro.util.stats import percentile

__all__ = [
    "MAX_BATCH_SIZE",
    "ServiceConfig",
    "ScenarioService",
    "execute_specs",
]

_log = get_logger("service")

#: Most queued jobs one runner call (one engine batch) may take.
MAX_BATCH_SIZE = 8
#: Terminal jobs kept addressable by id before eviction.
MAX_JOBS_TRACKED = 10_000
#: Completed-job latencies kept for the percentile metrics.
LATENCY_WINDOW = 1024

#: Lifecycle events the service counts, in reporting order.
_EVENTS = (
    "submitted", "completed", "failed", "cancelled",
    "cache_hits", "retries", "timeouts",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one :class:`ScenarioService`."""

    workers: int = 2
    queue_depth: int = 64
    cache_entries: int = 1024
    #: Per-attempt wall-clock limit for jobs that don't set their own,
    #: enforced by a cooperative deadline (attempts always run inline on
    #: the worker thread); None disables it.
    default_timeout_s: Optional[float] = 300.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Shared on-disk cycle-model measurement table (model="cycle" jobs).
    throughput_table_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigurationError(f"workers must be > 0, got {self.workers}")
        if self.queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be > 0, got {self.queue_depth}"
            )
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ConfigurationError("default_timeout_s must be > 0 or None")


# -- spec execution (module-level so tests can call it directly) ----------------

_suite_lock = threading.Lock()
_suite_cache: Dict[tuple, object] = {}


def _build_suite(suite_name: str, iterations: Optional[int]):
    """Paper suite for a case-kind spec, with the CLI's iteration defaults
    (so a served digest matches `repro case` exactly). Suites are frozen
    and their calibration is deterministic — cache them across jobs."""
    key = (suite_name, iterations)
    with _suite_lock:
        cached = _suite_cache.get(key)
        if cached is not None:
            return cached
    from repro.experiments.cases import btmz_suite, metbench_suite, siesta_suite

    if suite_name == "metbench":
        suite = metbench_suite(iterations=iterations or 10)
    elif suite_name == "btmz":
        suite = btmz_suite(iterations=iterations or 50)
    else:
        suite = siesta_suite(n_iterations=iterations or 40)
    with _suite_lock:
        _suite_cache.setdefault(key, suite)
    return suite


def _resolve(spec: JobSpec, table_path: Optional[str]):
    """One spec's execution plan: (engine, scenario, label, options)."""
    from repro.scenarios.registry import get_engine

    engine = get_engine(spec.engine)
    options = None
    if engine.name == "cycle" and table_path:
        options = {"table_path": table_path}
    if spec.scenario is not None:
        scenario = spec.scenario
        label = f"service.{scenario.name}"
    else:
        suite = _build_suite(spec.suite, spec.iterations)
        case = suite.case(spec.case)
        scenario = case.spec
        label = f"{suite.name}.{case.name}"
    return engine, scenario, label, options


def execute_specs(
    specs: List[JobSpec], table_path: Optional[str] = None
) -> List[JobResult]:
    """Run same-engine specs through one ``engine.run_batch`` call (the
    default worker runner); one :class:`JobResult` per spec.

    Deterministic by construction: each request's scenario (embedded, or
    the named paper case's spec) is dispatched to the engine
    ``spec.engine`` names, so every served digest is bit-identical to a
    direct ``get_engine(...).run(...)`` — or a
    :func:`~repro.experiments.runner.run_case` — of the same request.
    All specs must name the same engine (the queue's compatibility key
    guarantees it — see :meth:`ScenarioService._compat_key`).
    """
    if not specs:
        return []
    resolved = [_resolve(spec, table_path) for spec in specs]
    engine = resolved[0][0]
    if any(r[0] is not engine for r in resolved[1:]):
        raise ServiceError(
            "batch mixes engines: "
            + ", ".join(sorted({r[0].name for r in resolved}))
        )
    results = engine.run_batch(
        [r[1] for r in resolved],
        labels=[r[2] for r in resolved],
        options=resolved[0][3],
    )
    out = []
    for spec, result in zip(specs, results):
        if spec.check_invariants:
            from repro.oracle.checker import verify_run

            verify_run(result.run)
        out.append(JobResult.from_execution(spec, result))
    return out


def _within(timeout: Optional[float], job_id: str, attempt: Callable):
    """Run ``attempt()`` inline under a ``timeout``-second deadline
    (none when ``timeout`` is ``None``).

    Work that checks the deadline stops at it; a result returned after
    it is discarded. Both end as :class:`JobTimeoutError` for ``job_id``.
    """
    if timeout is None:
        return attempt()
    try:
        with deadline_scope(timeout) as expiry:
            result = attempt()
    except DeadlineExceeded:
        raise JobTimeoutError(job_id, timeout) from None
    if time.monotonic() >= expiry:
        raise JobTimeoutError(job_id, timeout)
    return result


# -- the service ----------------------------------------------------------------


class ScenarioService:
    """Job intake, worker pool, and metrics — the serving facade.

    ``runner(specs) -> results`` defaults to :func:`execute_specs`;
    tests inject a stub to exercise timeout/retry paths without real
    simulations.

    All accounting lives in a :class:`~repro.telemetry.MetricRegistry`
    — by default a fresh one per service, so sequentially constructed
    services (every test) start from zero; pass ``registry=`` to share
    one. ``metrics()`` keeps serving the historical JSON document off
    the same instruments, and the HTTP layer renders the registry as
    Prometheus text when asked.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        runner: Optional[Callable[[List[JobSpec]], List[JobResult]]] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._runner = runner or (
            lambda specs: execute_specs(
                specs, table_path=self.config.throughput_table_path
            )
        )
        self.queue = JobQueue(max_depth=self.config.queue_depth)
        self.cache = ResultCache(max_entries=self.config.cache_entries)
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._job_order: Deque[str] = deque()
        self._started_at = time.time()
        self._closed = False
        self._service_time_ewma = 1.0
        self.registry = registry if registry is not None else MetricRegistry()
        self._init_telemetry()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._workers:
            thread.start()

    def _init_telemetry(self) -> None:
        reg = self.registry
        events = reg.counter(
            "repro_service_events_total",
            "Job lifecycle events by type.",
            labelnames=("event",),
        )
        self._counters = {name: events.labels(name) for name in _EVENTS}
        self._latency_hist = reg.histogram(
            "repro_service_job_latency_seconds",
            "Submission-to-terminal job latency.",
            sample_window=LATENCY_WINDOW,
        )
        self._compute_hist = reg.histogram(
            "repro_service_job_compute_seconds",
            "Worker compute seconds per computed job.",
            sample_window=LATENCY_WINDOW,
        )
        reg.gauge(
            "repro_service_workers", "Configured worker threads."
        ).set(self.config.workers)
        reg.gauge(
            "repro_service_uptime_seconds", "Seconds since service start."
        ).set_function(lambda: time.time() - self._started_at)
        self._batches_counter = reg.counter(
            "repro_service_batches_total",
            "Coalesced engine batches executed (size >= 2).",
        )
        self._batch_size_hist = reg.histogram(
            "repro_service_batch_size",
            "Jobs per coalesced engine batch.",
            sample_window=LATENCY_WINDOW,
        )
        jobs_gauge = reg.gauge(
            "repro_service_jobs", "Tracked jobs by lifecycle state.",
            labelnames=("state",),
        )
        for state in JobState:
            jobs_gauge.labels(state.value).set_function(
                lambda s=state: self._count_state(s)
            )
        self.queue.bind_telemetry(reg)
        self.cache.bind_telemetry(reg)

    def _count_state(self, state: JobState) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state is state)

    # -- intake ----------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one request; returns its :class:`Job` immediately.

        A fingerprint already in the result cache completes the job on
        the spot (``source="cache"``); one currently in flight attaches
        it to the running computation (``source="coalesced"``, no queue
        slot). Otherwise the job takes a queue slot or the queue's
        backpressure (:class:`~repro.errors.QueueFullError`) propagates
        to the caller.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            job = Job(spec=spec)
            self._track(job)
            role, cached = self.cache.claim(job)
            # "submitted" counts *admitted* requests only, so the
            # counter stays monotonic: a queue-full rejection below
            # never increments it instead of incrementing-then-undoing.
            if role == "cache":
                self._counters["submitted"].inc()
                self._counters["cache_hits"].inc()
                job.finish(JobState.DONE, result=cached, source="cache")
                self._note_latency(job)
                return job
            if role == "follower":
                self._counters["submitted"].inc()
                return job
            try:
                self.queue.put(job)
            except ServiceError:
                # Undo the leadership claim; any follower that raced in
                # shares the rejection rather than hanging forever.
                _, followers = self.cache.settle(spec.fingerprint, None)
                for follower in followers:
                    if not follower.state.terminal:
                        follower.finish(
                            JobState.FAILED,
                            error="leader admission rejected (queue full)",
                            source="coalesced",
                        )
                self._forget(job)
                raise
            self._counters["submitted"].inc()
            return job

    def run(self, spec: JobSpec, timeout: Optional[float] = None) -> Job:
        """Submit and wait; the blocking convenience the CLI/tests use."""
        job = self.submit(spec)
        return self.wait(job.id, timeout=timeout)

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job is terminal (or ``timeout`` passes); returns
        the job either way — callers inspect ``job.state``."""
        job = self.get(job_id)
        job.done.wait(timeout=timeout)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running attempts cannot be interrupted)."""
        job = self.get(job_id)
        with self._lock:
            if job.state is JobState.QUEUED:
                self._counters["cancelled"].inc()
                job.finish(JobState.CANCELLED, error="cancelled by client")
        return job

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admissions and the workers; idempotent.

        ``drain=True`` lets workers finish everything already queued;
        ``drain=False`` cancels still-queued jobs first.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in self._jobs.values():
                    if job.state is JobState.QUEUED:
                        self._counters["cancelled"].inc()
                        job.finish(
                            JobState.CANCELLED, error="service shutdown"
                        )
        self.queue.close()
        for thread in self._workers:
            thread.join(timeout=timeout)

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        """The historical JSON metrics document, read off the registry.

        Counters and the latency/compute windows come from the same
        instruments Prometheus scrapes, so the two views can never
        disagree.
        """
        with self._lock:
            jobs = list(self._jobs.values())
        latencies = self._latency_hist.samples()
        computes = self._compute_hist.samples()
        counters = {
            name: int(child.value) for name, child in self._counters.items()
        }
        doc = {
            "uptime_s": time.time() - self._started_at,
            "workers": self.config.workers,
            "jobs": jobs_by_state(jobs),
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "counters": counters,
        }
        for name, sample in (("latency", latencies), ("compute", computes)):
            if sample:
                doc[name] = {
                    "count": len(sample),
                    "mean_s": sum(sample) / len(sample),
                    "p50_s": percentile(sample, 50.0),
                    "p99_s": percentile(sample, 99.0),
                }
            else:
                doc[name] = {"count": 0}
        return doc

    # -- internals -------------------------------------------------------------

    def _track(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        while len(self._job_order) > MAX_JOBS_TRACKED:
            oldest_id = self._job_order[0]
            oldest = self._jobs.get(oldest_id)
            if oldest is not None and not oldest.state.terminal:
                break  # never evict live jobs; registry shrinks later
            self._job_order.popleft()
            self._jobs.pop(oldest_id, None)

    def _forget(self, job: Job) -> None:
        self._jobs.pop(job.id, None)
        try:
            self._job_order.remove(job.id)
        except ValueError:
            pass

    def _note_latency(self, job: Job) -> None:
        if job.latency_s is not None:
            self._latency_hist.observe(job.latency_s)
        if job.result is not None and job.source == "computed":
            self._compute_hist.observe(job.result.compute_seconds)
            # EWMA of per-job compute cost feeds the queue's Retry-After.
            self._service_time_ewma = (
                0.8 * self._service_time_ewma
                + 0.2 * job.result.compute_seconds
            )
            self.queue.set_load_hints(
                self._service_time_ewma, self.config.workers
            )

    def _worker_loop(self) -> None:
        while True:
            jobs = self.queue.get_batch(MAX_BATCH_SIZE, self._compat_key)
            if jobs is None:
                return
            admitted = [j for j in map(self._admit, jobs) if j is not None]
            if admitted:
                self._run(admitted)

    def _compat_key(self, job: Job) -> object:
        """Jobs with equal keys may share one engine batch.

        The engine name is the whole story today: every worker shares
        the one configured throughput table path, so two same-engine
        jobs always agree on it.
        """
        return (job.spec.engine,)

    def _admit(self, job: Job) -> Optional[Job]:
        """The job to run for dequeued ``job``, or None when there is
        nothing (left) to run.

        A job cancelled while queued hands its computation to the first
        live follower that coalesced behind it, if any; a job past its
        total deadline fails here with its ``deadline`` error.
        """
        if job.state.terminal:
            _, followers = self.cache.settle(job.spec.fingerprint, None)
            live = [f for f in followers if not f.state.terminal]
            if not live:
                return None
            # The first live follower leads; the rest follow it again.
            for follower in live:
                self.cache.claim(follower)
            job = live[0]
        if job.deadline_exceeded():
            self._settle(
                job,
                exc=JobTimeoutError(
                    job.id, job.spec.deadline_s, kind="deadline"
                ),
            )
            return None
        return job

    def _run(self, jobs: List[Job]) -> None:
        """Run admitted same-engine jobs through the runner to settlement.

        Each attempt is one ``runner(specs)`` call under
        :meth:`_attempt_timeout`. A multi-job attempt that fails in any
        way (a poison spec, a timeout, a wrong result count) is refunded
        and every job is admitted and run again alone, so one bad spec
        fails only its own job. A lone job retries transient failures
        with backoff, within its retry budget and total deadline.
        Settlement is per fingerprint, so followers that coalesced onto
        any member while it ran are paid out with it.
        """
        for job in jobs:
            job.state = JobState.RUNNING
            job.started_at = time.time()
        retry = self.config.retry
        while True:
            for job in jobs:
                job.attempts += 1
            try:
                results = _within(
                    self._attempt_timeout(jobs), jobs[0].id,
                    lambda: self._runner([job.spec for job in jobs]),
                )
                if len(results) != len(jobs):
                    raise ServiceError(
                        f"runner returned {len(results)} results "
                        f"for {len(jobs)} jobs"
                    )
            except Exception as exc:  # noqa: BLE001 — classified below
                if len(jobs) > 1:
                    _log.info(
                        "batch of %d jobs failed (%s: %s); running each "
                        "job alone", len(jobs), type(exc).__name__, exc,
                    )
                    for job in jobs:
                        # The failed batch attempt is not charged to the
                        # job's own attempt budget.
                        job.attempts -= 1
                        alone = self._admit(job)
                        if alone is not None:
                            self._run([alone])
                    return
                job = jobs[0]
                if isinstance(exc, JobTimeoutError):
                    with self._lock:
                        self._counters["timeouts"].inc()
                max_retries = (
                    job.spec.max_retries
                    if job.spec.max_retries is not None
                    else retry.max_retries
                )
                if (
                    isinstance(exc, (TransientWorkerError, OSError))
                    and job.attempts - 1 < max_retries
                    and not job.deadline_exceeded()
                ):
                    with self._lock:
                        self._counters["retries"].inc()
                    _log.info(
                        "job %s: transient failure on attempt %d, "
                        "retrying: %s", job.id, job.attempts, exc,
                    )
                    time.sleep(self._bounded_backoff(job, retry))
                    continue
                self._settle(job, exc=exc)
                return
            if len(jobs) > 1:
                with self._lock:
                    self._batches_counter.inc()
                    self._batch_size_hist.observe(len(jobs))
            for job, result in zip(jobs, results):
                self._settle(job, result)
            return

    def _bounded_backoff(self, job: Job, retry: RetryPolicy) -> float:
        delay = retry.delay(job.attempts - 1)
        remaining = job.deadline_remaining()
        if remaining is not None:
            delay = max(0.0, min(delay, remaining))
        return delay

    def _attempt_timeout(self, jobs: List[Job]) -> Optional[float]:
        """One attempt's time limit: the jobs' per-attempt timeouts
        summed (None if any is unbounded), never past the smallest
        remaining total deadline among them."""
        limits = [
            job.spec.timeout_s
            if job.spec.timeout_s is not None
            else self.config.default_timeout_s
            for job in jobs
        ]
        timeout = None if None in limits else sum(limits)
        remaining = [job.deadline_remaining() for job in jobs]
        remaining = [r for r in remaining if r is not None]
        if remaining:
            cap = max(0.01, min(remaining))
            timeout = cap if timeout is None else min(timeout, cap)
        return timeout

    def _settle(
        self,
        job: Job,
        result: Optional[JobResult] = None,
        exc: Optional[Exception] = None,
    ) -> None:
        """Finish ``job`` and every live follower of its fingerprint:
        done with ``result``, or failed with ``exc``."""
        _, followers = self.cache.settle(job.spec.fingerprint, result)
        state, event, error = JobState.DONE, "completed", None
        if exc is not None:
            state, event = JobState.FAILED, "failed"
            error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, JobTimeoutError):
                _log.warning("job %s timed out after %d attempt(s): %s",
                             job.id, job.attempts, exc)
            else:
                _log.error("job %s failed after %d attempt(s): %s",
                           job.id, job.attempts, error, exc_info=exc)
        with self._lock:
            job.finish(state, result=result, error=error)
            self._counters[event].inc()
            self._note_latency(job)
            for follower in followers:
                if follower.state.terminal:
                    continue
                follower.finish(
                    state, result=result, error=error, source="coalesced"
                )
                self._counters[event].inc()
                self._note_latency(follower)
