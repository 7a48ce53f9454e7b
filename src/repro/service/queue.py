"""Bounded job queue with priority lanes and explicit backpressure.

Admission control happens here, at the front door: the queue holds at
most ``max_depth`` jobs across all lanes, and a submission past that
raises :class:`~repro.errors.QueueFullError` carrying a ``retry_after``
estimate (depth ahead of you × the service's recent per-job seconds ÷
workers) instead of growing without bound — the HTTP layer turns it
into a 429 + ``Retry-After``. Dequeue order: lanes strictly by priority
(``interactive`` drains before ``batch``), FIFO within a lane.

Thread-safe; one :class:`threading.Condition` covers both directions
(workers wait for jobs, nothing ever blocks on the full side — that is
the point of backpressure).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.service.jobs import LANES, Job

__all__ = ["JobQueue"]


class JobQueue:
    """A closed-when-shutting-down, lane-ordered, bounded FIFO of jobs."""

    def __init__(
        self,
        max_depth: int = 64,
        lanes: Sequence[str] = LANES,
        retry_after_floor_s: float = 0.5,
    ) -> None:
        if max_depth <= 0:
            raise ConfigurationError(f"max_depth must be > 0, got {max_depth}")
        if not lanes:
            raise ConfigurationError("a JobQueue needs at least one lane")
        self.max_depth = int(max_depth)
        self.lanes: Tuple[str, ...] = tuple(lanes)
        self.retry_after_floor_s = float(retry_after_floor_s)
        self._queues: Dict[str, Deque[Job]] = {
            lane: deque() for lane in self.lanes
        }
        self._cond = threading.Condition()
        self._closed = False
        #: Recent mean seconds one job occupies a worker; the executor
        #: updates it after each completion so retry_after tracks load.
        self._service_time_s = 1.0
        self._workers_hint = 1
        self.admitted = 0
        self.rejected = 0

    # -- sizing hints ----------------------------------------------------------

    def set_load_hints(self, service_time_s: float, workers: int) -> None:
        """Feed the retry-after estimator (recent per-job cost, pool size)."""
        with self._cond:
            if service_time_s > 0:
                self._service_time_s = float(service_time_s)
            if workers > 0:
                self._workers_hint = int(workers)

    def retry_after(self) -> float:
        """Seconds until capacity plausibly frees up, never below the floor."""
        drain = self.depth() * self._service_time_s / self._workers_hint
        return max(self.retry_after_floor_s, drain)

    # -- core operations -------------------------------------------------------

    def put(self, job: Job) -> None:
        """Admit ``job`` or raise (:class:`QueueFullError` on backpressure,
        :class:`ServiceError` once the queue is closed)."""
        if job.spec.lane not in self._queues:
            raise ConfigurationError(
                f"unknown lane {job.spec.lane!r}; queue has {self.lanes}"
            )
        with self._cond:
            if self._closed:
                raise ServiceError("job queue is closed (service shutting down)")
            depth = sum(len(q) for q in self._queues.values())
            if depth >= self.max_depth:
                self.rejected += 1
                raise QueueFullError(depth, self.max_depth, self.retry_after())
            self._queues[job.spec.lane].append(job)
            self.admitted += 1
            self._cond.notify()

    def get_batch(
        self,
        max_n: int,
        compat_key: Callable[[Job], object],
        timeout: Optional[float] = None,
    ) -> Optional[List[Job]]:
        """Next job plus up to ``max_n - 1`` compatible followers.

        The head job is chosen by lane priority (``interactive`` before
        ``batch``), FIFO within the lane; followers are further jobs from
        the *same lane* whose ``compat_key`` equals the head's —
        coalescing never lets a batch-lane job overtake an interactive
        one, and never mixes jobs a single engine batch could not run
        together. Skipped (incompatible) jobs keep their positions, so
        lane FIFO order is preserved for everything not taken.

        Returns ``None`` on timeout or once the queue is closed *and*
        drained.
        """
        with self._cond:
            while True:
                for lane in self.lanes:
                    q = self._queues[lane]
                    if not q:
                        continue
                    head = q.popleft()
                    batch = [head]
                    key = compat_key(head)
                    kept: Deque[Job] = deque()
                    while q and len(batch) < max_n:
                        job = q.popleft()
                        if compat_key(job) == key:
                            batch.append(job)
                        else:
                            kept.append(job)
                    while kept:
                        q.appendleft(kept.pop())
                    return batch
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def close(self) -> None:
        """Stop admissions and wake every waiting worker; queued jobs may
        still be drained with :meth:`get_batch`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection ---------------------------------------------------------

    def bind_telemetry(self, registry) -> None:
        """Expose the queue through pull-based instruments.

        The queue's own accounting stays plain ints under its condition
        variable; the registry reads them only at collection time, so
        the put/get_batch hot path gains nothing.
        """
        registry.gauge(
            "repro_queue_depth", "Queued jobs, per lane.",
            labelnames=("lane",),
        )
        for lane in self.lanes:
            registry.get("repro_queue_depth").labels(lane).set_function(
                lambda l=lane: self.depth(l)
            )
        registry.gauge(
            "repro_queue_max_depth", "Configured queue capacity."
        ).set(self.max_depth)
        registry.counter(
            "repro_queue_admitted_total", "Jobs admitted past backpressure."
        ).set_function(lambda: self.admitted)
        registry.counter(
            "repro_queue_rejected_total", "Submissions rejected (queue full)."
        ).set_function(lambda: self.rejected)

    def depth(self, lane: Optional[str] = None) -> int:
        with self._cond:
            if lane is not None:
                return len(self._queues[lane])
            return sum(len(q) for q in self._queues.values())

    def stats(self) -> dict:
        with self._cond:
            return {
                "depth": sum(len(q) for q in self._queues.values()),
                "max_depth": self.max_depth,
                "lanes": {lane: len(q) for lane, q in self._queues.items()},
                "admitted": self.admitted,
                "rejected": self.rejected,
                "closed": self._closed,
                "retry_after_s": self.retry_after(),
            }
