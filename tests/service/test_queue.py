"""Queue semantics: lane priority, FIFO order, backpressure, shutdown."""

import pytest

from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.scenarios import ScenarioSpec
from repro.service.jobs import Job, JobSpec
from repro.service.queue import JobQueue


def job(name: str, lane: str = "batch") -> Job:
    return Job(
        spec=JobSpec(
            scenario=ScenarioSpec(
                name=name, kind="barrier_loop", works=(1.0e9,), iterations=1
            ),
            lane=lane,
        )
    )


def pop(queue: JobQueue):
    """The next job on its own (a one-job batch); None on timeout or
    once the queue is closed and drained."""
    got = queue.get_batch(1, lambda job: job.spec.engine, timeout=0.1)
    return None if got is None else got[0]


class TestOrdering:
    def test_fifo_within_lane(self):
        queue = JobQueue(max_depth=8)
        names = ["a", "b", "c"]
        for name in names:
            queue.put(job(name))
        popped = [pop(queue).spec.scenario.name for _ in names]
        assert popped == names

    def test_interactive_overtakes_batch(self):
        queue = JobQueue(max_depth=8)
        queue.put(job("slow-1", lane="batch"))
        queue.put(job("slow-2", lane="batch"))
        queue.put(job("urgent", lane="interactive"))
        assert pop(queue).spec.scenario.name == "urgent"
        assert pop(queue).spec.scenario.name == "slow-1"

    def test_unknown_lane_rejected(self):
        queue = JobQueue(max_depth=2, lanes=("batch",))
        with pytest.raises(ConfigurationError):
            queue.put(job("x", lane="interactive"))


class TestBackpressure:
    def test_put_past_depth_raises_with_retry_after(self):
        queue = JobQueue(max_depth=2, retry_after_floor_s=0.25)
        queue.put(job("a"))
        queue.put(job("b"))
        with pytest.raises(QueueFullError) as excinfo:
            queue.put(job("c"))
        err = excinfo.value
        assert err.depth == 2 and err.max_depth == 2
        assert err.retry_after >= 0.25
        assert queue.stats()["rejected"] == 1

    def test_retry_after_scales_with_load(self):
        queue = JobQueue(max_depth=16, retry_after_floor_s=0.1)
        queue.set_load_hints(service_time_s=2.0, workers=2)
        for i in range(4):
            queue.put(job(f"j{i}"))
        # 4 queued jobs x 2 s each over 2 workers.
        assert queue.retry_after() == pytest.approx(4.0)

    def test_depth_counts_all_lanes(self):
        queue = JobQueue(max_depth=4)
        queue.put(job("a", lane="batch"))
        queue.put(job("b", lane="interactive"))
        assert queue.depth() == 2
        assert queue.depth("interactive") == 1
        assert queue.stats()["lanes"] == {"interactive": 1, "batch": 1}


class TestShutdown:
    def test_get_times_out_empty(self):
        assert pop(JobQueue(max_depth=2)) is None

    def test_closed_queue_rejects_puts_but_drains(self):
        queue = JobQueue(max_depth=4)
        queue.put(job("a"))
        queue.close()
        with pytest.raises(ServiceError):
            queue.put(job("b"))
        assert pop(queue).spec.scenario.name == "a"
        assert pop(queue) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobQueue(max_depth=0)
        with pytest.raises(ConfigurationError):
            JobQueue(lanes=())
