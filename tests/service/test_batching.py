"""Worker-side batch coalescing: queue policy, fallback, cache interplay.

Covers batch admission: ``JobQueue.get_batch`` respects lane priority
and never mixes incompatible jobs, a poison spec in a coalesced batch
fails only its own job, a batch attempt never outlives a member's total
deadline, and — the regression the in-flight cache demands — a
duplicate submission arriving while its spec is inside a running batch
coalesces onto that batch instead of re-running or reading a stale
result.
"""

import threading
import time

from repro.scenarios import ScenarioSpec
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import Job, JobResult, JobSpec, JobState, RetryPolicy
from repro.service.queue import JobQueue
from repro.util.deadline import check_deadline

WAIT = 30.0  # generous terminal-state wait; loaded CI machines are slow


def spec_for(name: str, **spec_kwargs) -> JobSpec:
    spec_kwargs.setdefault("lane", "batch")
    return JobSpec(
        scenario=ScenarioSpec(
            name=name, kind="barrier_loop", works=(1.0e9, 2.0e9), iterations=1
        ),
        **spec_kwargs,
    )


def stub_result(spec: JobSpec) -> JobResult:
    return JobResult(
        fingerprint=spec.fingerprint,
        digest=spec.fingerprint[:64],  # distinct per spec, stable per rerun
        label=spec.label,
        model=spec.model,
        total_time=1.0,
        imbalance_percent=0.0,
        events_processed=1,
        final_priorities=(4,),
        ranks=(),
        compute_seconds=0.001,
    )


def engine_key(job: Job) -> object:
    return (job.spec.engine,)


class TestQueueGetBatch:
    """The compatibility policy, tested at the queue itself."""

    def test_lane_priority_never_mixed_into_one_batch(self):
        queue = JobQueue(max_depth=16)
        batch_jobs = [Job(spec=spec_for(f"b{i}")) for i in range(3)]
        urgent = Job(spec=spec_for("urgent", lane="interactive"))
        for job in batch_jobs:
            queue.put(job)
        queue.put(urgent)
        # The interactive head drains first and alone — followers come
        # only from the head's own lane.
        first = queue.get_batch(8, engine_key)
        assert [j.id for j in first] == [urgent.id]
        second = queue.get_batch(8, engine_key)
        assert [j.id for j in second] == [j.id for j in batch_jobs]

    def test_incompatible_jobs_keep_fifo_position(self):
        queue = JobQueue(max_depth=16)
        a = Job(spec=spec_for("a", model="analytic"))
        c = Job(spec=spec_for("c", model="cycle"))
        b = Job(spec=spec_for("b", model="analytic"))
        for job in (a, c, b):
            queue.put(job)
        first = queue.get_batch(8, engine_key)
        assert [j.id for j in first] == [a.id, b.id]
        # The skipped cycle job is still next in line, not reordered.
        second = queue.get_batch(8, engine_key)
        assert [j.id for j in second] == [c.id]

    def test_max_n_caps_the_batch(self):
        queue = JobQueue(max_depth=16)
        jobs = [Job(spec=spec_for(f"j{i}")) for i in range(5)]
        for job in jobs:
            queue.put(job)
        got = queue.get_batch(2, engine_key)
        assert [j.id for j in got] == [jobs[0].id, jobs[1].id]
        assert queue.depth() == 3

    def test_closed_and_drained_returns_none(self):
        queue = JobQueue(max_depth=4)
        queue.close()
        assert queue.get_batch(8, engine_key) is None


class _Harness:
    """One-worker service with a gate job: while the gate's lone run
    blocks, submissions pile up in the queue and the *next* dequeue is a
    deterministic batch.

    The service's one runner takes a list of specs; calls with two or
    more specs are the batches, held by ``release_batch`` (or
    ``batch_hold_s``) and recorded in ``batches``."""

    def __init__(self, **config_kwargs):
        self.calls = []          # lone runs, plus batches that returned
        self.batches = []        # spec-name lists per multi-spec call
        self.gate_running = threading.Event()
        self.release_gate = threading.Event()
        self.batch_started = threading.Event()
        self.release_batch = threading.Event()
        self.fail_names = set()
        self.fail_batches = 0
        self.batch_spins = False  # batch attempts run until their deadline
        self.batch_hold_s = 0.0   # batch attempts ignore their deadline
        config_kwargs.setdefault("workers", 1)
        config_kwargs.setdefault(
            "retry", RetryPolicy(max_retries=0, base_s=0.01, max_backoff_s=0.05)
        )
        self.service = ScenarioService(
            ServiceConfig(**config_kwargs), runner=self._runner
        )

    def _runner(self, specs):
        if len(specs) > 1:
            return self._run_batch(specs)
        (spec,) = specs
        self.calls.append(spec.fingerprint)
        if spec.scenario.name == "gate":
            self.gate_running.set()
            assert self.release_gate.wait(WAIT)
        if spec.scenario.name in self.fail_names:
            raise ValueError(f"poison spec {spec.scenario.name}")
        return [stub_result(spec)]

    def _run_batch(self, specs):
        self.batches.append([s.scenario.name for s in specs])
        self.batch_started.set()
        while self.batch_spins:
            check_deadline()
            time.sleep(0.002)
        time.sleep(self.batch_hold_s)
        assert self.release_batch.wait(WAIT)
        if self.fail_batches > 0:
            self.fail_batches -= 1
            raise ValueError("batch attempt rejected")
        self.calls.extend(s.fingerprint for s in specs)
        return [stub_result(s) for s in specs]

    def open_gate_and_queue(self, specs):
        """Submit the gate, wait until it runs, queue ``specs`` behind it."""
        gate = self.service.submit(spec_for("gate"))
        assert self.gate_running.wait(WAIT)
        jobs = [self.service.submit(s) for s in specs]
        self.release_gate.set()
        return gate, jobs


class TestServiceBatching:
    def test_compatible_jobs_coalesce_into_one_batch_call(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "b", "c")]
            )
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            assert h.batches == [["a", "b", "c"]]
            for job in jobs:
                assert job.source == "computed"
                assert job.result.fingerprint == job.spec.fingerprint
                assert job.attempts == 1

    def test_incompatible_engines_split_into_separate_runs(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([
                spec_for("a", model="analytic"),
                spec_for("c", model="cycle"),
                spec_for("b", model="analytic"),
            ])
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            # One fluid batch; the cycle job ran alone.
            assert h.batches == [["a", "b"]]
            assert jobs[1].spec.fingerprint in h.calls

    def test_poison_spec_fails_only_its_own_job(self):
        h = _Harness()
        h.release_batch.set()
        h.fail_batches = 1          # the coalesced attempt blows up...
        h.fail_names = {"poison"}   # ...because of this spec, on replay too
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "poison", "b")]
            )
            states = {
                job.spec.scenario.name: service.wait(job.id, timeout=WAIT).state
                for job in jobs
            }
            assert states == {
                "a": JobState.DONE,
                "poison": JobState.FAILED,
                "b": JobState.DONE,
            }
            by_name = {job.spec.scenario.name: job for job in jobs}
            assert "poison spec" in by_name["poison"].error
            # The failed batch attempt was refunded: survivors show one
            # consumed attempt (the lone rerun), not two.
            assert by_name["a"].attempts == 1
            assert by_name["a"].result.fingerprint == jobs[0].spec.fingerprint

    def test_batch_timeout_falls_back_to_per_job_attempts(self):
        h = _Harness()
        h.batch_spins = True
        with h.service as service:
            t0 = time.perf_counter()
            _, jobs = h.open_gate_and_queue(
                [spec_for(n, timeout_s=0.05) for n in ("a", "b", "c")]
            )
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            # The batch stopped at its summed 0.15 s deadline.
            assert time.perf_counter() - t0 < 1.0
            assert h.batches == [["a", "b", "c"]]
            for job in jobs:
                assert job.source == "computed" and job.attempts == 1
                assert job.result.fingerprint == job.spec.fingerprint
                assert h.calls.count(job.spec.fingerprint) == 1

    def test_batch_telemetry_counts_batches_and_sizes(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "b", "c")]
            )
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            batches = service.registry.get("repro_service_batches_total")
            sizes = service.registry.get("repro_service_batch_size")
            assert batches.value == 1
            assert sizes.samples() == [3.0]

    def test_batch_attempt_honours_each_members_deadline(self):
        h = _Harness()
        h.release_batch.set()
        h.batch_hold_s = 0.2  # far past a's 0.05 s total deadline
        with h.service as service:
            _, (a, b) = h.open_gate_and_queue(
                [spec_for("a", deadline_s=0.05), spec_for("b")]
            )
            assert service.wait(a.id, timeout=WAIT).state is JobState.FAILED
            assert service.wait(b.id, timeout=WAIT).state is JobState.DONE
            assert h.batches == [["a", "b"]]
            assert "deadline" in a.error
            # The expired batch attempt was refunded; b then ran alone.
            assert b.attempts == 1 and b.source == "computed"


class TestClaimDuringRunningBatch:
    """Regression: ``ResultCache.claim()`` vs an in-flight batch.

    A duplicate fingerprint submitted while its spec is *inside a
    running batch* must attach as a follower of that batch member — one
    execution total, and the follower gets the batch's (complete)
    result, never a stale or partial one.
    """

    def test_duplicate_coalesces_onto_running_batch(self):
        h = _Harness()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([spec_for("a"), spec_for("b")])
            assert h.batch_started.wait(WAIT)
            # The batch holds a's flight open; this duplicate must ride it.
            dup = service.submit(spec_for("a"))
            assert dup.state is JobState.QUEUED and not dup.state.terminal
            h.release_batch.set()
            for job in jobs + [dup]:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            assert dup.source == "coalesced"
            assert dup.result.digest == jobs[0].result.digest
            # One execution of a's fingerprint across every path.
            assert h.calls.count(jobs[0].spec.fingerprint) == 1
            # And a post-settle duplicate is a pure cache hit.
            late = service.submit(spec_for("a"))
            assert late.source == "cache"
            assert h.calls.count(jobs[0].spec.fingerprint) == 1

    def test_cache_hit_before_batch_never_requeues(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([spec_for("a"), spec_for("b")])
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            depth_after = service.queue.depth()
            hit = service.submit(spec_for("a"))
            assert hit.source == "cache" and hit.state is JobState.DONE
            assert service.queue.depth() == depth_after
            assert h.batches == [["a", "b"]]
