"""ScenarioService: coalescing, timeout/retry/deadline, digests, metrics.

Fast paths use a stub ``runner`` so scheduling behaviour is tested
without real simulations: each test writes a per-spec stub and
:func:`make_service` maps it over the list of specs the service's
runner receives. The digest-equality tests at the bottom run the real
executor against direct fluid-engine and ``run_case`` runs.
"""

import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    QueueFullError,
    TransientWorkerError,
    UnknownJobError,
)
from repro.experiments.cases import metbench_suite
from repro.experiments.runner import run_case
from repro.machine.system import System, SystemConfig
from repro.scenarios import ScenarioSpec, get_engine
from repro.scenarios.engines import FluidEngine, trace_digest
from repro.service.executor import ScenarioService, ServiceConfig, execute_specs
from repro.service.jobs import JobResult, JobSpec, JobState, RetryPolicy
from repro.util.deadline import check_deadline, current_deadline
from repro.util.stats import percentile

WAIT = 30.0  # generous terminal-state wait; loaded CI machines are slow


def spec_for(name: str, **spec_kwargs) -> JobSpec:
    return JobSpec(
        scenario=ScenarioSpec(
            name=name, kind="barrier_loop", works=(1.0e9, 2.0e9), iterations=1
        ),
        **spec_kwargs,
    )


def stub_result(spec: JobSpec) -> JobResult:
    return JobResult(
        fingerprint=spec.fingerprint,
        digest="d" * 64,
        label=spec.label,
        model=spec.model,
        total_time=1.0,
        imbalance_percent=0.0,
        events_processed=1,
        final_priorities=(4,),
        ranks=(),
        compute_seconds=0.001,
    )


def make_service(run_one, **config_kwargs) -> ScenarioService:
    """A service whose list runner runs ``run_one`` on each spec in turn."""
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault(
        "retry", RetryPolicy(max_retries=2, base_s=0.01, max_backoff_s=0.05)
    )
    return ScenarioService(
        ServiceConfig(**config_kwargs),
        runner=lambda specs: [run_one(spec) for spec in specs],
    )


def blocking_runner():
    """A per-spec runner that holds every spec until ``release`` is
    set, and signals ``started`` once the first one is running."""
    started, release = threading.Event(), threading.Event()

    def runner(spec):
        started.set()
        assert release.wait(WAIT)
        return stub_result(spec)

    return runner, started, release


class TestCoalescing:
    def test_concurrent_duplicates_run_once_and_share_the_result(self):
        release = threading.Event()
        calls = []

        def runner(spec):
            calls.append(spec.fingerprint)
            assert release.wait(WAIT)
            return stub_result(spec)

        with make_service(runner, workers=2) as service:
            jobs = [service.submit(spec_for("dup")) for _ in range(5)]
            # All five share one fingerprint: one leader runs, the rest
            # attach in flight and consume no queue slot.
            time.sleep(0.05)
            assert service.queue.depth() == 0
            release.set()
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            assert all(j.state is JobState.DONE for j in jobs)
            assert len(calls) == 1
            sources = sorted(j.source for j in jobs)
            assert sources.count("coalesced") == 4
            assert sources.count("computed") == 1
            digests = {j.result.digest for j in jobs}
            assert digests == {"d" * 64}
            assert service.cache.stats()["coalesced"] == 4

    def test_sequential_duplicate_served_from_cache(self):
        calls = []

        def runner(spec):
            calls.append(1)
            return stub_result(spec)

        with make_service(runner) as service:
            first = service.run(spec_for("seq"), timeout=WAIT)
            second = service.run(spec_for("seq"), timeout=WAIT)
            assert first.source == "computed"
            assert second.source == "cache"
            assert second.result == first.result
            assert len(calls) == 1
            assert service.metrics()["counters"]["cache_hits"] == 1

    def test_leader_failure_fails_followers_without_rerun(self):
        release = threading.Event()
        calls = []

        def runner(spec):
            calls.append(1)
            assert release.wait(WAIT)
            raise ConfigurationError("deterministic failure")

        with make_service(runner, workers=1) as service:
            jobs = [service.submit(spec_for("bad")) for _ in range(3)]
            release.set()
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            assert all(j.state is JobState.FAILED for j in jobs)
            assert all("deterministic failure" in j.error for j in jobs)
            assert len(calls) == 1


class TestTimeoutsAndRetries:
    def test_per_job_timeout(self):
        def runner(spec):
            time.sleep(5.0)
            return stub_result(spec)

        with make_service(
            runner, retry=RetryPolicy(max_retries=0, base_s=0.01)
        ) as service:
            job = service.run(spec_for("slow", timeout_s=0.1), timeout=WAIT)
            assert job.state is JobState.FAILED
            assert "JobTimeoutError" in job.error
            assert service.metrics()["counters"]["timeouts"] == 1

    def test_transient_failures_retry_with_backoff_then_succeed(self):
        attempts = []

        def runner(spec):
            attempts.append(time.perf_counter())
            if len(attempts) < 3:
                raise TransientWorkerError("worker hiccup")
            return stub_result(spec)

        with make_service(
            runner,
            retry=RetryPolicy(max_retries=3, base_s=0.02, multiplier=2.0),
        ) as service:
            job = service.run(spec_for("flaky"), timeout=WAIT)
            assert job.state is JobState.DONE
            assert job.attempts == 3
            assert service.metrics()["counters"]["retries"] == 2
            # Backoff between attempts grows: 0.02 then 0.04.
            assert attempts[1] - attempts[0] >= 0.015
            assert attempts[2] - attempts[1] >= 0.03

    def test_retries_exhausted(self):
        def runner(spec):
            raise TransientWorkerError("always down")

        with make_service(
            runner, retry=RetryPolicy(max_retries=2, base_s=0.01)
        ) as service:
            job = service.run(spec_for("down"), timeout=WAIT)
            assert job.state is JobState.FAILED
            assert job.attempts == 3

    def test_deterministic_errors_never_retry(self):
        calls = []

        def runner(spec):
            calls.append(1)
            raise ConfigurationError("bad physics")

        with make_service(runner) as service:
            job = service.run(spec_for("det"), timeout=WAIT)
            assert job.state is JobState.FAILED
            assert job.attempts == 1 and len(calls) == 1

    def test_spec_max_retries_overrides_service_default(self):
        calls = []

        def runner(spec):
            calls.append(1)
            raise TransientWorkerError("down")

        with make_service(
            runner, retry=RetryPolicy(max_retries=5, base_s=0.01)
        ) as service:
            job = service.run(spec_for("capped", max_retries=1), timeout=WAIT)
            assert job.state is JobState.FAILED
            assert job.attempts == 2

    def test_deadline_expires_in_queue(self):
        runner, started, release = blocking_runner()
        with make_service(runner, workers=1) as service:
            blocker = service.submit(spec_for("blocker"))
            # The blocker must already run, or the two would share a batch.
            assert started.wait(WAIT)
            late = service.submit(spec_for("late", deadline_s=0.05))
            time.sleep(0.2)
            release.set()
            service.wait(blocker.id, timeout=WAIT)
            job = service.wait(late.id, timeout=WAIT)
            assert job.state is JobState.FAILED
            assert "deadline" in job.error


class TestCooperativeDeadline:
    """A timeout stops the work: attempts run inline on the worker under
    a deadline that runners and the MPI runtime check."""

    def test_checking_runner_stops_at_its_timeout(self):
        iterations = []

        def runner(spec):
            while True:
                check_deadline()
                iterations.append(1)
                time.sleep(0.002)

        with make_service(
            runner, retry=RetryPolicy(max_retries=0, base_s=0.01)
        ) as service:
            t0 = time.perf_counter()
            job = service.run(spec_for("spin", timeout_s=0.1), timeout=WAIT)
            assert time.perf_counter() - t0 < 1.0
            assert job.state is JobState.FAILED
            assert "JobTimeoutError" in job.error
            counters = service.metrics()["counters"]
            assert counters["timeouts"] == 1 and counters["retries"] == 0
            # The runner itself stopped; nothing is still spinning.
            seen = len(iterations)
            time.sleep(0.05)
            assert len(iterations) == seen

    def test_timed_out_fluid_job_leaves_no_thread_and_no_stale_deadline(self):
        long_run = ScenarioSpec(
            name="long", kind="barrier_loop",
            works=(1.0e9, 2.0e9, 1.5e9, 3.0e9), iterations=5000,
        )
        short_run = ScenarioSpec(
            name="short", kind="barrier_loop",
            works=(1.0e9, 2.0e9, 1.5e9, 3.0e9), iterations=2,
        )
        deadlines = []

        def runner(specs):
            deadlines.append(current_deadline())
            return execute_specs(specs)

        service = ScenarioService(
            ServiceConfig(
                workers=1, default_timeout_s=None,
                retry=RetryPolicy(max_retries=0, base_s=0.01),
            ),
            runner=runner,
        )
        with service:
            threads_before = set(threading.enumerate())
            job = service.run(
                JobSpec(scenario=long_run, timeout_s=0.05), timeout=WAIT
            )
            assert job.state is JobState.FAILED
            assert "JobTimeoutError" in job.error
            assert "exceeded its timeout" in job.error
            # No compute thread outlives the job.
            assert set(threading.enumerate()) <= threads_before
            assert service.metrics()["counters"]["timeouts"] == 1

            after = service.run(JobSpec(scenario=short_run), timeout=WAIT)
            assert after.state is JobState.DONE, after.error
            assert deadlines[0] is not None and deadlines[1] is None
            assert after.result.digest == FluidEngine().run(short_run).digest


class TestAdmission:
    def test_backpressure_propagates(self):
        runner, started, release = blocking_runner()
        with make_service(runner, workers=1, queue_depth=1) as service:
            running = service.submit(spec_for("a"))
            assert started.wait(WAIT)  # the worker took it off the queue
            service.submit(spec_for("b"))
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(spec_for("c"))
            assert excinfo.value.retry_after > 0
            release.set()
            service.wait(running.id, timeout=WAIT)

    def test_cancel_queued_job(self):
        runner, started, release = blocking_runner()
        with make_service(runner, workers=1) as service:
            blocker = service.submit(spec_for("a"))
            assert started.wait(WAIT)
            queued = service.submit(spec_for("b"))
            cancelled = service.cancel(queued.id)
            assert cancelled.state is JobState.CANCELLED
            release.set()
            service.wait(blocker.id, timeout=WAIT)
            assert service.get(queued.id).state is JobState.CANCELLED
            assert service.metrics()["counters"]["cancelled"] == 1

    def test_unknown_job(self):
        with make_service(stub_result) as service:
            with pytest.raises(UnknownJobError):
                service.get("job-nope")

    def test_shutdown_without_drain_cancels_queued(self):
        runner, started, release = blocking_runner()
        service = make_service(runner, workers=1)
        service.submit(spec_for("a"))
        assert started.wait(WAIT)
        queued = service.submit(spec_for("b"))
        # shutdown() joins the workers, so run it while the worker is
        # still blocked: the cancel of queued jobs happens up front.
        shutter = threading.Thread(target=lambda: service.shutdown(drain=False))
        shutter.start()
        deadline = time.perf_counter() + WAIT
        while (
            service.get(queued.id).state is not JobState.CANCELLED
            and time.perf_counter() < deadline
        ):
            time.sleep(0.01)
        assert service.get(queued.id).state is JobState.CANCELLED
        release.set()
        shutter.join(WAIT)
        assert not shutter.is_alive()


class TestMetrics:
    def test_latency_percentiles_and_counts(self):
        with make_service(stub_result) as service:
            for i in range(5):
                service.run(spec_for(f"m{i}"), timeout=WAIT)
            metrics = service.metrics()
            assert metrics["jobs"]["done"] == 5
            assert metrics["latency"]["count"] == 5
            assert metrics["latency"]["p99_s"] >= metrics["latency"]["p50_s"]
            assert metrics["queue"]["depth"] == 0
            assert metrics["counters"]["completed"] == 5

    def test_percentile_helper(self):
        sample = [float(i) for i in range(1, 101)]
        assert percentile(sample, 50.0) == pytest.approx(50.0, abs=1.0)
        assert percentile(sample, 99.0) == pytest.approx(99.0, abs=1.0)
        assert percentile([3.0], 99.0) == 3.0
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)


class TestRealExecution:
    """The acceptance bar: served digests == direct-run digests."""

    def test_scenario_digest_matches_run_fluid(self, oracle_scenario):
        spec = JobSpec(scenario=oracle_scenario)
        with ScenarioService(
            ServiceConfig(workers=1, default_timeout_s=None)
        ) as service:
            job = service.run(spec, timeout=120.0)
            assert job.state is JobState.DONE, job.error
            direct = get_engine("fluid").run(oracle_scenario)
            assert job.result.digest == direct.digest
            assert job.result.total_time == direct.total_time
            assert job.result.imbalance_percent == direct.imbalance_percent
            assert tuple(job.result.final_priorities) == tuple(
                direct.final_priorities
            )

    def test_case_digest_matches_run_case(self):
        spec = JobSpec(suite="metbench", case="A", iterations=2)
        with ScenarioService(
            ServiceConfig(workers=1, default_timeout_s=None)
        ) as service:
            job = service.run(spec, timeout=120.0)
            assert job.state is JobState.DONE, job.error
        suite = metbench_suite(iterations=2)
        direct = run_case(System(SystemConfig()), suite, suite.case("A"))
        assert job.result.digest == trace_digest(direct.run)
        assert job.result.total_time == direct.run.total_time

    def test_workers_reuse_their_warm_systems(self):
        engine = get_engine("fluid")
        systems_before = len(engine._systems)
        specs = [
            JobSpec(scenario=ScenarioSpec(
                name=f"warm-{i}", kind="barrier_loop",
                works=(1.0e9 + i * 1.0e6, 2.0e9, 1.5e9, 3.0e9), iterations=2,
            ))
            for i in range(40)
        ]
        with ScenarioService(ServiceConfig(workers=2)) as service:
            jobs = [service.submit(spec) for spec in specs]
            for job in jobs:
                assert service.wait(job.id, timeout=120.0).state is JobState.DONE
        # One warm System per worker thread, whatever the job count.
        assert len(engine._systems) - systems_before <= 2

    def test_execute_spec_is_deterministic(self, oracle_scenario):
        spec = JobSpec(scenario=oracle_scenario)
        first, second = execute_specs([spec, spec])
        assert first.digest == second.digest == execute_specs([spec])[0].digest
