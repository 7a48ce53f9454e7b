"""Service-layer throughput/latency benchmark.

Drives an in-process :class:`~repro.service.executor.ScenarioService`
(no HTTP, so the numbers isolate the queue/cache/worker path) with two
request mixes — all-miss ("cold", every spec a fresh fingerprint) and
90 % cache-hit ("hot90", the production shape once a scenario corpus
stabilises) — and records sustained req/s plus p50/p99 latencies to
``benchmarks/results/BENCH_service.json``. The service runs the
shipped ``ServiceConfig`` (its per-attempt timeout included); only the
worker count and queue depth are set here.

The acceptance bar rides along as an assertion: the cached-hit path
must be at least 10x faster than the cold path (it is ~100x — a dict
lookup vs a full simulation).
"""

import json
import pathlib
import time

from repro.scenarios import ScenarioSpec
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import JobSpec, JobState
from repro.util.stats import percentile

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_service.json"

WORKERS = 4
COLD_REQUESTS = 24
HOT_REQUESTS = 120  # 90% of these repeat a warm working set


def _spec(index: int) -> JobSpec:
    """Small distinct scenarios: ~ms-scale sims, unique fingerprints."""
    return JobSpec(
        scenario=ScenarioSpec(
            name=f"bench-{index}",
            kind="barrier_loop",
            works=(1.0e9 + index * 1.0e6, 2.0e9, 1.5e9, 3.0e9),
            iterations=2,
            priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
        )
    )


def _drive(service: ScenarioService, specs) -> dict:
    """Submit everything, wait for all, summarise wall/latency."""
    t0 = time.perf_counter()
    jobs = [service.submit(spec) for spec in specs]
    for job in jobs:
        service.wait(job.id, timeout=300.0)
    wall = time.perf_counter() - t0
    assert all(j.state is JobState.DONE for j in jobs)
    latencies = [j.latency_s for j in jobs]
    return {
        "requests": len(jobs),
        "wall_s": wall,
        "req_per_s": len(jobs) / wall,
        "latency_p50_s": percentile(latencies, 50.0),
        "latency_p99_s": percentile(latencies, 99.0),
        "latency_mean_s": sum(latencies) / len(latencies),
        "sources": {
            source: sum(1 for j in jobs if j.source == source)
            for source in ("computed", "cache", "coalesced")
        },
    }


def test_service_throughput_mixes():
    config = ServiceConfig(
        workers=WORKERS,
        queue_depth=max(COLD_REQUESTS, HOT_REQUESTS) + 8,
    )
    doc = {"workers": WORKERS}
    with ScenarioService(config) as service:
        # -- cold: every request is a fresh fingerprint (0% hit) -------------
        cold = _drive(
            service, [_spec(i) for i in range(COLD_REQUESTS)]
        )
        assert cold["sources"]["computed"] == COLD_REQUESTS
        doc["cold_0pct_hit"] = cold

        # -- hot90: 90% of requests repeat the (now cached) working set ------
        working_set = 12
        hot_specs = []
        fresh = 1000  # fingerprints disjoint from the cold phase
        for i in range(HOT_REQUESTS):
            if i % 10 == 9:  # every 10th request is a miss
                fresh += 1
                hot_specs.append(_spec(fresh))
            else:
                hot_specs.append(_spec(i % working_set))
        hot = _drive(service, hot_specs)
        doc["hot_90pct_hit"] = hot

        # -- isolated cached-hit latency (the acceptance ratio) --------------
        cached_spec = _spec(0)
        t0 = time.perf_counter()
        reps = 200
        for _ in range(reps):
            job = service.run(cached_spec, timeout=30.0)
            assert job.source == "cache"
        cached_mean = (time.perf_counter() - t0) / reps
        doc["cached_hit_mean_s"] = cached_mean
        doc["cold_compute_mean_s"] = cold["latency_mean_s"]
        doc["cached_speedup_x"] = cold["latency_mean_s"] / cached_mean
        doc["cache"] = service.metrics()["cache"]

    assert doc["cached_speedup_x"] >= 10.0, (
        f"cached path only {doc['cached_speedup_x']:.1f}x faster than cold"
    )
    assert hot["req_per_s"] > cold["req_per_s"]

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    if RESULTS_PATH.exists():
        # Keep any hand-written "_meta" annotation (measurement context,
        # cross-commit baselines) across regenerations, matching the
        # BENCH_simulator.json convention.
        try:
            doc["_meta"] = json.loads(RESULTS_PATH.read_text())["_meta"]
        except (ValueError, KeyError):
            pass
    RESULTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(
        f"\ncold {cold['req_per_s']:.1f} req/s "
        f"(p50 {cold['latency_p50_s'] * 1e3:.1f} ms, "
        f"p99 {cold['latency_p99_s'] * 1e3:.1f} ms); "
        f"hot90 {hot['req_per_s']:.1f} req/s "
        f"(p50 {hot['latency_p50_s'] * 1e3:.1f} ms, "
        f"p99 {hot['latency_p99_s'] * 1e3:.1f} ms); "
        f"cached hit {doc['cached_speedup_x']:.0f}x faster than cold"
        f"\n[saved to {RESULTS_PATH}]"
    )
