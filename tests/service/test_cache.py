"""Result cache: content addressing, coalescing registry, accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobResult, JobSpec


def job(name: str = "t") -> Job:
    return Job(
        spec=JobSpec(
            scenario=ScenarioSpec(
                name=name, kind="barrier_loop", works=(1.0e9,), iterations=1
            )
        )
    )


def result_for(j: Job) -> JobResult:
    return JobResult(
        fingerprint=j.spec.fingerprint,
        digest="d" * 64,
        label=j.spec.label,
        model="analytic",
        total_time=1.0,
        imbalance_percent=0.0,
        events_processed=1,
        final_priorities=(4,),
        ranks=(),
        compute_seconds=0.01,
    )


class TestClaimSettle:
    def test_leader_then_hit(self):
        cache = ResultCache()
        leader = job()
        role, hit = cache.claim(leader)
        assert role == "leader" and hit is None
        assert cache.in_flight() == 1
        settled_leader, followers = cache.settle(
            leader.spec.fingerprint, result_for(leader)
        )
        assert settled_leader is leader and followers == []
        role, hit = cache.claim(job())
        assert role == "cache"
        assert hit.digest == "d" * 64
        assert cache.in_flight() == 0

    def test_followers_attach_and_count(self):
        cache = ResultCache()
        leader, f1, f2 = job(), job(), job()
        assert cache.claim(leader)[0] == "leader"
        assert cache.claim(f1)[0] == "follower"
        assert cache.claim(f2)[0] == "follower"
        assert cache.stats()["coalesced"] == 2
        _, followers = cache.settle(leader.spec.fingerprint, result_for(leader))
        assert followers == [f1, f2]

    def test_failed_settle_stores_nothing(self):
        cache = ResultCache()
        leader = job()
        cache.claim(leader)
        cache.settle(leader.spec.fingerprint, None)
        assert cache.claim(job())[0] == "leader"  # miss again
        assert cache.stats()["inserts"] == 0

    def test_settle_unknown_fingerprint(self):
        with pytest.raises(ConfigurationError):
            ResultCache().settle("f" * 64, None)

    def test_distinct_fingerprints_do_not_coalesce(self):
        cache = ResultCache()
        assert cache.claim(job("a"))[0] == "leader"
        assert cache.claim(job("b"))[0] == "leader"
        assert cache.stats()["coalesced"] == 0


class TestAccounting:
    def test_bytes_and_entries(self):
        cache = ResultCache()
        j = job()
        cache.put(j.spec.fingerprint, result_for(j))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["inserts"] == 1
        # The weigher measures the serialised result document.
        assert stats["bytes"] > 100

    def test_lru_eviction_bounds_entries_and_bytes(self):
        cache = ResultCache(max_entries=2)
        jobs = [job(f"j{i}") for i in range(3)]
        for j in jobs:
            cache.put(j.spec.fingerprint, result_for(j))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert cache.get(jobs[0].spec.fingerprint) is None  # evicted
        one_entry_bytes = stats["bytes"] / 2
        cache.clear()
        assert cache.stats()["entries"] == 0
        assert cache.stats()["bytes"] == 0
        cache.put(jobs[0].spec.fingerprint, result_for(jobs[0]))
        assert cache.stats()["bytes"] == pytest.approx(one_entry_bytes, rel=0.1)

    def test_hit_miss_counters(self):
        cache = ResultCache()
        j = job()
        assert cache.get(j.spec.fingerprint) is None
        cache.put(j.spec.fingerprint, result_for(j))
        assert cache.get(j.spec.fingerprint) is not None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=-1)
