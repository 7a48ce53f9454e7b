"""Scenario-serving service layer: queue, workers, result cache, HTTP API.

The rest of the package answers "what happens when this scenario runs"
one CLI invocation at a time. This subpackage turns that into a
long-lived service in the shape runtime balancers take in the cluster
literature (a global coordinator in front of per-scenario executors):

* :mod:`repro.service.jobs` — the typed request/outcome language
  (:class:`JobSpec`, :class:`Job`, :class:`JobResult`, retry policy);
* :mod:`repro.service.queue` — a bounded FIFO with priority lanes and
  explicit backpressure;
* :mod:`repro.service.cache` — a content-addressed result cache keyed
  by the oracle layer's sha256 scenario fingerprints, with in-flight
  coalescing;
* :mod:`repro.service.executor` — the :class:`ScenarioService` worker
  pool that ties them together, running each dequeued list of
  same-engine jobs through one ``engine.run_batch`` call of the
  :mod:`repro.scenarios` engine registry;
* :mod:`repro.service.server` — the stdlib-only HTTP JSON API behind
  ``repro serve``.
"""

from __future__ import annotations

from repro.service.cache import ResultCache
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import Job, JobResult, JobSpec, JobState, RetryPolicy
from repro.service.queue import JobQueue

__all__ = [
    "Job",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobState",
    "ResultCache",
    "RetryPolicy",
    "ScenarioService",
    "ServiceConfig",
]
