"""The ``service`` workload: load on ``repro serve`` at its shipped defaults.

The server runs as a subprocess started with no flags (so on
127.0.0.1:8080 with the shipped ``ServiceConfig``). This process is the
only client: at most two threads and two open connections. Three phases:

``open``
    Open loop at ``OPEN_RATE`` requests/s. Each ``POST /v1/jobs`` uses a
    fresh connection, as the documented urllib and curl clients do.
    About one request in three repeats an earlier spec. A request's
    latency runs from the time it was due to the ``finished_at`` stamp
    in its job document, read back after the phase.
``capacity``
    Two callers in rounds: each round both post ``POST /v1/jobs:batch?wait=``
    with ``BATCH`` fresh specs at once, and the next round starts when
    both replies are in.
``keepalive``
    One persistent connection sending sequential cache-hit
    ``POST /v1/jobs?wait=`` requests.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import common
from tracer import Tracer

HOST, PORT = "127.0.0.1", 8080
#: Shares of ``--seconds`` given to the three phases.
OPEN_SHARE, CAPACITY_SHARE, KEEPALIVE_SHARE = 0.4, 0.5, 0.1
OPEN_RATE = 100.0
REPEAT_SHARE = 1.0 / 3.0
BATCH = 32
KEEPALIVE_SPECS = 4
DIGEST_SAMPLES = 10
#: Open-phase requests in a fixed-work (traced) run.
FIXED_OPEN_REQUESTS = 400
SERVE_ARGV: List[str] = []  # the shipped defaults: no flags at all


class ServiceRefused(RuntimeError):
    """The server is not running the shipped configuration."""


# -- HTTP ---------------------------------------------------------------------


def _request(
    conn: http.client.HTTPConnection, method: str, path: str,
    doc: Optional[dict] = None, close: bool = True,
) -> Tuple[int, dict]:
    body = json.dumps(doc).encode("utf-8") if doc is not None else None
    headers = {"Content-Type": "application/json"}
    if close:
        headers["Connection"] = "close"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    data = resp.read()
    try:
        parsed = json.loads(data.decode("utf-8")) if data else {}
    except ValueError:
        parsed = {"raw": data.decode("utf-8", "replace")}
    return resp.status, parsed


def fresh(method: str, path: str, doc: Optional[dict] = None, timeout: float = 60.0):
    """One request on its own connection."""
    conn = http.client.HTTPConnection(HOST, PORT, timeout=timeout)
    try:
        return _request(conn, method, path, doc)
    finally:
        conn.close()


def metrics_text() -> str:
    conn = http.client.HTTPConnection(HOST, PORT, timeout=30)
    try:
        conn.request("GET", "/metrics?format=prometheus", headers={"Connection": "close"})
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def prometheus_values(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


# -- the server ---------------------------------------------------------------


#: The server runs on one CPU and this client on the others, so the two
#: never queue for the same CPU, and the host's speed can be sampled on
#: the server's CPU while it is idle. (The server's Python threads share
#: one interpreter lock, so one CPU is what it can use anyway.)
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[-1]}
CLIENT_CPUS = set(_CPUS[:-1]) or SERVER_CPUS


def server_ref_s() -> float:
    """:func:`common.host_ref_s` on the server's CPU (this thread only)."""
    os.sched_setaffinity(0, SERVER_CPUS)
    try:
        return common.host_ref_s()
    finally:
        os.sched_setaffinity(0, CLIENT_CPUS)


class Server:
    """``python -m repro.cli serve`` with no flags, as a subprocess."""

    def __init__(self, telemetry: bool) -> None:
        self.telemetry = telemetry
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Start and wait until ``/healthz`` answers; returns seconds."""
        t0 = time.perf_counter()
        # A child inherits the CPUs of the thread that starts it.
        os.sched_setaffinity(0, SERVER_CPUS)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGV],
                env=common.child_env(telemetry=self.telemetry),
                cwd=str(common.ROOT),
                stdout=subprocess.DEVNULL,
            )
        finally:
            os.sched_setaffinity(0, CLIENT_CPUS)
        deadline = t0 + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.proc.returncode} "
                    f"before it was ready (is port {PORT} free?)"
                )
            try:
                status, _doc = fresh("GET", "/healthz", timeout=5.0)
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve was not ready within 60 s")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate and wait for exit. (Not SIGINT: a process started in
        the background inherits SIGINT ignored, and so would the server.)"""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


def shipped_config() -> dict:
    """The ``ServiceConfig`` ``repro serve`` builds from ``SERVE_ARGV``,
    checked against the dataclass defaults it ships with."""
    from repro.cli import build_parser
    from repro.service.executor import ServiceConfig

    args = build_parser().parse_args(["serve", *SERVE_ARGV])
    used = {
        "workers": args.workers,
        "queue_depth": args.queue_depth,
        "cache_entries": args.cache_entries,
        "default_timeout_s": args.timeout if args.timeout > 0 else None,
        "throughput_table_path": args.table,
    }
    shipped = asdict(ServiceConfig())
    differs = {k: (v, shipped[k]) for k, v in used.items() if shipped[k] != v}
    if SERVE_ARGV or differs:
        raise ServiceRefused(
            f"repro serve would not run the shipped ServiceConfig: argv "
            f"{SERVE_ARGV}, (used, shipped) differ on {differs}"
        )
    return {"argv": list(SERVE_ARGV), "config": shipped}


def check_live_config(expected: dict) -> dict:
    """What the running server reports must match the shipped config."""
    status, doc = fresh("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    live = {
        "workers": doc["workers"],
        "queue_depth": doc["queue"]["max_depth"],
        "cache_entries": doc["cache"]["max_entries"],
    }
    differs = {k: (v, expected[k]) for k, v in live.items() if expected[k] != v}
    if differs:
        raise ServiceRefused(f"the server runs a non-shipped config: {differs}")
    return live


# -- inputs -------------------------------------------------------------------


class SpecSource:
    """Seeded, distinct 4-rank scenario specs as job documents."""

    def __init__(self, seed: int, stream: str) -> None:
        self.rng = random.Random(f"service:{seed}:{stream}")
        self.stream = stream
        self.count = 0

    def fresh(self) -> dict:
        from repro.scenarios import ScenarioSpec

        rng = self.rng
        kind = rng.choice(("metbench", "barrier_loop"))
        works = tuple(round(rng.uniform(5e8, 2.5e9), -6) for _ in range(4))
        priorities: Tuple[Tuple[int, int], ...] = ()
        if rng.random() < 0.5:
            prios = []
            for a, b in ((0, 1), (2, 3)):
                pa = rng.choice((3, 4, 5, 6))
                pb = rng.choice([p for p in (3, 4, 5, 6) if abs(p - pa) <= 2])
                prios += [(a, pa), (b, pb)]
            priorities = tuple(prios)
        spec = ScenarioSpec(
            name=f"svc-{self.stream}-{self.count}", kind=kind, works=works,
            iterations=2, profile="hpc", priorities=priorities,
        )
        self.count += 1
        return {"scenario": spec.to_doc()}

    def mixed(self, n: int) -> List[dict]:
        """``n`` requests; about ``REPEAT_SHARE`` of them repeat an
        earlier one."""
        out: List[dict] = []
        distinct: List[dict] = []
        for _ in range(n):
            if distinct and self.rng.random() < REPEAT_SHARE:
                out.append(self.rng.choice(distinct))
            else:
                distinct.append(self.fresh())
                out.append(distinct[-1])
        return out


# -- phases -------------------------------------------------------------------


def _run_threads(targets) -> None:
    errors: List[BaseException] = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,), daemon=True) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            raise RuntimeError("a client thread did not finish")
    if errors:
        raise errors[0]


def open_phase(requests: List[dict], submit) -> List[tuple]:
    """Send ``requests`` on the open-loop schedule; returns per-request
    records (due, sent, status, job id, submit round trip)."""
    n = len(requests)
    records: List[Optional[tuple]] = [None] * n
    t0 = time.time() + 0.05

    def sender(k: int) -> None:
        for i in range(k, n, 2):
            due = t0 + i / OPEN_RATE
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            sent = time.time()
            c0 = time.perf_counter()
            status, doc = submit(requests[i])
            rtt = time.perf_counter() - c0
            records[i] = (due, sent, status, doc.get("id"), rtt)

    _run_threads([lambda: sender(0), lambda: sender(1)])
    return records


def collect_jobs(job_ids: List[str], timeout_s: float = 60.0) -> Dict[str, dict]:
    """Job documents for ``job_ids``, polled until terminal."""
    docs: Dict[str, dict] = {}
    ids = list(job_ids)
    deadline = time.time() + timeout_s

    def poller(k: int) -> None:
        for job_id in ids[k::2]:
            while True:
                status, doc = fresh("GET", f"/v1/jobs/{job_id}")
                if status == 200 and doc.get("state") in ("done", "failed", "cancelled"):
                    docs[job_id] = doc
                    break
                if time.time() > deadline:
                    docs[job_id] = doc
                    break
                time.sleep(0.02)

    _run_threads([lambda: poller(0), lambda: poller(1)])
    return docs


def capacity_phase(source: SpecSource, seconds: Optional[float], rounds: Optional[int]) -> dict:
    """Rounds of two concurrent ``BATCH``-job batch calls, for ``seconds``
    or ``rounds``.

    Each round starts both callers together and ends when both replies
    are in, so the server is idle between rounds; the host's speed is
    sampled on its CPU there (see ``common.host_ref_s``), and each round's rate is
    scaled by the mean speed of the samples on either side of it.
    """
    results: List[tuple] = []
    bodies: List[List[dict]] = []
    round_rates: List[float] = []
    round_rates_unscaled: List[float] = []
    t0 = time.perf_counter()
    end = t0 + (seconds or 0.0)
    ref_before = server_ref_s()
    while (len(round_rates) < rounds) if rounds else (time.perf_counter() < end or not round_rates):
        jobs = [[source.fresh() for _ in range(BATCH)] for _ in range(2)]
        replies: List[Optional[tuple]] = [None, None]

        def caller(k: int) -> None:
            replies[k] = fresh("POST", "/v1/jobs:batch?wait=120", {"jobs": jobs[k]}, timeout=150)

        r0 = time.perf_counter()
        _run_threads([lambda: caller(0), lambda: caller(1)])
        round_s = time.perf_counter() - r0
        ref_after = server_ref_s()
        done = sum(
            1 for _status, doc in replies for e in doc.get("jobs", [])
            if e.get("state") == "done"
        )
        speed = common.host_speed(0.5 * (ref_before + ref_after))
        round_rates.append(done / (round_s * speed))
        round_rates_unscaled.append(done / round_s)
        results.extend(replies)
        bodies.extend(jobs)
        ref_before = ref_after
    wall = time.perf_counter() - t0
    entries = [entry for _status, doc in results for entry in doc.get("jobs", [])]
    n_jobs = sum(len(b) for b in bodies)
    done_jobs = sum(1 for e in entries if e.get("state") == "done")
    rejected = sum(1 for e in entries if "error" in e)
    return {
        "rate_per_s": statistics.median(round_rates),
        "rate_per_s_unscaled": statistics.median(round_rates_unscaled),
        "rounds": len(round_rates),
        "wall_s": wall, "jobs": n_jobs, "done": done_jobs, "rejected": rejected,
        "not_done_ids": [e["id"] for e in entries if "id" in e and e.get("state") != "done"],
        "entries": [e for e in entries if e.get("state") == "done"],
    }


def keepalive_phase(specs: List[dict], seconds: Optional[float], count: Optional[int]) -> dict:
    """Sequential ``?wait=`` requests on one persistent connection."""
    conn = http.client.HTTPConnection(HOST, PORT, timeout=60)
    rtts: List[float] = []
    states: List[str] = []
    try:
        # Make every spec a cache hit first (not timed).
        for spec in specs:
            _request(conn, "POST", "/v1/jobs?wait=60", spec, close=False)
        end = time.perf_counter() + (seconds or 0.0)
        i = 0
        while (i < count) if count else (time.perf_counter() < end or i < 3):
            c0 = time.perf_counter()
            status, doc = _request(conn, "POST", "/v1/jobs?wait=60", specs[i % len(specs)], close=False)
            rtts.append(time.perf_counter() - c0)
            states.append(doc.get("state") if status == 200 else f"http {status}")
            i += 1
    finally:
        conn.close()
    return {"rtts": rtts, "states": states}


# -- one server lifetime ------------------------------------------------------


def drive(seed: int, server: Server, seconds: float, fixed: bool, tracer: Optional[Tracer]) -> dict:
    """All three phases against a started server; returns raw results.

    ``fixed`` runs a fixed, seed-determined amount of work instead of
    filling ``seconds`` (the traced runs, whose counts must repeat).
    """
    submit = lambda doc: fresh("POST", "/v1/jobs", doc)  # noqa: E731
    if tracer is not None:
        submit = tracer.wrap("service.submit", submit, op_boundary=True)

    n_open = FIXED_OPEN_REQUESTS if fixed else int(OPEN_RATE * OPEN_SHARE * seconds)
    open_requests = SpecSource(seed, "open").mixed(n_open)
    records = open_phase(open_requests, submit)
    job_ids = [r[3] for r in records if r[2] in (200, 202) and r[3]]
    docs = collect_jobs(job_ids)
    # Sampled here, after a fixed number of requests: the server keeps
    # every job document, so its size later depends on how many jobs the
    # time-boxed capacity phase happened to finish.
    rss_mb = server.peak_rss_mb()

    capacity = capacity_phase(
        SpecSource(seed, "capacity"),
        None if fixed else CAPACITY_SHARE * seconds,
        4 if fixed else None,
    )
    late_docs = collect_jobs(capacity["not_done_ids"]) if capacity["not_done_ids"] else {}

    keep_specs = SpecSource(seed, "keepalive").mixed(KEEPALIVE_SPECS)
    keepalive = keepalive_phase(
        keep_specs, None if fixed else KEEPALIVE_SHARE * seconds, 30 if fixed else None
    )

    scrape = prometheus_values(metrics_text())
    return {
        "records": records, "docs": docs,
        "capacity": capacity, "late_docs": late_docs, "keepalive": keepalive,
        "scrape": scrape, "rss_mb": rss_mb,
    }


def verify_digests(seed: int, raw: dict) -> List[dict]:
    """Served digests of a seeded sample of done jobs against a direct
    ``FluidEngine().run`` of the same spec."""
    from repro.scenarios import ScenarioSpec
    from repro.scenarios.engines import FluidEngine

    done = [d for d in raw["docs"].values() if d.get("state") == "done"]
    done += raw["capacity"]["entries"]
    rng = random.Random(f"service-check:{seed}")
    engine = FluidEngine()
    checks = []
    for doc in rng.sample(done, min(DIGEST_SAMPLES, len(done))):
        spec = ScenarioSpec.from_doc(doc["spec"]["scenario"])
        direct = engine.run(spec).digest
        checks.append({
            "check": "service.digest_matches_direct_run", "job": doc["id"],
            "ok": direct == doc["result"]["digest"],
        })
    if not checks:
        checks.append({"check": "service.digest_matches_direct_run", "ok": False,
                       "error": "no done job to check"})
    return checks


def summarise(raw: dict) -> dict:
    """End-to-end numbers, failure counts and per-layer client numbers."""
    records = raw["records"]
    docs = raw["docs"]
    latencies, late, submit_ms, queue_wait, run_ms = [], [], [], [], []
    sources: Dict[str, int] = {}
    rejected = not_done = 0
    for due, sent, status, job_id, rtt in records:
        late.append(1000.0 * (sent - due))
        submit_ms.append(1000.0 * rtt)
        if status == 429:
            rejected += 1
            continue
        doc = docs.get(job_id) if job_id else None
        if doc is None or doc.get("state") != "done":
            not_done += 1
            continue
        latencies.append(1000.0 * (doc["finished_at"] - due))
        sources[doc["source"]] = sources.get(doc["source"], 0) + 1
        if doc.get("started_at") is not None:
            queue_wait.append(1000.0 * (doc["started_at"] - doc["submitted_at"]))
            run_ms.append(1000.0 * (doc["finished_at"] - doc["started_at"]))
    sent_times = [r[1] for r in records]
    offered = (len(records) - 1) / (max(sent_times) - min(sent_times))
    p99, p99_q = common.tail_percentile(latencies)
    late_p99, _ = common.tail_percentile(late)

    cap = raw["capacity"]
    late_cap = [d for d in raw["late_docs"].values() if d.get("state") != "done"]
    keep = raw["keepalive"]
    keep_ms = [1000.0 * r for r in keep["rtts"]]
    keep_failed = sum(1 for s in keep["states"] if s != "done")

    scrape = raw["scrape"]
    completed = sum(sources.values())
    attempted = len(records) + cap["jobs"] + len(keep_ms)
    failed = rejected + not_done + cap["rejected"] + len(late_cap) + keep_failed
    batch_count = scrape.get("repro_service_batch_size_count", 0.0)
    return {
        "attempted": attempted,
        "failed": failed,
        "throughput_per_s": cap["rate_per_s"],
        # The open-phase median is printed, not compared: when the host
        # slows, the two-thread open loop falls behind schedule and the
        # median jumps by two orders of magnitude. The keep-alive round
        # trip is the service's steady user-visible latency; it waits on
        # a timer, not on the CPU, so it is not scaled by host speed.
        "p50_ms": statistics.median(keep_ms),
        "peak_rss_mb": raw["rss_mb"],
        "named": {
            "service.p50_ms": [statistics.median(latencies), "ms"],
            f"service.p{p99_q:.3g}_ms": [p99, "ms"],
            "service.open_samples": [len(latencies), "count"],
            "service.capacity_jobs_per_s": [cap["rate_per_s"], "1/s"],
            "service.capacity_jobs_per_s.unscaled": [cap["rate_per_s_unscaled"], "1/s"],
            "service.capacity_rounds": [cap["rounds"], "count"],
            "service.capacity_jobs_per_s.whole_phase": [cap["done"] / cap["wall_s"], "1/s"],
            "service.keepalive_ms": [statistics.median(keep_ms), "ms"],
            "service.keepalive_samples": [len(keep_ms), "count"],
            "service.offered_rate_per_s": [offered, "1/s"],
            "service.generator_late_ms.p99": [late_p99, "ms"],
        },
        "open_valid": {
            "target_rate_per_s": OPEN_RATE,
            "offered_rate_per_s": offered,
            "generator_late_ms_p99": late_p99,
            # Behind schedule: the generator's p99 lateness exceeds one
            # inter-arrival gap, or it offered under 95% of the rate.
            "behind_schedule": late_p99 > 1000.0 / OPEN_RATE or offered < 0.95 * OPEN_RATE,
            "tail_percentile": p99_q,
            "samples": len(latencies),
        },
        "failures": {
            "open_429": rejected, "open_not_done": not_done,
            "capacity_rejected": cap["rejected"], "capacity_not_done": len(late_cap),
            "keepalive_not_done": keep_failed,
        },
        "layers": {
            "service.submit_ms.p50": statistics.median(submit_ms),
            "service.submit_ms.p99": common.tail_percentile(submit_ms)[0],
            "service.queue_wait_ms.p50": statistics.median(queue_wait) if queue_wait else 0.0,
            "service.queue_wait_ms.p99": common.tail_percentile(queue_wait)[0] if queue_wait else 0.0,
            "service.run_ms.p50": statistics.median(run_ms) if run_ms else 0.0,
            "service.run_ms.p99": common.tail_percentile(run_ms)[0] if run_ms else 0.0,
            "service.cache_hit_ratio": (
                (sources.get("cache", 0) + sources.get("coalesced", 0)) / completed
                if completed else 0.0
            ),
            "service.batch_size_mean": (
                scrape.get("repro_service_batch_size_sum", 0.0) / batch_count
                if batch_count else 0.0
            ),
            "service.rejected": rejected + cap["rejected"],
            "service.timeouts": scrape.get('repro_service_events_total{event="timeouts"}', 0.0),
            "service.retries": scrape.get('repro_service_events_total{event="retries"}', 0.0),
            "service.generator_late_ms.p99": late_p99,
            "mpi.loop_s": scrape.get("repro_runtime_loop_seconds_sum", 0.0),
            "mpi.events": scrape.get("repro_runtime_events_total", 0.0),
        },
    }


def run_once(seed: int, seconds: float, traced: bool, fixed: bool,
             spans_path: Optional[str] = None) -> dict:
    """Start the server, drive it, stop it; returns summary + checks."""
    expected = shipped_config()
    tracer = Tracer() if traced else None
    server = Server(telemetry=traced)
    try:
        setup_s, setup_unscaled = start_scaled(server)
        live = check_live_config(expected["config"])
        raw = drive(seed, server, seconds, fixed, tracer)
    finally:
        server.stop()
    out = summarise(raw)
    out["setup_s"] = setup_s
    out["setup_s_unscaled"] = setup_unscaled
    out["server"] = dict(expected, live=live, repro_telemetry="1" if traced else "unset")
    out["checks"] = verify_digests(seed, raw)
    if tracer is not None and spans_path:
        tracer.dump(spans_path)
    return out


def start_scaled(server: Server) -> Tuple[float, float]:
    """Start ``server``; seconds to readiness at nominal host speed, from
    the speed measured just before and while it idles right after, and
    unscaled."""
    ref_before = server_ref_s()
    setup_s = server.start()
    ref_after = statistics.median(server_ref_s() for _ in range(common.SETUP_REFS))
    return setup_s * common.host_speed(0.5 * (ref_before + ref_after)), setup_s


def setup_sample() -> Tuple[float, float]:
    """One server start to readiness, then a stop."""
    server = Server(telemetry=False)
    try:
        return start_scaled(server)
    finally:
        server.stop()

