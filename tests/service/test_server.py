"""HTTP API round-trips against a live (ephemeral-port) server."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.scenarios import get_engine
from repro.service import server as server_module
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import JobResult, JobSpec, RetryPolicy
from repro.service.server import MAX_BODY_BYTES, make_server

WAIT = 60.0


@pytest.fixture()
def live_server():
    """(base_url, service) of a real server on a free port, torn down after."""

    def start(service: ScenarioService):
        server = make_server(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, service))
        return f"http://{host}:{port}"

    servers = []
    yield start
    for server, service in servers:
        server.shutdown()
        server.server_close()
        service.shutdown()


def request(method: str, url: str, body: dict = None):
    """(status, doc) for one JSON round-trip; HTTP errors decoded too."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=WAIT) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc), dict(exc.headers)


def address(base: str):
    """(host, port) of a ``http://host:port`` base URL."""
    host, port = base[len("http://"):].split(":")
    return host, int(port)


def scenario_doc(name: str) -> dict:
    return {
        "name": name,
        "kind": "barrier_loop",
        "works": [1.0e9, 2.0e9, 1.5e9, 3.0e9],
        "iterations": 2,
        "priorities": [[0, 4], [1, 6], [2, 4], [3, 6]],
    }


class TestEndToEnd:
    def test_served_digest_equals_direct_run(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        body = {"scenario": scenario_doc("e2e"), "lane": "interactive"}
        status, doc, _ = request("POST", f"{base}/v1/jobs?wait={WAIT}", body)
        assert status == 200
        assert doc["state"] == "done", doc.get("error")
        direct = get_engine("fluid").run(JobSpec.from_doc(body).scenario)
        assert doc["result"]["digest"] == direct.digest
        assert doc["result"]["total_time"] == direct.total_time
        # The result document round-trips through the typed layer.
        assert JobResult.from_doc(doc["result"]).digest == direct.digest

        # Same spec again: served from the cache, same digest.
        status, doc2, _ = request("POST", f"{base}/v1/jobs?wait={WAIT}", body)
        assert status == 200
        assert doc2["source"] == "cache"
        assert doc2["result"]["digest"] == doc["result"]["digest"]

    def test_poll_with_get(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        body = {"scenario": scenario_doc("poll")}
        status, doc, _ = request("POST", f"{base}/v1/jobs", body)
        assert status in (200, 202)
        job_id = doc["id"]
        deadline = time.perf_counter() + WAIT
        while time.perf_counter() < deadline:
            status, doc, _ = request("GET", f"{base}/v1/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert doc["state"] == "done", doc.get("error")
        assert doc["result"]["digest"]


class TestBatchEndpoint:
    def test_batch_digests_equal_individual_submits(self, live_server):
        batch_base = live_server(ScenarioService(ServiceConfig(workers=2)))
        single_base = live_server(ScenarioService(ServiceConfig(workers=2)))
        bodies = [
            {"scenario": scenario_doc(f"batch-{i}"), "lane": "batch"}
            for i in range(3)
        ]
        status, doc, _ = request(
            "POST", f"{batch_base}/v1/jobs:batch?wait={WAIT}",
            {"jobs": bodies},
        )
        assert status == 200
        assert doc["submitted"] == 3 and doc["errors"] == 0
        assert len(doc["jobs"]) == 3
        for body, entry in zip(bodies, doc["jobs"]):
            assert entry["state"] == "done", entry.get("error")
            status, single, _ = request(
                "POST", f"{single_base}/v1/jobs?wait={WAIT}", body
            )
            assert status == 200 and single["state"] == "done"
            assert entry["result"]["digest"] == single["result"]["digest"]
            assert entry["result"]["total_time"] == single["result"]["total_time"]

    def test_malformed_envelope_is_400(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        for body in ({"specs": []}, {"jobs": "nope"}, [1, 2], {}):
            status, doc, _ = request(
                "POST", f"{base}/v1/jobs:batch", body
            )
            assert status == 400 and "error" in doc

    def test_mixed_good_and_bad_entries_is_207_in_order(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        status, doc, _ = request(
            "POST", f"{base}/v1/jobs:batch?wait={WAIT}",
            {"jobs": [
                {"scenario": scenario_doc("mix-good")},
                {"bogus": True},
                {"scenario": scenario_doc("mix-good-2")},
            ]},
        )
        assert status == 207
        assert doc["submitted"] == 2 and doc["errors"] == 1
        good_a, bad, good_b = doc["jobs"]
        assert good_a["state"] == "done" and good_b["state"] == "done"
        assert "error" in bad and "state" not in bad

    def test_empty_batch_round_trips(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        status, doc, _ = request(
            "POST", f"{base}/v1/jobs:batch", {"jobs": []}
        )
        assert status == 200
        assert doc == {"jobs": [], "submitted": 0, "errors": 0}


class TestProtocol:
    def test_healthz_and_metrics(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=3)))
        status, doc, _ = request("GET", f"{base}/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["workers"] == 3
        status, metrics, _ = request("GET", f"{base}/metrics")
        assert status == 200
        for key in ("queue", "cache", "jobs", "counters", "latency"):
            assert key in metrics
        assert metrics["cache"]["entries"] == 0

    def test_bad_requests(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        status, doc, _ = request("POST", f"{base}/v1/jobs", {"bogus": True})
        assert status == 400 and "error" in doc
        status, _doc, _ = request("POST", f"{base}/v1/jobs",
                                  {"suite": "metbench"})  # no case
        assert status == 400
        status, _doc, _ = request("GET", f"{base}/v1/jobs/job-missing")
        assert status == 404
        status, _doc, _ = request("GET", f"{base}/nothing/here")
        assert status == 404

    @pytest.mark.parametrize("wait", ["abc", "nan", "inf", "-1"])
    @pytest.mark.parametrize("path", ["/v1/jobs", "/v1/jobs:batch"])
    def test_bad_wait_is_400_and_submits_nothing(self, live_server, path, wait):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        _status, before, _ = request("GET", f"{base}/metrics")
        body = {"scenario": scenario_doc("bad-wait")}
        if path.endswith(":batch"):
            body = {"jobs": [body]}
        status, doc, _ = request("POST", f"{base}{path}?wait={wait}", body)
        assert status == 400
        assert "wait" in doc["error"]
        _status, after, _ = request("GET", f"{base}/metrics")
        assert after["jobs"] == before["jobs"]

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_bad_content_length_is_400_promptly(self, live_server, length):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        conn = http.client.HTTPConnection(*address(base), timeout=5.0)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.load(resp)["error"]
        finally:
            conn.close()

    def test_oversized_body_is_413_unread_and_submits_nothing(
        self, live_server
    ):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        _status, before, _ = request("GET", f"{base}/metrics")
        conn = http.client.HTTPConnection(*address(base), timeout=5.0)
        try:
            # Only the headers are sent: a reply proves the server
            # refused before trying to read the promised body.
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            assert "limit" in json.load(resp)["error"]
        finally:
            conn.close()
        _status, after, _ = request("GET", f"{base}/metrics")
        assert after["jobs"] == before["jobs"]

    def test_stalled_client_is_dropped_while_others_are_served(
        self, live_server, monkeypatch
    ):
        monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_S", 0.5)
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        _status, before, _ = request("GET", f"{base}/metrics")
        stalled = socket.create_connection(address(base), timeout=WAIT)
        try:
            t0 = time.monotonic()
            # Ten bytes of a promised hundred-byte body, then silence.
            stalled.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"scenario'
            )
            status, doc, _ = request("GET", f"{base}/healthz")
            assert status == 200 and doc["status"] == "ok"
            assert time.monotonic() - t0 < 0.5
            # The server gives up on the stalled body and closes the
            # connection without answering it.
            assert stalled.recv(1024) == b""
            assert time.monotonic() - t0 >= 0.4
        finally:
            stalled.close()
        _status, after, _ = request("GET", f"{base}/metrics")
        assert after["jobs"] == before["jobs"]

    def test_keepalive_round_trips_skip_the_delayed_ack(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        body = json.dumps({"scenario": scenario_doc("keepalive")}).encode()
        conn = http.client.HTTPConnection(*address(base), timeout=WAIT)
        try:
            rtts = []
            for _ in range(22):  # the first computes, the rest hit the cache
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/v1/jobs?wait=30", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                doc = json.load(resp)
                rtts.append(time.perf_counter() - t0)
                assert resp.status == 200 and doc["state"] == "done"
        finally:
            conn.close()
        assert statistics.median(rtts[1:]) < 0.020, rtts

    def test_backpressure_is_429_with_retry_after(self, live_server):
        release = threading.Event()

        def runner(specs):
            assert release.wait(WAIT)
            return [
                JobResult(
                    fingerprint=spec.fingerprint, digest="d" * 64,
                    label=spec.label, model=spec.model, total_time=1.0,
                    imbalance_percent=0.0, events_processed=1,
                    final_priorities=(4,), ranks=(), compute_seconds=0.001,
                )
                for spec in specs
            ]

        service = ScenarioService(
            ServiceConfig(workers=1, queue_depth=1,
                          retry=RetryPolicy(max_retries=0)),
            runner=runner,
        )
        base = live_server(service)
        try:
            statuses = []
            for i in range(8):  # distinct specs: no coalescing
                body = {"scenario": scenario_doc(f"bp-{i}")}
                status, doc, headers = request("POST", f"{base}/v1/jobs", body)
                statuses.append(status)
                if status == 429:
                    assert "Retry-After" in headers
                    assert int(headers["Retry-After"]) >= 0
                    assert "retry after" in doc["error"]
            assert 429 in statuses
            assert statuses[0] in (200, 202)
        finally:
            release.set()

    def test_cancel_via_delete(self, live_server):
        started, release = threading.Event(), threading.Event()

        def runner(specs):
            started.set()
            assert release.wait(WAIT)
            return [
                JobResult(
                    fingerprint=spec.fingerprint, digest="d" * 64,
                    label=spec.label, model=spec.model, total_time=1.0,
                    imbalance_percent=0.0, events_processed=1,
                    final_priorities=(4,), ranks=(), compute_seconds=0.001,
                )
                for spec in specs
            ]

        service = ScenarioService(ServiceConfig(workers=1), runner=runner)
        base = live_server(service)
        try:
            request("POST", f"{base}/v1/jobs",
                    {"scenario": scenario_doc("blocker")})
            # The blocker must already run, or the two would share a batch.
            assert started.wait(WAIT)
            _status, queued, _ = request(
                "POST", f"{base}/v1/jobs", {"scenario": scenario_doc("victim")}
            )
            status, doc, _ = request(
                "DELETE", f"{base}/v1/jobs/{queued['id']}"
            )
            assert status == 200
            assert doc["state"] == "cancelled"
            status, _doc, _ = request("DELETE", f"{base}/v1/jobs/nope")
            assert status == 404
        finally:
            release.set()
