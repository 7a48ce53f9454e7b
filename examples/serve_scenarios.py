#!/usr/bin/env python
"""Serve scenarios over HTTP and consume them with a stdlib client.

Starts an in-process ``repro serve`` server on a free port, then plays
the three client flows against it:

1. submit a paper case (MetBench A) and block for the result;
2. submit the same case again — answered from the content-addressed
   result cache without re-simulating (same digest, ~three orders of
   magnitude faster);
3. submit a custom oracle scenario and poll for completion.

In production the server runs standalone (``python -m repro serve
--port 8080 --workers 4``) and clients only need the HTTP half below.

Run:  python examples/serve_scenarios.py
"""

import json
import threading
import time
import urllib.request

from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.server import make_server


def post_job(base: str, doc: dict, wait: float = 0.0) -> dict:
    url = f"{base}/v1/jobs" + (f"?wait={wait}" if wait else "")
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        return json.load(resp)


def get_job(base: str, job_id: str) -> dict:
    with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}", timeout=30) as r:
        return json.load(r)


def main():
    # A real server on an ephemeral port at the shipped config; each
    # worker keeps its simulated systems warm between jobs.
    service = ScenarioService(ServiceConfig(workers=2))
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"serving on {base}\n")

    try:
        # 1. A paper case, blocking until done.
        t0 = time.perf_counter()
        job = post_job(base, {"suite": "metbench", "case": "A"}, wait=300)
        cold = time.perf_counter() - t0
        result = job["result"]
        print(f"MetBench A [{job['source']}]  {cold * 1e3:8.1f} ms  "
              f"total {result['total_time']:.2f}s  "
              f"imbalance {result['imbalance_percent']:.1f}%")
        print(f"  digest {result['digest'][:16]}…")

        # 2. Same physics again: served from the cache, digest unchanged.
        t0 = time.perf_counter()
        again = post_job(base, {"suite": "metbench", "case": "A"}, wait=300)
        hot = time.perf_counter() - t0
        print(f"MetBench A [{again['source']}]  {hot * 1e3:8.1f} ms  "
              f"(same digest: "
              f"{again['result']['digest'] == result['digest']})\n")

        # 3. A custom oracle scenario, submitted then polled.
        job = post_job(base, {
            "scenario": {
                "name": "custom", "kind": "barrier_loop",
                "works": [1.0e9, 4.0e9, 1.0e9, 4.0e9], "iterations": 5,
                "priorities": [[0, 4], [1, 6], [2, 4], [3, 6]],
            },
            "lane": "interactive",
        })
        while job["state"] not in ("done", "failed"):
            time.sleep(0.05)
            job = get_job(base, job["id"])
        result = job["result"]
        print(f"custom scenario [{job['source']}]  "
              f"total {result['total_time']:.2f}s  "
              f"imbalance {result['imbalance_percent']:.1f}%  "
              f"priorities {result['final_priorities']}")

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        cache = metrics["cache"]
        print(f"\ncache: {cache['entries']} entries, {cache['bytes']} bytes, "
              f"{cache['hits']} hits / {cache['misses']} misses")
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


if __name__ == "__main__":
    main()
