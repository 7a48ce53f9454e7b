"""Stdlib-only HTTP JSON API in front of a :class:`ScenarioService`.

Endpoints
---------
``POST /v1/jobs``
    Body: a :class:`~repro.service.jobs.JobSpec` document. Returns 200
    with the job document when it completed immediately (cache hit), 202
    while queued/running/coalesced, 400 on a malformed spec, and 429
    with a ``Retry-After`` header when the queue exerts backpressure.
    ``?wait=<seconds>`` blocks up to that long for completion first; a
    non-finite or negative ``wait`` or ``Content-Length`` is a 400, a
    ``Content-Length`` above :data:`MAX_BODY_BYTES` is a 413 (answered
    before the body is read), and nothing is submitted.
``POST /v1/jobs:batch``
    Body: ``{"jobs": [<spec>, ...]}``. Admits every entry independently
    and returns one entry per input in order (job document, or an
    ``error`` object for rejected entries). 200 when all admitted, 207
    on a mix, 400 for a malformed envelope. Queued entries that share an
    engine are candidates for worker-side batch coalescing.
    ``?wait=<seconds>`` blocks for the admitted set collectively.
``GET /v1/jobs/<id>``
    The job document (result embedded once done); 404 for unknown ids.
``DELETE /v1/jobs/<id>``
    Cancel a queued job; returns its document.
``GET /healthz``
    Liveness: ``{"status": "ok", ...}`` while admissions are open.
``GET /metrics``
    Content-negotiated. Default: the JSON document (queue depth,
    per-state job counts, cache accounting, latency percentiles — what
    ``repro cache info --service`` renders). With ``Accept:
    text/plain`` / ``application/openmetrics-text`` or
    ``?format=prometheus``: the Prometheus 0.0.4 text exposition of the
    service's registry plus the process-default registry (engine and
    runtime instruments). See ``docs/observability.md``.

Uses :class:`http.server.ThreadingHTTPServer`, so slow pollers never
block submissions; the simulation concurrency bound stays the service's
worker pool, not the HTTP layer. A connection that sends nothing for
:data:`SOCKET_TIMEOUT_S` is closed, so a stalled client holds only its
own handler thread, and only that long.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    QueueFullError,
    ReproError,
    ServiceError,
    UnknownJobError,
)
from repro.service.executor import ScenarioService
from repro.service.jobs import Job, JobSpec
from repro.telemetry import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    default_registry,
    render_prometheus,
)

__all__ = ["make_server", "serve"]

#: Cap on ?wait= so a client cannot pin an HTTP thread forever.
MAX_WAIT_S = 600.0
#: Largest request body read; a bigger ``Content-Length`` gets 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Per-connection socket timeout: a client silent this long is dropped.
SOCKET_TIMEOUT_S = 30.0


class _BadRequest(Exception):
    """A request answered with an error status (400 unless given) before
    any work is done."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _make_handler(service: ScenarioService, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"
        timeout = SOCKET_TIMEOUT_S
        # Headers and body go out in separate sends; without TCP_NODELAY
        # every keep-alive round trip waits out a delayed ACK.
        disable_nagle_algorithm = True

        # -- plumbing ---------------------------------------------------------

        def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send_json(
            self,
            status: int,
            doc: dict,
            headers: Optional[dict] = None,
        ) -> None:
            payload = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _error(
            self, status: int, message: str, headers: Optional[dict] = None
        ) -> None:
            self._send_json(status, {"error": message}, headers=headers)

        def _route(self) -> Tuple[str, dict]:
            parsed = urlparse(self.path)
            return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

        def _read_json(self) -> object:
            """The request body as JSON (``{}`` when empty). An unusable
            or oversized ``Content-Length`` leaves the body unread, so
            the connection closes after the 400 or 413."""
            raw = self.headers.get("Content-Length", "0")
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                self.close_connection = True
                raise _BadRequest(f"bad Content-Length {raw!r}")
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise _BadRequest(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit", status=413,
                )
            body = self.rfile.read(length) if length else b""
            try:
                return json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError) as exc:
                raise _BadRequest(f"unreadable JSON body: {exc}") from exc

        def _wait_s(self, query: dict) -> Optional[float]:
            """``?wait=`` in seconds, capped at :data:`MAX_WAIT_S`;
            ``None`` when absent."""
            raw = query.get("wait", [None])[0]
            if raw is None:
                return None
            try:
                wait_s = float(raw)
            except ValueError:
                wait_s = math.nan
            if not math.isfinite(wait_s) or wait_s < 0:
                raise _BadRequest(f"bad wait value {raw!r}")
            return min(wait_s, MAX_WAIT_S)

        def _wants_prometheus(self, query: dict) -> bool:
            """Content negotiation for /metrics: JSON stays the default
            (existing consumers and tests); Prometheus text is chosen by
            ``?format=prometheus`` or an Accept header preferring
            text/plain or the OpenMetrics type."""
            fmt = query.get("format", [None])[0]
            if fmt is not None:
                return fmt.lower() in ("prometheus", "text", "openmetrics")
            accept = (self.headers.get("Accept") or "").lower()
            return (
                "text/plain" in accept
                or "application/openmetrics-text" in accept
            )

        # -- GET --------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 — stdlib handler API
            path, _query = self._route()
            if path == "/healthz":
                queue = service.queue.stats()
                status = "ok" if not queue["closed"] else "shutting-down"
                self._send_json(
                    200 if status == "ok" else 503,
                    {
                        "status": status,
                        "workers": service.config.workers,
                        "queue_depth": queue["depth"],
                    },
                )
                return
            if path == "/metrics":
                if self._wants_prometheus(_query):
                    text = render_prometheus(
                        service.registry, default_registry()
                    )
                    payload = text.encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                    return
                self._send_json(200, service.metrics())
                return
            if path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):]
                try:
                    job = service.get(job_id)
                except UnknownJobError as exc:
                    self._error(404, str(exc))
                    return
                self._send_json(200, job.to_doc())
                return
            self._error(404, f"no route for GET {path}")

        # -- POST -------------------------------------------------------------

        def do_POST(self) -> None:  # noqa: N802 — stdlib handler API
            path, query = self._route()
            if path not in ("/v1/jobs", "/v1/jobs:batch"):
                self._error(404, f"no route for POST {path}")
                return
            # Everything the request carries is checked before anything
            # is submitted: a 400 never leaves a job behind.
            try:
                doc = self._read_json()
                wait_s = self._wait_s(query)
            except _BadRequest as exc:
                self._error(exc.status, str(exc))
                return
            if path == "/v1/jobs:batch":
                self._post_jobs_batch(doc, wait_s)
                return
            try:
                spec = JobSpec.from_doc(doc)
            except ReproError as exc:
                self._error(400, str(exc))
                return
            try:
                job = service.submit(spec)
            except QueueFullError as exc:
                self._error(
                    429,
                    str(exc),
                    headers={"Retry-After": str(int(exc.retry_after + 0.5))},
                )
                return
            except ServiceError as exc:
                self._error(503, str(exc))
                return
            if wait_s is not None:
                job = service.wait(job.id, timeout=wait_s)
            self._send_json(
                200 if job.state.terminal else 202, job.to_doc()
            )

        def _post_jobs_batch(
            self, doc: object, wait_s: Optional[float]
        ) -> None:
            """Bulk submit: ``{"jobs": [<spec>, ...]}``.

            Every entry is admitted independently (same path as
            ``POST /v1/jobs``, so cache hits, coalescing, and queue
            backpressure apply per entry); the response carries one
            entry per input in order — a job document, or an ``error``
            object for entries that failed admission. 200 when all
            admitted, 207 on a mix, 400 when the envelope itself is
            malformed. ``?wait=<seconds>`` blocks up to that long for
            the admitted jobs collectively.
            """
            if not isinstance(doc, dict) or not isinstance(
                doc.get("jobs"), list
            ):
                self._error(
                    400, 'batch body must be {"jobs": [<job spec>, ...]}'
                )
                return
            entries = []
            jobs = []
            errors = 0
            for item in doc["jobs"]:
                try:
                    spec = JobSpec.from_doc(item)
                    job = service.submit(spec)
                except QueueFullError as exc:
                    errors += 1
                    entries.append({
                        "error": str(exc),
                        "retry_after_s": exc.retry_after,
                    })
                    continue
                except (ReproError, ServiceError) as exc:
                    errors += 1
                    entries.append({"error": str(exc)})
                    continue
                jobs.append(job)
                entries.append(job)
            if wait_s is not None and jobs:
                deadline = time.monotonic() + wait_s
                for job in jobs:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    service.wait(job.id, timeout=remaining)
            out = [
                entry.to_doc() if isinstance(entry, Job) else entry
                for entry in entries
            ]
            status = 200 if errors == 0 else 207
            self._send_json(
                status,
                {
                    "jobs": out,
                    "submitted": len(jobs),
                    "errors": errors,
                },
            )

        # -- DELETE -----------------------------------------------------------

        def do_DELETE(self) -> None:  # noqa: N802 — stdlib handler API
            path, _query = self._route()
            if not path.startswith("/v1/jobs/"):
                self._error(404, f"no route for DELETE {path}")
                return
            try:
                job = service.cancel(path[len("/v1/jobs/"):])
            except UnknownJobError as exc:
                self._error(404, str(exc))
                return
            self._send_json(200, job.to_doc())

    return Handler


def make_server(
    service: ScenarioService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A bound (but not yet serving) HTTP server; ``port=0`` picks a free
    port (``server.server_address`` reports the real one)."""
    server = ThreadingHTTPServer(
        (host, port), _make_handler(service, quiet=quiet)
    )
    server.daemon_threads = True
    return server


def serve(
    service: ScenarioService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> None:
    """Serve until interrupted; shuts the service down cleanly after."""
    server = make_server(service, host=host, port=port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port} "
          f"({service.config.workers} workers, "
          f"queue depth {service.config.queue_depth})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("repro serve: shutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
