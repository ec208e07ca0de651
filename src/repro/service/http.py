"""TML over HTTP — the service's JSON API.

Stdlib-only (``http.server.ThreadingHTTPServer``); one
:class:`MiningHTTPServer` fronts one :class:`~repro.service.core.MiningService`.

Endpoints (all JSON):

``POST /v1/query``
    Body ``{"query": "<TML>", "async": bool, "priority": int,
    "budget": {"time": s, "candidates": n, "rules": n, "strict": bool},
    "timeout": seconds, "idempotency_key": str}``.
    Synchronous by default — the response carries the finished job
    record.  A result-cache hit is answered on the handler thread
    before admission (no queue, no journal write); anything else is
    admitted through the scheduler (bounded concurrency applies).  With
    ``"async": true`` the request is always admitted and the response
    is ``202`` with the job id to poll.  ``idempotency_key`` makes the
    POST retry-safe: a resubmission carrying a key the service has seen
    returns the existing job instead of admitting a duplicate (an
    admitted job's key is journaled, so the guarantee spans a
    crash-restart; a hit's lives in memory only).

``POST /v1/transactions``
    Body ``{"transactions": [{"ts": "<ISO timestamp>", "items":
    ["a", "b"], "tid": optional int}, ...], "idempotency_key": str}``.
    Streams a batch of new transactions into the shared store without a
    full reload: the append is journaled as a write-ahead intent,
    committed idempotently, and folded into worker environments as a
    delta (cached per-unit counts survive under incremental modes).
    Returns ``{"applied", "appended", "tids", "delta_refreshed"}``.

``GET /v1/jobs/{id}``
    The job record (state, result, error, timings, cache provenance).

``DELETE /v1/jobs/{id}``
    Cancel: dequeues a queued job; trips a running job's cancellation
    token so it stops at the next pass boundary and keeps its sound
    partial result on the record.

``POST /v1/cache/invalidate``
    Body ``{"fingerprint": str}``.  Drops this process's cache entries
    recorded under one store fingerprint — the invalidation-fanout
    surface a cluster router calls on every peer after a mutation or
    append lands on one worker.

``GET /v1/traces/{id}`` / ``GET /v1/traces?min_ms=&limit=``
    Distributed tracing (PR 10): one stored trace document by id, or
    the worker's stored traces ranked slowest-first.  Tracing is
    enabled per query by ``"trace": true`` *or* by a W3C
    ``traceparent`` request header — the header additionally joins
    this worker's spans to the caller's trace id, which is how one
    trace covers router → worker → scheduler → mining passes.

``GET /v1/debug/slow``
    The slow-query flight recorder: requests past the configured
    latency threshold, captured in full (trace + plan + TML +
    resource attribution), ranked slowest-first.

``GET /v1/status``
    Queue depth, worker config, cache counters, metrics snapshot,
    store summary, and the worker identity block (id, pid, port,
    git SHA, started-at) that cluster health checks key on.

``GET /v1/metrics``
    The service's metrics registry in Prometheus text exposition
    format 0.0.4 (scrapeable; see :mod:`repro.obs.metrics`).

Errors map to statuses in one place, :mod:`repro.httpkit` (400 / 404 /
503 with an honest ``Retry-After`` / 500); this module adds the two
job-record answers: sync timeout → 504 (with the job id, so the client
can keep polling) and statement errors → 422, both carrying the record.
Every request is metered there too, into ``repro_http_requests_total``
(method/route/status) and the per-route ``repro_http_request_seconds``
latency histogram.
"""

from __future__ import annotations

import threading
from datetime import datetime
from typing import Dict, Optional, Tuple

from repro.errors import JobNotFoundError, MiningParameterError
from repro.httpkit import JsonHTTPServer, JsonRequestHandler, RouteTable
from repro.obs.distributed import parse_traceparent
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.runtime.budget import RunBudget
from repro.service.core import MiningService

#: Default wait for a synchronous query before answering 504.
SYNC_TIMEOUT_SECONDS = 300.0


def budget_from_request(spec: Optional[Dict]) -> Optional[RunBudget]:
    """Build a per-request budget from the JSON ``budget`` object."""
    if not spec:
        return None
    if not isinstance(spec, dict):
        raise MiningParameterError("budget must be a JSON object")
    known = {"time", "candidates", "rules", "strict"}
    unknown = set(spec) - known
    if unknown:
        raise MiningParameterError(
            f"unknown budget field(s): {', '.join(sorted(unknown))}"
        )
    return RunBudget.from_dict(spec)


def _idempotency_key(payload: Dict) -> Optional[str]:
    key = payload.get("idempotency_key")
    if key is not None and (not isinstance(key, str) or not key.strip()):
        raise ValueError('"idempotency_key" must be a non-empty string')
    return key


def _job_document(job) -> Dict:
    record = job.to_dict()
    if job.started_at is not None and job.finished_at is not None:
        record["elapsed_seconds"] = job.finished_at - job.started_at
    return record


class MiningRequestHandler(JsonRequestHandler):
    """The ``/v1`` route table over the owning server's service."""

    server: "MiningHTTPServer"

    def end_headers(self) -> None:
        # Every response names the process that served it, so a cluster
        # router (and the load-gen report behind it) can attribute
        # latency to a specific worker without re-parsing bodies.
        self.send_header("X-Repro-Worker", self.server.service.worker_label)
        super().end_headers()

    def get_status(self) -> None:
        self.send_json(200, self.server.service.status())

    def get_metrics(self) -> None:
        text = self.server.service.metrics.render_prometheus()
        self.send_bytes(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)

    def get_trace(self, trace_id: str) -> None:
        document = self.server.service.trace(trace_id)
        if document is None:
            raise JobNotFoundError(f"no such trace: {trace_id!r}")
        self.send_json(200, document)

    def get_traces(self) -> None:
        min_ms, limit = self.trace_listing()
        traces = self.server.service.list_traces(min_ms=min_ms, limit=limit)
        self.send_json(200, {"traces": traces})

    def get_slow(self) -> None:
        self.send_json(200, self.server.service.slow_queries())

    def get_job(self, job_id: str) -> None:
        self.send_json(200, _job_document(self.server.service.job(job_id)))

    def delete_job(self, job_id: str) -> None:
        self.send_json(200, _job_document(self.server.service.cancel(job_id)))

    def post_query(self) -> None:
        payload = self.read_json()
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ValueError('missing required string field "query"')
        priority = int(payload.get("priority", 0))
        budget = budget_from_request(payload.get("budget"))
        wants_async = bool(payload.get("async", False))
        # Tracing turns on via the body flag OR a propagated W3C
        # traceparent header; the header additionally carries the
        # upstream trace id, so this worker's spans join the caller's
        # trace instead of starting a fresh one.  (An invalid header is
        # dropped per spec — the trace restarts.)
        trace: object = bool(payload.get("trace", False))
        parent = parse_traceparent(self.headers.get("traceparent"))
        if parent is not None:
            trace = parent.child()
        timeout = float(payload.get("timeout", SYNC_TIMEOUT_SECONDS))
        idempotency_key = _idempotency_key(payload)
        service = self.server.service
        # A synchronous cache hit is answered here, before admission;
        # anything else is admitted and journaled.
        job = None if wants_async else service.answer_cached(
            query,
            priority=priority,
            budget=budget,
            trace=trace,
            idempotency_key=idempotency_key,
        )
        if job is None:
            job = service.submit(
                query,
                priority=priority,
                budget=budget,
                trace=trace,
                idempotency_key=idempotency_key,
            )
        if wants_async:
            self.send_json(202, _job_document(job))
            return
        job.wait(timeout)
        self.trace_id = job.trace_id
        # A failed statement answers 422 and an unfinished wait 504; both
        # carry the job record, so the id stays pollable.
        status = {"failed": 422, "queued": 504, "running": 504}.get(job.state, 200)
        self.send_json(status, _job_document(job))

    def post_transactions(self) -> None:
        """Stream a batch of transactions into the store."""
        payload = self.read_json()
        entries = payload.get("transactions")
        if not isinstance(entries, list):
            raise ValueError('missing required array field "transactions"')
        idempotency_key = _idempotency_key(payload)
        batch = []
        for entry in entries:
            if not isinstance(entry, dict) or "ts" not in entry:
                raise ValueError(
                    'each transaction must be an object with "ts" and "items"'
                )
            timestamp = datetime.fromisoformat(str(entry["ts"]))
            items = entry.get("items")
            if not isinstance(items, list) or not items:
                raise ValueError('each transaction needs a non-empty "items" array')
            tid = entry.get("tid")
            if tid is not None:
                tid = int(tid)
            batch.append((timestamp, [str(item) for item in items], tid))
        outcome = self.server.service.append_transactions(
            batch, idempotency_key=idempotency_key
        )
        self.send_json(200, outcome)

    def post_invalidate(self) -> None:
        """Drop one fingerprint's cache entries.

        The cluster fanout surface: a peer worker mutated the shared
        store, and the router tells this process to retire its memory
        tier's entries for the superseded fingerprint.
        """
        fingerprint = self.read_json().get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint.strip():
            raise ValueError('missing required string field "fingerprint"')
        removed = self.server.service.invalidate_fingerprint(fingerprint)
        self.send_json(200, {"invalidated": removed, "fingerprint": fingerprint})

    routes = RouteTable(
        [
            ("GET", "/v1/status", get_status),
            ("GET", "/v1/metrics", get_metrics),
            ("GET", "/v1/traces/{id}", get_trace),
            ("GET", "/v1/traces", get_traces),
            ("GET", "/v1/debug/slow", get_slow),
            ("GET", "/v1/jobs/{id}", get_job),
            ("DELETE", "/v1/jobs/{id}", delete_job),
            ("POST", "/v1/query", post_query),
            ("POST", "/v1/transactions", post_transactions),
            ("POST", "/v1/cache/invalidate", post_invalidate),
        ]
    )


class MiningHTTPServer(JsonHTTPServer):
    """A threading HTTP server bound to one :class:`MiningService`.

    ``port=0`` binds an ephemeral port (tests); the resolved address is
    ``server.server_address``.  The server does **not** own the service:
    closing the server stops accepting requests, the caller shuts the
    service down.
    """

    def __init__(
        self,
        service: MiningService,
        host: str = "127.0.0.1",
        port: int = 8765,
        verbose: bool = False,
    ):
        self.service = service
        # Registered up front, not lazily per request: the families are
        # always present in the exposition, and the per-request path is
        # two lock-free attribute reads instead of a registry lookup.
        super().__init__(
            (host, port),
            MiningRequestHandler,
            requests=service.metrics.counter(
                "repro_http_requests_total",
                "API requests served, by method, route and status.",
                labelnames=("method", "route", "status"),
            ),
            request_seconds=service.metrics.histogram(
                "repro_http_request_seconds",
                "API request latency, by route.",
                labelnames=("route",),
            ),
            verbose=verbose,
        )
        # ``port=0`` resolves only at bind time; advertise the real one
        # so ``/v1/status`` identity (and cluster port files) are honest.
        service.advertised_port = int(self.server_address[1])


def start_server(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> Tuple[MiningHTTPServer, threading.Thread]:
    """Start a server on a background thread; returns (server, thread)."""
    server = MiningHTTPServer(service, host=host, port=port, verbose=verbose)
    return server, server.serve_in_background()
