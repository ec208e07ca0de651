"""The cluster front door: a thin routing/failover HTTP proxy.

One :class:`ClusterRouter` sits in front of a fleet of worker processes
(usually owned by a :class:`~repro.cluster.supervisor.FleetSupervisor`,
but anything exposing the same small *fleet view* works — the tests run
in-process worker servers behind a static fleet).  The router is
deliberately thin: it never mines, never caches results, and holds no
durable state — every hard problem stays in the workers, where PRs 4–8
already solved it.  What the router adds:

* **Cache-locality routing.**  ``POST /v1/query`` routes by rendezvous
  hashing over ``store fingerprint × canonical TML`` — the same
  normalization the PR 4 result cache keys on — so repeated and
  whitespace-variant forms of a query always land on the worker whose
  memory cache and incremental ``ExecutionEnvironment`` are already hot
  for it, while *distinct* queries spread uniformly across the fleet.
* **Job affinity with failover.**  The worker that admits a job owns
  its record; ``GET``/``DELETE /v1/jobs/{id}`` route back to the owner.
  A dead owner fails over: other healthy workers are tried in
  rendezvous order, and when none knows the job the router answers
  ``503 + Retry-After`` (not 404) — the supervisor is restarting the
  owner, whose journal replay will finish the job under its original
  id, so the hardened client's retry loop lands naturally.
* **Transport failover on idempotent requests.**  A proxied request
  that dies on the socket marks the worker suspect immediately and —
  for GET/DELETE and keyed POSTs (the PR 6 idempotency contract) — is
  retried on the next-ranked healthy worker.  Keyless POSTs surface a
  ``502`` instead: the job may have been admitted, and a blind retry
  could run it twice.
* **Invalidation fanout.**  A mutation or append lands on one worker,
  which purges the *shared* disk cache tier itself; the router then
  tells every other worker to drop its private memory-tier entries for
  the superseded fingerprint (``POST /v1/cache/invalidate``), so no
  process serves from memory what the fleet already knows is stale.
* **Per-tenant quotas.**  Token-bucket admission (``X-Tenant`` header,
  weighted fair shares) answers ``429 + Retry-After`` *before* a
  request consumes a worker — fleet-level fairness on top of each
  worker's own PR 4 admission control.
* **Fleet observability.**  ``GET /v1/metrics`` merges every worker's
  Prometheus exposition with the router's own ``repro_cluster_*``
  series; ``GET /v1/status`` reports per-worker identity and health.
* **Fleet-wide distributed tracing.**  A traced query (body
  ``"trace": true`` or an incoming W3C ``traceparent``) makes the
  router the first recorded hop: it mints/joins a
  :class:`~repro.obs.distributed.TraceContext`, forwards the child
  context to the worker it routes to, stores its own ``router.request``
  span and remembers which worker served the trace.  ``GET
  /v1/traces/{id}`` then grafts the owning worker's span subtree under
  the router span — one connected tree, router → worker → scheduler →
  mining passes; ``GET /v1/traces`` and ``GET /v1/debug/slow`` fan out
  and merge the fleet's trace lists and flight-recorder captures.

Append routing: ``POST /v1/transactions`` routes by a *stable* key (not
the fingerprint — which the append itself changes) so one worker keeps
the hot delta-fold chain of PR 8, and the batch reaches every other
worker as a fingerprint bump they notice on their next store check.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.cluster.hashring import rank_workers
from repro.cluster.metrics import merge_expositions
from repro.cluster.quota import TenantQuotas
from repro.errors import AdmissionError, JobNotFoundError
from repro.httpkit import JsonHTTPServer, JsonRequestHandler, RouteTable, json_object
from repro.obs.distributed import (
    TraceContext,
    TraceStore,
    new_trace_context,
    parse_traceparent,
    span_node,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    default_registry,
)

logger = get_logger(__name__)

__all__ = ["ClusterRouter", "RouterRequestHandler", "start_router"]

#: Socket timeout for control-plane proxying (status, polls, cancels).
CONTROL_TIMEOUT_SECONDS = 15.0

#: Socket timeout for proxied appends.
APPEND_TIMEOUT_SECONDS = 60.0

#: Default server-side wait of a proxied synchronous query (mirrors the
#: worker's own default) plus the grace the client protocol already uses.
SYNC_WAIT_SECONDS = 300.0
SYNC_GRACE_SECONDS = 30.0

#: Most job ids the affinity map remembers (LRU).  Affinity is a
#: routing hint, not a correctness requirement — an evicted id just
#: means the poll walks the rendezvous order.
AFFINITY_CAP = 8192

#: Retry-After the router answers when a job's owner is mid-restart.
OWNER_RESTART_RETRY_AFTER = 1.0

#: Most router-side trace documents held in memory (the workers keep
#: the heavyweight span trees; the router only stores its own hop).
TRACE_STORE_ENTRIES = 512


def _canonical_query(text: str) -> str:
    """Canonical TML for routing (same collapse the result cache uses).

    Falls back to the raw text for statements the canonicalizer cannot
    parse — routing only needs determinism, the worker will produce the
    real 400/422.
    """
    try:
        from repro.tml.canonical import canonicalize

        return canonicalize(text)
    except Exception:  # noqa: BLE001 — any parse problem routes on raw text
        return text


class ClusterRouter(JsonHTTPServer):
    """The fleet's single public address.

    Args:
        fleet: the fleet view — an object with ``healthy_workers()``
            (ordered handles carrying ``worker_id``/``base_url``),
            ``all_workers()``, ``note_failure(worker_id)`` and
            ``fingerprint()``.  A
            :class:`~repro.cluster.supervisor.FleetSupervisor` is one.
        host / port: bind address (``port=0`` binds ephemerally).
        quotas: per-tenant admission; default is unlimited.
        metrics: registry for ``repro_cluster_*`` series (the
            supervisor should share it so one scrape shows both).
    """

    def __init__(
        self,
        fleet,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: Optional[TenantQuotas] = None,
        metrics: Optional[MetricsRegistry] = None,
        verbose: bool = False,
    ):
        self.fleet = fleet
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.draining = False
        self.drain_retry_after = 10.0
        self.started_at = time.time()
        self.metrics = metrics if metrics is not None else default_registry()
        self._affinity: "OrderedDict[str, str]" = OrderedDict()
        self._affinity_lock = threading.Lock()
        self._fingerprint: Optional[str] = None
        #: The router's own hop of each distributed trace, keyed by
        #: trace id; worker subtrees are grafted on at read time.
        self.traces = TraceStore(capacity=TRACE_STORE_ENTRIES)
        #: trace_id -> worker_id of the worker that served the traced
        #: request (LRU, same cap/semantics as the job-affinity map).
        self._trace_affinity: "OrderedDict[str, str]" = OrderedDict()
        requests = self.metrics.counter(
            "repro_cluster_requests_total",
            "Requests through the router, by route and status.",
            labelnames=("route", "status"),
        )
        request_seconds = self.metrics.histogram(
            "repro_cluster_request_seconds",
            "Router request latency (incl. the proxied worker), by route.",
            labelnames=("route",),
        )
        self.m_proxied = self.metrics.counter(
            "repro_cluster_proxied_total",
            "Requests proxied to each worker.",
            labelnames=("worker",),
        )
        self.m_failovers = self.metrics.counter(
            "repro_cluster_failovers_total",
            "Requests that failed over past the preferred worker, by route.",
            labelnames=("route",),
        )
        self.m_quota_rejected = self.metrics.counter(
            "repro_cluster_quota_rejected_total",
            "Requests rejected by per-tenant quota, by tenant.",
            labelnames=("tenant",),
        )
        self.m_fanout = self.metrics.counter(
            "repro_cluster_invalidation_fanout_total",
            "Cache-invalidation fanout calls sent to peer workers.",
        )
        super().__init__(
            (host, port), RouterRequestHandler, requests, request_seconds, verbose
        )

    # ------------------------------------------------------------------
    # routing state
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """The routing fingerprint (sticky: last known wins)."""
        current = self.fleet.fingerprint()
        if current:
            self._fingerprint = current
        return self._fingerprint or ""

    def note_fingerprint(self, fingerprint: Optional[str]) -> None:
        if isinstance(fingerprint, str) and fingerprint:
            self._fingerprint = fingerprint

    def preference(self, key: str) -> List[object]:
        """Healthy worker handles in rendezvous order for ``key``."""
        handles = {
            worker.worker_id: worker for worker in self.fleet.healthy_workers()
        }
        return [
            handles[worker_id]
            for worker_id in rank_workers(key, list(handles))
        ]

    def record_job(self, job_id: str, worker_id: str) -> None:
        with self._affinity_lock:
            self._affinity[job_id] = worker_id
            self._affinity.move_to_end(job_id)
            while len(self._affinity) > AFFINITY_CAP:
                self._affinity.popitem(last=False)

    def job_owner(self, job_id: str) -> Optional[str]:
        with self._affinity_lock:
            return self._affinity.get(job_id)

    def jobs_routed(self) -> int:
        with self._affinity_lock:
            return len(self._affinity)

    def record_trace_owner(self, trace_id: str, worker_id: str) -> None:
        with self._affinity_lock:
            self._trace_affinity[trace_id] = worker_id
            self._trace_affinity.move_to_end(trace_id)
            while len(self._trace_affinity) > AFFINITY_CAP:
                self._trace_affinity.popitem(last=False)

    def trace_owner(self, trace_id: str) -> Optional[str]:
        with self._affinity_lock:
            return self._trace_affinity.get(trace_id)

    # ------------------------------------------------------------------
    # proxy primitives
    # ------------------------------------------------------------------

    def proxy(
        self,
        worker,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One proxied request; raises ``OSError`` on transport failure."""
        parts = urlsplit(worker.base_url)
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout
        )
        try:
            request_headers: Dict[str, str] = dict(headers) if headers else {}
            if body:
                request_headers.setdefault("Content-Type", "application/json")
            connection.request(method, path, body=body, headers=request_headers)
            response = connection.getresponse()
            payload = response.read()
            passthrough = {}
            for name in ("Retry-After", "X-Repro-Worker"):
                value = response.headers.get(name)
                if value is not None:
                    passthrough[name] = value
            self.m_proxied.inc(worker=worker.worker_id)
            return response.status, passthrough, payload
        finally:
            connection.close()

    def fan_out_invalidation(
        self, fingerprint: str, except_worker: Optional[str] = None
    ) -> int:
        """Tell every other worker to drop one fingerprint's entries.

        Synchronous and best-effort: a worker that cannot be reached is
        marked suspect and skipped — its memory-tier entries are keyed
        by fingerprint and therefore unservable, so missing the fanout
        costs memory, never correctness.
        """
        body = json.dumps({"fingerprint": fingerprint}).encode("utf-8")
        reached = 0
        for worker in self.fleet.healthy_workers():
            if worker.worker_id == except_worker:
                continue
            try:
                self.proxy(
                    worker,
                    "POST",
                    "/v1/cache/invalidate",
                    body,
                    CONTROL_TIMEOUT_SECONDS,
                )
                reached += 1
                self.m_fanout.inc()
            except OSError:
                self.fleet.note_failure(worker.worker_id)
        return reached

    # ------------------------------------------------------------------
    # documents
    # ------------------------------------------------------------------

    def status_document(self) -> Dict[str, object]:
        workers = []
        for worker in self.fleet.all_workers():
            if hasattr(worker, "to_dict"):
                workers.append(worker.to_dict())
            else:  # a bare test handle: report what the router knows
                workers.append(
                    {
                        "id": worker.worker_id,
                        "url": worker.base_url,
                        "healthy": bool(getattr(worker, "healthy", True)),
                    }
                )
        healthy = sum(1 for worker in workers if worker.get("healthy"))
        return {
            "service": "repro-cluster-router",
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "fingerprint": self.fingerprint() or None,
            "workers": workers,
            "healthy_workers": healthy,
            "jobs_routed": self.jobs_routed(),
            "traces_held": len(self.traces),
            "quota": self.quotas.stats(),
        }

    def merged_metrics(self) -> str:
        """The fleet-wide exposition: router series + every worker's."""
        texts = [self.metrics.render_prometheus()]
        for worker in self.fleet.healthy_workers():
            try:
                status, _, payload = self.proxy(
                    worker, "GET", "/v1/metrics", None, CONTROL_TIMEOUT_SECONDS
                )
            except OSError:
                self.fleet.note_failure(worker.worker_id)
                continue
            if status == 200:
                texts.append(payload.decode("utf-8"))
        return merge_expositions(texts)

    # ------------------------------------------------------------------
    # distributed tracing
    # ------------------------------------------------------------------

    def record_router_trace(
        self,
        context: TraceContext,
        route: str,
        status: int,
        served_by: Optional[str],
        duration_seconds: float,
        job_id: Optional[str],
    ) -> None:
        """Store the router's own hop of a distributed trace.

        The document holds exactly one span — ``router.request`` — in
        the same node shape the worker stores; the worker's subtree is
        grafted under it at read time (:meth:`fleet_trace`), so the
        stored form stays cheap and the graft always reflects the
        freshest worker-side document.
        """
        duration_ms = round(duration_seconds * 1000.0, 3)
        attrs: Dict[str, object] = {
            "route": route,
            "status": status,
            "router": "router",
        }
        if served_by:
            attrs["served_by"] = served_by
        if job_id:
            attrs["job_id"] = job_id
        document: Dict[str, object] = {
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "worker": "router",
            "job_id": job_id,
            "duration_ms": duration_ms,
            "spans": [
                span_node("router.request", 0.0, duration_ms, attrs=attrs)
            ],
        }
        self.traces.put(context.trace_id, document)
        if served_by:
            self.record_trace_owner(context.trace_id, served_by)

    def _worker_json(
        self, worker, path: str
    ) -> Tuple[Optional[int], Optional[Dict[str, object]]]:
        """GET one worker's JSON document; ``(None, None)`` on transport
        failure (the worker is marked suspect)."""
        try:
            status, _, payload = self.proxy(
                worker, "GET", path, None, CONTROL_TIMEOUT_SECONDS
            )
        except OSError:
            self.fleet.note_failure(worker.worker_id)
            return None, None
        return status, json_object(payload)

    def fleet_trace(self, trace_id: str) -> Optional[Dict[str, object]]:
        """One connected trace: router hop + the owning worker's subtree.

        The trace-affinity map names the worker that served the traced
        request; a miss (evicted entry, restarted router) falls back to
        asking every healthy worker — the store is small and traces are
        a debugging surface, not a hot path.  Worker span ``start_ms``
        values keep their own process-local origin; durations are the
        cross-process meaningful quantity.
        """
        router_doc = self.traces.get(trace_id)
        owner_id = self.trace_owner(trace_id)
        workers = list(self.fleet.healthy_workers())
        if owner_id is not None:
            workers.sort(key=lambda worker: worker.worker_id != owner_id)
        worker_doc: Optional[Dict[str, object]] = None
        for worker in workers:
            status, document = self._worker_json(
                worker, f"/v1/traces/{trace_id}"
            )
            if status == 200 and document is not None:
                worker_doc = document
                break
        if router_doc is None:
            return worker_doc
        merged = dict(router_doc)
        if worker_doc is not None:
            spans = [dict(span) for span in merged.get("spans") or []]
            if spans:
                children = list(spans[0].get("children") or [])
                children.extend(worker_doc.get("spans") or [])
                spans[0]["children"] = children
            merged["spans"] = spans
            merged["worker"] = worker_doc.get("worker")
            if merged.get("job_id") is None:
                merged["job_id"] = worker_doc.get("job_id")
        return merged

    def fleet_traces(
        self, min_ms: float = 0.0, limit: int = 50
    ) -> List[Dict[str, object]]:
        """Fleet-wide trace list, slowest first (router + every worker).

        Router-hop documents for trace ids a worker also reported are
        dropped in favour of the worker's richer document.
        """
        merged: Dict[str, Dict[str, object]] = {}
        for worker in self.fleet.healthy_workers():
            status, document = self._worker_json(
                worker, f"/v1/traces?min_ms={min_ms:g}&limit={int(limit)}"
            )
            if status != 200 or document is None:
                continue
            for entry in document.get("traces") or []:
                if isinstance(entry, dict) and isinstance(
                    entry.get("trace_id"), str
                ):
                    merged[entry["trace_id"]] = entry
        for entry in self.traces.query(min_ms=min_ms, limit=limit):
            trace_id = entry.get("trace_id")
            if isinstance(trace_id, str) and trace_id not in merged:
                merged[trace_id] = entry
        ranked = sorted(
            merged.values(),
            key=lambda doc: float(doc.get("duration_ms", 0.0) or 0.0),
            reverse=True,
        )
        return ranked[: max(0, int(limit))]

    def fleet_slow(self) -> Dict[str, object]:
        """The fleet's merged flight-recorder log, slowest first."""
        entries: List[Dict[str, object]] = []
        workers: List[Dict[str, object]] = []
        top_k = 0
        for worker in self.fleet.healthy_workers():
            status, document = self._worker_json(worker, "/v1/debug/slow")
            if status != 200 or document is None:
                continue
            stats = document.get("stats")
            if isinstance(stats, dict):
                top_k = max(top_k, int(stats.get("top_k", 0) or 0))
                workers.append(
                    {"worker": document.get("worker"), "stats": stats}
                )
            for entry in document.get("entries") or []:
                if isinstance(entry, dict):
                    entries.append(entry)
        entries.sort(
            key=lambda e: float(e.get("duration_seconds", 0.0) or 0.0),
            reverse=True,
        )
        if top_k:
            entries = entries[:top_k]
        return {"service": "repro-cluster-router", "workers": workers, "entries": entries}


class RouterRequestHandler(JsonRequestHandler):
    """The public ``/v1`` route table over the worker fleet."""

    server: ClusterRouter

    # -- control plane --------------------------------------------------

    def get_status(self) -> None:
        self.send_json(200, self.server.status_document())

    def get_metrics(self) -> None:
        try:
            text = self.server.merged_metrics()
        except ValueError as error:
            self.send_json(502, {"error": f"metrics merge failed: {error}"})
            return
        self.send_bytes(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)

    def get_trace(self, trace_id: str) -> None:
        document = self.server.fleet_trace(trace_id)
        if document is None:
            raise JobNotFoundError(f"no such trace: {trace_id}")
        self.send_json(200, document)

    def get_traces(self) -> None:
        min_ms, limit = self.trace_listing()
        traces = self.server.fleet_traces(min_ms=min_ms, limit=limit)
        self.send_json(200, {"traces": traces})

    def get_slow(self) -> None:
        self.send_json(200, self.server.fleet_slow())

    def get_job(self, job_id: str) -> None:
        self._proxy_job(job_id, "GET")

    def delete_job(self, job_id: str) -> None:
        self._proxy_job(job_id, "DELETE")

    def post_invalidate(self) -> None:
        fingerprint = self.read_json().get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint.strip():
            raise ValueError('missing required string field "fingerprint"')
        reached = self.server.fan_out_invalidation(fingerprint)
        self.send_json(200, {"fingerprint": fingerprint, "workers_reached": reached})

    # -- data plane -----------------------------------------------------

    def _admit(self) -> Optional[Dict]:
        """The data-plane body, or ``None`` once a 429 went out.

        A draining router refuses new work (503 with the drain deadline
        as ``Retry-After``); a tenant over its token bucket gets 429
        *before* the request consumes a worker.
        """
        payload = self.read_json()
        if self.server.draining:
            raise AdmissionError(
                "cluster is draining for shutdown",
                retry_after=self.server.drain_retry_after,
            )
        decision = self.server.quotas.admit(self.headers.get("X-Tenant"))
        if decision.admitted:
            return payload
        self.server.m_quota_rejected.inc(tenant=decision.tenant)
        self.send_json(
            429,
            {
                "error": f"tenant {decision.tenant!r} is over its quota",
                "tenant": decision.tenant,
            },
            headers={"Retry-After": f"{max(decision.retry_after, 0.001):.3f}"},
        )
        return None

    def post_query(self) -> None:
        payload = self._admit()
        if payload is None:
            return
        query = payload.get("query")
        routing_query = _canonical_query(query) if isinstance(query, str) else ""
        key = f"{self.server.fingerprint()}\x00{routing_query}"
        timeout = SYNC_WAIT_SECONDS
        try:
            timeout = float(payload.get("timeout", SYNC_WAIT_SECONDS))
        except (TypeError, ValueError):
            pass
        # Distributed tracing: a traced payload (or an incoming W3C
        # ``traceparent``) makes the router a hop of the trace.  The
        # router's context is forwarded to the worker, which joins the
        # same trace id — an invalid incoming header restarts the trace
        # rather than erroring (per the W3C processing model).
        context: Optional[TraceContext] = None
        parent = parse_traceparent(self.headers.get("traceparent"))
        if parent is not None:
            context = parent.child()
        elif payload.get("trace"):
            context = new_trace_context()
        started = time.perf_counter()
        proxied = self._proxy_with_failover(
            "/v1/query",
            key=key,
            idempotent=bool(payload.get("idempotency_key")),
            timeout=timeout + SYNC_GRACE_SECONDS,
            headers=(
                {"traceparent": context.to_traceparent()}
                if context is not None
                else None
            ),
        )
        if proxied is None:
            return
        status, headers, response = proxied
        served_by = headers.get("X-Repro-Worker")
        document = json_object(response)
        job_id: Optional[str] = None
        if document is not None:
            job_id = (
                document.get("job_id")
                if isinstance(document.get("job_id"), str)
                else None
            )
            if job_id and served_by:
                self.server.record_job(job_id, served_by)
        if context is not None:
            self.trace_id = context.trace_id
            self.server.record_router_trace(
                context,
                route="/v1/query",
                status=status,
                served_by=served_by,
                duration_seconds=time.perf_counter() - started,
                job_id=job_id,
            )
        if document is not None:
            # A mutating statement's result carries the superseded
            # fingerprint — fan the invalidation out to the peers.
            result = document.get("result")
            if isinstance(result, dict):
                old = result.get("old_fingerprint")
                if isinstance(old, str) and old:
                    self.server.fan_out_invalidation(old, except_worker=served_by)
        self.send_bytes(status, response, headers=headers)

    def post_transactions(self) -> None:
        payload = self._admit()
        if payload is None:
            return
        # Appends route on a stable per-store key (NOT the fingerprint,
        # which the append itself is about to change): one worker owns
        # the hot PR 8 delta-fold chain.
        proxied = self._proxy_with_failover(
            "/v1/transactions",
            key="store-append",
            idempotent=bool(payload.get("idempotency_key")),
            timeout=APPEND_TIMEOUT_SECONDS,
        )
        if proxied is None:
            return
        status, headers, response = proxied
        document = json_object(response)
        if document is not None and document.get("applied"):
            served_by = headers.get("X-Repro-Worker")
            old = document.get("old_fingerprint")
            new = document.get("new_fingerprint")
            self.server.note_fingerprint(new if isinstance(new, str) else None)
            if isinstance(old, str) and old and old != new:
                self.server.fan_out_invalidation(old, except_worker=served_by)
        self.send_bytes(status, response, headers=headers)

    def _proxy_job(self, job_id: str, method: str) -> None:
        """Affinity-first job routing with ranked failover.

        The owner (if healthy) is always tried first; failing that,
        every other healthy worker in rendezvous order.  A 404 from a
        non-owner is *not* authoritative while the owner is down — the
        job lives in the owner's journal and will reappear when the
        supervisor restarts it — so that case answers 503 + Retry-After
        and lets the client's retry loop do the waiting.
        """
        owner_id = self.server.job_owner(job_id)
        candidates = self.server.preference(job_id)
        owner_down = False
        if owner_id is not None:
            owner = next(
                (w for w in candidates if w.worker_id == owner_id), None
            )
            if owner is not None:
                candidates = [owner] + [w for w in candidates if w is not owner]
            else:
                owner_down = True
        if not candidates:
            raise AdmissionError("no healthy workers")
        attempted = False
        for index, worker in enumerate(candidates):
            if index:
                self.server.m_failovers.inc(route="/v1/jobs/{id}")
            try:
                status, headers, response = self.server.proxy(
                    worker,
                    method,
                    f"/v1/jobs/{job_id}",
                    None,
                    CONTROL_TIMEOUT_SECONDS,
                )
            except OSError:
                self.server.fleet.note_failure(worker.worker_id)
                if worker.worker_id == owner_id:
                    # The owner died on the socket mid-loop: any 404 a
                    # peer answers from here on is non-authoritative.
                    owner_down = True
                continue
            attempted = True
            if status == 404 and worker.worker_id != owner_id:
                # Only the owner's 404 is authoritative — any other
                # worker has simply never heard of the job; keep looking.
                continue
            self.send_bytes(status, response, headers=headers)
            return
        if owner_down or not attempted:
            raise AdmissionError(
                f"job {job_id!r} is owned by a worker that is restarting; "
                "retry shortly",
                retry_after=OWNER_RESTART_RETRY_AFTER,
            )
        raise JobNotFoundError(f"no such job: {job_id}")

    def _proxy_with_failover(
        self,
        route: str,
        key: str,
        idempotent: bool,
        timeout: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Optional[Tuple[int, Dict[str, str], bytes]]:
        """POST the request body to the rendezvous-preferred worker,
        failing over; ``None`` after a 502 went out (a keyless request
        died on the wire and must not be blindly retried)."""
        candidates = self.server.preference(key)
        if not candidates:
            raise AdmissionError("no healthy workers")
        for index, worker in enumerate(candidates):
            if index:
                self.server.m_failovers.inc(route=route)
            try:
                return self.server.proxy(
                    worker, "POST", route, self.body, timeout, headers=headers
                )
            except OSError as error:
                self.server.fleet.note_failure(worker.worker_id)
                logger.warning(
                    "proxy to %s failed (%s): %s", worker.worker_id, route, error
                )
                if not idempotent:
                    self.send_json(
                        502,
                        {
                            "error": (
                                f"worker {worker.worker_id} died mid-request; "
                                "resubmit with an idempotency_key to make "
                                "this retry-safe"
                            )
                        },
                    )
                    return None
        raise AdmissionError("all workers failed; fleet is restarting")

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


def start_router(
    fleet,
    host: str = "127.0.0.1",
    port: int = 0,
    quotas: Optional[TenantQuotas] = None,
    metrics: Optional[MetricsRegistry] = None,
    verbose: bool = False,
) -> Tuple[ClusterRouter, threading.Thread]:
    """Start a router on a background thread; returns (router, thread)."""
    router = ClusterRouter(
        fleet,
        host=host,
        port=port,
        quotas=quotas,
        metrics=metrics,
        verbose=verbose,
    )
    return router, router.serve_in_background()
