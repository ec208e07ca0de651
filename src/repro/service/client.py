"""A minimal stdlib client for the mining service's HTTP API.

Used by the REPL's ``.serve``-adjacent workflows, the smoke tests and
the E17/E19 benchmarks; also a reference for what the API looks like
from the outside.

Hardened for an unreliable network and a restartable server:

* **Socket timeouts everywhere** — control-plane calls default to
  ``timeout`` (30 s); a synchronous query's socket timeout is derived
  from its *server-side* wait (server wait + a grace margin), so a long
  mine never trips the client first but a stalled server cannot hang it
  forever.
* **Retry with backoff and jitter** — connect/read failures and 503
  rejections are retried on the PR 1 :class:`~repro.runtime.retry.RetryPolicy`
  schedule.  A ``Retry-After`` hint from the server is honoured as the
  *floor* of the next delay.
* **Idempotency keys** — :meth:`query`/:meth:`query_async` attach a
  generated idempotency key, so a retried POST re-attaches to the job
  the first attempt admitted instead of running the statement twice.
  Connection-failure retries of a POST happen *only* when a key is
  attached; 503s are always safe to retry (the job was never admitted).

>>> client = ServiceClient("http://127.0.0.1:8765")      # doctest: +SKIP
>>> client.query("SHOW SUMMARY;")                        # doctest: +SKIP
>>> job = client.query_async("MINE PERIODS FROM transactions ...;")
...                                                      # doctest: +SKIP
>>> client.wait(job["job_id"])                           # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    AdmissionError,
    JobNotFoundError,
    ServiceError,
    ServiceUnreachableError,
)
from repro.obs.distributed import TraceContext, new_trace_context
from repro.runtime.retry import RetryPolicy

#: Default socket timeout for control-plane requests (status, polls).
DEFAULT_TIMEOUT_SECONDS = 30.0

#: Default *server-side* wait for a synchronous query (mirrors the
#: server's own default before it answers 504).
DEFAULT_SYNC_WAIT_SECONDS = 300.0

#: Socket-timeout headroom over a synchronous query's server-side wait:
#: the server must win the race and answer 504 with a pollable job id —
#: a client-side socket timeout would lose the id.
SYNC_GRACE_SECONDS = 30.0

#: Network failures the retry loop may clear.  ``HTTPError`` is *not*
#: transient here — it is a served response — and is handled separately.
_TRANSPORT_ERRORS = (
    urllib.error.URLError,
    ConnectionError,
    TimeoutError,
    http.client.HTTPException,
)

#: Client-side retry schedule: a few patient attempts with jitter, so a
#: fleet of clients re-knocking on a restarted service fans out in time.
DEFAULT_CLIENT_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.2, multiplier=2.0, max_delay=5.0, jitter=0.25
)


def generate_idempotency_key() -> str:
    """A fresh idempotency key (one per *logical* submission)."""
    return uuid.uuid4().hex


class ServiceClient:
    """Talk JSON to a :class:`~repro.service.http.MiningHTTPServer`.

    Args:
        base_url: the service root, e.g. ``http://127.0.0.1:8765``.
        timeout: socket timeout for control-plane requests, seconds.
        retry_policy: backoff schedule for transient failures (pass
            ``RetryPolicy(max_attempts=1)`` to disable retries).
        sleep / rng: injectable sleeper and jitter source (tests).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_CLIENT_RETRY_POLICY
        )
        self._sleep = sleep
        self._rng = rng

    # ------------------------------------------------------------------
    # raw HTTP
    # ------------------------------------------------------------------

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
        text: bool = False,
    ) -> Any:
        """One HTTP exchange: the decoded JSON document (the raw text
        with ``text=True``); error statuses raise or, for 422/504,
        return the job record they carry."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        request_headers: Dict[str, str] = dict(headers) if headers else {}
        if body:
            request_headers.setdefault("Content-Type", "application/json")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers=request_headers,
        )
        socket_timeout = timeout if timeout is not None else self.timeout
        try:
            with urllib.request.urlopen(request, timeout=socket_timeout) as response:
                raw = response.read().decode("utf-8")
                return raw if text else json.loads(raw)
        except urllib.error.HTTPError as error:
            try:
                document = json.loads(error.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                document = {"error": str(error)}
            message = document.get("error") or f"HTTP {error.code}"
            if error.code == 503:
                raise AdmissionError(
                    message, retry_after=_retry_after_seconds(error)
                ) from None
            if error.code == 404:
                raise JobNotFoundError(message) from None
            if error.code in (422, 504):
                # The job record travels on the error response — surface
                # it rather than the bare status line.
                document.setdefault("http_status", error.code)
                return document
            raise ServiceError(f"HTTP {error.code}: {message}") from None
        except _TRANSPORT_ERRORS as error:
            raise ServiceUnreachableError(
                f"cannot reach {self.base_url}: {error}"
            ) from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
        text: bool = False,
    ) -> Any:
        """One API call through the retry loop.

        503s are always retryable (the job was never admitted).
        Transport failures are retryable for GET/DELETE, and for POSTs
        that carry an idempotency key — a keyless POST that died
        mid-flight may or may not have been admitted, so it must
        surface instead of risking a duplicate run.
        """
        transport_retryable = method in ("GET", "DELETE") or bool(
            payload and payload.get("idempotency_key")
        )
        schedule = self.retry_policy.delays(self._rng)
        while True:
            try:
                return self._request_once(
                    method, path, payload, timeout, headers, text
                )
            except AdmissionError as error:
                delay = next(schedule, None)
                if delay is None:
                    raise
                # Retry-After is a floor, not a replacement: the server
                # knows when it might accept again, the jittered policy
                # keeps a client fleet from re-knocking in lockstep.
                self._sleep(max(delay, error.retry_after or 0.0))
            except ServiceUnreachableError:
                delay = None if not transport_retryable else next(schedule, None)
                if delay is None:
                    raise
                self._sleep(delay)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def query(
        self,
        text: str,
        priority: int = 0,
        budget: Optional[Dict] = None,
        timeout: Optional[float] = None,
        trace: object = False,
        idempotency_key: Optional[str] = None,
    ) -> Dict:
        """Run one statement synchronously; returns the job record.

        ``timeout`` is the *server-side* wait before the server answers
        504; the socket timeout is derived from it (plus a grace
        margin) so the server always wins that race and the client
        keeps a pollable job id.  An idempotency key is generated when
        none is passed, making the POST retry-safe.

        ``trace`` may be ``True`` (the client mints a fresh
        :class:`~repro.obs.distributed.TraceContext` and sends its
        ``traceparent``, so the client is the first hop of the trace)
        or an existing ``TraceContext`` to join a caller's trace.  The
        resulting trace id comes back on the job record.
        """
        payload: Dict = {
            "query": text,
            "priority": priority,
            "idempotency_key": (
                idempotency_key
                if idempotency_key is not None
                else generate_idempotency_key()
            ),
        }
        if budget:
            payload["budget"] = budget
        if timeout is not None:
            payload["timeout"] = timeout
        headers = self._trace_headers(payload, trace)
        server_wait = timeout if timeout is not None else DEFAULT_SYNC_WAIT_SECONDS
        return self._request(
            "POST",
            "/v1/query",
            payload,
            timeout=server_wait + SYNC_GRACE_SECONDS,
            headers=headers,
        )

    def query_async(
        self,
        text: str,
        priority: int = 0,
        budget: Optional[Dict] = None,
        trace: object = False,
        idempotency_key: Optional[str] = None,
    ) -> Dict:
        """Submit one statement; returns the queued job record."""
        payload: Dict = {
            "query": text,
            "priority": priority,
            "async": True,
            "idempotency_key": (
                idempotency_key
                if idempotency_key is not None
                else generate_idempotency_key()
            ),
        }
        if budget:
            payload["budget"] = budget
        headers = self._trace_headers(payload, trace)
        return self._request("POST", "/v1/query", payload, headers=headers)

    @staticmethod
    def _trace_headers(payload: Dict, trace: object) -> Optional[Dict[str, str]]:
        """Set ``payload["trace"]`` and build the ``traceparent`` header.

        A retried POST re-sends the same header, so the re-attached job
        lands in the same trace as the first attempt.
        """
        if not trace:
            return None
        payload["trace"] = True
        context = trace if isinstance(trace, TraceContext) else new_trace_context()
        return {"traceparent": context.to_traceparent()}

    def append_transactions(
        self,
        transactions,
        idempotency_key: Optional[str] = None,
    ) -> Dict:
        """Stream a batch of transactions into the service's store.

        ``transactions`` holds ``{"ts": ISO timestamp, "items": [...]}``
        objects (optionally with ``"tid"``) or ``(timestamp, items[,
        tid])`` tuples.  An idempotency key is generated when none is
        passed, so a retried POST can never double-apply the batch.
        """
        entries = []
        for entry in transactions:
            if isinstance(entry, dict):
                entries.append(entry)
                continue
            timestamp, items = entry[0], entry[1]
            tid = entry[2] if len(entry) > 2 else None
            document: Dict = {
                "ts": timestamp.isoformat()
                if hasattr(timestamp, "isoformat")
                else str(timestamp),
                "items": list(items),
            }
            if tid is not None:
                document["tid"] = tid
            entries.append(document)
        payload: Dict = {
            "transactions": entries,
            "idempotency_key": (
                idempotency_key
                if idempotency_key is not None
                else generate_idempotency_key()
            ),
        }
        return self._request("POST", "/v1/transactions", payload)

    def job(self, job_id: str) -> Dict:
        """Poll one job record."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict:
        """Cancel a queued or running job."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def status(self) -> Dict:
        """The service status document."""
        return self._request("GET", "/v1/status")

    def metrics(self) -> str:
        """The service metrics in Prometheus text exposition format."""
        return self._request("GET", "/v1/metrics", text=True)

    def trace(self, trace_id: str) -> Dict:
        """Fetch one stored trace document by trace id.

        Raises :class:`~repro.errors.JobNotFoundError` when the trace
        has been evicted (or never existed).
        """
        return self._request("GET", f"/v1/traces/{trace_id}")

    def traces(self, min_ms: float = 0.0, limit: int = 50) -> Dict:
        """List stored trace summaries, slowest first."""
        query = urllib.parse.urlencode({"min_ms": min_ms, "limit": limit})
        return self._request("GET", f"/v1/traces?{query}")

    def slow(self) -> Dict:
        """The slow-query flight recorder's ranked capture log."""
        return self._request("GET", "/v1/debug/slow")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_seconds: float = 0.05,
    ) -> Dict:
        """Poll until the job is terminal (or raise on timeout).

        ``interrupted`` counts as terminal: the record is final in the
        serving process — the statement finishes after its restart,
        under the same job id.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled", "interrupted"):
                return record
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {record['state']} after {timeout:g}s"
                )
            time.sleep(poll_seconds)


def _retry_after_seconds(error: urllib.error.HTTPError) -> Optional[float]:
    """Parse a numeric ``Retry-After`` header, if present and sane."""
    raw = error.headers.get("Retry-After") if error.headers else None
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if value >= 0 else None
