"""End-to-end tests for the TML-over-HTTP API (real sockets, stdlib client)."""

import http.client
import json
import logging
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.errors import AdmissionError, JobNotFoundError
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import start_server

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


@pytest.fixture
def served(seasonal_data):
    service = MiningService(config=ServiceConfig(workers=2))
    service.load_database(seasonal_data.database)
    server, _ = start_server(service)
    try:
        yield service, ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestSyncAndAsync:
    def test_sync_query(self, served):
        _, client = served
        record = client.query(MINE_QUERY)
        assert record["state"] == "done"
        assert record["cached"] is False
        assert record["result"]["n_results"] > 0
        assert record["elapsed_seconds"] >= 0

    def test_async_submit_and_poll(self, served):
        _, client = served
        submitted = client.query_async(MINE_QUERY)
        assert submitted["state"] in ("queued", "running", "done")
        record = client.wait(submitted["job_id"])
        assert record["state"] == "done"
        assert record["result"]["n_results"] > 0

    def test_sql_and_show_over_http(self, served):
        _, client = served
        sql = client.query("SELECT COUNT(*) AS n FROM transactions;")
        assert sql["result"]["type"] == "query_result"
        assert sql["result"]["rows"][0][0] > 0
        show = client.query("SHOW SUMMARY;")
        assert show["state"] == "done"

    def test_status_document(self, served):
        _, client = served
        document = client.status()
        assert document["service"] == "repro-iqms"
        assert "scheduler" in document and "cache" in document


class TestAcceptanceE2E:
    def test_two_clients_same_query_cache_and_parity(self, served, seasonal_data):
        """The ISSUE acceptance path: two concurrent clients, one mine.

        Both get bit-identical results equal to the serial library path;
        the second is served from the cache, visible via the /v1/status
        hit counter; a mutation then invalidates.
        """
        service, client_a = served
        client_b = ServiceClient(client_a.base_url)
        records = [None, None]

        def run(slot, client):
            records[slot] = client.query(MINE_QUERY, timeout=60.0)

        threads = [
            threading.Thread(target=run, args=(0, client_a)),
            threading.Thread(target=run, args=(1, client_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        a, b = records
        assert a["state"] == "done" and b["state"] == "done"
        assert a["result"] == b["result"]
        assert a["cached"] != b["cached"]  # exactly one mined
        assert client_a.status()["cache"]["hits"] == 1

        # Bit-identical to the serial library path.
        from repro.db.sqlite_store import SqliteStore
        from repro.service.serialize import payload_to_dict
        from repro.tml.executor import ExecutionEnvironment, TmlExecutor

        with SqliteStore(":memory:") as store:
            store.save_database(seasonal_data.database)
            environment = ExecutionEnvironment(store=store)
            execution = TmlExecutor(environment).execute(MINE_QUERY)
            expected = payload_to_dict(
                execution.payload,
                environment.resolve("transactions").catalog,
            )
        assert a["result"] == expected

        # Mutation invalidates: the next identical query re-mines.
        mutation = client_a.query("DELETE FROM transactions WHERE item = 'season0_a';")
        assert mutation["result"]["invalidated_entries"] == 1
        after = client_a.query(MINE_QUERY, timeout=60.0)
        assert after["cached"] is False
        assert after["result"] != a["result"]

    def test_delete_cancels_running_job_with_partial_result(self, seasonal_data):
        """DELETE /v1/jobs/{id} stops a run at a pass boundary; the job
        record keeps the PR 1-style sound partial result."""
        started = threading.Event()

        def pace(granule):
            started.set()
            time.sleep(0.02)  # stretch the run so the cancel lands mid-flight

        service = MiningService(
            config=ServiceConfig(workers=1, granule_hook=pace)
        )
        service.load_database(seasonal_data.database)
        server, _ = start_server(service)
        client = ServiceClient(server.url)
        try:
            submitted = client.query_async(MINE_QUERY)
            assert started.wait(10.0), "job never started mining"
            cancelled = client.cancel(submitted["job_id"])
            assert cancelled["cancel_requested"] is True
            record = client.wait(submitted["job_id"], timeout=30.0)
            assert record["state"] == "cancelled"
            result = record["result"]
            assert result is not None, "cancelled job lost its partial result"
            assert result["partial"] is True
            assert result["diagnostics"]["stop_reason"] == "cancelled"
            # Partial results are never cached.
            assert service.cache.stats()["puts"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestIdempotency:
    def test_double_submit_with_same_key_reattaches(self, served):
        """A retried POST carrying the same idempotency key must return
        the originally admitted job, not run the statement twice."""
        _, client = served
        first = client.query_async(MINE_QUERY, idempotency_key="retry-1")
        second = client.query_async(MINE_QUERY, idempotency_key="retry-1")
        assert second["job_id"] == first["job_id"]
        record = client.wait(first["job_id"], timeout=60.0)
        assert record["state"] == "done"
        # The key round-trips on the job record for auditability.
        assert record["idempotency_key"] == "retry-1"

    def test_distinct_keys_admit_distinct_jobs(self, served):
        _, client = served
        first = client.query_async("SHOW SUMMARY;", idempotency_key="a-1")
        second = client.query_async("SHOW SUMMARY;", idempotency_key="a-2")
        assert first["job_id"] != second["job_id"]
        assert client.wait(first["job_id"])["state"] == "done"
        assert client.wait(second["job_id"])["state"] == "done"

    def test_blank_idempotency_key_is_rejected(self, served):
        from repro.errors import ServiceError

        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/query", {"query": "SHOW SUMMARY;", "idempotency_key": ""}
            )
        assert "400" in str(excinfo.value)


class TestErrorMapping:
    def test_unknown_job_404(self, served):
        _, client = served
        with pytest.raises(JobNotFoundError):
            client.job("does-not-exist")
        with pytest.raises(JobNotFoundError):
            client.cancel("does-not-exist")

    def test_unknown_path_404(self, served):
        _, client = served
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            client._request("GET", "/v2/nope")

    def test_bad_request_400(self, served):
        _, client = served
        from repro.errors import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/query", {"not_query": "x"})
        assert "400" in str(excinfo.value)
        with pytest.raises(ServiceError):
            client._request("POST", "/v1/query", {"query": "X;", "budget": {"bogus": 1}})
        # JSON admits NaN; a NaN deadline would never bind.
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/query", {"query": MINE_QUERY, "budget": {"time": float("nan")}}
            )
        assert "400" in str(excinfo.value)

    def test_statement_error_422_carries_job_record(self, served):
        _, client = served
        record = client.query("MINE GIBBERISH FROM nowhere;")
        assert record["http_status"] == 422
        assert record["state"] == "failed"
        assert record["error"]

    def test_admission_rejection_503(self, seasonal_data):
        release = threading.Event()

        def stall(granule):
            release.wait(10.0)

        service = MiningService(
            config=ServiceConfig(workers=1, max_queue_depth=1, granule_hook=stall)
        )
        service.load_database(seasonal_data.database)
        server, _ = start_server(service)
        client = ServiceClient(server.url)
        try:
            running = client.query_async(MINE_QUERY)
            time.sleep(0.1)  # let it occupy the worker
            queued = client.query_async(
                MINE_QUERY.replace("SUPPORT >= 0.2", "SUPPORT >= 0.25")
            )
            with pytest.raises(AdmissionError):
                client.query_async(
                    MINE_QUERY.replace("SUPPORT >= 0.2", "SUPPORT >= 0.3")
                )
            release.set()
            assert client.wait(running["job_id"], timeout=30.0)["state"] == "done"
            assert client.wait(queued["job_id"], timeout=30.0)["state"] == "done"
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# hostile input over raw sockets
# ----------------------------------------------------------------------

#: ``(path, Content-Length header, body)`` requests a client library
#: would never send; ``None`` sends the body's true length.
MALFORMED_REQUESTS = [
    ("/v1/query", "-1", b""),
    ("/v1/query", "abc", b""),
    ("/v1/transactions", "-7", b""),
    ("/v1/query", None, b"\xff\xfe{}"),
    ("/v1/query", None, b"[1, 2]"),
    ("/v1/cache/invalidate", None, b"[]"),
]


def raw_exchange(base_url, method, path, content_length=None, body=b"", timeout=1.0):
    """One hand-built request on a raw socket: ``(status, document, seconds)``.

    The ``Content-Length`` header is sent verbatim, so it can lie.  A
    server that stalls past ``timeout`` raises ``socket.timeout``; one
    that hangs up without answering raises ``RemoteDisconnected``.
    """
    parts = urlsplit(base_url)
    if content_length is None:
        content_length = str(len(body))
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n"
        "Connection: close\r\n\r\n"
    )
    started = time.monotonic()
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(head.encode("latin-1") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        document = json.loads(response.read().decode("utf-8"))
    return response.status, document, time.monotonic() - started


def metered_statuses(registry, family, expected_requests, timeout=5.0):
    """The ``status`` label values of ``family`` once it has metered
    ``expected_requests`` requests (metering follows the response)."""
    deadline = time.monotonic() + timeout
    while True:
        statuses = {}
        for metric in registry.collect():
            if metric.name != family:
                continue
            for _, labelnames, values, count in metric.samples():
                status = dict(zip(labelnames, values))["status"]
                statuses[status] = statuses.get(status, 0.0) + count
        if sum(statuses.values()) >= expected_requests or time.monotonic() > deadline:
            return statuses
        time.sleep(0.01)


@pytest.fixture
def metered(seasonal_data):
    """A served service with its own registry, so its counters are its own."""
    registry = MetricsRegistry()
    service = MiningService(config=ServiceConfig(workers=1, metrics=registry))
    service.load_database(seasonal_data.database)
    server, _ = start_server(service)
    try:
        yield service, server.url, registry
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestMalformedRequests:
    def test_malformed_requests_answer_400_without_hanging(self, metered):
        _, url, registry = metered
        for path, length, body in MALFORMED_REQUESTS:
            status, document, seconds = raw_exchange(url, "POST", path, length, body)
            assert status == 400, (path, length, body, document)
            assert document["error"]
            assert seconds < 1.0
        statuses = metered_statuses(
            registry, "repro_http_requests_total", len(MALFORMED_REQUESTS)
        )
        assert statuses == {"400": float(len(MALFORMED_REQUESTS))}

    def test_exception_escaping_a_route_is_a_logged_500(
        self, metered, monkeypatch, caplog
    ):
        service, url, registry = metered

        def explode():
            raise RuntimeError("status exploded")

        monkeypatch.setattr(service, "status", explode)
        with caplog.at_level(logging.ERROR, logger="repro"):
            status, document, _ = raw_exchange(url, "GET", "/v1/status", "0")
        assert status == 500
        assert "RuntimeError" in document["error"]
        assert any(
            r.exc_info and "status exploded" in str(r.exc_info[1])
            for r in caplog.records
        )
        assert metered_statuses(registry, "repro_http_requests_total", 1) == {"500": 1.0}
