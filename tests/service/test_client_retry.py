"""Client hardening regressions: timeouts, backoff, idempotent retries.

These tests exercise :class:`ServiceClient` against *misbehaving*
endpoints — a socket that accepts and then stalls forever, a dead port,
a server that sheds load with ``Retry-After`` — without a real mining
service, so each failure mode is exact and fast.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import AdmissionError, ServiceUnreachableError
from repro.runtime.retry import RetryPolicy
from repro.service.client import (
    DEFAULT_SYNC_WAIT_SECONDS,
    DEFAULT_TIMEOUT_SECONDS,
    SYNC_GRACE_SECONDS,
    ServiceClient,
    generate_idempotency_key,
)


def _no_retries():
    return RetryPolicy(max_attempts=1)


def _fast_retries(attempts):
    return RetryPolicy(max_attempts=attempts, base_delay=0.01, jitter=0.0)


@pytest.fixture
def stalled_socket():
    """A listener that accepts connections but never answers a byte."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.close()


@pytest.fixture
def dead_port():
    """A port with nothing listening on it."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


class TestSocketTimeouts:
    def test_default_timeout_is_bounded(self):
        assert ServiceClient("http://example.invalid").timeout == 30.0
        assert DEFAULT_TIMEOUT_SECONDS == 30.0

    def test_stalled_server_trips_the_socket_timeout(self, stalled_socket):
        """Regression: a stalled server must not hang the client forever.

        The listener accepts the TCP connection and then goes silent —
        before PR 6 the client used an unbounded ``urlopen`` and this
        call would block until the process was killed.
        """
        client = ServiceClient(
            stalled_socket, timeout=0.3, retry_policy=_no_retries()
        )
        started = time.monotonic()
        with pytest.raises(ServiceUnreachableError):
            client.status()
        assert time.monotonic() - started < 5.0

    def test_sync_query_socket_timeout_tracks_server_wait(self, monkeypatch):
        """The socket deadline must exceed the server-side 504 deadline."""
        seen = {}

        class _Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps({"job_id": "x", "state": "done"}).encode()

        def fake_urlopen(request, timeout=None):
            seen["timeout"] = timeout
            return _Response()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        client = ServiceClient("http://example.invalid")
        client.query("SHOW SUMMARY;", timeout=60)
        assert seen["timeout"] == 60 + SYNC_GRACE_SECONDS
        client.query("SHOW SUMMARY;")
        assert seen["timeout"] == DEFAULT_SYNC_WAIT_SECONDS + SYNC_GRACE_SECONDS


class TestTransportRetries:
    def test_gets_retry_connect_errors_with_backoff(self, dead_port):
        sleeps = []
        client = ServiceClient(
            dead_port, retry_policy=_fast_retries(3), sleep=sleeps.append
        )
        with pytest.raises(ServiceUnreachableError):
            client.status()
        assert len(sleeps) == 2  # one backoff between each of 3 attempts
        assert sleeps[1] > sleeps[0]  # multiplicative backoff

    def test_keyless_post_is_never_retried_on_transport_error(self, dead_port):
        """A keyless POST that died mid-flight may have been admitted —
        retrying it could run the statement twice, so it must surface."""
        sleeps = []
        client = ServiceClient(
            dead_port, retry_policy=_fast_retries(3), sleep=sleeps.append
        )
        with pytest.raises(ServiceUnreachableError):
            client._request("POST", "/v1/query", {"query": "SHOW SUMMARY;"})
        assert sleeps == []

    def test_keyed_post_is_retried_on_transport_error(self, dead_port):
        sleeps = []
        client = ServiceClient(
            dead_port, retry_policy=_fast_retries(3), sleep=sleeps.append
        )
        with pytest.raises(ServiceUnreachableError):
            client._request(
                "POST",
                "/v1/query",
                {"query": "SHOW SUMMARY;", "idempotency_key": "k-1"},
            )
        assert len(sleeps) == 2

    def test_query_attaches_a_fresh_idempotency_key(self, monkeypatch):
        bodies = []

        class _Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps({"job_id": "x", "state": "queued"}).encode()

        def fake_urlopen(request, timeout=None):
            bodies.append(json.loads(request.data.decode()))
            return _Response()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        client = ServiceClient("http://example.invalid")
        client.query_async("SHOW SUMMARY;")
        client.query_async("SHOW SUMMARY;")
        keys = [body["idempotency_key"] for body in bodies]
        assert all(keys)
        assert keys[0] != keys[1]  # one key per *logical* submission

    def test_generate_idempotency_key_is_unique_hex(self):
        keys = {generate_idempotency_key() for _ in range(64)}
        assert len(keys) == 64
        assert all(len(key) == 32 and int(key, 16) >= 0 for key in keys)


class _SheddingHandler(BaseHTTPRequestHandler):
    """Answers 503 + Retry-After until `remaining_rejections` runs out."""

    remaining_rejections = 0
    retry_after = "2"
    requests_seen = 0

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        cls = type(self)
        cls.requests_seen += 1
        if cls.remaining_rejections > 0:
            cls.remaining_rejections -= 1
            body = json.dumps({"error": "queue full"}).encode()
            self.send_response(503)
            self.send_header("Retry-After", cls.retry_after)
        else:
            body = json.dumps({"job_id": "j-1", "state": "done"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    exposition = "# TYPE repro_up gauge\nrepro_up 1\n"

    def do_GET(self):
        cls = type(self)
        cls.requests_seen += 1
        if cls.remaining_rejections > 0:
            cls.remaining_rejections -= 1
            body = json.dumps({"error": "queue full"}).encode()
            self.send_response(503)
            self.send_header("Retry-After", cls.retry_after)
            self.send_header("Content-Type", "application/json")
        else:
            body = cls.exposition.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def shedding_server():
    handler = type("Handler", (_SheddingHandler,), {})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", handler
    finally:
        server.shutdown()
        server.server_close()


class TestRetryAfter:
    def test_retry_after_is_honoured_as_the_delay_floor(self, shedding_server):
        """Regression: the backoff delay (10 ms here) must be raised to
        the server's Retry-After hint, never used to re-knock early."""
        url, handler = shedding_server
        handler.remaining_rejections = 1
        handler.retry_after = "2"
        sleeps = []
        client = ServiceClient(
            url, retry_policy=_fast_retries(3), sleep=sleeps.append
        )
        record = client.query("SHOW SUMMARY;", timeout=5)
        assert record["state"] == "done"
        assert handler.requests_seen == 2
        assert sleeps == [2.0]

    def test_admission_error_surfaces_after_retries_exhausted(
        self, shedding_server
    ):
        url, handler = shedding_server
        handler.remaining_rejections = 99
        sleeps = []
        client = ServiceClient(
            url, retry_policy=_fast_retries(2), sleep=sleeps.append
        )
        with pytest.raises(AdmissionError) as excinfo:
            client.query("SHOW SUMMARY;", timeout=5)
        assert excinfo.value.retry_after == 2.0
        assert len(sleeps) == 1

    def test_metrics_scrape_retries_503_with_retry_after(self, shedding_server):
        """The exposition goes through the same retry loop as every JSON
        call: a shed scrape waits out ``Retry-After`` and returns text."""
        url, handler = shedding_server
        handler.remaining_rejections = 1
        handler.retry_after = "2"
        sleeps = []
        client = ServiceClient(
            url, retry_policy=_fast_retries(3), sleep=sleeps.append
        )
        assert client.metrics() == _SheddingHandler.exposition
        assert handler.requests_seen == 2
        assert sleeps == [2.0]

    def test_larger_backoff_wins_over_small_retry_after(self, shedding_server):
        url, handler = shedding_server
        handler.remaining_rejections = 1
        handler.retry_after = "0.001"
        sleeps = []
        client = ServiceClient(
            url,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            sleep=sleeps.append,
        )
        client.query("SHOW SUMMARY;", timeout=5)
        assert sleeps == [0.5]
