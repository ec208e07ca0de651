"""One HTTP substrate for the mining service and the cluster router.

Both servers speak the JSON ``/v1`` API over stdlib ``http.server``.
What they share lives here: the route table, the request reader, the
exception-to-status map, request metering, the server base and the
serve loop of the two ``__main__`` entry points.  See
``docs/architecture.md`` ("HTTP substrate").
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type
from urllib.parse import parse_qs

from repro.errors import (
    AdmissionError,
    JobNotFoundError,
    MiningParameterError,
    ReproError,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import Counter, Histogram

logger = get_logger(__name__)

#: The route label of a path no pattern matches.
UNKNOWN_ROUTE = "(unknown)"

Handler = Callable[..., None]


class RouteTable:
    """``(method, pattern, handler)`` rows; a ``{name}`` pattern segment
    captures one path segment, passed to the handler positionally."""

    def __init__(self, rows: Sequence[Tuple[str, str, Handler]]):
        self._handlers: Dict[str, Dict[str, Handler]] = {}
        for method, pattern, handler in rows:
            self._handlers.setdefault(pattern, {})[method] = handler
        self._patterns = [
            (pattern, [segment for segment in pattern.split("/") if segment])
            for pattern in self._handlers
        ]

    def resolve(self, path: str) -> Tuple[str, List[str], Dict[str, Handler]]:
        """``(route label, captures, handlers by method)`` for ``path``.

        The label is the matched pattern whatever the method, so route
        cardinality stays bounded by the table.
        """
        parts = [part for part in path.split("/") if part]
        for pattern, segments in self._patterns:
            if len(segments) != len(parts):
                continue
            captures = []
            for segment, part in zip(segments, parts):
                if segment.startswith("{"):
                    captures.append(part)
                elif segment != part:
                    break
            else:
                return pattern, captures, self._handlers[pattern]
        return UNKNOWN_ROUTE, [], {}


def error_response(error: Exception, request: str) -> Tuple[int, Dict[str, str], str]:
    """``(status, headers, message)`` answering an exception ``request`` raised.

    Anything outside the map is a bug: logged with its traceback, 500.
    """
    if isinstance(error, (ValueError, TypeError, MiningParameterError)):
        return 400, {}, str(error)
    if isinstance(error, JobNotFoundError):
        return 404, {}, str(error)
    if isinstance(error, AdmissionError):
        seconds = error.retry_after
        retry_after = str(max(1, int(round(seconds)))) if seconds else "1"
        return 503, {"Retry-After": retry_after}, str(error)
    if isinstance(error, ReproError):
        return 500, {}, str(error)
    logger.error("%s failed", request, exc_info=error)
    return 500, {}, f"internal server error: {type(error).__name__}"


def json_object(raw: bytes) -> Optional[Dict]:
    """``raw`` as a UTF-8 JSON object, or ``None`` when it is anything else."""
    try:
        document = json.loads(raw.decode("utf-8"))
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Dispatches through ``routes``; answers and meters every request."""

    server: "JsonHTTPServer"
    protocol_version = "HTTP/1.1"
    routes = RouteTable(())

    #: Per request: the status sent (0 until then), the trace id a route
    #: resolved (the latency exemplar), the raw body once read.
    response_status = 0
    trace_id: Optional[str] = None
    body = b""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _dispatch(self) -> None:
        path = self.path.partition("?")[0]
        route, captures, handlers = self.routes.resolve(path)
        handler = handlers.get(self.command)
        self.response_status, self.trace_id = 0, None
        started = time.perf_counter()
        try:
            if handler is None:
                self.send_json(404, {"error": f"unknown path {path!r}"})
            else:
                handler(self, *captures)
        except Exception as error:  # noqa: BLE001 — the boundary answers every failure
            status, headers, message = error_response(error, f"{self.command} {self.path}")
            if not self.response_status:  # else the socket failed mid-response
                self.send_json(status, {"error": message}, headers=headers)
        finally:
            # Metered after the response went out, filling whichever of
            # the method/route/status labels each family declares.
            labels = {
                "method": self.command,
                "route": route,
                "status": str(self.response_status),
            }
            requests, seconds = self.server.m_requests, self.server.m_request_seconds
            requests.inc(**{name: labels[name] for name in requests.labelnames})
            seconds.observe(
                time.perf_counter() - started,
                exemplar={"trace_id": self.trace_id} if self.trace_id else None,
                **{name: labels[name] for name in seconds.labelnames},
            )

    do_GET = do_POST = do_DELETE = _dispatch

    def send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_json(
        self, status: int, payload: Dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self.send_bytes(status, json.dumps(payload).encode("utf-8"), headers=headers)

    def read_json(self) -> Dict:
        """The body as a JSON object (``{}`` when empty), its bytes kept in
        ``self.body``; ``ValueError`` on a malformed request."""
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # The body's end is unknowable: answer, then drop the
            # connection rather than parse the body as the next request.
            self.close_connection = True
            raise ValueError(f"invalid Content-Length: {declared!r}")
        self.body = self.rfile.read(int(declared))
        payload = json_object(self.body) if self.body else {}
        if payload is None:
            raise ValueError("request body must be a UTF-8 JSON object")
        return payload

    def trace_listing(self) -> Tuple[float, int]:
        """``(min_ms, limit)`` of ``GET /v1/traces``; ``ValueError`` → 400."""
        query = parse_qs(self.path.partition("?")[2])
        params = {name: values[-1] for name, values in query.items()}
        try:
            return float(params.get("min_ms", 0.0)), int(params.get("limit", 50))
        except ValueError as error:
            raise ValueError(f"bad query parameter: {error}") from error


class JsonHTTPServer(ThreadingHTTPServer):
    """A threading server metering requests into two metric families."""

    daemon_threads = True
    # The socketserver default backlog (5) resets connections under
    # modest client fan-in; admission control belongs to the
    # application (scheduler queue, tenant quotas), not the socket.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        handler_class: Type[JsonRequestHandler],
        requests: Counter,
        request_seconds: Histogram,
        verbose: bool = False,
    ):
        self.verbose = verbose
        self.m_requests = requests
        self.m_request_seconds = request_seconds
        super().__init__(address, handler_class)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name=type(self).__name__, daemon=True
        )
        thread.start()
        return thread


def write_port_file(path: str, port: int) -> None:
    """Write the bound port atomically (tmp + rename): a supervisor
    polling ``path`` never reads a half-written port."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{port}\n")
    tmp.replace(target)


def serve_until_signalled(server: JsonHTTPServer, drain: Callable[[], None]) -> None:
    """Serve until SIGTERM/SIGINT, run ``drain``, then close the listener.

    The listener runs on a background thread so the calling (main)
    thread owns signal handling, and keeps answering while ``drain``
    runs — 503 for new work, 200 for polls.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    server.serve_in_background()
    try:
        stop.wait()
    finally:
        drain()
        server.shutdown()
        server.server_close()
