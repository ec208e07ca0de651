"""The service and the router answer through one HTTP substrate.

Each test runs against both servers — an in-process
:class:`~repro.service.http.MiningHTTPServer` and a
:class:`~repro.cluster.router.ClusterRouter` over the static fleet — and
asserts they agree: the same statuses and route labels for the same
malformed or unroutable requests, and request-metric families whose
exposition (help, type, label names) is pinned.
"""

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.router import start_router
from repro.obs.metrics import MetricsRegistry

from .conftest import InProcWorker, StaticFleet

#: Every route both servers serve, as its bounded route label.
ROUTES = {
    "/v1/status",
    "/v1/metrics",
    "/v1/query",
    "/v1/transactions",
    "/v1/traces",
    "/v1/traces/{id}",
    "/v1/debug/slow",
    "/v1/jobs/{id}",
    "/v1/cache/invalidate",
}

SAMPLE_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
LABEL_NAME = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"')

#: family -> (type, help, label names of its samples, ``le`` excluded).
REQUEST_FAMILIES = {
    "service": {
        "repro_http_requests_total": (
            "counter",
            "API requests served, by method, route and status.",
            {"method", "route", "status"},
        ),
        "repro_http_request_seconds": (
            "histogram",
            "API request latency, by route.",
            {"route"},
        ),
    },
    "router": {
        "repro_cluster_requests_total": (
            "counter",
            "Requests through the router, by route and status.",
            {"route", "status"},
        ),
        "repro_cluster_request_seconds": (
            "histogram",
            "Router request latency (incl. the proxied worker), by route.",
            {"route"},
        ),
    },
}


@pytest.fixture(scope="module")
def servers(cluster_db):
    """kind -> (base url, registry, request counter name)."""
    worker = InProcWorker("w0", cluster_db)
    router, _ = start_router(StaticFleet([worker]), metrics=MetricsRegistry())
    try:
        yield {
            "service": (worker.base_url, worker.service.metrics, "repro_http_requests_total"),
            "router": (router.url, router.metrics, "repro_cluster_requests_total"),
        }
    finally:
        router.shutdown()
        router.server_close()
        worker.close()


def _call(url, method="GET", body=None):
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _samples(registry, family):
    """``[(labels dict, value)]`` of one family's plain samples."""
    for metric in registry.collect():
        if metric.name == family:
            return [
                (dict(zip(names, values)), value)
                for _, names, values, value in metric.samples()
            ]
    return []


def _metered(registry, family, route, status):
    return sum(
        value
        for labels, value in _samples(registry, family)
        if labels["route"] == route and labels["status"] == str(status)
    )


def _wait_metered(registry, family, route, status, expected, timeout=5.0):
    """Metering follows the response: poll until the sample lands."""
    deadline = time.monotonic() + timeout
    while _metered(registry, family, route, status) < expected:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


#: (method, path, body, status, route label) every server answers alike.
PARITY_PROBES = [
    ("GET", "/v1/nope", None, 404, "(unknown)"),
    ("DELETE", "/v1/status", None, 404, "/v1/status"),
    ("GET", "/v1/traces?limit=x", None, 400, "/v1/traces"),
    ("POST", "/v1/query", b"{not json", 400, "/v1/query"),
]


@pytest.mark.parametrize("kind", ["service", "router"])
def test_both_servers_answer_bad_requests_alike(servers, kind):
    url, registry, family = servers[kind]
    for method, path, body, status, route in PARITY_PROBES:
        before = _metered(registry, family, route, status)
        answered, raw = _call(url + path, method, body)
        assert answered == status, (kind, method, path)
        assert json.loads(raw.decode("utf-8"))["error"]
        assert _wait_metered(registry, family, route, status, before + 1), (
            kind,
            method,
            path,
        )


@pytest.mark.parametrize("kind", ["service", "router"])
def test_request_metric_exposition_is_pinned(servers, kind):
    """One request per route, then the request families' exposition:
    ``# HELP`` / ``# TYPE`` lines and label-name sets are unchanged, and
    the route labels are exactly the served routes."""
    url, registry, family = servers[kind]
    status, raw = _call(
        f"{url}/v1/query", "POST", json.dumps({"query": "SHOW SUMMARY;"}).encode()
    )
    assert status == 200
    job_id = json.loads(raw.decode("utf-8"))["job_id"]
    for method, path, body in [
        ("GET", "/v1/status", None),
        ("GET", "/v1/metrics", None),
        ("GET", "/v1/traces", None),
        ("GET", f"/v1/traces/{'f' * 32}", None),
        ("GET", "/v1/debug/slow", None),
        ("GET", f"/v1/jobs/{job_id}", None),
        ("DELETE", f"/v1/jobs/{job_id}", None),
        ("POST", "/v1/transactions", b"{}"),
        ("POST", "/v1/cache/invalidate", b'{"fingerprint": "deadbeef"}'),
    ]:
        _call(url + path, method, body)
    deadline = time.monotonic() + 5.0
    while {labels["route"] for labels, _ in _samples(registry, family)} < ROUTES:
        assert time.monotonic() < deadline, "a route was never metered"
        time.sleep(0.01)
    assert {labels["route"] for labels, _ in _samples(registry, family)} <= ROUTES | {
        "(unknown)"
    }

    lines = registry.render_prometheus().splitlines()
    shapes = set()
    for line in lines:
        if line.startswith("#"):
            continue
        sample = line.split(" # ", 1)[0]  # drop an exemplar annotation
        name = SAMPLE_NAME.match(sample).group(0)
        shapes.add((name, frozenset(LABEL_NAME.findall(sample))))
    for name, (kind_name, help_text, labelnames) in REQUEST_FAMILIES[kind].items():
        assert f"# HELP {name} {help_text}" in lines
        assert f"# TYPE {name} {kind_name}" in lines
        family_shapes = {
            shape for shape in shapes if shape[0] == name or shape[0].startswith(name + "_")
        }
        if kind_name == "counter":
            assert family_shapes == {(name, frozenset(labelnames))}
        else:
            assert family_shapes == {
                (f"{name}_bucket", frozenset(labelnames | {"le"})),
                (f"{name}_sum", frozenset(labelnames)),
                (f"{name}_count", frozenset(labelnames)),
            }
