"""Service telemetry: /v1/metrics, traced jobs, payload stability."""

import json
import threading
import time

import pytest

from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.service.client import ServiceClient
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import start_server

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


def scrape_until(client, predicate, timeout=10.0):
    """Scrape /v1/metrics until ``predicate(parsed)`` holds (or timeout).

    HTTP request metrics are recorded *after* the response bytes go out,
    so a scrape issued right after a request returns can race that
    request's own accounting by microseconds.  Every scrape still must
    parse strictly; only the predicate is allowed to lag.
    """
    deadline = time.monotonic() + timeout
    while True:
        parsed = parse_prometheus_text(client.metrics())
        if predicate(parsed) or time.monotonic() > deadline:
            return parsed
        time.sleep(0.01)


@pytest.fixture
def served(seasonal_data):
    service = MiningService(
        config=ServiceConfig(workers=2, metrics=MetricsRegistry())
    )
    service.load_database(seasonal_data.database)
    server, _ = start_server(service)
    try:
        yield service, server, ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestMetricsEndpoint:
    def test_scrape_parses_strictly(self, served):
        _, _, client = served
        client.query("SHOW SUMMARY;")
        parsed = scrape_until(
            client, lambda p: "repro_http_requests_total" in p
        )
        assert "repro_scheduler_admitted_total" in parsed
        assert "repro_http_requests_total" in parsed

    def test_content_type_is_prometheus(self, served):
        import urllib.request

        _, server, _ = served
        with urllib.request.urlopen(server.url + "/v1/metrics") as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            parse_prometheus_text(response.read().decode("utf-8"))

    def test_mining_populates_expected_series(self, served):
        _, _, client = served
        client.query(MINE_QUERY)  # mined
        client.query(MINE_QUERY)  # cache hit
        parsed = scrape_until(
            client,
            lambda p: any(
                'route="/v1/query"' in labels
                for labels in p.get("repro_http_requests_total", {})
            ),
        )
        assert parsed["repro_mining_passes_total"][""] > 0
        assert parsed["repro_mining_rules_total"][""] > 0
        assert parsed["repro_cache_events_total"]['{event="miss"}'] >= 1
        assert parsed["repro_cache_events_total"]['{event="hit"}'] >= 1
        assert parsed["repro_scheduler_jobs_total"]['{state="done"}'] >= 2
        assert parsed["repro_scheduler_admitted_total"][""] >= 2
        request_series = parsed["repro_http_requests_total"]
        assert any('route="/v1/query"' in labels for labels in request_series)

    def test_sixteen_concurrent_scrapers_during_mining(self, served):
        """Satellite: the exposition stays valid under scrape fan-in."""
        _, _, client = served
        submitted = client.query_async(MINE_QUERY)
        outcomes = [None] * 16

        def scrape(slot):
            scraper = ServiceClient(client.base_url)
            try:
                parse_prometheus_text(scraper.metrics())
                outcomes[slot] = "ok"
            except Exception as error:  # noqa: BLE001 — recorded for assert
                outcomes[slot] = repr(error)

        threads = [
            threading.Thread(target=scrape, args=(slot,)) for slot in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == ["ok"] * 16
        client.wait(submitted["job_id"])

    def test_status_carries_registry_snapshot(self, served):
        _, _, client = served
        client.query("SHOW SUMMARY;")
        document = client.status()
        assert "metrics" in document
        assert document["metrics"]["repro_scheduler_admitted_total"] >= 1

    def test_registries_are_isolated_per_service(self, served, seasonal_data):
        """An injected registry keeps one service's counters out of another's."""
        _, _, client = served
        client.query("SHOW SUMMARY;")
        other = MiningService(
            config=ServiceConfig(workers=1, metrics=MetricsRegistry())
        )
        try:
            snapshot = other.metrics.snapshot()
            assert snapshot.get("repro_scheduler_admitted_total", 0.0) == 0.0
        finally:
            other.close()


class TestTracedJobs:
    def test_traced_query_carries_span_tree(self, served):
        _, _, client = served
        record = client.query(MINE_QUERY, trace=True)
        assert record["state"] == "done"
        trace = record["result"]["trace"]
        assert trace["spans"], "expected a non-empty span tree"
        names = {span["name"] for span in trace["spans"]}
        assert "count" in names

    def test_traced_queries_bypass_the_cache(self, served):
        _, _, client = served
        first = client.query(MINE_QUERY, trace=True)
        second = client.query(MINE_QUERY, trace=True)
        assert first["cached"] is False and second["cached"] is False
        # A traced run must not have poisoned the cache for untraced
        # clients either: the next plain query mines (miss), and its
        # payload carries no trace key.
        plain = client.query(MINE_QUERY)
        assert plain["cached"] is False
        assert "trace" not in plain["result"]

    def test_untraced_payloads_stay_byte_identical(self, served):
        """Satellite: tracing OFF leaves result payloads untouched."""
        service, _, client = served
        first = client.query(MINE_QUERY)
        cached = client.query(MINE_QUERY)
        service.cache.clear()
        remined = client.query(MINE_QUERY)
        blobs = {
            json.dumps(record["result"], sort_keys=True)
            for record in (first, cached, remined)
        }
        assert len(blobs) == 1
        assert cached["cached"] is True and remined["cached"] is False
        assert "trace" not in first["result"]

    def test_job_record_flags_trace(self, served):
        _, _, client = served
        record = client.query(MINE_QUERY, trace=True)
        assert record.get("trace") is True
        plain = client.query("SHOW SUMMARY;")
        assert "trace" not in plain


def _span_names(spans):
    names = set()
    for span in spans:
        names.add(span["name"])
        names |= _span_names(span.get("children") or [])
    return names


class TestDistributedTracing:
    def test_traced_query_yields_connected_span_tree(self, served):
        """The tentpole, worker-side: one trace id covers admission
        wait, execution and every mining pass, with resource
        attribution on the root span."""
        _, _, client = served
        record = client.query(MINE_QUERY, trace=True)
        trace_id = record["trace_id"]
        assert isinstance(trace_id, str) and len(trace_id) == 32
        document = client.trace(trace_id)
        assert document["trace_id"] == trace_id
        assert document["job_id"] == record["job_id"]
        (root,) = document["spans"]
        assert root["name"] == "worker.job"
        child_names = [child["name"] for child in root["children"]]
        assert child_names == ["scheduler.wait", "execute"]
        # The library's mining span tree is grafted under "execute".
        assert "count" in _span_names(root["children"][1]["children"])
        attrs = root["attrs"]
        assert attrs["cpu_seconds"] >= 0.0
        assert attrs["peak_rss_kb"] > 0
        assert attrs["cache"] == "bypassed"
        assert attrs["wait_seconds"] >= 0.0
        assert "plan_backend" in attrs and "planner_est_seconds" in attrs
        assert "plan_workers" not in attrs and "shards" not in attrs

    def test_job_record_carries_resources(self, served):
        _, _, client = served
        record = client.query(MINE_QUERY, trace=True)
        resources = record["resources"]
        assert resources["cpu_seconds"] >= 0.0
        assert resources["elapsed_seconds"] > 0.0
        assert resources["cache"] == "bypassed"
        # Untraced queries get attribution too — just no trace.
        plain = client.query("SHOW SUMMARY;")
        assert plain["resources"]["elapsed_seconds"] >= 0.0
        assert "trace_id" not in plain

    def test_cache_hit_attributed_as_hit(self, served):
        _, _, client = served
        client.query(MINE_QUERY)
        cached = client.query(MINE_QUERY)
        assert cached["cached"] is True
        assert cached["resources"]["cache"] == "hit"

    def test_traceparent_header_joins_the_callers_trace(self, served):
        from repro.obs.distributed import new_trace_context

        _, _, client = served
        context = new_trace_context()
        record = client.query("SHOW SUMMARY;", trace=context)
        assert record["trace_id"] == context.trace_id
        document = client.trace(context.trace_id)
        # The worker's root span is a *child* of the caller's context:
        # same trace id, different span id.
        assert document["span_id"] != context.span_id

    def test_invalid_traceparent_restarts_the_trace(self, served):
        import urllib.request

        _, server, _ = served
        body = json.dumps({"query": "SHOW SUMMARY;", "trace": True}).encode()
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=body,
            headers={
                "Content-Type": "application/json",
                "traceparent": "ff-" + "0" * 32 + "-" + "0" * 16 + "-01",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            record = json.loads(response.read().decode("utf-8"))
        assert record["state"] == "done"
        trace_id = record["trace_id"]
        assert isinstance(trace_id, str) and set(trace_id) != {"0"}

    def test_trace_listing_ranks_and_filters(self, served):
        _, _, client = served
        client.query(MINE_QUERY, trace=True)
        client.query("SHOW SUMMARY;", trace=True)
        listing = client.traces(min_ms=0.0, limit=10)["traces"]
        assert len(listing) >= 2
        durations = [entry["duration_ms"] for entry in listing]
        assert durations == sorted(durations, reverse=True)
        assert client.traces(min_ms=1e12)["traces"] == []

    def test_unknown_trace_is_404(self, served):
        from repro.errors import JobNotFoundError

        _, _, client = served
        with pytest.raises(JobNotFoundError):
            client.trace("f" * 32)

    def test_status_reports_tracing_block(self, served):
        _, _, client = served
        client.query(MINE_QUERY, trace=True)
        tracing = client.status()["tracing"]
        assert tracing["traces_held"] >= 1
        assert tracing["slow_queries"]["threshold_seconds"] > 0

    def test_request_histogram_carries_trace_exemplar(self, served):
        _, _, client = served
        record = client.query(MINE_QUERY, trace=True)
        deadline = time.monotonic() + 10.0
        while True:
            lines = [
                line for line in client.metrics().splitlines() if " # " in line
            ]
            if lines or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert lines, "expected at least one exemplar-bearing bucket line"
        assert any(record["trace_id"] in line for line in lines)
        assert all(line.startswith("repro_http_request_seconds_bucket") for line in lines)


class TestFlightRecorder:
    @pytest.fixture
    def eager_recorder(self, seasonal_data):
        """A service whose flight recorder captures *everything*."""
        service = MiningService(
            config=ServiceConfig(
                workers=1,
                metrics=MetricsRegistry(),
                slow_threshold_seconds=0.0,
                slow_top_k=4,
            )
        )
        service.load_database(seasonal_data.database)
        server, _ = start_server(service)
        try:
            yield service, server, ServiceClient(server.url)
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_slow_queries_are_captured_in_full(self, eager_recorder):
        _, _, client = eager_recorder
        record = client.query(MINE_QUERY, trace=True)
        document = client.slow()
        assert document["stats"]["captured"] >= 1
        entries = document["entries"]
        durations = [entry["duration_seconds"] for entry in entries]
        assert durations == sorted(durations, reverse=True)
        mine = next(e for e in entries if e["job_id"] == record["job_id"])
        assert mine["statement"].startswith("MINE PERIODS")
        assert mine["trace_id"] == record["trace_id"]
        assert mine["resources"]["cpu_seconds"] >= 0.0
        assert mine["trace"]["spans"], "capture carries the full trace"

    def test_untraced_captures_skip_the_span_tree(self, eager_recorder):
        _, _, client = eager_recorder
        client.query("SHOW SUMMARY;")
        entries = client.slow()["entries"]
        entry = next(e for e in entries if e["statement"] == "SHOW SUMMARY;")
        assert "trace" not in entry and "trace_id" not in entry
        assert entry["resources"]["elapsed_seconds"] >= 0.0

    def test_default_threshold_captures_nothing_fast(self, served):
        _, _, client = served
        client.query("SHOW SUMMARY;")
        document = client.slow()
        assert document["stats"]["threshold_seconds"] == 1.0
        assert all(
            entry["duration_seconds"] >= 1.0 for entry in document["entries"]
        )
