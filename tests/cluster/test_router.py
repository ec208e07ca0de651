"""Router behaviour against an in-process fleet: cache-locality
routing, canonical collapse, job affinity, failover, quotas, fanout,
drain, and fleet metrics — every property ISSUE 9's front door claims,
asserted over real sockets with real workers."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster.hashring import pick_worker
from repro.cluster.quota import TenantQuotas
from repro.cluster.router import _canonical_query, start_router
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.service.client import ServiceClient

from ..service.test_http import MALFORMED_REQUESTS, metered_statuses, raw_exchange
from .conftest import InProcWorker, StaticFleet

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


def _request(url, method="GET", payload=None, headers=None, timeout=60):
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=body, method=method, headers=dict(headers or {})
    )
    if body:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8")
        document = json.loads(raw) if raw else {}
        return error.code, dict(error.headers), document


def _post_query(router_url, query, tenant=None, idempotency_key=None):
    payload = {"query": query}
    if idempotency_key:
        payload["idempotency_key"] = idempotency_key
    headers = {"X-Tenant": tenant} if tenant else {}
    return _request(
        f"{router_url}/v1/query", "POST", payload, headers=headers
    )


@pytest.fixture
def routed(cluster_db, tmp_path):
    shared = str(tmp_path / "shared.cache")
    workers = [
        InProcWorker(f"w{index}", cluster_db, shared_cache=shared)
        for index in range(2)
    ]
    fleet = StaticFleet(workers)
    router, _ = start_router(fleet, metrics=MetricsRegistry())
    try:
        yield router, fleet, workers
    finally:
        router.shutdown()
        router.server_close()
        for worker in workers:
            worker.close()


class TestRouting:
    def test_routing_is_deterministic_and_spreads(self, routed):
        """Each query lands on exactly the worker rendezvous picks, and
        a pool of distinct queries reaches both workers."""
        router, _, workers = routed
        fingerprint = router.fingerprint()
        ids = [worker.worker_id for worker in workers]
        served_by = set()
        for index in range(12):
            query = f"SELECT COUNT(*) AS n FROM transactions WHERE tid >= {index};"
            expected = pick_worker(
                f"{fingerprint}\x00{_canonical_query(query)}", ids
            )
            status, headers, document = _post_query(router.url, query)
            assert status == 200 and document["state"] == "done"
            assert headers["X-Repro-Worker"] == expected
            served_by.add(headers["X-Repro-Worker"])
        assert served_by == set(ids), "distinct queries must spread"

    def test_canonical_variants_collapse_to_one_worker(self, routed):
        """Whitespace variants of one query route identically and the
        second form is a warm cache hit on that same worker."""
        router, _, _ = routed
        sloppy = MINE_QUERY.replace(" WITH ", "   WITH\n\t ")
        status_a, headers_a, first = _post_query(router.url, MINE_QUERY)
        status_b, headers_b, second = _post_query(router.url, sloppy)
        assert status_a == status_b == 200
        assert headers_a["X-Repro-Worker"] == headers_b["X-Repro-Worker"]
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_results_are_bit_identical_across_serving_paths(self, routed):
        """The router adds routing, not results: a query answered via
        the router equals the same query answered by each worker."""
        router, _, workers = routed
        _, _, via_router = _post_query(router.url, MINE_QUERY)
        for worker in workers:
            _, _, direct = _post_query(worker.base_url, MINE_QUERY)
            assert direct["result"] == via_router["result"]

    def test_unknown_paths_404(self, routed):
        router, _, _ = routed
        status, _, _ = _request(f"{router.url}/v1/nope")
        assert status == 404
        status, _, _ = _request(
            f"{router.url}/v1/nope", "POST", {"x": 1}
        )
        assert status == 404


class TestJobs:
    def test_job_affinity_poll_and_cancel_route_to_owner(self, routed):
        router, _, _ = routed
        status, headers, submitted = _request(
            f"{router.url}/v1/query",
            "POST",
            {"query": MINE_QUERY, "mode": "async"},
        )
        assert status in (200, 202)
        owner = headers["X-Repro-Worker"]
        job_id = submitted["job_id"]
        assert router.job_owner(job_id) == owner
        # The poll lands on the owner even when rendezvous(job_id)
        # would prefer the other worker.
        for _ in range(200):
            status, headers, record = _request(
                f"{router.url}/v1/jobs/{job_id}"
            )
            assert status == 200
            assert headers["X-Repro-Worker"] == owner
            if record["state"] == "done":
                break
        assert record["state"] == "done"

    def test_unknown_job_is_404(self, routed):
        router, _, _ = routed
        status, _, document = _request(f"{router.url}/v1/jobs/nope")
        assert status == 404
        assert "nope" in document["error"]

    def test_owner_down_poll_answers_503_retry_after(self, routed):
        """While a job's owner restarts, polls get 503 + Retry-After —
        never a lying 404 from a worker that simply never saw the job."""
        router, fleet, _ = routed
        router.record_job("job-on-w0", "w0")
        fleet.note_failure("w0")
        status, headers, document = _request(
            f"{router.url}/v1/jobs/job-on-w0"
        )
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert "restarting" in document["error"]


class TestFailover:
    def test_keyed_query_fails_over_to_survivor(self, routed):
        router, fleet, workers = routed
        fingerprint = router.fingerprint()
        ids = [worker.worker_id for worker in workers]
        query = MINE_QUERY
        victim_id = pick_worker(
            f"{fingerprint}\x00{_canonical_query(query)}", ids
        )
        victim = fleet.worker(victim_id)
        survivor_id = next(i for i in ids if i != victim_id)
        victim.stop_http()
        status, headers, document = _post_query(
            router.url, query, idempotency_key="failover-key-1"
        )
        assert status == 200 and document["state"] == "done"
        assert headers["X-Repro-Worker"] == survivor_id
        assert not victim.healthy, "transport death must mark the victim"
        exposition = router.metrics.render_prometheus()
        samples = parse_prometheus_text(exposition)
        assert (
            samples["repro_cluster_failovers_total"]['{route="/v1/query"}']
            >= 1.0
        )

    def test_keyless_post_transport_death_is_502(self, routed):
        """A keyless submit that dies on the wire must NOT be blindly
        retried — the job may already have been admitted."""
        router, fleet, workers = routed
        # Kill every worker the query could land on except none: stop both,
        # so the first candidate's refusal is a transport error.
        for worker in workers:
            worker.stop_http()
        status, _, document = _request(
            f"{router.url}/v1/query",
            "POST",
            {"query": MINE_QUERY},  # deliberately keyless
        )
        assert status == 502
        assert "idempotency_key" in document["error"]

    def test_no_healthy_workers_is_503(self, routed):
        router, fleet, workers = routed
        for worker in workers:
            fleet.note_failure(worker.worker_id)
        status, headers, _ = _post_query(router.url, MINE_QUERY)
        assert status == 503
        assert "Retry-After" in headers


class TestQuotas:
    def test_over_quota_tenant_gets_429_with_retry_after(
        self, cluster_db, tmp_path
    ):
        workers = [InProcWorker("w0", cluster_db)]
        fleet = StaticFleet(workers)
        router, _ = start_router(
            fleet,
            quotas=TenantQuotas(rate=0.001, burst=1.0),
            metrics=MetricsRegistry(),
        )
        try:
            ok, _, _ = _post_query(router.url, "SHOW SUMMARY;", tenant="t1")
            assert ok == 200
            status, headers, document = _post_query(
                router.url, "SHOW SUMMARY;", tenant="t1"
            )
            assert status == 429
            assert document["tenant"] == "t1"
            assert float(headers["Retry-After"]) > 0
            # Another tenant is unaffected (per-tenant buckets).
            other, _, _ = _post_query(
                router.url, "SHOW SUMMARY;", tenant="t2"
            )
            assert other == 200
            # Control plane stays free.
            control, _, _ = _request(f"{router.url}/v1/status")
            assert control == 200
        finally:
            router.shutdown()
            router.server_close()
            for worker in workers:
                worker.close()


class TestFleetDocuments:
    def test_status_document_shape(self, routed):
        router, _, workers = routed
        status, _, document = _request(f"{router.url}/v1/status")
        assert status == 200
        assert document["service"] == "repro-cluster-router"
        assert document["healthy_workers"] == 2
        assert {w["id"] for w in document["workers"]} == {
            worker.worker_id for worker in workers
        }
        assert document["fingerprint"]
        assert document["quota"] == {"enabled": False}

    def test_merged_metrics_cover_router_and_workers(self, routed):
        router, _, workers = routed
        # Generate traffic on both workers.
        for index in range(8):
            _post_query(
                router.url,
                f"SELECT COUNT(*) AS n FROM transactions WHERE tid > {index};",
            )
        status, headers, *_ = _request_raw_metrics(router.url)
        assert status == 200
        samples = parse_prometheus_text(_request_raw_metrics(router.url)[2])
        cluster_requests = sum(
            value
            for labels, value in samples["repro_cluster_requests_total"].items()
            if 'route="/v1/query"' in labels
        )
        assert cluster_requests >= 8.0
        # Worker-side series survive the merge (summed across the fleet).
        worker_requests = sum(
            samples.get("repro_http_requests_total", {}).values()
        )
        assert worker_requests >= 8.0

    def test_draining_router_rejects_data_plane_only(self, routed):
        router, _, _ = routed
        router.draining = True
        status, headers, _ = _post_query(router.url, MINE_QUERY)
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        control, _, document = _request(f"{router.url}/v1/status")
        assert control == 200 and document["draining"] is True


def _request_raw_metrics(router_url):
    request = urllib.request.Request(f"{router_url}/v1/metrics")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read().decode(
            "utf-8"
        )


class TestMalformedRequests:
    def test_malformed_requests_answer_400_without_hanging(self, routed):
        """Regression: a bad ``Content-Length`` used to hang the router
        thread (``-1``) or drop the connection unanswered (``abc``, or a
        JSON array posted to the invalidation fanout), metered as
        ``status="0"``."""
        router, _, _ = routed
        for path, length, body in MALFORMED_REQUESTS:
            status, document, seconds = raw_exchange(
                router.url, "POST", path, length, body
            )
            assert status == 400, (path, length, body, document)
            assert document["error"]
            assert seconds < 1.0
        statuses = metered_statuses(
            router.metrics, "repro_cluster_requests_total", len(MALFORMED_REQUESTS)
        )
        assert statuses == {"400": float(len(MALFORMED_REQUESTS))}

    def test_exception_escaping_a_route_is_a_500(self, routed, monkeypatch):
        router, _, _ = routed

        def explode():
            raise RuntimeError("status exploded")

        monkeypatch.setattr(router, "status_document", explode)
        status, document, _ = raw_exchange(router.url, "GET", "/v1/status", "0")
        assert status == 500
        assert "RuntimeError" in document["error"]
        statuses = metered_statuses(router.metrics, "repro_cluster_requests_total", 1)
        assert statuses == {"500": 1.0}


class TestInvalidationFanout:
    def test_append_through_router_invalidates_peer_memory_tiers(
        self, tmp_path
    ):
        """An append lands on one worker; the router's fanout empties
        the *other* worker's memory cache for the superseded store."""
        from repro.datagen import seasonal_dataset
        from repro.db.sqlite_store import SqliteStore

        db_path = str(tmp_path / "append.db")
        store = SqliteStore(db_path)
        store.save_database(
            seasonal_dataset(n_transactions=400, seed=5).database
        )
        store.close()
        shared = str(tmp_path / "shared.cache")
        workers = [
            InProcWorker(f"w{index}", db_path, shared_cache=shared)
            for index in range(2)
        ]
        fleet = StaticFleet(workers)
        router, _ = start_router(fleet, metrics=MetricsRegistry())
        try:
            # Warm both memory tiers directly (bypassing the router so
            # BOTH workers hold an entry for the current fingerprint).
            for worker in workers:
                _, _, record = _post_query(worker.base_url, MINE_QUERY)
                assert record["state"] == "done"
            for worker in workers:
                assert worker.service.status()["cache"]["entries"] >= 1
            old_fingerprint = router.fingerprint()
            client = ServiceClient(router.url)
            outcome = client.append_transactions(
                [("2031-01-01T00:00:00", ["brand_new_item"])]
            )
            assert outcome["applied"] is True
            assert outcome["new_fingerprint"] != old_fingerprint
            # The fanout emptied every worker's memory tier.
            for worker in workers:
                assert worker.service.status()["cache"]["entries"] == 0
            # And the router's sticky fingerprint moved forward.
            assert router.fingerprint() == outcome["new_fingerprint"]
        finally:
            router.shutdown()
            router.server_close()
            for worker in workers:
                worker.close()

    def test_invalidate_endpoint_validates_body(self, routed):
        router, _, _ = routed
        status, _, document = _request(
            f"{router.url}/v1/cache/invalidate", "POST", {"fingerprint": ""}
        )
        assert status == 400
        status, _, document = _request(
            f"{router.url}/v1/cache/invalidate",
            "POST",
            {"fingerprint": "deadbeef"},
        )
        assert status == 200
        assert document["workers_reached"] == 2


def _span_structure(spans):
    """(name, children) shape only — wall-clock and attrs excluded."""
    return [
        (span["name"], _span_structure(span.get("children") or []))
        for span in spans
    ]


def _span_names(spans):
    names = set()
    for span in spans:
        names.add(span["name"])
        names |= _span_names(span.get("children") or [])
    return names


class TestDistributedTracing:
    def test_traced_query_yields_one_connected_fleet_trace(self, routed):
        """The tentpole, fleet-side: one trace id covers the router hop,
        the worker's job, admission wait and the mining passes — fetched
        through the router as a single connected tree."""
        router, _, _ = routed
        status, _, record = _request(
            f"{router.url}/v1/query",
            "POST",
            {"query": MINE_QUERY, "trace": True},
        )
        assert status == 200 and record["state"] == "done"
        trace_id = record["trace_id"]
        status, _, document = _request(f"{router.url}/v1/traces/{trace_id}")
        assert status == 200
        assert document["trace_id"] == trace_id
        (root,) = document["spans"]
        assert root["name"] == "router.request"
        worker_ids = {worker.worker_id for worker in routed[2]}
        assert root["attrs"]["served_by"] in worker_ids
        (worker_span,) = root["children"]
        assert worker_span["name"] == "worker.job"
        hop_names = _span_names(document["spans"])
        # Root-to-leaf hop coverage: router, worker, scheduler, passes.
        assert {"router.request", "worker.job", "scheduler.wait"} <= hop_names
        assert "count" in hop_names

    def test_incoming_traceparent_joins_the_trace(self, routed):
        from repro.obs.distributed import new_trace_context

        router, _, _ = routed
        context = new_trace_context()
        status, _, record = _request(
            f"{router.url}/v1/query",
            "POST",
            {"query": "SHOW SUMMARY;"},
            headers={"traceparent": context.to_traceparent()},
        )
        assert status == 200
        assert record["trace_id"] == context.trace_id
        status, _, document = _request(
            f"{router.url}/v1/traces/{context.trace_id}"
        )
        assert status == 200
        # The router's span is a child of the caller's, not the caller's.
        assert document["span_id"] != context.span_id

    def test_worker_only_trace_served_without_router_hop(self, routed):
        """A trace the router never saw (direct-to-worker query) is
        still reachable through the router's fan-out fallback."""
        router, _, workers = routed
        client = ServiceClient(workers[0].base_url)
        record = client.query("SHOW SUMMARY;", trace=True)
        status, _, document = _request(
            f"{router.url}/v1/traces/{record['trace_id']}"
        )
        assert status == 200
        (root,) = document["spans"]
        assert root["name"] == "worker.job"

    def test_unknown_trace_is_404(self, routed):
        router, _, _ = routed
        status, _, _ = _request(f"{router.url}/v1/traces/{'f' * 32}")
        assert status == 404

    def test_fleet_trace_listing_merges_and_ranks(self, routed):
        router, _, _ = routed
        for _ in range(2):
            _request(
                f"{router.url}/v1/query",
                "POST",
                {"query": "SHOW SUMMARY;", "trace": True},
            )
        status, _, document = _request(f"{router.url}/v1/traces?min_ms=0")
        assert status == 200
        listing = document["traces"]
        assert len(listing) >= 2
        durations = [entry["duration_ms"] for entry in listing]
        assert durations == sorted(durations, reverse=True)
        status, _, document = _request(
            f"{router.url}/v1/traces?min_ms=999999999"
        )
        assert status == 200 and document["traces"] == []

    def test_bad_listing_parameters_are_400(self, routed):
        router, _, _ = routed
        status, _, _ = _request(f"{router.url}/v1/traces?min_ms=banana")
        assert status == 400

    def test_fleet_slow_log_merges_worker_captures(self, routed):
        router, _, workers = routed
        for worker in workers:
            worker.service.flight_recorder.threshold_seconds = 0.0
        _request(
            f"{router.url}/v1/query", "POST", {"query": MINE_QUERY, "trace": True}
        )
        status, _, document = _request(f"{router.url}/v1/debug/slow")
        assert status == 200
        entries = document["entries"]
        assert any(e["statement"].startswith("MINE PERIODS") for e in entries)
        durations = [e["duration_seconds"] for e in entries]
        assert durations == sorted(durations, reverse=True)
        assert document["workers"], "per-worker recorder stats surface"

    def test_router_exposes_trace_exemplars_fleet_wide(self, routed):
        router, _, _ = routed
        _, _, record = _request(
            f"{router.url}/v1/query", "POST", {"query": MINE_QUERY, "trace": True}
        )
        exposition = urllib.request.urlopen(
            f"{router.url}/v1/metrics", timeout=30
        ).read().decode("utf-8")
        parse_prometheus_text(exposition)  # exemplars don't break parsing
        lines = [line for line in exposition.splitlines() if " # " in line]
        assert any(record["trace_id"] in line for line in lines)

    def test_cluster_and_library_traces_share_span_structure(
        self, routed, cluster_db
    ):
        """Differential satellite: the mining subtree of a traced
        cluster query is structurally identical (names + parent edges;
        wall-clock excluded) to a traced in-library run of the same
        statement over the same store."""
        from repro.db.sqlite_store import SqliteStore
        from repro.system.session import IqmsSession

        router, _, _ = routed
        status, _, record = _request(
            f"{router.url}/v1/query",
            "POST",
            {"query": MINE_QUERY, "trace": True},
        )
        assert status == 200 and record["state"] == "done"
        _, _, document = _request(
            f"{router.url}/v1/traces/{record['trace_id']}"
        )
        (router_span,) = document["spans"]
        (worker_span,) = router_span["children"]
        execute = next(
            c for c in worker_span["children"] if c["name"] == "execute"
        )
        cluster_structure = _span_structure(execute.get("children") or [])

        store = SqliteStore(cluster_db)
        try:
            session = IqmsSession(store=store)
            session.set_trace(True)
            report = session.run(MINE_QUERY).payload
        finally:
            store.close()
        library_structure = _span_structure(report.trace["spans"])
        assert cluster_structure == library_structure
