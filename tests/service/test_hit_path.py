"""Cache hits answered before admission, in-process and over HTTP.

A synchronous request whose result either cache tier already holds is
answered on the calling thread: no queue, no worker hand-off, no
journal row.  Everything else (misses, traced, ``async``, known
idempotency keys, non-MINE and unparseable statements, a draining
service) takes the admitted, journaled path.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from datetime import datetime

import pytest

from repro.datagen import seasonal_dataset
from repro.errors import AdmissionError, JobNotFoundError
from repro.obs.distributed import new_trace_context
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.runtime.budget import RunBudget
from repro.runtime.retry import RetryPolicy
from repro.service.client import ServiceClient
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import start_server

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)
OTHER_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.7 HAVING COVERAGE >= 2;"
)
APPEND_ROWS = [(datetime(2025, 4, 1, 9), ["season0_a", "season0_b"])]

#: The keys of a hit's job record (and of its ``resources`` block),
#: exactly as an admitted hit carried them.
HIT_RECORD_KEYS = {
    "job_id", "statement", "priority", "state", "submitted_at", "started_at",
    "finished_at", "cached", "cancel_requested", "error", "result", "resources",
    "idempotency_key", "elapsed_seconds",
}
HIT_RESOURCE_KEYS = {
    "cpu_seconds", "elapsed_seconds", "peak_rss_kb", "wait_seconds", "cache",
}


@pytest.fixture(scope="module")
def dataset():
    return seasonal_dataset(n_transactions=600, seed=11).database


def _open(tmp_path, **overrides):
    config = ServiceConfig(
        workers=overrides.pop("workers", 2),
        journal_path=str(tmp_path / "jobs.journal"),
        disk_cache_path=str(tmp_path / "results.cache"),
        metrics=MetricsRegistry(),
        **overrides,
    )
    return MiningService(store=str(tmp_path / "store.db"), config=config)


@pytest.fixture
def service(tmp_path, dataset):
    svc = _open(tmp_path)
    svc.load_database(dataset)
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture
def served(service):
    server, _ = start_server(service)
    try:
        yield service, server, ServiceClient(
            server.url, retry_policy=RetryPolicy(max_attempts=1)
        )
    finally:
        server.shutdown()
        server.server_close()


def _transitions(service):
    return len(service.journal.transitions())


def _series(service, name, labels=""):
    parsed = parse_prometheus_text(service.metrics.render_prometheus())
    return parsed.get(name, {}).get(labels, 0.0)


def _post(url, body, headers=None):
    request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@contextmanager
def _draining(tmp_path, dataset):
    """A served service with MINE_QUERY primed, draining behind a slow job."""
    slow = threading.Event()
    service = _open(
        tmp_path,
        workers=1,
        granule_hook=lambda offset: time.sleep(0.2) if slow.is_set() else None,
    )
    server, _ = start_server(service)
    drain = threading.Thread(target=service.drain, kwargs={"deadline_seconds": 1.0})
    try:
        service.load_database(dataset)
        service.run_sync(MINE_QUERY, timeout=60)
        slow.set()
        running = service.submit(OTHER_QUERY)
        _wait_until(lambda: running.state == "running")
        drain.start()
        _wait_until(lambda: service.scheduler.stats()["draining"])
        yield service, server
    finally:
        if drain.is_alive():
            drain.join(timeout=30)
            assert not drain.is_alive()
        server.shutdown()
        server.server_close()
        service.close()


class TestInProcess:
    def test_hit_writes_no_journal_row_and_skips_the_queue(self, service):
        cold = service.run_sync(MINE_QUERY, timeout=60)
        assert cold.state == "done" and not cold.cached
        transitions = _transitions(service)
        waited = _series(service, "repro_scheduler_wait_seconds_count")
        hit = service.run_sync(MINE_QUERY)
        assert hit.state == "done" and hit.cached
        assert hit.result == cold.result
        assert _transitions(service) == transitions
        assert _series(service, "repro_scheduler_wait_seconds_count") == waited
        assert service.job(hit.job_id) is hit
        assert hit.resources["cache"] == "hit"
        assert hit.resources["wait_seconds"] == 0.0

    def test_budgeted_hit_skips_the_journal(self, service):
        budget = RunBudget(max_seconds=60.0)
        cold = service.run_sync(MINE_QUERY, budget=budget, timeout=60)
        assert not cold.cached and not cold.result.get("partial")
        transitions = _transitions(service)
        hit = service.run_sync(MINE_QUERY, budget=budget)
        assert hit.cached and hit.result == cold.result
        assert hit.to_dict()["budget"] == budget.describe()
        assert _transitions(service) == transitions

    def test_restart_forgets_a_hit(self, tmp_path, dataset):
        first = _open(tmp_path)
        try:
            first.load_database(dataset)
            first.run_sync(MINE_QUERY, timeout=60)
            hit = first.run_sync(MINE_QUERY)
            assert hit.cached
        finally:
            first.close()
        restarted = _open(tmp_path)
        try:
            with pytest.raises(JobNotFoundError):
                restarted.job(hit.job_id)
            # The disk tier still answers the statement, with a new job.
            again = restarted.run_sync(MINE_QUERY)
            assert again.cached and again.job_id != hit.job_id
            assert again.result == hit.result
        finally:
            restarted.close()

    def test_each_lookup_counts_once(self, service):
        """The event counts of this sequence are what they were when every
        hit was admitted and looked up on a worker."""
        assert not service.run_sync(MINE_QUERY, timeout=60).cached  # miss
        assert service.run_sync(MINE_QUERY).cached  # hit
        assert service.run_sync(MINE_QUERY).cached  # hit
        with service.cache._lock:  # drop the memory tier only
            service.cache._entries.clear()
        assert service.run_sync(MINE_QUERY).cached  # disk hit
        service.append_transactions(APPEND_ROWS)
        assert not service.run_sync(MINE_QUERY, timeout=60).cached  # miss

        stats = service.cache.stats()
        assert {
            key: stats[key]
            for key in ("hits", "misses", "puts", "disk_hits", "delta_refreshes")
        } == {"hits": 2, "misses": 3, "puts": 2, "disk_hits": 1, "delta_refreshes": 2}
        events = {
            event: _series(
                service, "repro_cache_events_total", f'{{event="{event}"}}'
            )
            for event in ("hit", "miss", "put", "disk_hit")
        }
        assert events == {"hit": 2.0, "miss": 3.0, "put": 2.0, "disk_hit": 1.0}
        disk = {
            event: _series(
                service, "repro_cache_disk_events_total", f'{{event="{event}"}}'
            )
            for event in ("hit", "miss")
        }
        assert disk == {"hit": 1.0, "miss": 2.0}

    def test_pre_append_entry_is_never_served(self, service):
        cold = service.run_sync(MINE_QUERY, timeout=60)
        service.append_transactions(APPEND_ROWS)
        after = service.run_sync(MINE_QUERY, timeout=60)
        assert not after.cached
        assert after.result["n_transactions"] == cold.result["n_transactions"] + 1

    def test_partial_budget_run_is_admitted_every_time(self, service):
        budget = RunBudget(max_candidates=1)
        first = service.run_sync(MINE_QUERY, budget=budget, timeout=60)
        assert first.result["partial"] is True
        transitions = _transitions(service)
        second = service.run_sync(MINE_QUERY, budget=budget, timeout=60)
        assert not second.cached
        assert _transitions(service) > transitions

    def test_slow_hit_reaches_the_flight_recorder(self, tmp_path, dataset):
        svc = _open(tmp_path, slow_threshold_seconds=0.0)
        try:
            svc.load_database(dataset)
            svc.run_sync(MINE_QUERY, timeout=60)
            hit = svc.run_sync(MINE_QUERY)
            captured = {e["job_id"]: e for e in svc.slow_queries()["entries"]}
            assert captured[hit.job_id]["resources"]["cache"] == "hit"
        finally:
            svc.close()

    def test_eight_threads_hit_and_journal_nothing(self, service):
        service.run_sync(MINE_QUERY, timeout=60)
        transitions = _transitions(service)
        before = service.cache.stats()
        jobs = [None] * 8 * 20

        def ask(slot):
            for index in range(slot * 20, slot * 20 + 20):
                jobs[index] = service.run_sync(MINE_QUERY, timeout=60)

        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(job.state == "done" and job.cached for job in jobs)
        assert len({job.job_id for job in jobs}) == len(jobs)
        assert all(service.job(job.job_id) is job for job in jobs)
        after = service.cache.stats()
        assert after["hits"] - before["hits"] == len(jobs)
        assert after["misses"] == before["misses"]
        assert _transitions(service) == transitions


class TestOverHttp:
    def test_hit_is_pollable_and_journals_nothing(self, served):
        service, _, client = served
        client.query(MINE_QUERY)
        transitions = _transitions(service)
        waited = _series(service, "repro_scheduler_wait_seconds_count")
        hit = client.query(MINE_QUERY)
        assert hit["cached"] is True
        assert set(hit) == HIT_RECORD_KEYS
        assert set(hit["resources"]) == HIT_RESOURCE_KEYS
        assert _transitions(service) == transitions
        assert _series(service, "repro_scheduler_wait_seconds_count") == waited
        assert client.job(hit["job_id"]) == hit

    def test_same_key_twice_returns_the_same_hit(self, served):
        service, _, client = served
        client.query(MINE_QUERY)
        transitions = _transitions(service)
        first = client.query(MINE_QUERY, idempotency_key="repeat-me")
        second = client.query(MINE_QUERY, idempotency_key="repeat-me")
        assert first["cached"] is True
        assert second["job_id"] == first["job_id"]
        assert _transitions(service) == transitions

    def test_admitted_key_reattaches_after_the_result_is_cached(self, served):
        _, _, client = served
        mined = client.query(MINE_QUERY, idempotency_key="mined-once")
        assert mined["cached"] is False
        assert client.query(MINE_QUERY)["cached"] is True  # now cached
        again = client.query(MINE_QUERY, idempotency_key="mined-once")
        assert again["job_id"] == mined["job_id"]
        assert again["cached"] is False

    @pytest.mark.parametrize(
        "body, traceparent",
        [
            ({"query": MINE_QUERY, "trace": True}, False),
            ({"query": MINE_QUERY}, True),
            ({"query": MINE_QUERY, "async": True}, False),
            ({"query": MINE_QUERY, "budget": {"candidates": 1}}, False),
            ({"query": "SHOW SUMMARY;"}, False),
            ({"query": "DELETE FROM transactions WHERE item = 'nothing';"}, False),
            ({"query": "MINE GIBBERISH FROM nowhere;"}, False),
        ],
        ids=["trace", "traceparent", "async", "budget", "show", "mutating", "unparseable"],
    )
    def test_everything_else_is_admitted(self, served, body, traceparent):
        service, server, client = served
        # Primed, so a request answered before admission would be a hit.
        client.query(MINE_QUERY)
        client.query(MINE_QUERY, budget={"candidates": 1})
        headers = None
        if traceparent:
            headers = {"traceparent": new_trace_context().to_traceparent()}
        admitted = _series(service, "repro_scheduler_admitted_total")
        transitions = _transitions(service)
        status, record = _post(server.url, body, headers)
        assert status in (200, 202, 422)
        assert _series(service, "repro_scheduler_admitted_total") == admitted + 1
        assert _transitions(service) > transitions
        if body.get("async"):
            client.wait(record["job_id"])
        else:
            assert record["cached"] is False

    def test_draining_service_refuses_a_primed_query(self, tmp_path, dataset):
        with _draining(tmp_path, dataset) as (service, server):
            with pytest.raises(AdmissionError) as excinfo:
                service.run_sync(MINE_QUERY)
            assert excinfo.value.retry_after >= 1.0
            status, _ = _post(server.url, {"query": MINE_QUERY})
            assert status == 503

    def test_eight_clients_hit_and_journal_nothing(self, served):
        service, server, client = served
        client.query(MINE_QUERY)
        transitions = _transitions(service)
        hits_before = _series(service, "repro_cache_events_total", '{event="hit"}')
        records = [None] * 8

        def ask(slot):
            records[slot] = ServiceClient(server.url).query(MINE_QUERY)

        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r["state"] == "done" and r["cached"] for r in records)
        hits = _series(service, "repro_cache_events_total", '{event="hit"}')
        assert hits - hits_before == 8
        assert _transitions(service) == transitions
