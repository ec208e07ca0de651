"""Integration tests for MiningService: caching, invalidation, parity."""

import threading

import pytest

from repro.db.sqlite_store import SqliteStore
from repro.runtime.budget import RunBudget
from repro.service.core import MiningService, ServiceConfig
from repro.service.serialize import payload_to_dict
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


@pytest.fixture
def service(seasonal_data):
    with MiningService(config=ServiceConfig(workers=2)) as svc:
        svc.load_database(seasonal_data.database)
        yield svc


class TestCaching:
    def test_cold_then_warm(self, service):
        cold = service.run_sync(MINE_QUERY)
        assert cold.state == "done" and cold.cached is False
        warm = service.run_sync(MINE_QUERY)
        assert warm.state == "done" and warm.cached is True
        assert warm.result == cold.result
        assert service.cache.stats()["hits"] == 1

    def test_canonicalization_collapses_variants(self, service):
        service.run_sync(MINE_QUERY)
        variant = (
            "mine periods\n  from transactions\n  at granularity MONTH\n"
            "  with support >= 0.20, confidence >= 0.60\n"
            "  having coverage >= 2;"
        )
        warm = service.run_sync(variant)
        assert warm.cached is True

    def test_different_budget_different_entry(self, service):
        service.run_sync(MINE_QUERY)
        budgeted = service.run_sync(MINE_QUERY, budget=RunBudget(max_seconds=60.0))
        # A generous budget completes the same run, but must not alias
        # the unbudgeted entry: budgets are part of the content address.
        assert budgeted.cached is False
        # Same findings either way; only the diagnostics' budget line differs.
        unbudgeted = service.run_sync(MINE_QUERY).result
        assert budgeted.result["results"] == unbudgeted["results"]
        assert budgeted.result["diagnostics"] != unbudgeted["diagnostics"]

    def test_partial_results_never_cached(self, seasonal_data):
        config = ServiceConfig(workers=1, default_budget=RunBudget(max_candidates=1))
        with MiningService(config=config) as svc:
            svc.load_database(seasonal_data.database)
            first = svc.run_sync(MINE_QUERY)
            assert first.state == "done"
            assert first.result["partial"] is True
            assert svc.cache.stats()["puts"] == 0
            second = svc.run_sync(MINE_QUERY)
            assert second.cached is False

    def test_concurrent_identical_queries_single_flight(self, service):
        results = [None, None]

        def run(slot):
            results[slot] = service.run_sync(MINE_QUERY, timeout=60.0)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        a, b = results
        assert a.state == "done" and b.state == "done"
        assert a.result == b.result
        # Single flight: exactly one run mined, the other hit the cache.
        assert a.cached != b.cached
        stats = service.cache.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1


class TestInvalidation:
    def test_mutation_invalidates_and_remines(self, service):
        cold = service.run_sync(MINE_QUERY)
        mutation = service.run_sync(
            "DELETE FROM transactions WHERE item = 'season0_a';"
        )
        assert mutation.state == "done"
        assert mutation.result["invalidated_entries"] == 1
        after = service.run_sync(MINE_QUERY)
        assert after.cached is False
        assert after.result != cold.result

    def test_non_mutating_sql_keeps_cache(self, service):
        service.run_sync(MINE_QUERY)
        probe = service.run_sync("SELECT COUNT(*) AS n FROM transactions;")
        assert probe.state == "done"
        assert "invalidated_entries" not in probe.result
        assert service.run_sync(MINE_QUERY).cached is True

    def test_load_database_invalidates(self, service, tiny_db):
        service.run_sync(MINE_QUERY)
        service.load_database(tiny_db)
        assert service.run_sync(MINE_QUERY).cached is False
        assert service.status()["store"]["transactions"] == len(tiny_db)

    def test_mid_run_mutation_is_never_cached(self, seasonal_data):
        # A mutation committing between the cache-key fingerprint read
        # and the run's completion must not leave the result cached
        # under the pre-mutation key: the mutator's invalidation hook
        # fires before the put, so a poisoned entry would never be
        # purged and every warm hit after a mutate-then-restore would
        # serve the wrong snapshot.
        from datetime import datetime

        holder = {}
        mutated = threading.Event()

        def mutate_once(offset):
            if not mutated.is_set():
                mutated.set()
                holder["svc"].store.insert_transaction(
                    datetime(2001, 1, 1), ["toctou_item"]
                )

        config = ServiceConfig(workers=1, granule_hook=mutate_once)
        with MiningService(config=config) as svc:
            holder["svc"] = svc
            svc.load_database(seasonal_data.database)
            job = svc.run_sync(MINE_QUERY)
            assert job.state == "done"
            assert mutated.is_set()
            assert svc.cache.stats()["puts"] == 0
            # The next identical query must mine fresh, not hit a
            # stale entry.
            assert svc.run_sync(MINE_QUERY).cached is False

    def test_restored_content_hits_old_entries(self, service, seasonal_data):
        cold = service.run_sync(MINE_QUERY)
        assert cold.cached is False
        # Same content reloaded → same fingerprint → same entries. The
        # reload invalidates the *pre-mutation* fingerprint, which is the
        # same fingerprint, so the entry is gone — but a fresh run then
        # recreates it and a further identical reload keeps it: content
        # addressing never serves a stale result either way.
        service.load_database(seasonal_data.database)
        warm = service.run_sync(MINE_QUERY)
        assert warm.result == cold.result


class TestParityAndRejection:
    def test_bit_identical_to_serial_library_path(self, service, seasonal_data):
        job = service.run_sync(MINE_QUERY)
        store = SqliteStore(":memory:")
        try:
            store.save_database(seasonal_data.database)
            environment = ExecutionEnvironment(store=store)
            executor = TmlExecutor(environment)
            execution = executor.execute(MINE_QUERY)
            catalog = environment.resolve("transactions").catalog
            expected = payload_to_dict(execution.payload, catalog)
        finally:
            store.close()
        assert job.result == expected

    def test_set_statements_rejected(self, service):
        job = service.run_sync("SET WORKERS 4;")
        assert job.state == "failed"
        assert "SET statements are not supported" in job.error

    def test_parse_error_fails_job(self, service):
        job = service.run_sync("MINE GIBBERISH FROM nowhere;")
        assert job.state == "failed"
        assert job.error

    def test_show_statement_not_cached(self, service):
        first = service.run_sync("SHOW SUMMARY;")
        second = service.run_sync("SHOW SUMMARY;")
        assert first.state == "done" and second.state == "done"
        assert second.cached is False


class TestStatus:
    def test_status_document_shape(self, service):
        document = service.status()
        assert document["service"] == "repro-iqms"
        assert document["uptime_seconds"] >= 0
        assert document["scheduler"]["workers"] == 2
        assert document["cache"]["max_entries"] == 256
        assert document["store"]["transactions"] > 0
        assert document["config"]["default_budget"] == "off"
        assert "mining_workers" not in document["config"]

    def test_status_counts_transactions_once_per_content(self, tmp_path, tiny_db):
        import sqlite3
        from datetime import datetime

        path = str(tmp_path / "store.db")
        with MiningService(store=path, config=ServiceConfig(workers=1)) as svc:
            svc.load_database(tiny_db)
            statements = []
            svc.store.connection.set_trace_callback(statements.append)

            def counts():
                return sum("COUNT(DISTINCT" in sql for sql in statements)

            assert svc.status()["store"]["transactions"] == len(tiny_db)
            assert svc.status()["store"]["transactions"] == len(tiny_db)
            assert counts() == 1
            svc.append_transactions([(datetime(2026, 3, 9), ["bread"])])
            assert svc.status()["store"]["transactions"] == len(tiny_db) + 1
            foreign = sqlite3.connect(path)
            try:
                foreign.execute(
                    "INSERT INTO transactions (tid, ts, item) VALUES (999, ?, 'milk')",
                    (datetime(2026, 3, 10).isoformat(),),
                )
                foreign.commit()
            finally:
                foreign.close()
            assert svc.status()["store"]["transactions"] == len(tiny_db) + 2
            assert counts() == 3


class TestPlanOnJobRecord:
    def test_mine_job_records_its_plan(self, service):
        job = service.run_sync(MINE_QUERY)
        assert job.state == "done"
        assert job.plan is not None
        assert job.plan["backend"] in ("dict", "hashtree", "vertical", "packed")
        assert "est_seconds" in job.plan
        assert job.to_dict()["plan"] == job.plan

    def test_cache_hit_carries_no_plan(self, service):
        service.run_sync(MINE_QUERY)
        warm = service.run_sync(MINE_QUERY)
        assert warm.cached is True
        assert warm.plan is None
        assert "plan" not in warm.to_dict()

    def test_plan_never_leaks_into_cached_payload(self, service):
        cold = service.run_sync(MINE_QUERY)
        warm = service.run_sync(MINE_QUERY)
        assert "plan" not in cold.result
        assert warm.result == cold.result

    def test_planner_decisions_visible_in_metrics(self, service):
        service.run_sync(MINE_QUERY)
        snapshot = service.metrics.snapshot()
        decisions = snapshot.get("repro_planner_decisions_total")
        assert decisions, f"planner decision counter missing: {sorted(snapshot)}"
        assert sum(decisions.values()) >= 1

    def test_sql_job_has_no_plan(self, service):
        job = service.run_sync("SELECT COUNT(*) FROM transactions;")
        assert job.state == "done"
        assert job.plan is None
