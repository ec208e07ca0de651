"""Streaming-append tests: service API, WAL journal, cache delta refresh,
HTTP endpoint, and the client helper.

The crash/race variants live in ``test_durability_chaos.py``; this file
covers the sunny-day contract: an append is applied exactly once per
idempotency key, journaled intent-then-applied, retires exactly the
superseded fingerprint's cache entries as *delta refreshes*, and a mine
after the fold is byte-identical to a cold service that loaded the same
final content from scratch.
"""

import sys
import threading
from datetime import datetime, timedelta

import pytest

from repro.db.sqlite_store import SqliteStore
from repro.errors import DatabaseError, ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.core import MiningService, ServiceConfig
from repro.service.durability import JobJournal, canonical_json
from repro.service.http import start_server

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)
SQL_TXN_COUNT = "SELECT COUNT(DISTINCT tid) AS n FROM transactions;"

ROWS = [
    (datetime(2025, 4, 1, 9), ["alpha", "beta"]),
    (datetime(2025, 4, 1, 10), ["alpha"]),
]


def _service(database, **overrides):
    config = ServiceConfig(
        workers=overrides.pop("workers", 1),
        metrics=MetricsRegistry(),
        **overrides,
    )
    service = MiningService(config=config)
    service.load_database(database)
    return service


def _txn_count(service):
    job = service.run_sync(SQL_TXN_COUNT, timeout=60)
    assert job.state == "done"
    return job.result["rows"][0][0]


class TestAppendTransactions:
    def test_applied_outcome(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            before = _txn_count(service)
            fingerprint = service.store.fingerprint()
            outcome = service.append_transactions(ROWS)
            assert outcome["applied"] is True
            assert outcome["appended"] == 2
            assert len(outcome["tids"]) == 2
            assert _txn_count(service) == before + 2
            assert service.store.fingerprint() != fingerprint
        finally:
            service.close()

    def test_duplicate_key_acknowledged_without_reapplying(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            first = service.append_transactions(ROWS, idempotency_key="batch-1")
            assert first["applied"] is True
            count = _txn_count(service)
            again = service.append_transactions(ROWS, idempotency_key="batch-1")
            assert again["applied"] is False
            assert again["appended"] == 0
            assert _txn_count(service) == count
        finally:
            service.close()

    def test_empty_batch_is_a_noop(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            fingerprint = service.store.fingerprint()
            outcome = service.append_transactions([])
            assert outcome["applied"] is True and outcome["appended"] == 0
            assert service.store.fingerprint() == fingerprint
        finally:
            service.close()

    def test_rejects_non_datetime_timestamps(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            with pytest.raises(DatabaseError):
                service.append_transactions([("2025-04-01", ["alpha"])])
        finally:
            service.close()

    def test_cache_entries_retire_as_delta_refreshes(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            mined = service.run_sync(MINE_QUERY, timeout=60)
            assert mined.state == "done" and not mined.cached
            outcome = service.append_transactions(ROWS)
            assert outcome["delta_refreshed"] >= 1
            stats = service.cache.stats()
            assert stats["delta_refreshes"] >= 1
            rerun = service.run_sync(MINE_QUERY, timeout=60)
            assert not rerun.cached  # the stale entry is gone, not served
        finally:
            service.close()

    def test_mine_after_fold_matches_cold_service(self, seasonal_data):
        """Delta-folded environments serve the bytes a cold boot would."""
        warm = _service(seasonal_data.database)
        cold = _service(seasonal_data.database)
        try:
            warm.run_sync(MINE_QUERY, timeout=60)  # prime, then fold
            warm.append_transactions(ROWS, idempotency_key="fold")
            folded = warm.run_sync(MINE_QUERY, timeout=60)
            cold.append_transactions(ROWS, idempotency_key="fold")
            control = cold.run_sync(MINE_QUERY, timeout=60)
            assert canonical_json(folded.result) == canonical_json(
                control.result
            )
        finally:
            warm.close()
            cold.close()

    def test_status_reports_incremental_mode(self, seasonal_data, monkeypatch):
        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        service = _service(seasonal_data.database, incremental="auto")
        plain = _service(seasonal_data.database)
        try:
            assert service.status()["config"]["incremental"] == "auto"
            assert plain.status()["config"]["incremental"] == "off"
        finally:
            service.close()
            plain.close()


#: A second batch, distinct from ROWS, for the overtaking append.
OVERTAKER_ROWS = [
    (datetime(2025, 4, 3, 9) + timedelta(hours=i), ["alpha", "gamma"])
    for i in range(5)
]


class TestConcurrentAppendChain:
    def test_overtaken_append_keeps_the_delta_chain_whole(
        self, seasonal_data, monkeypatch
    ):
        """Regression: one append overtaken by another between its
        fingerprint reads recorded ``F0 -> F2`` with only its own rows,
        overwriting the overtaker's ``F0 -> F1``; an environment still
        at F0 then folded half the new data and cached it under F2."""
        warm = _service(seasonal_data.database)
        cold = _service(seasonal_data.database)
        try:
            warm.run_sync(MINE_QUERY, timeout=60)  # an environment at F0
            start = warm.store.fingerprint()
            append_batch = warm.store.append_batch
            overtaker = {}

            def overtaking_append(batch, append_id=None):
                # Runs a whole other append between the caller's entry
                # into the append protocol and its own store commit.
                if not overtaker:
                    overtaker["pending"] = True
                    overtaker["outcome"] = warm.append_transactions(
                        OVERTAKER_ROWS, idempotency_key="overtaker"
                    )
                return append_batch(batch, append_id=append_id)

            monkeypatch.setattr(warm.store, "append_batch", overtaking_append)
            outcome = warm.append_transactions(ROWS, idempotency_key="overtaken")
            assert overtaker["outcome"]["applied"] and outcome["applied"]
            folded = warm.run_sync(MINE_QUERY, timeout=60)

            cold.append_transactions(OVERTAKER_ROWS, idempotency_key="overtaker")
            cold.append_transactions(ROWS, idempotency_key="overtaken")
            control = cold.run_sync(MINE_QUERY, timeout=60)
            assert warm.store.fingerprint() == cold.store.fingerprint()
            assert canonical_json(folded.result) == canonical_json(control.result)
            # The F0 environment reached the answer by folding both batches.
            chain = warm._append_chain(start, warm.store.fingerprint())
            assert chain is not None and len(chain) == 2
        finally:
            warm.close()
            cold.close()

    def test_concurrent_appends_chain_every_batch(self, seasonal_data):
        """Appends from more threads than cores, with the interpreter
        switching threads as often as it can: the chain from the start
        fingerprint to the final one holds every batch exactly once."""
        service = _service(seasonal_data.database)
        start = service.store.fingerprint()
        interval = sys.getswitchinterval()
        errors = []

        def appender(thread):
            try:
                for number in range(5):
                    stamp = datetime(2025, 5, 1) + timedelta(hours=10 * thread + number)
                    service.append_transactions([(stamp, ["alpha", f"t{thread}"])])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=appender, args=(n,)) for n in range(6)]
        try:
            sys.setswitchinterval(1e-6)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not errors and not any(thread.is_alive() for thread in threads)
            chain = service._append_chain(start, service.store.fingerprint())
            assert chain is not None
            assert sorted(items[1] for batch in chain for _, items, _ in batch) == sorted(
                f"t{thread}" for thread in range(6) for _ in range(5)
            )
        finally:
            service.close()


class TestAppendJournal:
    def test_intent_then_applied(self, seasonal_data, tmp_path):
        journal_path = str(tmp_path / "jobs.journal")
        service = _service(seasonal_data.database, journal_path=journal_path)
        try:
            service.append_transactions(ROWS, idempotency_key="journaled")
        finally:
            service.close()
        with JobJournal(journal_path, metrics=MetricsRegistry()) as journal:
            assert journal.append_states() == {"applied": 1}
            assert journal.pending_appends() == []
            assert journal.stats()["appends"] == {"applied": 1}

    def test_metrics_count_outcomes(self, seasonal_data):
        service = _service(seasonal_data.database)
        try:
            service.append_transactions(ROWS, idempotency_key="m-1")
            service.append_transactions(ROWS, idempotency_key="m-1")
            exposition = service.metrics.render_prometheus()
            assert (
                'repro_service_appends_total{outcome="applied"} 1' in exposition
            )
            assert (
                'repro_service_appends_total{outcome="duplicate"} 1'
                in exposition
            )
        finally:
            service.close()


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


class TestHttpAppend:
    def test_append_round_trip(self, served):
        service, client = served
        before = _txn_count(service)
        outcome = client.append_transactions(ROWS)
        assert outcome["applied"] is True and outcome["appended"] == 2
        assert _txn_count(service) == before + 2

    def test_dict_entries_and_idempotency(self, served):
        _, client = served
        entries = [{"ts": "2025-05-02T08:00:00", "items": ["gamma"]}]
        first = client.append_transactions(entries, idempotency_key="http-1")
        again = client.append_transactions(entries, idempotency_key="http-1")
        assert first["applied"] is True
        assert again["applied"] is False and again["appended"] == 0

    @pytest.mark.parametrize(
        "payload",
        (
            {"transactions": "not-a-list"},
            {"transactions": [{"items": ["a"]}]},  # missing ts
            {"transactions": [{"ts": "not-a-date", "items": ["a"]}]},
            {"transactions": [{"ts": "2025-05-02T08:00:00", "items": []}]},
            {"transactions": [], "idempotency_key": ""},
        ),
    )
    def test_malformed_bodies_are_400(self, served, payload):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/transactions", payload)
        assert "HTTP 400" in str(excinfo.value)

    def test_appended_rows_visible_to_mining(self, served):
        """The acceptance path: stream, then mine sees the new rows."""
        service, client = served
        client.append_transactions(
            [(datetime(2025, 4, 2, 9), ["alpha", "beta"])]
        )
        record = client.query(SQL_TXN_COUNT)
        assert record["state"] == "done"
        assert record["result"]["rows"][0][0] == _txn_count(service)
