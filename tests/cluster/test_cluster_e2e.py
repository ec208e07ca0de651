"""Cluster chaos acceptance suite (ISSUE 9): real worker processes,
real kills, the hardened client pointed at the router.

Three promises under fire:

* a result cached before a kill is served **warm** by a survivor via
  the shared disk tier;
* a worker killed mid-request fails over — the retry lands on a
  healthy worker, idempotency keys hold end-to-end, and no job runs
  twice;
* no accepted job is ever lost: the victim's journal replays on
  restart and every admitted job reaches a terminal state.

Run with ``pytest -m chaos`` (also part of the default suite).
"""

import os
import signal
import threading
import time

import pytest

from repro.cluster.hashring import pick_worker
from repro.cluster.router import _canonical_query, start_router
from repro.cluster.supervisor import FleetSupervisor, WorkerConfig
from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.durability import JobJournal

pytestmark = pytest.mark.chaos

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


def _mine_variant(index: int) -> str:
    return (
        "MINE PERIODS FROM transactions AT GRANULARITY month "
        f"WITH SUPPORT >= {0.1 + index * 0.001:.3f}, CONFIDENCE >= 0.6;"
    )


def _slow_variant(index: int) -> str:
    """Day granularity: several seconds of real mining on the test store."""
    return (
        "MINE PERIODS FROM transactions AT GRANULARITY day "
        f"WITH SUPPORT >= {0.2 + index * 0.001:.3f}, CONFIDENCE >= 0.6;"
    )


def _query_routed_to(router, worker_id, start_index=0, variant=_mine_variant):
    """A cache-busting MINE variant whose rendezvous pick is ``worker_id``."""
    fingerprint = router.fingerprint()
    ids = [worker.worker_id for worker in router.fleet.all_workers()]
    for index in range(start_index, start_index + 200):
        query = variant(index)
        key = f"{fingerprint}\x00{_canonical_query(query)}"
        if pick_worker(key, ids) == worker_id:
            return query, index
    raise AssertionError(f"no variant routed to {worker_id}")


def _wait_terminal(client, job_id, timeout=90.0):
    """Poll through restart windows: 503s just mean 'owner rebooting'."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            record = client.job(job_id)
        except ServiceError:  # 503 mid-restart, transient 404, transport
            time.sleep(0.2)
            continue
        if record["state"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} not terminal within {timeout:g}s")


@pytest.fixture
def cluster(cluster_db, tmp_path, request):
    """(supervisor, router, client) over 2 real worker processes."""
    restart = getattr(request, "param", True)
    config = WorkerConfig(
        db_path=cluster_db,
        run_dir=str(tmp_path / "run"),
        threads=1,
        drain_deadline=5.0,
    )
    registry = MetricsRegistry()
    supervisor = FleetSupervisor(
        config,
        n_workers=2,
        health_interval=0.2,
        restart=restart,
        metrics=registry,
    )
    supervisor.start()
    router, _ = start_router(supervisor, metrics=registry)
    try:
        yield supervisor, router, ServiceClient(router.url, timeout=120.0)
    finally:
        router.shutdown()
        router.server_close()
        supervisor.drain()


@pytest.mark.parametrize("cluster", [False], indirect=True)
class TestWarmSharedCacheAfterKill:
    def test_survivor_serves_killed_workers_result_from_shared_tier(
        self, cluster
    ):
        supervisor, router, client = cluster
        first = client.query(MINE_QUERY, timeout=90.0)
        assert first["state"] == "done" and first["cached"] is False
        owner_id = router.job_owner(first["job_id"])
        assert owner_id is not None
        victim = supervisor.worker(owner_id)
        survivor_id = next(
            w.worker_id
            for w in supervisor.all_workers()
            if w.worker_id != owner_id
        )
        os.kill(victim.pid, signal.SIGKILL)
        supervisor.note_failure(owner_id)
        # Same query, fresh submission: the survivor must answer it
        # WARM — the result was spilled to the fleet-shared disk tier
        # before the kill.
        second = client.query(MINE_QUERY, timeout=90.0)
        assert second["state"] == "done"
        assert second["cached"] is True, (
            "survivor must hit the shared disk cache tier"
        )
        assert second["result"] == first["result"]
        assert router.job_owner(second["job_id"]) == survivor_id


@pytest.mark.parametrize("cluster", [False], indirect=True)
class TestClientFailoverMidRequest:
    def test_kill_mid_request_fails_over_without_duplicate_execution(
        self, cluster
    ):
        """The ISSUE 9 satellite: a worker killed mid-request → the
        keyed retry lands on the healthy worker through the router, the
        idempotency key holds end-to-end, and the job runs exactly once."""
        supervisor, router, client = cluster
        ids = [w.worker_id for w in supervisor.all_workers()]
        victim_id = ids[0]
        survivor_id = ids[1]
        victim = supervisor.worker(victim_id)

        # Clog the victim's single scheduler thread with a slow mine so
        # the probe query is provably in-flight when the kill lands.
        clog, _ = _query_routed_to(router, victim_id, variant=_slow_variant)
        client.query_async(clog)
        probe, _ = _query_routed_to(router, victim_id)
        key = "failover-e2e-key"
        outcome = {}

        def send_probe():
            outcome["record"] = client.query(
                probe, timeout=120.0, idempotency_key=key
            )

        thread = threading.Thread(target=send_probe)
        thread.start()
        time.sleep(0.4)  # the probe is now queued/running on the victim
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "the failover request must complete"

        record = outcome["record"]
        assert record["state"] == "done"
        served_by = router.job_owner(record["job_id"])
        assert served_by == survivor_id, "retry must land on the survivor"

        # Idempotency end-to-end: resubmitting the same key through the
        # router re-attaches to the SAME job on the survivor.
        again = client.query(probe, timeout=90.0, idempotency_key=key)
        assert again["job_id"] == record["job_id"]
        assert again["result"] == record["result"]

        # No duplicate execution: the survivor journaled exactly one
        # admission for that job id (the victim is dead and stays dead).
        journal_path = supervisor.config.journal_path(survivor_id)
        with JobJournal(journal_path, metrics=MetricsRegistry()) as journal:
            records = [
                r for r in journal.all_records() if r.job_id == record["job_id"]
            ]
        assert len(records) == 1
        assert records[0].state == "done"


class TestNoLostJobs:
    def test_journal_replay_finishes_the_victims_jobs(self, cluster):
        """kill -9 with queued jobs → the supervisor restarts the
        worker, its private journal replays, and every accepted job
        reaches a terminal state under its original id."""
        supervisor, router, client = cluster
        submitted = []
        # One slow mine per worker first: each fleet member is mid-job
        # (or has a queue) when the kill lands, so the replay path is
        # genuinely exercised rather than raced.
        for worker in supervisor.all_workers():
            clog, _ = _query_routed_to(
                router, worker.worker_id, variant=_slow_variant
            )
            submitted.append(client.query_async(clog)["job_id"])
        for index in range(8):
            job = client.query_async(_mine_variant(index))
            submitted.append(job["job_id"])
        owners = {job_id: router.job_owner(job_id) for job_id in submitted}
        assert all(owners.values()), "every admission is attributed"
        victim_id = owners[submitted[0]]
        victim = supervisor.worker(victim_id)
        first_pid = victim.pid
        os.kill(first_pid, signal.SIGKILL)

        # Every accepted job still lands — polls during the restart
        # window see 503 + Retry-After, never a lost job.
        for job_id in submitted:
            record = _wait_terminal(client, job_id)
            assert record["state"] == "done"
            assert record["result"]["n_results"] >= 0

        # The victim really did die and come back.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and victim.restarts < 1:
            time.sleep(0.1)
        assert victim.restarts >= 1
        assert victim.pid != first_pid
