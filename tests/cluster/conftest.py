"""Fixtures for the cluster-tier suites.

Two fleet flavours:

* **In-process fleet** (fast, used by the router tests): each "worker"
  is a real :class:`MiningService` + :class:`MiningHTTPServer` on its
  own thread and port inside this process, sharing one store file and
  one disk cache tier — exactly the process topology of a real fleet,
  minus the fork.  A :class:`StaticFleet` stands in for the supervisor.
* **Subprocess fleet** (the supervisor and chaos suites): the real
  :class:`FleetSupervisor` spawning real ``python -m repro.service``
  processes — slower, but the only honest way to test kill -9,
  journal-replay restart and fleet drain.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import List, Optional

import pytest

from repro.datagen import seasonal_dataset
from repro.db.sqlite_store import SqliteStore
from repro.obs.metrics import MetricsRegistry
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import MiningHTTPServer


class InProcWorker:
    """One in-process worker: service + HTTP server on a thread."""

    def __init__(
        self,
        worker_id: str,
        db_path: str,
        shared_cache: Optional[str] = None,
        threads: int = 1,
    ):
        self.worker_id = worker_id
        self.healthy = True
        self.service = MiningService(
            store=db_path,
            config=ServiceConfig(
                workers=threads,
                metrics=MetricsRegistry(),
                disk_cache_path=shared_cache,
                worker_id=worker_id,
            ),
        )
        self.server = MiningHTTPServer(self.service, port=0)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        self.base_url = self.server.url

    def to_dict(self):
        return {
            "id": self.worker_id,
            "url": self.base_url,
            "healthy": self.healthy,
        }

    def stop_http(self) -> None:
        """Simulate process death for the router: the port goes away."""
        self.server.shutdown()
        self.server.server_close()

    def close(self) -> None:
        try:
            self.stop_http()
        except OSError:
            pass
        self.service.close()


class StaticFleet:
    """The supervisor-shaped fleet view over in-process workers."""

    def __init__(self, workers: List[InProcWorker]):
        self.workers = workers

    def healthy_workers(self) -> List[InProcWorker]:
        return [worker for worker in self.workers if worker.healthy]

    def all_workers(self) -> List[InProcWorker]:
        return list(self.workers)

    def note_failure(self, worker_id: str) -> None:
        for worker in self.workers:
            if worker.worker_id == worker_id:
                worker.healthy = False

    def fingerprint(self) -> Optional[str]:
        for worker in self.healthy_workers():
            return worker.service.store.fingerprint()
        return None

    def worker(self, worker_id: str) -> Optional[InProcWorker]:
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        return None


@pytest.fixture(scope="module")
def cluster_db(tmp_path_factory) -> str:
    """A small file-backed seasonal store shared by a module's fleet."""
    path = str(tmp_path_factory.mktemp("cluster") / "store.db")
    store = SqliteStore(path)
    store.save_database(seasonal_dataset(n_transactions=800, seed=3).database)
    store.close()
    return path
