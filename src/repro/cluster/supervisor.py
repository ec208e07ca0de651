"""The fleet supervisor: N ``repro-serve`` worker processes, kept alive.

One :class:`FleetSupervisor` owns N OS processes, each a full
single-process mining service (PR 4–8: scheduler, result cache, journal,
incremental environments) bound to an **ephemeral** port.  The pieces
that make the fleet coherent:

* **Shared store, private journals.**  Every worker opens the same
  SQLite store file (WAL readers scale across processes); each worker
  keeps its *own* job journal (``<db>.<worker-id>.journal``) so a
  restarted worker replays exactly the jobs it — and only it — had
  accepted.  The worker id is stable across restarts, which is what
  makes "kill -9 mid-job, supervisor restarts it, journal replay
  finishes the job" work.
* **Shared disk cache tier.**  All workers point at one
  ``DiskCacheTier`` file (``<db>.cluster.cache``); the tier is
  multi-process-safe (SQLite WAL, ``busy_timeout``, short
  transactions), so a result mined on worker A is a warm disk hit on
  worker B after failover.
* **Port discovery via port files.**  Workers bind ``--port 0`` and
  write the resolved port to ``--port-file`` atomically; the supervisor
  polls the file.  No fixed ports anywhere — cluster tests and CI can
  never collide.
* **Health checks** on ``GET /v1/status`` at a fixed interval.  The
  response's ``worker`` identity block (pid, port, git SHA, started-at)
  and store fingerprint are cached on the handle — the router routes on
  the fingerprint and the load-gen report attributes latency by id.
* **Restart-on-death with backoff.**  A dead process is restarted after
  an exponential backoff (reset once the worker has been healthy for a
  while); a crash-looping worker therefore cannot busy-spin the
  supervisor.
* **Graceful fleet drain.**  ``SIGTERM`` to every worker starts each
  one's own PR 6 drain (running jobs land or are interrupted with sound
  journaled partials); stragglers past the deadline are killed.

The supervisor deliberately spawns *processes*, not threads: the whole
point of the cluster tier is to multiply the per-process wins of
PRs 2–8 across cores instead of queueing behind one GIL.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry

logger = get_logger(__name__)

__all__ = ["WorkerConfig", "WorkerHandle", "FleetSupervisor"]

#: Seconds a freshly spawned worker gets to write its port file and
#: answer its first health check before the supervisor gives up on it.
DEFAULT_START_TIMEOUT = 30.0

#: Restart backoff schedule: base doubling up to the cap.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 10.0

#: A worker healthy this long gets its backoff reset to the base.
BACKOFF_RESET_AFTER = 30.0


@dataclass
class WorkerConfig:
    """Everything needed to spawn one worker process.

    Args:
        db_path: the shared SQLite store file (must be file-backed —
            ``:memory:`` cannot be shared across processes).
        run_dir: directory for port files (journals/cache sit next to
            the store by default).
        threads: scheduler worker threads per process.
        engine: counting backend (``auto`` is the ``packed`` kernel).
        shared_cache_path: the fleet-shared disk cache tier file
            (default ``<db>.cluster.cache``).
        extra_args: appended verbatim to each worker's command line.
        env: environment for workers (default: inherit, plus a
            ``PYTHONPATH`` entry for this checkout so an uninstalled
            tree works).
    """

    db_path: str
    run_dir: str
    threads: int = 2
    engine: str = "auto"
    queue_depth: int = 64
    cache_entries: int = 256
    drain_deadline: float = 10.0
    slow_threshold: float = 1.0
    log_level: str = "warning"
    shared_cache_path: Optional[str] = None
    extra_args: Sequence[str] = field(default_factory=tuple)
    env: Optional[Dict[str, str]] = None

    def resolved_cache_path(self) -> str:
        if self.shared_cache_path is not None:
            return self.shared_cache_path
        return self.db_path + ".cluster.cache"

    def journal_path(self, worker_id: str) -> str:
        return f"{self.db_path}.{worker_id}.journal"

    def port_file(self, worker_id: str) -> str:
        return str(Path(self.run_dir) / f"{worker_id}.port")

    def command(self, worker_id: str) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.service",
            "--db", self.db_path,
            "--port", "0",
            "--port-file", self.port_file(worker_id),
            "--worker-id", worker_id,
            "--workers", str(self.threads),
            "--engine", self.engine,
            "--queue-depth", str(self.queue_depth),
            "--cache-entries", str(self.cache_entries),
            "--journal", self.journal_path(worker_id),
            "--disk-cache", self.resolved_cache_path(),
            "--drain-deadline", str(self.drain_deadline),
            "--slow-threshold", str(self.slow_threshold),
            "--log-level", self.log_level,
        ]
        argv += list(self.extra_args)
        return argv

    def environment(self) -> Dict[str, str]:
        if self.env is not None:
            return dict(self.env)
        env = dict(os.environ)
        # Make this checkout importable in the child even when the
        # package is not installed (tests, CI, source runs).
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if existing:
            if src not in existing.split(os.pathsep):
                env["PYTHONPATH"] = src + os.pathsep + existing
        else:
            env["PYTHONPATH"] = src
        return env


class WorkerHandle:
    """One supervised worker: process, port, health, restart state."""

    def __init__(self, worker_id: str, config: WorkerConfig):
        self.worker_id = worker_id
        self.config = config
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.healthy = False
        self.identity: Dict[str, object] = {}
        self.fingerprint: Optional[str] = None
        self.restarts = 0
        self.consecutive_failures = 0
        self._backoff = DEFAULT_BACKOFF_BASE
        self._healthy_since: Optional[float] = None
        self._restart_not_before = 0.0
        self._lock = threading.Lock()

    # -- state the router reads -----------------------------------------

    @property
    def base_url(self) -> Optional[str]:
        port = self.port
        return f"http://127.0.0.1:{port}" if port else None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process else None

    def is_alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def note_failure(self) -> None:
        """A proxy-level transport failure: distrust this worker now.

        The router calls this the instant a proxied request dies on the
        socket, so routing stops preferring the worker *before* the next
        periodic health check confirms the death.
        """
        with self._lock:
            self.healthy = False
            self._healthy_since = None

    def to_dict(self) -> Dict[str, object]:
        """The per-worker section of the router's status document."""
        return {
            "id": self.worker_id,
            "pid": self.pid,
            "port": self.port,
            "url": self.base_url,
            "alive": self.is_alive(),
            "healthy": self.healthy,
            "restarts": self.restarts,
            "identity": dict(self.identity),
            "fingerprint": self.fingerprint,
        }

    # -- lifecycle (supervisor-owned) -----------------------------------

    def spawn(self, start_timeout: float = DEFAULT_START_TIMEOUT) -> None:
        """Start the process and wait for its port file."""
        port_file = Path(self.config.port_file(self.worker_id))
        try:
            port_file.unlink()
        except OSError:
            pass
        self.port = None
        self.healthy = False
        logger.info("spawning worker %s", self.worker_id)
        self.process = subprocess.Popen(
            self.config.command(self.worker_id),
            env=self.config.environment(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + start_timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"worker {self.worker_id} exited with "
                    f"{self.process.returncode} before binding a port"
                )
            try:
                text = port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    # Arm the backoff *now*: if this incarnation dies,
                    # the next respawn waits — a crash-looping worker
                    # can never busy-spin the monitor thread.
                    self._restart_not_before = time.monotonic() + self._backoff
                    self._backoff = min(self._backoff * 2.0, DEFAULT_BACKOFF_CAP)
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError(
            f"worker {self.worker_id} wrote no port file within {start_timeout:g}s"
        )

    def check_health(self, timeout: float = 3.0) -> bool:
        """One ``GET /v1/status`` probe; updates cached identity."""
        url = self.base_url
        if url is None or not self.is_alive():
            self.healthy = False
            return False
        try:
            with urllib.request.urlopen(url + "/v1/status", timeout=timeout) as resp:
                document = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError, http.client.HTTPException):
            # HTTPException: a worker dying mid-response (IncompleteRead)
            # is a failed probe, not a reason to kill the monitor thread.
            self.consecutive_failures += 1
            self.healthy = False
            self._healthy_since = None
            return False
        self.consecutive_failures = 0
        self.identity = document.get("worker", {}) or {}
        store = document.get("store", {}) or {}
        fingerprint = store.get("fingerprint")
        self.fingerprint = fingerprint if isinstance(fingerprint, str) else None
        now = time.monotonic()
        if not self.healthy:
            self._healthy_since = now
        elif (
            self._healthy_since is not None
            and now - self._healthy_since > BACKOFF_RESET_AFTER
        ):
            self._backoff = DEFAULT_BACKOFF_BASE
        self.healthy = True
        return True

    def schedule_restart(self) -> None:
        """Arm the backoff timer after a death."""
        self._restart_not_before = time.monotonic() + self._backoff
        self._backoff = min(self._backoff * 2.0, DEFAULT_BACKOFF_CAP)
        self.healthy = False
        self._healthy_since = None

    def restart_due(self) -> bool:
        return time.monotonic() >= self._restart_not_before

    def terminate(self, sig: int = signal.SIGTERM) -> None:
        if self.process is not None and self.process.poll() is None:
            try:
                self.process.send_signal(sig)
            except OSError:  # pragma: no cover — already reaped
                pass

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            try:
                self.process.kill()
            except OSError:  # pragma: no cover
                pass


class FleetSupervisor:
    """Spawn, watch, restart and drain a fleet of worker processes.

    The supervisor is also the router's *fleet view*: it exposes
    :meth:`healthy_workers` (ordered, stable ids) and
    :meth:`note_failure`, which is all the router needs to route and
    fail over.

    Args:
        config: how to spawn each worker.
        n_workers: fleet size.
        health_interval: seconds between health-check sweeps.
        restart: set ``False`` to disable restart-on-death (chaos tests
            that want a worker to *stay* dead).
        metrics: registry for ``repro_cluster_*`` supervisor metrics.
    """

    def __init__(
        self,
        config: WorkerConfig,
        n_workers: int,
        health_interval: float = 1.0,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        restart: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if config.db_path == ":memory:":
            raise ValueError(
                "a cluster needs a file-backed store (:memory: cannot be "
                "shared across worker processes)"
            )
        self.config = config
        self.health_interval = health_interval
        self.start_timeout = start_timeout
        self.restart = restart
        self.workers: List[WorkerHandle] = [
            WorkerHandle(f"w{index}", config) for index in range(n_workers)
        ]
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        registry = metrics if metrics is not None else default_registry()
        self._m_restarts = registry.counter(
            "repro_cluster_worker_restarts_total",
            "Worker processes restarted after death, by worker id.",
            labelnames=("worker",),
        )
        self._m_healthy = registry.gauge(
            "repro_cluster_workers_healthy",
            "Workers currently passing health checks.",
        )
        self._m_health_checks = registry.counter(
            "repro_cluster_health_checks_total",
            "Health-check probes, by outcome.",
            labelnames=("outcome",),
        )

    # -- fleet view (what the router consumes) ---------------------------

    def healthy_workers(self) -> List[WorkerHandle]:
        return [worker for worker in self.workers if worker.healthy]

    def all_workers(self) -> List[WorkerHandle]:
        return list(self.workers)

    def worker(self, worker_id: str) -> Optional[WorkerHandle]:
        for candidate in self.workers:
            if candidate.worker_id == worker_id:
                return candidate
        return None

    def note_failure(self, worker_id: str) -> None:
        handle = self.worker(worker_id)
        if handle is not None:
            handle.note_failure()
            self._m_healthy.set(len(self.healthy_workers()))

    def fingerprint(self) -> Optional[str]:
        """The fleet's current store fingerprint (any healthy worker's).

        Workers sharing one store disagree only transiently, mid-append;
        routing only needs a *consistent* key, and the router refreshes
        its copy on every append it proxies.
        """
        for worker in self.workers:
            if worker.healthy and worker.fingerprint:
                return worker.fingerprint
        return None

    # -- lifecycle -------------------------------------------------------

    def start(self, wait_healthy: bool = True) -> None:
        """Spawn the fleet (and the monitor thread)."""
        Path(self.config.run_dir).mkdir(parents=True, exist_ok=True)
        for worker in self.workers:
            worker.spawn(self.start_timeout)
        if wait_healthy:
            self.wait_healthy()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def wait_healthy(self, timeout: float = DEFAULT_START_TIMEOUT) -> None:
        """Block until every worker answers a health check."""
        deadline = time.monotonic() + timeout
        pending = list(self.workers)
        while pending:
            pending = [w for w in pending if not w.check_health(timeout=1.0)]
            if not pending:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "workers never became healthy: "
                    + ", ".join(w.worker_id for w in pending)
                )
            time.sleep(0.05)
        self._m_healthy.set(len(self.healthy_workers()))

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            self.sweep()

    def sweep(self) -> None:
        """One monitor pass: probe the living, restart the dead."""
        for worker in self.workers:
            if self._stop.is_set():
                return
            if not worker.is_alive():
                self._m_health_checks.inc(outcome="dead")
                worker.healthy = False
                if self.restart and worker.restart_due():
                    try:
                        worker.spawn(self.start_timeout)
                        worker.restarts += 1
                        self._m_restarts.inc(worker=worker.worker_id)
                        logger.warning(
                            "worker %s died; restarted as pid %s",
                            worker.worker_id,
                            worker.pid,
                        )
                    except RuntimeError as error:
                        logger.error(
                            "worker %s restart failed: %s", worker.worker_id, error
                        )
                        worker.schedule_restart()
                continue
            ok = worker.check_health()
            self._m_health_checks.inc(outcome="ok" if ok else "failed")
        self._m_healthy.set(len(self.healthy_workers()))

    def drain(self, deadline_seconds: Optional[float] = None) -> Dict[str, int]:
        """Gracefully stop the fleet; returns exit-outcome counts.

        ``SIGTERM`` starts each worker's own drain (PR 6 semantics:
        admission stops, running jobs land or are interrupted with
        journaled partials).  Workers still alive past the deadline are
        killed — their journals replay on the next boot, so even the
        hard path loses nothing.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.health_interval + 2.0)
        deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.drain_deadline + 5.0
        )
        for worker in self.workers:
            worker.terminate(signal.SIGTERM)
        drained = killed = 0
        end = time.monotonic() + deadline
        for worker in self.workers:
            if worker.process is None:
                continue
            remaining = max(0.1, end - time.monotonic())
            try:
                worker.process.wait(timeout=remaining)
                drained += 1
            except subprocess.TimeoutExpired:
                worker.kill()
                try:
                    worker.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
                killed += 1
            worker.healthy = False
        self._m_healthy.set(0)
        return {"drained": drained, "killed": killed}

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()
