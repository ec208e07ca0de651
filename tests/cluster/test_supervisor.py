"""Supervisor suite: real ``python -m repro.service`` subprocesses.

Slower than the in-process router tests, but kill -9, port-file
discovery and fleet drain only mean something against real OS
processes."""

import json
import os
import signal
import socket
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster.supervisor import FleetSupervisor, WorkerConfig
from repro.obs.metrics import MetricsRegistry


def _status(base_url, timeout=5.0):
    with urllib.request.urlopen(
        base_url + "/v1/status", timeout=timeout
    ) as response:
        return json.loads(response.read().decode("utf-8"))


@pytest.fixture
def fleet_config(cluster_db, tmp_path):
    return WorkerConfig(
        db_path=cluster_db,
        run_dir=str(tmp_path / "run"),
        threads=1,
        drain_deadline=5.0,
    )


class TestFleetLifecycle:
    def test_fleet_boots_on_distinct_ephemeral_ports(self, fleet_config):
        supervisor = FleetSupervisor(
            fleet_config, n_workers=2, metrics=MetricsRegistry()
        )
        try:
            supervisor.start()
            workers = supervisor.all_workers()
            assert [w.worker_id for w in workers] == ["w0", "w1"]
            ports = {w.port for w in workers}
            assert len(ports) == 2 and None not in ports
            pids = {w.pid for w in workers}
            assert len(pids) == 2
            for worker in workers:
                assert worker.healthy
                port_file = Path(fleet_config.port_file(worker.worker_id))
                assert int(port_file.read_text().strip()) == worker.port
                # Identity block (ISSUE 9 satellite): pid/port/git/start.
                identity = worker.identity
                assert identity["pid"] == worker.pid
                assert identity["port"] == worker.port
                assert identity["id"] == worker.worker_id
                assert "git_sha" in identity and "started_at" in identity
                assert worker.fingerprint
            # Both workers see the same shared store.
            fingerprints = {w.fingerprint for w in workers}
            assert len(fingerprints) == 1
        finally:
            outcome = supervisor.drain()
        assert outcome == {"drained": 2, "killed": 0}
        for worker in supervisor.all_workers():
            assert worker.process.poll() is not None

    def test_killed_worker_restarts_with_same_id_new_pid(self, fleet_config):
        supervisor = FleetSupervisor(
            fleet_config,
            n_workers=1,
            health_interval=0.2,
            metrics=MetricsRegistry(),
        )
        try:
            supervisor.start()
            worker = supervisor.worker("w0")
            first_pid = worker.pid
            os.kill(first_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    worker.restarts >= 1
                    and worker.healthy
                    and worker.pid != first_pid
                ):
                    break
                time.sleep(0.1)
            assert worker.restarts >= 1, "the monitor must respawn the worker"
            assert worker.pid != first_pid
            assert worker.worker_id == "w0", "identity is stable across restarts"
            document = _status(worker.base_url)
            assert document["worker"]["pid"] == worker.pid
            # The restarted worker reuses ITS journal path (replay contract).
            assert Path(fleet_config.journal_path("w0")).exists()
        finally:
            supervisor.drain()

    def test_restart_can_be_disabled_for_chaos(self, fleet_config):
        supervisor = FleetSupervisor(
            fleet_config,
            n_workers=1,
            health_interval=0.2,
            restart=False,
            metrics=MetricsRegistry(),
        )
        try:
            supervisor.start()
            worker = supervisor.worker("w0")
            os.kill(worker.pid, signal.SIGKILL)
            time.sleep(1.0)
            supervisor.sweep()
            assert not worker.healthy
            assert worker.restarts == 0
            assert supervisor.healthy_workers() == []
        finally:
            supervisor.drain()

    def test_memory_store_is_rejected(self, tmp_path):
        config = WorkerConfig(db_path=":memory:", run_dir=str(tmp_path))
        with pytest.raises(ValueError, match="file-backed"):
            FleetSupervisor(config, n_workers=1, metrics=MetricsRegistry())


class _TruncatingStatusServer:
    """Answers every request with a ``/v1/status`` body cut short.

    The headers promise more bytes than arrive before the socket closes
    — what a worker killed mid-response leaves the prober with.
    """

    def __init__(self):
        self.socket = socket.create_server(("127.0.0.1", 0))
        self.port = self.socket.getsockname()[1]
        self.served = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self.socket.accept()
            except OSError:
                return
            with connection:
                connection.recv(65536)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 4096\r\n\r\n" + b'{"worker": {"id": "w0"'
                )
            self.served += 1

    def close(self):
        self.socket.close()
        self._thread.join(timeout=5.0)


class _LiveProcess:
    """A stand-in process that never exits (``poll()`` is ``None``)."""

    pid = 0

    def poll(self):
        return None


class TestHealthProbe:
    """Probe-level tests against an in-process fake worker."""

    def test_truncated_status_fails_the_probe_not_the_monitor(self, tmp_path):
        server = _TruncatingStatusServer()
        supervisor = FleetSupervisor(
            WorkerConfig(db_path=str(tmp_path / "store.db"), run_dir=str(tmp_path)),
            n_workers=1,
            health_interval=0.02,
            restart=False,
            metrics=MetricsRegistry(),
        )
        worker = supervisor.worker("w0")
        worker.process = _LiveProcess()
        worker.port = server.port
        worker.healthy = True
        monitor = threading.Thread(target=supervisor._monitor_loop, daemon=True)
        try:
            assert worker.check_health(timeout=5.0) is False
            assert not worker.healthy
            monitor.start()
            deadline = time.monotonic() + 10.0
            while server.served < 4 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.served >= 4, "the monitor must keep probing"
            assert monitor.is_alive()
            assert worker.consecutive_failures >= 4
        finally:
            supervisor._stop.set()
            if monitor.is_alive():
                monitor.join(timeout=5.0)
            server.close()


class TestEphemeralPortSatellite:
    def test_repro_serve_port_zero_with_port_file(self, cluster_db, tmp_path):
        """``repro-serve --port 0 --port-file`` binds an OS-assigned
        port, publishes it atomically, and reports the resolved port in
        the status identity block."""
        import subprocess
        import sys

        port_file = tmp_path / "serve.port"
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--db",
                cluster_db,
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--worker-id",
                "solo",
                "--log-level",
                "warning",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            port = None
            while time.monotonic() < deadline:
                try:
                    text = port_file.read_text().strip()
                    if text:
                        port = int(text)
                        break
                except OSError:
                    pass
                time.sleep(0.05)
            assert port is not None, "the port file must appear"
            assert port > 0, "--port 0 must resolve to a real port"
            document = _status(f"http://127.0.0.1:{port}", timeout=10.0)
            identity = document["worker"]
            assert identity["id"] == "solo"
            assert identity["port"] == port
            assert identity["pid"] == process.pid
            assert identity["started_at"].startswith("20")  # ISO timestamp
        finally:
            process.terminate()
            process.wait(timeout=15)
