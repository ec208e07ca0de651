"""Starting, measuring and stopping the system under test.

Every SUT subprocess gets a fresh directory under ``bench/out/tmp`` (the
benchmark writes nowhere else), ``PYTHONPATH`` pointing at this
checkout's ``src`` and no inherited ``REPRO_*`` pins.  Processes run in
their own session; the tree is found by parent pid, so a failed run can
kill all of it.
"""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TMP_ROOT = OUT_DIR / "tmp"

#: Pins that would silently change what every miner does.
FORBIDDEN_ENV = ("REPRO_WORKERS", "REPRO_PLAN", "REPRO_INCREMENTAL")

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not run (environment, SUT start, hygiene)."""


def check_environment() -> None:
    """Fail fast when the run would not measure the default configuration."""
    pinned = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if pinned:
        raise BenchError(
            f"unset {', '.join(pinned)}: the benchmark measures unpinned defaults"
        )


def require_src() -> None:
    """The benchmark measures this checkout's ``src/repro``, nothing installed."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC_DIR}")


def sut_environment(run_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    # repro.cluster makes its port-file directory with tempfile.mkdtemp.
    env["TMPDIR"] = str(run_dir)
    return env


def make_run_dir() -> Path:
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))


def remove_run_dir(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# /proc accounting (no psutil)
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name (field 2) may contain spaces; split after it.
    return text[text.rindex(")") + 2 :].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants, by parent pid.

    (``repro.cluster`` puts each worker in a session of its own, so
    neither the session nor the process group spans the tree.)
    """
    children: Dict[int, List[int]] = {}
    alive = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state (field 3), fields[1] the parent pid.
        if fields is not None and fields[0] != "Z":
            alive.add(int(entry))
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root] if root in alive else []
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# subprocess lifecycle
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro.service`` or ``repro.cluster`` process tree."""

    def __init__(self, module: str, args: Sequence[str], run_dir: Path):
        self.run_dir = run_dir
        self.port_file = run_dir / f"{module.rsplit('.', 1)[-1]}.port"
        self.argv = [
            sys.executable, "-m", module, *args,
            "--port", "0", "--port-file", str(self.port_file),
        ]
        self.log_path = run_dir / "sut.stderr"
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> None:
        """Spawn and wait until the port file appears."""
        self.port_file.unlink(missing_ok=True)
        with self.log_path.open("ab") as log:
            self.process = subprocess.Popen(
                self.argv,
                env=sut_environment(self.run_dir),
                cwd=str(self.run_dir),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port_file.exists():
            if self.process.poll() is not None:
                raise BenchError(
                    f"{' '.join(self.argv)} exited {self.process.returncode}:\n"
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"{self.argv[2]} wrote no port file in time")
            time.sleep(0.005)
        self.url = f"http://127.0.0.1:{int(self.port_file.read_text())}"

    def pids(self) -> List[int]:
        return tree_pids(self.process.pid) if self.process else []

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left."""
        if self.process is None:
            return
        tree = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        self._kill(tree)

    def kill(self) -> None:
        """SIGKILL the whole tree at once (the crash in the durability check)."""
        if self.process is not None:
            self._kill(self.pids())

    def _kill(self, tree: Sequence[int]) -> None:
        # ``tree`` was listed while the root lived: once it dies its
        # children are re-parented and can no longer be found from it.
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in tree if pid != self.process.pid):
            if time.monotonic() > deadline:
                raise BenchError(f"processes of {self.argv[2]} survived SIGKILL")
            time.sleep(0.01)
        self.process = None


# ----------------------------------------------------------------------
# machine block
# ----------------------------------------------------------------------


def _filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
            best, kind = parts[1], parts[2]
    return kind


def _git_sha() -> str:
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def machine_block() -> Dict[str, object]:
    """What a result must match before two result files are comparable."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "filesystem": _filesystem_type(BENCH_DIR),
        "git_sha": _git_sha(),
    }
