"""The four workloads: set-up, warm-up, timed closed loop, checks.

All four are closed loops generated from this process: the library
workload has one caller, the service workloads two clients (``nproc`` is
2 on the reference box).  A timed phase consumes its seeded op sequence
until ``seconds`` have passed; an op that errors, is refused or returns
a wrong answer counts as failed.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db import SqliteStore
from repro.errors import ReproError
from repro.mining import RuleThresholds, TemporalMiner, ValidPeriodTask
from repro.runtime import RetryPolicy
from repro.service import ServiceClient, report_to_dict
from repro.temporal import Granularity
from repro.tml import parse_statement

from bench import datasets, ops, sut
from bench.datasets import Sizing
from bench.layers import CF_TASK, Scenario, periodicity_task

N_CLIENTS = 2

#: Fixed generator seeds: ``--seed`` drives the op sequences, not the
#: data, so every seed measures the same store (pinned in pins.json) and
#: run-to-run spread is the system's, not the generator's.
QUEST_SEED = 5
PERIODIC_SEED = 21
SEASONAL_SEED = 11

QUERY_TIMEOUT_S = 60.0
MAX_REPORTED_FAILURES = 5


@dataclass
class Phase:
    """What one timed phase measured."""

    query_latencies: List[float] = field(default_factory=list)
    append_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    sut_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def check(self, ok: bool, message: str, count: int = 1) -> None:
        """A correctness check: one more thing attempted, failed when not ok."""
        self.attempted += count
        if not ok:
            self.fail(message, count)

    def merge(self, other: "Phase") -> None:
        self.query_latencies += other.query_latencies
        self.append_latencies += other.append_latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:MAX_REPORTED_FAILURES]


# ----------------------------------------------------------------------
# lib_cold_mine
# ----------------------------------------------------------------------

QUEST_THRESHOLDS = RuleThresholds(0.08, 0.6)
PERIODIC_THRESHOLDS = RuleThresholds(0.10, 0.6)


def library_statement(databases: Dict[str, object], statement: Tuple[str, str, str]):
    """Run one round statement on a fresh miner; returns its report."""
    dataset, kind, granularity = statement
    unit = Granularity[granularity.upper()]
    miner = TemporalMiner(databases[dataset])
    if kind == "periodicities":
        return miner.periodicities(periodicity_task(unit))
    if kind == "with_feature":
        return miner.with_feature(CF_TASK)
    thresholds = QUEST_THRESHOLDS if dataset == "quest" else PERIODIC_THRESHOLDS
    return miner.valid_periods(ValidPeriodTask(unit, thresholds, max_rule_size=3))


class LibColdMine:
    """Library facade only: no store, no TML, no service."""

    name = "lib_cold_mine"
    command_line: List[str] = []
    acked_writes_lost = 0

    def __init__(self, seed: int, sizing: Sizing):
        self.seed = seed
        self.sizing = sizing
        self.databases: Dict[str, object] = {}
        self.reference: Dict[Tuple[str, str, str], Tuple] = {}

    def cold_start(self) -> None:
        sizing = self.sizing
        self.databases = {
            "quest": datasets.quest_days(
                sizing.quest_transactions, sizing.library_days, QUEST_SEED
            ),
            "periodic": datasets.periodic(
                sizing.periodic_transactions, sizing.library_days, PERIODIC_SEED
            ),
        }

    def warm_up(self) -> None:
        """One untimed round: pays the per-database encode memo, keeps answers."""
        for statement in ops.LIBRARY_ROUND:
            self.reference[statement] = library_statement(self.databases, statement).results

    def timed_phase(self, seconds: float) -> Phase:
        phase = Phase()
        rounds = ops.library_rounds(self.seed)
        cpu_start = time.process_time()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            order = next(rounds)
            phase.attempted += 1
            began = time.perf_counter()
            wrong = [
                statement
                for statement in order
                if library_statement(self.databases, statement).results
                != self.reference[statement]
            ]
            phase.query_latencies.append(time.perf_counter() - began)
            if wrong:
                phase.fail(f"round answer changed for {wrong}")
        phase.wall_s = time.perf_counter() - start
        phase.sut_cpu_s = time.process_time() - cpu_start
        phase.client_cpu_s = 0.0
        phase.peak_rss_mb = sut.peak_rss_mb([os.getpid()])
        return phase

    def append_probe(self) -> List[float]:
        """``TemporalMiner.apply_append`` of 16-row tail batches (incremental on)."""
        database = self.databases["periodic"]
        miner = TemporalMiner(database, incremental="on")
        miner.valid_periods(
            ValidPeriodTask(Granularity.DAY, PERIODIC_THRESHOLDS, max_rule_size=3)
        )
        last = max(transaction.timestamp for transaction in database)
        latencies = []
        batches = ops.append_batches(self.seed, self.name, last)
        for batch in ops.head(batches, self.sizing.library_append_probes):
            rows = [(datetime.fromisoformat(ts), items) for ts, items in batch["rows"]]
            began = time.perf_counter()
            miner.apply_append(rows)
            latencies.append(time.perf_counter() - began)
        return latencies

    def result_set(self) -> Dict[str, List[str]]:
        return {
            "/".join(statement): [
                record.format(self.databases[statement[0]].catalog) for record in results
            ]
            for statement, results in self.reference.items()
        }

    def dataset_stores(self) -> Dict[str, object]:
        return dict(self.databases)

    def final_checks(self, phase: Phase) -> None:
        return None

    def scenario(self) -> Scenario:
        """The quest day mine and its TML spelling, for the per-layer probes."""
        quest = self.databases["quest"]

        def day_statement(number: int) -> str:
            return (
                "MINE PERIODS FROM transactions AT GRANULARITY day WITH SUPPORT >= "
                f"{QUEST_THRESHOLDS.min_support + number * 0.0001:.4f}, "
                f"CONFIDENCE >= {QUEST_THRESHOLDS.min_confidence} HAVING SIZE <= 3;"
            )

        return Scenario(
            database=quest,
            vp_task=ValidPeriodTask(Granularity.DAY, QUEST_THRESHOLDS, max_rule_size=3),
            p_database=self.databases["periodic"],
            p_granularity=Granularity.DAY,
            statements=[day_statement(number) for number in range(5)],
            new_statement=lambda number: day_statement(10 + number),
            append_after=max(transaction.timestamp for transaction in quest),
        )

    def close(self) -> None:
        self.databases = {}


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------


def library_answer(database, text: str) -> Dict:
    """What the library facade answers for one MINE PERIODS statement."""
    statement = parse_statement(text)
    task = ValidPeriodTask(
        statement.granularity,
        RuleThresholds(statement.min_support, statement.min_confidence),
    )
    return report_to_dict(TemporalMiner(database).valid_periods(task), database.catalog)


def same_answer(served: Dict, expected: Dict) -> bool:
    """Results and sizes equal (diagnostics carry run-specific timings)."""
    keys = ("task", "n_results", "n_transactions", "n_units", "partial", "results")
    return all(served.get(key) == expected.get(key) for key in keys)


class ServiceWorkload:
    """Shared shape of the three workloads that drive a server over HTTP."""

    name = ""
    module = "repro.service"
    acked_writes_lost = 0

    def __init__(self, seed: int, sizing: Sizing):
        self.seed = seed
        self.sizing = sizing
        self.database = None
        self.run_dir: Optional[Path] = None
        self.server: Optional[sut.ServerProcess] = None
        self.primed: Dict[str, Dict] = {}
        self.command_line: List[str] = []
        self.start_s = 0.0

    # -- set-up ---------------------------------------------------------

    def server_args(self, store: Path) -> List[str]:
        return [
            "--db", str(store),
            "--journal", f"{store}.journal",
            "--disk-cache", f"{store}.cache",
            "--workers", "2",
        ]

    def warm_statements(self) -> List[str]:
        raise NotImplementedError

    def n_transactions(self) -> int:
        return self.sizing.seasonal_transactions

    @property
    def store_path(self) -> Path:
        return self.run_dir / "store.db"

    def cold_start(self) -> None:
        """Dataset, store and a listening, answering server — from nothing."""
        self.close()
        self.run_dir = sut.make_run_dir()
        self.database = datasets.seasonal(self.n_transactions(), SEASONAL_SEED)
        store = SqliteStore(str(self.store_path))
        try:
            store.save_database(self.database)
        finally:
            store.close()
        self.server = sut.ServerProcess(
            self.module, self.server_args(self.store_path), self.run_dir
        )
        self.command_line = self.server.argv
        began = time.perf_counter()
        self.server.start()
        self.client().status()
        self.start_s = time.perf_counter() - began

    def client(self) -> ServiceClient:
        # One attempt: a refused or dropped op must count as failed, not
        # be retried into a success.
        return ServiceClient(self.server.url, retry_policy=RetryPolicy(max_attempts=1))

    def warm_up(self) -> None:
        """Prime every pool statement (a miss each) from both clients."""
        statements = self.warm_statements()
        errors: List[str] = []

        def prime(part: Sequence[str]) -> None:
            client = self.client()
            for text in part:
                record = client.query(text, timeout=QUERY_TIMEOUT_S)
                if record.get("state") != "done":
                    errors.append(f"priming failed: {record.get('error')}")
                    return
                self.primed[text] = record["result"]

        self.primed = {}
        threads = [
            threading.Thread(target=prime, args=(statements[index::N_CLIENTS],))
            for index in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise sut.BenchError(errors[0])

    # -- timed phase ----------------------------------------------------

    def client_loops(self) -> List[Callable[[ServiceClient, Phase, float], None]]:
        raise NotImplementedError

    def query_loop(self, sequence: Iterator[ops.Op]):
        def loop(client: ServiceClient, phase: Phase, deadline: float) -> None:
            while time.perf_counter() < deadline:
                self.one_query(client, phase, next(sequence))

        return loop

    def one_query(self, client: ServiceClient, phase: Phase, op: ops.Op) -> Optional[Dict]:
        phase.attempted += 1
        began = time.perf_counter()
        try:
            record = client.query(op["text"], timeout=QUERY_TIMEOUT_S)
        except ReproError as error:
            phase.fail(f"query failed: {error}")
            return None
        elapsed = time.perf_counter() - began
        if record.get("state") != "done":
            phase.fail(f"query ended {record.get('state')}: {record.get('error')}")
            return None
        if op["primed"] and not (
            record.get("cached") and record["result"] == self.primed[op["text"]]
        ):
            # Every cache hit must equal the miss that populated it.
            phase.fail(f"hit differs from its miss (cached={record.get('cached')})")
            return None
        phase.query_latencies.append(elapsed)
        return record

    def one_append(self, client: ServiceClient, phase: Phase, op: ops.Op) -> Optional[Dict]:
        phase.attempted += 1
        began = time.perf_counter()
        try:
            ack = client.append_transactions(op["rows"], idempotency_key=op["key"])
        except ReproError as error:
            phase.fail(f"append failed: {error}")
            return None
        elapsed = time.perf_counter() - began
        if not ack.get("applied") or ack.get("appended") != len(op["rows"]):
            phase.fail(f"append not applied: {ack}")
            return None
        phase.append_latencies.append(elapsed)
        return ack

    def timed_phase(self, seconds: float) -> Phase:
        loops = self.client_loops()
        phases = [Phase() for _ in loops]
        pids = self.server.pids()
        sut_cpu = sut.cpu_seconds(pids)
        own_cpu = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=loop, args=(self.client(), phase, deadline))
            for loop, phase in zip(loops, phases)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = Phase()
        total.wall_s = time.perf_counter() - start
        total.client_cpu_s = time.process_time() - own_cpu
        total.sut_cpu_s = sut.cpu_seconds(pids) - sut_cpu
        total.peak_rss_mb = sut.peak_rss_mb(pids)
        for phase in phases:
            total.merge(phase)
        return total

    # -- after the timed phase -----------------------------------------

    def last_timestamp(self) -> datetime:
        return max(transaction.timestamp for transaction in self.database)

    def append_probe(self) -> List[float]:
        """Append acks on the now idle server (no reads beside them)."""
        phase = Phase()
        client = self.client()
        batches = ops.append_batches(self.seed, self.name, self.last_timestamp())
        for op in ops.head(batches, self.sizing.append_probes):
            self.one_append(client, phase, op)
        if phase.failed:
            raise sut.BenchError(phase.failures[0])
        return phase.append_latencies

    def result_set(self) -> Dict[str, List[str]]:
        return {text: result["results"] for text, result in sorted(self.primed.items())}

    def dataset_stores(self) -> Dict[str, object]:
        return {"seasonal": self.database}

    def scenario(self) -> Scenario:
        """This workload's store and first statements, for the per-layer probes."""
        statements = self.warm_statements()[:5]
        first = parse_statement(statements[0])
        return Scenario(
            database=self.database,
            vp_task=ValidPeriodTask(
                first.granularity, RuleThresholds(first.min_support, first.min_confidence)
            ),
            p_database=self.database,
            # Day units of the seasonal year are too thin to mine for cycles.
            p_granularity=Granularity.WEEK,
            statements=statements,
            # Client 7 of 8: no timed-phase client ever draws these.
            new_statement=lambda number: ops.new_statement(7, 8, number),
            append_after=self.last_timestamp(),
        )

    def load_store(self):
        """The store as a library caller loads it (label order follows the store)."""
        store = SqliteStore(str(self.store_path))
        try:
            return store.load_database()
        finally:
            store.close()

    def final_checks(self, phase: Phase) -> None:
        """Service (or cluster) answers equal the library's, on a sample."""
        database = self.load_store()
        sample = sorted(self.primed)[:: max(1, len(self.primed) // 4)][:4]
        for text in sample:
            phase.check(
                same_answer(self.primed[text], library_answer(database, text)),
                f"served answer differs from the library's: {text}",
            )

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.run_dir is not None:
            sut.remove_run_dir(self.run_dir)
            self.run_dir = None


class SvcInteractive(ServiceWorkload):
    """Mostly repeated statements against one server; the working set fits."""

    name = "svc_interactive"

    def warm_statements(self) -> List[str]:
        return ops.statement_pool(self.sizing.interactive_pool)

    def client_loops(self):
        pool = self.warm_statements()
        return [
            self.query_loop(ops.interactive(self.seed, client, pool, N_CLIENTS))
            for client in range(N_CLIENTS)
        ]


class ClusterRoutedReads(ServiceWorkload):
    """Reads through the router over a pool larger than the memory caches."""

    name = "cluster_routed_reads"
    module = "repro.cluster"

    def server_args(self, store: Path) -> List[str]:
        return ["--db", str(store), "--workers", "2", "--threads-per-worker", "1"]

    def warm_statements(self) -> List[str]:
        return ops.statement_pool(self.sizing.cluster_pool)

    def client_loops(self):
        pool = self.warm_statements()
        return [
            self.query_loop(ops.routed_reads(self.seed, client, pool))
            for client in range(N_CLIENTS)
        ]


class SvcStreamAppend(ServiceWorkload):
    """Appends beside reads, then a crash: no acknowledged write may be lost."""

    name = "svc_stream_append"

    def __init__(self, seed: int, sizing: Sizing):
        super().__init__(seed, sizing)
        self.acked_tids: List[int] = []
        self.acked_writes_lost = 0

    def warm_statements(self) -> List[str]:
        return [ops.mine_periods("week", support) for support in ops.STREAM_READ_SUPPORTS]

    def n_transactions(self) -> int:
        return self.sizing.stream_transactions

    def client_loops(self):
        batches = ops.append_batches(self.seed, self.name, self.last_timestamp())
        self.acked_tids = []

        def appender(client: ServiceClient, phase: Phase, deadline: float) -> None:
            while time.perf_counter() < deadline:
                ack = self.one_append(client, phase, next(batches))
                if ack is not None:
                    self.acked_tids.extend(ack["tids"])

        return [appender, self.query_loop(ops.stream_reads())]

    def final_checks(self, phase: Phase) -> None:
        """Fresh answer == full re-mine; then SIGKILL, restart, count lost rows."""
        text = self.warm_statements()[0]
        served = self.one_query(self.client(), Phase(), {"text": text, "primed": False})
        self.server.kill()
        final = self.load_store()
        phase.check(
            served is not None
            and same_answer(served["result"], library_answer(final, text)),
            "post-append answer differs from a full re-mine of the final store",
        )
        self.server = sut.ServerProcess(
            self.module, self.server_args(self.store_path), self.run_dir
        )
        self.server.start()
        after = self.one_query(self.client(), Phase(), {"text": text, "primed": False})
        present = {transaction.tid for transaction in final}
        self.acked_writes_lost = sum(1 for tid in self.acked_tids if tid not in present)
        expected = len(self.database) + len(self.acked_tids)
        phase.check(
            not self.acked_writes_lost
            and after is not None
            and after["result"]["n_transactions"] == expected,
            f"{self.acked_writes_lost} acknowledged rows lost after SIGKILL + restart",
            count=max(1, self.acked_writes_lost),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (LibColdMine, SvcInteractive, SvcStreamAppend, ClusterRoutedReads)
}
