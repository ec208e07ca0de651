"""Per-layer probes: a span around each call into a layer's public function.

Every probe replays, in this process, the calls the workload's ops make
into one layer — on the workload's own dataset and statements — and
records a span per call.  Where a layer's stages add up to a whole op,
the staged result is asserted equal to the facade / ``run_sync`` result,
so the decomposition cannot drift from the real path.  Nothing inside
``src/`` is instrumented.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cluster import rank_workers
from repro.columnar import EncodedDatabase, get_backend
from repro.core import AprioriOptions, Itemset, apriori, generate_candidates, generate_rules
from repro.db import SqliteStore
from repro.incremental import append_encoded
from repro.mining import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    TemporalContext,
    TemporalMiner,
    ValidPeriodRule,
    ValidPeriodTask,
    candidate_rules,
    discover_periodicities,
    mine_with_feature,
    per_unit_frequent_itemsets,
    restrict_database,
)
from repro.mining.valid_periods import periods_for_series
from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.parallel import ShardedExecutor
from repro.planner import compute_stats
from repro.runtime import RunBudget
from repro.service import (
    DiskCacheTier,
    JobJournal,
    MiningService,
    ResultCache,
    ServiceConfig,
    cache_key,
    payload_to_dict,
)
from repro.temporal import CyclicPeriodicity, Granularity
from repro.tml import (
    ExecutionEnvironment,
    TmlExecutor,
    canonicalize,
    canonicalize_statement,
    parse_statement,
)

from bench import ops, stats
from bench.spans import SpanRecorder



def periodicity_task(granularity: Granularity) -> PeriodicityTask:
    return PeriodicityTask(
        granularity, RuleThresholds(0.10, 0.6), max_period=8, min_match=0.8, max_rule_size=3
    )


CF_TASK = ConstrainedTask(
    CyclicPeriodicity(7, 5, Granularity.DAY),
    RuleThresholds(0.10, 0.6),
    granularity=Granularity.DAY,
    max_rule_size=3,
)

#: Kernel tier: whole-store support threshold and candidate cap, fixed so
#: every backend counts the same lists.
KERNEL_SUPPORT = 0.01
KERNEL_MAX_CANDIDATES = 1500

REPEATS = 5
MIN_MINE_REPEATS = 3
MAX_MINE_REPEATS = 15
MINE_BUDGET_S = 1.5


class StagedMismatch(AssertionError):
    """A staged replay's result differs from the real path's."""


@dataclass
class Scenario:
    """What a workload hands the probes: its data, its mine, its statements."""

    database: object
    vp_task: ValidPeriodTask
    p_database: object
    p_granularity: Granularity
    statements: List[str]
    new_statement: Callable[[int], str]
    append_after: datetime


def metric_total(samples: Dict[str, Dict[str, float]], name: str, **labels: str) -> float:
    """Sum of a family's samples whose label block contains every ``labels`` pair."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value
        for block, value in samples.get(name, {}).items()
        if all(pair in block for pair in wanted)
    )


def file_bytes(path: Path) -> int:
    """A SQLite file plus its write-ahead log."""
    return sum(
        os.path.getsize(candidate)
        for candidate in (str(path), f"{path}-wal")
        if os.path.exists(candidate)
    )


class Probes:
    """Runs the probes over one scenario, filling ``out`` and the recorder."""

    def __init__(self, scenario: Scenario, recorder: SpanRecorder, work_dir: Path):
        self.scenario = scenario
        self.recorder = recorder
        self.work_dir = work_dir
        self.out: Dict[str, float] = {}

    def timed(self, name: str, call: Callable[[], object], repeat: int = 1):
        """``call`` under a span named ``name``, ``repeat`` times; median seconds."""
        durations = []
        result = None
        for _ in range(repeat):
            with self.recorder.span(name) as span:
                result = call()
            durations.append(span.duration)
        return result, stats.median(durations)

    def append_rows(self, count: int, stream: str) -> List[List[Tuple[datetime, List[str]]]]:
        batches = ops.append_batches(0, f"probe-{stream}", self.scenario.append_after)
        return [
            [(datetime.fromisoformat(stamp), items) for stamp, items in batch["rows"]]
            for batch in ops.head(batches, count)
        ]

    # ------------------------------------------------------------------
    # columnar + core: encode, index, per-backend kernel tier
    # ------------------------------------------------------------------

    def columnar_and_core(self) -> None:
        out, database = self.out, self.scenario.database
        encoded, out["columnar.encode_s"] = self.timed(
            "columnar.encode", lambda: EncodedDatabase.from_database(database)
        )
        segment = encoded.segment()
        index, out["columnar.vertical_build_s"] = self.timed(
            "columnar.vertical_build", segment.vertical
        )
        out["columnar.index_bytes"] = (index.n_item_rows + 1) * index.n_words * 8 / len(encoded)
        segment.baskets()  # horizontal backends scan these; not their kernel's cost

        floor = KERNEL_SUPPORT * len(encoded)
        singles = sorted(
            Itemset((item,))
            for item, count in encoded.item_frequencies().items()
            if count >= floor
        )
        pairs, out["core.generate_candidates_s"] = self.timed(
            "core.generate_candidates", lambda: generate_candidates(singles), REPEATS
        )
        pairs = pairs[:KERNEL_MAX_CANDIDATES]
        counted: Dict[str, Dict] = {}
        for backend in ("dict", "hashtree", "vertical", "packed"):
            counted[backend], out[f"columnar.count_pass2.{backend}_s"] = self.timed(
                f"columnar.count_pass2.{backend}",
                lambda: get_backend(backend).count_pass(pairs, segment),
            )
        if any(counted[backend] != counted["dict"] for backend in counted):
            raise StagedMismatch("counting backends disagree on pass 2")
        frequent_pairs = sorted(
            itemset for itemset, count in counted["dict"].items() if count >= floor
        )
        triples = generate_candidates(frequent_pairs)[:KERNEL_MAX_CANDIDATES]
        for backend in ("vertical", "packed"):
            counted[backend], out[f"columnar.count_pass3.{backend}_s"] = self.timed(
                f"columnar.count_pass3.{backend}",
                lambda: get_backend(backend).count_pass(triples, segment),
            )
        if counted["vertical"] != counted["packed"]:
            raise StagedMismatch("counting backends disagree on pass 3")

        restricted = restrict_database(
            self.scenario.p_database, CF_TASK.feature, CF_TASK.granularity
        )
        frequent = apriori(
            restricted,
            CF_TASK.thresholds.min_support,
            AprioriOptions(max_size=CF_TASK.max_rule_size),
        )
        _, out["core.generate_rules_s"] = self.timed(
            "core.generate_rules",
            lambda: generate_rules(frequent, CF_TASK.thresholds.min_confidence, 1),
            REPEATS,
        )

    # ------------------------------------------------------------------
    # mining + planner + runtime: the staged mine against the facade
    # ------------------------------------------------------------------

    def staged_mine(self, backend: str):
        """Task VP stage by stage, each call under its own span."""
        scenario, task = self.scenario, self.scenario.vp_task
        with self.recorder.span("mining.context_build"):
            context = TemporalContext(scenario.database, task.granularity)
        with self.recorder.span("mining.count"):
            counts = per_unit_frequent_itemsets(
                context,
                task.thresholds.min_support,
                min_units=task.min_valid_units,
                max_size=task.max_rule_size,
                counting=backend,
            )
        with self.recorder.span("mining.rulegen"):
            series_list = candidate_rules(
                counts,
                task.thresholds.min_confidence,
                min_valid_units=task.min_valid_units,
                max_consequent_size=task.max_consequent_size,
            )
        findings = []
        with self.recorder.span("mining.emit"):
            for series in series_list:
                periods = periods_for_series(
                    series, context, task.min_frequency, task.min_coverage
                )
                if periods:
                    findings.append(
                        ValidPeriodRule(series.key, context.granularity, tuple(periods))
                    )
        return context, counts, series_list, tuple(findings)

    def mining_planner_runtime(self) -> Tuple[float, float]:
        """Returns ``(staged seconds, facade seconds)`` of the representative mine."""
        out, scenario, task = self.out, self.scenario, self.scenario.vp_task
        _, out["planner.stats_s"] = self.timed(
            "planner.stats", lambda: compute_stats(scenario.database)
        )
        planner = TemporalMiner(scenario.database)
        planner.stats()
        _, out["planner.plan_s"] = self.timed(
            "planner.plan", lambda: planner.plan_for(task), REPEATS
        )

        # Facade and staged alternate, so neither owns the warmer caches.
        registry = MetricsRegistry()
        stages: Dict[str, List[float]] = {}
        staged_walls, facade_walls = [], []
        began = self.recorder.now()
        number = 0
        # Small mines jitter by more than the facade adds: repeat them more.
        while number < MIN_MINE_REPEATS or (
            number < MAX_MINE_REPEATS and self.recorder.now() - began < MINE_BUDGET_S
        ):
            number += 1
            miner = TemporalMiner(scenario.database, metrics=registry)
            with self.recorder.span("op.facade_mine", op_id=f"facade-{number}") as facade:
                report = miner.valid_periods(task)
            facade_walls.append(facade.duration)
            # The planner recalibrates between runs: stage the backend the
            # facade just ran, not the one an earlier plan named.
            first = len(self.recorder.spans)
            with self.recorder.span("op.staged_mine", op_id=f"mine-{number}") as staged:
                context, counts, series_list, findings = self.staged_mine(
                    report.plan["backend"]
                )
            for span in self.recorder.spans[first:]:
                if span.parent == staged.span_id:
                    stages.setdefault(span.name, []).append(span.duration)
            staged_walls.append(staged.duration)
            if report.results != findings:
                raise StagedMismatch("staged valid-period mine differs from TemporalMiner's")
        stage = {name: stats.median(durations) for name, durations in stages.items()}
        facade_s = stats.median(facade_walls)
        for name, seconds in stage.items():
            out[f"{name}_s"] = seconds
        out["mining.rule_candidates"] = len(series_list)
        out["mining.rules_emitted"] = len(findings)
        out["mining.engine_overhead_s"] = facade_s - sum(stage.values())
        planned = parse_prometheus_text(registry.render_prometheus())
        actual = metric_total(planned, "repro_planner_actual_seconds_total")
        estimated = metric_total(planned, "repro_planner_estimated_seconds_total")
        out["planner.est_over_actual_ratio"] = estimated / actual if actual else 0.0

        _, out["mining.task_p_s"] = self.timed(
            "mining.task_p",
            lambda: discover_periodicities(
                scenario.p_database, periodicity_task(scenario.p_granularity)
            ),
        )
        _, out["mining.task_cf_s"] = self.timed(
            "mining.task_cf", lambda: mine_with_feature(scenario.p_database, CF_TASK)
        )

        # A budget that never binds: the run pays the monitor and reports
        # what it counted.
        budget = RunBudget(max_seconds=3600.0)
        watched, monitored = self.timed(
            "runtime.monitored_mine",
            lambda: TemporalMiner(scenario.database).valid_periods(task, budget=budget),
        )
        diagnostics = watched.diagnostics
        out["mining.passes"] = diagnostics.passes_completed
        out["mining.candidates"] = diagnostics.candidates_generated
        larger = sum(1 for itemset in counts.counts if len(itemset) >= 2)
        out["mining.useful_ratio"] = larger / max(1, diagnostics.candidates_generated)
        out["runtime.monitor_overhead_ratio"] = monitored / facade_s

        executor = ShardedExecutor(workers=2)
        try:
            def sharded():
                return per_unit_frequent_itemsets(
                    context,
                    task.thresholds.min_support,
                    min_units=task.min_valid_units,
                    max_size=task.max_rule_size,
                    counting=report.plan["backend"],
                    executor=executor,
                )

            # The pool forks on first use: first pass pays it, second does not.
            first_counts, first_s = self.timed("parallel.first_count", sharded)
            _, out["parallel.w2_count_s"] = self.timed("parallel.w2_count", sharded)
        finally:
            executor.close()
        if first_counts.counts.keys() != counts.counts.keys():
            raise StagedMismatch("sharded counting retained different itemsets")
        out["parallel.pool_start_s"] = max(0.0, first_s - out["parallel.w2_count_s"])
        out["parallel.w2_speedup"] = out["mining.count_s"] / out["parallel.w2_count_s"]
        return stats.median(staged_walls), facade_s

    # ------------------------------------------------------------------
    # db
    # ------------------------------------------------------------------

    def db(self) -> Path:
        """Times the store; returns the path of the store it leaves behind."""
        out, database = self.out, self.scenario.database
        path = self.work_dir / "probe-store.db"
        store = SqliteStore(str(path))
        try:
            _, out["db.save_database_s"] = self.timed(
                "db.save_database", lambda: store.save_database(database)
            )
        finally:
            store.close()
        out["db.bytes_per_tx"] = file_bytes(path) / len(database)
        store = SqliteStore(str(path))  # a fresh connection has no memo
        try:
            _, out["db.load_encoded_s"] = self.timed("db.load_encoded", store.load_encoded)
            _, out["db.fingerprint_cold_s"] = self.timed("db.fingerprint_cold", store.fingerprint)
            _, out["db.fingerprint_warm_s"] = self.timed(
                "db.fingerprint_warm", store.fingerprint, REPEATS
            )
        finally:
            store.close()
        # Appends go to a copy, so the store above stays the workload's data.
        # Saving and closing first checkpoints the log away: what it holds
        # afterwards is what the appends wrote.
        append_path = self.work_dir / "probe-append.db"
        store = SqliteStore(str(append_path))
        try:
            store.save_database(database)
        finally:
            store.close()
        store = SqliteStore(str(append_path))
        try:
            batches = iter(enumerate(self.append_rows(REPEATS, "db")))

            def append():
                number, rows = next(batches)
                return store.append_batch(rows, append_id=f"probe-{number}")

            _, out["db.append_batch_s"] = self.timed("db.append_batch", append, REPEATS)
            out["db.wal_bytes_per_append"] = os.path.getsize(f"{append_path}-wal") / REPEATS
        finally:
            store.close()
        return path

    # ------------------------------------------------------------------
    # incremental
    # ------------------------------------------------------------------

    def incremental(self) -> None:
        """Last library probe: ``apply_append`` grows the scenario's database."""
        out, scenario, task = self.out, self.scenario, self.scenario.vp_task
        rows = self.append_rows(1, "incremental")[0]
        encoded = EncodedDatabase.from_database(scenario.database)
        next_tid = int(encoded.tids.max()) + 1
        triples = [
            (next_tid + offset, stamp, [encoded.catalog.add(label) for label in items])
            for offset, (stamp, items) in enumerate(rows)
        ]
        _, out["incremental.append_encoded_s"] = self.timed(
            "incremental.append_encoded", lambda: append_encoded(encoded, triples), REPEATS
        )
        registry = MetricsRegistry()
        miner = TemporalMiner(scenario.database, incremental="on", metrics=registry)
        miner.valid_periods(task)
        miner.apply_append(rows)
        decision = miner.refresh_for(task.granularity)
        out["incremental.dirty_units"] = decision.dirty_units if decision else 0
        delta, out["incremental.delta_refresh_s"] = self.timed(
            "incremental.delta_refresh", lambda: miner.valid_periods(task)
        )
        full, out["incremental.full_remine_s"] = self.timed(
            "incremental.full_remine",
            lambda: TemporalMiner(scenario.database, incremental="off").valid_periods(task),
        )
        if delta.results != full.results:
            raise StagedMismatch("delta refresh differs from a full re-mine")
        counters = parse_prometheus_text(registry.render_prometheus())
        out["incremental.fallbacks"] = metric_total(counters, "repro_incremental_fallbacks_total")

    # ------------------------------------------------------------------
    # tml + service, in process, on the store the db probe left
    # ------------------------------------------------------------------

    def tml_and_service(self, store_path: Path) -> Dict[str, float]:
        """Returns the staged spans' seconds for one hit and one miss."""
        out, scenario = self.out, self.scenario
        statements = scenario.statements
        text = statements[0]
        _, out["tml.parse_s"] = self.timed("tml.parse", lambda: parse_statement(text), REPEATS)
        _, out["tml.canonicalize_s"] = self.timed(
            "tml.canonicalize", lambda: canonicalize(text), REPEATS
        )

        registry = MetricsRegistry()
        store = SqliteStore(str(store_path))
        spill = DiskCacheTier(self.work_dir / "probe-spill.cache", metrics=registry)
        cache = ResultCache(max_entries=256, metrics=registry, spill=spill)
        journal_path = self.work_dir / "probe-journal.journal"
        journal = JobJournal(journal_path, synchronous="FULL", metrics=registry)
        environment = ExecutionEnvironment(store=store, metrics=registry)
        executor = TmlExecutor(environment)
        settings = {"engine": "auto", "workers": None, "budget": "off", "incremental": "off"}
        staged: Dict[str, float] = {}
        try:
            executor.execute(statements[-1])  # load the dataset once, as a warm worker has

            def staged_query(number: int, statement_text: str) -> Dict:
                """One query the way ``MiningService`` runs it, span by span."""
                job_id = f"probe-{number}"
                with self.recorder.span("tml.parse"):
                    statement = parse_statement(statement_text)
                with self.recorder.span("tml.canonicalize"):
                    canonical = canonicalize_statement(statement)
                with self.recorder.span("service.journal_admit"):
                    journal.record_admitted(job_id, statement_text, canonical_key=canonical)
                journal.record_running(job_id)
                with self.recorder.span("db.fingerprint_warm"):
                    fingerprint = store.fingerprint()
                with self.recorder.span("service.cache_key"):
                    key = cache_key(canonical, fingerprint, settings)
                with self.recorder.span("service.cache_get"):
                    result = cache.get(key)
                if result is None:
                    with self.recorder.span("tml.execute"):
                        execution = executor.execute_statement(statement)
                    with self.recorder.span("service.serialize"):
                        result = payload_to_dict(
                            execution.payload, environment.resolve("transactions").catalog
                        )
                    with self.recorder.span("service.cache_put"):
                        cache.put(key, result, fingerprint)
                with self.recorder.span("service.journal_finish"):
                    journal.record_finished(job_id, "done", result=result)
                with self.recorder.span("service.respond"):
                    body = json.dumps({"job_id": job_id, "state": "done", "result": result})
                return {"result": result, "bytes": len(body)}

            journal_before = file_bytes(journal_path)
            for kind, batch in (("miss", statements[:REPEATS]), ("hit", statements[:REPEATS])):
                first = len(self.recorder.spans)
                answers = []
                for number, statement_text in enumerate(batch):
                    with self.recorder.span(f"op.staged_{kind}", op_id=f"{kind}-{number}"):
                        answers.append(staged_query(number, statement_text))
                spans = self.recorder.spans[first:]
                for name in {span.name for span in spans if not span.name.startswith("op.")}:
                    durations = [span.duration for span in spans if span.name == name]
                    staged[f"{kind}:{name}"] = stats.median(durations)
            out["service.journal_bytes_per_op"] = (
                file_bytes(journal_path) - journal_before
            ) / (2 * len(statements[:REPEATS]))
            out["service.response_bytes"] = stats.median([a["bytes"] for a in answers])
            out["tml.execute_s"] = staged["miss:tml.execute"]
            out["service.cache_key_s"] = staged["hit:service.cache_key"]
            out["service.cache_get_s"] = staged["hit:service.cache_get"]
            out["service.cache_put_s"] = staged["miss:service.cache_put"]
            out["service.serialize_s"] = staged["miss:service.serialize"] + staged["hit:service.respond"]
            out["service.journal_admit_s"] = staged["hit:service.journal_admit"]
            out["service.journal_finish_s"] = staged["hit:service.journal_finish"]
            payload = {"transactions": [[stamp.isoformat(), items, None]
                                        for stamp, items in self.append_rows(1, "intent")[0]]}
            intents = iter(range(REPEATS))
            _, out["service.journal_append_intent_s"] = self.timed(
                "service.journal_append_intent",
                lambda: journal.record_append_intent(f"probe-intent-{next(intents)}", payload),
                REPEATS,
            )

            entry = answers[0]["result"]
            fingerprint = store.fingerprint()
            keys = iter(cache_key(f"probe {n}", fingerprint, settings) for n in range(2 * REPEATS))
            _, out["service.spill_put_s"] = self.timed(
                "service.spill_put", lambda: spill.put(next(keys), entry, fingerprint), REPEATS
            )
            stored = cache_key("probe 0", fingerprint, settings)
            _, out["service.spill_get_s"] = self.timed(
                "service.spill_get", lambda: spill.get(stored), REPEATS
            )
            entries = spill.stats().get("entries") or len(spill)
            out["service.spill_bytes_per_entry"] = file_bytes(Path(spill.path)) / max(1, entries)
        finally:
            journal.close()
            spill.close()
            store.close()

        self.whole_ops(store_path, answers[0]["result"])
        return staged

    def whole_ops(self, store_path: Path, expected: Dict) -> None:
        """``run_sync`` and ``append_transactions`` on an in-process service."""
        out, scenario = self.out, self.scenario
        service_path = self.work_dir / "probe-service.db"
        service_path.write_bytes(store_path.read_bytes())
        config = ServiceConfig(
            workers=1,
            journal_path=f"{service_path}.journal",
            disk_cache_path=f"{service_path}.cache",
            metrics=MetricsRegistry(),
        )
        service = MiningService(str(service_path), config)
        try:
            text = scenario.statements[0]
            first = service.run_sync(text)
            if first.state != "done" or any(
                first.result[key] != expected[key] for key in ("results", "n_transactions")
            ):
                raise StagedMismatch("staged query differs from MiningService.run_sync")
            _, out["service.run_sync_hit_s"] = self.timed(
                "service.run_sync_hit", lambda: service.run_sync(text), 4 * REPEATS
            )
            fresh = iter(range(REPEATS))
            _, out["service.run_sync_miss_s"] = self.timed(
                "service.run_sync_miss",
                lambda: service.run_sync(scenario.new_statement(next(fresh))),
                REPEATS,
            )
            batches = iter(enumerate(self.append_rows(REPEATS, "service")))

            def append():
                number, rows = next(batches)
                return service.append_transactions(rows, idempotency_key=f"probe-{number}")

            _, out["service.append_s"] = self.timed("service.append", append, REPEATS)
        finally:
            service.close()

    def rank_workers(self, worker_ids: Sequence[str]) -> None:
        key = f"fingerprint\x00{canonicalize(self.scenario.statements[0])}"
        _, self.out["cluster.rank_workers_s"] = self.timed(
            "cluster.rank_workers", lambda: rank_workers(key, list(worker_ids)), REPEATS
        )
