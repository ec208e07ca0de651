"""``python -m repro.service`` / ``repro-serve`` — run the mining service.

Examples::

    # serve an existing store durably (journal + disk cache derived
    # from the store path; restart recovery replays unfinished jobs)
    repro-serve --db sales.db --port 8765 --workers 4

    # demo mode: synthesize a seasonal dataset and serve it
    repro-serve --demo --port 8765

    curl -s localhost:8765/v1/status | python -m json.tool
    curl -s -X POST localhost:8765/v1/query -d '{
        "query": "MINE PERIODS FROM transactions AT GRANULARITY month
                  WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
    }'

Shutdown: ``SIGTERM`` or ``SIGINT`` (Ctrl-C) starts a graceful drain —
new submissions get 503 + ``Retry-After`` while running jobs get
``--drain-deadline`` seconds to land (stragglers are interrupted at a
pass boundary, their sound partial results journaled); queued jobs stay
journaled and resume when the service is next started on the same
``--journal`` path.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.db.sqlite_store import SqliteStore
from repro.httpkit import serve_until_signalled, write_port_file
from repro.obs.logs import configure_logging
from repro.runtime.budget import RunBudget
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import MiningHTTPServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve TML mining queries over HTTP (IQMS as a service).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 = ephemeral; the resolved port is printed and "
        "written to --port-file)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the resolved bind port to this file once listening "
        "(how a cluster supervisor discovers an ephemeral port)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="stable identity of this process in a cluster fleet "
        "(surfaces in /v1/status and the X-Repro-Worker header)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="serve through a fingerprint-routed router in front of N "
        "worker processes instead of a single process "
        "(delegates to python -m repro.cluster; requires a file-backed --db)",
    )
    parser.add_argument(
        "--db", default=":memory:", help="SQLite store path (default: in-memory)"
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="load the bundled synthetic seasonal demo dataset at startup "
        "(skipped when the store already holds data)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent statements (worker threads)"
    )
    parser.add_argument(
        "--engine",
        default="auto",
        help="counting backend (auto|dict|hashtree|vertical|packed)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, help="queued-job admission bound"
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256, help="result-cache capacity"
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    parser.add_argument(
        "--budget-time",
        type=float,
        default=None,
        help="default per-run wall-clock budget in seconds",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="durable job-journal file (default: <db>.journal for a "
        "file-backed store, disabled for :memory:)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the job journal (jobs die with the process)",
    )
    parser.add_argument(
        "--disk-cache",
        default=None,
        metavar="PATH",
        help="result-cache spill file (default: <db>.cache for a "
        "file-backed store, disabled for :memory:)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the disk cache tier (warm results die with the process)",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        help="seconds a SIGTERM drain lets running jobs finish before "
        "interrupting them (their partials are journaled)",
    )
    parser.add_argument(
        "--trace-store-entries",
        type=int,
        default=512,
        metavar="N",
        help="trace documents held in memory (GET /v1/traces)",
    )
    parser.add_argument(
        "--trace-spill",
        default=None,
        metavar="PATH",
        help="SQLite spill file for evicted trace documents "
        "(default: memory only)",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="latency past which the flight recorder captures a query "
        "in full (GET /v1/debug/slow)",
    )
    parser.add_argument(
        "--slow-top-k",
        type=int,
        default=32,
        metavar="K",
        help="slowest captures the flight recorder keeps",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error", "critical"),
        help="threshold for the repro.* loggers on stderr",
    )
    return parser


def _durable_path(
    explicit: Optional[str], disabled: bool, db_path: str, suffix: str
) -> Optional[str]:
    """Resolve a journal/disk-cache path from the flags and the store."""
    if disabled:
        return None
    if explicit is not None:
        return explicit
    if db_path == ":memory:":
        return None
    return db_path + suffix


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cluster is not None:
        # ``repro-serve --cluster N`` is sugar for the scale-out entry
        # point: a router supervising N of these processes.
        from repro.cluster.__main__ import main as cluster_main

        cluster_argv = [
            "--db", args.db,
            "--host", args.host,
            "--port", str(args.port),
            "--workers", str(args.cluster),
            "--threads-per-worker", str(args.workers),
            "--engine", args.engine,
            "--drain-deadline", str(args.drain_deadline),
            "--slow-threshold", str(args.slow_threshold),
            "--log-level", args.log_level,
        ]
        if args.demo:
            cluster_argv.append("--demo")
        if args.verbose:
            cluster_argv.append("--verbose")
        return cluster_main(cluster_argv)
    configure_logging(args.log_level)
    default_budget = (
        RunBudget(max_seconds=args.budget_time) if args.budget_time else None
    )
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        cache_entries=args.cache_entries,
        cache_ttl_seconds=args.cache_ttl,
        engine=args.engine,
        default_budget=default_budget,
        journal_path=_durable_path(
            args.journal, args.no_journal, args.db, ".journal"
        ),
        disk_cache_path=_durable_path(
            args.disk_cache, args.no_disk_cache, args.db, ".cache"
        ),
        drain_deadline_seconds=args.drain_deadline,
        worker_id=args.worker_id,
        trace_store_entries=args.trace_store_entries,
        trace_spill_path=args.trace_spill,
        slow_threshold_seconds=args.slow_threshold,
        slow_top_k=args.slow_top_k,
    )
    # The store is prepared *before* the service exists: journal
    # recovery starts workers immediately, and a recovered job must
    # never mine a half-loaded dataset.
    store = SqliteStore(args.db)
    if args.demo and store.count_transactions() == 0:
        from repro.datagen import seasonal_dataset

        dataset = seasonal_dataset(n_transactions=4000, seed=7)
        loaded = store.save_database(dataset.database)
        print(f"loaded demo dataset: {loaded} transactions", file=sys.stderr)
    service = MiningService(store=store, config=config)
    if service.recovered.get("requeued"):
        print(
            f"journal recovery: re-admitted {service.recovered['requeued']} "
            f"unfinished job(s)",
            file=sys.stderr,
        )
    server = MiningHTTPServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    print(f"repro mining service listening on {server.url}", file=sys.stderr)
    if args.port_file:
        write_port_file(args.port_file, server.server_address[1])
    print("endpoints: POST /v1/query  GET /v1/jobs/{id}  "
          "DELETE /v1/jobs/{id}  GET /v1/status  GET /v1/metrics",
          file=sys.stderr)

    def drain() -> None:
        print(f"\ndraining (deadline {args.drain_deadline:g}s)", file=sys.stderr)
        print(f"drain: {service.drain()}", file=sys.stderr)

    try:
        serve_until_signalled(server, drain)
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
