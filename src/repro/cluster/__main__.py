"""``python -m repro.cluster`` — serve a worker fleet behind the router.

Examples::

    # 4 worker processes behind one public port
    python -m repro.cluster --db sales.db --workers 4 --port 8770

    # the same thing, as repro-serve sugar
    repro-serve --db sales.db --cluster 4 --port 8770

    # demo mode with per-tenant quotas (10 req/s sustained, burst 20,
    # tenant "analytics" gets a double share)
    python -m repro.cluster --demo --workers 2 --quota-rate 10 \
        --quota-burst 20 --quota-weight analytics=2

The router speaks the exact single-process ``/v1`` API, so ``curl`` and
:class:`~repro.service.client.ServiceClient` work unchanged.  Shutdown
(``SIGTERM``/``SIGINT``) drains the whole fleet: the router answers 503
with an honest ``Retry-After`` for new work while every worker runs its
own PR 6 drain, then the processes exit.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.cluster.quota import TenantQuotas
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import FleetSupervisor, WorkerConfig
from repro.httpkit import serve_until_signalled, write_port_file
from repro.obs.logs import configure_logging
from repro.obs.metrics import MetricsRegistry


def _parse_weight(text: str) -> "tuple[str, float]":
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected TENANT=WEIGHT, got {text!r}"
        )
    tenant, _, raw = text.partition("=")
    try:
        weight = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weight must be a number, got {raw!r}"
        ) from None
    if weight <= 0:
        raise argparse.ArgumentTypeError(f"weight must be > 0, got {weight}")
    return tenant, weight


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description=(
            "Serve TML mining queries from N worker processes behind a "
            "fingerprint-routed router."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="router bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8770,
        help="router bind port (0 = ephemeral; resolved port is printed "
        "and written to --port-file)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the router's resolved port to this file once listening",
    )
    parser.add_argument(
        "--db",
        default=":memory:",
        help="shared SQLite store path (a cluster needs a file-backed "
        "store; with --demo an unset/:memory: path gets a temporary file)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="load the bundled synthetic seasonal demo dataset at startup "
        "(skipped when the store already holds data)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="worker processes"
    )
    parser.add_argument(
        "--threads-per-worker",
        type=int,
        default=2,
        metavar="N",
        help="scheduler threads inside each worker process",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        help="counting backend (auto|dict|hashtree|vertical|packed)",
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        metavar="R",
        help="per-tenant sustained requests/second (unset = no quotas)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=10.0,
        metavar="B",
        help="per-tenant burst depth (tokens; scaled by tenant weight)",
    )
    parser.add_argument(
        "--quota-weight",
        type=_parse_weight,
        action="append",
        default=[],
        metavar="TENANT=W",
        help="fair-share multiplier for one tenant (repeatable)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between worker health-check sweeps",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        help="seconds each worker's SIGTERM drain lets running jobs finish",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="latency past which each worker's flight recorder captures "
        "a query in full (merged at GET /v1/debug/slow)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every routed request"
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error", "critical"),
        help="threshold for the repro.* loggers on stderr",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2

    run_dir = tempfile.mkdtemp(prefix="repro-cluster-")
    db_path = args.db
    if db_path == ":memory:":
        if not args.demo:
            print(
                "a cluster needs a file-backed --db "
                "(worker processes cannot share :memory:)",
                file=sys.stderr,
            )
            return 2
        db_path = str(Path(run_dir) / "demo.db")

    # The store is prepared before any worker exists: a worker's journal
    # recovery starts mining immediately, and a recovered job must never
    # see a half-loaded dataset.
    from repro.db.sqlite_store import SqliteStore

    store = SqliteStore(db_path)
    try:
        if args.demo and store.count_transactions() == 0:
            from repro.datagen import seasonal_dataset

            dataset = seasonal_dataset(n_transactions=4000, seed=7)
            loaded = store.save_database(dataset.database)
            print(f"loaded demo dataset: {loaded} transactions", file=sys.stderr)
    finally:
        store.close()

    registry = MetricsRegistry()
    config = WorkerConfig(
        db_path=db_path,
        run_dir=run_dir,
        threads=args.threads_per_worker,
        engine=args.engine,
        drain_deadline=args.drain_deadline,
        slow_threshold=args.slow_threshold,
        log_level=args.log_level,
    )
    supervisor = FleetSupervisor(
        config,
        n_workers=args.workers,
        health_interval=args.health_interval,
        metrics=registry,
    )
    weights: Dict[str, float] = dict(args.quota_weight)
    quotas = TenantQuotas(
        rate=args.quota_rate, burst=args.quota_burst, weights=weights
    )

    print(f"starting {args.workers} worker(s) on {db_path} ...", file=sys.stderr)
    supervisor.start()
    for worker in supervisor.all_workers():
        print(
            f"  worker {worker.worker_id}: pid {worker.pid} "
            f"port {worker.port}",
            file=sys.stderr,
        )
    router = ClusterRouter(
        supervisor,
        host=args.host,
        port=args.port,
        quotas=quotas,
        metrics=registry,
        verbose=args.verbose,
    )
    router.drain_retry_after = args.drain_deadline
    print(f"repro cluster router listening on {router.url}", file=sys.stderr)
    if args.port_file:
        write_port_file(args.port_file, router.server_address[1])

    def drain() -> None:
        # Admission stops first (the router answers 503 with an honest
        # Retry-After while workers land their jobs), then the fleet
        # drains, then the listener goes away.
        router.draining = True
        print(f"\ndraining fleet (deadline {args.drain_deadline:g}s)", file=sys.stderr)
        print(f"fleet drain: {supervisor.drain()}", file=sys.stderr)

    serve_until_signalled(router, drain)
    return 0


if __name__ == "__main__":
    sys.exit(main())
