"""The IQMI terminal front-end — an interactive TML/SQL shell.

The paper's prototype exposes an "integrated query and mining interface";
this REPL is its terminal counterpart.  Statements end with ``;`` and may
span lines; dot-commands control the session::

    iqms> SHOW SUMMARY;
    iqms> MINE PERIODS FROM sales AT GRANULARITY month
     ...>   WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;
    iqms> .table          -- last report as a table
    iqms> .log            -- the IQMI workflow log
    iqms> .quit
"""

from __future__ import annotations

import signal
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.system.session import IqmsSession

_HELP = """\
TML statements (end with ';'):
  SHOW SUMMARY; | SHOW ITEMS LIMIT n; | SHOW VOLUME BY <granularity>;
  SELECT ... ;                                   -- SQL over the store
  MINE PERIODS FROM <src> AT GRANULARITY <g>
    WITH SUPPORT >= s, CONFIDENCE >= c
    HAVING FREQUENCY >= f, COVERAGE >= n [, SIZE <= k, CONSEQUENT <= m];
  MINE PERIODICITIES FROM <src> AT GRANULARITY <g>
    WITH SUPPORT >= s, CONFIDENCE >= c
    HAVING PERIOD <= p, MATCH >= m, REPETITIONS >= r
    [INCLUDING CALENDAR '<pattern>'] [USING INTERLEAVED];
  MINE RULES FROM <src>
    DURING PERIOD '<start>' TO '<end>' | CALENDAR '<pattern>'
         | EVERY <p> <g> [OFFSET <o>] | <named-calendar>
         | <calendar> AND|OR|MINUS <calendar>
    [CONTAINING '<item>' ...]
    WITH SUPPORT >= s, CONFIDENCE >= c;
  MINE ITEMSETS FROM <src> AT GRANULARITY <g> WITH SUPPORT >= s;
  MINE TRENDS FROM <src> AT GRANULARITY <g> WITH SUPPORT >= s
    [HAVING CHANGE >= c, FIT >= r];
  PROFILE '<item>' [, '<item>'] FROM <src> BY <g>;
  EXPLAIN MINE ...;                              -- describe, don't run
  EXPLAIN ANALYZE MINE ...;                      -- run + timing/span breakdown
  SET BUDGET TIME <s>, CANDIDATES <n>, RULES <n> [STRICT];
  SET BUDGET OFF;                                -- clear run limits
  SET ENGINE dict|hashtree|vertical|packed;      -- pin counting backend
  SET ENGINE AUTO;                               -- back to the packed kernel
  SET TRACE ON|OFF;                              -- span trees on mining runs

Ctrl-C during a MINE cancels that run (a partial report is printed);
the session itself stays alive.

Dot commands:
  .help               this text
  .budget             show the session mining budget
  .engine [name]      show or set the counting backend (auto to unpin)
  .demo               load a bundled synthetic demo dataset as 'sales'
  .load <name> <csv>  load a (tid,ts,item) CSV as dataset <name>
  .datasets           list registered datasets
  .table              render the last mining report as a table
  .filter <item>      filter the last report by item label
  .profile <src> <g> <item...>   support-over-time sparkline of an itemset
  .export <path>      write the last mining report to <path>.csv/.json
  .serve [port]       share this session's store over HTTP (0 = ephemeral)
  .serve status       queue depth, drain state and journal summary
  .serve stop         shut the HTTP server down
  .stats              last-run diagnostics, span tree, metric counters
  .slow               slow-statement flight recorder (ranked captures)
  .log                show the IQMI workflow log
  .quit               leave the shell
"""


def _format_slow(document) -> str:
    """Render the session flight recorder for the ``.slow`` command."""
    stats = document["stats"]
    entries = document["entries"]
    header = (
        f"flight recorder: threshold {stats['threshold_seconds']:g}s, "
        f"{stats['captured']}/{stats['considered']} statement(s) captured, "
        f"{stats['held']} held (top {stats['top_k']})"
    )
    if not entries:
        return header + "\n(no slow statements captured)"
    lines = [header]
    for rank, entry in enumerate(entries, start=1):
        statement = " ".join(str(entry.get("statement", "")).split())
        if len(statement) > 100:
            statement = statement[:97] + "..."
        suffix = " (partial)" if entry.get("partial") else ""
        traced = " [traced]" if "trace" in entry else ""
        lines.append(
            f"{rank:3d}. {entry.get('duration_seconds', 0.0):8.3f}s"
            f"{suffix}{traced}  {statement}"
        )
    return "\n".join(lines)


def _demo_session(session: IqmsSession) -> str:
    from repro.datagen import seasonal_dataset

    dataset = seasonal_dataset(n_transactions=4000, n_seasonal_rules=2)
    session.load_database("sales", dataset.database)
    return (
        f"loaded demo dataset 'sales': {len(dataset.database)} transactions, "
        f"{len(dataset.embedded)} embedded seasonal rules"
    )


def _dispatch_dot(session: IqmsSession, line: str) -> Optional[str]:
    """Handle a dot-command; returns output text, or None to quit."""
    parts = line.split()
    command = parts[0]
    if command in (".quit", ".exit"):
        return None
    if command == ".help":
        return _HELP
    if command == ".budget":
        budget = session.budget
        if budget is None:
            return "no budget set (SET BUDGET TIME <s>, CANDIDATES <n>, RULES <n>;)"
        return f"budget: {budget.describe()}"
    if command == ".engine":
        if len(parts) == 1:
            from repro.columnar.backends import available_backends

            known = ", ".join(["auto"] + available_backends())
            return f"engine: {session.engine} (available: {known})"
        if len(parts) != 2:
            return "usage: .engine [<backend>|auto]"
        session.set_engine(parts[1])
        return f"engine: {session.engine}"
    if command == ".demo":
        return _demo_session(session)
    if command == ".load":
        if len(parts) != 3:
            return "usage: .load <name> <csv-path>"
        loaded = session.load_csv(parts[1], parts[2])
        return f"loaded {loaded} transactions as {parts[1]!r}"
    if command == ".datasets":
        datasets = session.datasets()
        if not datasets:
            return "(no datasets; try .demo or .load)"
        return "\n".join(f"{name}: {size} transactions" for name, size in datasets.items())
    if command == ".table":
        return session.last_table()
    if command == ".filter":
        if len(parts) != 2:
            return "usage: .filter <item-label>"
        report = session.analyse_item(parts[1])
        return report.format(session._last_catalog())
    if command == ".profile":
        if len(parts) < 4:
            return "usage: .profile <source> <granularity> <item> [<item> ...]"
        from repro.system.profile import support_profile
        from repro.temporal import Granularity

        database = session.environment.resolve(parts[1])
        profile = support_profile(
            database, parts[3:], Granularity.parse(parts[2])
        )
        session.workflow.record(f"profiled {parts[3:]} by {parts[2]}")
        return profile.format(database.catalog)
    if command == ".export":
        if len(parts) != 2:
            return "usage: .export <path.csv|path.json>"
        from repro.system.export import write_report

        report = session._require_report()
        written = write_report(report, parts[1], session._last_catalog())
        session.workflow.record(f"exported {written} rows to {parts[1]}")
        return f"wrote {written} row(s) to {parts[1]}"
    if command == ".serve":
        if len(parts) == 2 and parts[1] == "stop":
            if session.serving_url is None:
                return "not serving"
            session.stop_serving()
            return "stopped serving"
        if len(parts) == 2 and parts[1] == "status":
            if session.serving_url is None or session._service is None:
                return "not serving"
            status = session._service.status()
            scheduler = status["scheduler"]
            journal = status.get("journal", {})
            journal_line = (
                f"journal: {journal.get('path')} "
                f"(states {journal.get('states')})"
                if journal.get("enabled")
                else "journal: disabled"
            )
            return (
                f"serving on {session.serving_url}\n"
                f"queue: {scheduler['queue_depth']}/{scheduler['max_queue_depth']}"
                f" queued, {scheduler['running']} running"
                f"{' (draining)' if scheduler.get('draining') else ''}\n"
                f"{journal_line}"
            )
        if len(parts) > 2 or (
            len(parts) == 2 and not (parts[1].isdigit() and int(parts[1]) <= 65535)
        ):
            return "usage: .serve [<port>|stop|status]"
        if session.serving_url is not None:
            return f"already serving on {session.serving_url} (.serve stop first)"
        port = int(parts[1]) if len(parts) == 2 else 0
        url = session.serve(port=port)
        return (
            f"serving on {url}\n"
            "endpoints: POST /v1/query  GET /v1/jobs/{id}  "
            "DELETE /v1/jobs/{id}  GET /v1/status  GET /v1/metrics"
        )
    if command == ".stats":
        return session.stats()
    if command == ".slow":
        return _format_slow(session.slow_queries())
    if command == ".log":
        return session.workflow.format_log()
    return f"unknown command {command!r}; try .help"


def repl(
    session: Optional[IqmsSession] = None,
    stdin=None,
    stdout=None,
) -> None:
    """Run the interactive loop (injectable streams for testing)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = session if session is not None else IqmsSession()
    buffer: List[str] = []

    def emit(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    emit("IQMS — integrated query and mining system (type .help)")
    while True:
        prompt = " ...> " if buffer else "iqms> "
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if not line:
            break
        line = line.rstrip("\n")
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            try:
                output = _dispatch_dot(session, stripped)
            except (ReproError, OSError) as error:
                # A missing CSV or an unwritable export path is the
                # user's to fix; the session survives it.
                emit(f"error: {error}")
                continue
            if output is None:
                break
            emit(output)
            continue
        if not stripped and not buffer:
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(buffer)
            buffer = []
            try:
                result = _run_cancellable(session, statement)
                emit(result.text)
            except ReproError as error:
                emit(f"error: {error}")
    session.stop_serving()
    emit("bye")


def _run_cancellable(session: IqmsSession, statement: str):
    """Run one statement with Ctrl-C mapped to cooperative cancellation.

    While the statement executes, SIGINT cancels the mining run (which
    then returns a partial report) instead of raising KeyboardInterrupt
    and killing the shell.  Installing a handler only works on the main
    thread; elsewhere (tests driving the REPL from a worker) the
    statement just runs without the remap.
    """

    def _cancel(signum, frame):
        session.cancel()

    previous = None
    try:
        previous = signal.signal(signal.SIGINT, _cancel)
    except ValueError:
        pass  # not the main thread
    try:
        return session.run(statement)
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)


def main() -> int:
    """Console entry point (``iqms``)."""
    try:
        repl()
    except KeyboardInterrupt:
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
