"""JSON-able serialization of execution results.

The HTTP API and the result cache both need statement outcomes as plain
JSON values.  The serialized *result* dict deliberately excludes
wall-clock fields (``elapsed_seconds`` travels separately in the
response/job envelope): a cache hit must be byte-identical to the run
that populated it, and two independent runs of the same query over the
same data must serialize identically — that is the property the
end-to-end tests pin.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.items import ItemCatalog
from repro.db.query import QueryResult
from repro.mining.results import MiningReport
from repro.runtime.budget import RunDiagnostics


def diagnostics_to_dict(diagnostics: Optional[RunDiagnostics]) -> Optional[Dict]:
    """Serialize run diagnostics (budget described, not embedded)."""
    if diagnostics is None:
        return None
    return {
        "stop_reason": diagnostics.stop_reason,
        "passes_completed": diagnostics.passes_completed,
        "granules_covered": diagnostics.granules_covered,
        "candidates_generated": diagnostics.candidates_generated,
        "rules_emitted": diagnostics.rules_emitted,
        "budget": diagnostics.budget.describe(),
    }


def report_to_dict(
    report: MiningReport, catalog: Optional[ItemCatalog] = None
) -> Dict:
    """Serialize a mining report.

    Individual findings are serialized through their canonical
    ``format(catalog)`` rendering — the same deterministic text the
    library surfaces everywhere else, which makes "bit-identical to the
    serial library path" directly checkable.

    The rendered findings are sorted: the engine emits rules in item-id
    order, and item ids follow the order labels were first *seen* — a
    streaming append that backfills an early time unit shifts that order
    relative to a cold reload of the very same store content.  Sorting
    by the canonical text keys the serialized result to the store
    *content*, so a delta-folded run and a from-scratch reload serialize
    byte-identically (the append chaos suite pins this).
    """
    document = {
        "type": "mining_report",
        "task": report.task_name,
        "n_results": len(report.results),
        "n_transactions": report.n_transactions,
        "n_units": report.n_units,
        "partial": report.partial,
        "diagnostics": diagnostics_to_dict(report.diagnostics),
        "results": sorted(
            _record_text(record, catalog) for record in report.results
        ),
    }
    # The trace key appears only on traced runs so that untraced payloads
    # stay byte-identical across runs (the cache-stability invariant).
    # The plan is excluded too: it travels on the job record, next to the
    # run's timings (estimate vs actual seconds).
    if report.trace is not None:
        document["trace"] = report.trace
    return document


def _record_text(record, catalog: Optional[ItemCatalog]) -> str:
    formatter = getattr(record, "format", None)
    return formatter(catalog) if formatter is not None else str(record)


def query_result_to_dict(result: QueryResult) -> Dict:
    """Serialize a relational result (SQL / SHOW / EXPLAIN output)."""
    return {
        "type": "query_result",
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "n_rows": len(result.rows),
    }


def payload_to_dict(payload, catalog: Optional[ItemCatalog] = None) -> Dict:
    """Serialize any statement payload (fallback: its text rendering)."""
    if isinstance(payload, MiningReport):
        return report_to_dict(payload, catalog)
    if isinstance(payload, QueryResult):
        return query_result_to_dict(payload)
    formatter = getattr(payload, "format", None)
    if formatter is not None:
        try:
            return {"type": "text", "text": formatter(catalog)}
        except TypeError:
            return {"type": "text", "text": formatter()}
    return {"type": "text", "text": str(payload)}
