"""Streaming, parallel analysis over sharded JSONL datasets.

``repro report`` and ``repro audit`` run on an
:class:`~repro.analysis.engine.AnalysisEngine` that chunks each channel
file, folds raw record dicts into mergeable per-chunk partial states
(:class:`~repro.core.aggregate.ShardAggregate`), caches the partials
under ``<dataset>/.analysis/``, and merges them in deterministic order,
holding memory to O(one chunk).  The aggregates are the same folds the
in-memory ``repro.core`` estimators run, so the two agree exactly.

Layered like the rest of the repo:

* :mod:`repro.analysis.chunks`     — line-aligned byte-range planner;
* :mod:`repro.analysis.aggregates` — the aggregate set behind the
  report and audit tables;
* :mod:`repro.analysis.engine`     — process-pool driver + partial
  cache + telemetry;
* :mod:`repro.analysis.reports`    — report/audit input builders and
  renderers.
"""

from .aggregates import (
    EdgeGroupsAggregate,
    IdentifierGroupsAggregate,
    LifetimeAggregate,
    RotationAggregate,
    ShardAggregate,
    SpanAggregate,
    SupportAggregate,
    default_aggregates,
)
from .chunks import DEFAULT_CHUNK_BYTES, Chunk, plan_chunks, read_chunk
from .engine import (
    CACHE_DIR_NAME,
    CACHE_SCHEMA,
    AnalysisEngine,
    AnalysisResult,
    analyze,
)
from .reports import (
    AuditInputs,
    ReportInputs,
    audit_inputs_from_analysis,
    render_audit,
    render_events_provenance,
    render_report,
    report_inputs_from_analysis,
)

__all__ = [
    "ShardAggregate",
    "SpanAggregate",
    "LifetimeAggregate",
    "SupportAggregate",
    "RotationAggregate",
    "IdentifierGroupsAggregate",
    "EdgeGroupsAggregate",
    "default_aggregates",
    "Chunk",
    "plan_chunks",
    "read_chunk",
    "DEFAULT_CHUNK_BYTES",
    "AnalysisEngine",
    "AnalysisResult",
    "analyze",
    "CACHE_SCHEMA",
    "CACHE_DIR_NAME",
    "ReportInputs",
    "AuditInputs",
    "report_inputs_from_analysis",
    "audit_inputs_from_analysis",
    "render_report",
    "render_audit",
    "render_events_provenance",
]
