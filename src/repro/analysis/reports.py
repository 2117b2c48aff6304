"""Report/audit wiring: inputs from the engine, then one renderer.

``repro report`` and ``repro audit`` each split into an *inputs* stage,
which picks the finalized aggregates out of an
:class:`~repro.analysis.engine.AnalysisResult`, and a *render* stage
that turns those inputs into text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import core
from ..core.groups import GroupingResult
from ..core.mitigations import evaluate_mitigations, render_mitigation_report
from ..core.rotation import RotationEstimate
from ..core.windows import VulnerabilityWindow
from .engine import AnalysisResult


@dataclass
class ReportInputs:
    """Everything ``repro report`` renders."""

    sections: List["core.SupportWaterfall"]
    stek_spans: Dict[str, "core.DomainSpans"]
    dhe_spans: Dict[str, "core.DomainSpans"]
    ecdhe_spans: Dict[str, "core.DomainSpans"]
    ranks: Dict[str, int]
    cache_groups: Optional[GroupingResult]
    stek_groups: Optional[GroupingResult]


@dataclass
class AuditInputs:
    """Everything ``repro audit`` renders."""

    windows: Dict[str, VulnerabilityWindow]
    estimates: Dict[str, RotationEstimate]
    ranks: Dict[str, int]


# ---------------------------------------------------------------------------
# Input builders
# ---------------------------------------------------------------------------


def report_inputs_from_analysis(result: AnalysisResult) -> ReportInputs:
    """Report inputs from the finalized aggregates."""
    meta = result.meta
    list_sizes = meta.get("list_sizes") or {}
    always = result.always_present
    sections: List[core.SupportWaterfall] = []
    stek_groups = None
    if result.rows("ticket_support"):
        trusted = result.trusted_domains("ticket_waterfall")
        if result.rows("dhe_support"):
            dhe = result.outputs["dhe_waterfall"]
            sections.append(core.waterfall_from_tallies(
                dhe["tallies"], dhe["trusted"], "dhe",
                *list_sizes["dhe"], trusted_domains=trusted))
        if result.rows("ecdhe_support"):
            ecdhe = result.outputs["ecdhe_waterfall"]
            sections.append(core.waterfall_from_tallies(
                ecdhe["tallies"], ecdhe["trusted"], "ecdhe",
                *list_sizes["ecdhe"], trusted_domains=trusted))
        ticket = result.outputs["ticket_waterfall"]
        sections.append(core.waterfall_from_tallies(
            ticket["tallies"], ticket["trusted"], "ticket",
            *list_sizes["ticket"]))
        stek_groups = result.outputs["stek_groups"]
    cache_groups = None
    if result.rows("cache_edges") or meta.get("crossdomain_targets"):
        cache_groups = result.outputs["cache_groups"]
    return ReportInputs(
        sections=sections,
        stek_spans=result.spans("stek_spans", always),
        dhe_spans=result.spans("dhe_spans", always),
        ecdhe_spans=result.spans("ecdhe_spans", always),
        ranks=result.ranks,
        cache_groups=cache_groups,
        stek_groups=stek_groups,
    )


def audit_inputs_from_analysis(result: AnalysisResult) -> AuditInputs:
    """Audit inputs: ``core.combine_windows`` over the merged spans and
    lifetimes, and rotation estimates from the merged day maps."""
    always = result.always_present
    windows = core.combine_windows(
        stek_spans_by_domain=result.spans("stek_spans", always),
        session_lifetimes=result.outputs["session_lifetimes"],
        dhe_spans_by_domain=result.spans("dhe_spans", always),
        ecdhe_spans_by_domain=result.spans("ecdhe_spans", always),
    )
    estimates = core.estimates_from_day_keys(
        result.outputs["stek_rotation"], always)
    return AuditInputs(windows=windows, estimates=estimates,
                       ranks=result.ranks)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_report(inputs: ReportInputs, min_days: int = 7) -> str:
    """The full ``repro report`` text (no trailing newline)."""
    blocks: List[str] = []
    if inputs.sections:
        blocks.append(core.render_waterfalls(inputs.sections))
    blocks.append(core.render_top_reuse(
        core.top_reuse_rows(inputs.stek_spans, inputs.ranks,
                            min_days=min_days),
        f"Top domains with prolonged STEK reuse (>= {min_days} days)"))
    blocks.append("")
    blocks.append(core.render_top_reuse(
        core.top_reuse_rows(inputs.dhe_spans, inputs.ranks,
                            min_days=min_days),
        f"Top domains with prolonged DHE reuse (>= {min_days} days)"))
    blocks.append("")
    blocks.append(core.render_top_reuse(
        core.top_reuse_rows(inputs.ecdhe_spans, inputs.ranks,
                            min_days=min_days),
        f"Top domains with prolonged ECDHE reuse (>= {min_days} days)"))
    if inputs.cache_groups is not None:
        blocks.append("")
        blocks.append(core.render_largest_groups(
            inputs.cache_groups, "Largest session cache service groups"))
    if inputs.stek_groups is not None:
        blocks.append("")
        blocks.append(core.render_largest_groups(
            inputs.stek_groups, "Largest STEK service groups"))
    return "\n".join(blocks)


def render_audit(inputs: AuditInputs, worst: int = 0) -> str:
    """The full ``repro audit`` text (no trailing newline)."""
    blocks: List[str] = []
    summary = core.summarize_exposure(inputs.windows)
    blocks.append(core.render_exposure_summary(summary))
    blocks.append("")
    histogram = core.rotation_policy_histogram(inputs.estimates)
    blocks.append(f"inferred STEK rotation policies: {histogram}")
    blocks.append("")
    blocks.append(render_mitigation_report(
        evaluate_mitigations(inputs.windows)))
    if worst:
        blocks.append("")
        lines = [f"{'rank':>6}  {'domain':<34} {'window':>8}  mechanism"]
        ordered = sorted(
            inputs.windows.values(), key=lambda w: -w.combined)[:worst]
        for window in ordered:
            rank = inputs.ranks.get(window.domain, 0)
            lines.append(f"{rank:>6}  {window.domain:<34} "
                         f"{core.describe_window(window.combined):>8}  "
                         f"{window.dominant_mechanism}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def render_events_provenance(summary: dict, path: str) -> str:
    """A short provenance note appended below ``repro report --events``.

    ``summary`` is :func:`repro.obs.events.summarize_events` output for
    the event log the producing run streamed; the note surfaces the
    run-health facts a reader needs to judge the tables above (retries,
    chaos injections, breaker trips, whether the run aborted).
    """
    lines = [
        "run provenance (from event log)",
        f"  event log          {path}",
        f"  events             {summary.get('total', 0)}",
        f"  retries            {summary.get('retries', 0)}",
        f"  chaos injections   {summary.get('chaos_injections', 0)}",
        f"  breaker trips      {summary.get('breaker_trips', 0)}",
        f"  checkpoints        {summary.get('checkpoints', 0)}",
    ]
    if summary.get("aborted"):
        lines.append("  WARNING: the producing run ABORTED; "
                     "this dataset may be partial")
    return "\n".join(lines)


__all__ = [
    "ReportInputs",
    "AuditInputs",
    "report_inputs_from_analysis",
    "audit_inputs_from_analysis",
    "render_report",
    "render_audit",
    "render_events_provenance",
]
