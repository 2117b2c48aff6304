#!/usr/bin/env python3
"""Service-group explorer: measure which domains share TLS secret state
(session caches, STEKs, Diffie-Hellman values) — the paper's §5 —
and render the Figure 6/7-style treemaps.

The support scans, 30-minute scans, and cross-domain probes all run as
one streamed study; the shared-state analysis then comes straight out
of the streaming engine's ``stek_groups``/``cache_groups`` aggregates
(union-find over shared identifiers and probe edges).

Run:  python examples/service_group_explorer.py  (takes ~1-2 minutes;
set REPRO_EXAMPLE_QUICK=1 for a smaller ~30 s variant, as CI does)
"""

import os
import shutil
import tempfile
from dataclasses import replace

from repro import EcosystemConfig, StudyConfig, build_ecosystem, core
from repro.analysis import analyze
from repro.figures import layout_treemap, render_treemap, severity_histogram
from repro.netsim.clock import DAY
from repro.scanner import run_study

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
STUDY_DAYS = 4 if QUICK else 7
POPULATION = 330 if QUICK else 460


def main() -> None:
    ecosystem = build_ecosystem(EcosystemConfig(population=POPULATION, seed=5))
    config = StudyConfig(
        days=STUDY_DAYS, probe_domain_count=60,
        dhe_support_day=1, ecdhe_support_day=1, ticket_support_day=1,
        crossdomain_day=2, session_probe_day=2, ticket_probe_day=2,
    )
    workdir = tempfile.mkdtemp(prefix="group-explorer-")
    try:
        print(f"streaming a {STUDY_DAYS}-day study over "
              f"{len(ecosystem.active_domains())} domains "
              f"(10-connection STEK scans, cross-domain probes)…")
        run_study(ecosystem, replace(config, stream_dir=workdir))
        result = analyze(workdir)

        stek_groups = result.outputs["stek_groups"]
        print()
        print(core.render_largest_groups(
            stek_groups, "Table 6-style: largest STEK service groups"))

        cache_groups = result.outputs["cache_groups"]
        print()
        print(core.render_largest_groups(
            cache_groups, "Table 5-style: largest session-cache groups"))

        # Figure 6-style treemap: group size × STEK longevity, with
        # longevity taken from the daily channel's identifier spans.
        spans = result.spans("stek_spans")
        group_rows = []
        for group in stek_groups.groups:
            if len(group) < 2:
                continue
            member_spans = [
                spans[d].max_span_days * DAY
                for d in group.domains if d in spans
            ]
            if not member_spans:
                continue
            member_spans.sort()
            median = member_spans[len(member_spans) // 2]
            group_rows.append((group.label or "?", len(group), median))
        cells = layout_treemap(group_rows)
        print()
        print(render_treemap(
            cells, title="Figure 6-style: STEK sharing x longevity"))
        print(f"\ndomains by severity: {severity_histogram(cells)}")
        print(f"(a {STUDY_DAYS}-day window under-detects the 30+ day red "
              "class; the benchmark harness runs the full 63 days)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
