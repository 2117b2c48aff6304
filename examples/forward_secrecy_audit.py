#!/usr/bin/env python3
"""Forward-secrecy audit: run a compressed version of the paper's study
and report each domain's *vulnerability window* — how long after a
"forward secret" connection its traffic remains decryptable if the
server's stored secrets leak.

This is the paper's §6 analysis as an operator-facing tool.  The study
streams its records to disk and the analysis runs through the
streaming engine (:mod:`repro.analysis`), so the dataset is never
resident in memory — the same path ``repro audit`` uses.

Run:  python examples/forward_secrecy_audit.py  (takes ~2-3 minutes;
set REPRO_EXAMPLE_QUICK=1 for a smaller ~30 s variant, as CI does)
"""

import os

from repro import EcosystemConfig, StudyConfig, build_ecosystem, core
from repro.analysis import analyze, audit_inputs_from_analysis
from repro.figures import ascii_cdf
from repro.netsim.clock import DAY, format_duration
from repro.scanner import run_study

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
STUDY_DAYS = 4 if QUICK else 10
POPULATION = 330 if QUICK else 460


def main() -> None:
    ecosystem = build_ecosystem(EcosystemConfig(population=POPULATION, seed=42))
    if QUICK:
        config = StudyConfig(
            days=STUDY_DAYS, probe_domain_count=60,
            dhe_support_day=1, ecdhe_support_day=1, ticket_support_day=2,
            crossdomain_day=2, session_probe_day=2, ticket_probe_day=3,
        )
    else:
        config = StudyConfig(
            days=STUDY_DAYS, probe_domain_count=200,
            dhe_support_day=2, ecdhe_support_day=3, ticket_support_day=4,
            crossdomain_day=5, session_probe_day=6, ticket_probe_day=8,
        )
    print(f"scanning {len(ecosystem.active_domains())} domains daily "
          f"for {STUDY_DAYS} days…")
    # The study streams into a temporary directory the dataset owns.
    dataset = run_study(ecosystem, config)

    # Fold the on-disk channels into mergeable partials; nothing is
    # loaded whole.  A second run would hit the .analysis/ cache.
    result = analyze(dataset.directory, workers=2)
    print(f"analyzed {sum(result.channel_rows.values()):,} records in "
          f"{result.chunks} chunks ({result.elapsed_seconds:.1f}s)")
    inputs = audit_inputs_from_analysis(result)
    windows = inputs.windows

    summary = core.summarize_exposure(windows)
    print()
    print(core.render_exposure_summary(summary))

    print()
    print(ascii_cdf(
        core.combined_window_cdf(windows),
        "Figure 8-style CDF: combined vulnerability windows",
        x_label="window (log scale)",
        min_x=60.0,
    ))

    # Name and shame: the ten most exposed popular domains.
    worst = sorted(
        windows.values(),
        key=lambda w: (-w.combined, inputs.ranks.get(w.domain, 1 << 30)),
    )[:10]
    print("\nmost exposed domains (window, dominant mechanism):")
    for window in worst:
        rank = inputs.ranks.get(window.domain, 0)
        print(f"  #{rank:<6} {window.domain:<32} "
              f"{format_duration(window.combined):>8}  "
              f"via {window.dominant_mechanism}")

    # What an operator should take away (§8).
    over_day = [w for w in windows.values() if w.combined > DAY]
    by_mechanism = {}
    for window in over_day:
        by_mechanism[window.dominant_mechanism] = (
            by_mechanism.get(window.dominant_mechanism, 0) + 1
        )
    print(f"\nof the {len(over_day)} domains exposed >24 h, the dominant "
          f"mechanism was: {by_mechanism}")
    print("recommendation: rotate STEKs daily, cap session caches, and "
          "never cache (EC)DHE values (paper §8.2).")


if __name__ == "__main__":
    main()
