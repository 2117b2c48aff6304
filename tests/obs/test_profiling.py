"""Profiling hooks: phase timers, slowest-grab board, pstats aggregation."""

import os

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs.profiling import (
    Profiler,
    SLOWEST_N,
    aggregate_pstats,
    load_profile_summary,
    merge_profiles,
    render_profile_report,
    write_profile_summary,
)
from repro.scanner import StudyConfig, run_study_with_stats

SMALL_POPULATION = 320
BENCH_SEED = 2016


def _tiny_config(**overrides) -> StudyConfig:
    settings = dict(
        days=2,
        seed=404,
        run_probes=False,
        run_crossdomain=False,
        run_support_scans=False,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


class TestProfilerPrimitives:
    def test_disabled_profiler_is_a_noop(self):
        profiler = Profiler()
        with profiler.phase("finalize"):
            pass
        profiler.observe_grab("a.example", 0.5)
        snap = profiler.snapshot()
        assert snap["phase_seconds"] == {}
        assert snap["slowest"] == []

    def test_phase_accumulates_time_and_count(self):
        profiler = Profiler()
        profiler.enable()
        for _ in range(3):
            with profiler.phase("finalize"):
                pass
        snap = profiler.snapshot()
        assert snap["phase_counts"]["finalize"] == 3
        assert snap["phase_seconds"]["finalize"] >= 0.0

    def test_slowest_grabs_keeps_top_n_sorted(self):
        profiler = Profiler()
        profiler.enable()
        for i in range(SLOWEST_N + 10):
            profiler.observe_grab(f"site{i}.example", float(i))
        slowest = profiler.slowest()
        assert len(slowest) == SLOWEST_N
        seconds = [s for s, _ in slowest]
        assert seconds == sorted(seconds, reverse=True)
        assert slowest[0][1] == f"site{SLOWEST_N + 9}.example"

    def test_merge_profiles_sums_phases(self):
        a = {"phase_seconds": {"finalize": 1.0}, "phase_counts": {"finalize": 2},
             "slowest": [(0.5, "a.example")]}
        b = {"phase_seconds": {"finalize": 2.0}, "phase_counts": {"finalize": 1},
             "slowest": [(0.9, "b.example")]}
        merged = merge_profiles([a, b])
        assert merged["phase_seconds"]["finalize"] == 3.0
        assert merged["phase_counts"]["finalize"] == 3
        assert merged["slowest"][0][1] == "b.example"


class TestStudyProfiling:
    def test_profile_dir_written_and_renderable(self, tmp_path):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        profile_dir = str(tmp_path / "profile")
        run_study_with_stats(
            ecosystem, _tiny_config(shards=2), profile_dir=profile_dir,
        )
        names = sorted(os.listdir(profile_dir))
        assert names == [
            "profile.txt", "shard-00.pstats", "shard-01.pstats", "summary.json",
        ]
        summary = load_profile_summary(profile_dir)
        assert summary["schema"] == "repro-profile/1"
        assert summary["shards"] == 2
        assert summary["phase_seconds"]
        assert summary["top_functions"]
        report = render_profile_report(summary)
        assert "time by phase" in report
        assert "hottest functions" in report

    def test_aggregate_pstats_names_hot_functions(self, tmp_path):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        profile_dir = str(tmp_path / "profile")
        run_study_with_stats(
            ecosystem, _tiny_config(shards=1), profile_dir=profile_dir,
        )
        report_text, top = aggregate_pstats(profile_dir)
        assert "cumulative" in report_text
        functions = " ".join(entry["function"] for entry in top)
        assert "connect" in functions
