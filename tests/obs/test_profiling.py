"""Profiling hooks: phase timers, slowest-grab board, pstats aggregation."""

import os

import pytest

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs import load_manifest, render_stats_report, validate_manifest
from repro.obs.profiling import (
    Profiler,
    SLOWEST_N,
    aggregate_pstats,
    merge_profiles,
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
        """Dumps and profile.txt land in <telemetry>/profile/; the merged
        summary lives in the manifest, the run's one record."""
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        telemetry = str(tmp_path / "telemetry")
        run_study_with_stats(
            ecosystem, _tiny_config(shards=2), telemetry_dir=telemetry,
            profile=True,
        )
        names = sorted(os.listdir(os.path.join(telemetry, "profile")))
        assert names == ["profile.txt", "shard-00.pstats", "shard-01.pstats"]
        manifest = load_manifest(telemetry)
        assert validate_manifest(manifest) == []
        profile = manifest["profile"]
        assert "schema" not in profile
        assert profile["shards"] == 2
        assert profile["phase_seconds"]
        assert profile["slowest_grabs"]
        assert profile["top_functions"]
        report = render_stats_report(manifest, {})
        assert "profiling (2 shard(s) profiled)" in report
        assert "time by phase" in report
        assert "hottest functions" in report

    def test_unprofiled_manifest_has_no_profile_section(self, tmp_path):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        telemetry = tmp_path / "telemetry"
        run_study_with_stats(
            ecosystem, _tiny_config(days=1), telemetry_dir=str(telemetry),
        )
        assert "profile" not in load_manifest(str(telemetry))
        assert not (telemetry / "profile").exists()

    def test_profile_requires_telemetry_dir(self):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        with pytest.raises(ValueError, match="telemetry_dir"):
            run_study_with_stats(ecosystem, _tiny_config(), profile=True)

    def test_aggregate_pstats_names_hot_functions(self, tmp_path):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        telemetry = str(tmp_path / "telemetry")
        run_study_with_stats(
            ecosystem, _tiny_config(shards=1), telemetry_dir=telemetry,
            profile=True,
        )
        report_text, top = aggregate_pstats(os.path.join(telemetry, "profile"))
        assert "cumulative" in report_text
        functions = " ".join(entry["function"] for entry in top)
        assert "connect" in functions
