"""Telemetry end-to-end: output neutrality and cross-process determinism.

The two hard constraints from the telemetry design:

* **Output-neutral** — enabling ``telemetry_dir`` must not change one
  byte of study output (the golden digest still holds), because no
  instrument touches seeded RNG state or record content.
* **Worker-independent** — merged counter totals are a function of the
  shard layout alone; running the same shards serially or in a process
  pool yields identical ``metrics.json`` counters (timing histograms
  are explicitly exempt — they measure wall clock).
"""

import os

import pytest

from conftest import small_study_config
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs import load_manifest, load_metrics, validate_manifest
from repro.obs.report import render_prometheus, render_stats_report
from repro.scanner import StudyConfig, run_study_with_stats, save_dataset

from scanner.test_golden_digest import GOLDEN_DIGEST, _dataset_digest

SMALL_POPULATION = 320
BENCH_SEED = 2016


def _tiny_config(**overrides) -> StudyConfig:
    """Daily sweeps only — big enough to exercise every counter family."""
    settings = dict(
        days=2,
        seed=404,
        run_probes=False,
        run_crossdomain=False,
        run_support_scans=False,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


def _run_with_telemetry(tmp_path, name: str, *, workers: int = 1, **overrides):
    ecosystem = build_ecosystem(
        EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
    )
    telemetry_dir = tmp_path / name
    _, stats = run_study_with_stats(
        ecosystem,
        _tiny_config(**overrides),
        workers=workers,
        telemetry_dir=str(telemetry_dir),
    )
    return telemetry_dir, stats


class TestMergeDeterminism:
    def test_counters_identical_across_worker_counts(self, tmp_path):
        dirs = {
            workers: _run_with_telemetry(
                tmp_path, f"w{workers}", workers=workers, shards=2
            )[0]
            for workers in (1, 2)
        }
        serial = load_metrics(str(dirs[1]))
        pooled = load_metrics(str(dirs[2]))
        assert serial["counters"] == pooled["counters"]
        assert serial["gauges"] == pooled["gauges"]
        # Histograms measure wall clock: same keys, unpinned values.
        assert set(serial["histograms"]) == set(pooled["histograms"])


class TestTelemetryArtifacts:
    @pytest.fixture(scope="class")
    def telemetry(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("telemetry")
        directory, stats = _run_with_telemetry(tmp, "run")
        return directory, stats

    def test_all_four_files_written(self, telemetry):
        directory, _ = telemetry
        assert sorted(os.listdir(directory)) == [
            "manifest.json", "metrics.json", "metrics.prom",
        ]

    def test_manifest_validates_and_matches_stats(self, telemetry):
        directory, stats = telemetry
        manifest = load_manifest(str(directory))
        assert validate_manifest(manifest) == []
        assert manifest["run"]["grabs"] == stats.grabs
        assert manifest["experiments"] == stats.scans_by_experiment
        assert manifest["seed"] == 404
        assert len(manifest["shards"]) == 1
        assert len(manifest["shards"][0]["day_seconds"]) == 2
        assert manifest["caches"]  # crypto caches saw traffic

    def test_metrics_cover_the_instrumented_layers(self, telemetry):
        directory, stats = telemetry
        counters = load_metrics(str(directory))["counters"]
        assert counters["scanner.grab.attempt"] == stats.grabs
        families = {key.split("{")[0].split(".")[0] for key in counters}
        assert {"scanner", "tls", "crypto", "x509", "experiment"} <= families
        # Client and server agree on completed handshakes.
        client = sum(
            v for k, v in counters.items() if k.startswith("tls.client.handshake")
        )
        server = sum(
            v for k, v in counters.items() if k.startswith("tls.server.handshake{")
        )
        assert client == server

    def test_run_records_peak_rss(self, telemetry):
        directory, _ = telemetry
        peak = load_manifest(str(directory))["run"]["peak_rss_mib"]
        assert isinstance(peak, float) and peak > 0

    def test_renderers_accept_real_artifacts(self, telemetry):
        directory, _ = telemetry
        manifest = load_manifest(str(directory))
        metrics = load_metrics(str(directory))
        report = render_stats_report(manifest, metrics)
        assert "cache effectiveness" in report
        assert "per-shard timing" in report
        prom = render_prometheus(metrics)
        assert "repro_scanner_grab_attempt_total" in prom
        assert "# TYPE repro_scanner_grab_seconds histogram" in prom
        # Exposition matches what the engine wrote at study time.
        assert (directory / "metrics.prom").read_text() == prom


class TestOutputNeutrality:
    def test_golden_digest_unchanged_with_telemetry_enabled(self, tmp_path):
        """The full reference study, telemetry ON, byte-for-byte pinned."""
        from conftest import SMALL_POPULATION as POP, SMALL_SEED

        ecosystem = build_ecosystem(
            EcosystemConfig(population=POP, seed=SMALL_SEED)
        )
        dataset, _ = run_study_with_stats(
            ecosystem,
            small_study_config(),
            telemetry_dir=str(tmp_path / "telemetry"),
        )
        out = tmp_path / "golden"
        save_dataset(dataset, str(out))
        assert _dataset_digest(out) == GOLDEN_DIGEST
        manifest = load_manifest(str(tmp_path / "telemetry"))
        assert validate_manifest(manifest) == []

    def test_golden_digest_unchanged_with_live_plane_enabled(self, tmp_path):
        """The full reference study with the PR-8 live plane on —
        HTTP exporter, event log, progress, per-shard profiling — is
        still byte-for-byte the golden dataset."""
        from conftest import SMALL_POPULATION as POP, SMALL_SEED

        from repro.obs.exporter import LivePlane

        ecosystem = build_ecosystem(
            EcosystemConfig(population=POP, seed=SMALL_SEED)
        )
        plane = LivePlane(
            serve_port=0, events_path=str(tmp_path / "events.jsonl")
        ).start()
        try:
            dataset, _ = run_study_with_stats(
                ecosystem,
                small_study_config(),
                live=plane,
                profile_dir=str(tmp_path / "profile"),
            )
        finally:
            plane.stop()
        out = tmp_path / "golden"
        save_dataset(dataset, str(out))
        assert _dataset_digest(out) == GOLDEN_DIGEST

    def test_telemetry_dir_may_not_be_the_dataset_dir(self, tmp_path):
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        out = tmp_path / "data"
        with pytest.raises(ValueError, match="telemetry_dir"):
            run_study_with_stats(
                ecosystem,
                _tiny_config(),
                stream_dir=str(out),
                telemetry_dir=str(out),
            )
